"""Wire codec tests: lossless, bit-stable round trips, registry
exhaustiveness and per-node interning.

The round-trip properties use seeded random message generators. The
equality witness for the slotted wire classes is their encoding: a
message's bytes are a deterministic function of its content, so equal
bytes (from fresh intern tables) mean equal content. The registry test
fails the moment someone adds a wire-message class without registering
a codec for it.
"""

from __future__ import annotations

import asyncio
import inspect
import random
import struct

import pytest

import repro.core.messages as messages_mod
from repro.core.epoch import Epoch
from repro.core.messages import (
    Ack,
    AcceptEpoch,
    Bump,
    EpochPromise,
    Multicast,
    NewEpoch,
    NewState,
    Start,
)
from repro.net import codec
from repro.net.codec import (
    CODECS,
    FRAME_HB,
    FRAME_HELLO,
    FRAME_MSG,
    INTERN_MAX,
    VALUE_TAGS,
    CodecError,
    FrameDecoder,
    InternTable,
    decode_message,
    decode_value,
    encode_hb_frame,
    encode_hello_frame,
    encode_message,
    encode_msg_frame,
    encode_value,
)
from repro.net.transport import Transport
from repro.rmcast.fifo import Batch, Envelope

# ----------------------------------------------------------------------
# generators (seeded, minimal shrink-friendly shapes)
# ----------------------------------------------------------------------


def rand_epoch(rng: random.Random) -> Epoch:
    return Epoch(rng.randrange(0, 5), rng.randrange(0, 9))


def rand_payload(rng: random.Random, depth: int = 0):
    choices = ["int", "str", "none", "bool", "float"]
    if depth < 2:
        choices += ["list", "tuple", "dict", "fset"]
    kind = rng.choice(choices)
    if kind == "int":
        return rng.randrange(-1000, 1000)
    if kind == "str":
        return "".join(rng.choice("abcxyz{}\"'\\") for _ in range(rng.randrange(0, 6)))
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "float":
        return rng.choice([0.0, -1.5, 3.25, 1e9])
    if kind == "list":
        return [rand_payload(rng, depth + 1) for _ in range(rng.randrange(0, 3))]
    if kind == "tuple":
        return tuple(rand_payload(rng, depth + 1) for _ in range(rng.randrange(0, 3)))
    if kind == "dict":
        return {
            f"k{i}": rand_payload(rng, depth + 1) for i in range(rng.randrange(0, 3))
        }
    return frozenset(rng.sample(range(10), rng.randrange(0, 3)))


def rand_multicast(rng: random.Random) -> Multicast:
    mid = (rng.randrange(0, 9), rng.randrange(0, 100))
    dest = frozenset(rng.sample(range(4), rng.randrange(1, 4)))
    return Multicast(mid, dest, rand_payload(rng))


def rand_dp(rng: random.Random):
    if rng.random() < 0.5:
        return None
    return (rand_epoch(rng), rng.randrange(0, 50))


def rand_t_seq(rng: random.Random):
    return [
        (rand_epoch(rng), rand_multicast(rng), rng.randrange(0, 100))
        for _ in range(rng.randrange(0, 3))
    ]


MESSAGE_GENERATORS = {
    Start: lambda rng: Start(rand_multicast(rng)),
    Ack: lambda rng: Ack(
        rand_multicast(rng),
        rng.randrange(0, 4),
        rand_epoch(rng),
        rng.randrange(0, 100),
        rng.randrange(0, 9),
        rand_dp(rng),
    ),
    Bump: lambda rng: Bump(
        rand_epoch(rng), rng.randrange(0, 100), rng.randrange(0, 9), rand_dp(rng)
    ),
    NewEpoch: lambda rng: NewEpoch(rand_epoch(rng)),
    EpochPromise: lambda rng: EpochPromise(
        rand_epoch(rng),
        rng.randrange(0, 9),
        rng.randrange(0, 100),
        rand_epoch(rng),
        rand_t_seq(rng),
        rng.randrange(0, 20),
    ),
    NewState: lambda rng: NewState(
        rand_epoch(rng), rand_t_seq(rng), rng.randrange(0, 100), rng.randrange(0, 20)
    ),
    AcceptEpoch: lambda rng: AcceptEpoch(rand_epoch(rng), rng.randrange(0, 9)),
    Envelope: lambda rng: Envelope(
        rng.randrange(0, 9),
        rng.randrange(0, 1000),
        MESSAGE_GENERATORS[Ack](rng) if rng.random() < 0.7 else rand_payload(rng),
        tuple(sorted(rng.sample(range(9), rng.randrange(1, 4)))),
        rng.random() < 0.3,
    ),
    Batch: lambda rng: Batch(
        tuple(
            MESSAGE_GENERATORS[Envelope](rng) for _ in range(rng.randrange(1, 4))
        )
    ),
}


# ----------------------------------------------------------------------
# registry exhaustiveness
# ----------------------------------------------------------------------


def wire_message_classes():
    """Every class that can appear as a frame payload: the protocol
    messages of repro.core.messages (class-level ``kind``) plus the
    rmcast wire wrappers."""
    found = []
    for _name, obj in inspect.getmembers(messages_mod, inspect.isclass):
        if obj.__module__ == messages_mod.__name__ and "kind" in vars(obj):
            found.append(obj)
    return found + [Envelope, Batch]


def test_every_wire_message_has_a_codec():
    missing = [cls for cls in wire_message_classes() if cls not in CODECS]
    assert not missing, (
        f"wire message classes without a codec entry: "
        f"{[c.__name__ for c in missing]} — register them in "
        f"repro.net.codec.CODECS (and add a generator in this test)"
    )
    assert set(CODECS) == set(wire_message_classes())


def test_every_wire_message_has_a_generator():
    missing = [cls for cls in wire_message_classes() if cls not in MESSAGE_GENERATORS]
    assert not missing, (
        f"wire message classes without a round-trip generator: "
        f"{[c.__name__ for c in missing]}"
    )


def test_every_wire_message_has_a_binary_codec():
    # Each registered class carries a precompiled fixed-width layout:
    # network byte order, no variable-width or padding codes.
    for cls, (_tag, layout, _enc, _dec) in CODECS.items():
        assert isinstance(layout, struct.Struct), cls
        assert layout.format.startswith("!"), cls
        assert set(layout.format[1:]) <= set("BHIq"), (cls, layout.format)


def test_codec_tags_are_unique():
    tags = [tag for tag, _, _, _ in CODECS.values()]
    assert len(tags) == len(set(tags))


def test_binary_codec_tags_are_unique():
    # Message tags never use 0 (it marks a raw envelope payload), and
    # the value tags and frame kinds are distinct among themselves.
    tags = [tag for tag, _, _, _ in CODECS.values()]
    assert 0 not in tags and all(0 < t < 256 for t in tags)
    assert len(VALUE_TAGS) == len(set(VALUE_TAGS))
    assert len({FRAME_HELLO, FRAME_HB, FRAME_MSG}) == 3


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------

CLASSES = sorted(MESSAGE_GENERATORS, key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", CLASSES)
def test_message_roundtrip_property(cls):
    rng = random.Random(f"codec-{cls.__name__}")
    for _ in range(50):
        msg = MESSAGE_GENERATORS[cls](rng)
        encoded = encode_message(msg)
        decoded = decode_message(encoded)
        assert type(decoded) is cls
        # Bit-stable: re-encoding the decoded message reproduces the
        # exact bytes (unordered containers are canonically sorted).
        assert encode_message(decoded) == encoded


@pytest.mark.parametrize("cls", CLASSES)
def test_binary_message_roundtrip_property(cls):
    # The same property through whole frames: encode_msg_frame ->
    # FrameDecoder -> encode_msg_frame reproduces the frame.
    rng = random.Random(f"codec-bin-{cls.__name__}")
    for _ in range(50):
        msg = MESSAGE_GENERATORS[cls](rng)
        src = rng.randrange(0, 9)
        frame = encode_msg_frame(src, msg)
        [(kind, pid, decoded)] = FrameDecoder().feed(frame)
        assert (kind, pid, type(decoded)) == (FRAME_MSG, src, cls)
        assert encode_msg_frame(pid, decoded) == frame


@pytest.mark.parametrize("cls", CLASSES)
def test_cross_format_roundtrip_property(cls):
    # A multicast reaches the wire in two forms: freshly encoded, or
    # copied from a node's intern table. They must be one format: a
    # message encoded through a warm table (every multicast a hit)
    # decodes on a cold table and on a warm one to the same content,
    # byte for byte. The tables are shared across messages, so reused
    # mids with different payloads occur along the way.
    rng = random.Random(f"codec-cross-{cls.__name__}")
    sender, receiver = InternTable(), InternTable()
    for _ in range(25):
        msg = MESSAGE_GENERATORS[cls](rng)
        fresh = encode_message(msg)
        assert encode_message(msg, sender) == fresh
        assert encode_message(msg, sender) == fresh  # served from the table
        first = decode_message(fresh, receiver)
        again = decode_message(fresh, receiver)  # served from the table
        assert encode_message(first) == fresh
        assert encode_message(again) == fresh
        assert encode_message(again, receiver) == fresh


def test_value_roundtrip_property():
    rng = random.Random("codec-values")
    for _ in range(200):
        value = rand_payload(rng)
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)


def test_binary_value_roundtrip_property():
    # Bit-stable, and independent of container iteration order: sets
    # and dicts are sorted by their elements' encodings.
    rng = random.Random("codec-bin-values")
    for _ in range(200):
        value = rand_payload(rng)
        encoded = encode_value(value)
        assert encode_value(decode_value(encoded)) == encoded
    items = list(range(-40, 40)) + ["a", "b", (1, 2), Epoch(1, 2)]
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert encode_value(set(items)) == encode_value(set(shuffled))
    assert encode_value(dict.fromkeys(items, 1)) == encode_value(dict.fromkeys(shuffled, 1))


def test_out_of_range_ints_raise():
    # Fixed widths: a value that does not fit raises, never truncates.
    for n in (2**63, -(2**63) - 1, 2**70):
        with pytest.raises(CodecError):
            encode_value(n)
    mc = Multicast((0, 0), frozenset({0}), None)
    with pytest.raises(CodecError):
        encode_message(Ack(mc, 0, Epoch(0, 70000), 1, 0))  # pid > u16
    with pytest.raises(CodecError):
        encode_message(Bump(Epoch(-1, 0), 1, 0))  # negative epoch
    with pytest.raises(CodecError):
        encode_msg_frame(2**16, Start(mc))
    with pytest.raises(CodecError):
        encode_message(Start(Multicast((0, 2**64), frozenset({0}))))


def test_binary_rejects_trailing_garbage():
    rng = random.Random("codec-bin-trailing")
    encoded = encode_message(MESSAGE_GENERATORS[Ack](rng))
    with pytest.raises(CodecError):
        decode_message(encoded + b"\x00")
    with pytest.raises(CodecError):
        decode_value(encode_value({"a": 1}) + b"\x00")
    frame = encode_msg_frame(1, MESSAGE_GENERATORS[Ack](rng))
    body = frame[4:] + b"\x00"
    with pytest.raises(CodecError):
        FrameDecoder().feed(struct.pack("!I", len(body)) + body)


def test_truncated_message_raises():
    rng = random.Random("codec-truncated")
    encoded = encode_message(MESSAGE_GENERATORS[Start](rng))
    for cut in range(len(encoded)):
        with pytest.raises(CodecError):
            decode_message(encoded[:cut])


def test_epoch_is_not_flattened_to_a_tuple():
    # Epoch is a NamedTuple; the codec must keep its identity, not
    # degrade it to a plain tuple (a real bug this test pins).
    e = Epoch(3, 7)
    decoded = decode_value(encode_value(e))
    assert isinstance(decoded, Epoch)
    assert decoded.leader == 7


def test_unregistered_message_raises():
    class Rogue:
        kind = "rogue"

    with pytest.raises(CodecError):
        encode_message(Rogue())


def test_plain_dict_payload_cannot_collide_with_tags():
    sneaky = {"__": "ep", "n": 1, "l": 2}
    decoded = decode_value(encode_value(sneaky))
    assert decoded == sneaky
    assert not isinstance(decoded, Epoch)


# ----------------------------------------------------------------------
# interning
# ----------------------------------------------------------------------


def test_reused_mid_with_a_different_payload_decodes_to_its_own_content():
    table = InternTable()
    first = Multicast((4, 9), frozenset({0, 1}), {"v": "first"})
    second = Multicast((4, 9), frozenset({0, 1}), {"v": "second"})
    got_first = decode_message(encode_message(Start(first)), table).multicast
    assert got_first.payload == {"v": "first"}
    got_second = decode_message(encode_message(Start(second)), table).multicast
    assert got_second is not got_first
    assert got_second.payload == {"v": "second"}
    # The entry now holds the newer content, and the same bytes again
    # are served from the table.
    again = decode_message(encode_message(Start(second)), table).multicast
    assert again is got_second
    # Encoding checks identity, not the mid: a different object with a
    # stored mid is encoded from its own content.
    assert encode_message(Start(first), table) == encode_message(Start(first))


def test_intern_table_hits_on_the_same_object_and_equal_bytes():
    table = InternTable()
    mc = Multicast((1, 1), frozenset({0}), {"k": "x" * 100})
    frame = encode_message(Ack(mc, 0, Epoch(0, 0), 3, 1), table)
    assert (table.hits, table.misses) == (0, 1)
    encode_message(Ack(mc, 0, Epoch(0, 0), 4, 2), table)
    assert (table.hits, table.misses) == (1, 1)
    receiver = InternTable()
    a = decode_message(frame, receiver).multicast
    b = decode_message(frame, receiver).multicast
    assert a is b and (receiver.hits, receiver.misses) == (1, 1)


def test_intern_table_never_exceeds_its_bound():
    table = InternTable()
    for seq in range(3 * INTERN_MAX):
        mc = Multicast((0, seq), frozenset({0}), seq)
        decode_message(encode_message(Start(mc), table), table)
        assert len(table) <= INTERN_MAX
    assert len(table) == INTERN_MAX
    assert table.misses == 3 * INTERN_MAX


def test_two_transports_never_share_a_table():
    def on_frame(src, frame):
        pass

    addresses = {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)}
    a = Transport(0, addresses, on_frame)
    b = Transport(1, addresses, on_frame)
    assert isinstance(a.intern, InternTable)
    assert a.intern is not b.intern
    # ... and nothing module-level holds multicasts.
    assert not [
        name for name, value in vars(codec).items() if isinstance(value, InternTable)
    ]


def test_accepted_connections_decode_through_the_transport_table(tmp_path):
    # Frames a transport receives are decoded through its own table:
    # the second copy of a multicast is the interned object.
    received = []

    async def scenario():
        sock_addr = ("127.0.0.1", 0)
        server = Transport(0, {0: sock_addr}, lambda src, f: received.append(f))
        await server.start()
        port = server._server.sockets[0].getsockname()[1]
        _reader, writer = await asyncio.open_connection("127.0.0.1", port)
        mc = Multicast((1, 0), frozenset({0}), "payload")
        writer.write(encode_hello_frame(1))
        for ts in (1, 2):
            writer.write(encode_msg_frame(1, Ack(mc, 0, Epoch(0, 0), ts, 1)))
        await writer.drain()
        for _ in range(200):
            if len(received) == 2:
                break
            await asyncio.sleep(0.01)
        writer.close()
        await server.close()
        return server

    server = asyncio.run(scenario())
    first, second = (frame[2] for frame in received)
    assert first.multicast is second.multicast
    assert (server.intern.hits, server.intern.misses) == (1, 1)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def test_frame_decoder_arbitrary_chunking():
    rng = random.Random("framing")
    msgs = [MESSAGE_GENERATORS[Ack](rng) for _ in range(20)]
    stream = b"".join(encode_msg_frame(i, m) for i, m in enumerate(msgs))
    for trial in range(10):
        decoder = FrameDecoder()
        out = []
        i = 0
        while i < len(stream):
            n = rng.randrange(1, 7)
            out.extend(decoder.feed(stream[i : i + n]))
            i += n
        assert [(k, pid) for k, pid, _ in out] == [(FRAME_MSG, i) for i in range(20)]
        assert [encode_message(m) for _, _, m in out] == [encode_message(m) for m in msgs]


def test_frame_decoder_rejects_oversized_length():
    decoder = FrameDecoder()
    with pytest.raises(CodecError):
        decoder.feed(b"\xff\xff\xff\xff")


def test_frame_decoder_rejects_unknown_kinds_and_versions():
    with pytest.raises(CodecError):
        FrameDecoder().feed(struct.pack("!IB", 1, 99))
    bad_hello = struct.pack("!IBBH", 4, FRAME_HELLO, 1, 3)  # wire version 1
    with pytest.raises(CodecError):
        FrameDecoder().feed(bad_hello)


def test_frame_decoder_mixed_frame_kinds_chunked_stream():
    # One TCP stream interleaving hello, message and heartbeat frames,
    # fed in arbitrary chunk sizes.
    rng = random.Random("mixed-framing")
    expected = [(FRAME_HELLO, 5, None)]
    stream = encode_hello_frame(5)
    for _ in range(40):
        if rng.random() < 0.25:
            pid = rng.randrange(0, 9)
            stream += encode_hb_frame(pid)
            expected.append((FRAME_HB, pid, None))
        else:
            src = rng.randrange(0, 9)
            msg = MESSAGE_GENERATORS[rng.choice(CLASSES)](rng)
            stream += encode_msg_frame(src, msg)
            expected.append((FRAME_MSG, src, msg))
    for _trial in range(10):
        decoder = FrameDecoder()
        out = []
        i = 0
        while i < len(stream):
            n = rng.randrange(1, 9)
            out.extend(decoder.feed(stream[i : i + n]))
            i += n
        assert len(out) == len(expected)
        for (kind, pid, msg), (want_kind, want_pid, want_msg) in zip(out, expected):
            assert (kind, pid) == (want_kind, want_pid)
            if want_msg is None:
                assert msg is None
            else:
                assert encode_message(msg) == encode_message(want_msg)
