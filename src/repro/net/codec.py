"""Wire codec: one binary format with fixed layouts and per-node interning.

A frame is ``[u32 body length][u8 frame kind]`` plus a fixed layout:
``HELLO`` (wire version, pid; first on every connection), ``HB`` (pid)
or ``MSG`` (source pid + one message). A message is a class tag from
:data:`CODECS`, the class's precompiled :class:`struct.Struct` head and
its variable tail. Integers have fixed widths (pids and groups u16,
epoch numbers u32, everything else i64); a value that does not fit
raises :class:`CodecError`, never truncates. Only the application
payload uses the generic, canonically sorted value encoding
(:func:`encode_value`), so ``encode → decode → encode`` is bit-stable.

A multicast rides in its Start and in every Ack for it, so each node's
transport owns an :class:`InternTable` that lets the node encode and
decode each multicast once; it is never module-global, because nodes
sharing an interpreter must still each do the work a separate process
would. DESIGN.md §13 has the rationale.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from struct import Struct
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..core.epoch import Epoch
from ..core.messages import (
    Ack,
    AcceptEpoch,
    Bump,
    EpochPromise,
    MessageId,
    Multicast,
    NewEpoch,
    NewState,
    Start,
)
from ..rmcast.fifo import Batch, Envelope

#: Length-prefix format: unsigned 32-bit big-endian frame length.
LEN_STRUCT = Struct("!I")

#: Hard ceiling on a single frame (a corrupt length prefix must not ask
#: the reader to buffer gigabytes).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Carried in every HELLO and bumped on any layout change: a peer with a
#: different version is refused instead of misparsed.
WIRE_VERSION = 2

#: Entries per intern map. A few times the in-flight window hits as
#: often as 4096 entries did; a bigger table only keeps payloads alive.
INTERN_MAX = 256

FRAME_HELLO, FRAME_HB, FRAME_MSG = 1, 2, 3

#: One decoded frame: ``(frame kind, pid, message)``. The pid is the
#: dialer (HELLO), the heartbeat sender (HB) or the message's source
#: (MSG); the message is None except for MSG frames.
Frame = Tuple[int, int, Any]


class CodecError(ValueError):
    """A value or frame that cannot be encoded/decoded losslessly."""


_U32, _I64, _F64 = Struct("!I"), Struct("!q"), Struct("!d")
_HELLO = Struct("!BBH")  # kind, version, pid
_HB = Struct("!BH")  # kind, pid
_MSG_HEAD = Struct("!IBH")  # length prefix, kind, src pid
_MSG_BODY = Struct("!BHB")  # kind, src pid, message class tag
_MC = Struct("!HqHI")  # origin, seq, dest count, payload length
_EPOCH = Struct("!IH")  # number, leader
# "BIHq" is a delivered-prefix report: present flag, epoch, count.
_ACK = Struct("!HIHqH" "BIHq")  # group, epoch, ts, sender, dp
_BUMP = Struct("!IHqH" "BIHq")  # epoch, ts, sender, dp
_PROMISE = Struct("!IHHqIHqI")  # epoch, sender, clock, e_cur, t_base, rows
_NEW_STATE = Struct("!IHqqI")  # epoch, ts, t_base, rows
_ACCEPT = Struct("!IHH")  # epoch, sender
_T_ROW = Struct("!IHq")  # epoch, ts (the row's multicast follows)
_ENVELOPE = Struct("!HqBH")  # origin, seq, relayed, dest count
_BATCH = Struct("!H")  # envelope count
#: An ack's head followed by its multicast's head, unpacked in one go.
_ACK_MC = Struct(_ACK.format + _MC.format[1:])

#: Envelope payload tag of a raw (non-message) payload, which follows as
#: a u32 length + generic value. Message class tags start at 1.
_RAW_PAYLOAD = 0

#: Malformed input surfaces as one of these while decoding.
_DECODE_ERRORS = (struct.error, IndexError, KeyError, TypeError, ValueError, UnicodeDecodeError)


@lru_cache(maxsize=64)
def _u16s(n: int) -> Struct:
    """The layout of ``n`` u16s (destination pids or gids)."""
    return Struct("!%dH" % n)


# -- values (the application payload) -----------------------------------

_V_NONE, _V_TRUE, _V_FALSE, _V_INT, _V_FLOAT, _V_STR = 0, 1, 2, 3, 4, 5
_V_LIST, _V_TUPLE, _V_SET, _V_FSET, _V_DICT, _V_EPOCH = 6, 7, 8, 9, 10, 11
VALUE_TAGS = (_V_NONE, _V_TRUE, _V_FALSE, _V_INT, _V_FLOAT, _V_STR,
              _V_LIST, _V_TUPLE, _V_SET, _V_FSET, _V_DICT, _V_EPOCH)
_SEQUENCES: Dict[int, Callable[[List[Any]], Any]] = {
    _V_LIST: list, _V_TUPLE: tuple, _V_SET: set, _V_FSET: frozenset,
}


def _put_value(out: bytearray, v: Any) -> None:
    cls = v.__class__
    if v is None:
        out.append(_V_NONE)
    elif cls is bool:
        out.append(_V_TRUE if v else _V_FALSE)
    elif cls is int:
        out.append(_V_INT)
        out += _I64.pack(v)
    elif cls is str:
        raw = v.encode("utf-8")
        out.append(_V_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif cls is float:
        out.append(_V_FLOAT)
        out += _F64.pack(v)
    elif cls is Epoch:
        out.append(_V_EPOCH)
        out += _EPOCH.pack(v[0], v[1])
    elif cls is list or cls is tuple:
        out.append(_V_LIST if cls is list else _V_TUPLE)
        out += _U32.pack(len(v))
        for item in v:
            _put_value(out, item)
    elif cls is dict:
        # Canonical order: by key when every key is a str, else by the
        # encoded key (keys are distinct, so values are never compared).
        out.append(_V_DICT)
        out += _U32.pack(len(v))
        if all(k.__class__ is str for k in v):
            for k in sorted(v):
                _put_value(out, k)
                _put_value(out, v[k])
        else:
            for raw, x in sorted((encode_value(k), x) for k, x in v.items()):
                out += raw
                _put_value(out, x)
    elif cls is set or cls is frozenset:
        items = sorted(encode_value(item) for item in v)
        out.append(_V_SET if cls is set else _V_FSET)
        out += _U32.pack(len(items))
        for raw in items:
            out += raw
    else:
        raise CodecError(f"cannot encode {cls.__name__}: {v!r}")


def _get_value(buf: bytes, off: int, end: int) -> Tuple[Any, int]:
    tag = buf[off]
    off += 1
    if tag == _V_STR:
        (n,) = _U32.unpack_from(buf, off)
        off += 4
        if off + n > end:
            raise CodecError("string runs past its payload")
        return buf[off : off + n].decode("utf-8"), off + n
    if tag == _V_INT:
        return _I64.unpack_from(buf, off)[0], off + 8
    if tag == _V_DICT:
        (n,) = _U32.unpack_from(buf, off)
        off += 4
        d = {}
        for _ in range(n):
            k, off = _get_value(buf, off, end)
            d[k], off = _get_value(buf, off, end)
        return d, off
    if tag == _V_NONE or tag == _V_TRUE or tag == _V_FALSE:
        return (None if tag == _V_NONE else tag == _V_TRUE), off
    if tag == _V_FLOAT:
        return _F64.unpack_from(buf, off)[0], off + 8
    if tag == _V_EPOCH:
        return Epoch(*_EPOCH.unpack_from(buf, off)), off + _EPOCH.size
    if tag in _SEQUENCES:
        (n,) = _U32.unpack_from(buf, off)
        off += 4
        items = []
        for _ in range(n):
            item, off = _get_value(buf, off, end)
            items.append(item)
        return _SEQUENCES[tag](items), off
    raise CodecError(f"unknown value tag {tag}")


def _whole(get: Callable[[bytes], Tuple[Any, int]], data: bytes, what: str) -> Any:
    """Decode one ``what`` that must fill ``data`` exactly."""
    try:
        value, off = get(data)
    except _DECODE_ERRORS as exc:  # CodecError included
        raise CodecError(f"malformed {what}: {exc}") from exc
    if off != len(data):
        raise CodecError(f"trailing garbage after {what} ({len(data) - off} bytes)")
    return value


def encode_value(value: Any) -> bytes:
    """The generic encoding of one payload value."""
    out = bytearray()
    try:
        _put_value(out, value)
    except struct.error as exc:
        raise CodecError(f"cannot encode {value!r}: {exc}") from exc
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`."""
    return _whole(lambda b: _get_value(b, 0, len(b)), data, "value")


# -- multicasts and the intern table ------------------------------------


def _put_bounded(entries: Dict[Any, Any], key: Any, value: Any) -> None:
    if len(entries) >= INTERN_MAX and key not in entries:
        del entries[next(iter(entries))]
    entries[key] = value


class InternTable:
    """One node's ``mid -> (Multicast, encoded bytes)`` table.

    Encoding the very object stored for its mid copies the stored bytes;
    decoding bytes equal to the stored bytes returns the stored object,
    and other bytes are decoded in full and replace the entry (content
    is checked, a mid is never trusted). The table also remembers
    encoded envelopes by identity (a node's batches to its peers repeat
    the same ack envelopes) and decoded epochs. Every map keeps at most
    :data:`INTERN_MAX` entries, oldest evicted first. ``hits`` /
    ``misses`` count multicast encodes and decodes served from the
    table versus done in full.
    """

    __slots__ = ("_entries", "_envelopes", "_epochs", "hits", "misses")

    def __init__(self) -> None:
        self._entries: Dict[MessageId, Tuple[Multicast, bytes]] = {}
        self._envelopes: Dict[int, Tuple[Envelope, bytearray]] = {}
        self._epochs: Dict[int, Epoch] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def encode(self, mc: Multicast) -> bytes:
        entry = self._entries.get(mc.mid)
        if entry is not None and entry[0] is mc:
            self.hits += 1
            return entry[1]
        self.misses += 1
        dest = sorted(mc.dest)
        out = bytearray(_MC.size)
        out += _u16s(len(dest)).pack(*dest)
        start = len(out)
        _put_value(out, mc.payload)
        _MC.pack_into(out, 0, mc.mid[0], mc.mid[1], len(dest), len(out) - start)
        raw = bytes(out)
        _put_bounded(self._entries, mc.mid, (mc, raw))
        return raw

    def decode(self, buf: bytes, off: int) -> Tuple[Multicast, int]:
        origin, seq, n, plen = _MC.unpack_from(buf, off)
        start = off + _MC.size + 2 * n
        end = start + plen
        if end > len(buf):
            raise CodecError("multicast runs past the end of its frame")
        entry = self._entries.get((origin, seq))
        if entry is not None and len(entry[1]) == end - off and buf.startswith(entry[1], off):
            self.hits += 1
            return entry[0], end
        self.misses += 1
        payload, stop = _get_value(buf, start, end)
        if stop != end:
            raise CodecError("multicast payload length does not match its value")
        dest = _u16s(n).unpack_from(buf, off + _MC.size)
        mc = Multicast((origin, seq), frozenset(dest), payload)
        _put_bounded(self._entries, mc.mid, (mc, buf[off:end]))
        return mc, end

    def epoch(self, number: int, leader: int) -> Epoch:
        key = number << 16 | leader
        epoch = self._epochs.get(key)
        if epoch is None:
            epoch = Epoch(number, leader)
            _put_bounded(self._epochs, key, epoch)
        return epoch


# -- messages -----------------------------------------------------------


def _dp_fields(dp: Any) -> Tuple[int, int, int, int]:
    return (0, 0, 0, 0) if dp is None else (1, dp[0][0], dp[0][1], dp[1])


def _put_rows(out: bytearray, rows: Any, t: InternTable) -> None:
    for epoch, mc, ts in rows:
        out += _T_ROW.pack(epoch[0], epoch[1], ts)
        out += t.encode(mc)


def _get_rows(buf: bytes, off: int, n: int, t: InternTable) -> Tuple[List[Any], int]:
    rows = []
    for _ in range(n):
        number, leader, ts = _T_ROW.unpack_from(buf, off)
        mc, off = t.decode(buf, off + _T_ROW.size)
        rows.append((t.epoch(number, leader), mc, ts))
    return rows, off


def _enc_start(m: Start, out: bytearray, t: InternTable) -> None:
    out += t.encode(m.multicast)


def _dec_start(buf: bytes, off: int, t: InternTable) -> Tuple[Start, int]:
    mc, off = t.decode(buf, off)
    return Start(mc), off


def _enc_ack(m: Ack, out: bytearray, t: InternTable) -> None:
    e = m.epoch
    out += _ACK.pack(m.group, e[0], e[1], m.ts, m.sender, *_dp_fields(m.dp))
    out += t.encode(m.multicast)


def _dec_ack(buf: bytes, off: int, t: InternTable) -> Tuple[Ack, int]:
    # The hottest decoder: one unpack covers both heads, an intern hit
    # is resolved inline (InternTable.decode does the rest), and equal
    # epochs are looked up once.
    (group, en, el, ts, sender, has_dp, dn, dl, dc,
     origin, seq, n, plen) = _ACK_MC.unpack_from(buf, off)
    off += _ACK.size
    size = _MC.size + 2 * n + plen
    entry = t._entries.get((origin, seq))
    if entry is not None and len(entry[1]) == size and buf.startswith(entry[1], off):
        t.hits += 1
        mc, off = entry[0], off + size
    else:
        mc, off = t.decode(buf, off)
    epoch = t._epochs.get(en << 16 | el) or t.epoch(en, el)
    if has_dp:
        dp = (epoch if dn == en and dl == el else t.epoch(dn, dl), dc)
    else:
        dp = None
    return Ack(mc, group, epoch, ts, sender, dp), off


def _enc_bump(m: Bump, out: bytearray, t: InternTable) -> None:
    out += _BUMP.pack(m.epoch[0], m.epoch[1], m.ts, m.sender, *_dp_fields(m.dp))


def _dec_bump(buf: bytes, off: int, t: InternTable) -> Tuple[Bump, int]:
    en, el, ts, sender, has_dp, dn, dl, dc = _BUMP.unpack_from(buf, off)
    dp = (t.epoch(dn, dl), dc) if has_dp else None
    return Bump(t.epoch(en, el), ts, sender, dp), off + _BUMP.size


def _enc_new_epoch(m: NewEpoch, out: bytearray, t: InternTable) -> None:
    out += _EPOCH.pack(m.epoch[0], m.epoch[1])


def _dec_new_epoch(buf: bytes, off: int, t: InternTable) -> Tuple[NewEpoch, int]:
    return NewEpoch(t.epoch(*_EPOCH.unpack_from(buf, off))), off + _EPOCH.size


def _enc_promise(m: EpochPromise, out: bytearray, t: InternTable) -> None:
    e, c = m.epoch, m.e_cur
    out += _PROMISE.pack(e[0], e[1], m.sender, m.clock, c[0], c[1], m.t_base, len(m.t_seq))
    _put_rows(out, m.t_seq, t)


def _dec_promise(buf: bytes, off: int, t: InternTable) -> Tuple[EpochPromise, int]:
    en, el, sender, clock, cn, cl, t_base, n = _PROMISE.unpack_from(buf, off)
    rows, off = _get_rows(buf, off + _PROMISE.size, n, t)
    return EpochPromise(t.epoch(en, el), sender, clock, t.epoch(cn, cl), rows, t_base), off


def _enc_new_state(m: NewState, out: bytearray, t: InternTable) -> None:
    out += _NEW_STATE.pack(m.epoch[0], m.epoch[1], m.ts, m.t_base, len(m.t_seq))
    _put_rows(out, m.t_seq, t)


def _dec_new_state(buf: bytes, off: int, t: InternTable) -> Tuple[NewState, int]:
    en, el, ts, t_base, n = _NEW_STATE.unpack_from(buf, off)
    rows, off = _get_rows(buf, off + _NEW_STATE.size, n, t)
    return NewState(t.epoch(en, el), rows, ts, t_base), off


def _enc_accept(m: AcceptEpoch, out: bytearray, t: InternTable) -> None:
    out += _ACCEPT.pack(m.epoch[0], m.epoch[1], m.sender)


def _dec_accept(buf: bytes, off: int, t: InternTable) -> Tuple[AcceptEpoch, int]:
    en, el, sender = _ACCEPT.unpack_from(buf, off)
    return AcceptEpoch(t.epoch(en, el), sender), off + _ACCEPT.size


def _enc_envelope(m: Envelope, out: bytearray, t: InternTable) -> None:
    # Cached by id(): the entry holds the envelope, so its id cannot be
    # reused while the entry exists.
    entry = t._envelopes.get(id(m))
    if entry is not None and entry[0] is m:
        out += entry[1]
        return
    raw = bytearray(_ENVELOPE.pack(m.origin, m.seq, m.relayed, len(m.dests)))
    raw += _u16s(len(m.dests)).pack(*m.dests)
    codec = CODECS.get(m.payload.__class__)
    if codec is not None:
        raw.append(codec[0])
        codec[2](m.payload, raw, t)
    else:
        value = encode_value(m.payload)
        raw.append(_RAW_PAYLOAD)
        raw += _U32.pack(len(value))
        raw += value
    _put_bounded(t._envelopes, id(m), (m, raw))
    out += raw


def _dec_envelope(buf: bytes, off: int, t: InternTable) -> Tuple[Envelope, int]:
    origin, seq, relayed, n = _ENVELOPE.unpack_from(buf, off)
    off += _ENVELOPE.size
    dests = _u16s(n).unpack_from(buf, off)
    off += 2 * n
    dec = _DECODERS.get(buf[off])
    if dec is not None:
        payload, off = dec(buf, off + 1, t)
    elif buf[off] == _RAW_PAYLOAD:
        (plen,) = _U32.unpack_from(buf, off + 1)
        end = off + 5 + plen
        payload, off = _get_value(buf, off + 5, end)
        if off != end:
            raise CodecError("envelope payload length does not match its value")
    else:
        raise CodecError(f"no codec registered for wire tag {buf[off]}")
    return Envelope(origin, seq, payload, dests, relayed != 0), off


def _enc_batch(m: Batch, out: bytearray, t: InternTable) -> None:
    out += _BATCH.pack(len(m.envelopes))
    for env in m.envelopes:
        _enc_envelope(env, out, t)


def _dec_batch(buf: bytes, off: int, t: InternTable) -> Tuple[Batch, int]:
    (n,) = _BATCH.unpack_from(buf, off)
    off += _BATCH.size
    envs = []
    for _ in range(n):
        env, off = _dec_envelope(buf, off, t)
        envs.append(env)
    return Batch(tuple(envs)), off


Encoder = Callable[[Any, bytearray, InternTable], None]
Decoder = Callable[[bytes, int, InternTable], Tuple[Any, int]]

#: class -> (one-byte wire tag, fixed head layout, encode, decode). Every
#: class in :mod:`repro.core.messages` with a class-level ``kind`` plus
#: the rmcast frames must have an entry; the registry test fails when a
#: new wire message is added without one. (``Envelope.kind`` is its
#: payload's kind, so the ``kind`` strings cannot serve as tags.)
CODECS: Dict[Type[Any], Tuple[int, Struct, Encoder, Decoder]] = {
    Start: (1, _MC, _enc_start, _dec_start),
    Ack: (2, _ACK, _enc_ack, _dec_ack),
    Bump: (3, _BUMP, _enc_bump, _dec_bump),
    NewEpoch: (4, _EPOCH, _enc_new_epoch, _dec_new_epoch),
    EpochPromise: (5, _PROMISE, _enc_promise, _dec_promise),
    NewState: (6, _NEW_STATE, _enc_new_state, _dec_new_state),
    AcceptEpoch: (7, _ACCEPT, _enc_accept, _dec_accept),
    Envelope: (8, _ENVELOPE, _enc_envelope, _dec_envelope),
    Batch: (9, _BATCH, _enc_batch, _dec_batch),
}

_DECODERS: Dict[int, Decoder] = {tag: dec for tag, _, _, dec in CODECS.values()}


def _put_message(msg: Any, out: bytearray, t: InternTable) -> None:
    entry = CODECS.get(msg.__class__)
    if entry is None:
        cls = msg.__class__
        raise CodecError(f"no codec registered for {cls.__module__}.{cls.__name__}")
    out.append(entry[0])
    entry[2](msg, out, t)


def _get_message(buf: bytes, off: int, t: InternTable) -> Tuple[Any, int]:
    dec = _DECODERS.get(buf[off])
    if dec is None:
        raise CodecError(f"no codec registered for wire tag {buf[off]}")
    return dec(buf, off + 1, t)


def encode_message(msg: Any, table: Optional[InternTable] = None) -> bytes:
    """One registered wire message (tag + layout + tail) as bytes."""
    out = bytearray()
    try:
        _put_message(msg, out, table if table is not None else InternTable())
    except struct.error as exc:
        raise CodecError(f"cannot encode {msg!r}: {exc}") from exc
    return bytes(out)


def decode_message(data: bytes, table: Optional[InternTable] = None) -> Any:
    """Inverse of :func:`encode_message`."""
    t = table if table is not None else InternTable()
    return _whole(lambda b: _get_message(b, 0, t), data, "message")


# -- frames -------------------------------------------------------------


def encode_msg_frame(src: int, msg: Any, table: Optional[InternTable] = None) -> bytearray:
    """One MSG frame carrying ``msg`` from ``src``, length prefix included
    (never mutated after it is returned)."""
    out = bytearray(_MSG_HEAD.size)
    try:
        _put_message(msg, out, table if table is not None else InternTable())
        length = len(out) - LEN_STRUCT.size
        if length > MAX_FRAME_BYTES:
            raise CodecError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
        _MSG_HEAD.pack_into(out, 0, length, FRAME_MSG, src)
    except struct.error as exc:
        raise CodecError(f"cannot encode {msg!r} from {src!r}: {exc}") from exc
    return out


def _control_frame(layout: Struct, *fields: int) -> bytes:
    try:
        return LEN_STRUCT.pack(layout.size) + layout.pack(*fields)
    except struct.error as exc:
        raise CodecError(f"cannot encode {fields!r}: {exc}") from exc


def encode_hb_frame(pid: int) -> bytes:
    """One heartbeat frame."""
    return _control_frame(_HB, FRAME_HB, pid)


def encode_hello_frame(pid: int) -> bytes:
    """The first frame on every connection: wire version + dialer pid."""
    return _control_frame(_HELLO, FRAME_HELLO, WIRE_VERSION, pid)


def _decode_frame(buf: bytes, off: int, end: int, table: InternTable) -> Frame:
    """The frame whose body is ``buf[off:end]``."""
    kind = buf[off]
    if kind == FRAME_MSG:
        _, src, tag = _MSG_BODY.unpack_from(buf, off)
        dec = _DECODERS.get(tag)
        if dec is None:
            raise CodecError(f"no codec registered for wire tag {tag}")
        msg, off = dec(buf, off + _MSG_BODY.size, table)
        if off != end:
            raise CodecError(f"message does not fill its frame ({end - off} bytes left)")
        return (FRAME_MSG, src, msg)
    if kind == FRAME_HB and end - off == _HB.size:
        return (FRAME_HB, _HB.unpack_from(buf, off)[1], None)
    if kind == FRAME_HELLO and end - off == _HELLO.size:
        _, version, pid = _HELLO.unpack_from(buf, off)
        if version != WIRE_VERSION:
            raise CodecError(f"peer speaks wire version {version}, not {WIRE_VERSION}")
        return (FRAME_HELLO, pid, None)
    raise CodecError(f"malformed frame of kind {kind} ({end - off} bytes)")


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream.

    ``feed`` accepts any chunking (TCP does not respect frame
    boundaries) and returns the complete frames it finished. Multicasts
    are decoded through ``table`` — the owning node's intern table.
    """

    def __init__(self, table: Optional[InternTable] = None) -> None:
        self.table = table if table is not None else InternTable()
        self._buf = bytearray()
        #: Buffered bytes needed before the next frame can complete.
        self._need = 0

    def feed(self, data: bytes) -> List[Frame]:
        buf = self._buf
        if buf:
            if len(buf) + len(data) < self._need:
                buf += data
                return []
            data = b"".join((buf, data))
            buf.clear()
        frames: List[Frame] = []
        off, n, table = 0, len(data), self.table
        try:
            while True:
                if n - off < LEN_STRUCT.size:
                    self._need = LEN_STRUCT.size
                    break
                (length,) = LEN_STRUCT.unpack_from(data, off)
                if length > MAX_FRAME_BYTES:
                    raise CodecError(f"frame length {length} exceeds MAX_FRAME_BYTES")
                end = off + LEN_STRUCT.size + length
                if end > n:
                    self._need = end - off
                    break
                frames.append(_decode_frame(data, off + LEN_STRUCT.size, end, table))
                off = end
        except _DECODE_ERRORS as exc:  # CodecError included
            raise CodecError(f"malformed frame: {exc}") from exc
        if off < n:
            buf += data[off:]
        return frames
