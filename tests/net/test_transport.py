"""Transport lifecycle tests: a closed transport behaves like a killed
process at the socket level, shutdown does not wait on dead links, a
closed peer is reported down at once while a reset between live peers
is not, and backpressure ignores queues that cannot drain."""

from __future__ import annotations

import asyncio
from typing import Any, List, Tuple

from repro.net.cluster import allocate_ports
from repro.net.codec import encode_hb_frame, encode_hello_frame
from repro.net.transport import Transport


def _transport(pid: int, ports: list, **kwargs: Any) -> Transport:
    addresses = {i: ("127.0.0.1", port) for i, port in enumerate(ports)}
    return Transport(pid, addresses, lambda src, frame: None, **kwargs)


def _recording(pid: int, ports: list, events: List[Tuple[Any, ...]]) -> Transport:
    """A transport that records its peer-down reports and its probes."""
    loop = asyncio.get_running_loop()
    return _transport(
        pid,
        ports,
        probe=lambda event, data: events.append((pid, event, data)),
        on_peer_down=lambda peer: events.append((pid, "reported_down", peer, loop.time())),
    )


def test_close_closes_accepted_connections():
    # asyncio.Server.close() alone leaves accepted sockets open; a
    # closed transport must reset its peers' links as SIGKILL would.
    async def scenario() -> bytes:
        ports = allocate_ports(2)
        node = _transport(0, ports)
        await node.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", ports[0])
        writer.write(encode_hello_frame(1))
        await writer.drain()
        await asyncio.sleep(0.05)
        await node.close()
        try:
            return await asyncio.wait_for(reader.read(), timeout=2.0)
        finally:
            writer.close()

    assert asyncio.run(scenario()) == b""


def test_flush_does_not_wait_for_a_peer_whose_link_is_down():
    async def scenario() -> tuple:
        ports = allocate_ports(2)  # nobody listens on the peer's port
        node = _transport(0, ports)
        await node.start()
        node.send_frame_bytes(1, encode_hb_frame(0))
        loop = asyncio.get_running_loop()
        started = loop.time()
        drained = await node.flush(timeout_s=2.0)
        elapsed = loop.time() - started
        stats = node.stats()
        await node.close()
        return drained, elapsed, stats

    drained, elapsed, stats = asyncio.run(scenario())
    assert drained and elapsed < 1.0, (drained, elapsed)
    assert stats["queued"] == 1  # the frame waits for a reconnect


def test_closed_transport_is_reported_down_by_its_peers_at_once():
    # Closing a transport ends its outgoing links; each peer dials back,
    # is refused (the listener closed first) and reports it down well
    # before any heartbeat timeout could.
    async def scenario() -> tuple:
        ports = allocate_ports(3)
        events: List[Tuple[Any, ...]] = []
        nodes = [_recording(pid, ports, events) for pid in range(3)]
        for node in nodes:
            await node.start()
        for node in nodes:
            await node.connect_all()
        loop = asyncio.get_running_loop()
        closed_at = loop.time()
        await nodes[0].close()
        while loop.time() < closed_at + 1.0:
            if sum(1 for e in events if e[1] == "reported_down") >= 2:
                break
            await asyncio.sleep(0.005)
        seen, stats = list(events), [node.stats() for node in nodes[1:]]
        for node in nodes[1:]:
            await node.close()
        return closed_at, seen, stats

    closed_at, events, stats = asyncio.run(scenario())
    reports = [e for e in events if e[1] == "reported_down"]
    assert sorted((e[0], e[2]) for e in reports) == [(1, 0), (2, 0)], events
    assert all(e[3] - closed_at < 0.1 for e in reports), reports
    assert (1, "peer_down", 0) in events
    assert [s["peer_down"] for s in stats] == [1, 1]


def test_reset_between_live_peers_reports_no_peer_down():
    # Abort node 1's inbound link from node 0: both processes are alive,
    # so node 1's confirm-dial connects and nothing is reported; node
    # 0's dialer reconnects and later frames still arrive.
    async def scenario() -> tuple:
        ports = allocate_ports(2)
        events: List[Tuple[Any, ...]] = []
        received: List[Any] = []
        nodes = [_recording(pid, ports, events) for pid in range(2)]
        nodes[1].on_frame = lambda src, frame: received.append((src, frame))
        for node in nodes:
            await node.start()
        for node in nodes:
            await node.connect_all()
        await asyncio.sleep(0.05)  # node 1 has read node 0's hello
        (inbound,) = nodes[1]._accepted
        inbound.transport.abort()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 2.0
        while not any(e[1] == "peer_alive" for e in events) and loop.time() < deadline:
            await asyncio.sleep(0.005)
        while not received and loop.time() < deadline:
            nodes[0].send_frame_bytes(1, encode_hb_frame(0))
            await asyncio.sleep(0.02)
        await asyncio.sleep(0.1)
        seen, stats = list(events), nodes[1].stats()
        for node in nodes:
            await node.close()
        return seen, received, stats

    events, received, stats = asyncio.run(scenario())
    assert (1, "peer_alive", 0) in events, events
    assert not any(e[1] in ("reported_down", "peer_down") for e in events), events
    assert stats["peer_down"] == 0
    assert received, "node 0 never got a frame through after the reset"


def test_overloaded_ignores_the_queue_of_a_peer_whose_link_is_down():
    # Frames for a dead peer wait for a reconnect that may never come;
    # they must not hold the backpressure signal on forever.
    async def scenario() -> tuple:
        ports = allocate_ports(2)  # nobody listens on the peer's port
        node = _transport(0, ports, max_queue_bytes=100)
        await node.start()
        node.send_frame_bytes(1, encode_hb_frame(0) * 64)
        await asyncio.sleep(0.05)
        result = node.queued_bytes(), node.overloaded()
        await node.close()
        return result

    queued, overloaded = asyncio.run(scenario())
    assert queued > 100
    assert overloaded is False


def test_overloaded_counts_the_queue_of_a_live_peer():
    async def scenario() -> bool:
        ports = allocate_ports(2)
        nodes = [_transport(pid, ports, max_queue_bytes=100) for pid in range(2)]
        for node in nodes:
            await node.start()
        await nodes[0].connect_all()
        # No await in between: the bytes are still staged.
        nodes[0].send_frame_bytes(1, encode_hb_frame(0) * 64)
        over = nodes[0].overloaded()
        for node in nodes:
            await node.close()
        return over

    assert asyncio.run(scenario()) is True


def test_connect_all_does_not_wait_for_a_peer_reported_down():
    # The peer said hello and died before our dialer reached it: its
    # listener refuses the confirm-dial, and startup goes on without it.
    async def scenario() -> set:
        ports = allocate_ports(2)  # nobody listens on the peer's port
        node = _transport(0, ports)
        await node.start()
        _, writer = await asyncio.open_connection("127.0.0.1", ports[0])
        writer.write(encode_hello_frame(1))
        await writer.drain()
        writer.close()
        await node.connect_all(timeout_s=2.0)
        down = set(node.down)
        await node.close()
        return down

    assert asyncio.run(scenario()) == {1}
