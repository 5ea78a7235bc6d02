"""Transport lifecycle tests: a closed transport behaves like a killed
process at the socket level, and shutdown does not wait on dead links."""

from __future__ import annotations

import asyncio

from repro.net.cluster import allocate_ports
from repro.net.codec import encode_hb_frame, encode_hello_frame
from repro.net.transport import Transport


def _transport(pid: int, ports: list) -> Transport:
    addresses = {i: ("127.0.0.1", port) for i, port in enumerate(ports)}
    return Transport(pid, addresses, lambda src, frame: None)


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
