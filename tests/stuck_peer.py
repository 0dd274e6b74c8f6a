"""A peer that sends and never reads, for the servers' shutdown tests."""

import asyncio
import socket


async def unread_flood(port, data):
    """Connect with a small receive buffer, send ``data`` and never
    read what comes back; the caller aborts the returned writer."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", port))
    _, writer = await asyncio.open_connection(sock=sock)
    writer.write(data)  # no drain: the server soon stops reading
    return writer


async def until_a_reply_is_stuck(server):
    """Wait until one of ``server``'s handlers has filled its send
    buffer, so it waits in ``drain`` on a peer that does not read."""
    for _ in range(500):
        if any(w.transport.get_write_buffer_size() > 65536 for w in server._conns):
            return
        await asyncio.sleep(0.01)
    raise AssertionError("no handler is waiting on its peer")


async def stops_within(server, seconds):
    """Whether ``server.stop()`` returns in time. Unlike ``wait_for``,
    this does not then wait for the cancelled stop to finish."""
    stopping = asyncio.ensure_future(server.stop())
    await asyncio.wait({stopping}, timeout=seconds)
    return stopping.done()
