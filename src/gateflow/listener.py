"""The TCP server lifecycle ``IngestServer`` and ``SegmentDaemon`` share.

Each connection runs the subclass's ``handle`` in a task of its own,
made and registered as the connection is made. A peer that vanishes
(an end of stream mid-read, a reset, any socket error) ends it quietly,
and the writer is closed however it ends.

``stop`` closes the listening socket, aborts every open connection,
dropping any reply not yet flushed, and waits for every handler. Abort,
not close: a close waits for the send buffer to flush, so a peer that
stops reading would hold shutdown forever. A connection made once
``stop`` has begun is aborted at once and gets no handler.
"""

from __future__ import annotations

import asyncio


class Listener:
    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        # each open connection's writer and the task serving it
        self._conns: dict[asyncio.StreamWriter, asyncio.Task] = {}

    @property
    def bound_port(self) -> int:
        assert self._server is not None, "not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._accept, self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
        for writer in self._conns:
            writer.transport.abort()
        # a handler left running would be cancelled by the loop's
        # shutdown, which logs a CancelledError traceback per handler
        await asyncio.gather(*self._conns.values(), return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()  # from 3.12 it waits for connections

    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        # registered as the connection is made, so stop waits for a
        # handler that has not run yet too
        if self._server is not None and not self._server.is_serving():
            writer.transport.abort()  # made after stop began
            return
        self._conns[writer] = asyncio.create_task(self._serve(reader, writer))

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            await self.handle(reader, writer)
        except (asyncio.IncompleteReadError, OSError):
            pass  # the peer vanished (a ConnectionError is an OSError)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
            finally:  # registered until closed, so stop waits for the close too
                self._conns.pop(writer, None)
