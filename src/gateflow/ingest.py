"""Ingest listener: accepts posted CSV lines and feeds the pipeline.

The HTTP layer is a deliberately small hand-rolled HTTP/1.1 server on
asyncio streams (persistent connections, Content-Length bodies only:
a malformed length, or a request or header line that is not UTF-8
or runs past the 64 KiB stream limit, is answered 400, any
Transfer-Encoding 411 and a length over 8 MiB 413, and each closes
the connection). Three routes:

    POST /ingest   body: CSV lines -> JSON {accepted, rejected,
                   backpressured}; status 429 when anything was
                   backpressured so producers know to retry
    GET  /healthz  liveness probe
    GET  /metrics  flat key=value counter document

A malformed line is counted, logged, and skipped; it never affects its
neighbors. Accepted rows get a dense sequence number for audit; a
backpressured line does not burn one.

A post's accepted rows go to the queue as ``Run``s, each one encoded
blob of "\\n"-ended rows in body order, and the response is written
at once: routing is not done here. The sending slot routes what it
drains, once per drain, so no row is parsed or encoded again on its
way to the wire and the producer's next post does not wait on work
only the sender needs.

``stop`` aborts every open connection, drops any response not yet
flushed and waits for every handler (see ``listener``).
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass

from .listener import Listener
from .metrics import Counters
from .pipeline import RowFifo, Run
from .records import LINE_BREAK, IngestError, Schema, parse_record

MAX_BODY_BYTES = 8 * 1024 * 1024
ERROR_LOG_LIMIT = 1000


@dataclass(frozen=True)
class IngestReport:
    accepted: int = 0
    rejected: int = 0
    backpressured: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "accepted": self.accepted,
                "rejected": self.rejected,
                "backpressured": self.backpressured,
            }
        )


def monotonic_us() -> int:
    return time.monotonic_ns() // 1000


class LineIngestor:
    """The parse-and-enqueue worker behind ``POST /ingest``.

    Owns the dense seq counter for rows it accepts. Not safe for
    concurrent calls.
    """

    def __init__(self, queue: RowFifo, schema: Schema) -> None:
        self.queue = queue
        self.schema = schema
        self.error_log: deque[IngestError] = deque(maxlen=ERROR_LOG_LIMIT)
        self.next_seq = 0

    def handle_post(self, body: str) -> IngestReport:
        """Validate a body and queue its accepted rows, in body order,
        until the queue refuses one. A run of lines the schema's
        pattern matches goes in as one ``Run``, and every other line
        goes alone through ``parse_record`` and in as a one-row run;
        either is cut to the queue's room. The outcome is the one
        handling each line in turn gives: rejected lines before the
        first refused row are logged with their line numbers, and that
        row's line and every line after it are backpressured."""
        accepted = rejected = backpressured = 0
        schema = self.schema
        run_end = schema.run_end
        queue = self.queue
        seq = self.next_seq
        now_us = monotonic_us()
        line_number = 0  # lines handled so far
        pos = 0
        size = len(body)
        while pos < size:
            end = run_end(body, pos)
            if end > pos:
                raw = body[pos:end].encode()
                n = raw.count(b"\n")
            else:
                # one line outside the pattern, found in its own length
                brk = LINE_BREAK.search(body, pos)
                line_end, end = brk.span() if brk else (size, size)
                parsed = parse_record(
                    body[pos:line_end], schema, seq=seq, line_number=line_number + 1, now_us=now_us
                )
                if isinstance(parsed, IngestError):
                    self.error_log.append(parsed)
                    rejected += 1
                    line_number += 1
                    pos = end
                    continue
                raw = f"{parsed.line}\n".encode()
                n = 1
            taken = min(n, queue.room())
            if taken:
                if taken < n:  # the lines that fit, with their "\n"
                    raw = raw[:len(raw) - len(raw.split(b"\n", taken)[-1])]
                queue.enqueue(Run(raw, taken, seq))
                seq += taken
                accepted += taken
            if taken < n:
                # stop at the first full-queue signal so the
                # backpressured lines are exactly the tail of the
                # body and the producer can re-post them without
                # duplicates
                backpressured = n - taken + len(body[end:].splitlines())
                break
            line_number += n
            pos = end
        self.next_seq = seq
        return IngestReport(accepted, rejected, backpressured)


def _http_response(
    status: int,
    body: bytes,
    content_type: str = "text/plain",
    keep_alive: bool = True,
) -> bytes:
    reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed",
              411: "Length Required", 413: "Payload Too Large",
              429: "Too Many Requests", 400: "Bad Request"}.get(status, "Error")
    conn = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {conn}\r\n\r\n"
    )
    return head.encode() + body


async def _read_head(
    reader: asyncio.StreamReader,
) -> tuple[str, str, list[tuple[str, str]]] | None:
    """Read a request line and its headers, names lowercased; None at a
    clean end of stream. Raises ValueError for a line over the stream
    limit, a line that is not UTF-8, or a request line without three
    parts."""
    request = await reader.readline()
    if not request:
        return None
    method, path, _ = request.decode().split(" ", 2)
    headers = []
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return method, path, headers
        name, _, value = line.decode().partition(":")
        headers.append((name.strip().lower(), value.strip()))


class IngestServer(Listener):
    """The HTTP front of a gateway. Every connection feeds the one
    ingestor, on the gateway's event loop; ``ingestors`` lists it."""

    def __init__(
        self,
        queue: RowFifo,
        schema: Schema,
        counters: Counters,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        self.counters = counters
        self.ingestors = [LineIngestor(queue, schema)]

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                head = await _read_head(reader)
            except ValueError:
                writer.write(_http_response(400, b"bad request\n", keep_alive=False))
                await writer.drain()
                return
            if head is None:
                return
            method, path, headers = head
            lengths: set[int] = set()
            keep_alive = True
            refusal = None
            for name, value in headers:
                if name == "content-length":
                    if value.isdigit() and value.isascii():
                        # int() refuses strings past 4300 digits,
                        # and a length that long is too large anyway
                        digits = value.lstrip("0")
                        too_long = len(digits) > len(str(MAX_BODY_BYTES))
                        lengths.add(MAX_BODY_BYTES + 1 if too_long else int(digits or "0"))
                    else:
                        refusal = _http_response(
                            400, b"bad content-length\n", keep_alive=False)
                elif name == "transfer-encoding":
                    # only Content-Length framing is spoken; reading
                    # on would take the chunks for the next request
                    refusal = _http_response(
                        411, b"content-length required\n", keep_alive=False)
                elif name == "connection" and value.lower() == "close":
                    keep_alive = False
            if refusal is None and len(lengths) > 1:
                # lengths that differ leave the body's end unknown
                # (RFC 9112 section 6.3)
                refusal = _http_response(
                    400, b"conflicting content-length\n", keep_alive=False)
            length = max(lengths, default=0)
            if refusal is None and length > MAX_BODY_BYTES:
                refusal = _http_response(413, b"body too large\n", keep_alive=False)
            if refusal is not None:
                writer.write(refusal)
                await writer.drain()
                return
            body = await reader.readexactly(length) if length else b""
            writer.write(self._route(method, path, body, keep_alive))
            await writer.drain()
            if not keep_alive:
                return

    def _route(self, method: str, path: str, body: bytes, keep_alive: bool) -> bytes:
        if method == "POST" and path == "/ingest":
            report = self.ingestors[0].handle_post(body.decode("utf-8", errors="replace"))
            self.counters.add("rows_accepted", report.accepted)
            self.counters.add("rows_rejected", report.rejected)
            self.counters.add("rows_backpressured", report.backpressured)
            status = 429 if report.backpressured else 200
            return _http_response(
                status, report.to_json().encode(), "application/json", keep_alive
            )
        if method == "GET" and path == "/healthz":
            return _http_response(200, b"ok\n", keep_alive=keep_alive)
        if method == "GET" and path == "/metrics":
            return _http_response(200, self.counters.render().encode(), keep_alive=keep_alive)
        if path in ("/ingest", "/healthz", "/metrics"):
            return _http_response(405, b"method not allowed\n", keep_alive=keep_alive)
        return _http_response(404, b"not found\n", keep_alive=keep_alive)
