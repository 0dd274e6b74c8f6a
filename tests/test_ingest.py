"""Ingest listener: line handling semantics and the HTTP front."""

import asyncio
import json
from contextlib import asynccontextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateflow.ingest import IngestServer, LineIngestor, MAX_BODY_BYTES
from gateflow.metrics import COUNTER_KEYS, Counters
from gateflow.pipeline import RowFifo
from gateflow.records import IngestError, Schema, parse_record

SCHEMA = Schema.parse_spec("value:float")

GOOD = "dev1,1000,3.5"
BAD_ARITY = "dev1,1000"
BAD_TS = "dev1,soon,3.5"
BAD_DEVICE = ",1000,3.5"


def ingestor(capacity=None):
    return LineIngestor(RowFifo(capacity), SCHEMA)


class TestHandlePost:
    def test_all_valid(self):
        ing = ingestor()
        report = ing.handle_post("dev1,1,0.5\ndev2,2,1.5\ndev3,3,2.5\n")
        assert (report.accepted, report.rejected, report.backpressured) == (3, 0, 0)
        records = ing.queue.drain_up_to(10)
        assert [r.device_id for r in records] == ["dev1", "dev2", "dev3"]
        assert [r.seq for r in records] == [0, 1, 2]
        # the row keeps the producer's line
        assert [r.line for r in records] == ["dev1,1,0.5", "dev2,2,1.5", "dev3,3,2.5"]

    def test_malformed_line_skipped_not_fatal(self):
        ing = ingestor()
        report = ing.handle_post(f"{GOOD}\n{BAD_ARITY}\n{GOOD}\n")
        assert (report.accepted, report.rejected, report.backpressured) == (2, 1, 0)
        assert len(ing.error_log) == 1
        err = ing.error_log[0]
        assert err.line_number == 2
        assert err.raw_line == BAD_ARITY
        # neighbors of the bad line are unaffected and densely numbered
        assert [r.seq for r in ing.queue.drain_up_to(10)] == [0, 1]

    def test_backpressure_is_exactly_the_tail(self):
        ing = ingestor(capacity=2)
        body = "\n".join(f"dev{i},{i},{i}.0" for i in range(5))
        report = ing.handle_post(body)
        assert (report.accepted, report.rejected, report.backpressured) == (2, 0, 3)
        assert [r.device_id for r in ing.queue.drain_up_to(10)] == ["dev0", "dev1"]

    def test_backpressured_lines_do_not_burn_seqs(self):
        ing = ingestor(capacity=2)
        lines = [f"dev{i},{i},{i}.0" for i in range(5)]
        # producer retry loop: re-post whatever tail came back, with a
        # consumer draining in between; the union must be the original
        # body exactly once, densely numbered
        drained = []
        pending = lines
        for _ in range(10):
            report = ing.handle_post("\n".join(pending))
            drained.extend(ing.queue.drain_up_to(10))
            if not report.backpressured:
                break
            pending = pending[len(pending) - report.backpressured:]
        assert [r.device_id for r in drained] == [f"dev{i}" for i in range(5)]
        assert [r.seq for r in drained] == [0, 1, 2, 3, 4]

    def test_rejected_lines_do_not_burn_seqs(self):
        ing = ingestor()
        ing.handle_post(f"{BAD_TS}\n{GOOD}\n")
        records = ing.queue.drain_up_to(10)
        assert len(records) == 1
        assert records[0].seq == 0

    def test_empty_body(self):
        report = ingestor().handle_post("")
        assert (report.accepted, report.rejected, report.backpressured) == (0, 0, 0)

    def test_zero_capacity_backpressures_everything(self):
        ing = ingestor(capacity=0)
        report = ing.handle_post(f"{GOOD}\n{GOOD}")
        assert (report.accepted, report.rejected, report.backpressured) == (0, 0, 2)

    line_strategy = st.lists(
        st.sampled_from([GOOD, BAD_ARITY, BAD_TS, BAD_DEVICE, "dev2,5,1.25"]),
        min_size=0,
        max_size=40,
    )

    @given(lines=line_strategy)
    @settings(max_examples=150)
    def test_every_line_is_accounted_for(self, lines):
        report = ingestor().handle_post("\n".join(lines))
        assert report.accepted + report.rejected == len(lines)
        assert report.backpressured == 0

    @given(lines=line_strategy, capacity=st.integers(min_value=0, max_value=8))
    @settings(max_examples=150)
    def test_accounting_holds_under_backpressure(self, lines, capacity):
        report = ingestor(capacity).handle_post("\n".join(lines))
        assert report.accepted + report.rejected + report.backpressured == len(lines)
        assert report.accepted <= capacity

    @given(lines=line_strategy)
    @settings(max_examples=100)
    def test_rejections_match_line_by_line_parse(self, lines):
        # the batch path must agree with parsing each line alone
        expected = sum(
            isinstance(parse_record(ln, SCHEMA), IngestError) for ln in lines
        )
        assert ingestor().handle_post("\n".join(lines)).rejected == expected


class Http:
    """Raw HTTP/1.1 client speaking just enough for the tests."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method, path, body=b"", extra_headers=(), omit_body=False):
        head = f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n"
        for name, value in extra_headers:
            head += f"{name}: {value}\r\n"
        self.writer.write(head.encode() + b"\r\n" + (b"" if omit_body else body))
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split(b" ")[1])
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await self.reader.readexactly(int(headers["content-length"]))
        return status, headers, payload

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@asynccontextmanager
async def server(capacity=None):
    queue = RowFifo(capacity)
    counters = Counters()
    srv = IngestServer(queue, SCHEMA, counters)
    await srv.start()
    try:
        yield srv, queue, counters
    finally:
        await srv.stop()


def _head(header, target=b"/ingest"):
    """A POST head to ``target`` with one extra header line."""
    return b"POST " + target + b" HTTP/1.1\r\nHost: t\r\n" + header + b"\r\n\r\n"


class TestHttpServer:
    def test_healthz(self):
        async def go():
            async with server() as (srv, _, _):
                c = await Http.connect(srv.bound_port)
                status, _, payload = await c.request("GET", "/healthz")
                assert (status, payload) == (200, b"ok\n")
                await c.close()

        asyncio.run(go())

    def test_post_then_metrics(self):
        async def go():
            async with server() as (srv, queue, _):
                c = await Http.connect(srv.bound_port)
                status, _, payload = await c.request(
                    "POST", "/ingest", f"{GOOD}\n{BAD_ARITY}\n".encode()
                )
                assert status == 200
                assert json.loads(payload) == {
                    "accepted": 1, "rejected": 1, "backpressured": 0,
                }
                status, _, payload = await c.request("GET", "/metrics")
                assert status == 200
                lines = payload.decode().splitlines()
                assert [ln.split("=")[0] for ln in lines] == list(COUNTER_KEYS)
                doc = dict(ln.split("=") for ln in lines)
                assert doc["rows_accepted"] == "1"
                assert doc["rows_rejected"] == "1"
                assert queue.approx_len() == 1
                await c.close()

        asyncio.run(go())

    def test_keep_alive_reuses_connection(self):
        async def go():
            async with server() as (srv, _, _):
                c = await Http.connect(srv.bound_port)
                for _ in range(3):
                    status, headers, _ = await c.request("GET", "/healthz")
                    assert status == 200
                    assert headers["connection"] == "keep-alive"
                assert srv._conn_count == 1
                await c.close()

        asyncio.run(go())

    def test_connection_close_honored(self):
        async def go():
            async with server() as (srv, _, _):
                c = await Http.connect(srv.bound_port)
                status, headers, _ = await c.request(
                    "GET", "/healthz", extra_headers=(("Connection", "close"),)
                )
                assert status == 200
                assert headers["connection"] == "close"
                assert await c.reader.read() == b""  # server hung up
                await c.close()

        asyncio.run(go())

    def test_unknown_path_404(self):
        async def go():
            async with server() as (srv, _, _):
                c = await Http.connect(srv.bound_port)
                status, _, _ = await c.request("GET", "/nope")
                assert status == 404
                await c.close()

        asyncio.run(go())

    def test_wrong_method_405(self):
        async def go():
            async with server() as (srv, _, _):
                c = await Http.connect(srv.bound_port)
                for method, path in (("GET", "/ingest"), ("POST", "/healthz"),
                                     ("POST", "/metrics")):
                    status, _, _ = await c.request(method, path)
                    assert status == 405, (method, path)
                await c.close()

        asyncio.run(go())

    def test_backpressure_returns_429(self):
        async def go():
            async with server(capacity=2) as (srv, _, counters):
                c = await Http.connect(srv.bound_port)
                body = "\n".join(f"dev{i},{i},{i}.0" for i in range(5)).encode()
                status, _, payload = await c.request("POST", "/ingest", body)
                assert status == 429
                assert json.loads(payload) == {
                    "accepted": 2, "rejected": 0, "backpressured": 3,
                }
                assert counters.snapshot()["rows_backpressured"] == 3
                await c.close()

        asyncio.run(go())

    def test_oversized_body_413(self):
        async def go():
            async with server() as (srv, _, _):
                c = await Http.connect(srv.bound_port)
                # declare an oversized body; the server must refuse
                # before reading it
                head = (
                    f"POST /ingest HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
                )
                c.writer.write(head.encode())
                await c.writer.drain()
                status_line = await c.reader.readline()
                assert b"413" in status_line
                await c.close()

        asyncio.run(go())

    def test_bad_request_line_400(self):
        async def go():
            async with server() as (srv, _, _):
                c = await Http.connect(srv.bound_port)
                c.writer.write(b"garbage\r\n")
                await c.writer.drain()
                status_line = await c.reader.readline()
                assert b"400" in status_line
                await c.close()

        asyncio.run(go())

    @pytest.mark.parametrize(
        "head, status",
        [
            pytest.param(_head(b"Content-Length: abc"), 400, id="Content-Length: abc-400"),
            pytest.param(_head(b"Content-Length: -3"), 400, id="Content-Length: -3-400"),
            pytest.param(
                _head(b"Transfer-Encoding: chunked"), 411, id="Transfer-Encoding: chunked-411"
            ),
            # lines the server cannot read at all
            pytest.param(_head(b"X-Note: \xff\xfe"), 400, id="non-utf8-header-400"),
            pytest.param(_head(b"X-Pad: " + b"a" * 70_000), 400, id="header-over-64k-400"),
            pytest.param(
                _head(b"X-Note: 1", target=b"/" + b"a" * 70_000),
                400,
                id="request-line-over-64k-400",
            ),
        ],
    )
    def test_unframable_body_refused_and_closed(self, head, status):
        async def go():
            async with server() as (srv, queue, _):
                c = await Http.connect(srv.bound_port)
                c.writer.write(head + b"3\r\ndev1,1,0.5\r\n0\r\n\r\n")
                await c.writer.drain()
                status_line = await c.reader.readline()
                assert int(status_line.split(b" ")[1]) == status
                # the body's end is unknown, so the server hangs up
                # rather than read what follows as the next request
                await asyncio.wait_for(c.reader.read(), 5)
                assert c.reader.at_eof()
                assert queue.approx_len() == 0
                await c.close()

        asyncio.run(go())
