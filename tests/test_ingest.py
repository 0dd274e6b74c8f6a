"""Ingest listener: line handling semantics and the HTTP front."""

import asyncio
import json
import re
import socket
import time
from contextlib import asynccontextmanager
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gateflow.ingest as ingest_mod
from gateflow import gateway
from gateflow import slot as slot_mod
from gateflow.config import GatewayConfig, SegmentConfig
from gateflow.gateway import split_rows
from gateflow.ingest import IngestReport, IngestServer, LineIngestor, MAX_BODY_BYTES, monotonic_us
from gateflow.metrics import COUNTER_KEYS, Counters
from gateflow.pipeline import EnqueueResult, LockFreeQueue, RowFifo, Run
from gateflow.records import IngestError, Record, Schema, parse_record
from gateflow.slot import route_record
from stuck_peer import stops_within, unread_flood, until_a_reply_is_stuck

SCHEMA = Schema.parse_spec("value:float")

GOOD = "dev1,1000,3.5"
BAD_ARITY = "dev1,1000"
BAD_TS = "dev1,soon,3.5"
BAD_DEVICE = ",1000,3.5"


def ingestor(capacity=None):
    return LineIngestor(RowFifo(capacity), SCHEMA)


class QueuedRow(NamedTuple):
    device_id: str
    line: str
    seq: int


def expand(runs):
    """The rows of ``runs`` in queue order, each run's in blob order,
    numbered on from the run's first seq (a requeued run's rows all
    carry -1)."""
    rows = []
    for run in runs:
        lines = run.blob.decode().split("\n")
        assert lines.pop() == "" and len(lines) == run.rows
        rows += [QueuedRow(line.partition(",")[0], line, run.seq + k if run.seq >= 0 else -1)
                 for k, line in enumerate(lines)]
    return rows


def queued_rows(queue, max_rows=1 << 20):
    return expand(queue.drain_up_to(max_rows))


class TestHandlePost:
    def test_all_valid(self):
        ing = ingestor()
        report = ing.handle_post("dev1,1,0.5\ndev2,2,1.5\ndev3,3,2.5\n")
        assert (report.accepted, report.rejected, report.backpressured) == (3, 0, 0)
        records = queued_rows(ing.queue)
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
        assert [r.seq for r in queued_rows(ing.queue)] == [0, 1]

    def test_backpressure_is_exactly_the_tail(self):
        ing = ingestor(capacity=2)
        body = "\n".join(f"dev{i},{i},{i}.0" for i in range(5))
        report = ing.handle_post(body)
        assert (report.accepted, report.rejected, report.backpressured) == (2, 0, 3)
        assert [r.device_id for r in queued_rows(ing.queue)] == ["dev0", "dev1"]

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
            drained.extend(queued_rows(ing.queue))
            if not report.backpressured:
                break
            pending = pending[len(pending) - report.backpressured:]
        assert [r.device_id for r in drained] == [f"dev{i}" for i in range(5)]
        assert [r.seq for r in drained] == [0, 1, 2, 3, 4]

    def test_rejected_lines_do_not_burn_seqs(self):
        ing = ingestor()
        ing.handle_post(f"{BAD_TS}\n{GOOD}\n")
        records = queued_rows(ing.queue)
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


def per_line_handle_post(ing: LineIngestor, body: str) -> IngestReport:
    """The reference: each line of the body in turn through
    ``parse_record`` and ``enqueue``, stopping at the first refusal; the
    queue holds ``Record``s, one item per row."""
    accepted = rejected = backpressured = 0
    lines = body.splitlines()
    seq = ing.next_seq
    now_us = monotonic_us()
    for line_number, line in enumerate(lines, start=1):
        parsed = ingest_mod.parse_record(
            line, ing.schema, seq=seq, line_number=line_number, now_us=now_us
        )
        if isinstance(parsed, IngestError):
            ing.error_log.append(parsed)
            rejected += 1
        elif ing.queue.enqueue(parsed) is EnqueueResult.ACCEPTED:
            seq += 1
            accepted += 1
        else:
            backpressured = len(lines) - line_number + 1
            break
    ing.next_seq = seq
    return IngestReport(accepted, rejected, backpressured)


# spellings for every field position: valid for some column kinds,
# invalid for others, and on either side of the run pattern's edge
_VALUES = ["7", "-7", "+7", "007", "0", "3.5", ".5", "5.", ".", "1e3", "-2.5E-3",
           "1e999", "9" * 309, "0" * 400 + "1", "\u0665", "nan", "inf", "1_0",
           " 5", "", "x", "a b", "\t", "é"]
_DEVICES = ["d1", "dev-2", "", "BEGIN", "BEGINx", "EOF", "EOFa", "xEOF", "a b",
            "d\t1", "dé", "d\x00"]
_VALID = {"int": ["7", "-3", "+0", "007"], "float": ["3.5", ".5", "5.", "-2", "007"],
          "str": ["s", "", "a b"]}
_BREAKS = ["\n", "\r", "\r\n", "\x85", "\u2028", "\x0b", "\x1c", "\u2029"]


@st.composite
def bodies(draw, schema: Schema):
    """A body of valid lines, lines tripping each RejectReason, empty
    lines and odd line breaks, with or without a final newline."""
    parts = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["valid", "valid", "valid", "fields", "empty", "text"]))
        if kind == "valid":
            values = [draw(st.sampled_from(_VALID[k])) for _, k in schema.columns]
            line = ",".join([draw(st.sampled_from(["d1", "dev-2", "xBEGIN"])),
                             draw(st.sampled_from(["0", "1700000000"]))] + values)
        elif kind == "fields":
            # mostly one odd field at a time, so each can decide the line
            count = schema.field_count + draw(st.sampled_from([0, 0, 0, -2, -1, 1]))
            fields = [draw(st.sampled_from(["d1"] * 4 + _DEVICES)),
                      draw(st.sampled_from(["1"] * 4 + ["-1", "+5", "5.0", "\u0665", ""]))]
            fields += [draw(st.sampled_from(_VALUES)) for _ in range(max(0, count - 2))]
            line = ",".join(fields[:max(1, count)])
        elif kind == "empty":
            line = ""
        else:
            line = draw(st.text(alphabet=",.d1e5 \r\n\x85\u2028", max_size=8))
        parts.append(line + draw(st.sampled_from(_BREAKS[:1] * 6 + _BREAKS)))
    body = "".join(parts)
    if draw(st.booleans()):
        body = body[:-1] if body.endswith("\n") else body
    return body


_SCHEMAS = [Schema.parse_spec(spec) for spec in (
    "v:int", "v:float", "v:str", "a:int,b:float", "a:str,b:int,c:float", "a:float,b:str",
)]


class TestBulkPathMatchesPerLine:
    """The run-at-a-time ``handle_post`` against the per-line loop it
    replaced: same report, error log, queued rows and ``next_seq``, at
    every queue capacity from 0 to the body's line count. The bulk
    path calls ``parse_record`` exactly on the lines the reference
    parses that the run pattern does not match, and queues the
    accepted lines in body order; the sender's split of them, for one,
    two and three segments, puts every row in the blob of the segment
    ``route_record`` names."""

    @staticmethod
    def outcome(handle, schema, body, capacity):
        """(report, error log, queued items, next_seq, line numbers
        parsed); the bulk path queues runs on a ``RowFifo``, the
        reference ``Record``s on a ``LockFreeQueue``, and the
        reference's line numbers are cut down to the lines that, with
        their line break, are not a run of the pattern."""
        calls = []

        def counting_parse(line, schema, **kw):
            calls.append(kw["line_number"])
            return parse_record(line, schema, **kw)

        bulk = handle is LineIngestor.handle_post
        in_run = [schema.run_end(ln, 0) == len(ln) for ln in body.splitlines(True)]
        queue = RowFifo(capacity) if bulk else LockFreeQueue(capacity)
        ing = LineIngestor(queue, schema)
        ing.next_seq = 5
        with mock.patch.object(ingest_mod, "parse_record", counting_parse):
            report = handle(ing, body)
        return (
            report,
            [(e.line_number, e.raw_line, e.reason) for e in ing.error_log],
            queue.drain_up_to(1 << 20),
            ing.next_seq,
            calls if bulk else [n for n in calls if not in_run[n - 1]],
        )

    def assert_same(self, schema, body, capacity, segments=1):
        bulk = self.outcome(LineIngestor.handle_post, schema, body, capacity)
        ref = self.outcome(per_line_handle_post, schema, body, capacity)
        runs, records = bulk[2], ref[2]
        assert all(type(run) is Run and type(run.blob) is bytes for run in runs)
        # the queued bytes are the accepted lines in body order, each
        # run holding the next seqs
        assert expand(runs) == [QueuedRow(r.device_id, r.line, r.seq) for r in records]
        # the sender's one split of what it drains is per-line routing
        blobs = split_rows(b"".join(run.blob for run in runs), segments)
        assert blobs == [
            "".join(f"{r.line}\n" for r in records
                    if route_record(r.device_id, segments) == segment).encode()
            for segment in range(segments)
        ]
        assert bulk[:2] + bulk[3:] == ref[:2] + ref[3:]
        return bulk

    @given(data=st.data(), schema=st.sampled_from(_SCHEMAS), segments=st.sampled_from([1, 2, 3]))
    @settings(max_examples=300, deadline=None)
    def test_equal_to_the_per_line_loop(self, data, schema, segments):
        body = data.draw(bodies(schema))
        for capacity in range(len(body.splitlines()) + 1):
            self.assert_same(schema, body, capacity, segments)

    def test_a_run_takes_one_enqueue_and_no_parse(self):
        body = "".join(f"d{i},{i},{i}.5\n" for i in range(50))
        bulk = self.assert_same(SCHEMA, body, None, 2)
        assert bulk[0] == IngestReport(50, 0, 0)
        assert bulk[4] == []  # no line needed parse_record
        ing = ingestor()
        with mock.patch.object(ing.queue, "enqueue", wraps=ing.queue.enqueue) as enqueue:
            ing.handle_post(body)
        assert enqueue.call_count == 1

    def test_a_matched_post_builds_no_record(self):
        made = []
        new = Record.__new__

        def counting_new(cls, *args, **kw):
            made.append(args)
            return new(cls, *args, **kw)

        body = "".join(f"d{i % 64},{1700000000 + i},{i}.5\n" for i in range(1000))
        ing = LineIngestor(RowFifo(), SCHEMA)
        with mock.patch.object(Record, "__new__", counting_new), \
                mock.patch.object(ingest_mod, "parse_record", side_effect=AssertionError):
            assert ing.handle_post(body) == IngestReport(1000, 0, 0)
            assert made == []
            parse_record("d,1,2.5", SCHEMA)  # the count does see a Record built
            assert len(made) == 1
        assert not hasattr(ingest_mod, "Record")
        (run,) = ing.queue.drain_up_to(1000)
        assert run.rows == 1000 and run.blob == body.encode()

    def test_handle_post_never_routes(self):
        # routing is the sender's work, once per drain: the post is
        # answered without it, with its rows queued in body order
        config = GatewayConfig(
            segments=tuple(SegmentConfig(id=f"seg{i}", port=0) for i in range(3)),
            listen_addr="127.0.0.1:0",
            schema="value:float",
        )
        gw = gateway.Gateway(config)
        lines = [f"d{i % 64},{1700000000 + i},{i}.5" for i in range(1000)]
        lines[500] = "d7,1,1e3"  # outside the run pattern, parsed alone
        body = "".join(f"{line}\n" for line in lines)
        refuse = mock.Mock(side_effect=AssertionError("routed on the ack path"))
        with mock.patch.object(gateway, "split_rows", refuse), \
                mock.patch.object(gateway, "write_runs", refuse), \
                mock.patch.object(gateway, "route_record", refuse), \
                mock.patch.object(slot_mod, "route_record", refuse):
            report = gw.ingest.ingestors[0].handle_post(body)
        assert report == IngestReport(1000, 0, 0)
        assert refuse.call_count == 0
        assert b"".join(run.blob for run in gw.queue.drain_up_to(1000)) == body.encode()

    @pytest.mark.parametrize("line", [
        "d,1,1e3", "d,1,1.5e-3", "d,1," + "0" * 400 + "1", "d,1," + "9" * 308,
        "d,1," + "9" * 309, "d,1,\u0665", "d 1,1,5", "BEGINx,1,5", "EOF,1,5", "d,1,5",
    ])
    def test_lines_outside_the_pattern_still_parse_once(self, line):
        # valid or not, a line the pattern leaves out gets parse_record
        for segments in (1, 2, 3):
            self.assert_same(SCHEMA, f"d,1,2.5\n{line}\n", None, segments)

    def test_lines_without_a_newline_cost_their_own_length(self):
        # lines ended by "\r", "\r\n", "\x85" or "\u2028" all miss the
        # run pattern; finding where each ends must not scan the rest of
        # the body, or one large post stalls the event loop for minutes
        n = 60_000
        body = "".join(f"d{i % 64},{i},{i}.5{_BREAKS[1 + i % 4]}" for i in range(n))
        ing = ingestor()
        start = time.perf_counter()
        report = ing.handle_post(body)
        elapsed = time.perf_counter() - start
        assert report == IngestReport(n, 0, 0)
        assert [r.seq for r in queued_rows(ing.queue)] == list(range(n))
        assert elapsed < 5.0, elapsed

    def test_run_pattern_holds_no_line_break(self):
        # every character splitlines breaks at, but the "\n" that ends
        # a run's lines, stays out of a run (all of them are below 0x3000)
        breaks = [chr(c) for c in range(0x3000)
                  if c != 10 and len(f"a{chr(c)}b".splitlines()) > 1]
        assert len(breaks) == 9
        schema = Schema.parse_spec("s:str")
        for ch in breaks:
            assert schema.run_end(f"d,1,a{ch}b\n", 0) == 0, repr(ch)
            assert schema.run_end(f"d{ch},1,ab\n", 0) == 0, repr(ch)


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
                assert len(srv._conns) == 1  # the listener's registry of open connections
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

    def test_repeated_equal_content_length_accepted(self):
        async def go():
            async with server() as (srv, queue, _):
                c = await Http.connect(srv.bound_port)
                body = f"{GOOD}\n".encode()
                status, _, payload = await c.request(
                    "POST", "/ingest", body, extra_headers=[("Content-Length", f"00{len(body)}")])
                assert status == 200
                assert json.loads(payload)["accepted"] == 1
                assert queue.approx_len() == 1
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
            # RFC 9112 section 6.3: lengths that differ are a framing error
            pytest.param(
                _head(b"Content-Length: 0\r\nContent-Length: 7"), 400, id="Content-Length: 0, 7-400"
            ),
            # past 4300 digits int() itself refuses the string
            pytest.param(
                _head(b"Content-Length: " + b"9" * 5000), 413, id="Content-Length-5000-digits-413"
            ),
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


class TestShutdown:
    def test_stop_ends_every_handler(self):
        async def go():
            srv = IngestServer(RowFifo(None), SCHEMA, Counters())
            await srv.start()
            idle = await Http.connect(srv.bound_port)
            assert (await idle.request("GET", "/healthz"))[0] == 200
            # pipelined requests whose 13 MB of responses the peer
            # never reads: more than the kernel buffers take
            flood = await unread_flood(
                srv.bound_port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" * 150_000)
            try:
                await until_a_reply_is_stuck(srv)
                assert await stops_within(srv, 5)
                assert asyncio.all_tasks() == {asyncio.current_task()}
            finally:
                flood.transport.abort()
                await idle.close()

        asyncio.run(go())

    def test_a_connection_accepted_as_stop_begins_is_hung_up(self):
        def handlers():
            return [t for t in asyncio.all_tasks() if t.get_coro().__qualname__ == "Listener._serve"]

        async def go():
            srv = IngestServer(RowFifo(None), SCHEMA, Counters())
            await srv.start()
            # the kernel completes the handshake before the loop accepts
            sock = socket.create_connection(("127.0.0.1", srv.bound_port))
            try:
                for _ in range(100):  # until the handler exists
                    if handlers():
                        break
                    await asyncio.sleep(0)
                assert handlers()
                await srv.stop()
                assert not handlers()
            finally:
                sock.close()

        asyncio.run(go())

    def test_a_connection_made_after_stop_began_gets_no_handler(self):
        async def go():
            srv = IngestServer(RowFifo(None), SCHEMA, Counters())
            await srv.start()
            await srv.stop()
            writer = mock.Mock()
            srv._accept(asyncio.StreamReader(), writer)
            writer.transport.abort.assert_called_once_with()
            assert not srv._conns and asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(go())


class _Sink:
    """The writer half of a connection: keeps what is written."""

    def __init__(self):
        self.data = bytearray()
        self.closed = False

    def write(self, data):
        assert not self.closed, "write after close"
        self.data += data

    async def drain(self):
        pass

    def close(self):
        self.closed = True

    async def wait_closed(self):
        pass


_RESPONSE_HEAD = re.compile(
    rb"HTTP/1\.1 (\d{3}) [A-Za-z ]+\r\nContent-Type: [a-z/]+\r\n"
    rb"Content-Length: (\d+)\r\nConnection: (keep-alive|close)\r\n\r\n"
)


def split_responses(data):
    """(status, connection) of each response in ``data``; fails unless
    ``data`` is whole responses back to back."""
    responses = []
    pos = 0
    while pos < len(data):
        head = _RESPONSE_HEAD.match(data, pos)
        assert head is not None, bytes(data[pos:pos + 120])
        pos = head.end() + int(head[2])
        assert pos <= len(data), "response body cut short"
        responses.append((int(head[1]), head[3].decode()))
    return responses


_HEADERS = [
    b"Host: t", b"Content-Length: 0", b"Content-Length: 12", b"Content-Length: 012",
    b"Content-Length: " + b"0" * 30 + b"5", b"Content-Length: " + b"9" * 5000,
    b"Content-Length: -1", b"Content-Length: abc", b"Content-Length: \xd9\xa5",
    b"Content-Length: 1e3", b"Transfer-Encoding: chunked", b"Connection: close",
    b"Connection: keep-alive", b"X-Note: \xff\xfe", b"no colon", b":",
]


@st.composite
def request_streams(draw):
    """What a client may send on one connection: a few requests built
    from plausible and broken parts, or bytes with no shape at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=200))
    stream = b""
    for _ in range(draw(st.integers(1, 3))):
        eol = draw(st.sampled_from([b"\r\n", b"\n"]))
        method = draw(st.sampled_from([b"GET", b"POST", b"PUT", b"", b"G\xffT"]))
        target = draw(st.sampled_from([b"/ingest", b"/healthz", b"/metrics", b"/nope", b""]))
        request = [method + b" " + target + draw(st.sampled_from([b" HTTP/1.1", b"", b" a b"]))]
        request += draw(st.lists(
            st.one_of(st.sampled_from(_HEADERS), st.binary(max_size=20)), max_size=4))
        body = draw(st.sampled_from([b"", GOOD.encode(), f"{GOOD}\n{BAD_TS}\n".encode()]))
        stream += eol.join(request) + eol + eol + body
    return stream + draw(st.binary(max_size=20))


class TestHttpFraming:
    """``_read_head`` and ``_serve`` on arbitrary bytes: every input is
    answered with whole, well-formed responses or a clean close, and no
    exception leaves the connection handler (where the loop's handler
    would catch it and the client would get nothing)."""

    @given(request_streams())
    @example(_head(b"Content-Length: " + b"9" * 5000))
    @example(_head(b"X-Pad: " + b"a" * 70_000))
    @example(b"garbage\r\n")
    @example(b"")
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_get_responses_or_a_clean_close(self, stream):
        async def go():
            srv = IngestServer(RowFifo(None), SCHEMA, Counters())
            reader = asyncio.StreamReader()  # the 64 KiB limit start_server uses
            reader.feed_data(stream)
            reader.feed_eof()
            sink = _Sink()
            await asyncio.wait_for(srv._serve(reader, sink), 5)
            assert sink.closed and not srv._conns
            return split_responses(sink.data)

        responses = asyncio.run(go())
        # only the last response may end the connection, and every
        # refusal of a request the server cannot frame does
        assert all(conn == "keep-alive" for _, conn in responses[:-1])
        for status, conn in responses:
            assert status in (200, 400, 404, 405, 411, 413, 429)
            if status in (400, 411, 413):
                assert conn == "close"
