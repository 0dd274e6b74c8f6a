"""Load generator behavior against a real ingest listener.

Covers the synthetic row stream, pacing, the backpressure retry loop,
file replay, and how transport failures are accounted. The listener
runs on a background thread so the synchronous generator can be called
directly, same as production callers do.
"""

import asyncio
import socket
import threading
import time

import pytest

from gateflow.ingest import Counters, IngestServer
from gateflow.loadgen import LoadgenReport, run_loadgen, synthetic_lines
from gateflow.pipeline import RowFifo
from gateflow.records import Schema, parse_record


class BackgroundIngest:
    """Ingest listener on its own thread, optionally with a consumer
    that drains about ``drain_per_tick`` rows at a fixed pace (to force
    real retry loops against a bounded queue); ``consumed`` counts the
    rows it took."""

    def __init__(self, capacity=None, drain_per_tick=0, tick_s=0.005):
        self.capacity = capacity
        self.drain_per_tick = drain_per_tick
        self.tick_s = tick_s
        self.consumed = 0

    def __enter__(self):
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()
        holder = self.holder = {}

        def run():
            asyncio.set_event_loop(self.loop)

            async def boot():
                self.queue = RowFifo(capacity=self.capacity)
                srv = IngestServer(
                    self.queue, Schema.parse_spec("seq:int"), Counters()
                )
                await srv.start()
                holder["srv"] = srv
                if self.drain_per_tick:
                    holder["drain"] = asyncio.ensure_future(self._drain())
                ready.set()

            self.loop.run_until_complete(boot())
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        ready.wait(5)
        self.srv = holder["srv"]
        self.port = self.srv.bound_port
        return self

    async def _drain(self):
        while True:
            self.consumed += sum(run.rows for run in self.queue.drain_up_to(self.drain_per_tick))
            await asyncio.sleep(self.tick_s)

    def __exit__(self, *exc):
        async def shutdown():
            await self.srv.stop()
            drain = self.holder.get("drain")
            if drain is not None:
                drain.cancel()
                await asyncio.gather(drain, return_exceptions=True)
            return asyncio.all_tasks() - {asyncio.current_task()}

        left = asyncio.run_coroutine_threadsafe(shutdown(), self.loop).result(5)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5)
        self.loop.close()
        assert not left, "stop left a connection handler running"


class CannedPeer:
    """A raw-socket peer on its own thread: it reads each request on a
    connection, answers with ``reply`` and hangs up; ``requests`` counts
    the requests it read."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.requests = 0

    def __enter__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.1)
        self.port = self.sock.getsockname()[1]
        self.stopping = False
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()
        return self

    def _serve(self):
        while not self.stopping:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                continue
            with conn:
                conn.settimeout(5)
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536) or b"\r\n\r\n"
                head, _, body = data.partition(b"\r\n\r\n")
                length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                while len(body) < length:
                    body += conn.recv(65536)
                self.requests += 1
                conn.sendall(self.reply)

    def __exit__(self, *exc):
        self.stopping = True
        self.thread.join(5)
        self.sock.close()


class TestSyntheticLines:
    def test_count_and_shape(self):
        lines = list(synthetic_lines(100, devices=8))
        assert len(lines) == 100
        schema = Schema.parse_spec("seq:int")
        for seq, line in enumerate(lines):
            rec = parse_record(line, schema, seq=0)
            assert rec.device_id == f"dev{seq % 8}"
            assert rec.line == line
            assert line.split(",")[2] == str(seq)

    def test_start_seq_offsets_the_audit_column(self):
        lines = list(synthetic_lines(3, devices=4, start_seq=10))
        assert [l.split(",")[2] for l in lines] == ["10", "11", "12"]
        assert lines[0].startswith("dev2,")  # 10 % 4

    def test_zero_rows(self):
        assert list(synthetic_lines(0)) == []


class TestReportMath:
    def test_achieved_rate(self):
        report = LoadgenReport(accepted=500, elapsed_s=2.0)
        assert report.achieved_rows_per_s == 250.0

    def test_zero_elapsed_guard(self):
        assert LoadgenReport(accepted=500).achieved_rows_per_s == 0.0

    def test_to_dict_keys(self):
        d = LoadgenReport().to_dict()
        assert set(d) == {
            "posted", "accepted", "rejected", "retried", "unresolved",
            "transport_errors", "elapsed_s", "achieved_rows_per_s",
        }


class TestArgValidation:
    def test_synthetic_mode_needs_rows_or_rate_and_duration(self):
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1", 1, rate=100.0)  # duration missing
        with pytest.raises(ValueError):
            run_loadgen("127.0.0.1", 1, duration_s=1.0)


class TestAgainstLiveListener:
    def test_paced_run_hits_the_target_rate(self):
        # rate x duration rows, paced; the run should take about the
        # asked-for wall time and deliver every row
        with BackgroundIngest() as srv:
            t0 = time.monotonic()
            report = run_loadgen(
                "127.0.0.1", srv.port, rate=5000.0, duration_s=1.0
            )
            elapsed = time.monotonic() - t0
        assert report.posted == 5000
        assert report.accepted == 5000
        assert report.rejected == 0
        assert report.unresolved == 0
        assert elapsed >= 0.9
        assert report.achieved_rows_per_s <= 5000 * 1.15

    def test_unpaced_run_is_not_throttled(self):
        with BackgroundIngest() as srv:
            report = run_loadgen("127.0.0.1", srv.port, rows=2000)
        assert report.accepted == 2000
        assert report.elapsed_s < 0.9

    def test_retry_loop_resolves_backpressure_without_duplicates(self):
        # queue holds 50 rows, consumer drains ~10k rows/s, batches of
        # 200: every batch overflows at first and must re-post its tail
        with BackgroundIngest(capacity=50, drain_per_tick=50) as srv:
            report = run_loadgen(
                "127.0.0.1", srv.port, rows=1000, batch_lines=200
            )
            deadline = time.monotonic() + 5
            while srv.consumed < 1000 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert report.accepted == 1000
        assert report.retried > 0
        assert report.unresolved == 0
        assert report.posted == 1000  # re-posted tails are not recounted
        assert srv.consumed == 1000

    def test_file_replay_counts_rejects(self, tmp_path):
        path = tmp_path / "rows.csv"
        lines = [f"dev{i},100{i},{i}" for i in range(10)]
        lines.insert(5, "dev9,bad-timestamp,5")
        path.write_text("\n".join(lines) + "\n")
        with BackgroundIngest() as srv:
            report = run_loadgen("127.0.0.1", srv.port, file=str(path))
        assert report.posted == 11
        assert report.accepted == 10
        assert report.rejected == 1

    def test_file_replay_retries_lines_the_gateway_splits(self, tmp_path):
        # a text-mode file keeps these breaks inside a line, while the
        # gateway, like str.splitlines, ends a line at each of them: a
        # backpressured tail must still name the lines left to re-post
        breaks = ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
        lines = [f"dev{i},100{i},{i}{brk}dev{i},200{i},{i}" for i, brk in enumerate(breaks)]
        lines.insert(3, "dev9,bad-timestamp,5")
        text = "\n".join(lines) + "\n"
        path = tmp_path / "rows.csv"
        path.write_text(text, encoding="utf-8")
        gateway_lines = len(text.splitlines())
        assert gateway_lines == 2 * len(breaks) + 1
        with BackgroundIngest(capacity=3, drain_per_tick=2) as srv:
            report = run_loadgen("127.0.0.1", srv.port, file=str(path))
        assert report.retried > 0
        assert report.accepted + report.rejected + report.unresolved == gateway_lines
        assert report.unresolved == 0
        assert report.rejected == 1
        assert report.posted == gateway_lines

    def test_file_replay_posts_utf_8(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("d\u00e9v\u20ac,1001,1\n", encoding="utf-8")
        with BackgroundIngest() as srv:
            report = run_loadgen("127.0.0.1", srv.port, file=str(path))
            runs = srv.queue.drain_up_to(10)
        assert report.accepted == 1
        assert [run.blob for run in runs] == ["d\u00e9v\u20ac,1001,1\n".encode()]

    @pytest.mark.parametrize("reply", [
        pytest.param(b"garbage\r\n\r\n", id="BadStatusLine"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"acc", id="IncompleteRead"),
        # well framed, but the body is not the report object
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}", id="empty-object"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n[]", id="array"),
        pytest.param(
            b"HTTP/1.1 200 OK\r\nContent-Length: 52\r\n\r\n"
            b'{"accepted": "1", "rejected": 0, "backpressured": 0}', id="string-count"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\n\x80", id="not-utf-8"),
        # well typed, but out of range for a 10-line post
        pytest.param(
            b"HTTP/1.1 200 OK\r\nContent-Length: 51\r\n\r\n"
            b'{"accepted": 0, "rejected": 0, "backpressured": -5}', id="negative-count"),
        pytest.param(
            b"HTTP/1.1 200 OK\r\nContent-Length: 51\r\n\r\n"
            b'{"accepted": 0, "rejected": 0, "backpressured": 50}', id="backpressured-past-post"),
    ])
    def test_a_broken_http_reply_is_a_transport_error(self, reply):
        # http.client raises HTTPException, not OSError, for a reply it
        # cannot frame, and a body that is not the report is no better:
        # each post counts one error and drops the link
        with CannedPeer(reply) as peer:
            report = run_loadgen("127.0.0.1", peer.port, rows=30, batch_lines=10)
        assert peer.requests == 3
        assert (report.transport_errors, report.unresolved, report.accepted) == (3, 30, 0)

    def test_dead_port_yields_transport_errors_not_a_crash(self):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        report = run_loadgen("127.0.0.1", port, rows=100)
        assert report.accepted == 0
        assert report.unresolved == 100
        assert report.transport_errors >= 1
