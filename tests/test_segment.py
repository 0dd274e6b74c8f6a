"""Segment daemon wire protocol, latencies, and atomic visibility."""

import asyncio
import threading
import time
from contextlib import asynccontextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from gateflow.config import SegmentConfig
from gateflow.segment import (
    ERR_DUPLICATE,
    ERR_ORDER,
    ERR_UNKNOWN,
    RowText,
    SegmentDaemon,
    SegmentStore,
    TxnState,
    WireFramer,
    start_cluster,
)
from stuck_peer import stops_within, unread_flood, until_a_reply_is_stuck


class Wire:
    """Minimal newline-framed client for poking a daemon directly."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, port, host="127.0.0.1"):
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def send(self, *lines):
        self.writer.write("".join(f"{ln}\n" for ln in lines).encode())
        await self.writer.drain()

    async def recv(self):
        raw = await self.reader.readline()
        return raw.decode().rstrip("\n")

    async def txn(self, txn_id, rows=(), table="ingest"):
        """Run one full transaction and return the final server frame."""
        await self.send(f"BEGIN {txn_id} {table}")
        ready = await self.recv()
        assert ready == f"READY {txn_id}", ready
        if rows:
            await self.send(*rows)
        await self.send("EOF")
        return await self.recv()

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@asynccontextmanager
async def daemon(dump_path=None, **latency):
    spec = SegmentConfig(id="seg", port=0, **latency)
    d = SegmentDaemon(spec, dump_path)
    await d.start()
    try:
        yield d
    finally:
        await d.stop()


class TestHappyPath:
    def test_begin_stream_commit(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                reply = await c.txn("n-s0-c1", ["dev0,10,1.5", "dev1,11,2.5"])
                assert reply == "COMMITTED n-s0-c1 2"
                assert d.store.total_rows == 2
                assert d.store.txn_rows("n-s0-c1") == 2
                assert d.store.visibility_probe("dev1") == (11, ("2.5",))
                assert d.store.visibility_probe("dev9") is None
                await c.close()

        asyncio.run(go())

    def test_sequential_txns_on_one_connection(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                assert await c.txn("a-s0-c1", ["d,1,1"]) == "COMMITTED a-s0-c1 1"
                assert await c.txn("a-s0-c2", ["d,2,2"]) == "COMMITTED a-s0-c2 1"
                assert d.store.committed_lines() == ["d,1,1", "d,2,2"]
                await c.close()

        asyncio.run(go())

    def test_pipelined_single_write(self):
        # the whole transaction can arrive in one TCP chunk
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                await c.send("BEGIN t ingest", "dev0,1,0", "dev0,2,1", "EOF")
                assert await c.recv() == "READY t"
                assert await c.recv() == "COMMITTED t 2"
                await c.close()

        asyncio.run(go())

    def test_empty_transaction_commits_zero(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                assert await c.txn("empty") == "COMMITTED empty 0"
                assert d.store.total_rows == 0
                assert d.store.txn_rows("empty") == 0  # zero rows committed
                await c.close()

        asyncio.run(go())

    def test_blank_lines_ignored(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                await c.send("BEGIN e ingest")
                assert await c.recv() == "READY e"
                await c.send("", "dev0,1,1", "")
                await c.send("EOF")
                assert await c.recv() == "COMMITTED e 1"
                await c.close()

        asyncio.run(go())

    def test_rows_invisible_until_commit(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                await c.send("BEGIN big ingest")
                assert await c.recv() == "READY big"
                await c.send(*[f"dev{i % 4},{i},{i}" for i in range(10_000)])
                # streamed but uncommitted: nothing shows anywhere
                assert d.store.total_rows == 0
                assert d.store.txn_rows("big") == 0
                assert d.store.visibility_probe("dev0") is None
                await c.send("EOF")
                assert await c.recv() == "COMMITTED big 10000"
                assert d.store.txn_rows("big") == 10_000
                assert d.store.total_rows == 10_000
                await c.close()

        asyncio.run(go())


class TestErrors:
    def test_data_before_any_begin(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                await c.send("dev0,1,1")
                assert await c.recv() == f"ERROR - {ERR_UNKNOWN}"
                await c.close()

        asyncio.run(go())

    def test_eof_before_any_begin(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                await c.send("EOF")
                assert await c.recv() == f"ERROR - {ERR_ORDER}"
                await c.close()

        asyncio.run(go())

    def test_double_eof_names_last_txn(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                assert await c.txn("t1") == "COMMITTED t1 0"
                await c.send("EOF")
                assert await c.recv() == f"ERROR t1 {ERR_ORDER}"
                await c.close()

        asyncio.run(go())

    def test_data_after_commit(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                assert await c.txn("t1") == "COMMITTED t1 0"
                await c.send("dev0,1,1")
                assert await c.recv() == f"ERROR t1 {ERR_ORDER}"
                await c.close()

        asyncio.run(go())

    def test_begin_while_active(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                await c.send("BEGIN a ingest")
                assert await c.recv() == "READY a"
                await c.send("BEGIN b ingest")
                assert await c.recv() == f"ERROR b {ERR_ORDER}"
                # the original transaction is still live
                await c.send("dev0,1,1", "EOF")
                assert await c.recv() == "COMMITTED a 1"
                await c.close()

        asyncio.run(go())

    def test_duplicate_txn_same_connection(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                assert await c.txn("dup") == "COMMITTED dup 0"
                await c.send("BEGIN dup ingest")
                assert await c.recv() == f"ERROR dup {ERR_DUPLICATE}"
                await c.close()

        asyncio.run(go())

    def test_duplicate_txn_across_connections(self):
        async def go():
            async with daemon() as d:
                c1 = await Wire.connect(d.bound_port)
                c2 = await Wire.connect(d.bound_port)
                await c1.send("BEGIN live ingest")
                assert await c1.recv() == "READY live"
                await c2.send("BEGIN live ingest")
                assert await c2.recv() == f"ERROR live {ERR_DUPLICATE}"
                await c1.send("EOF")
                assert await c1.recv() == "COMMITTED live 0"
                await c1.close()
                await c2.close()

        asyncio.run(go())

    def test_malformed_begin(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                await c.send("BEGIN lonely")  # missing table name
                assert await c.recv() == f"ERROR - {ERR_ORDER}"
                await c.close()

        asyncio.run(go())


class TestAbort:
    def test_disconnect_before_eof_aborts(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                await c.send("BEGIN gone ingest")
                assert await c.recv() == "READY gone"
                await c.send("dev0,1,1", "dev1,2,2")
                await c.close()
                for _ in range(200):
                    if d.txns["gone"].state is TxnState.ABORTED:
                        break
                    await asyncio.sleep(0.005)
                assert d.txns["gone"].state is TxnState.ABORTED
                assert len(d.txns["gone"].rows) == 0  # the abort frees them
                assert d.store.total_rows == 0
                assert d.store.txn_rows("gone") == 0
                assert d.store.visibility_probe("dev0") is None

        asyncio.run(go())

    def test_cancel_during_commit_sleep_aborts(self):
        async def go():
            loop = asyncio.get_running_loop()
            # asyncio logs the cancelled stream handler; keep it quiet
            loop.set_exception_handler(lambda loop, context: None)
            async with daemon(commit_fixed_ms=1000) as d:
                c = await Wire.connect(d.bound_port)
                await c.send("BEGIN slow ingest")
                assert await c.recv() == "READY slow"
                await c.send("dev0,1,1", "dev1,2,2", "EOF")
                for _ in range(200):
                    if d._commit_lock.locked():
                        break
                    await asyncio.sleep(0.005)
                assert d._commit_lock.locked()  # the commit is sleeping
                (task,) = d._conns.values()
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
                assert d.txns["slow"].state is TxnState.ABORTED
                assert len(d.txns["slow"].rows) == 0
                assert d.store.total_rows == 0
                assert d.store.txn_rows("slow") == 0
                await c.close()

        asyncio.run(go())


class TestShutdown:
    def test_stop_does_not_wait_on_a_peer_that_never_reads(self):
        async def go():
            d = SegmentDaemon(SegmentConfig(id="seg", port=0))
            await d.start()
            # every stray row gets an ERROR reply the peer never reads
            flood = await unread_flood(d.bound_port, b"stray\n" * 200_000)
            try:
                await until_a_reply_is_stuck(d)
                assert await stops_within(d, 5)
                assert asyncio.all_tasks() == {asyncio.current_task()}
            finally:
                flood.transport.abort()

        asyncio.run(go())


class TestLatencyEnforcement:
    def test_ready_waits_for_begin_latency(self):
        async def go():
            async with daemon(begin_latency_ms=50) as d:
                loop = asyncio.get_running_loop()
                c = await Wire.connect(d.bound_port)
                t0 = loop.time()
                await c.send("BEGIN slow ingest")
                assert await c.recv() == "READY slow"
                assert loop.time() - t0 >= 0.049
                await c.close()

        asyncio.run(go())

    def test_commit_waits_for_fixed_plus_per_row(self):
        async def go():
            async with daemon(commit_fixed_ms=10, commit_per_row_us=100) as d:
                loop = asyncio.get_running_loop()
                c = await Wire.connect(d.bound_port)
                await c.send("BEGIN paid ingest")
                assert await c.recv() == "READY paid"
                await c.send(*[f"d,{i},{i}" for i in range(100)])
                t0 = loop.time()
                await c.send("EOF")
                assert await c.recv() == "COMMITTED paid 100"
                # 10 ms fixed + 100 rows * 100 us = at least 20 ms
                assert loop.time() - t0 >= 0.019
                await c.close()

        asyncio.run(go())

    def test_commits_serialize_per_segment(self):
        # two transactions committing together pay their costs in
        # sequence, like a single-writer storage engine would
        async def go():
            async with daemon(commit_fixed_ms=100) as d:
                loop = asyncio.get_running_loop()
                c1 = await Wire.connect(d.bound_port)
                c2 = await Wire.connect(d.bound_port)
                await c1.send("BEGIN a ingest")
                assert await c1.recv() == "READY a"
                await c2.send("BEGIN b ingest")
                assert await c2.recv() == "READY b"
                t0 = loop.time()
                await c1.send("EOF")
                await c2.send("EOF")
                assert await c1.recv() == "COMMITTED a 0"
                assert await c2.recv() == "COMMITTED b 0"
                assert loop.time() - t0 >= 0.195
                await c1.close()
                await c2.close()

        asyncio.run(go())


class TestAtomicVisibility:
    def test_probe_thread_sees_zero_or_all(self):
        # poll the committed count from another thread while a slow
        # commit is in flight: only 0 or the full count may appear
        async def go():
            async with daemon(commit_per_row_us=100) as d:
                c = await Wire.connect(d.bound_port)
                await c.send("BEGIN big ingest")
                assert await c.recv() == "READY big"
                await c.send(*[f"dev{i % 8},{i},{i}" for i in range(2000)])

                observed = []
                stop = threading.Event()

                def probe():
                    while not stop.is_set():
                        observed.append(d.store.txn_rows("big"))
                        time.sleep(0.001)

                th = threading.Thread(target=probe)
                th.start()
                await c.send("EOF")
                reply = await c.recv()
                stop.set()
                th.join()
                assert reply == "COMMITTED big 2000"
                assert set(observed) <= {0, 2000}
                assert 0 in observed  # the commit took ~200 ms, so both
                await c.close()

        asyncio.run(go())

    def test_probe_keeps_max_timestamp(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                assert await c.txn("t1", ["devA,9,first"]) == "COMMITTED t1 1"
                assert await c.txn("t2", ["devA,5,stale"]) == "COMMITTED t2 1"
                assert d.store.visibility_probe("devA") == (9, ("first",))
                await c.close()

        asyncio.run(go())

    def test_probe_tie_goes_to_later_commit(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                assert await c.txn("t1", ["devA,7,old"]) == "COMMITTED t1 1"
                assert await c.txn("t2", ["devA,7,new"]) == "COMMITTED t2 1"
                assert d.store.visibility_probe("devA") == (7, ("new",))
                await c.close()

        asyncio.run(go())

    def test_probe_follows_each_publish_and_ignores_an_abort(self):
        # the index is built on read: probes between commits must see
        # each commit whole, and an aborted transaction never
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                assert d.store.visibility_probe("devA") is None
                assert await c.txn("t1", ["devA,5,a5", "devB,3,b3", "devA,4,a4"]) \
                    == "COMMITTED t1 3"
                assert d.store.visibility_probe("devA") == (5, ("a5",))
                assert d.store.visibility_probe("devB") == (3, ("b3",))
                assert await c.txn("t2", ["devB,1,b1", "devA,9,a9", "devC,2,c2,x"]) \
                    == "COMMITTED t2 3"
                assert await c.txn("t3", ["devB,8,b8"]) == "COMMITTED t3 1"
                assert d.store.visibility_probe("devA") == (9, ("a9",))
                assert d.store.visibility_probe("devB") == (8, ("b8",))
                assert d.store.visibility_probe("devC") == (2, ("c2", "x"))
                await c.send("BEGIN t4 ingest")
                assert await c.recv() == "READY t4"
                await c.send("devA,100,lost", "devD,1,lost")
                await c.close()
                for _ in range(200):
                    if d.txns["t4"].state is TxnState.ABORTED:
                        break
                    await asyncio.sleep(0.005)
                assert d.txns["t4"].state is TxnState.ABORTED
                assert d.store.visibility_probe("devA") == (9, ("a9",))
                assert d.store.visibility_probe("devD") is None
                c = await Wire.connect(d.bound_port)
                assert await c.txn("t5", ["devD,7,d7"]) == "COMMITTED t5 1"
                assert d.store.visibility_probe("devD") == (7, ("d7",))
                assert d.store.visibility_probe("devA") == (9, ("a9",))
                await c.close()

        asyncio.run(go())

    def test_rows_without_an_integer_timestamp_commit_but_are_never_latest(self):
        async def go():
            async with daemon() as d:
                c = await Wire.connect(d.bound_port)
                assert await c.txn("t1", ["devA,3,ok", "devA", "devA,soon,x"]) \
                    == "COMMITTED t1 3"
                assert d.store.visibility_probe("devA") == (3, ("ok",))
                await c.close()

        asyncio.run(go())


def line_at_a_time(stream: bytes):
    """The reference: the wire protocol applied to one whole line at a
    time. Returns (replies, committed rows, state per transaction)."""
    replies, committed, states = [], [], {}
    active, rows, last = None, [], "-"
    for raw in stream.split(b"\n")[:-1]:
        line = raw.decode("utf-8", errors="replace")
        if line.startswith("BEGIN "):
            parts = line.split(" ")
            if len(parts) != 3 or not parts[1] or not parts[2]:
                replies.append(f"ERROR - {ERR_ORDER}")
            elif parts[1] in states:
                replies.append(f"ERROR {parts[1]} {ERR_DUPLICATE}")
            elif active is not None:
                replies.append(f"ERROR {parts[1]} {ERR_ORDER}")
            else:
                active, rows, last = parts[1], [], parts[1]
                states[active] = TxnState.BEGUN
                replies.append(f"READY {active}")
        elif line == "EOF":
            if active is None:
                replies.append(f"ERROR {last} {ERR_ORDER}")
            else:
                committed.extend(rows)
                states[active] = TxnState.COMMITTED
                replies.append(f"COMMITTED {active} {len(rows)}")
                active = None
        elif line:
            if active is None:
                replies.append(f"ERROR {last} {ERR_ORDER if last != '-' else ERR_UNKNOWN}")
            else:
                rows.append(line)
    if active is not None:
        states[active] = TxnState.ABORTED
    return replies, committed, states


class ScriptedReader:
    """Hands out the given chunks, one per read, then end of stream."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    async def read(self, n):
        await asyncio.sleep(0)
        return self.chunks.pop(0) if self.chunks else b""


class RecordingWriter:
    def __init__(self):
        self.out = bytearray()

    def write(self, data):
        self.out += data

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


_WIRE_LINES = [
    b"BEGIN t1 ingest", b"BEGIN t2 ingest", b"BEGIN t1 ingest", b"BEGIN  ingest",
    b"BEGIN a b c", b"BEGIN \xff\xfe ingest", b"BEGIN", b"BEGINX t3 ingest",
    b"EOF", b"EOF", b"EOF\r", b"EOFX", b" EOF", b"", b"",
    b"d1,1,2", b"d2,2,3", b"\xff\xfe,1,2", b"d,1,x\r", b"xBEGIN y", b"d,1,\xe2\x82",
]


@st.composite
def client_streams(draw):
    """(stream, reads): a client's bytes, and the same bytes cut into
    the reads a segment might see."""
    lines = draw(st.lists(st.sampled_from(_WIRE_LINES), max_size=24))
    stream = b"".join(line + b"\n" for line in lines)
    stream += draw(st.sampled_from([b"", b"d9,9", b"EO", b"BEGIN t9"]))  # partial last line
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(stream) - 1)), max_size=12)))
    bounds = [0] + [c for c in cuts if c < len(stream)] + [len(stream)]
    return stream, [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


class TestWireFraming:
    @given(case=client_streams())
    @settings(max_examples=300, deadline=None)
    def test_framer_output_rejoins_the_whole_lines(self, case):
        stream, reads = case
        framer = WireFramer()
        frames = [frame for data in reads for frame in framer.feed(data)]
        assert b"".join(data + b"\n" if control else data for control, data in frames) \
            == stream[:stream.rfind(b"\n") + 1]
        for control, data in frames:
            if control:
                assert data == b"EOF" or data.startswith(b"BEGIN ")
            else:
                assert data.endswith(b"\n")
                assert not any(ln == b"EOF" or ln.startswith(b"BEGIN ")
                               for ln in data.split(b"\n"))

    @given(case=client_streams())
    @settings(max_examples=300, deadline=None)
    def test_any_split_into_reads_answers_like_the_line_reference(self, case):
        stream, reads = case
        d = SegmentDaemon(SegmentConfig(id="seg", port=0))
        writer = RecordingWriter()
        asyncio.run(d._serve(ScriptedReader(reads), writer))
        replies, committed, states = line_at_a_time(stream)
        assert writer.out.decode().split("\n")[:-1] == replies
        assert d.store.committed_lines() == committed
        assert {t: x.state for t, x in d.txns.items()} == states


_ROW_LINES = [b"", b"d1,1,2", b"\xff\xfe,1,2", b"d,1,x\r", b"d,1,\xe2\x82", "d,1,\u00e9".encode()]


class TestRowText:
    @given(runs=st.lists(
        st.lists(st.sampled_from(_ROW_LINES), min_size=1, max_size=6)
        .map(lambda lines: b"".join(line + b"\n" for line in lines)),
        max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_runs_give_the_rows_of_their_joined_text(self, runs):
        rows = RowText()
        for run in runs:
            rows.add_run(run)
        expected = list(filter(None, b"".join(runs).decode("utf-8", errors="replace").split("\n")))
        assert rows.lines() == expected
        assert len(rows) == len(expected)
        assert all(run and "\n\n" not in run and not run.startswith("\n") for run in rows.runs)

    def test_a_run_of_empty_lines_adds_nothing(self):
        rows = RowText()
        rows.add_run(b"\n\n\n")
        assert (rows.runs, len(rows), rows.lines()) == ([], 0, [])

    def test_rows_given_one_by_one_round_trip(self):
        assert RowText.of(["a,1,1", "b,2,2"]).lines() == ["a,1,1", "b,2,2"]
        assert len(RowText.of(["a,1,1", "b,2,2"])) == 2
        assert (RowText.of([]).runs, len(RowText.of([]))) == ([], 0)

    def test_a_store_keeps_one_string_per_run_not_per_row(self):
        # the cyclic collector walks every item of a list it meets, so
        # a list holding a string per row made one collection walk them all
        rows = RowText()
        for i in range(50):
            rows.add_run("".join(f"dev{j % 4},{i},{j}\n" for j in range(1000)).encode())
        store = SegmentStore()
        store.publish("big", rows)
        store.publish("few", ["devZ,1,z"])
        assert len(rows.runs) == 50
        assert store.total_rows == 50_001
        assert store.txn_rows("big") == 50_000
        lines = store.committed_lines()
        assert (len(lines), lines[0], lines[-2], lines[-1]) \
            == (50_001, "dev0,0,0", "dev3,49,999", "devZ,1,z")
        assert store.visibility_probe("dev3") == (49, ("999",))


class TestCluster:
    def test_six_instances_one_process(self):
        async def go():
            specs = [SegmentConfig(id=f"s{i}", port=0) for i in range(6)]
            daemons = await start_cluster(specs)
            try:
                ports = {d.bound_port for d in daemons}
                assert len(ports) == 6
                for k, d in enumerate(daemons):
                    c = await Wire.connect(d.bound_port)
                    assert await c.txn(f"t{k}", [f"dev,{k},{k}"]) == f"COMMITTED t{k} 1"
                    await c.close()
                assert all(d.store.total_rows == 1 for d in daemons)
            finally:
                for d in daemons:
                    await d.stop()

        asyncio.run(go())

    def test_dump_file_records_committed_rows(self, tmp_path):
        path = tmp_path / "seg.dump"

        async def go():
            async with daemon(dump_path=str(path)) as d:
                c = await Wire.connect(d.bound_port)
                assert await c.txn("d-1", ["dev0,1,1", "dev1,2,2"]) == "COMMITTED d-1 2"
                await c.close()

        asyncio.run(go())
        assert path.read_text().splitlines() == ["d-1,dev0,1,1", "d-1,dev1,2,2"]

