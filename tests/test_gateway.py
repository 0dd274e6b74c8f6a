"""Live gateway against real segment daemons: exactly-once delivery,
single-sender windows, pool drain, and failure recovery."""

import asyncio
import gc
import json
from contextlib import asynccontextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gateflow.config import GatewayConfig, SegmentConfig
from gateflow import gateway
from gateflow.gateway import DRAIN_ROWS, Gateway, SlotRunner, _SegmentLink, split_rows
from gateflow.pipeline import Run
from gateflow.segment import SegmentDaemon, start_cluster
from gateflow.slot import Initiator, Slot, SlotPhase, route_record


def lines_for(seqs, devices=5):
    return [f"dev{seq % devices},{1000 + seq},{seq}" for seq in seqs]


def seqs_in(store_lines):
    return [int(line.split(",")[2]) for line in store_lines]


async def post_lines(port, lines):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = "\n".join(lines).encode()
    writer.write(
        f"POST /ingest HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )
    await writer.drain()
    status = int((await reader.readline()).split(b" ")[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    payload = await reader.readexactly(length)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return status, json.loads(payload)


@asynccontextmanager
async def live_gateway(
    n_segments=2,
    *,
    interval_ms=50,
    dispatch_cycle_ms=10_000,
    max_slots=4,
    queue_capacity=None,
    seg_kw=None,
    schema="seq:int",
):
    seg_kw = seg_kw or {}
    daemons = await start_cluster(
        [SegmentConfig(id=f"seg{i}", port=0, **seg_kw) for i in range(n_segments)]
    )
    config = GatewayConfig(
        segments=tuple(
            SegmentConfig(id=d.spec.id, port=d.bound_port, **seg_kw) for d in daemons
        ),
        listen_addr="127.0.0.1:0",
        schema=schema,
        interval_ms=interval_ms,
        dispatch_cycle_ms=dispatch_cycle_ms,
        max_slots=max_slots,
        queue_capacity=queue_capacity,
        listeners=1,
    )
    gw = Gateway(config)
    await gw.start()
    try:
        yield gw, daemons
    finally:
        await gw.stop()
        for d in daemons:
            await d.stop()


class TestShutdown:
    def test_stop_leaves_nothing_for_the_loop_to_cancel(self):
        # a handler task still running when asyncio.run ends is
        # cancelled there, and its done-callback reports the
        # CancelledError to the loop's exception handler
        seen = []

        async def go():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: seen.append(ctx)
            )
            async with live_gateway(n_segments=2) as (gw, daemons):
                status, report = await post_lines(gw.ingest_port, lines_for(range(200)))
                assert (status, report["accepted"]) == (200, 200)
                assert await gw.quiesce(timeout_s=20)
                # a keep-alive client, idle but still connected at stop
                reader, writer = await asyncio.open_connection("127.0.0.1", gw.ingest_port)
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                assert (await reader.readline()).startswith(b"HTTP/1.1 200")
                await gw.stop()
                assert not gw.ingest._conns  # its handler has ended
            writer.close()
            # and no tick is left pending or armed to fire after stop
            loop = asyncio.get_running_loop()
            assert not [
                handle
                for handle in (*loop._ready, *loop._scheduled)
                if not handle.cancelled() and getattr(handle._callback, "__self__", None) is gw
            ]

        asyncio.run(go())
        assert seen == []


async def get_metrics(port):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
    raw = await reader.read()
    writer.close()
    head, _, body = raw.decode().partition("\r\n\r\n")
    assert head.startswith("HTTP/1.1 200")
    return {key: int(value) for key, value in (ln.split("=") for ln in body.splitlines())}


class TestMetricsExplainThePool:
    def test_nothing_is_estimated_before_a_sample(self):
        gw = Gateway(GatewayConfig(segments=(SegmentConfig(id="seg0", port=1),), schema="seq:int"))
        gw.queue.requeue([Run(b"1\n2\n", 2, -1)])
        snap = gw.counters.snapshot()
        assert [snap[key] for key in ("est_ts_us", "est_tc_us", "pool_optimal_estimate")] == [0, 0, 0]
        assert snap["queue_depth"] == 2

    def test_metrics_give_the_size_the_estimates_predict(self):
        async def go():
            async with live_gateway(
                n_segments=1,
                interval_ms=30,
                seg_kw=dict(begin_latency_ms=45, commit_fixed_ms=20),
            ) as (gw, _):
                status, _ = await post_lines(gw.ingest_port, lines_for(range(50)))
                assert status == 200
                assert await gw.quiesce(timeout_s=10)
                doc = await get_metrics(gw.ingest_port)
                # ceil((30 + 45 + 20 ms and the loop's own time) / 30)
                assert doc["pool_optimal_estimate"] == gw.state.estimated_optimal() == 4
                assert doc["est_ts_us"] >= 45_000 and doc["est_tc_us"] >= 20_000
                assert doc["queue_depth"] == 0
                snap = gw.counters.snapshot()
                assert snap["est_ts_us"] == round(gw.state.est_ts_us)
                assert snap["est_tc_us"] == round(gw.state.est_tc_us)
                assert snap["active_slots"] == len(gw.runners) >= 1
                assert snap["slots_activated_total"] == gw.state.activations_total >= 1

        asyncio.run(go())


class TestProbedMetrics:
    def test_last_commit_ms_is_the_loop_clock_of_the_last_ack(self):
        async def go():
            # a 400 ms window: no commit, not even an empty one, lands
            # before the first document is read
            async with live_gateway(n_segments=1, interval_ms=400) as (gw, _):
                assert (await get_metrics(gw.ingest_port))["last_commit_ms"] == 0
                before = gw.now() // 1000
                status, _ = await post_lines(gw.ingest_port, lines_for(range(10)))
                assert status == 200
                assert await gw.quiesce(timeout_s=5)
                doc = await get_metrics(gw.ingest_port)
                after = gw.now() // 1000
                assert before <= doc["last_commit_ms"] <= after

        asyncio.run(go())

    def test_aborts_are_the_states_after_a_failure(self):
        async def go():
            async with live_gateway(n_segments=1) as (gw, daemons):
                await post_lines(gw.ingest_port, lines_for(range(20)))
                assert await gw.quiesce(timeout_s=10)
                await daemons[0].stop()  # the sender finds its link lost
                for _ in range(500):
                    if gw.counters.snapshot()["slot_failures_total"]:
                        break
                    await asyncio.sleep(0.01)
                snap = gw.counters.snapshot()
                assert snap["slot_failures_total"] >= 1
                assert snap["slots_aborted_total"] == gw.state.aborts_total >= 1

        asyncio.run(go())

    def test_aborts_are_the_states_after_a_trim(self):
        async def go():
            async with live_gateway(
                n_segments=1,
                interval_ms=50,
                dispatch_cycle_ms=300,
                seg_kw=dict(commit_fixed_ms=40),
            ) as (gw, _):
                await post_lines(gw.ingest_port, lines_for(range(400)))
                assert await gw.quiesce(timeout_s=20)
                for _ in range(300):  # rules 5 and 6 drain the idle pool
                    if not gw.runners:
                        break
                    await asyncio.sleep(0.02)
                snap = gw.counters.snapshot()
                assert snap["slot_failures_total"] == 0
                assert snap["slots_aborted_total"] == gw.state.aborts_total >= 1

        asyncio.run(go())


class TestQuiesce:
    def test_quiesce_waits_for_the_commit(self):
        async def go():
            async with live_gateway(n_segments=1, interval_ms=400) as (gw, _):
                loop = asyncio.get_running_loop()
                give_up = loop.time() + 10
                while True:  # a send window that has just opened
                    sender = gw.state.current_sender
                    slot = gw.state.slots.get(sender) if sender is not None else None
                    if slot is not None and gw.now() - slot.since < 20_000:
                        break
                    assert loop.time() < give_up, "no fresh send window"
                    await asyncio.sleep(0.001)
                status, _ = await post_lines(gw.ingest_port, lines_for(range(5)))
                assert status == 200
                # the rows sit in the sender's batch until its window ends
                assert not await gw.quiesce(timeout_s=0.05)
                assert await gw.quiesce(timeout_s=5)
                assert gw.counters.snapshot()["rows_committed"] == 5

        asyncio.run(go())


class TestOneSlotRecord:
    def test_runners_drive_the_slots_the_state_holds(self):
        # the runner, the audit list and the scheduler state share one
        # record per slot, and a clean stop retires the live ones on
        # scheduler edges, not failure ones
        async def go():
            async with live_gateway(
                n_segments=1,
                interval_ms=30,
                seg_kw=dict(commit_fixed_ms=60),
            ) as (gw, _):
                seen = {}
                for i in range(30):
                    await post_lines(gw.ingest_port, lines_for(range(40 * i, 40 * i + 40)))
                    for sid, slot in gw.state.slots.items():
                        assert gw.runners[sid].slot is slot
                        seen[sid] = slot
                    await asyncio.sleep(0.03)
                assert await gw.quiesce(timeout_s=30)
                assert len(seen) >= 2
                assert all(any(a is s for a in gw.audit_slots) for s in seen.values())
                assert gw.state.slots
            assert not gw.state.slots
            assert all(slot.retired for slot in gw.audit_slots)
            assert all(tr.initiator is not Initiator.FAILURE for tr in gw.transitions())
            assert gw.counters.snapshot()["slot_failures_total"] == 0

        asyncio.run(go())


class TestEndToEnd:
    def test_exactly_once_with_rejections(self):
        async def go():
            async with live_gateway(n_segments=2) as (gw, daemons):
                good = lines_for(range(300))
                noise = ["not-a-row", "dev1,soon,5", ",77,5"]
                body = good[:100] + noise + good[100:]
                status, report = await post_lines(gw.ingest_port, body)
                assert status == 200
                assert report == {"accepted": 300, "rejected": 3, "backpressured": 0}
                assert await gw.quiesce(timeout_s=20)

                snap = gw.counters.snapshot()
                assert snap["rows_accepted"] == 300
                assert snap["rows_committed"] == 300
                assert snap["rows_rejected"] == 3

                committed = []
                for idx, d in enumerate(daemons):
                    for line in d.store.committed_lines():
                        committed.append(line)
                        device = line.split(",")[0]
                        assert route_record(device, 2) == idx
                seqs = seqs_in(committed)
                assert sorted(seqs) == list(range(300))  # each row exactly once

        asyncio.run(go())

    def test_lines_reach_the_segments_byte_equal(self):
        # rows are forwarded as posted, never re-serialized: "3.50"
        # stays "3.50" and "1e3" stays "1e3"
        async def go():
            async with live_gateway(n_segments=2, schema="value:float") as (gw, daemons):
                lines = ["d1,5,3.50", "d2,0007,1e3", "d3,8,-0.0", "d4,9,+.25E-1"]
                lines += [f"dev{i},{i},{i}.10" for i in range(50)]
                status, report = await post_lines(gw.ingest_port, lines)
                assert (status, report["accepted"]) == (200, len(lines))
                assert await gw.quiesce(timeout_s=20)
                committed = []
                for idx, d in enumerate(daemons):
                    for line in d.store.committed_lines():
                        assert route_record(line.split(",")[0], 2) == idx
                        committed.append(line)
                assert sorted(committed) == sorted(lines)

        asyncio.run(go())

    def test_slot_initiates_only_the_commit_edge(self):
        async def go():
            async with live_gateway(n_segments=1) as (gw, _):
                await post_lines(gw.ingest_port, lines_for(range(50)))
                assert await gw.quiesce(timeout_s=20)
                by_initiator = {}
                for tr in gw.transitions():
                    by_initiator.setdefault(tr.initiator, set()).add((tr.src, tr.dst))
                assert by_initiator.get(Initiator.SLOT, set()) <= {
                    (SlotPhase.SEND, SlotPhase.COMMIT)
                }
                assert (SlotPhase.SEND, SlotPhase.COMMIT) in by_initiator[Initiator.SLOT]
                assert Initiator.FAILURE not in by_initiator

        asyncio.run(go())


class TestSingleSender:
    def test_send_windows_never_overlap(self):
        # a commit cost near two send intervals forces a multi-slot
        # pool, which is where overlapping senders would show up
        async def go():
            async with live_gateway(
                n_segments=1,
                interval_ms=30,
                seg_kw=dict(commit_fixed_ms=60),
            ) as (gw, _):
                seq = 0
                for _ in range(40):
                    await post_lines(gw.ingest_port, lines_for(range(seq, seq + 40)))
                    seq += 40
                    await asyncio.sleep(0.04)
                assert await gw.quiesce(timeout_s=30)
                assert len({s.slot_id for s in gw.audit_slots}) >= 2

                spans = sorted(gw.send_spans(), key=lambda s: s[1])
                assert len(spans) > 10
                for (_, _, prev_end), (_, start, _) in zip(spans, spans[1:]):
                    assert start >= prev_end, "two slots were sending at once"

        asyncio.run(go())


class TestPoolDrain:
    def test_idle_pool_drains_to_zero(self):
        async def go():
            async with live_gateway(
                n_segments=1,
                interval_ms=50,
                dispatch_cycle_ms=300,
                seg_kw=dict(commit_fixed_ms=40),
            ) as (gw, _):
                await post_lines(gw.ingest_port, lines_for(range(400)))
                assert await gw.quiesce(timeout_s=20)
                for _ in range(300):  # pool death is bounded, poll it
                    if not gw.runners:
                        break
                    await asyncio.sleep(0.02)
                assert not gw.runners
                assert gw.counters.snapshot()["active_slots"] == 0
                assert gw.counters.snapshot()["slots_aborted_total"] >= 1
                retired = [
                    tr for tr in gw.transitions() if tr.dst is SlotPhase.RETIRED
                ]
                assert retired
                assert all(tr.initiator is Initiator.SCHEDULER for tr in retired)

        asyncio.run(go())


class TestSendWindow:
    def test_idle_window_does_not_spin(self):
        # with nothing queued a send window sleeps until its deadline:
        # one empty drain when it opens, not one per poll period
        async def go():
            async with live_gateway(n_segments=1, interval_ms=200) as (gw, _):
                drains = {}
                drain_up_to = gw.queue.drain_up_to

                def counted(max_items):
                    for runner in gw.runners.values():
                        if runner.slot.phase is SlotPhase.SEND:
                            key = (runner.slot.slot_id, runner.slot.cycle)
                            drains[key] = drains.get(key, 0) + 1
                    return drain_up_to(max_items)

                gw.queue.drain_up_to = counted
                await asyncio.sleep(1.0)
                assert len(drains) >= 2, drains  # the lone slot keeps sending
                assert max(drains.values()) <= 3, drains
                assert gw.counters.snapshot()["rows_committed"] == 0

        asyncio.run(go())

    class Writer:
        """Records the blobs written to it, one entry per blob."""

        def __init__(self):
            self.written = []

        def write(self, data):
            self.written.append(data)

        def writelines(self, data):
            self.written.extend(data)

        async def drain(self):
            pass

    @classmethod
    def runner_with_links(cls, n_segments=1, interval_ms=50):
        """A gateway that is never started and a runner in WAIT with a
        link per segment: a bare reader and a recording ``Writer``."""
        config = GatewayConfig(
            segments=tuple(SegmentConfig(id=f"seg{i}", port=0) for i in range(n_segments)),
            listen_addr="127.0.0.1:0",
            schema="seq:int",
            interval_ms=interval_ms,
        )
        gw = Gateway(config)
        slot = Slot(slot_id=gw.state.note_activated(0))
        slot.transition(SlotPhase.WAIT, Initiator.SCHEDULER, 1)
        runner = SlotRunner(gw, slot)
        for i in range(n_segments):
            runner.links.append(_SegmentLink(f"seg{i}", asyncio.StreamReader(), cls.Writer()))
        return gw, runner

    @classmethod
    def one_link_runner(cls):
        gw, runner = cls.runner_with_links()
        return gw, runner, runner.links[0].reader, runner.links[0].writer

    def test_link_lost_in_the_last_wait_stops_the_window_before_eof(self):
        # the segment hangs up while the window sleeps out its last
        # stretch; the check after that wait raises before _commit can
        # write EOF, so the batch stays re-enqueueable
        async def go():
            gw, runner, reader, writer = self.one_link_runner()
            gw.queue.enqueue(Run(b"d1,1,1\n", 1, 0))
            loop = asyncio.get_running_loop()
            # after the window drained its row and went to sleep
            loop.call_later(0.02, reader.feed_eof)
            start = loop.time()
            with pytest.raises(ConnectionResetError):
                await runner._send_window()
            assert loop.time() - start >= 0.05  # the whole window was waited out
            assert writer.written == [b"d1,1,1\n"]  # the row, and no EOF
            assert runner.batch == 1 and not runner.links[0].eof_sent

        asyncio.run(go())

    def test_full_batch_holds_to_the_end_of_the_window(self, monkeypatch):
        # with no room left the window neither drains nor waits on the
        # non-empty queue again: it sleeps out its time once. The cap is
        # soft: the run that reaches it is taken whole, and the runs of
        # one drain go out joined
        monkeypatch.setattr(gateway, "MAX_BATCH_ROWS", 2)

        async def go():
            gw, runner, _, writer = self.one_link_runner()
            runs = [Run(b"d1,0,0\n", 1, 0), Run(b"d1,1,1\nd1,2,2\n", 2, 1),
                    Run(b"d1,3,3\n", 1, 3)]
            for run in runs:
                gw.queue.enqueue(run)
            drain_up_to = gw.queue.drain_up_to
            calls = []
            gw.queue.drain_up_to = lambda n: calls.append(n) or drain_up_to(n)
            loop = asyncio.get_running_loop()
            start = loop.time()
            await runner._send_window()
            assert loop.time() - start >= 0.05
            assert calls == [2]
            assert writer.written == [b"d1,0,0\nd1,1,1\nd1,2,2\n"]
            assert runner.batch == 3 and gw.queue.approx_len() == 1
            assert gw.queue.dequeue() is runs[2]

        asyncio.run(go())

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 5), max_size=8),
        cap=st.integers(1, 12),
        n_segments=st.integers(1, 3),
        data=st.data(),
    )
    def test_a_window_takes_whole_runs_up_to_the_soft_cap(self, sizes, cap, n_segments, data):
        # whole runs from the head until the batch reaches the cap, the
        # last taken past it by less than its own rows; they go out in
        # one drain, each link given the rows route_record names for
        # its segment, in run order, and the rest stay queued in order
        runs = []
        lines = []
        for seq, size in enumerate(sizes):
            part = [f"dev{data.draw(st.integers(0, 6))},{len(lines) + k},{len(lines) + k}"
                    for k in range(size)]
            lines.append(part)
            runs.append(Run("".join(f"{line}\n" for line in part).encode(), size, seq))
        taken = 0
        batch = 0
        while taken < len(runs) and batch < cap:
            batch += runs[taken].rows
            taken += 1

        async def go():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gateway, "MAX_BATCH_ROWS", cap)
                gw, runner = self.runner_with_links(n_segments, interval_ms=5)
                for run in runs:
                    gw.queue.enqueue(run)
                await runner._send_window()
            return gw, runner

        gw, runner = asyncio.run(go())
        assert runner.batch == batch == sum(run.rows for run in runs[:taken])
        if taken:
            assert batch - runs[taken - 1].rows < cap
        for i, link in enumerate(runner.links):
            mine = "".join(f"{line}\n" for part in lines[:taken] for line in part
                           if route_record(line.partition(",")[0], n_segments) == i)
            assert link.writer.written == ([mine.encode()] if mine else [])
            assert link.sent == link.writer.written
        assert [gw.queue.dequeue() for _ in runs[taken:]] == runs[taken:]
        assert gw.queue.approx_len() == 0


class TestPark:
    """``park`` is the runner's one way to sleep: a wake or its deadline
    ends it, and it leaves nothing on the loop."""

    def test_a_wake_ends_a_park(self):
        async def go():
            _, runner, _, _ = TestSendWindow.one_link_runner()
            loop = asyncio.get_running_loop()
            loop.call_later(0.01, runner.wake)
            start = loop.time()
            await asyncio.wait_for(runner.park(), 2)
            assert loop.time() - start < 1.0
            assert runner._parked is None

        asyncio.run(go())

    def test_a_park_returns_at_its_deadline(self):
        async def go():
            gw, runner, _, _ = TestSendWindow.one_link_runner()
            until = gw.now() + 50_000
            await asyncio.wait_for(runner.park(until), 2)
            assert gw.now() >= until
            assert runner._parked is None

        asyncio.run(go())

    def test_a_cancelled_park_leaves_no_future_or_timer(self):
        async def go():
            gw, runner, _, _ = TestSendWindow.one_link_runner()
            loop = asyncio.get_running_loop()
            parked = asyncio.create_task(runner.park(gw.now() + 5_000_000))
            await asyncio.sleep(0)
            assert runner._parked is not None
            parked.cancel()
            with pytest.raises(asyncio.CancelledError):
                await parked
            assert runner._parked is None
            assert all(handle.cancelled() for handle in loop._scheduled)
            runner.wake()  # nobody to wake, and nothing breaks

        asyncio.run(go())

    def test_a_wake_while_not_parked_does_nothing(self):
        async def go():
            _, runner, _, _ = TestSendWindow.one_link_runner()
            runner.wake()
            parked = asyncio.create_task(runner.park())
            await asyncio.sleep(0.02)
            assert not parked.done()  # the early wake was not kept
            runner.wake()
            runner.wake()  # a second wake before it resumes is harmless
            await asyncio.wait_for(parked, 2)

        asyncio.run(go())


class TestClock:
    @pytest.mark.parametrize("offset_s", [-600, 600])
    def test_the_gateway_runs_on_its_loop_clock(self, offset_s):
        # a loop whose clock is not time.monotonic(): the gateway's
        # stamps and the timers it sets must read the same clock, or a
        # window's deadline is never reached (behind) or always passed
        # (ahead), and the tick busy-loops
        class ShiftedLoop(asyncio.SelectorEventLoop):
            def time(self):
                return super().time() + offset_s

        ticks = 0
        tick = Gateway._tick

        def counted_tick(gw):
            nonlocal ticks
            ticks += 1
            tick(gw)

        async def go():
            async with live_gateway(n_segments=1) as (gw, _):
                status, report = await post_lines(gw.ingest_port, lines_for(range(10)))
                assert (status, report["accepted"]) == (200, 10)
                assert await gw.quiesce(timeout_s=3)

        loop = ShiftedLoop()
        try:
            with mock.patch.object(Gateway, "_tick", counted_tick):
                loop.run_until_complete(go())
        finally:
            loop.close()
        assert ticks < 100


class TestWakeOnPost:
    def test_a_post_reaches_the_open_window_at_once(self):
        # the sender parks on an empty queue until its window ends; the
        # first row of a post wakes it, so the row is on the wire in the
        # same window, not at the next one
        async def go():
            async with live_gateway(n_segments=1, interval_ms=400) as (gw, daemons):
                loop = asyncio.get_running_loop()
                give_up = loop.time() + 10
                while True:
                    sender = gw.state.current_sender
                    slot = gw.state.slots.get(sender) if sender is not None else None
                    if slot is not None:
                        edge = slot.history[-1]
                        if edge.dst is SlotPhase.SEND and gw.now() - edge.at < 20_000:
                            break
                    assert loop.time() < give_up, "no fresh send window"
                    await asyncio.sleep(0.001)
                cycle = slot.cycle
                posted_at = gw.now()
                status, report = await post_lines(gw.ingest_port, lines_for([0]))
                assert (status, report["accepted"]) == (200, 1)
                while not any(t.rows for t in daemons[0].txns.values()):
                    assert gw.now() - posted_at < 150_000, "the row waited for the window end"
                    await asyncio.sleep(0.001)
                assert gw.state.current_sender == sender and slot.cycle == cycle

        asyncio.run(go())


class TestEventTicks:
    def test_idle_gateway_ticks_on_reports_and_dispatches_at_once(self, monkeypatch):
        # an idle lone slot reports ready, send end and commit ack once
        # per window and no timed rule is due, so the scheduler ticks
        # a few times per window, not every t_d/10; and a slot that
        # turns ready while nobody sends is dispatched at once, not at
        # the next tick of a timer
        calls = []

        def counted(state, now, pipeline_nonempty):
            calls.append(now)
            return real_tick(state, now, pipeline_nonempty)

        real_tick = gateway.tick
        monkeypatch.setattr(gateway, "tick", counted)

        async def go():
            async with live_gateway(n_segments=1, interval_ms=200) as (gw, _):
                await asyncio.sleep(1.0)
                windows = sum(
                    1 for slot in gw.audit_slots for tr in slot.history if tr.dst is SlotPhase.SEND
                )
                lags = [
                    b.at - a.at
                    for slot in gw.audit_slots
                    for a, b in zip(slot.history, slot.history[1:])
                    if a.dst is SlotPhase.WAIT and b.dst is SlotPhase.SEND
                ]
            return windows, lags

        windows, lags = asyncio.run(go())
        assert windows >= 3, windows
        # three reports per window, each worth one tick, and the start
        assert len(calls) <= 3 * windows + 2, (len(calls), windows)
        assert sorted(lags)[len(lags) // 2] < 2_000, lags


class TestFailureRecovery:
    def test_mid_send_crash_rows_survive_exactly_once(self):
        async def go():
            daemons = await start_cluster([SegmentConfig(id="seg0", port=0)])
            old = daemons[0]
            port = old.bound_port
            config = GatewayConfig(
                segments=(SegmentConfig(id="seg0", port=port),),
                listen_addr="127.0.0.1:0",
                schema="seq:int",
                interval_ms=200,
                max_slots=1,
                listeners=1,
            )
            gw = Gateway(config)
            await gw.start()
            new = None
            try:
                # wave A commits normally to the first daemon
                await post_lines(gw.ingest_port, lines_for(range(1000)))
                assert await gw.quiesce(timeout_s=20)
                assert old.store.total_rows == 1000

                # wave B: kill the daemon early in a send window, long
                # before the commit boundary can race the shutdown. The
                # lone slot idles through whole windows and is
                # dispatched in the loop turn after it turns ready, so
                # post right after a fresh SEND edge: that window then
                # drains the wave at its start, not at some random age.
                # A stall of the process while the post is handled can
                # still age that window past the kill limit; the wave
                # then commits whole and the next wave tries again
                def fresh_send():
                    now = gw.now()
                    return any(
                        r.slot.phase is SlotPhase.SEND and now - r.slot.history[-1].at < 10_000
                        for r in gw.runners.values()
                    )

                posted = 1000
                killed = False
                for _wave in range(5):
                    for _ in range(2000):
                        if fresh_send():
                            break
                        await asyncio.sleep(0.001)
                    await post_lines(gw.ingest_port, lines_for(range(posted, posted + 4000)))
                    posted += 4000
                    for _ in range(400):
                        now = gw.now()
                        for runner in gw.runners.values():
                            s = runner.slot
                            if (
                                s.phase is SlotPhase.SEND
                                and runner.batch
                                and now - s.history[-1].at < 50_000
                            ):
                                await old.stop()
                                killed = True
                                break
                        if killed:
                            break
                        await asyncio.sleep(0.005)
                    if killed:
                        break
                    assert await gw.quiesce(timeout_s=20)
                    assert old.store.total_rows == posted
                assert killed, "never caught a send window to kill"

                new = SegmentDaemon(SegmentConfig(id="seg0", port=port))
                await new.start()
                assert await gw.quiesce(timeout_s=30)

                snap = gw.counters.snapshot()
                assert snap["rows_accepted"] == posted
                assert snap["rows_committed"] == posted
                assert snap["slots_aborted_total"] >= 1
                failures = [
                    tr
                    for tr in gw.transitions()
                    if tr.initiator is Initiator.FAILURE
                ]
                assert failures

                survivors = seqs_in(
                    old.store.committed_lines() + new.store.committed_lines()
                )
                assert sorted(survivors) == list(range(posted))
            finally:
                await gw.stop()
                await old.stop()
                if new is not None:
                    await new.stop()

        asyncio.run(go())

    @pytest.mark.parametrize(
        "begin_reply, eof_reply",
        [
            pytest.param(b"READY {txn}", b"ERROR {txn} protocol-order", id="ERROR"),
            pytest.param(b"READY \xff\xfe", None, id="READY-not-utf8"),
            pytest.param(b"READY {txn}", b"COMMITTED {txn}", id="COMMITTED-no-count"),
        ],
    )
    def test_protocol_error_peer_cannot_wedge_the_gateway(self, begin_reply, eof_reply, caplog):
        # a peer that answers with a frame the protocol does not allow
        # costs the slot, never the gateway: the slot retires on a
        # FAILURE edge and the pool activates a replacement
        async def go():
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )

            async def hostile(reader, writer):
                buf = b""
                txn = b"-"
                try:
                    while True:
                        chunk = await reader.read(4096)
                        if not chunk:
                            break
                        buf += chunk
                        *lines, buf = buf.split(b"\n")
                        for line in lines:
                            if line.startswith(b"BEGIN "):
                                txn = line.split()[1]
                                reply = begin_reply
                            elif line == b"EOF":
                                reply = eof_reply
                            else:
                                continue
                            writer.write(reply.replace(b"{txn}", txn) + b"\n")
                            await writer.drain()
                except (ConnectionError, OSError):
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(hostile, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            config = GatewayConfig(
                segments=(SegmentConfig(id="bad", port=port),),
                listen_addr="127.0.0.1:0",
                schema="seq:int",
                interval_ms=50,
                max_slots=2,
                listeners=1,
            )
            gw = Gateway(config)
            await gw.start()

            async def wait_for(cond):
                for _ in range(300):
                    # every slot the scheduler lists has a task driving it
                    assert set(gw.state.slots) == set(gw.runners)
                    if cond():
                        return
                    await asyncio.sleep(0.01)
                raise AssertionError("timed out")

            def failures():
                return [
                    tr
                    for tr in gw.transitions()
                    if tr.initiator is Initiator.FAILURE and tr.dst is SlotPhase.RETIRED
                ]

            try:
                status, report = await post_lines(gw.ingest_port, lines_for(range(20)))
                assert status == 200 and report["accepted"] == 20
                await wait_for(failures)
                if eof_reply is not None:
                    # the rows went out and an EOF followed: whether that
                    # commit landed is unknown, so they are neither re-sent
                    # nor lost without a trace
                    await wait_for(lambda: gw.counters.rows_in_doubt)
                    assert gw.counters.snapshot()["rows_in_doubt"] == 20
                    assert gw.queue.approx_len() == 0
                else:
                    assert gw.counters.snapshot()["rows_in_doubt"] == 0
                # the front door is still answering, and rows waiting
                # there get a replacement slot
                status, _ = await post_lines(gw.ingest_port, ["devX,1,9999"])
                assert status == 200
                await wait_for(lambda: gw.state.activations_total >= 2)
                snap = gw.counters.snapshot()
                assert snap["slots_aborted_total"] >= 1
                assert snap["slot_failures_total"] == len(failures()) >= 1
                assert snap["rows_committed"] == 0
                # each failure is logged once, naming the slot, the
                # segment and the frame it sent
                warned = [
                    r.getMessage().split(" failed: segment bad: expected ")
                    for r in caplog.records
                    if r.name == "gateflow.gateway" and r.levelname == "WARNING"
                ]
                assert sorted(w[0] for w in warned) == sorted(
                    f"slot {tr.slot_id}" for tr in failures()
                )
                assert all(len(w) == 2 and "got b" in w[1] for w in warned)
                gc.collect()  # a lost task exception is reported when freed
                assert loop_errors == []
            finally:
                await gw.stop()
                server.close()
                await server.wait_closed()
            # shutdown is not a failure
            assert gw.counters.snapshot()["slot_failures_total"] == len(failures())

        asyncio.run(go())


def devices_on(segment, segments, count):
    """The first ``count`` devices ``dev<k>`` that ``route_record``
    puts on ``segment``."""
    return [d for d in (f"dev{k}" for k in range(200))
            if route_record(d, segments) == segment][:count]


class TestRetainedBatch:
    def test_fail_requeues_only_links_without_eof_in_order(self):
        # a slot sent to three segments and had written EOF to the
        # second when its link failed: the second's rows may be
        # committed, the others' cannot be, and go back in order
        # ahead of rows accepted since, each blob as a plain run that
        # routing sends to the segment it came from
        config = GatewayConfig(
            segments=tuple(SegmentConfig(id=f"seg{i}", port=0) for i in range(3)),
            listen_addr="127.0.0.1:0",
            schema="seq:int",
        )
        gw = Gateway(config)
        sid = gw.state.note_activated(0)
        gw.state.note_ready(sid, 1)
        gw.state.note_dispatched(sid, 2)
        slot = gw.state.slots[sid]
        runner = SlotRunner(gw, slot)
        a, b = devices_on(0, 3, 2)
        (c,) = devices_on(1, 3, 1)
        d, e = devices_on(2, 3, 2)
        runner.links = [
            _SegmentLink("seg0", None, None, sent=[f"{a},1,0\n{b},1,1\n".encode(),
                                                   f"{a},2,2\n".encode()]),
            _SegmentLink("seg1", None, None, sent=[f"{c},1,3\n".encode()], eof_sent=True),
            _SegmentLink("seg2", None, None, sent=[f"{d},1,4\n".encode(),
                                                   f"{e},1,5\n{d},2,6\n".encode()]),
        ]
        sent = [list(link.sent) for link in runner.links]
        runner.batch = 7
        later = Run(f"{a},9,9\n".encode(), 1, 9)
        gw.queue.enqueue(later)

        error = ConnectionResetError("segment seg0: link lost during send")
        runner._fail()

        async def exit_task():  # the task's exit, which retires the slot
            gw.runner_done(runner, error)

        asyncio.run(exit_task())

        requeued = gw.queue.drain_up_to(100)
        assert requeued[-1] is later
        # each blob goes back as it was sent, a plain run of its rows
        assert requeued[:-1] == [Run(blob, blob.count(b"\n"), -1) for blob in sent[0] + sent[2]]
        assert all(run.blob is blob for run, blob in zip(requeued, sent[0] + sent[2]))
        assert gw.queue.approx_len() == 0
        assert gw.counters.snapshot()["rows_in_doubt"] == 1
        # routed again, each row goes back to its segment, every device
        # in order and ahead of the row accepted since
        resent = split_rows(b"".join(run.blob for run in requeued), 3)
        assert resent == [b"".join(sent[0]) + f"{a},9,9\n".encode(), b"", b"".join(sent[2])]
        assert runner.batch == 0 and [link.sent for link in runner.links] == [[], [], []]
        assert slot.history[-1].initiator is Initiator.FAILURE
        assert slot.retired and sid not in gw.state.slots

    def test_requeued_rows_commit_once_on_their_segment(self):
        # one of three links is cut in the middle of a send window: no
        # EOF went out, so every row the slot sent goes back, routes to
        # the segment it was sent to, and commits there exactly once,
        # each device's rows in seq order
        async def go():
            async with live_gateway(n_segments=3, interval_ms=300, max_slots=1) as (gw, daemons):
                posted = 0
                cut = False
                for _wave in range(5):
                    await post_lines(gw.ingest_port, lines_for(range(posted, posted + 2000), 11))
                    posted += 2000
                    for _ in range(300):
                        sending = [r for r in gw.runners.values()
                                   if r.slot.phase is SlotPhase.SEND and r.batch
                                   and all(link.sent for link in r.links)]
                        if sending:
                            # no await between the check and the cut: the
                            # window is open and EOF has not gone out
                            sending[0].links[1].writer.transport.abort()
                            cut = True
                            break
                        await asyncio.sleep(0.001)
                    if cut:
                        break
                    assert await gw.quiesce(timeout_s=20)
                assert cut, "never caught a send window to cut"
                await post_lines(gw.ingest_port, lines_for(range(posted, posted + 500), 11))
                posted += 500
                assert await gw.quiesce(timeout_s=30)
                snap = gw.counters.snapshot()
                assert snap["slot_failures_total"] >= 1 and snap["rows_in_doubt"] == 0
                assert snap["rows_committed"] == posted
                return [d.store.committed_lines() for d in daemons], posted

        stored, posted = asyncio.run(go())
        assert sorted(seqs_in(sum(stored, []))) == list(range(posted))
        for segment, lines in enumerate(stored):
            devices = {line.partition(",")[0] for line in lines}
            assert all(route_record(dev, 3) == segment for dev in devices)
            for dev in devices:
                seqs = seqs_in(line for line in lines if line.startswith(f"{dev},"))
                assert seqs == sorted(seqs)


class TestSplitRows:
    """``split_rows`` against ``route_record``, whatever the device."""

    @given(
        devices=st.lists(
            st.one_of(
                st.text(st.characters(blacklist_characters=",\n", blacklist_categories=("Cs",)),
                         max_size=6),
                # what the gateway keeps of a device that was not UTF-8
                st.binary(max_size=6).map(lambda raw: raw.decode("utf-8", errors="replace")),
            ).filter(lambda dev: "," not in dev and "\n" not in dev),
            max_size=30,
        ),
        segments=st.integers(1, 4),
    )
    @example(devices=["\ufffd", "d\u00e9v\u20ac", "\ufffd\ufffd", "", "d1"], segments=3)
    @settings(max_examples=200, deadline=None)
    def test_routes_as_route_record(self, devices, segments):
        lines = [f"{dev},1,{k}" for k, dev in enumerate(devices)]
        raw = "".join(f"{line}\n" for line in lines).encode()
        expected = [
            "".join(f"{line}\n" for line, dev in zip(lines, devices)
                    if route_record(dev, segments) == segment).encode()
            for segment in range(segments)
        ]
        assert split_rows(raw, segments) == expected

    def test_one_segment_takes_the_bytes_as_they_are(self):
        raw = b"d1,1,1\nd2,2,2\n"
        assert split_rows(raw, 1)[0] is raw


class _KeepWriter:
    """Keeps what a send window writes; never pushes back."""

    def __init__(self) -> None:
        self.written: list[bytes] = []

    def write(self, blob: bytes) -> None:
        self.written.append(blob)

    async def drain(self) -> None:
        pass


class _OpenReader:
    """The read side of a link whose segment has not hung up."""

    def at_eof(self) -> bool:
        return False

    def exception(self) -> None:
        return None


class TestDrainBound:
    def test_a_backlog_is_routed_a_bounded_drain_at_a_time(self):
        # a backlog, as a requeued batch leaves, goes out in drains of
        # about DRAIN_ROWS rows, not in one, and every row still reaches
        # its segment in order
        config = GatewayConfig(
            segments=tuple(SegmentConfig(id=f"seg{i}", port=0) for i in range(3)),
            listen_addr="127.0.0.1:0",
            schema="seq:int",
            interval_ms=50,
        )
        gw = Gateway(config)
        runner = SlotRunner(gw, Slot(slot_id=1))
        runner.links = [_SegmentLink(f"seg{i}", _OpenReader(), _KeepWriter()) for i in range(3)]
        post = 1000
        lines = lines_for(range(4 * DRAIN_ROWS // post * post), devices=64)
        runs = [Run("".join(f"{line}\n" for line in lines[k:k + post]).encode(), post, -1)
                for k in range(0, len(lines), post)]
        gw.queue.requeue(runs)
        drained = []
        drain = gw.queue.drain_up_to

        def counting_drain(max_rows):
            out = drain(max_rows)
            drained.append(sum(run.rows for run in out))
            return out

        with mock.patch.object(gw.queue, "drain_up_to", counting_drain):
            asyncio.run(runner._send_window())
        taken = [rows for rows in drained if rows]
        assert sum(taken) == len(lines) == runner.batch
        assert len(taken) > 1 and max(taken) < DRAIN_ROWS + post
        whole = "".join(f"{line}\n" for line in lines).encode()
        assert [b"".join(link.writer.written) for link in runner.links] == split_rows(whole, 3)
        assert [link.sent for link in runner.links] == [link.writer.written for link in runner.links]


@st.composite
def reply_frames(draw):
    """(verb, txn, bytes, expected count): a well-formed reply with its
    count, a near miss, or arbitrary bytes (expected None)."""
    verb = draw(st.sampled_from(["READY", "COMMITTED"]))
    txn = draw(st.sampled_from(["t", "3f9a-s1-c7"]))
    kind = draw(st.sampled_from(["good", "near", "bytes"]))
    if kind == "bytes":
        return verb, txn, draw(st.binary(max_size=120)), None
    n = draw(st.integers(0, 10**6))
    line = f"{verb} {txn}" + (f" {n}" if verb == "COMMITTED" else "")
    if kind == "good":
        return verb, txn, line.encode() + b"\n" + draw(st.binary(max_size=20)), (
            n if verb == "COMMITTED" else 0)
    cut = draw(st.integers(0, len(line)))
    junk = draw(st.binary(max_size=12))
    return verb, txn, line.encode()[:cut] + junk + line.encode()[cut:], None


class TestReplyFraming:
    """``_SegmentLink.reply`` on any bytes a segment may send: it
    returns a count or raises ``SlotProtocolError``, nothing else, and a
    well-formed reply gives its count."""

    @given(reply_frames())
    @example(("COMMITTED", "t", b"COMMITTED t " + b"9" * 5000 + b"\n", None))
    @example(("COMMITTED", "t", b"COMMITTED t " + b"9" * 70_000 + b"\n", None))
    @example(("READY", "t", b"READY \xff\xfe\n", None))
    @example(("COMMITTED", "t", b"COMMITTED t\n", None))
    @example(("READY", "t", b"", None))
    @settings(max_examples=300, deadline=None)
    def test_reply_returns_a_count_or_raises_protocol_error(self, frame):
        verb, txn, data, expected = frame

        async def go():
            reader = asyncio.StreamReader()  # the 64 KiB limit open_connection uses
            reader.feed_data(data)
            reader.feed_eof()
            try:
                return await _SegmentLink("s0", reader, None).reply(verb, txn)
            except gateway.SlotProtocolError:
                return None

        n = asyncio.run(go())
        if expected is not None:
            assert n == expected
        elif n is not None:
            assert type(n) is int and (verb == "COMMITTED" or n == 0)
