"""The live gateway: ingest listener, slot pool, and scheduler loop
wired together on one asyncio event loop.

Each slot is owned by a single task cycling connect -> wait -> send ->
commit against a persistent connection per segment. The send window
takes whole runs from the queue, a bounded number of rows at a time,
joins their rows, which the ingest listener has encoded exactly as the
producer posted them, and routes them once per drain: ``split_rows``
cuts them into one blob per segment, each row in the blob of the
segment ``route_record`` names for its device, and each blob is
written to its segment as it is. A
batch is kept in memory, as the blobs already written to each segment,
until every segment acknowledges its commit; a connection lost
mid-send aborts the segment transaction (nothing became visible) and
the retained blobs go back into the pipeline as plain runs, so no row
is silently lost and none is committed twice. A runner sleeps only in
``park``. The scheduler tick, a plain callback, applies its decisions
to the shared state, then starts a new slot's runner or wakes one to
send or tear down; rows put into an empty queue wake the slot that sends.
The tick runs at start, soon after each report a runner makes and
each failure retirement, when the queue fills while no slot sends, and
at the instant ``next_deadline`` names for the next timed rule; nothing else
can change its decisions, so it has no polling period. A runner drives the
``Slot`` that the shared scheduler state holds but moves it only by
reporting to the state, which is safe to share because everything
lives on one loop. A failed slot is logged at WARNING.
"""

from __future__ import annotations

import asyncio
import logging
import uuid
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter, mod
from zlib import crc32

from .config import GatewayConfig
from .ingest import IngestServer
from .metrics import Counters
from .pipeline import RowFifo, Run
from .scheduler import (
    ActivateSlot,
    DispatchSender,
    SchedulerState,
    TimingParams,
    next_deadline,
    tick,
)
from .slot import Initiator, Slot, Transition, make_txn_id, send_spans
# not called here: the benchmark's tracer patches this name until it
# moves to stable seams
from .slot import route_record  # noqa: F401

log = logging.getLogger(__name__)

TABLE_NAME = "ingest"
# a soft bound: a window stops taking runs once its batch holds this
# many rows, so a batch passes it by less than one run, at most one post
MAX_BATCH_ROWS = 1_000_000
# a drain takes whole runs until they hold this many rows, so routing
# a backlog, a requeued batch say, holds the loop for a few ms at a
# time, and the window awaits the links between drains
DRAIN_ROWS = 1 << 14

_first = itemgetter(0)


class SlotProtocolError(RuntimeError):
    pass


@dataclass
class _SegmentLink:
    """One slot's connection to one segment, and what the open
    transaction has put on it: the blobs written, kept until the
    commit is acked, and whether EOF went out. Both are reset at
    BEGIN."""

    segment: str
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    sent: list[bytes] = field(default_factory=list)
    eof_sent: bool = False

    async def reply(self, verb: str, txn: str) -> int:
        """Read the segment's ``READY <txn>`` or ``COMMITTED <txn> <n>``
        reply and return n (0 for READY). Any other frame is a protocol
        error."""
        raw = b""
        try:
            raw = await self.reader.readline()
            frame = raw.decode().split()
            if frame[:2] == [verb, txn]:
                return int(frame[2]) if verb == "COMMITTED" else 0
        except (ValueError, IndexError):
            pass  # over the line limit, not UTF-8, or no integer count
        raise SlotProtocolError(f"segment {self.segment}: expected {verb} {txn}, got {raw[:80]!r}")

    def check(self) -> None:
        """Raise if the segment hung up. While the gateway only writes,
        that is visible on the read side alone."""
        if self.reader.at_eof() or self.reader.exception() is not None:
            raise ConnectionResetError(f"segment {self.segment}: link lost during send")


def split_rows(raw: bytes, segments: int) -> list[bytes]:
    """The "\\n"-ended rows of ``raw`` as one blob per segment, in
    segment order (``b""`` where a segment gets no row): each row, in
    order, in the blob of the segment that ``route_record`` names for
    its device, crc32 of the text before its first comma modulo
    ``segments``. With one segment, ``raw`` itself."""
    if segments == 1:
        return [raw]
    lines = raw.split(b"\n")
    lines.pop()  # the empty tail after the last "\n"
    buffers: list[list[bytes]] = [[] for _ in range(segments)]
    appends = [buf.append for buf in buffers]
    devices = map(_first, map(bytes.partition, lines, repeat(b",")))
    for line, segment in zip(lines, map(mod, map(crc32, devices), repeat(segments))):
        appends[segment](line)
    for buf in buffers:
        buf.append(b"")  # every row, the last too, ends in \n
    return list(map(b"\n".join, buffers))


def write_runs(links: list[_SegmentLink], runs: list[Run]) -> int:
    """Join the rows of ``runs``, split them once over the segments of
    ``links`` and write each segment's blob to that segment's link,
    keeping it there until the commit; returns the rows written. An
    empty blob is neither written nor kept."""
    for link, blob in zip(links, split_rows(b"".join([run.blob for run in runs]), len(links))):
        if blob:
            link.sent.append(blob)
            link.writer.write(blob)
    return sum(run.rows for run in runs)


@dataclass
class SlotRunner:
    """Task-side of one slot: owns its links and its retained batch."""

    gateway: "Gateway"
    slot: Slot
    links: list[_SegmentLink] = field(default_factory=list)
    # rows retained since the send window opened; the links hold them
    batch: int = 0
    task: asyncio.Task | None = None
    _parked: asyncio.Future | None = field(default=None, init=False, repr=False)

    async def run(self) -> None:
        """Cycle until the scheduler retires the slot or a link fails.
        Whether the slot lives on is read from the slot after every
        park, since the scheduler retires it in its state."""
        gw = self.gateway
        sid = self.slot.slot_id
        error: Exception | None = None
        try:
            await self._open_links()
            while True:
                txn = make_txn_id(gw.nonce, sid, self.slot.cycle)
                await self._begin_txn(txn)
                if self.slot.retired:
                    break  # aborted while connecting
                gw.state.note_ready(sid, gw.now())
                gw.request_tick()
                await self.park()  # until dispatched, or aborted out of Wait
                if self.slot.retired:
                    break
                await self._send_window()
                if not await self._commit(txn):
                    break  # retired at the commit boundary
        except (ConnectionError, OSError, asyncio.IncompleteReadError, SlotProtocolError) as exc:
            self._fail()
            error = exc
        finally:
            self._close_links()
            gw.runner_done(self, error)

    async def park(self, until_us: int | None = None) -> None:
        """Sleep until ``wake``, or until ``until_us`` on the gateway's
        clock when given: the runner's one way to sleep. It reads the
        slot and drains the queue before it parks, so a wake that finds
        it awake has nothing to tell it. Neither the future nor the
        timer outlives the call, even when it is cancelled."""
        loop = asyncio.get_running_loop()
        self._parked = parked = loop.create_future()
        timer = None if until_us is None else loop.call_at(until_us / 1_000_000, self.wake)
        try:
            await parked
        finally:
            self._parked = None
            if timer is not None:
                timer.cancel()

    def wake(self) -> None:
        """End the current ``park``; does nothing while not parked."""
        parked, self._parked = self._parked, None
        if parked is not None and not parked.done():
            parked.set_result(None)

    # -- phases --------------------------------------------------------

    async def _open_links(self) -> None:
        for seg in self.gateway.config.segments:
            try:
                reader, writer = await asyncio.open_connection(seg.host, seg.port)
            except OSError as exc:
                raise ConnectionError(f"segment {seg.id}: {exc}") from exc
            self.links.append(_SegmentLink(seg.id, reader, writer))

    async def _begin_txn(self, txn: str) -> None:
        start = self.gateway.now()
        frame = f"BEGIN {txn} {TABLE_NAME}\n".encode()
        for link in self.links:
            # reset before any await: a failure in BEGIN must not see
            # the last transaction's blobs, which are committed
            link.sent, link.eof_sent = [], False
            link.writer.write(frame)
        for link in self.links:
            await link.writer.drain()
            await link.reply("READY", txn)
        self.gateway.state.observe_ts(self.gateway.now() - start)

    async def _send_window(self) -> None:
        gw = self.gateway
        deadline = gw.now() + gw.state.params.t_d_us
        links = self.links
        while gw.now() < deadline:
            room = MAX_BATCH_ROWS - self.batch
            runs = gw.queue.drain_up_to(min(room, DRAIN_ROWS)) if room > 0 else []
            if not runs:
                # an empty queue or a full batch. A segment that hung up
                # is only visible on the read side, and noticing it now,
                # before any EOF goes out, keeps the batch re-enqueueable.
                # Then park until rows arrive or the window ends
                for link in links:
                    link.check()
                await self.park(deadline)
                continue
            self.batch += write_runs(links, runs)
            for link in links:
                await link.writer.drain()
        # the last park may have outlived a link: check once more
        # before _commit writes EOF
        for link in links:
            link.check()

    async def _commit(self, txn: str) -> bool:
        """Close the send window and commit; returns whether the slot
        lives on, or False when the scheduler retires it here."""
        gw = self.gateway
        sid = self.slot.slot_id
        rows = self.batch
        eof_at = gw.now()
        # the one slot-initiated edge: the collection interval is over
        retired = gw.state.note_send_ended(sid, rows, eof_at)
        gw.request_tick()
        if retired:
            return False  # the empty transaction is dropped, not committed
        for link in self.links:
            link.eof_sent = True
            link.writer.write(b"EOF\n")
            await link.writer.drain()
        total = 0
        for link in self.links:
            total += await link.reply("COMMITTED", txn)
        if total != rows:
            raise SlotProtocolError(f"committed {total} of {rows} rows of {txn}")
        ack_at = gw.now()
        gw.state.observe_tc(ack_at - eof_at)
        retired = gw.state.note_commit_acked(sid, ack_at)
        gw.request_tick()
        gw.counters.add("rows_committed", rows)
        gw.last_commit_at = ack_at
        self.batch = 0
        return not retired

    # -- teardown ------------------------------------------------------

    def _fail(self) -> None:
        """Connection or protocol failure. A segment only publishes on
        EOF, so each blob sent on a link that never saw an EOF attempt
        goes back to the pipeline as a plain run, which routing sends
        to the same segment again; rows past an EOF attempt might
        already be committed there, and re-sending them would
        duplicate, so they are only counted as in doubt. A device's
        rows all go to one segment, so each device keeps its order."""
        gw = self.gateway
        safe: list[Run] = []
        in_doubt = 0
        for link in self.links:
            # a row's line holds no newline, and every blob ends with one
            if link.eof_sent:
                in_doubt += sum(blob.count(b"\n") for blob in link.sent)
            else:
                safe.extend(Run(blob, blob.count(b"\n"), -1) for blob in link.sent)
            link.sent = []
        if safe:
            # ahead of rows accepted later, to keep each device's order
            gw.queue.requeue(safe)
        gw.counters.add("rows_in_doubt", in_doubt)
        self.batch = 0

    def _close_links(self) -> None:
        for link in self.links:
            link.writer.close()
        self.links.clear()


class Gateway:
    """Owns the pipeline, the ingest server, the slot pool, and the
    scheduler tick's pending call and deadline timer."""

    def __init__(self, config: GatewayConfig) -> None:
        self.config = config
        self.queue = RowFifo(capacity=config.queue_capacity, on_fill=self._queue_filled)
        self.counters = Counters()
        params = TimingParams(
            t_d_us=config.interval_ms * 1000,
            dispatch_cycle_us=config.dispatch_cycle_ms * 1000,
            max_slots=config.max_slots,
        )
        self.state = SchedulerState(params)
        # the loop-clock instant of the last commit ack, 0 before one
        self.last_commit_at = 0
        # the pool, why it has its size (the estimates, the size they
        # give, and the rows waiting), and the last commit, read as
        # /metrics is served
        state = self.state
        self.counters.probe("active_slots", lambda: len(self.runners))
        self.counters.probe("slots_activated_total", lambda: state.activations_total)
        self.counters.probe("slots_aborted_total", lambda: state.aborts_total)
        self.counters.probe("last_commit_ms", lambda: self.last_commit_at // 1000)
        self.counters.probe("est_ts_us", lambda: round(state.est_ts_us or 0))
        self.counters.probe("est_tc_us", lambda: round(state.est_tc_us or 0))
        self.counters.probe("pool_optimal_estimate", lambda: state.estimated_optimal() or 0)
        self.counters.probe("queue_depth", self.queue.approx_len)
        self.nonce = uuid.uuid4().hex[:8]
        host, port = config.listen_host_port()
        self.ingest = IngestServer(self.queue, config.schema_obj(), self.counters, host, port)
        self.runners: dict[int, SlotRunner] = {}
        self.audit_slots: list[Slot] = []
        self._tick_soon: asyncio.Handle | None = None
        self._tick_timer: asyncio.TimerHandle | None = None
        self._running = False

    def now(self) -> int:
        """The running loop's clock in microseconds, the one that
        ``park`` and the tick's timer schedule on."""
        return round(asyncio.get_running_loop().time() * 1_000_000)

    @property
    def ingest_port(self) -> int:
        return self.ingest.bound_port

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        await self.ingest.start()
        self._running = True
        self.request_tick()

    async def stop(self) -> None:
        self._running = False
        self._cancel_tick()
        # the slots shutdown cuts short retire on a scheduler edge:
        # they did not fail
        for sid in list(self.state.slots):
            self.state.note_retired(sid, self.now(), Initiator.SCHEDULER)
        tasks = [runner.task for runner in self.runners.values() if runner.task is not None]
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        await self.ingest.stop()

    async def quiesce(self, timeout_s: float = 30.0) -> bool:
        """Wait until every accepted row has been committed. A row still
        queued or in a sender's batch is accepted and not yet committed,
        so this also means the pipeline is empty. Returns False on
        timeout."""
        deadline = asyncio.get_running_loop().time() + timeout_s
        while asyncio.get_running_loop().time() < deadline:
            snap = self.counters.snapshot()
            if snap["rows_accepted"] == snap["rows_committed"]:
                return True
            await asyncio.sleep(0.02)
        return False

    # -- scheduler plumbing --------------------------------------------

    def request_tick(self) -> None:
        """Run a tick soon: the reports of one loop turn share it."""
        if self._running and self._tick_soon is None:
            self._tick_soon = asyncio.get_running_loop().call_soon(self._tick)

    def _queue_filled(self) -> None:
        # a sender parked on an empty queue drains the rows; they change
        # no decision before it reports its send end
        sender = self.state.current_sender
        if sender is None:
            self.request_tick()
        elif sender in self.runners:
            self.runners[sender].wake()

    def _cancel_tick(self) -> None:
        for handle in (self._tick_soon, self._tick_timer):
            if handle is not None:
                handle.cancel()
        self._tick_soon = self._tick_timer = None

    def _tick(self) -> None:
        # reached from the pending call or the deadline timer: this one
        # tick stands for both
        self._cancel_tick()
        now = self.now()
        nonempty = self.queue.approx_len() > 0
        for action in tick(self.state, now, nonempty):
            if isinstance(action, ActivateSlot):
                self._activate(action.slot_id)
            elif isinstance(action, DispatchSender) or not action.deferred:
                # tick dispatched or retired the slot already: wake its
                # runner to send, or to tear down its side
                self.runners[action.slot_id].wake()
        due = next_deadline(self.state, now, nonempty)
        if due is not None:
            self._tick_timer = asyncio.get_running_loop().call_at(due / 1_000_000, self._tick)

    def _activate(self, sid: int) -> None:
        slot = self.state.slots[sid]
        runner = SlotRunner(self, slot)
        runner.task = asyncio.create_task(runner.run())
        self.runners[sid] = runner
        self.audit_slots.append(slot)

    def runner_done(self, runner: SlotRunner, error: Exception | None) -> None:
        """The one exit of every slot task. Scheduler decisions and
        ``stop`` retire a slot in the state before its task ends, so a
        slot the state still lists here failed (a lost link, a bad
        frame, or an unforeseen exception). It retires on a FAILURE
        edge, and no slot stays listed without a task to drive it."""
        sid = runner.slot.slot_id
        if sid in self.state.slots:
            self.state.note_retired(sid, self.now())
            self.request_tick()
            self.counters.add("slot_failures_total")
            log.warning("slot %d failed: %s", sid, error)
        self.runners.pop(sid, None)

    # -- audit -----------------------------------------------------------

    def transitions(self) -> list[Transition]:
        """Every phase transition of every slot ever activated, in
        per-slot order; the raw material for invariant audits."""
        events: list[Transition] = []
        for slot in self.audit_slots:
            events.extend(slot.history)
        return events

    def send_spans(self) -> list[tuple[int, int, int]]:
        """(slot_id, start, end) for every completed send window."""
        return send_spans(
            (slot.slot_id, tr.at, tr.dst) for slot in self.audit_slots for tr in slot.history
        )
