"""Deterministic discrete-event simulation of the slot pipeline.

Virtual time is integer microseconds and every event is totally ordered
by (time, insertion sequence), so a config maps to exactly one trace,
byte for byte. The simulator drives the same ``tick`` code as the live
engine; slots, arrivals and the segment cluster are replaced by timing
models:

  * connecting takes t_s, a send window lasts t_d, committing takes
    commit_fixed + rows * commit_per_row
  * arrivals follow a piecewise-constant rows/sec schedule (optionally
    Poisson-thinned from a seed)
  * while some slot is streaming, arrivals flow straight into its
    batch; otherwise they pile up as backlog

Two strategies are modeled. ``gate`` slots pre-open their transaction
before entering Wait, so a dispatched slot streams immediately. A
``naive`` slot only opens its transaction after being handed the send
window, which puts t_s back on the batch's critical path. Batch latency
is measured from dispatch to commit acknowledgment in both modes.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import random
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable

from .config import known_keys, require
from .scheduler import (
    ABORT_NO_DATA_CYCLE,
    ActivateSlot,
    DecisionLog,
    DispatchSender,
    SchedulerState,
    Strategy,
    TimingParams,
    logged_tick,
)
from .slot import SlotPhase, send_spans

_URQ = 1_000_000  # micro-rows per row: arrival integration unit

# what each event kind does to the live pool's size
_POOL_DELTA = {"activated": 1, "retired": -1}


@dataclass(frozen=True)
class SimConfig:
    """Scenario description. Times in ms, rates in rows/sec."""

    t_d_ms: int = 100
    t_s_ms: int = 50
    commit_fixed_ms: int = 0
    commit_per_row_us: int = 0
    arrival: tuple[tuple[int, int], ...] = ((0, 1000),)  # (at_ms, rows_per_sec)
    duration_ms: int = 3000
    seed: int = 0
    strategy: Strategy = Strategy.GATE
    max_slots: int = 64
    dispatch_cycle_ms: int = 10_000
    tick_ms: int = 1
    # pre-warmed pool: slot k is force-activated at (k-1)*t_d, one per
    # interval, so the seeded rotation starts in phase instead of all
    # slots becoming ready at once and tripping the idle-wait trim
    initial_slots: int = 0
    poisson: bool = False

    def __post_init__(self) -> None:
        require(int, "", t_d_ms=self.t_d_ms, t_s_ms=self.t_s_ms,
                commit_fixed_ms=self.commit_fixed_ms, commit_per_row_us=self.commit_per_row_us,
                duration_ms=self.duration_ms, max_slots=self.max_slots,
                dispatch_cycle_ms=self.dispatch_cycle_ms, initial_slots=self.initial_slots,
                tick_ms=self.tick_ms)
        for step in self.arrival:
            if not isinstance(step, (tuple, list)) or len(step) != 2:
                raise ValueError(f"arrival steps must be [at_ms, rows_per_sec], got {step!r}")
            require(int, "arrival ", at_ms=step[0], rows_per_sec=step[1])
        if self.t_d_ms <= 0:
            raise ValueError("t_d_ms must be positive")
        if self.t_s_ms < 0 or self.commit_fixed_ms < 0 or self.commit_per_row_us < 0:
            raise ValueError("latencies must be non-negative")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if not self.arrival:
            raise ValueError("arrival schedule must have at least one step")
        last = -1
        for at_ms, rate in self.arrival:
            if at_ms <= last:
                raise ValueError("arrival steps must have increasing times")
            if rate < 0:
                raise ValueError("arrival rates must be non-negative")
            last = at_ms
        if self.arrival[0][0] != 0:
            raise ValueError("arrival schedule must start at t=0")
        if self.initial_slots < 0 or self.initial_slots > self.max_slots:
            raise ValueError("initial_slots out of range")
        if self.tick_ms < 1:
            raise ValueError("tick_ms must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SimConfig":
        known = known_keys(cls, data, "scenario")
        if "arrival" in known:
            steps = known["arrival"]
            if not isinstance(steps, (list, tuple)) or not all(
                isinstance(step, (list, tuple)) for step in steps
            ):
                raise ValueError(f"arrival must be a list of [at_ms, rows_per_sec], got {steps!r}")
            known["arrival"] = tuple(tuple(step) for step in steps)
        if "strategy" in known:
            known["strategy"] = Strategy(known["strategy"])
        return cls(**known)

    def digest(self) -> str:
        raw = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(raw.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class TraceEvent:
    t: int
    kind: str
    slot_id: int
    detail: int = 0
    reason: str = ""


@dataclass(frozen=True)
class BatchStat:
    slot_id: int
    dispatched_at: int
    send_started_at: int
    send_ended_at: int
    committed_at: int
    rows: int

    @property
    def latency_us(self) -> int:
        return self.committed_at - self.dispatched_at


@dataclass
class SimTrace:
    config: SimConfig
    events: list[TraceEvent] = field(default_factory=list)
    batches: list[BatchStat] = field(default_factory=list)
    interval_slots: list[tuple[int, int]] = field(default_factory=list)
    starved_ticks: list[int] = field(default_factory=list)
    arrived_rows: int = 0
    committed_rows: int = 0
    final_slots: int = 0
    decision_log: DecisionLog | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "config_digest": self.config.digest(),
            "events": [
                [e.t, e.kind, e.slot_id, e.detail, e.reason] for e in self.events
            ],
            "batches": [
                [b.slot_id, b.dispatched_at, b.send_started_at, b.send_ended_at,
                 b.committed_at, b.rows]
                for b in self.batches
            ],
            "interval_slots": [list(pair) for pair in self.interval_slots],
            "starved_ticks": self.starved_ticks,
            "arrived_rows": self.arrived_rows,
            "committed_rows": self.committed_rows,
            "final_slots": self.final_slots,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, raw: str) -> "SimTrace":
        """The trace ``to_json`` wrote. JSON that is not one raises a
        ValueError that says what is malformed."""
        data = json.loads(raw)
        if not isinstance(data, dict) or not isinstance(data.get("config"), dict):
            raise ValueError(
                f"a trace is a JSON object with a config object, got {json.dumps(data)[:60]}"
            )
        trace = cls(config=SimConfig.from_dict(data["config"]))
        try:
            trace.events = [
                TraceEvent(t, kind, slot, detail, reason)
                for t, kind, slot, detail, reason in data["events"]
            ]
            trace.batches = [BatchStat(*row) for row in data["batches"]]
            trace.interval_slots = [(k, n) for k, n in data["interval_slots"]]
            trace.starved_ticks = list(data["starved_ticks"])
            trace.arrived_rows = data["arrived_rows"]
            trace.committed_rows = data["committed_rows"]
            trace.final_slots = data["final_slots"]
            ints = [trace.arrived_rows, trace.committed_rows, trace.final_slots]
            ints += trace.starved_ticks
            ints += [v for e in trace.events for v in (e.t, e.slot_id, e.detail)]
            ints += [v for row in data["batches"] + trace.interval_slots for v in row]
            strs = [v for e in trace.events for v in (e.kind, e.reason)]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed trace: {exc!r}") from exc
        for want, values in ((int, ints), (str, strs)):
            for v in values:
                if type(v) is not want:  # bool is no int here
                    raise ValueError(f"malformed trace: {v!r} where {want.__name__} values belong")
        return trace

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def mean_batch_latency_us(self) -> float:
        if not self.batches:
            return 0.0
        return sum(b.latency_us for b in self.batches) / len(self.batches)

    def send_spans(self) -> list[tuple[int, int, int]]:
        """(slot_id, start, end) of every completed streaming window."""
        return send_spans(slot_phases(self.events))


class _Sim:
    """One run. The scheduler state holds every slot fact: which slots
    live, and when each entered its phase. Only the open batch's rows
    live here, since one slot streams at a time; a finished batch's
    times and rows travel on its commit event."""

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.t_d = config.t_d_ms * 1000
        self.t_s = config.t_s_ms * 1000
        self.commit_fixed = config.commit_fixed_ms * 1000
        self.per_row = config.commit_per_row_us
        self.duration = config.duration_ms * 1000
        self.tick_us = config.tick_ms * 1000
        self.gate = config.strategy is Strategy.GATE
        params = TimingParams(
            t_d_us=self.t_d,
            dispatch_cycle_us=config.dispatch_cycle_ms * 1000,
            max_slots=config.max_slots,
        )
        self.log = DecisionLog()
        self.state = SchedulerState(params, log=self.log)
        self.trace = SimTrace(config=config, decision_log=self.log)
        # (t, seq, handler, slot_id): run as handler(t, slot_id); a
        # handler whose slot the state no longer lists drops the event
        self.heap: list[tuple[int, int, Callable[[int, int], None], int]] = []
        self.seq = 0
        self.rng = random.Random(config.seed)
        # arrival integration state
        self.schedule = list(config.arrival)
        self.rate = 0
        self.backlog = 0
        self.carry = 0
        self.last_mat = 0
        self.drainer: int | None = None  # the slot streaming the open batch
        self.batch_rows = 0

    # -- event plumbing ----------------------------------------------

    def push(self, t: int, handler: Callable[[int, int], None], slot_id: int = 0) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, handler, slot_id))

    def emit(self, t: int, kind: str, slot_id: int = 0, detail: int = 0, reason: str = "") -> None:
        self.trace.events.append(TraceEvent(t, kind, slot_id, detail, reason))

    # -- arrivals ------------------------------------------------------

    def materialize(self, now: int) -> None:
        """Turn elapsed arrival-rate time into whole rows."""
        dt = now - self.last_mat
        if dt > 0:
            if self.config.poisson:
                lam = self.rate * dt / _URQ
                rows = _poisson(self.rng, lam)
            else:
                self.carry += self.rate * dt
                rows = self.carry // _URQ
                self.carry -= rows * _URQ
            if rows:
                self.trace.arrived_rows += rows
                if self.drainer is not None:
                    self.batch_rows += rows
                else:
                    self.backlog += rows
            self.last_mat = now
        elif dt == 0:
            return
        else:
            raise AssertionError("time went backwards")

    def commit_us(self, rows: int) -> int:
        return self.commit_fixed + rows * self.per_row

    # -- main loop -----------------------------------------------------

    def run(self) -> SimTrace:
        for at_ms, _ in self.schedule:
            self.push(at_ms * 1000, self.on_rate_change)
        for k in range(self.config.initial_slots):
            # a pre-warmed pool's slots come with no id: activated by force
            self.push(k * self.t_d, self.apply_activate)
        self.push(0, self.on_tick)

        while self.heap:
            t, _, handler, slot_id = heapq.heappop(self.heap)
            if t > self.duration:
                break
            handler(t, slot_id)

        self.finish()
        return self.trace

    def on_rate_change(self, now: int, _: int = 0) -> None:
        self.materialize(now)
        while self.schedule and self.schedule[0][0] * 1000 <= now:
            _, self.rate = self.schedule.pop(0)
        self.emit(now, "rate", 0, self.rate)

    def on_tick(self, now: int, _: int = 0) -> None:
        self.materialize(now)
        nonempty = self.backlog > 0
        # tick has applied each action to the state: carry it out here
        for action in logged_tick(self.state, now, nonempty):
            if isinstance(action, ActivateSlot):
                self.apply_activate(now, action.slot_id)
            elif isinstance(action, DispatchSender):
                self.apply_dispatch(now, action.slot_id)
            else:
                kind = "marked" if action.deferred else "retired"
                self.emit(now, kind, action.slot_id, 0, action.reason)
        if nonempty and self.state.current_sender is None:
            self.trace.starved_ticks.append(now)
        nxt = now + self.tick_us
        if nxt <= self.duration:
            self.push(nxt, self.on_tick)

    def apply_activate(self, now: int, sid: int = 0) -> None:
        sid = sid or self.state.note_activated(now)
        self.emit(now, "activated", sid)
        if self.gate:
            self.push(now + self.t_s, self.on_connect_done, sid)
        else:
            self.state.note_ready(sid, now)
            self.emit(now, "ready", sid)

    def apply_dispatch(self, now: int, sid: int) -> None:
        self.emit(now, "dispatched", sid)
        if self.gate:
            self.start_streaming(now, sid)
        else:
            # naive: the transaction opens now, then streaming starts
            self.push(now + self.t_s, self.on_ready_after_dispatch, sid)

    def start_streaming(self, now: int, sid: int) -> None:
        self.materialize(now)
        self.batch_rows = self.backlog
        self.backlog = 0
        self.drainer = sid
        self.emit(now, "send_start", sid)
        self.push(now + self.t_d, partial(self.on_send_end, now), sid)

    def on_connect_done(self, now: int, sid: int) -> None:
        slot = self.state.slots.get(sid)
        if slot is None:
            return
        connect_started_at = slot.since
        self.state.note_ready(sid, now)
        self.state.observe_ts(now - connect_started_at)
        self.emit(now, "ready", sid)

    def on_ready_after_dispatch(self, now: int, sid: int) -> None:
        slot = self.state.slots.get(sid)
        if slot is None:
            return
        self.state.observe_ts(now - slot.since)  # in Send since its dispatch
        self.start_streaming(now, sid)

    def on_send_end(self, send_started_at: int, now: int, sid: int) -> None:
        slot = self.state.slots.get(sid)
        if slot is None:
            return
        self.materialize(now)
        self.drainer = None
        rows = self.batch_rows
        dispatched_at = slot.since
        marked = slot.marked_for_abort
        retired = self.state.note_send_ended(sid, rows, now)
        self.emit(now, "send_end", sid, rows)
        if retired:
            # rule 6 is the only deferred abort
            self.emit(now, "retired", sid, 0, ABORT_NO_DATA_CYCLE)
            return
        if marked:
            self.emit(now, "mark_cancelled", sid)
        batch = partial(self.on_commit_done, dispatched_at, send_started_at, rows)
        self.push(now + self.commit_us(rows), batch, sid)

    def on_commit_done(
        self, dispatched_at: int, send_started_at: int, rows: int, now: int, sid: int
    ) -> None:
        slot = self.state.slots.get(sid)
        if slot is None:
            return
        send_ended_at = slot.since  # in Commit since its send end
        self.trace.committed_rows += rows
        self.state.observe_tc(now - send_ended_at)
        self.trace.batches.append(
            BatchStat(sid, dispatched_at, send_started_at, send_ended_at, now, rows)
        )
        self.emit(now, "commit", sid, rows)
        if self.state.note_commit_acked(sid, now):
            self.emit(now, "retired", sid, 0, ABORT_NO_DATA_CYCLE)
            return
        if self.gate:
            self.emit(now, "reconnect", sid)
            self.push(now + self.t_s, self.on_connect_done, sid)
        else:
            self.state.note_ready(sid, now)
            self.emit(now, "ready", sid)

    def finish(self) -> None:
        trace = self.trace
        trace.final_slots = len(self.state.slots)
        # live-pool size at every interval boundary, counting the events
        # at the boundary itself; the events are in time order
        count = k = 0
        for e in trace.events:
            while k * self.t_d < e.t:
                trace.interval_slots.append((k, count))
                k += 1
            count += _POOL_DELTA.get(e.kind, 0)
        for k in range(k, self.duration // self.t_d + 1):
            trace.interval_slots.append((k, count))


def _poisson(rng: random.Random, lam: float) -> int:
    """Seeded Poisson sample; splits large lambda to avoid underflow."""
    total = 0
    while lam > 30.0:
        total += _poisson(rng, lam / 2)
        lam /= 2
    threshold = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return total + k
        k += 1


def run_sim(config: SimConfig) -> SimTrace:
    """Execute one scenario and return its complete trace."""
    return _Sim(config).run()


@dataclass(frozen=True)
class StrategyComparison:
    naive_mean_us: float
    gate_mean_us: float
    naive_batches: int
    gate_batches: int

    @property
    def saved_us(self) -> float:
        return self.naive_mean_us - self.gate_mean_us


def compare_strategies(config: SimConfig) -> StrategyComparison:
    """Run the same scenario under both strategies and compare mean
    dispatch-to-visibility batch latency."""
    naive = run_sim(replace(config, strategy=Strategy.NAIVE))
    gate = run_sim(replace(config, strategy=Strategy.GATE))
    return StrategyComparison(
        naive_mean_us=naive.mean_batch_latency_us(),
        gate_mean_us=gate.mean_batch_latency_us(),
        naive_batches=len(naive.batches),
        gate_batches=len(gate.batches),
    )


_GANTT_CHARS = {
    SlotPhase.CONNECT: "c",
    SlotPhase.WAIT: "w",
    SlotPhase.SEND: "S",
    SlotPhase.COMMIT: "k",
}


# the phase each event kind starts, None for retirement; the other
# kinds start none. Marks of one slot at one instant collapse to the
# last, so a gate slot's dispatched -> send_start reads SEND and a
# naive slot's activated -> ready reads WAIT. A naive slot's dispatch
# opens its transaction, so it reads CONNECT until it streams.
_PHASE_OF: dict[str, SlotPhase | None] = {
    "activated": SlotPhase.CONNECT,
    "reconnect": SlotPhase.CONNECT,
    "ready": SlotPhase.WAIT,
    "dispatched": SlotPhase.CONNECT,
    "send_start": SlotPhase.SEND,
    "send_end": SlotPhase.COMMIT,
    "retired": None,
}


def slot_phases(events: list[TraceEvent]) -> list[tuple[int, int, SlotPhase | None]]:
    """The (slot_id, t, phase) marks of ``events``, in time order: one
    per phase entered, through ``_PHASE_OF``, and where a slot has
    several at one instant, only the last."""
    marks: list[tuple[int, int, SlotPhase | None]] = []
    latest: dict[int, int] = {}  # slot -> index of its latest mark
    for e in events:
        if e.kind not in _PHASE_OF:
            continue
        mark = (e.slot_id, e.t, _PHASE_OF[e.kind])
        i = latest.get(e.slot_id)
        if i is not None and marks[i][1] == e.t:
            marks[i] = mark
        else:
            latest[e.slot_id] = len(marks)
            marks.append(mark)
    return marks


def render_gantt(trace: SimTrace, bucket_ms: int | None = None, max_width: int = 120) -> str:
    """Character timeline of every slot's phases.

    One row per slot, one column per time bucket: ``c`` connecting,
    ``w`` waiting, ``S`` streaming, ``k`` committing, space when the
    slot does not exist, each column the phase ``slot_phases`` gives
    at its start. Deterministic for a given trace.
    """
    if bucket_ms is not None and bucket_ms < 1:
        raise ValueError("bucket_ms must be >= 1")
    duration = trace.config.duration_ms * 1000
    if bucket_ms is None:
        bucket_ms = max(1, -(-trace.config.duration_ms // max_width))
    bucket = bucket_ms * 1000
    columns = -(-duration // bucket)

    # a mark paints every column that starts at or after it, so each
    # column shows the last mark at or before its start
    rows: dict[int, list[str]] = {}
    for slot_id, t, phase in slot_phases(trace.events):
        row = rows.setdefault(slot_id, [" "] * columns)
        first = -(-t // bucket)
        row[first:] = _GANTT_CHARS.get(phase, " ") * (columns - first)
    lines = [
        f"slots over {trace.config.duration_ms} ms, one column = {bucket // 1000} ms "
        f"(c connect, w wait, S send, k commit)"
    ]
    lines.extend(f"slot {slot_id:>3} |{''.join(rows[slot_id])}|" for slot_id in sorted(rows))
    if len(lines) == 1:
        lines.append("(no slots)")
    return "\n".join(lines)
