"""Slot-pool scheduler: sizing rule, sender selection, tuning policies.

The pool size that keeps some slot always sending is

    optimal_slots = ceil((t_d + t_c + t_s) / t_d)

where t_d is the collection interval, t_s transaction-start latency and
t_c commit latency. The live engine cannot trust static estimates of
t_s and t_c, so ``tick`` grows and trims the pool with feedback rules
instead and converges to the same number:

  1. a fresh pool starts with exactly one slot
  2. grow when data is waiting and nobody is sending (after trying to
     dispatch an idle slot first)
  3. never grow twice within one interval
  4. never grow while the previously added slot has not sent yet
  5. trim a slot that idles in Wait longer than one interval, while
     the pool is larger than the size the t_s and t_c estimates give
  6. at each dispatch-cycle boundary, trim slots that moved no rows in
     the whole cycle
  7. never retire the last slot before its in-flight send has finished

Abort checks run first within a tick, then dispatch, then growth, so
the decisions a tick emits are a pure function of (state, now, data
pending). ``tick`` applies each decision to the state as it makes it:
it adds an activated slot, moves a dispatched one into Send, retires
a slot on an immediate abort and marks it on a deferred one, the mark
resolved when the slot reports its send end or commit ack. Both the
live engine and the simulator call this exact code and only carry its
decisions out; they move their slots only through the state's
transition-checked reports. ``next_deadline`` gives the instant a timed
rule can next fire, from the same per-rule helpers ``tick`` acts on, so
an engine can tick on reports and deadlines instead of on a fixed grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .slot import Initiator, Slot, SlotPhase

DEFAULT_DISPATCH_CYCLE_MS = 10_000
DEFAULT_MAX_SLOTS = 64
# samples of weight in the t_s / t_c moving averages
EWMA_WINDOW = 8

ABORT_IDLE_WAIT = "idle-wait"
ABORT_NO_DATA_CYCLE = "no-data-cycle"


def optimal_slots(t_d: int | float, t_s: int | float, t_c: int | float) -> int:
    """Smallest pool size whose rotation hides t_s + t_c behind sends.

    Unit-agnostic: pass all three in the same unit. Exact integer
    arithmetic when all arguments are ints.
    """
    if t_d <= 0:
        raise ValueError("t_d must be positive")
    if t_s < 0 or t_c < 0:
        raise ValueError("latencies must be non-negative")
    total = t_d + t_s + t_c
    if isinstance(total, int) and isinstance(t_d, int):
        return -(-total // t_d)
    return math.ceil(total / t_d)


class Strategy(str, Enum):
    NAIVE = "naive"  # transaction start sits between batches
    GATE = "gate"    # transaction pre-opened while waiting


def end_to_end_latency_model(
    strategy: Strategy, t_d: int | float, t_s: int | float, t_c: int | float
) -> int | float:
    """Batch visibility latency from collection start, by strategy."""
    if strategy is Strategy.NAIVE:
        return t_d + t_s + t_c
    return t_d + t_c


def select_sender(waiting: Iterable[tuple[int, int]]) -> int:
    """Pick the next sender among ``(slot_id, since)`` pairs, ``since``
    the instant each slot entered Wait: longest-waiting first, ties to
    the lowest slot id."""
    best = min(waiting, default=None, key=lambda w: (w[1], w[0]))
    if best is None:
        raise ValueError("no waiting slots to select from")
    return best[0]


# -- actions ---------------------------------------------------------


@dataclass(frozen=True)
class ActivateSlot:
    slot_id: int


@dataclass(frozen=True)
class DispatchSender:
    slot_id: int


@dataclass(frozen=True)
class AbortSlot:
    slot_id: int
    reason: str
    # deferred aborts retire the slot at its next send end (cancelled
    # if the send moved rows) or commit ack instead of immediately
    deferred: bool = False


Action = ActivateSlot | DispatchSender | AbortSlot


# -- scheduler state -------------------------------------------------


@dataclass
class TimingParams:
    t_d_us: int
    dispatch_cycle_us: int = DEFAULT_DISPATCH_CYCLE_MS * 1000
    max_slots: int = DEFAULT_MAX_SLOTS

    def __post_init__(self) -> None:
        if self.t_d_us <= 0:
            raise ValueError("t_d_us must be positive")
        if self.dispatch_cycle_us < self.t_d_us:
            raise ValueError("dispatch cycle must be at least one interval")
        if self.max_slots < 1:
            raise ValueError("max_slots must be >= 1")


class SchedulerState:
    """Mutable scheduler bookkeeping, engine-agnostic.

    ``slots`` holds the one ``Slot`` record of every live slot, the
    only record of the slot facts: each slot's phase and the instant it
    entered it. The current sender, the activation and abort totals
    and whether the last activated slot has sent are read from these
    records and ``next_slot_id``, not kept beside them. Engines read
    ``slots`` but move it only through the ``note_*`` reports (ready,
    send ended, commit acked, ``note_retired`` for a failure or
    shutdown), each of which takes its edge through ``Slot.transition``
    and so raises ``PhaseError`` when illegal. ``tick`` activates,
    dispatches and retires slots here itself, as do the two reports
    that resolve a mark; ``note_activated`` is an engine's only for a
    slot it forces in outside any tick, as a pre-warmed pool does.
    Timestamps are microseconds on whatever clock the engine runs.
    When a DecisionLog is attached, every report and latency sample is
    journaled so a run can be replayed against a fresh state to prove
    the decisions were a pure function of the inputs.
    """

    def __init__(self, params: TimingParams, log: "DecisionLog | None" = None) -> None:
        self.params = params
        self.log = log
        self.slots: dict[int, Slot] = {}
        self.ticked_once = False
        self.cycle_started_at = 0
        self.last_activation_at: int | None = None
        self.next_slot_id = 1
        self.est_ts_us: float | None = None
        self.est_tc_us: float | None = None

    def _journal(self, name: str, *args) -> None:
        if self.log is not None:
            self.log.entries.append((name, args))

    @property
    def current_sender(self) -> int | None:
        """The slot in Send, if any: there is at most one."""
        return next((s.slot_id for s in self.slots.values() if s.phase is SlotPhase.SEND), None)

    @property
    def activations_total(self) -> int:
        return self.next_slot_id - 1

    @property
    def aborts_total(self) -> int:
        """Slots retired, for any reason: every slot activated and gone."""
        return self.activations_total - len(self.slots)

    # -- engine reports ----------------------------------------------

    def note_activated(self, now: int) -> int:
        self._journal("note_activated", now)
        slot_id = self.next_slot_id
        self.next_slot_id += 1
        self.slots[slot_id] = Slot(slot_id, since=now, activated_at=now)
        self.last_activation_at = now
        return slot_id

    def note_ready(self, slot_id: int, now: int) -> None:
        self._journal("note_ready", slot_id, now)
        self.slots[slot_id].transition(SlotPhase.WAIT, Initiator.SCHEDULER, now)

    def note_dispatched(self, slot_id: int, now: int) -> None:
        self._journal("note_dispatched", slot_id, now)
        self.slots[slot_id].transition(SlotPhase.SEND, Initiator.SCHEDULER, now)

    def note_send_ended(self, slot_id: int, rows: int, now: int) -> bool:
        """The slot's send window closed with ``rows`` in its batch.

        Resolves a deferred abort: rows void the idle-cycle premise and
        clear the mark, while an empty batch retires the slot without
        paying for its commit. Returns True when the slot was retired.
        """
        self._journal("note_send_ended", slot_id, rows, now)
        slot = self.slots[slot_id]
        slot.transition(SlotPhase.COMMIT, Initiator.SLOT, now)
        slot.sent_rows_this_cycle += rows
        if slot.marked_for_abort:
            if rows == 0:
                self._retire(slot_id, now)
                return True
            slot.marked_for_abort = False
        return False

    def note_commit_acked(self, slot_id: int, now: int) -> bool:
        """The slot's commit landed. A slot still marked retires here,
        straight out of Commit; returns True when it was retired."""
        self._journal("note_commit_acked", slot_id, now)
        slot = self.slots[slot_id]
        if slot.marked_for_abort and slot.phase is SlotPhase.COMMIT:
            self._retire(slot_id, now)
            return True
        slot.transition(SlotPhase.CONNECT, Initiator.SCHEDULER, now)
        return False

    def note_retired(self, slot_id: int, now: int, initiator: Initiator = Initiator.FAILURE) -> None:
        """The slot ended outside any tick decision: a failure, or the
        engine shutting down (SCHEDULER)."""
        self._journal("note_retired", slot_id, now, initiator)
        self._retire(slot_id, now, initiator)

    def _retire(self, slot_id: int, now: int, initiator: Initiator = Initiator.SCHEDULER) -> None:
        self.slots.pop(slot_id).transition(SlotPhase.RETIRED, initiator, now)

    # -- latency estimation -------------------------------------------

    def observe_ts(self, sample_us: int) -> None:
        self._journal("observe_ts", sample_us)
        self.est_ts_us = self._ewma(self.est_ts_us, sample_us)

    def observe_tc(self, sample_us: int) -> None:
        self._journal("observe_tc", sample_us)
        self.est_tc_us = self._ewma(self.est_tc_us, sample_us)

    def _ewma(self, est: float | None, sample: int) -> float:
        if est is None:
            return float(sample)
        return est + (sample - est) / EWMA_WINDOW

    def estimated_optimal(self) -> int | None:
        if self.est_ts_us is None or self.est_tc_us is None:
            return None
        return optimal_slots(self.params.t_d_us, self.est_ts_us, self.est_tc_us)

    def live_count(self) -> int:
        return len(self.slots)


def _idle_trim(state: SchedulerState) -> tuple[Slot, int] | None:
    """Rule 5's candidate and the instant it is due: the unmarked
    waiter that has waited longest, once its wait passes t_d, while
    more than one slot lives (rule 7 guards the last) and, once both
    estimates exist, more than ``estimated_optimal()``. The wait must
    pass t_d strictly: during growth a fresh slot's first wait can
    touch exactly t_d, and trimming at the boundary would undo the
    growth and oscillate instead of converging. The floor keeps the
    formula's pool when t_s > t_d: there the next slot in line waits
    past t_d at every rotation, and trimming it would starve the queue
    until rules 2-4 grow a fresh slot."""
    waiting = [
        info
        for info in state.slots.values()
        if info.phase is SlotPhase.WAIT and not info.marked_for_abort
    ]
    if len(state.slots) <= 1 or not waiting:
        return None
    floor = state.estimated_optimal()
    if floor is not None and len(state.slots) <= floor:
        return None
    victim = min(waiting, key=lambda info: (info.since, info.slot_id))
    return victim, victim.since + state.params.t_d_us + 1


def _growth_at(state: SchedulerState, pipeline_nonempty: bool) -> int | None:
    """The instant from which the pool may grow, or None while it may
    not: rule 2 wants data waiting and no slot sending, rule 4 wants
    the last activated slot, if it lives, to have sent, the pool stays
    within ``max_slots``, and rule 3 spaces growths an interval apart.
    The last activated slot holds the newest id; it has not sent while
    it is still in its first cycle's Connect or Wait."""
    params = state.params
    last = state.slots.get(state.next_slot_id - 1)
    if (
        not pipeline_nonempty
        or state.current_sender is not None
        or len(state.slots) >= params.max_slots
        or (last is not None and last.cycle == 0
            and last.phase in (SlotPhase.CONNECT, SlotPhase.WAIT))
    ):
        return None
    if state.last_activation_at is None:  # no activation to space from
        return state.cycle_started_at
    return state.last_activation_at + params.t_d_us


def tick(state: SchedulerState, now: int, pipeline_nonempty: bool) -> list[Action]:
    """One scheduling decision round. Emits the abort, dispatch and
    activation actions the policy set mandates for this instant, and
    applies each to ``state`` as it decides it, so an engine only
    starts, wakes or tears down its side of the slot an action names."""
    params = state.params
    if not state.ticked_once:
        state.ticked_once = True
        state.cycle_started_at = now
        if not state.slots:
            # rule 1: a fresh pool starts with a single slot
            return [ActivateSlot(state.note_activated(now))]

    actions: list[Action] = []
    live = state.slots

    # rule 6 at dispatch-cycle boundaries: trim slots that moved no
    # rows across the whole finished cycle
    elapsed = now - state.cycle_started_at
    if elapsed >= params.dispatch_cycle_us:
        idle = [
            info
            for info in live.values()
            if info.activated_at <= state.cycle_started_at
            and info.sent_rows_this_cycle == 0
            and not info.marked_for_abort
        ]
        for info in sorted(idle, key=lambda info: info.slot_id):
            if len(live) <= 1 or info.phase in (SlotPhase.SEND, SlotPhase.COMMIT):
                # rule 7: the last slot (and any in-flight send or
                # commit) finishes its current send before retiring
                info.marked_for_abort = True
                actions.append(AbortSlot(info.slot_id, ABORT_NO_DATA_CYCLE, deferred=True))
            else:
                state._retire(info.slot_id, now)
                actions.append(AbortSlot(info.slot_id, ABORT_NO_DATA_CYCLE))
        state.cycle_started_at += (elapsed // params.dispatch_cycle_us) * params.dispatch_cycle_us
        for info in live.values():
            info.sent_rows_this_cycle = 0

    # rule 5: trim one slot stuck in Wait for more than an interval
    trim = _idle_trim(state)
    if trim is not None and now >= trim[1]:
        victim = trim[0].slot_id
        state._retire(victim, now)
        actions.append(AbortSlot(victim, ABORT_IDLE_WAIT))

    # dispatch: hand the send window to the longest-waiting slot
    if state.current_sender is None:
        waiting = [
            (info.slot_id, info.since) for info in live.values() if info.phase is SlotPhase.WAIT
        ]
        if waiting:
            sender = select_sender(waiting)
            state.note_dispatched(sender, now)
            actions.append(DispatchSender(sender))
            return actions

    # rules 2-4, after dispatch so a freed waiter takes the window
    # before the pool grows
    grow_at = _growth_at(state, pipeline_nonempty)
    if grow_at is not None and now >= grow_at:
        actions.append(ActivateSlot(state.note_activated(now)))
    return actions


def next_deadline(state: SchedulerState, now: int, pipeline_nonempty: bool) -> int | None:
    """The earliest instant strictly after ``now`` at which ``tick`` can
    emit an action with no report in between, or None when no timed
    rule is pending. Between reports only the clock moves, so an engine
    that ticks after every report, when the queue fills while no slot
    sends, and at this instant makes every decision a fixed grid of
    ticks would make. Call it after a tick and the reports its actions
    lead to, with that tick's ``now`` and data flag.

      rule 6:    the next dispatch-cycle boundary, while any slot lives
                 (a boundary also restarts the slots' row counts)
      rule 5:    the instant ``_idle_trim`` gives
      rules 2-4: the instant ``_growth_at`` gives
    """
    if not state.ticked_once:
        return None  # the engine's first tick is not a timed one
    due: list[int] = []
    if state.slots:
        due.append(state.cycle_started_at + state.params.dispatch_cycle_us)
    trim = _idle_trim(state)
    if trim is not None:
        due.append(trim[1])
    grow_at = _growth_at(state, pipeline_nonempty)
    if grow_at is not None:
        due.append(grow_at)
    if not due:
        return None
    # a rule already due fires at the next tick: never hand back the past
    return max(min(due), now + 1)


def logged_tick(state: SchedulerState, now: int, pipeline_nonempty: bool) -> list[Action]:
    """``tick`` plus journaling of inputs and emitted actions. What
    ``tick`` records in the state is output, not journaled as a report."""
    log, state.log = state.log, None
    try:
        actions = tick(state, now, pipeline_nonempty)
    finally:
        state.log = log
    if log is not None:
        log.entries.append(TickRecord(now, pipeline_nonempty, tuple(actions)))
    return actions


@dataclass(frozen=True)
class TickRecord:
    now: int
    pipeline_nonempty: bool
    actions: tuple[Action, ...]


class DecisionLog:
    """Journal of scheduler inputs (engine reports and latency
    samples) and tick outcomes; replaying a tick makes its own records.

    ``replay`` re-drives the reports into a fresh state and re-runs
    every tick, asserting the same actions come out: the proof that
    scheduling is a pure function of its declared inputs regardless of
    which engine (live or simulated) produced the journal.
    """

    def __init__(self) -> None:
        self.entries: list = []

    def replay(self, params: TimingParams) -> int:
        state = SchedulerState(params)
        ticks = 0
        for entry in self.entries:
            if isinstance(entry, TickRecord):
                actions = tick(state, entry.now, entry.pipeline_nonempty)
                if tuple(actions) != entry.actions:
                    raise AssertionError(
                        f"replay diverged at t={entry.now}: "
                        f"{actions!r} != {list(entry.actions)!r}"
                    )
                ticks += 1
            else:
                name, args = entry
                getattr(state, name)(*args)
        return ticks
