"""Slot lifecycle state machine.

A slot owns one transaction at a time against the whole segment set.
Its life is a loop Connect -> Wait -> Send -> Commit -> Connect, left
only by retirement. The scheduler commands every edge except
Send -> Commit, which the slot triggers itself when its collection
interval ends; failure paths (refused connection, dropped socket) may
also retire a slot. Each transition carries its initiator so an audit
trail can prove who moved what. ``SchedulerState`` holds the one
``Slot`` record of each slot, for both engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable
from zlib import crc32


class SlotPhase(str, Enum):
    CONNECT = "connect"
    WAIT = "wait"
    SEND = "send"
    COMMIT = "commit"
    RETIRED = "retired"


class Initiator(str, Enum):
    SCHEDULER = "scheduler"
    SLOT = "slot"
    FAILURE = "failure"


# normal loop edges, scheduler-commanded aborts out of Wait and at the
# commit boundary, plus failure retirement out of Connect and Send
LEGAL_TRANSITIONS: frozenset[tuple[SlotPhase, SlotPhase]] = frozenset(
    {
        (SlotPhase.CONNECT, SlotPhase.WAIT),
        (SlotPhase.WAIT, SlotPhase.SEND),
        (SlotPhase.SEND, SlotPhase.COMMIT),
        (SlotPhase.COMMIT, SlotPhase.CONNECT),
        (SlotPhase.WAIT, SlotPhase.RETIRED),
        (SlotPhase.COMMIT, SlotPhase.RETIRED),
        (SlotPhase.CONNECT, SlotPhase.RETIRED),
        (SlotPhase.SEND, SlotPhase.RETIRED),
    }
)


class PhaseError(RuntimeError):
    """Raised on an illegal phase transition or initiator."""


@dataclass(frozen=True)
class Transition:
    at: int
    slot_id: int
    src: SlotPhase
    dst: SlotPhase
    initiator: Initiator


@dataclass
class Slot:
    """One slot: its phase and ``since``, the instant it entered that
    phase (its activation, then each transition's ``now``), its cycle
    (bumped on every re-entry to Connect, and part of its transaction
    id), the history of its transitions with their initiators, and the
    facts the scheduler's rules read that the phase does not give: the
    activation instant, the rows sent this dispatch cycle and a
    deferred-abort mark. Whether it has ever sent is read from the
    phase: at cycle 0 a slot in Connect or Wait has not. No I/O lives
    here; the runner owns the batch."""

    slot_id: int
    phase: SlotPhase = SlotPhase.CONNECT
    since: int = 0
    cycle: int = 0
    history: list[Transition] = field(default_factory=list)
    activated_at: int = 0
    sent_rows_this_cycle: int = 0
    marked_for_abort: bool = False

    def transition(self, dst: SlotPhase, initiator: Initiator, now: int) -> Transition:
        src = self.phase
        if (src, dst) not in LEGAL_TRANSITIONS:
            raise PhaseError(f"slot {self.slot_id}: illegal transition {src.value} -> {dst.value}")
        if (src, dst) == (SlotPhase.SEND, SlotPhase.COMMIT):
            if initiator is not Initiator.SLOT:
                raise PhaseError("send -> commit must be slot-initiated")
        elif initiator is Initiator.SLOT:
            raise PhaseError(f"{src.value} -> {dst.value} may not be slot-initiated")

        if dst is SlotPhase.CONNECT:
            self.cycle += 1
        self.phase = dst
        self.since = now
        event = Transition(now, self.slot_id, src, dst, initiator)
        self.history.append(event)
        return event

    @property
    def retired(self) -> bool:
        return self.phase is SlotPhase.RETIRED


def send_spans(marks: Iterable[tuple[int, int, SlotPhase | None]]) -> list[tuple[int, int, int]]:
    """(slot_id, start, end) of every send window in ``marks``, the
    (slot_id, at, phase) each slot entered, in time order per slot:
    each SEND mark up to the next mark of the same slot, a COMMIT or,
    on a failure, RETIRED. A SEND with no next mark is still open."""
    spans = []
    open_at: dict[int, int] = {}
    for slot_id, at, phase in marks:
        start = open_at.pop(slot_id, None)
        if start is not None:
            spans.append((slot_id, start, at))
        if phase is SlotPhase.SEND:
            open_at[slot_id] = at
    return spans


def route_record(device_id: str, segment_count: int) -> int:
    """Stable device -> segment assignment: crc32(device) mod count.

    crc32 rather than the builtin hash because the latter is salted per
    process and routing must be reproducible across runs.
    """
    if segment_count < 1:
        raise ValueError("segment_count must be >= 1")
    return crc32(device_id.encode("utf-8")) % segment_count


def make_txn_id(nonce: str, slot_id: int, cycle: int) -> str:
    return f"{nonce}-s{slot_id}-c{cycle}"
