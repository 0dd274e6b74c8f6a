"""Slot state machine: edge legality, initiator rules, the cycle count,
the instant each phase was entered, the send-span rule, and the
deterministic device routing rule."""

from zlib import crc32

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateflow.scheduler import SchedulerState, TimingParams
from gateflow.slot import (
    Initiator,
    LEGAL_TRANSITIONS,
    PhaseError,
    Slot,
    SlotPhase,
    make_txn_id,
    route_record,
    send_spans,
)


def _initiator_for(src, dst):
    return Initiator.SLOT if (src, dst) == (SlotPhase.SEND, SlotPhase.COMMIT) else Initiator.SCHEDULER


def walk(slot, dsts):
    now = 0
    for dst in dsts:
        now += 10
        slot.transition(dst, _initiator_for(slot.phase, dst), now)


class TestEdges:
    def test_full_loop(self):
        s = Slot(slot_id=1)
        walk(s, [SlotPhase.WAIT, SlotPhase.SEND, SlotPhase.COMMIT, SlotPhase.CONNECT])
        assert s.phase is SlotPhase.CONNECT
        assert s.cycle == 1
        assert [t.dst for t in s.history] == [
            SlotPhase.WAIT, SlotPhase.SEND, SlotPhase.COMMIT, SlotPhase.CONNECT,
        ]

    @pytest.mark.parametrize("src", list(SlotPhase))
    def test_illegal_edges_rejected(self, src):
        for dst in SlotPhase:
            if (src, dst) in LEGAL_TRANSITIONS:
                continue
            s = Slot(slot_id=1, phase=src)
            with pytest.raises(PhaseError):
                s.transition(dst, _initiator_for(src, dst), 1)

    def test_abort_out_of_wait(self):
        s = Slot(slot_id=1)
        walk(s, [SlotPhase.WAIT])
        s.transition(SlotPhase.RETIRED, Initiator.SCHEDULER, 20)
        assert s.retired

    def test_failure_retirement_from_connect_and_send(self):
        s = Slot(slot_id=1)
        s.transition(SlotPhase.RETIRED, Initiator.FAILURE, 5)
        assert s.retired
        s2 = Slot(slot_id=2)
        walk(s2, [SlotPhase.WAIT, SlotPhase.SEND])
        s2.transition(SlotPhase.RETIRED, Initiator.FAILURE, 30)
        assert s2.retired


class TestSince:
    def test_a_fresh_slot_entered_connect_at_its_activation(self):
        state = SchedulerState(TimingParams(t_d_us=100))
        slot = state.slots[state.note_activated(70)]
        assert (slot.phase, slot.since) == (SlotPhase.CONNECT, 70)

    @pytest.mark.parametrize("src,dst", sorted(LEGAL_TRANSITIONS))
    def test_every_edge_sets_since_to_its_now(self, src, dst):
        s = Slot(slot_id=1, phase=src, since=5)
        s.transition(dst, _initiator_for(src, dst), 40)
        assert s.since == 40


class TestInitiators:
    def test_send_to_commit_is_slot_only(self):
        s = Slot(slot_id=1)
        walk(s, [SlotPhase.WAIT, SlotPhase.SEND])
        with pytest.raises(PhaseError):
            s.transition(SlotPhase.COMMIT, Initiator.SCHEDULER, 40)
        s.transition(SlotPhase.COMMIT, Initiator.SLOT, 40)
        assert s.phase is SlotPhase.COMMIT

    def test_other_edges_never_slot_initiated(self):
        s = Slot(slot_id=1)
        with pytest.raises(PhaseError):
            s.transition(SlotPhase.WAIT, Initiator.SLOT, 10)

    def test_history_records_initiators(self):
        s = Slot(slot_id=1)
        walk(s, [SlotPhase.WAIT, SlotPhase.SEND, SlotPhase.COMMIT])
        assert [t.initiator for t in s.history] == [
            Initiator.SCHEDULER, Initiator.SCHEDULER, Initiator.SLOT,
        ]


# brute legality model: from any reachable phase, trying every target
# phase either matches the transition table or raises
@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.sampled_from(list(SlotPhase)), max_size=12))
def test_random_walk_matches_table(steps):
    s = Slot(slot_id=1)
    for dst in steps:
        src = s.phase
        legal = (src, dst) in LEGAL_TRANSITIONS
        try:
            s.transition(dst, _initiator_for(src, dst), 1)
        except PhaseError:
            assert not legal
            assert s.phase is src  # failed transitions change nothing
        else:
            assert legal
            assert s.phase is dst


class TestSendSpans:
    def test_send_then_commit_is_a_span(self):
        marks = [(1, 0, SlotPhase.WAIT), (1, 10, SlotPhase.SEND), (1, 30, SlotPhase.COMMIT)]
        assert send_spans(marks) == [(1, 10, 30)]

    def test_a_trailing_send_is_still_open(self):
        assert send_spans([(1, 0, SlotPhase.WAIT), (1, 10, SlotPhase.SEND)]) == []

    def test_send_then_retired_is_a_span(self):
        # a failure mid-send ends the window too
        assert send_spans([(1, 10, SlotPhase.SEND), (1, 25, SlotPhase.RETIRED)]) == [(1, 10, 25)]
        assert send_spans([(1, 10, SlotPhase.SEND), (1, 25, None)]) == [(1, 10, 25)]

    def test_interleaved_slots_give_one_span_each(self):
        marks = [
            (1, 0, SlotPhase.SEND),
            (2, 5, SlotPhase.WAIT),
            (1, 10, SlotPhase.COMMIT),
            (2, 10, SlotPhase.SEND),
            (1, 15, SlotPhase.CONNECT),
            (2, 20, SlotPhase.COMMIT),
        ]
        assert send_spans(marks) == [(1, 0, 10), (2, 10, 20)]


class TestRouting:
    def test_pinned_assignments(self):
        # frozen crc32 oracle values
        assert route_record("d1", 2) == 0
        assert route_record("d2", 2) == 0
        assert route_record("d3", 2) == 0
        assert route_record("d4", 2) == 1
        assert route_record("dev1", 4) == 1
        assert route_record("sensor-7", 4) == 2

    def test_matches_crc_formula(self):
        for dev in ["a", "bb", "sensor-1", "x9"]:
            for n in (1, 2, 3, 7):
                assert route_record(dev, n) == crc32(dev.encode()) % n

    def test_single_segment(self):
        assert route_record("anything", 1) == 0

    def test_bad_count(self):
        with pytest.raises(ValueError):
            route_record("d", 0)

    @settings(max_examples=100, deadline=None)
    @given(dev=st.text(min_size=1, max_size=30), n=st.integers(1, 16))
    def test_stable_and_in_range(self, dev, n):
        first = route_record(dev, n)
        assert 0 <= first < n
        assert route_record(dev, n) == first


def test_txn_id_format():
    assert make_txn_id("abc123", 4, 7) == "abc123-s4-c7"
    ids = {make_txn_id("n", s, c) for s in range(3) for c in range(3)}
    assert len(ids) == 9
