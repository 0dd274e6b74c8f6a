"""Scheduler decisions: the pool-size formula, sender selection, the
latency model, and tick-level behavior of every tuning rule."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateflow.scheduler import (
    ABORT_IDLE_WAIT,
    ABORT_NO_DATA_CYCLE,
    AbortSlot,
    ActivateSlot,
    DecisionLog,
    DispatchSender,
    SchedulerState,
    Strategy,
    TickRecord,
    TimingParams,
    end_to_end_latency_model,
    logged_tick,
    next_deadline,
    optimal_slots,
    select_sender,
    tick,
)
from gateflow.slot import Initiator, PhaseError, SlotPhase

MS = 1000  # microseconds per millisecond


class TestOptimalSlots:
    def test_headline(self):
        assert optimal_slots(100, 50, 150) == 3

    def test_no_commit_cost(self):
        # any start latency within one interval still needs a second slot
        assert optimal_slots(100, 30, 0) == 2
        assert optimal_slots(100, 100, 0) == 2
        assert optimal_slots(100, 101, 0) == 3

    def test_degenerate_single(self):
        assert optimal_slots(100, 0, 0) == 1

    def test_unit_agnostic(self):
        assert optimal_slots(100_000, 50_000, 150_000) == 3

    def test_float_inputs(self):
        assert optimal_slots(100.0, 50.0, 150.5) == 4

    def test_errors(self):
        with pytest.raises(ValueError):
            optimal_slots(0, 1, 1)
        with pytest.raises(ValueError):
            optimal_slots(-5, 1, 1)
        with pytest.raises(ValueError):
            optimal_slots(10, -1, 0)

    @settings(max_examples=300, deadline=None)
    @given(
        t_d=st.integers(1, 10_000),
        t_s=st.integers(0, 50_000),
        t_c=st.integers(0, 50_000),
    )
    def test_is_exact_ceiling(self, t_d, t_s, t_c):
        n = optimal_slots(t_d, t_s, t_c)
        assert n == math.ceil((t_d + t_s + t_c) / t_d)
        assert (n - 1) * t_d < t_d + t_s + t_c <= n * t_d


class TestSelectSender:
    def test_longest_wait_wins(self):
        assert select_sender([(1, 5), (2, 3)]) == 2

    def test_tie_breaks_to_lowest_id(self):
        assert select_sender([(2, 3), (1, 3)]) == 1

    def test_singleton(self):
        assert select_sender([(7, 9)]) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_sender([])


class TestLatencyModel:
    def test_values(self):
        assert end_to_end_latency_model(Strategy.NAIVE, 100, 50, 150) == 300
        assert end_to_end_latency_model(Strategy.GATE, 100, 50, 150) == 250

    @settings(max_examples=100, deadline=None)
    @given(t_d=st.integers(1, 1000), t_s=st.integers(0, 1000), t_c=st.integers(0, 1000))
    def test_difference_is_exactly_start_latency(self, t_d, t_s, t_c):
        naive = end_to_end_latency_model(Strategy.NAIVE, t_d, t_s, t_c)
        gate = end_to_end_latency_model(Strategy.GATE, t_d, t_s, t_c)
        assert naive - gate == t_s


class TestTimingParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimingParams(t_d_us=0)
        with pytest.raises(ValueError):
            TimingParams(t_d_us=100, dispatch_cycle_us=50)
        with pytest.raises(ValueError):
            TimingParams(t_d_us=100, dispatch_cycle_us=100, max_slots=0)


def mk_state(t_d_ms=100, cycle_ms=1000, max_slots=64):
    return SchedulerState(
        TimingParams(
            t_d_us=t_d_ms * MS,
            dispatch_cycle_us=cycle_ms * MS,
            max_slots=max_slots,
        )
    )


class TestBootstrap:
    def test_first_tick_activates_once(self):
        st_ = mk_state()
        assert tick(st_, 0, pipeline_nonempty=False) == [ActivateSlot(1)]
        # no repeat on the next tick: the pool is still empty but the
        # bootstrap fired already; growth now needs data
        assert tick(st_, 10 * MS, pipeline_nonempty=False) == []

    def test_no_bootstrap_when_preloaded(self):
        st_ = mk_state()
        st_.note_activated(0)
        assert tick(st_, 0, pipeline_nonempty=False) == []


class TestGrowth:
    def test_grow_needs_data_and_no_sender(self):
        st_ = mk_state()
        sid = st_.note_activated(0)
        st_.note_ready(sid, 0)
        assert tick(st_, 0, False) == [DispatchSender(sid)]
        st_.note_send_ended(sid, rows=10, now=100 * MS)
        # nobody sending, data waiting, spacing satisfied
        acts = tick(st_, 200 * MS, pipeline_nonempty=True)
        assert ActivateSlot(2) in acts

    def test_no_growth_without_data(self):
        st_ = mk_state()
        sid = st_.note_activated(0)
        st_.note_ready(sid, 0)
        tick(st_, 0, False)
        st_.note_send_ended(sid, rows=0, now=100 * MS)
        assert tick(st_, 200 * MS, pipeline_nonempty=False) == []

    def test_no_growth_while_sending(self):
        st_ = mk_state()
        sid = st_.note_activated(0)
        st_.note_ready(sid, 0)
        actions = tick(st_, 0, False)
        assert DispatchSender(sid) in actions
        assert tick(st_, 50 * MS, pipeline_nonempty=True) == []

    def test_spacing_rule_blocks_back_to_back_growth(self):
        st_ = mk_state()
        st_.ticked_once = True
        sid = st_.note_activated(150 * MS)
        st_.note_ready(sid, 150 * MS)
        st_.note_dispatched(sid, 160 * MS)
        st_.note_send_ended(sid, 5, 170 * MS)  # send cut short
        # only 90 ms since activation: blocked
        assert tick(st_, 240 * MS, True) == []
        # wait out the interval: the block lifts
        acts = tick(st_, 260 * MS, True)
        assert ActivateSlot(2) in acts

    def test_previous_slot_must_send_before_growth(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 0)
        st_.note_send_ended(a, 5, 100 * MS)
        b = st_.note_activated(100 * MS)  # still connecting
        assert tick(st_, 300 * MS, True) == []
        st_.note_ready(b, 310 * MS)
        st_.note_dispatched(b, 320 * MS)
        st_.note_send_ended(b, 5, 420 * MS)
        acts = tick(st_, 430 * MS, True)
        assert ActivateSlot(3) in acts

    def test_retired_last_slot_unblocks_growth(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 0)
        b = st_.note_activated(100 * MS)
        st_.note_retired(b, 150 * MS)  # late slot dies before sending
        st_.note_send_ended(a, 5, 200 * MS)
        acts = tick(st_, 300 * MS, True)
        assert ActivateSlot(3) in acts

    @pytest.mark.parametrize("reason", [ABORT_IDLE_WAIT, ABORT_NO_DATA_CYCLE])
    def test_unsent_last_slot_trim_grows_in_the_same_tick(self, reason):
        # rule 4 reads the pool as it stands: once this tick trims the
        # last activated slot, which never sent, nothing blocks growth,
        # and rows wait while no slot sends
        st_ = mk_state(cycle_ms=1000)
        st_.ticked_once = True
        a = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 0)
        b = st_.note_activated(0)
        if reason == ABORT_IDLE_WAIT:
            st_.note_ready(b, 60 * MS)
            now = 160 * MS + 1  # b's wait passes t_d
        else:
            now = 1000 * MS  # b, still connecting, moved no rows all cycle
        st_.note_send_ended(a, 5, now)
        c = b + 1
        assert tick(st_, now, True) == [AbortSlot(b, reason), ActivateSlot(c)]
        assert st_.slots[c].phase is SlotPhase.CONNECT

    def test_max_slots_cap(self):
        st_ = mk_state(max_slots=2)
        st_.ticked_once = True
        a = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 0)
        st_.note_send_ended(a, 5, 100 * MS)
        b = st_.note_activated(100 * MS)
        st_.note_ready(b, 105 * MS)
        st_.note_dispatched(b, 110 * MS)
        st_.note_send_ended(b, 5, 210 * MS)
        assert tick(st_, 400 * MS, True) == []


class TestDispatch:
    def test_longest_waiting_dispatched(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        st_.note_ready(b, 30 * MS)
        st_.note_ready(a, 50 * MS)
        assert tick(st_, 60 * MS, False) == [DispatchSender(b)]

    def test_no_dispatch_while_sender_active(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_ready(b, 0)
        st_.note_dispatched(a, 10 * MS)
        assert tick(st_, 20 * MS, False) == []

    def test_dispatch_takes_priority_over_growth(self):
        # a freed waiter gets the window; the pool must not also grow
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 0)
        st_.note_send_ended(a, 5, 100 * MS)
        b = st_.note_activated(100 * MS)
        st_.note_ready(b, 150 * MS)
        acts = tick(st_, 240 * MS, True)
        assert acts == [DispatchSender(b)]


class TestTickAppliesItsDecisions:
    """tick records a dispatch and an activation as it decides them:
    an engine only carries them out."""

    def test_dispatch_moves_the_sender_into_send(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_ready(b, 5 * MS)
        assert tick(st_, 10 * MS, False) == [DispatchSender(a)]
        assert st_.slots[a].phase is SlotPhase.SEND
        assert st_.current_sender == a
        # a second tick at the same instant finds the window taken
        assert tick(st_, 10 * MS, False) == []
        assert st_.slots[b].phase is SlotPhase.WAIT

    @pytest.mark.parametrize("preloaded", [False, True])
    def test_activation_names_a_connecting_slot(self, preloaded):
        # rule 1 on a fresh pool, or growth behind a slot that has sent
        st_ = mk_state()
        now = 0
        if preloaded:
            st_.ticked_once = True
            a = st_.note_activated(0)
            st_.note_ready(a, 0)
            st_.note_dispatched(a, 0)
            st_.note_send_ended(a, 5, 100 * MS)
            now = 200 * MS
        [action] = tick(st_, now, True)
        assert isinstance(action, ActivateSlot)
        slot = st_.slots[action.slot_id]
        assert slot.phase is SlotPhase.CONNECT and slot.activated_at == now
        assert action.slot_id == st_.next_slot_id - 1


class TestIdleWaitTrim:
    def test_overdue_waiter_aborted(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 10 * MS)
        st_.note_ready(b, 20 * MS)
        acts = tick(st_, 121 * MS, False)
        assert acts == [AbortSlot(b, ABORT_IDLE_WAIT)]

    def test_exactly_one_interval_is_not_overdue(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 10 * MS)
        st_.note_ready(b, 20 * MS)
        assert tick(st_, 120 * MS, False) == []  # wait == t_d exactly

    def test_sole_slot_never_idle_aborted(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        st_.note_ready(a, 0)
        # overdue but alone: protected, and dispatched instead
        acts = tick(st_, 500 * MS, False)
        assert acts == [DispatchSender(a)]

    def test_one_victim_per_tick(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        c = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 5 * MS)
        st_.note_ready(b, 10 * MS)
        st_.note_ready(c, 20 * MS)
        acts = tick(st_, 200 * MS, False)
        aborts = [x for x in acts if isinstance(x, AbortSlot)]
        assert aborts == [AbortSlot(b, ABORT_IDLE_WAIT)]  # earliest waiter

    def test_earliest_wait_tie_breaks_to_lowest_id(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        c = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 5 * MS)
        st_.note_ready(c, 10 * MS)
        st_.note_ready(b, 10 * MS)
        acts = tick(st_, 200 * MS, False)
        assert AbortSlot(b, ABORT_IDLE_WAIT) in acts


def three_waiting_behind_a_sender(st_):
    """a sends since 10 ms; b waits since 20 ms and c since 30 ms."""
    st_.ticked_once = True
    a, b, c = (st_.note_activated(0) for _ in range(3))
    st_.note_ready(a, 0)
    st_.note_dispatched(a, 10 * MS)
    st_.note_ready(b, 20 * MS)
    st_.note_ready(c, 30 * MS)
    return a, b, c


class TestIdleWaitFloor:
    # t_d 100 ms, t_s 150 ms, t_c 50 ms: ceil(300 / 100) = 3 slots
    def test_no_trim_at_the_estimated_size(self):
        st_ = mk_state(cycle_ms=10_000)
        st_.observe_ts(150 * MS)
        st_.observe_tc(50 * MS)
        three_waiting_behind_a_sender(st_)
        assert st_.estimated_optimal() == 3
        assert tick(st_, 500 * MS, False) == []
        assert next_deadline(st_, 500 * MS, False) == 10_000 * MS

    def test_trims_down_to_the_estimated_size(self):
        st_ = mk_state(cycle_ms=10_000)
        st_.observe_ts(50 * MS)
        st_.observe_tc(50 * MS)
        _, b, c = three_waiting_behind_a_sender(st_)
        assert st_.estimated_optimal() == 2
        assert tick(st_, 200 * MS, False) == [AbortSlot(b, ABORT_IDLE_WAIT)]
        assert tick(st_, 300 * MS, False) == []  # c is spared at 2

    @pytest.mark.parametrize("observe", ["observe_ts", "observe_tc"])
    def test_one_estimate_alone_sets_no_floor(self, observe):
        st_ = mk_state(cycle_ms=10_000)
        getattr(st_, observe)(1000 * MS)
        _, b, _ = three_waiting_behind_a_sender(st_)
        assert tick(st_, 200 * MS, False) == [AbortSlot(b, ABORT_IDLE_WAIT)]


class TestIdleCycleTrim:
    def test_zero_row_slot_aborted_at_boundary(self):
        st_ = mk_state(cycle_ms=1000)
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        tick(st_, 0, False)  # opens the cycle at t=0
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 0)
        st_.note_send_ended(a, 500, 100 * MS)
        # b stays in connect all cycle with zero rows
        acts = tick(st_, 1000 * MS, False)
        assert AbortSlot(b, ABORT_NO_DATA_CYCLE) in acts

    def test_rows_this_cycle_protect(self):
        st_ = mk_state(cycle_ms=1000)
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        tick(st_, 0, False)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 0)
        st_.note_send_ended(a, 500, 100 * MS)
        st_.note_ready(b, 110 * MS)
        st_.note_dispatched(b, 120 * MS)
        st_.note_send_ended(b, 1, 220 * MS)
        acts = tick(st_, 1000 * MS, False)
        assert not any(isinstance(x, AbortSlot) for x in acts)

    def test_mid_cycle_arrival_exempt(self):
        st_ = mk_state(cycle_ms=1000)
        a = st_.note_activated(0)
        tick(st_, 0, False)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 0)
        st_.note_send_ended(a, 9, 100 * MS)
        b = st_.note_activated(500 * MS)  # joined halfway through
        acts = tick(st_, 1000 * MS, False)
        assert not any(
            isinstance(x, AbortSlot) and x.slot_id == b for x in acts
        )

    def test_active_sender_gets_deferred_abort(self):
        st_ = mk_state(cycle_ms=1000)
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        tick(st_, 0, False)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 0)
        st_.note_send_ended(a, 9, 100 * MS)
        st_.note_ready(b, 900 * MS)
        st_.note_dispatched(b, 950 * MS)  # in flight at the boundary
        acts = tick(st_, 1000 * MS, False)
        assert AbortSlot(b, ABORT_NO_DATA_CYCLE, deferred=True) in acts

    def test_sole_slot_gets_deferred_abort(self):
        st_ = mk_state(cycle_ms=1000)
        a = st_.note_activated(0)
        tick(st_, 0, False)
        st_.note_ready(a, 0)
        acts = tick(st_, 1000 * MS, False)
        deferred = [x for x in acts if isinstance(x, AbortSlot)]
        assert deferred == [AbortSlot(a, ABORT_NO_DATA_CYCLE, deferred=True)]

    def test_row_counters_reset_across_boundary(self):
        st_ = mk_state(cycle_ms=1000)
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        tick(st_, 0, False)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 0)
        st_.note_send_ended(a, 500, 100 * MS)
        st_.note_ready(b, 110 * MS)
        st_.note_dispatched(b, 120 * MS)
        st_.note_send_ended(b, 3, 220 * MS)
        assert not any(
            isinstance(x, AbortSlot) for x in tick(st_, 1000 * MS, False)
        )
        # neither moved rows in cycle two; both sit in the commit phase
        # so the boundary defers rather than yanks them
        acts = tick(st_, 2000 * MS, False)
        assert acts == [
            AbortSlot(a, ABORT_NO_DATA_CYCLE, deferred=True),
            AbortSlot(b, ABORT_NO_DATA_CYCLE, deferred=True),
        ]


class TestAbortBookkeeping:
    """tick records its own aborts; send end and commit ack resolve a
    deferred one."""

    def marked_sender(self):
        # a lone sender in flight at the cycle boundary gets a mark
        st_ = mk_state(cycle_ms=1000)
        a = st_.note_activated(0)
        tick(st_, 0, False)
        st_.note_ready(a, 900 * MS)
        st_.note_dispatched(a, 900 * MS)
        assert tick(st_, 1000 * MS, False) == [
            AbortSlot(a, ABORT_NO_DATA_CYCLE, deferred=True)
        ]
        assert st_.slots[a].marked_for_abort
        return st_, a

    def test_immediate_abort_retires_at_decision(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 10 * MS)
        st_.note_ready(b, 20 * MS)
        assert tick(st_, 121 * MS, False) == [AbortSlot(b, ABORT_IDLE_WAIT)]
        assert set(st_.slots) == {a} and st_.aborts_total == 1

    def test_rows_cancel_the_mark(self):
        st_, a = self.marked_sender()
        assert st_.note_send_ended(a, 5, 1000 * MS) is False
        assert not st_.slots[a].marked_for_abort
        assert st_.note_commit_acked(a, 1100 * MS) is False
        assert a in st_.slots and st_.aborts_total == 0

    def test_empty_batch_retires_at_send_end(self):
        st_, a = self.marked_sender()
        assert st_.note_send_ended(a, 0, 1000 * MS) is True
        assert a not in st_.slots and st_.current_sender is None
        assert st_.aborts_total == 1

    def test_mark_taken_in_commit_retires_at_ack(self):
        st_ = mk_state(cycle_ms=1000)
        a = st_.note_activated(0)
        tick(st_, 0, False)
        st_.note_ready(a, 900 * MS)
        st_.note_dispatched(a, 900 * MS)
        st_.note_send_ended(a, 0, 950 * MS)  # rows from the old cycle only
        tick(st_, 1000 * MS, False)
        assert st_.slots[a].marked_for_abort
        assert st_.note_commit_acked(a, 1050 * MS) is True
        assert a not in st_.slots and st_.aborts_total == 1

    def test_failure_retires_through_note_retired(self):
        st_, a = self.marked_sender()
        st_.note_retired(a, 1010 * MS)
        assert a not in st_.slots and st_.current_sender is None
        assert st_.aborts_total == 1


class TestReportsMoveTheSlot:
    """Each report moves the slot's one record through the transition
    checks, so an engine that reports out of order is stopped."""

    def test_dispatch_of_a_connecting_slot_is_illegal(self):
        st_ = mk_state()
        a = st_.note_activated(0)
        with pytest.raises(PhaseError):
            st_.note_dispatched(a, 10 * MS)
        assert st_.slots[a].phase is SlotPhase.CONNECT
        assert st_.current_sender is None

    def test_send_end_of_a_waiting_slot_is_illegal(self):
        st_ = mk_state()
        a = st_.note_activated(0)
        st_.note_ready(a, 10 * MS)
        with pytest.raises(PhaseError):
            st_.note_send_ended(a, 5, 20 * MS)
        assert st_.slots[a].phase is SlotPhase.WAIT

    def test_history_carries_every_edge_and_initiator(self):
        st_ = mk_state()
        a = st_.note_activated(0)
        slot = st_.slots[a]
        st_.note_ready(a, 10 * MS)
        st_.note_dispatched(a, 20 * MS)
        st_.note_send_ended(a, 5, 120 * MS)
        st_.note_commit_acked(a, 150 * MS)
        st_.note_retired(a, 160 * MS)
        assert [(t.src, t.dst, t.initiator, t.at) for t in slot.history] == [
            (SlotPhase.CONNECT, SlotPhase.WAIT, Initiator.SCHEDULER, 10 * MS),
            (SlotPhase.WAIT, SlotPhase.SEND, Initiator.SCHEDULER, 20 * MS),
            (SlotPhase.SEND, SlotPhase.COMMIT, Initiator.SLOT, 120 * MS),
            (SlotPhase.COMMIT, SlotPhase.CONNECT, Initiator.SCHEDULER, 150 * MS),
            (SlotPhase.CONNECT, SlotPhase.RETIRED, Initiator.FAILURE, 160 * MS),
        ]
        assert slot.cycle == 1 and slot.retired

    def test_marked_commit_ack_retires_straight_out_of_commit(self):
        st_ = mk_state(cycle_ms=1000)
        a = st_.note_activated(0)
        slot = st_.slots[a]
        tick(st_, 0, False)
        st_.note_ready(a, 900 * MS)
        st_.note_dispatched(a, 900 * MS)
        st_.note_send_ended(a, 0, 950 * MS)
        tick(st_, 1000 * MS, False)
        assert st_.note_commit_acked(a, 1050 * MS) is True
        last = slot.history[-1]
        assert (last.src, last.dst, last.initiator) == (
            SlotPhase.COMMIT, SlotPhase.RETIRED, Initiator.SCHEDULER,
        )
        assert slot.cycle == 0

    def test_immediate_abort_is_stamped_at_the_decision(self):
        st_ = mk_state()
        st_.ticked_once = True
        a = st_.note_activated(0)
        b = st_.note_activated(0)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 10 * MS)
        st_.note_ready(b, 20 * MS)
        slot = st_.slots[b]
        tick(st_, 121 * MS, False)
        last = slot.history[-1]
        assert (last.src, last.dst, last.initiator, last.at) == (
            SlotPhase.WAIT, SlotPhase.RETIRED, Initiator.SCHEDULER, 121 * MS,
        )

    def test_shutdown_retirement_is_not_a_failure(self):
        log = DecisionLog()
        params = TimingParams(t_d_us=100 * MS, dispatch_cycle_us=1000 * MS)
        st_ = SchedulerState(params, log=log)
        a = st_.note_activated(0)
        slot = st_.slots[a]
        st_.note_retired(a, 10 * MS, Initiator.SCHEDULER)
        assert slot.history[-1].initiator is Initiator.SCHEDULER
        log.replay(params)  # the journaled report replays, initiator and all


class TestDecisionReplay:
    def test_replay_reproduces_actions(self):
        log = DecisionLog()
        params = TimingParams(t_d_us=100 * MS, dispatch_cycle_us=1000 * MS)
        st_ = SchedulerState(params, log=log)
        acts = logged_tick(st_, 0, False)
        assert acts == [ActivateSlot(1)]
        a = acts[0].slot_id
        st_.note_ready(a, 50 * MS)
        assert logged_tick(st_, 50 * MS, True) == [DispatchSender(a)]
        logged_tick(st_, 100 * MS, True)
        st_.note_send_ended(a, 7, 150 * MS)
        logged_tick(st_, 200 * MS, True)
        assert log.replay(params) == 4

    def test_replay_drives_the_estimates_the_floor_reads(self):
        log = DecisionLog()
        params = TimingParams(t_d_us=100 * MS, dispatch_cycle_us=10_000 * MS)
        st_ = SchedulerState(params, log=log)
        st_.observe_ts(150 * MS)
        st_.observe_tc(50 * MS)
        three_waiting_behind_a_sender(st_)
        # b has waited 180 ms, but the pool is at its estimated size
        assert logged_tick(st_, 200 * MS, False) == []
        assert log.replay(params) == 1
        # without the samples the replayed state has no floor and trims b
        log.entries = [
            e for e in log.entries if isinstance(e, TickRecord) or not e[0].startswith("observe_")
        ]
        with pytest.raises(AssertionError, match="replay diverged at t=200000"):
            log.replay(params)

    def test_tampered_log_detected(self):
        log = DecisionLog()
        params = TimingParams(t_d_us=100 * MS, dispatch_cycle_us=1000 * MS)
        st_ = SchedulerState(params, log=log)
        logged_tick(st_, 0, False)
        for i, entry in enumerate(log.entries):
            if hasattr(entry, "actions"):
                log.entries[i] = type(entry)(entry.now, entry.pipeline_nonempty, ())
        with pytest.raises(AssertionError):
            log.replay(params)


def sending_pair():
    """Slot a sends since 10 ms; slot b waits since 20 ms."""
    st_ = mk_state(cycle_ms=10_000)
    st_.ticked_once = True
    a = st_.note_activated(0)
    b = st_.note_activated(0)
    st_.note_ready(a, 0)
    st_.note_dispatched(a, 10 * MS)
    st_.note_ready(b, 20 * MS)
    return st_, a, b


class TestNextDeadline:
    def test_rule_6_gives_the_cycle_boundary(self):
        st_ = mk_state(cycle_ms=1000)
        a = st_.note_activated(0)
        tick(st_, 0, False)
        st_.note_ready(a, 0)
        st_.note_dispatched(a, 0)
        assert next_deadline(st_, 0, True) == 1000 * MS
        st_.note_send_ended(a, 0, 100 * MS)
        st_.note_commit_acked(a, 150 * MS)
        # a boundary tick moves the cycle on
        tick(st_, 1000 * MS, False)
        assert next_deadline(st_, 1000 * MS, False) == 2000 * MS

    def test_rule_5_gives_the_oldest_waiter_past_t_d(self):
        st_, a, b = sending_pair()
        c = st_.note_activated(0)
        st_.note_ready(c, 30 * MS)
        # b's wait is the first to pass t_d, by one microsecond
        assert next_deadline(st_, 30 * MS, False) == 120 * MS + 1
        assert tick(st_, 120 * MS, False) == []
        assert tick(st_, 120 * MS + 1, False) == [AbortSlot(b, ABORT_IDLE_WAIT)]
        assert next_deadline(st_, 120 * MS + 1, False) == 130 * MS + 1  # now c's

    def test_a_second_overdue_waiter_is_due_at_once(self):
        # rule 5 trims one waiter per tick: the other, already overdue,
        # is due right after now, never at a past instant
        st_, a, b = sending_pair()
        c = st_.note_activated(0)
        st_.note_ready(c, 30 * MS)
        assert tick(st_, 200 * MS, False) == [AbortSlot(b, ABORT_IDLE_WAIT)]
        assert next_deadline(st_, 200 * MS, False) == 200 * MS + 1
        assert tick(st_, 200 * MS + 1, False) == [AbortSlot(c, ABORT_IDLE_WAIT)]

    def test_rule_5_ignores_marked_slots(self):
        st_, a, b = sending_pair()
        st_.slots[b].marked_for_abort = True
        assert next_deadline(st_, 30 * MS, False) == 10_000 * MS

    def test_rule_5_ignores_a_lone_slot(self):
        st_ = mk_state(cycle_ms=10_000)
        st_.ticked_once = True
        a = st_.note_activated(0)
        st_.note_ready(a, 0)
        assert next_deadline(st_, 0, False) == 10_000 * MS
        assert tick(st_, 500 * MS, False) == [DispatchSender(a)]  # never trimmed

    def rule_3_state(self):
        """a's send ended at 170 ms, a slot activated at 150 ms."""
        st_ = mk_state(cycle_ms=10_000)
        st_.ticked_once = True
        a = st_.note_activated(150 * MS)
        st_.note_ready(a, 150 * MS)
        st_.note_dispatched(a, 160 * MS)
        st_.note_send_ended(a, 5, 170 * MS)
        return st_, a

    def test_rule_3_gives_the_end_of_the_growth_spacing(self):
        st_, _ = self.rule_3_state()
        assert next_deadline(st_, 170 * MS, True) == 250 * MS
        assert tick(st_, 249 * MS, True) == []
        assert tick(st_, 250 * MS, True) == [ActivateSlot(2)]

    def test_rule_3_only_while_data_waits_and_no_sender_is_live(self):
        st_, a = self.rule_3_state()
        assert next_deadline(st_, 170 * MS, False) == 10_000 * MS  # no data
        st_.note_commit_acked(a, 180 * MS)
        st_.note_ready(a, 190 * MS)
        st_.note_dispatched(a, 190 * MS)
        assert next_deadline(st_, 190 * MS, True) == 10_000 * MS  # a sends

    def test_rule_3_waits_on_rule_4_and_the_cap_without_a_timer(self):
        # a growth that rule 4 or max_slots blocks can only unblock on
        # a report: a deadline in the past would make an engine spin
        st_, _ = self.rule_3_state()
        b = st_.note_activated(170 * MS)  # still connecting
        assert tick(st_, 400 * MS, True) == []
        assert next_deadline(st_, 400 * MS, True) == 10_000 * MS
        st_.note_retired(b, 410 * MS)
        st_.params.max_slots = 1
        assert next_deadline(st_, 410 * MS, True) == 10_000 * MS

    def test_nothing_due_when_idle(self):
        st_ = mk_state()
        assert next_deadline(st_, 0, True) is None  # before the first tick
        assert tick(st_, 0, False) == [ActivateSlot(1)]
        st_.note_retired(1, 5 * MS)
        # no slot, and no data for the pool to grow for
        assert next_deadline(st_, 5 * MS, False) is None
        assert next_deadline(st_, 5 * MS, True) == 100 * MS

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 150 * MS), st.booleans()),
            max_size=60,
        )
    )
    def test_deadline_is_after_now_and_nothing_acts_before_it(self, steps):
        # random legal runs: after every tick the deadline lies
        # strictly after now, and a tick at any earlier instant, with
        # no report, emits nothing
        st_ = mk_state(cycle_ms=300, max_slots=4)
        now = 0
        for op, dt, flag in steps:
            now += dt
            phases = {sid: s.phase for sid, s in st_.slots.items()}

            def first(phase):
                return next((sid for sid, p in phases.items() if p is phase), None)

            if op == 0:
                tick(st_, now, flag)
                due = next_deadline(st_, now, flag)
                if due is not None:
                    assert due > now
                probe = now + 3_600_000 * MS if due is None else due - 1
                if probe > now:
                    assert tick(copy.deepcopy(st_), probe, flag) == []
            elif op == 1 and first(SlotPhase.CONNECT) is not None:
                st_.note_ready(first(SlotPhase.CONNECT), now)
            elif op == 2 and first(SlotPhase.SEND) is not None:
                st_.note_send_ended(first(SlotPhase.SEND), 5 if flag else 0, now)
            elif op == 3 and first(SlotPhase.COMMIT) is not None:
                st_.note_commit_acked(first(SlotPhase.COMMIT), now)
            elif op == 4 and st_.slots:
                st_.note_retired(min(st_.slots), now)


class TestEstimates:
    def test_ewma_tracks_samples(self):
        st_ = mk_state()
        st_.observe_ts(50 * MS)
        assert st_.est_ts_us == 50 * MS
        st_.observe_tc(150 * MS)
        for _ in range(100):
            st_.observe_ts(80 * MS)
            st_.observe_tc(100 * MS)
        assert abs(st_.est_ts_us - 80 * MS) < MS
        assert abs(st_.est_tc_us - 100 * MS) < MS
        assert st_.estimated_optimal() == optimal_slots(
            st_.params.t_d_us, st_.est_ts_us, st_.est_tc_us
        )

    def test_no_estimate_before_samples(self):
        assert mk_state().estimated_optimal() is None
