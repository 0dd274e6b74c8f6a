"""Event-driven scenario tests: determinism, pool convergence, the two
flow-step adaptations, drain and loss-safety behavior, strategy
comparison, timeline rendering, and decision replay."""

import hashlib
import importlib.util
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from gateflow.scheduler import (
    ABORT_IDLE_WAIT,
    ABORT_NO_DATA_CYCLE,
    SchedulerState,
    Strategy,
    TickRecord,
    TimingParams,
    next_deadline,
    optimal_slots,
    tick,
)
from gateflow.simulator import (
    SimConfig,
    SimTrace,
    TraceEvent,
    compare_strategies,
    render_gantt,
    run_sim,
    slot_phases,
)
from gateflow.slot import SlotPhase

HEADLINE = dict(t_d_ms=100, t_s_ms=50, commit_fixed_ms=150, tick_ms=1)


def load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the churn grid and its bound, which CI also runs as a script
pool_churn = load_script("pool_churn")


def slot_counts(trace):
    return [c for _, c in trace.interval_slots]


def wait_residences(trace):
    """(dispatch time, slot, wait duration) for every dispatch."""
    ready_at, out = {}, []
    for e in trace.events:
        if e.kind == "ready":
            ready_at[e.slot_id] = e.t
        elif e.kind == "dispatched" and e.slot_id in ready_at:
            out.append((e.t, e.slot_id, e.t - ready_at.pop(e.slot_id)))
    return out


class TestDeterminism:
    def test_identical_config_identical_trace(self):
        cfg = SimConfig(arrival=((0, 1300),), duration_ms=4000, **HEADLINE)
        assert run_sim(cfg).digest() == run_sim(cfg).digest()

    def test_poisson_is_seeded(self):
        cfg = SimConfig(
            arrival=((0, 1300),), duration_ms=4000, seed=7, poisson=True, **HEADLINE
        )
        assert run_sim(cfg).digest() == run_sim(cfg).digest()
        other = SimConfig(
            arrival=((0, 1300),), duration_ms=4000, seed=8, poisson=True, **HEADLINE
        )
        assert run_sim(cfg).digest() != run_sim(other).digest()

    def test_json_round_trip(self):
        cfg = SimConfig(arrival=((0, 500),), duration_ms=2000, **HEADLINE)
        trace = run_sim(cfg)
        again = SimTrace.from_json(trace.to_json())
        assert again.digest() == trace.digest()
        assert again.config == cfg

    @pytest.mark.parametrize(
        "field, index, value",
        [
            ("events", (0, 0), "a"),  # a time
            ("events", (0, 2), "x"),  # a slot id
            ("events", (0, 3), True),  # a detail: a bool is no int
            ("events", (0, 1), 5),  # a kind
            ("events", (0, 4), None),  # a reason
            ("batches", (0, 5), 2.5),
            ("interval_slots", (0, 1), "1"),
            ("interval_slots", (0,), [0]),  # not a pair
            ("starved_ticks", (), ["a"]),
            ("arrived_rows", (), "1"),
            ("committed_rows", (), 1.0),
            ("final_slots", (), False),
        ],
        ids=["event-time", "event-slot", "event-detail", "event-kind", "event-reason",
             "batch", "interval-count", "interval-pair", "starved-tick", "arrived-rows",
             "committed-rows", "final-slots"],
    )
    def test_from_json_rejects_wrong_value_types(self, field, index, value):
        data = json.loads(run_sim(SimConfig(duration_ms=500, **HEADLINE)).to_json())
        if index:
            target = data[field]
            for i in index[:-1]:
                target = target[i]
            target[index[-1]] = value
        else:
            data[field] = value
        with pytest.raises(ValueError, match="^malformed trace: "):
            SimTrace.from_json(json.dumps(data))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(t_d_ms=0)
        with pytest.raises(ValueError):
            SimConfig(arrival=())
        with pytest.raises(ValueError):
            SimConfig(arrival=((5, 100),))  # must start at t=0
        with pytest.raises(ValueError):
            SimConfig(arrival=((0, 100), (0, 200)))
        with pytest.raises(ValueError):
            SimConfig(arrival=((0, -1),))
        with pytest.raises(ValueError):
            SimConfig(initial_slots=99, max_slots=4)
        with pytest.raises(ValueError, match="tick_ms"):
            SimConfig(tick_ms=None)


class TestPoolConvergence:
    def test_headline_reaches_three_within_five_intervals(self):
        trace = run_sim(
            SimConfig(arrival=((0, 2000),), duration_ms=3000, **HEADLINE)
        )
        counts = slot_counts(trace)
        assert counts[:6] == [1, 1, 2, 2, 3, 3]
        assert all(c == 3 for c in counts[4:])
        assert optimal_slots(100, 50, 150) == 3

    def test_growth_never_overshoots(self):
        trace = run_sim(
            SimConfig(arrival=((0, 2000),), duration_ms=3000, **HEADLINE)
        )
        assert max(slot_counts(trace)) == 3

    def test_random_triples_converge_exactly(self):
        rng = random.Random(20260815)
        for _ in range(8):
            t_d = rng.randrange(20, 201)
            t_s = rng.randrange(0, 301)
            t_c = rng.randrange(0, 801)
            target_size = optimal_slots(t_d, t_s, t_c)
            duration = (t_d + t_s + t_c) * (target_size + 6) + 15 * t_d
            trace = run_sim(
                SimConfig(
                    t_d_ms=t_d, t_s_ms=t_s, commit_fixed_ms=t_c,
                    arrival=((0, 5000),), duration_ms=duration, tick_ms=1,
                )
            )
            counts = slot_counts(trace)
            first = next(i for i, c in enumerate(counts) if c == target_size)
            assert all(c == target_size for c in counts[first:]), (t_d, t_s, t_c)


class TestNoChurnAtFormulaSize:
    # t_s from just over half to over twice t_d: once t_s > t_d the next
    # slot in line waits past t_d at every rotation, and a rule 5 that
    # trimmed it anyway made 46-89 activations per case instead of
    # settling. Every cell runs on the 1 ms tick grid
    GRID = [(t_s, rate) for t_s in pool_churn.T_S_MS for rate in pool_churn.RATES]

    @pytest.mark.parametrize("t_s_ms, rate", GRID)
    def test_pool_settles_in_a_few_activations(self, t_s_ms, rate):
        activations, _, _, _ = pool_churn.run_case(t_s_ms, rate)
        assert activations <= pool_churn.MAX_ACTIVATIONS

    @pytest.mark.parametrize("t_s_ms, rate", [
        pytest.param(*cell, marks=pytest.mark.xfail(strict=True, reason=(
            "settles at 2 against 3: t_d+t_s+t_c is 100.5 ms, just past 2 t_d, "
            "where the pool settles one slot short (scripts/pool_convergence.py)"
        ))) if cell == (30, 500) else cell
        for cell in GRID
    ])
    def test_pool_settles_at_the_formula_size(self, t_s_ms, rate):
        _, _, settled, formula = pool_churn.run_case(t_s_ms, rate)
        assert settled == formula


class TestIdleAfterLoad:
    # rule 5 stops at the formula size, so once rows stop only rule 6
    # shrinks the pool: it keeps its size through the rest of the cycle
    # and is trimmed at the first boundary that closes a cycle without
    # rows, here 3 s for rows that stop at the 2 s boundary
    @pytest.mark.parametrize("t_s_ms, formula", [(60, 3), (120, 4)])
    def test_rule_6_trims_the_pool_at_the_first_idle_boundary(self, t_s_ms, formula):
        trace = run_sim(
            SimConfig(
                t_d_ms=50,
                t_s_ms=t_s_ms,
                commit_fixed_ms=20,
                commit_per_row_us=20,
                arrival=((0, 2000), (2000, 0)),
                duration_ms=3500,
                dispatch_cycle_ms=1000,
            )
        )
        counts = slot_counts(trace)
        assert counts[39] == formula  # the interval before rows stop
        retired = [e for e in trace.events if e.kind == "retired"]
        assert min(e.t for e in retired) == 3_000_000
        assert {e.reason for e in retired} == {ABORT_NO_DATA_CYCLE}
        assert trace.final_slots == 1


class TestFeasibility:
    def test_full_pool_never_starves(self):
        # a pre-warmed pool of exactly the optimal size keeps some slot
        # sending whenever data waits
        trace = run_sim(
            SimConfig(
                arrival=((0, 5000),), duration_ms=5000,
                initial_slots=3, max_slots=3, **HEADLINE,
            )
        )
        first_send = next(e.t for e in trace.events if e.kind == "send_start")
        assert [t for t in trace.starved_ticks if t > first_send] == []
        assert [e for e in trace.events if e.kind == "retired"] == []

    def test_one_slot_short_starves(self):
        trace = run_sim(
            SimConfig(
                arrival=((0, 5000),), duration_ms=5000,
                initial_slots=2, max_slots=2, **HEADLINE,
            )
        )
        assert len([t for t in trace.starved_ticks if t > 1_000_000]) > 100


class TestOverProvision:
    def test_surplus_wait_witness_and_trim(self):
        # work per cycle 100+30+250 = 380 ms; five slots rotate 500 ms,
        # so some slot must idle in Wait beyond one interval
        target_size = optimal_slots(100, 30, 250)
        assert target_size == 4
        forced = target_size + 1
        trace = run_sim(
            SimConfig(
                t_d_ms=100, t_s_ms=30, commit_fixed_ms=250,
                arrival=((0, 5000),), duration_ms=6000,
                initial_slots=forced, tick_ms=1,
            )
        )
        counts = slot_counts(trace)
        seeded = next(i for i, c in enumerate(counts) if c == forced)
        # trigger-condition witness inside the first forced rotations
        deadline = (forced - 1 + target_size + 1) * 100 * 1000
        assert any(
            w >= 100 * 1000 for t, _, w in wait_residences(trace) if t <= deadline
        ) or any(
            e.kind == "retired" and e.reason == ABORT_IDLE_WAIT and e.t <= deadline
            for e in trace.events
        )
        # the pool comes back to the optimal size and stays
        first = next(i for i in range(seeded, len(counts)) if counts[i] == target_size)
        assert all(c == target_size for c in counts[first:])

    def test_trim_is_not_cascading(self):
        # after the surplus slot goes, remaining waits drop under t_d
        trace = run_sim(
            SimConfig(
                t_d_ms=100, t_s_ms=30, commit_fixed_ms=250,
                arrival=((0, 5000),), duration_ms=6000,
                initial_slots=5, tick_ms=1,
            )
        )
        aborts = [
            e for e in trace.events
            if e.kind == "retired" and e.reason == ABORT_IDLE_WAIT
        ]
        assert len(aborts) == 1
        t_abort = aborts[0].t
        later = [w for t, _, w in wait_residences(trace) if t > t_abort]
        assert later and max(later) < 100 * 1000


STEP_BASE = dict(
    t_d_ms=100, t_s_ms=40, commit_fixed_ms=10, commit_per_row_us=1000, tick_ms=1
)
# commit cost grows with batch size, so the arrival rate sets the pool:
#   700 rows/s ->  70-row batches -> t_c =  80 ms -> optimal 3
#  1800 rows/s -> 180-row batches -> t_c = 190 ms -> optimal 4
#  2000 rows/s -> 200-row batches -> t_c = 210 ms -> optimal 4


class TestFlowSteps:
    def test_step_up_adds_exactly_one_slot(self):
        trace = run_sim(
            SimConfig(
                arrival=((0, 700), (4000, 1800)), duration_ms=10_000, **STEP_BASE
            )
        )
        post = [e.t for e in trace.events if e.kind == "activated" and e.t >= 4_000_000]
        assert len(post) == 1
        acts = [e.t for e in trace.events if e.kind == "activated"]
        assert min(b - a for a, b in zip(acts, acts[1:])) >= 100 * 1000
        counts = slot_counts(trace)
        assert set(counts[40:]) <= {3, 4}
        assert counts[-1] == 4
        # the pool never jumps by two within one interval
        assert all(b - a <= 1 for a, b in zip(counts, counts[1:]))

    def test_step_down_aborts_exactly_one_slot(self):
        trace = run_sim(
            SimConfig(
                arrival=((0, 2000), (4000, 700)), duration_ms=10_000, **STEP_BASE
            )
        )
        post_aborts = [
            e for e in trace.events
            if e.kind == "retired" and e.reason == ABORT_IDLE_WAIT and e.t > 4_000_000
        ]
        assert len(post_aborts) == 1
        counts = slot_counts(trace)
        assert counts[-1] == 3
        assert set(counts[60:]) == {3}
        # aborting the surplus slot reduces the waits of the survivors
        t_abort = post_aborts[0].t
        later = [w for t, _, w in wait_residences(trace) if t > t_abort]
        assert later and max(later) < 100 * 1000


class TestZeroFlow:
    def test_drain_within_three_cycles(self):
        trace = run_sim(
            SimConfig(
                arrival=((0, 1000), (2000, 0)), duration_ms=6000,
                dispatch_cycle_ms=1000, **HEADLINE,
            )
        )
        assert trace.final_slots == 0
        last_alive = max(e.t for e in trace.events if e.kind == "retired")
        assert last_alive <= 5_000_000  # three cycle boundaries past t=2 s
        # nothing restarts while arrivals stay zero
        assert not any(
            e.kind == "activated" and e.t > 2_200_000 for e in trace.events
        )
        assert trace.committed_rows == trace.arrived_rows == 2000

    def test_last_tick_arrivals_are_committed(self):
        # ten rows land in the closing millisecond of a dispatch cycle;
        # the idle-cycle trim must not lose them
        trace = run_sim(
            SimConfig(
                t_d_ms=100, t_s_ms=50, commit_fixed_ms=0,
                arrival=((0, 0), (990, 1000), (1000, 0)),
                duration_ms=2500, dispatch_cycle_ms=1000,
                tick_ms=1, initial_slots=1,
            )
        )
        assert trace.arrived_rows == 10
        assert trace.committed_rows == 10
        assert any(e.kind == "marked" for e in trace.events)


class TestStrategyComparison:
    @pytest.mark.parametrize("t_s_ms", [0, 10, 50, 200])
    def test_gate_saves_exactly_the_start_latency(self, t_s_ms):
        cfg = SimConfig(
            t_d_ms=100, t_s_ms=t_s_ms, commit_fixed_ms=150,
            arrival=((0, 2000),), duration_ms=6000, tick_ms=1,
        )
        cmp_ = compare_strategies(cfg)
        assert cmp_.saved_us == t_s_ms * 1000
        assert cmp_.gate_batches > 0 and cmp_.naive_batches > 0

    def test_gate_latency_is_interval_plus_commit(self):
        trace = run_sim(
            SimConfig(arrival=((0, 2000),), duration_ms=3000, **HEADLINE)
        )
        assert {b.latency_us for b in trace.batches} == {250 * 1000}

    def test_naive_send_gaps_equal_start_latency(self):
        cfg = SimConfig(
            t_d_ms=100, t_s_ms=50, commit_fixed_ms=150,
            arrival=((0, 2000),), duration_ms=6000, tick_ms=1,
            strategy=Strategy.NAIVE,
        )
        spans = sorted(run_sim(cfg).send_spans(), key=lambda s: s[1])
        gaps = [b[1] - a[2] for a, b in zip(spans, spans[1:])]
        steady = gaps[5:]
        assert steady and all(g == 50 * 1000 for g in steady)

    def test_gate_send_gaps_are_zero_at_steady_state(self):
        cfg = SimConfig(
            t_d_ms=100, t_s_ms=50, commit_fixed_ms=150,
            arrival=((0, 2000),), duration_ms=6000, tick_ms=1,
        )
        spans = sorted(run_sim(cfg).send_spans(), key=lambda s: s[1])
        gaps = [b[1] - a[2] for a, b in zip(spans, spans[1:])]
        steady = gaps[5:]
        assert steady and all(g == 0 for g in steady)


class TestBatchTimes:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_each_batch_streams_one_interval_from_its_start(self, strategy):
        cfg = SimConfig(arrival=((0, 2000),), duration_ms=3000, strategy=strategy, **HEADLINE)
        batches = run_sim(cfg).batches
        assert len(batches) > 10
        # a naive slot opens its transaction after its dispatch
        start_after = 0 if strategy is Strategy.GATE else cfg.t_s_ms * 1000
        for b in batches:
            assert b.send_started_at == b.dispatched_at + start_after
            assert b.send_ended_at == b.send_started_at + cfg.t_d_ms * 1000


class TestSingleSender:
    def test_send_spans_pairwise_disjoint(self):
        trace = run_sim(
            SimConfig(arrival=((0, 3000),), duration_ms=8000, **HEADLINE)
        )
        spans = sorted(trace.send_spans(), key=lambda s: s[1])
        assert len(spans) > 20
        for (_, _, end), (_, start, _) in zip(spans, spans[1:]):
            assert start >= end


class TestGantt:
    def test_single_slot_line(self):
        trace = run_sim(
            SimConfig(
                arrival=((0, 100),), duration_ms=500, max_slots=1, **HEADLINE
            )
        )
        art = render_gantt(trace, bucket_ms=50)
        assert "slot   1" in art
        line = [l for l in art.splitlines() if "slot   1" in l][0]
        # a sole slot is dispatched the tick it becomes ready, so no
        # visible wait segment
        for ch in "cSk":
            assert ch in line

    def test_one_sender_per_column(self):
        trace = run_sim(
            SimConfig(arrival=((0, 3000),), duration_ms=6000, **HEADLINE)
        )
        art = render_gantt(trace, bucket_ms=100)
        rows = [l.split("|")[1] for l in art.splitlines() if "|" in l]
        for col in range(len(rows[0])):
            senders = sum(1 for row in rows if col < len(row) and row[col] == "S")
            assert senders <= 1

    def test_empty_trace(self):
        trace = SimTrace(config=SimConfig())
        assert "(no slots)" in render_gantt(trace)

    def test_the_last_mark_of_an_instant_wins(self):
        events = [
            TraceEvent(0, "activated", 1),
            TraceEvent(0, "ready", 2),  # another slot between two marks of slot 1
            TraceEvent(0, "ready", 1),
            TraceEvent(5, "dispatched", 1),
            TraceEvent(5, "rate", 0, 100),  # not a phase
            TraceEvent(5, "send_start", 1),
            TraceEvent(9, "send_end", 1, 3),
            TraceEvent(9, "retired", 1),
        ]
        assert slot_phases(events) == [
            (1, 0, SlotPhase.WAIT),
            (2, 0, SlotPhase.WAIT),
            (1, 5, SlotPhase.SEND),
            (1, 9, None),
        ]


class TestDecisionReplayParity:
    def test_sim_decisions_replay_identically(self):
        trace = run_sim(
            SimConfig(
                arrival=((0, 1500), (3000, 400)), duration_ms=6000, **HEADLINE
            )
        )
        log = trace.decision_log
        assert log is not None
        ticks = log.replay(
            TimingParams(t_d_us=100 * 1000, dispatch_cycle_us=10_000 * 1000)
        )
        assert ticks == 6001


# trace digests of the grid below: any change to the decisions of the
# shared tick, or to how the simulator reports to it, changes them
PINNED_DIGESTS = {
    ("gate", False, 200): "6ba88e96dfb5ebc2c63b76c3f5bfbc4d69a2325cb59e0dc138c138f42a1680fc",
    ("gate", False, 500): "7ce73d8c4b668cf566696f42c9d223466bf4278a0ebf24ef37211df532392224",
    ("gate", True, 200): "7954eef13e9ed3f50d01e17df58a4d76991b22906876edcfcc7f5917f6098272",
    ("gate", True, 500): "6f79f856b7d052e05b9c54e97e51be14bf7fba5fcd74666da2956668977c7dc4",
    ("naive", False, 200): "689ea72f9c116819ee586e69178d3cff43636711473122d361dc96beedb3b416",
    ("naive", False, 500): "134ac2126c3f27037eb4afbf980bdf870e520e53cf4b2e7739b0200564f7b738",
    ("naive", True, 200): "c5990a94b59fc23b8fe1a30e803f4ffa5961789cef0f708e6e7259d46a5b7128",
    ("naive", True, 500): "545e38c5bd0edbd05a0758c75c02887e07b10742aa2fd67b06c10744d9174ba7",
}


def pinned_grid_trace(strategy, poisson, cycle_ms):
    # a rate step down (idle-wait trims), a silent stretch and a
    # trickle, under dispatch cycles short enough for rule 6 to mark,
    # cancel and retire slots many times
    return run_sim(
        SimConfig(
            t_d_ms=100,
            t_s_ms=50,
            commit_fixed_ms=50,
            commit_per_row_us=1000,
            tick_ms=1,
            arrival=((0, 1500), (700, 400), (1300, 0), (1900, 40)),
            duration_ms=3000,
            dispatch_cycle_ms=cycle_ms,
            strategy=Strategy(strategy),
            poisson=poisson,
            seed=3,
        )
    )


# the second grid covers t_s > t_d, the regime the first one cannot
# reach: begin takes 1.2 and 2.4 intervals, and a rate step up and back
# down moves the pool's formula size from 3 to 5-6 and back
PINNED_DIGESTS_TS_OVER_TD = {
    (60, False): "2af4b124b9c2d5a432a08856a95259929aa2f4f69442c2f925b2a74ccb3056c8",
    (60, True): "1753f785192767e851e20c6b92966e830719fd93db1860eb06bff5075cda1e9e",
    (120, False): "c1b343a5d151b728e1fa7b48b4d95accdac434d2dd1aa5b832848b3a57c797d5",
    (120, True): "bc497bab831370835ba4ea677ad30be8906227f1386f495ea9e3f8d2976460c8",
}


def ts_over_td_grid_trace(t_s_ms, poisson):
    return run_sim(
        SimConfig(
            t_d_ms=50,
            t_s_ms=t_s_ms,
            commit_fixed_ms=20,
            commit_per_row_us=200,
            tick_ms=1,
            arrival=((0, 500), (1000, 8000), (2000, 500)),
            duration_ms=4000,
            poisson=poisson,
            seed=3,
        )
    )


def grid_runs():
    """(cell, trace, params) of every cell of both pinned grids."""
    for strategy, poisson, cycle_ms in PINNED_DIGESTS:
        yield (
            (strategy, poisson, cycle_ms),
            pinned_grid_trace(strategy, poisson, cycle_ms),
            TimingParams(t_d_us=100 * 1000, dispatch_cycle_us=cycle_ms * 1000),
        )
    for t_s_ms, poisson in PINNED_DIGESTS_TS_OVER_TD:
        yield (
            (t_s_ms, poisson),
            ts_over_td_grid_trace(t_s_ms, poisson),
            TimingParams(t_d_us=50 * 1000),
        )


class TestSimConfigKeys:
    def test_unknown_keys_named(self):
        with pytest.raises(ValueError, match=r"unknown scenario keys: \['typo_key'\]"):
            SimConfig.from_dict(dict(HEADLINE, typo_key=1))


class TestPinnedDecisions:
    def test_grid_traces_match_pinned_digests(self):
        kinds = Counter()
        for (strategy, poisson, cycle_ms), digest in PINNED_DIGESTS.items():
            trace = pinned_grid_trace(strategy, poisson, cycle_ms)
            assert trace.digest() == digest, (strategy, poisson, cycle_ms)
            trace.decision_log.replay(
                TimingParams(t_d_us=100 * 1000, dispatch_cycle_us=cycle_ms * 1000)
            )
            kinds.update(e.kind for e in trace.events)
            kinds.update(f"retired:{e.reason}" for e in trace.events if e.kind == "retired")
        assert kinds["marked"] and kinds["mark_cancelled"]
        assert kinds[f"retired:{ABORT_IDLE_WAIT}"] and kinds[f"retired:{ABORT_NO_DATA_CYCLE}"]

    def test_ts_over_td_grid_traces_match_pinned_digests(self):
        retired = Counter()
        for (t_s_ms, poisson), digest in PINNED_DIGESTS_TS_OVER_TD.items():
            trace = ts_over_td_grid_trace(t_s_ms, poisson)
            assert trace.digest() == digest, (t_s_ms, poisson)
            trace.decision_log.replay(TimingParams(t_d_us=50 * 1000))
            retired.update(e.reason for e in trace.events if e.kind == "retired")
        # rule 5 still trims here: the formula size moves with the rate
        assert retired[ABORT_IDLE_WAIT]


class TestJournalHoldsEngineInputs:
    def test_no_journal_holds_what_tick_records(self):
        # tick records its own dispatches and activations: a journal
        # holds only engine reports and ticks, and replay makes the
        # rest again. note_activated would appear only for a
        # pre-warmed pool, which neither grid uses
        for cell, trace, params in grid_runs():
            assert trace.config.initial_slots == 0
            names = Counter(
                entry[0] for entry in trace.decision_log.entries if not isinstance(entry, TickRecord)
            )
            assert names["note_dispatched"] == 0 and names["note_activated"] == 0, cell
            assert names["note_ready"] and names["note_send_ended"], cell
            trace.decision_log.replay(params)

    def test_a_pre_warmed_pool_journals_its_forced_activations(self):
        trace = run_sim(SimConfig(initial_slots=3, duration_ms=1000, **HEADLINE))
        log = trace.decision_log
        forced = [entry for entry in log.entries if not isinstance(entry, TickRecord)]
        assert [args for name, args in forced if name == "note_activated"] == [
            (0,), (100 * 1000,), (200 * 1000,)
        ]
        assert not any(name == "note_dispatched" for name, _ in forced)
        log.replay(TimingParams(t_d_us=100 * 1000))


class TestPinnedRendering:
    def test_gantt_and_send_spans_match_pinned_digest(self):
        # the timelines and send windows of both strategies, with and
        # without Poisson arrivals, at three column widths
        parts = []
        for strategy in ("gate", "naive"):
            for poisson in (False, True):
                trace = pinned_grid_trace(strategy, poisson, 200)
                parts.extend(render_gantt(trace, bucket_ms=ms) for ms in (1, 7, 50))
                parts.append(repr(sorted(trace.send_spans())))
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        assert digest == "a4378953a6da77f6093b0e7cdf2ac43b36849a1eed1db6d7c81b9cb0ef2494e8"


class TestDeadlinesCoverTheGrid:
    def test_no_timed_decision_falls_before_its_deadline(self):
        # every tick of the 1 ms grid that acts with no report since the
        # tick before it (and the same data flag) acts on the clock
        # alone; next_deadline, taken right after that earlier tick,
        # must name an instant no later than it, so ticking on reports
        # and deadlines misses no decision the grid makes
        timed = Counter()
        for cell, trace, params in grid_runs():
            state = SchedulerState(params)
            prev, due, reported = None, None, False
            for entry in trace.decision_log.entries:
                if not isinstance(entry, TickRecord):
                    name, args = entry
                    getattr(state, name)(*args)
                    reported = True
                    continue
                assert tuple(tick(state, entry.now, entry.pipeline_nonempty)) == entry.actions
                if (
                    prev is not None
                    and entry.actions
                    and not reported
                    and prev.pipeline_nonempty == entry.pipeline_nonempty
                ):
                    assert due is not None and due <= entry.now, (cell, entry)
                    timed.update(getattr(a, "reason", type(a).__name__) for a in entry.actions)
                prev, reported = entry, False
                due = next_deadline(state, entry.now, entry.pipeline_nonempty)
        # rules 5 and 6 both acted on the clock in the grid (its growth
        # always follows a send end, a report)
        assert timed[ABORT_IDLE_WAIT] and timed[ABORT_NO_DATA_CYCLE], timed
