"""Throughput formula, scaling ratios, probe latency, and the counter registry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateflow.metrics import (
    COUNTER_KEYS,
    Counters,
    IngestionRun,
    ingestion_speed,
    query_latency,
    scalability,
)

US = 1_000_000


class TestIngestionSpeed:
    def test_worked_example(self):
        # 1M rows over a 2 s span is half a million rows per second
        run = IngestionRun(rows_total=1_000_000, ts_us=0, te_us=(2 * US,))
        assert ingestion_speed(run) == 500_000.0

    def test_slowest_completion_governs(self):
        # three segments finish at 1 s, 2 s, 4 s; the 4 s straggler sets the rate
        run = IngestionRun(
            rows_total=4_000_000,
            ts_us=10 * US,
            te_us=(11 * US, 12 * US, 14 * US),
        )
        assert ingestion_speed(run) == 1_000_000.0

    def test_completion_order_irrelevant(self):
        a = IngestionRun(100, 0, (5 * US, 3 * US, 4 * US))
        b = IngestionRun(100, 0, (3 * US, 4 * US, 5 * US))
        assert ingestion_speed(a) == ingestion_speed(b)

    def test_zero_rows_zero_speed(self):
        run = IngestionRun(rows_total=0, ts_us=0, te_us=(US,))
        assert ingestion_speed(run) == 0.0

    def test_zero_elapsed_rejected(self):
        run = IngestionRun(rows_total=10, ts_us=5, te_us=(5,))
        with pytest.raises(ValueError):
            ingestion_speed(run)

    def test_nonzero_start_offset(self):
        run = IngestionRun(rows_total=300, ts_us=7 * US, te_us=(10 * US,))
        assert ingestion_speed(run) == 100.0

    @given(
        rows=st.integers(min_value=1, max_value=10**9),
        ts=st.integers(min_value=0, max_value=10**12),
        span=st.integers(min_value=1, max_value=10**10),
    )
    @settings(max_examples=200)
    def test_speed_definition_holds(self, rows, ts, span):
        run = IngestionRun(rows_total=rows, ts_us=ts, te_us=(ts + span,))
        assert ingestion_speed(run) == pytest.approx(rows * US / span)

    def test_run_validation(self):
        with pytest.raises(ValueError):
            IngestionRun(rows_total=-1, ts_us=0, te_us=(US,))
        with pytest.raises(ValueError):
            IngestionRun(rows_total=1, ts_us=0, te_us=())
        with pytest.raises(ValueError):
            IngestionRun(rows_total=1, ts_us=10, te_us=(9,))
        with pytest.raises(ValueError):
            IngestionRun(rows_total=1, ts_us=0, te_us=(US,), nodes=0)


class TestScalability:
    def test_published_three_node_ratio(self):
        # 3.75M rows/s on one node, 10.05M on three
        p = scalability(1, 3, 3.75e6, 10.05e6)
        assert abs(p - 0.893) <= 0.005
        assert p == pytest.approx(10.05 / 11.25)

    def test_published_eight_node_ratio(self):
        # speeds normalized to the single-node figure: 7.59x on eight nodes
        p = scalability(1, 8, 1.0, 7.59)
        assert abs(p - 0.949) <= 0.005
        assert p == pytest.approx(7.59 / 8)

    def test_linear_scaling_is_exactly_one(self):
        assert scalability(1, 2, 5000.0, 10000.0) == 1.0
        assert scalability(2, 6, 250.0, 750.0) == 1.0

    def test_sublinear_below_one(self):
        assert scalability(1, 2, 1000.0, 1500.0) < 1.0

    @given(
        i=st.integers(min_value=1, max_value=10),
        step_j=st.integers(min_value=1, max_value=10),
        step_k=st.integers(min_value=1, max_value=10),
        v_i=st.floats(min_value=1.0, max_value=1e9),
        f_j=st.floats(min_value=0.1, max_value=100.0),
        f_k=st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=200)
    def test_ratios_compose(self, i, step_j, step_k, v_i, f_j, f_k):
        # growing i->j->k multiplies: P(i,k) == P(i,j) * P(j,k)
        j, k = i + step_j, i + step_j + step_k
        v_j, v_k = v_i * f_j, v_i * f_j * f_k
        lhs = scalability(i, k, v_i, v_k)
        rhs = scalability(i, j, v_i, v_j) * scalability(j, k, v_j, v_k)
        assert math.isclose(lhs, rhs, rel_tol=1e-9)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            scalability(2, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            scalability(3, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            scalability(0, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            scalability(1, 2, 0.0, 1.0)


class TestQueryLatency:
    def test_difference(self):
        assert query_latency(100_000, 250_000) == 150_000

    def test_instant_answer(self):
        assert query_latency(42, 42) == 0

    def test_time_travel_rejected(self):
        with pytest.raises(ValueError):
            query_latency(10, 9)

    @given(ds=st.integers(min_value=0, max_value=10**12),
           delta=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=100)
    def test_non_negative(self, ds, delta):
        assert query_latency(ds, ds + delta) == delta


class TestCounters:
    def test_starts_at_zero(self):
        c = Counters()
        assert c.snapshot() == {key: 0 for key in COUNTER_KEYS}

    def test_add_accumulates(self):
        c = Counters()
        c.add("rows_accepted", 5)
        c.add("rows_accepted")
        assert c.snapshot()["rows_accepted"] == 6

    def test_unknown_key_rejected(self):
        c = Counters()
        with pytest.raises(KeyError):
            c.add("rows_eaten")

    def test_gauge_set_and_guard(self):
        c = Counters()
        commit_ms = [7]
        c.probe("last_commit_ms", lambda: commit_ms[0])
        commit_ms[0] = 123456
        snap = c.snapshot()
        assert snap["last_commit_ms"] == 123456
        for key in ("last_commit_ms", "slots_aborted_total"):
            with pytest.raises(KeyError):  # probed: no writer adds to it
                c.add(key)

    def test_probed_gauge_is_read_at_each_snapshot(self):
        c = Counters()
        depth = [3]
        c.probe("queue_depth", lambda: depth[0])
        assert c.snapshot()["queue_depth"] == 3
        depth[0] = 0
        assert "queue_depth=0\n" in c.render()
        with pytest.raises(KeyError):
            c.probe("rows_accepted", lambda: 1)
        with pytest.raises(KeyError):
            c.probe("slot_failures_total", lambda: 1)
        with pytest.raises(KeyError):  # a probed gauge has one writer
            c.add("queue_depth")

    def test_render_format(self):
        c = Counters()
        c.add("rows_accepted", 10)
        c.add("rows_committed", 8)
        c.probe("last_commit_ms", lambda: 2)
        text = c.render()
        lines = text.splitlines()
        assert len(lines) == len(COUNTER_KEYS)
        assert text.endswith("\n")
        assert [ln.split("=")[0] for ln in lines] == list(COUNTER_KEYS)
        as_dict = dict(ln.split("=") for ln in lines)
        assert as_dict["rows_accepted"] == "10"
        assert as_dict["rows_committed"] == "8"
        assert as_dict["last_commit_ms"] == "2"
        assert as_dict["rows_rejected"] == "0"

    def test_render_lines_parse_back(self):
        c = Counters()
        for key in ("rows_accepted", "rows_rejected", "slot_failures_total"):
            c.add(key, 3)
        parsed = {k: int(v) for k, v in
                  (ln.split("=") for ln in c.render().splitlines())}
        assert parsed == c.snapshot()
