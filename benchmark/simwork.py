"""Simulator process: the simulator layer's share of the benchmark.

    python3 simwork.py '{"seed": 1}'

It builds the seeded ``SimConfig`` set, prints ``{"ready": n}``, then
answers each ``{"cmd": "go", "seconds": S, "traced": bool}`` line on
stdin with one report line; ``{"cmd": "exit"}`` ends it. A pass runs
``run_sim`` over the whole set again and again until S seconds are up.
The first run of each config is checked: its
``DecisionLog`` must replay, and the pool it settles on over the last
sixth of the run must equal ``optimal_slots`` for the final rate. Later
runs of the same config must reproduce the first one's counts exactly.

With ``traced`` the shared ``tick`` is timed through the name
``logged_tick`` looks it up by, ``gateflow.scheduler.tick``, and only
while ``run_sim`` runs, so the replay checks are not counted.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from time import perf_counter_ns

from common import send, use_source_tree

use_source_tree()

import gateflow.scheduler as scheduler_mod  # noqa: E402
from gateflow.scheduler import TickRecord, TimingParams  # noqa: E402
from gateflow.simulator import SimConfig, SimTrace, run_sim  # noqa: E402

from inputs import sim_configs, sim_target_pool  # noqa: E402


def settled_pool(trace: SimTrace) -> int:
    """The most common pool size over the last sixth of the run."""
    counts = [c for _, c in trace.interval_slots]
    return Counter(counts[-max(1, len(counts) // 6):]).most_common(1)[0][0]


def fingerprint(trace: SimTrace) -> tuple:
    return (trace.arrived_rows, trace.committed_rows, len(trace.events),
            len(trace.batches), trace.final_slots)


def check(config: SimConfig, trace: SimTrace) -> str | None:
    """Why the run fails the replay or pool-size check, or None."""
    params = TimingParams(
        t_d_us=config.t_d_ms * 1000,
        dispatch_cycle_us=config.dispatch_cycle_ms * 1000,
        max_slots=config.max_slots,
    )
    try:
        trace.decision_log.replay(params)
    except AssertionError as exc:
        return f"replay diverged: {exc}"
    settled, target = settled_pool(trace), sim_target_pool(config)
    if settled != target:
        return f"settled on {settled} slots, optimal_slots is {target}"
    return None


class TickTimer:
    def __init__(self) -> None:
        self.calls = self.ns = 0
        self.tick = scheduler_mod.tick

    def __enter__(self):
        tick = self.tick

        def timed_tick(state, now, pipeline_nonempty):
            t = perf_counter_ns()
            out = tick(state, now, pipeline_nonempty)
            self.ns += perf_counter_ns() - t
            self.calls += 1
            return out

        scheduler_mod.tick = timed_tick
        return self

    def __exit__(self, *exc) -> None:
        scheduler_mod.tick = self.tick


def run_pass(configs: list[SimConfig], seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + seconds
    timer = TickTimer()
    first: list[tuple] = []
    failures: list[str] = []
    wall_ns = rows = virtual_us = runs = events = decisions = 0
    while not first or time.monotonic() < deadline:
        for idx, config in enumerate(configs):
            t0 = perf_counter_ns()
            if traced:
                with timer:
                    trace = run_sim(config)
            else:
                trace = run_sim(config)
            wall_ns += perf_counter_ns() - t0
            rows += trace.committed_rows
            virtual_us += config.duration_ms * 1000
            runs += 1
            if len(first) <= idx:
                first.append(fingerprint(trace))
                why = check(config, trace)
                if why is not None:
                    failures.append(f"config {idx} ({config.digest()}): {why}")
                events += len(trace.events)
                decisions += sum(
                    len(e.actions) for e in trace.decision_log.entries
                    if isinstance(e, TickRecord)
                )
            elif fingerprint(trace) != first[idx]:
                failures.append(f"config {idx}: run {runs} differs from its first run")
    return {
        "runs": runs,
        "failures": failures,
        "wall_s": wall_ns / 1e9,
        "rows": rows,
        "virtual_s": virtual_us / 1e6,
        "events": events,
        "decisions": decisions,
        "tick_calls": timer.calls,
        "tick_ns": timer.ns,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    configs = sim_configs(job["seed"])
    send({"ready": len(configs), "digests": [c.digest() for c in configs]})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "exit":
            break
        send({"report": run_pass(configs, cmd["seconds"], cmd["traced"])})
    return 0


if __name__ == "__main__":
    sys.exit(main())
