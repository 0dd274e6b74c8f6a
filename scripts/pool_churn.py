"""Count how often the simulated pool grows a slot it later trims, per
begin latency and arrival rate.

For each (t_s, rate) the simulator runs Poisson arrivals on its 1 ms
tick grid, with t_d 50 ms and a commit of 20 ms + 20 us/row, and prints
the slots it activated, the ticks on which rows waited while no slot
sent ("starved"), the pool it settled on (the most common size over the
last sixth of the run) and the size ``optimal_slots`` predicts from the
modelled latencies, with the commit cost taken at one window's rows. A
pool that settles makes a handful of activations however long the run;
one that churns makes one every few intervals.

    PYTHONPATH=src python scripts/pool_churn.py

Exits 1 when a case makes more than ``--max-activations`` activations
(default ``MAX_ACTIVATIONS``). ``tests/test_simulator.py`` runs the
default grid against the same bound through ``run_case``.
"""

import argparse
import sys
from collections import Counter

from gateflow.scheduler import optimal_slots
from gateflow.simulator import SimConfig, run_sim

T_D_MS = 50
COMMIT_FIXED_MS = 20
COMMIT_PER_ROW_US = 20
SEED = 1
T_S_MS = (30, 45, 60, 120)
RATES = (500, 2000, 8000)
SECONDS = 10
MAX_ACTIVATIONS = 6


def run_case(t_s, rate, seconds=SECONDS):
    """(activations, starved ticks, settled pool, formula pool)."""
    trace = run_sim(SimConfig(
        t_d_ms=T_D_MS,
        t_s_ms=t_s,
        commit_fixed_ms=COMMIT_FIXED_MS,
        commit_per_row_us=COMMIT_PER_ROW_US,
        arrival=((0, rate),),
        duration_ms=seconds * 1000,
        poisson=True,
        seed=SEED,
    ))
    # the settled and formula pools are the rules of settled_pool() in
    # benchmark/simwork.py and sim_target_pool() in benchmark/inputs.py
    counts = [c for _, c in trace.interval_slots]
    settled = Counter(counts[-max(1, len(counts) // 6):]).most_common(1)[0][0]
    t_c_us = COMMIT_FIXED_MS * 1000 + COMMIT_PER_ROW_US * rate * T_D_MS // 1000
    target = optimal_slots(T_D_MS * 1000, t_s * 1000, t_c_us)
    activations = sum(e.kind == "activated" for e in trace.events)
    return activations, len(trace.starved_ticks), settled, target


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t-s", type=int, nargs="+", default=T_S_MS,
                        help="begin latencies, ms")
    parser.add_argument("--rates", type=int, nargs="+", default=RATES,
                        help="rows/sec")
    parser.add_argument("--seconds", type=int, default=SECONDS)
    parser.add_argument("--max-activations", type=int, default=MAX_ACTIVATIONS,
                        help="exit 1 when a case activates more slots than this")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print(f"{'t_s':>5} {'rows/s':>7} {'activations':>11} {'starved':>7} "
          f"{'settled':>7} {'formula':>7}")
    worst = 0
    for t_s in args.t_s:
        for rate in args.rates:
            activations, starved, settled, target = run_case(t_s, rate, args.seconds)
            worst = max(worst, activations)
            print(f"{t_s:>5} {rate:>7} {activations:>11} {starved:>7} "
                  f"{settled:>7} {target:>7}")
    if worst > args.max_activations:
        print(f"\na case made {worst} activations, more than {args.max_activations}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
