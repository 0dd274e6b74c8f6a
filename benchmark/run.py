"""The gateflow benchmark: one command, two workloads.

    python3 benchmark/run.py --workload ceiling|paced --seed N \\
        --seconds S --trace 0|1

Run it from the repository root. It imports gateflow from ``src/`` of
the checkout it sits in. Human-readable lines come first; the last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones, both by name
with their units. The full result, with the run stamp, is also written
to ``.bench_out/``. The exit code is 0 when every correctness check
passed, 1 when one failed and 2 when the benchmark could not run. See
README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import OUT_DIR, ChildError, run_stamp, use_source_tree

WORKLOADS = ("ceiling", "paced")

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "cpu_us_per_row": "us",
    "visible_p50_ms": "ms",
    "visible_p99_ms": "ms",
    "rss_mb": "MB",
}

# printed and kept in the result file, but not in the JSON line. The
# ceiling ack is bimodal, so its median jumps between the modes; the
# paced ack tail follows how often the host deschedules the gateway for
# a few ms. Both vary between runs by more than a bound could hold.
REPORTED_ONLY_UNITS = {"ack_p50_ms": "ms", "ack_p99_ms": "ms"}

LAYER_UNITS = {
    "records.parse_us_per_row": "us",
    "records.rejected": "count",
    "ingest.handle_post_self_us_per_row": "us",
    "ingest.requests": "count",
    "ingest.rows_per_request": "rows",
    "ingest.backpressured_rows": "count",
    "ingest.accept_ratio": "frac",
    "pipeline.enqueue_us_per_row": "us",
    "pipeline.drain_us_per_row": "us",
    "pipeline.empty_drains_per_s": "1/s",
    "pipeline.depth_p99": "rows",
    "pipeline.wait_p50_ms": "ms",
    "gateway.route_serialize_us_per_row": "us",
    "gateway.teardown_errors": "count",
    "slot.send_busy_frac": "frac",
    "slot.phase_share.connect": "frac",
    "slot.phase_share.wait": "frac",
    "slot.phase_share.send": "frac",
    "slot.phase_share.commit": "frac",
    "slot.batches": "count",
    "slot.rows_per_batch": "rows",
    "slot.failures": "count",
    "scheduler.pool_mean": "slots",
    "scheduler.pool_max": "slots",
    "scheduler.pool_optimal": "slots",
    "scheduler.activations": "count",
    "scheduler.aborts": "count",
    "scheduler.est_ts_ms": "ms",
    "scheduler.est_tc_ms": "ms",
    "scheduler.tick_us": "us",
    "segment.publish_us_per_row": "us",
    "segment.cpu_us_per_row": "us",
    "segment.commits": "count",
    "segment.empty_commits": "count",
    "segment.rows_per_commit": "rows",
    "segment.commit_p50_ms": "ms",
    "segment.aborted_txns": "count",
    "simulator.rows_per_s": "rows/s",
    "simulator.events": "count",
    "simulator.decisions": "count",
    "simulator.tick_us": "us",
    "simulator.tick_share": "frac",
    "generator.late_p99_ms": "ms",
    "generator.retried_rows": "count",
    "generator.cpu_s": "s",
    "trace.overhead_cpu_us_per_row": "us",
}

# a run must end within 180 s; past this the alarm aborts it
DEADLINE_S = 160


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    traced = bool(args.trace)

    def deadline(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, deadline)
    signal.alarm(DEADLINE_S)
    try:
        use_source_tree()
        from live import run_live

        result = run_live(args.workload, args.seed, args.seconds, traced)
    except (SystemExit, ChildError, TimeoutError, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)

    correct = all(result["checks"].values()) and result["failed"] == 0
    if traced:
        layers = result["layers"]
        shown = {name: layers.get(name, 0) for name in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        shown = {name: result["metrics"][name] for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    stamp = run_stamp(args.workload, args.seed, args.seconds, traced)
    stamp["config"] = result["config_hash"]
    if "simulator" in result["detail"]:
        stamp["sim_configs"] = result["detail"]["simulator"]["config_digests"]
    failed_frac = result["failed"] / max(1, result["attempted"])

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"stamp": stamp, "correct": correct, "attempted": result["attempted"],
                   "failed": result["failed"], "failed_frac": failed_frac,
                   "metrics": result["metrics"], "layers": result.get("layers", {}),
                   "checks": result["checks"], "flags": result["flags"],
                   "detail": result["detail"]}, fh, indent=1, sort_keys=True)

    print(f"stamp {json.dumps(stamp, sort_keys=True)}")
    lines = [(name, value, units[name]) for name, value in shown.items()]
    if not traced:
        lines += [(name, result["metrics"][name], unit)
                  for name, unit in REPORTED_ONLY_UNITS.items()]
    lines.append(("failed_frac", failed_frac, "frac"))
    for name, value, unit in lines:
        print(f"  {name:<38} {_fmt(value):>14} {unit}")
    for name, ok in result["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for flag in result["flags"]:
        print(f"  flag {flag}")
    print(f"  full result: {out_path.relative_to(OUT_DIR.parent)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
