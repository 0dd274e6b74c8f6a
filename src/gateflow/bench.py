"""Benchmark harness: measures ingestion speed against growing segment
clusters and reports scaling efficiency between every pair of runs.

A scenario pins the latency profile and workload; each run starts a
fresh in-process cluster (n segments + gateway), pushes rows through
the real HTTP and wire paths, waits for the last commit, and computes
rows/sec from first-post to last-commit. Rows scale with the node count
so every run lasts about as long and warmup bias cancels out.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import replace
from typing import Any

from .config import GatewayConfig, SegmentConfig, require
from .gateway import Gateway
from .loadgen import run_loadgen
from .metrics import IngestionRun, ingestion_speed, scalability
from .segment import start_cluster

SCENARIO_DEFAULTS = {
    "nodes": [1, 2],
    "rows_per_node": 20_000,
    "interval_ms": 100,
    "dispatch_cycle_ms": 10_000,
    "begin_latency_ms": 2,
    "commit_fixed_ms": 0,
    "commit_per_row_us": 100,
    "max_slots": 16,
    "queue_capacity": 50_000,
    "schema": "seq:int",
    "devices": 64,
    "batch_lines": 1000,
    "quiesce_timeout_s": 120.0,
}


def load_scenario(data: dict[str, Any]) -> dict[str, Any]:
    """The scenario ``data`` overrides the defaults with. A key no
    scenario takes, a value of the wrong type or one out of range is a
    ValueError, raised before anything compares or iterates it."""
    scenario = dict(SCENARIO_DEFAULTS)
    unknown = set(data) - set(scenario)
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    scenario.update(data)
    if type(scenario["quiesce_timeout_s"]) is int:
        scenario["quiesce_timeout_s"] = float(scenario["quiesce_timeout_s"])
    require(list, "scenario ", nodes=scenario["nodes"])
    nodes = scenario["nodes"]
    require(int, "scenario ", **{f"nodes[{i}]": n for i, n in enumerate(nodes)})
    require(str, "scenario ", schema=scenario["schema"])
    require(float, "scenario ", quiesce_timeout_s=scenario["quiesce_timeout_s"])
    if scenario["queue_capacity"] is not None:
        require(int, "scenario ", queue_capacity=scenario["queue_capacity"])
    # every other value is a count or a duration in whole units
    ints = {key: value for key, value in scenario.items()
            if key not in ("nodes", "schema", "quiesce_timeout_s", "queue_capacity")}
    require(int, "scenario ", **ints)
    if not nodes or any(n < 1 for n in nodes):
        raise ValueError("nodes must be a non-empty list of counts >= 1")
    if any(a >= b for a, b in zip(nodes, nodes[1:])):
        raise ValueError("node counts must be strictly increasing")
    for key in ("rows_per_node", "devices", "batch_lines"):
        if scenario[key] < 1:
            raise ValueError(f"{key} must be >= 1")
    if not scenario["quiesce_timeout_s"] > 0:
        raise ValueError("quiesce_timeout_s must be positive")
    return scenario


async def _bench_one(n: int, scenario: dict[str, Any]) -> dict[str, Any]:
    daemons = await start_cluster([
        SegmentConfig(
            id=f"seg{i}",
            host="127.0.0.1",
            port=0,
            begin_latency_ms=scenario["begin_latency_ms"],
            commit_fixed_ms=scenario["commit_fixed_ms"],
            commit_per_row_us=scenario["commit_per_row_us"],
        )
        for i in range(n)
    ])
    bound = tuple(replace(d.spec, port=d.bound_port) for d in daemons)
    config = GatewayConfig(
        segments=bound,
        listen_addr="127.0.0.1:0",
        schema=scenario["schema"],
        interval_ms=scenario["interval_ms"],
        dispatch_cycle_ms=scenario["dispatch_cycle_ms"],
        max_slots=scenario["max_slots"],
        queue_capacity=scenario["queue_capacity"],
        listeners=1,
    )
    gateway = Gateway(config)
    try:
        await gateway.start()
        rows = scenario["rows_per_node"] * n
        ts = time.monotonic_ns() // 1000
        load = await asyncio.to_thread(
            run_loadgen,
            "127.0.0.1",
            gateway.ingest_port,
            rows=rows,
            devices=scenario["devices"],
            batch_lines=scenario["batch_lines"],
        )
        quiesced = await gateway.quiesce(timeout_s=scenario["quiesce_timeout_s"])
        te = tuple(max(d.store.last_publish_us, ts) for d in daemons)
        committed = sum(d.store.total_rows for d in daemons)
        run = IngestionRun(committed, ts, te, nodes=n)
        return {
            "nodes": n,
            "N": committed,
            "ts": ts,
            "te": list(te),
            "V": ingestion_speed(run),
            "config_hash": config.config_hash(),
            "quiesced": quiesced,
            "loadgen": load.to_dict(),
        }
    finally:
        await gateway.stop()
        for daemon in daemons:
            await daemon.stop()


async def _bench_all(scenario: dict[str, Any]) -> dict[str, Any]:
    report: dict[str, Any] = {"scenario": scenario, "runs": [], "scalability": {}, "incomplete": False}
    speeds: dict[int, float] = {}
    for n in scenario["nodes"]:
        try:
            entry = await _bench_one(n, scenario)
        except Exception as exc:  # noqa: BLE001 - a partial report beats none
            report["incomplete"] = True
            report["error"] = f"{type(exc).__name__}: {exc}"
            break
        report["runs"].append(entry)
        speeds[n] = entry["V"]
        if not entry["quiesced"]:
            report["incomplete"] = True
            report["error"] = f"run with {n} nodes did not quiesce"
            break
    counted = sorted(speeds)
    for a_idx, i in enumerate(counted):
        for j in counted[a_idx + 1:]:
            report["scalability"][f"{i},{j}"] = scalability(i, j, speeds[i], speeds[j])
    return report


def run_bench(scenario_data: dict[str, Any]) -> dict[str, Any]:
    scenario = load_scenario(scenario_data)
    return asyncio.run(_bench_all(scenario))


def write_report(report: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
