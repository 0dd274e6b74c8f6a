"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q benchmark/tests

Every workload runs for one second, traced and untraced, and the last
line must follow the result format with the metrics BENCHMARK.json
names. The audit and input helpers are checked directly, and the
benchmark must refuse to run in a copy that holds only BENCHMARK.json
and this directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from common import quantile, tail_percentile, use_source_tree  # noqa: E402

use_source_tree()

from gateflow.records import IngestError, RejectReason, Schema, parse_record  # noqa: E402

import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "paced":
        assert result["metrics"]["simulator.rows_per_s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "ceiling", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_malformed_lines_trip_their_own_reason():
    schema = Schema.parse_spec(inputs.SCHEMA)
    for reason in RejectReason:
        for k in (0, 7, 123456):
            parsed = parse_record(inputs.malformed_line(reason, k), schema)
            assert isinstance(parsed, IngestError) and parsed.reason is reason
    assert not isinstance(parse_record(inputs.valid_line(5, 42), schema), IngestError)


def test_bodies_are_seeded_and_seqs_dense():
    a = inputs.ceiling_bodies(9, 0.05)
    assert [b.data for b in a] == [b.data for b in inputs.ceiling_bodies(9, 0.05)]
    assert [b.data for b in a] != [b.data for b in inputs.ceiling_bodies(10, 0.05)]
    for bodies in (a, inputs.paced_bodies(9, 0.3)):
        assert [b.first_seq for b in bodies] == [
            sum(b.valid for b in bodies[:i]) for i in range(len(bodies))
        ]
    assert sum(b.malformed for b in a) > 0


def test_audit_counts_every_kind_of_delivery_error():
    from gateflow.slot import route_record
    from seghost import SegmentHost

    host = SegmentHost({"workload": "ceiling", "seed": 4})
    seed, n_segs = 4, len(host.daemons)

    def publish(seqs):
        by_seg = [[] for _ in range(n_segs)]
        for s in seqs:
            line = inputs.valid_line(seed, s)
            by_seg[route_record(line.split(",")[0], n_segs)].append(line)
        for daemon, rows in zip(host.daemons, by_seg):
            daemon.store.publish("t", rows)

    publish([0, 1, 2, 3, 5])
    publish([3])  # a duplicate
    host.daemons[0].store.publish("t", ["d1,1,not-a-seq", "d1,1,1"])
    audit = host.audit(valid=7, first_seq=[0], due_ns=[0])
    assert audit["committed_valid"] == 5
    assert audit["missing"] == 2  # seqs 4 and 6
    assert audit["duplicated"] == 1
    assert audit["corrupted"] == 1  # seq 1 with other bytes
    assert audit["foreign"] == 1
    assert audit["misrouted"] == 0
    assert audit["failed_rows"] == 4  # seqs 1, 3, 4 and 6


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(5000) == 0.99
    assert tail_percentile(500) == 0.98
    assert tail_percentile(15) == 0.5
    values = list(range(1, 101))
    assert quantile(values, 0.5) == 50
    assert quantile(values, 0.9) == 90
