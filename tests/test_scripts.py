"""Smoke tests for the scripts under ``scripts/``: each runs with small
arguments, exits 0 and writes nothing to stderr, and a script with a
bound exits 1 past it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == returncode, proc.stderr
    if returncode == 0:
        assert proc.stderr == ""  # no traceback, warning or log line
    return proc


def test_idle_cpu_reports_cpu_and_commit_rate():
    stdout = run_script("idle_cpu.py", "--seconds", "0.3").stdout
    values = dict(line.split("=", 1) for line in stdout.splitlines()[1:])
    assert set(values) == {
        "cpu_pct", "commits_per_s", "txns_retained_per_s", "transitions_retained_per_s"}
    assert 0 <= float(values["cpu_pct"]) <= 200
    assert float(values["commits_per_s"]) >= 0
    assert float(values["txns_retained_per_s"]) >= 0
    assert float(values["transitions_retained_per_s"]) >= 0


def test_row_work_reports_each_side_per_row():
    stdout = run_script("row_work.py", "--rows", "3000", "--repeats", "2").stdout
    head, *sides = stdout.splitlines()
    assert head.startswith("rows=3000 segments=2 repeats=2 pinned=")
    assert [line.split()[0] for line in sides] == [
        "ingest_us_per_row", "send_us_per_row", "total_us_per_row"]
    for line in sides:
        values = dict(field.split("=") for field in line.split()[1:])
        assert 0 < float(values["min"]) <= float(values["median"]) <= float(values["max"])


@pytest.mark.parametrize(
    "name, args, expect",
    [
        pytest.param(
            "flow_timeline.py", ["step-up", "--duration-ms", "2000", "--gantt"],
            "slot   1 |", id="flow_timeline",
        ),
        pytest.param(
            "prestart_savings.py", ["--t-s", "0", "50", "--duration-ms", "2000"],
            "saved us", id="prestart_savings",
        ),
        pytest.param(
            "pool_convergence.py", ["--triples", "2"],
            "all 2 triples settled on the predicted size", id="pool_convergence",
        ),
        pytest.param(
            "pool_churn.py",
            ["--t-s", "60", "--rates", "2000", "--seconds", "2"],
            "   60    2000           3", id="pool_churn",
        ),
        # reads Gateway.send_spans() for its overlap count
        pytest.param(
            "live_demo.py", ["--seconds", "1", "--segments", "2"],
            "overlapping: 0", id="live_demo",
        ),
    ],
)
def test_script_runs_clean(name, args, expect):
    assert expect in run_script(name, *args).stdout


def test_pool_churn_fails_above_its_activation_bound():
    proc = run_script(
        "pool_churn.py", "--t-s", "60", "--rates", "2000", "--seconds", "2",
        "--max-activations", "2", returncode=1,
    )
    assert "a case made 3 activations, more than 2" in proc.stderr
