"""Smoke tests for the measurement scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_idle_cpu_reports_cpu_and_commit_rate():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "idle_cpu.py"), "--seconds", "0.3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # no traceback at shutdown
    values = dict(line.split("=", 1) for line in proc.stdout.splitlines()[1:])
    assert set(values) == {"cpu_pct", "commits_per_s"}
    assert 0 <= float(values["cpu_pct"]) <= 200
    assert float(values["commits_per_s"]) >= 0
