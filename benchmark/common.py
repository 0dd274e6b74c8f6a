"""Helpers shared by the benchmark's driver and its child processes:
repository paths, percentiles, resource usage, JSON-line messaging and
the run stamp."""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def use_source_tree() -> None:
    """Import gateflow from the checkout's ``src`` directory."""
    if not (SRC / "gateflow" / "__init__.py").is_file():
        raise SystemExit(f"gateflow sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for the benchmark's child processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def now_ns() -> int:
    """CLOCK_MONOTONIC, which every process on the host shares."""
    return time.monotonic_ns()


def cpu_s() -> float:
    """User plus system CPU seconds of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_percentile(n: int, wanted: float = 0.99) -> float:
    """The highest percentile up to ``wanted`` with at least
    TAIL_SAMPLES samples beyond it; the median when none has."""
    if n <= 0:
        return 0.5
    best = math.floor((1 - TAIL_SAMPLES / n) * 1000) / 1000
    return max(0.5, min(wanted, best))


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending sequence; 0.0 when empty."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    idx = min(n - 1, max(0, math.ceil(q * n) - 1))
    return float(sorted_values[idx])


def median_and_tail(values) -> tuple[float, float, float, int]:
    """(median, tail value, tail percentile, sample count)."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    return quantile(ordered, 0.5), quantile(ordered, p), p, len(ordered)


def split_cpus() -> tuple[set[int], set[int]] | None:
    """(CPUs for this process, CPUs for its children) when at least two
    are available, else None. Left alone, Linux tends to pull processes
    that wake each other over sockets onto one CPU, so the gateway and
    its load would share a core while the other one idles."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


def send(obj) -> None:
    """Write one JSON message line to stdout (child-process side)."""
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


class ChildError(RuntimeError):
    pass


class Child:
    """A benchmark child process that takes one JSON argument and
    speaks JSON lines on stdin/stdout. Its stderr is passed through."""

    def __init__(self, script: str, arg: dict, cpus: set[int] | None = None) -> None:
        self.script = script
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / script), json.dumps(arg)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)

    def send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj, separators=(",", ":")) + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise ChildError(f"{self.script} exited with code {self.proc.wait()}")
        return json.loads(line)

    async def arecv(self) -> dict:
        """``recv`` on a worker thread, leaving the event loop free."""
        return await asyncio.get_running_loop().run_in_executor(None, self.recv)

    def close(self, timeout: float = 5.0) -> int:
        """Close its stdin, wait for it to exit (kill it if it will
        not) and return its exit code."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()
        finally:
            self.proc.stdout.close()


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which pins the code under test
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gateflow").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
