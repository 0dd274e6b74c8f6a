"""Throughput and latency arithmetic plus the live counter registry.

Ingestion speed counts a run as finished only when the slowest segment
has acknowledged its commit, so the speed of a fan-out run is governed
by the last COMMITTED frame, not the first.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

US_PER_S = 1_000_000


@dataclass(frozen=True)
class IngestionRun:
    """One measured run: rows_total rows started at ts_us, with one
    completion timestamp per participating segment."""

    rows_total: int
    ts_us: int
    te_us: tuple[int, ...]
    nodes: int = 1

    def __post_init__(self) -> None:
        if self.rows_total < 0:
            raise ValueError("rows_total must be non-negative")
        if not self.te_us:
            raise ValueError("need at least one completion timestamp")
        if any(te < self.ts_us for te in self.te_us):
            raise ValueError("completion cannot precede start")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")


def ingestion_speed(run: IngestionRun) -> float:
    """Rows per second: rows_total over the span from start to the
    latest completion. Zero rows is zero speed; zero span is undefined."""
    if run.rows_total == 0:
        return 0.0
    elapsed_us = max(run.te_us) - run.ts_us
    if elapsed_us <= 0:
        raise ValueError("elapsed time is zero, rate undefined")
    return run.rows_total * US_PER_S / elapsed_us


def scalability(i: int, j: int, v_i: float, v_j: float) -> float:
    """Efficiency of growing from i to j nodes: (i * v_j) / (j * v_i).

    1.0 means perfectly linear scaling; below 1.0 the added nodes are
    partially wasted.
    """
    if i >= j:
        raise ValueError("node counts must satisfy i < j")
    if i < 1:
        raise ValueError("node counts must be >= 1")
    if v_i <= 0:
        raise ValueError("baseline speed must be positive")
    return (i * v_j) / (j * v_i)


def query_latency(ds_us: int, de_us: int) -> int:
    """Microseconds between issuing a probe and receiving its answer."""
    if de_us < ds_us:
        raise ValueError("answer cannot precede the question")
    return de_us - ds_us


# /metrics document keys, in emission order
COUNTER_KEYS = (
    "rows_accepted",
    "rows_committed",
    "rows_rejected",
    "rows_backpressured",
    "rows_in_doubt",
    "active_slots",
    "slots_activated_total",
    "slots_aborted_total",
    "slot_failures_total",
    "last_commit_ms",
    "est_ts_us",
    "est_tc_us",
    "pool_optimal_estimate",
    "queue_depth",
)
# values read from a probe at each snapshot; 0 until one is registered
PROBED_KEYS = (
    "active_slots",
    "slots_activated_total",
    "slots_aborted_total",
    "last_commit_ms",
    "est_ts_us",
    "est_tc_us",
    "pool_optimal_estimate",
    "queue_depth",
)


class Counters:
    """Live counter registry behind GET /metrics.

    Writers from any thread or task go through one lock; readers take
    plain snapshots, so values are individually current but not
    mutually consistent. The counters, the keys not in
    ``PROBED_KEYS``, only grow through ``add``; the ``PROBED_KEYS`` are
    read from a probe whenever a snapshot is taken, from the record
    that already holds each value, and ``add`` rejects them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._probes: dict[str, Callable[[], int]] = dict.fromkeys(PROBED_KEYS, lambda: 0)
        for key in COUNTER_KEYS:
            if key not in PROBED_KEYS:
                setattr(self, key, 0)

    def add(self, key: str, amount: int = 1) -> None:
        if key not in COUNTER_KEYS or key in PROBED_KEYS:
            raise KeyError(key)
        with self._lock:
            setattr(self, key, getattr(self, key) + amount)

    def probe(self, key: str, read: Callable[[], int]) -> None:
        """Take ``key`` from ``read()`` in every snapshot."""
        if key not in PROBED_KEYS:
            raise KeyError(key)
        self._probes[key] = read

    def snapshot(self) -> dict[str, int]:
        probes = self._probes
        return {key: probes[key]() if key in probes else getattr(self, key)
                for key in COUNTER_KEYS}

    def render(self) -> str:
        """The flat key=value text served at /metrics."""
        snap = self.snapshot()
        return "".join(f"{key}={snap[key]}\n" for key in COUNTER_KEYS)
