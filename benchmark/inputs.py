"""Seeded inputs of every workload, and the reference the audit checks
committed rows against.

A valid row is ``d<device>,<timestamp>,<seq>`` for schema ``seq:int``.
Valid rows carry dense sequence numbers 0, 1, 2, ... in posting order,
so the rows a run should commit are exactly the seqs below the number
of valid rows posted, each byte-equal to ``valid_line(seed, seq)``.
Malformed rows carry no seq; each one is built to trip exactly one
``RejectReason`` and they are spread over all four.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gateflow.config import GatewayConfig, SegmentConfig
from gateflow.records import RejectReason
from gateflow.scheduler import optimal_slots
from gateflow.simulator import SimConfig

SCHEMA = "seq:int"
DEVICES = 64
TS_BASE = 1_700_000_000_000_000  # epoch microseconds

CEILING_BODY_LINES = 1000
CEILING_MALFORMED_P = 0.01
# bodies are pre-built before timing; this caps them (and the segment
# stores) at a rate no current build reaches
CEILING_MAX_ROWS_PER_S = 160_000

PACED_ROWS_PER_POST = (20, 40)
# rows/s of the three equal phases: low -> high -> low
PACED_RATES = (1500, 4000, 1500)

CEILING_LATENCY = dict(begin_latency_ms=0, commit_fixed_ms=0, commit_per_row_us=0)
PACED_LATENCY = dict(begin_latency_ms=60, commit_fixed_ms=20, commit_per_row_us=20)
SEGMENTS = 2


def valid_line(seed: int, seq: int) -> str:
    return f"d{(seq + seed) % DEVICES},{TS_BASE + seq},{seq}"


def malformed_line(reason: RejectReason, k: int) -> str:
    dev = f"d{k % DEVICES}"
    if reason is RejectReason.EMPTY_DEVICE:
        return f",{TS_BASE + k},{k}"
    if reason is RejectReason.ARITY:
        return f"{dev},{TS_BASE + k}"
    if reason is RejectReason.BAD_TIMESTAMP:
        return f"{dev},-{k + 1},{k}"
    return f"{dev},{TS_BASE + k},v{k}"  # RejectReason.TYPE


@dataclass
class Body:
    """One POST body: its bytes, the first valid seq it carries, and
    how many valid and malformed lines it holds."""

    data: bytes
    first_seq: int
    valid: int
    malformed: int
    due_us: int = 0  # offset from the schedule start (open loop only)


def _build_body(rng: random.Random, seed: int, first_seq: int, lines: int,
                malformed_p: float) -> Body:
    out = []
    seq = first_seq
    bad = 0
    reasons = list(RejectReason)
    for _ in range(lines):
        if malformed_p and rng.random() < malformed_p:
            out.append(malformed_line(reasons[rng.randrange(len(reasons))],
                                      rng.randrange(1 << 30)))
            bad += 1
        else:
            out.append(valid_line(seed, seq))
            seq += 1
    return Body(("\n".join(out) + "\n").encode(), first_seq, seq - first_seq, bad)


def ceiling_bodies(seed: int, seconds: float) -> list[Body]:
    rng = random.Random(seed)
    count = max(4, int(CEILING_MAX_ROWS_PER_S * seconds) // CEILING_BODY_LINES)
    bodies = []
    seq = 0
    for _ in range(count):
        body = _build_body(rng, seed, seq, CEILING_BODY_LINES, CEILING_MALFORMED_P)
        seq += body.valid
        bodies.append(body)
    return bodies


def paced_bodies(seed: int, seconds: float) -> list[Body]:
    """Small all-valid posts, evenly spaced within each rate phase."""
    rng = random.Random(seed)
    phase_us = int(seconds * 1_000_000) // len(PACED_RATES)
    bodies = []
    seq = 0
    for phase, rate in enumerate(PACED_RATES):
        t = phase * phase_us
        end = t + phase_us
        while t < end:
            rows = rng.randint(*PACED_ROWS_PER_POST)
            body = _build_body(rng, seed, seq, rows, 0.0)
            body.due_us = t
            bodies.append(body)
            seq += body.valid
            t += rows * 1_000_000 // rate
    return bodies


def bodies_for(workload: str, seed: int, seconds: float) -> list[Body]:
    if workload == "ceiling":
        return ceiling_bodies(seed, seconds)
    if workload == "paced":
        return paced_bodies(seed, seconds)
    raise ValueError(f"no live inputs for workload {workload!r}")


def segment_specs(workload: str) -> list[SegmentConfig]:
    latency = CEILING_LATENCY if workload == "ceiling" else PACED_LATENCY
    return [SegmentConfig(id=f"seg{i}", port=0, **latency) for i in range(SEGMENTS)]


def gateway_config(workload: str, ports: list[int]) -> GatewayConfig:
    segments = tuple(
        SegmentConfig(id=s.id, port=port, begin_latency_ms=s.begin_latency_ms,
                      commit_fixed_ms=s.commit_fixed_ms,
                      commit_per_row_us=s.commit_per_row_us)
        for s, port in zip(segment_specs(workload), ports)
    )
    return GatewayConfig(
        segments=segments,
        listen_addr="127.0.0.1:0",
        schema=SCHEMA,
        interval_ms=100 if workload == "ceiling" else 50,
        max_slots=8,
        queue_capacity=50_000,
        listeners=1,
    )


# (t_d_ms, t_s_ms, commit_fixed_ms, commit_per_row_us, low, high rows/s).
# Every profile has a per-row commit cost, so batch latencies follow the
# Poisson batch sizes; the last one is the live `paced` profile.
SIM_PROFILES = (
    (100, 50, 150, 20, 1000, 3000),
    (100, 40, 10, 1000, 700, 1800),
    (20, 100, 50, 5, 2000, 6000),
    (50, 60, 20, 20, 1500, 4000),
)
SIM_DURATION_MS = 6000


def sim_configs(seed: int) -> list[SimConfig]:
    """Poisson arrivals stepping low -> high -> low for each profile;
    the seed only picks the Poisson streams."""
    rng = random.Random(seed)
    step = SIM_DURATION_MS // 3
    return [
        SimConfig(
            t_d_ms=t_d, t_s_ms=t_s, commit_fixed_ms=fixed, commit_per_row_us=per_row,
            arrival=((0, low), (step, high), (2 * step, low)),
            duration_ms=SIM_DURATION_MS, seed=rng.randrange(1 << 31),
            poisson=True, tick_ms=1,
        )
        for t_d, t_s, fixed, per_row, low, high in SIM_PROFILES
    ]


def sim_target_pool(config: SimConfig) -> int:
    """``optimal_slots`` for the final rate step, with t_c from the
    expected batch size at that rate."""
    t_d = config.t_d_ms * 1000
    rows = config.arrival[-1][1] * config.t_d_ms / 1000
    t_c = config.commit_fixed_ms * 1000 + rows * config.commit_per_row_us
    return optimal_slots(t_d, config.t_s_ms * 1000, t_c)
