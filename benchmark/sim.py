"""The simulator layer, measured in the traced run of ``paced``.

simwork.py runs the seeded config set (one of its four profiles is
``paced``'s own) in a process of its own, on the CPU the gateway had.
One untraced pass gives the simulator's speed, one traced pass the share
of its time spent inside the shared ``tick``. Both passes check every
``DecisionLog`` replay and settled pool.

The simulator is not a gated workload of its own. A process that only
computes follows the host's speed, and on a shared 2-vCPU host that
drifted by about 30% within minutes. Its throughput then spread by
0.26-0.28 between runs, past the largest bound a metric may have.
"""

from __future__ import annotations

from common import Child


def simulator_layers(seed: int, seconds: float, cpus: set[int] | None) -> dict:
    worker = Child("simwork.py", {"seed": seed}, cpus)
    try:
        ready = worker.recv()
        worker.send({"cmd": "go", "seconds": seconds / 2, "traced": False})
        plain = worker.recv()["report"]
        worker.send({"cmd": "go", "seconds": seconds / 2, "traced": True})
        timed = worker.recv()["report"]
        worker.send({"cmd": "exit"})
    finally:
        code = worker.close()
    failures = plain["failures"] + timed["failures"]
    return {
        "layers": {
            "simulator.rows_per_s": plain["rows"] / plain["wall_s"],
            "simulator.events": timed["events"],
            "simulator.decisions": timed["decisions"],
            "simulator.tick_us": timed["tick_ns"] / max(1, timed["tick_calls"]) / 1000,
            "simulator.tick_share": timed["tick_ns"] / 1e9 / timed["wall_s"],
        },
        "ok": code == 0 and not failures,
        "detail": {
            "config_digests": ready["digests"],
            "runs": plain["runs"] + timed["runs"],
            "sim_speedup": plain["virtual_s"] / plain["wall_s"],
            "failures": failures[:8],
        },
    }
