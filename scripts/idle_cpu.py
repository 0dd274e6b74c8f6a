"""Idle cost of a gateway: CPU, empty commits and retained state with
no traffic.

Starts N in-process segment daemons and a gateway, posts nothing, and
prints, over ``--seconds``, the CPU this process used as a percentage
of one core (gateway and segments together) and the transactions the
segments committed per second, summed over all of them. With no
traffic every one of those commits is empty. It also prints how fast
state that nothing frees grows: ``txns_retained_per_s``, the growth
of the segments' transaction tables (``SegmentDaemon.txns``, summed),
and ``transitions_retained_per_s``, the growth of the gateway's slot
history (``Gateway.transitions()``). Both are plain counts read before
and after the window, so they add no cost inside it.

    PYTHONPATH=src python scripts/idle_cpu.py --segments 2 --seconds 10
"""

import argparse
import asyncio
import sys
import time

from gateflow.config import GatewayConfig, SegmentConfig
from gateflow.gateway import Gateway
from gateflow.segment import TxnState, start_cluster


def committed_txns(daemons) -> int:
    return sum(
        1
        for d in daemons
        for txn in d.txns.values()
        if txn.state is TxnState.COMMITTED
    )


async def measure(args) -> dict[str, float]:
    daemons = await start_cluster(
        [SegmentConfig(id=f"seg{i}", port=0) for i in range(args.segments)]
    )
    config = GatewayConfig(
        segments=tuple(
            SegmentConfig(id=d.spec.id, port=d.bound_port) for d in daemons
        ),
        listen_addr="127.0.0.1:0",
        schema="seq:int",
    )
    gw = Gateway(config)
    await gw.start()
    try:
        commits0 = committed_txns(daemons)
        txns0 = sum(len(d.txns) for d in daemons)
        transitions0 = len(gw.transitions())
        cpu0, wall0 = time.process_time(), time.monotonic()
        await asyncio.sleep(args.seconds)
        cpu1, wall1 = time.process_time(), time.monotonic()
        commits1 = committed_txns(daemons)
        txns1 = sum(len(d.txns) for d in daemons)
        transitions1 = len(gw.transitions())
    finally:
        await gw.stop()
        for d in daemons:
            await d.stop()
    wall = wall1 - wall0
    return {
        "cpu_pct": 100 * (cpu1 - cpu0) / wall,
        "commits_per_s": (commits1 - commits0) / wall,
        "txns_retained_per_s": (txns1 - txns0) / wall,
        "transitions_retained_per_s": (transitions1 - transitions0) / wall,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--segments", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.segments < 1 or args.seconds <= 0:
        parser.error("--segments must be >= 1 and --seconds positive")
    result = asyncio.run(measure(args))
    print(f"segments={args.segments} seconds={args.seconds}")
    for key, value in result.items():
        print(f"{key}={value:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
