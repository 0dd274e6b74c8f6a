"""Command line entry points.

    serve     run the gateway against a segment cluster
    segmentd  run mock segment daemons from the same config
    loadgen   post rows at a running gateway
    simulate  run a scenario on the virtual clock, dump the trace
    gantt     render a dumped trace as a phase timeline
    bench     measure ingestion speed across cluster sizes

Exit codes: 0 success, 1 usage, config or input-file error, 2 bind failure,
3 unreachable dependency. --config falls back to $GATEFLOW_CONFIG.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import socket
import sys
import time

import yaml

from .bench import run_bench, write_report
from .config import GatewayConfig, load_config
from .gateway import Gateway
from .loadgen import run_loadgen
from .segment import start_cluster
from .simulator import SimConfig, SimTrace, render_gantt, run_sim

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BIND = 2
EXIT_DEPENDENCY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gateflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the gateway")
    serve.add_argument("--config", help="config file (or $GATEFLOW_CONFIG)")
    serve.add_argument("--segment-retries", type=int, default=10)
    serve.add_argument("--segment-retry-delay", type=float, default=0.25)

    segmentd = sub.add_parser("segmentd", help="run mock segments")
    segmentd.add_argument("--config", help="config file (or $GATEFLOW_CONFIG)")
    segmentd.add_argument("--dump-dir", help="append committed rows per segment here")

    loadgen = sub.add_parser("loadgen", help="post rows at a gateway")
    loadgen.add_argument("--target", required=True, help="host:port of the gateway")
    loadgen.add_argument("--file", help="CSV file to replay")
    loadgen.add_argument("--rows", type=int, help="synthetic row count")
    loadgen.add_argument("--rate", type=float, help="rows per second pacing")
    loadgen.add_argument("--duration", type=float, help="seconds of synthetic load")
    loadgen.add_argument("--devices", type=int, default=16)
    loadgen.add_argument("--batch", type=int, default=1000)

    simulate = sub.add_parser("simulate", help="run a virtual-clock scenario")
    simulate.add_argument("--config", required=True, help="scenario YAML")
    simulate.add_argument("--out", help="write the full trace JSON here")

    gantt = sub.add_parser("gantt", help="render a trace timeline")
    gantt.add_argument("--trace", required=True, help="trace JSON from simulate")
    gantt.add_argument("--bucket-ms", type=int, default=None)

    bench = sub.add_parser("bench", help="scaling benchmark")
    bench.add_argument("--scenario", required=True, help="scenario YAML")
    bench.add_argument("--out", help="write the JSON report here")
    return parser


def _config_from(args: argparse.Namespace) -> GatewayConfig:
    path = args.config or os.environ.get("GATEFLOW_CONFIG")
    if not path:
        raise ValueError("no config given and GATEFLOW_CONFIG is not set")
    return load_config(path)


def _wait_for_stop() -> asyncio.Event:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:
            pass
    return stop


def _preflight_segments(config: GatewayConfig, retries: int, delay: float) -> str | None:
    """Returns the first unreachable segment address, or None."""
    for seg in config.segments:
        ok = False
        for _ in range(max(1, retries)):
            try:
                with socket.create_connection((seg.host, seg.port), timeout=2):
                    ok = True
                break
            except OSError:
                time.sleep(delay)
        if not ok:
            return f"{seg.id} at {seg.host}:{seg.port}"
    return None


async def _serve(config: GatewayConfig) -> int:
    gateway = Gateway(config)
    try:
        await gateway.start()
    except OSError as exc:
        print(f"cannot bind {config.listen_addr}: {exc}", file=sys.stderr)
        return EXIT_BIND
    host, _ = config.listen_host_port()
    print(f"gateway listening on {host}:{gateway.ingest_port}")
    stop = _wait_for_stop()
    await stop.wait()
    await gateway.stop()
    return EXIT_OK


async def _segmentd(config: GatewayConfig, dump_dir: str | None) -> int:
    try:
        daemons = await start_cluster(list(config.segments), dump_dir)
    except OSError as exc:
        print(f"cannot bind segment listener: {exc}", file=sys.stderr)
        return EXIT_BIND
    for daemon in daemons:
        print(f"segment {daemon.spec.id} on {daemon.spec.host}:{daemon.bound_port}")
    stop = _wait_for_stop()
    await stop.wait()
    for daemon in daemons:
        await daemon.stop()
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    config = _config_from(args)
    missing = _preflight_segments(config, args.segment_retries, args.segment_retry_delay)
    if missing:
        print(f"segment unreachable after retries: {missing}", file=sys.stderr)
        return EXIT_DEPENDENCY
    return asyncio.run(_serve(config))


def _cmd_segmentd(args: argparse.Namespace) -> int:
    config = _config_from(args)
    return asyncio.run(_segmentd(config, args.dump_dir))


def _cmd_loadgen(args: argparse.Namespace) -> int:
    host, _, port = args.target.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError("--target must be host:port")
    report = run_loadgen(
        host,
        int(port),
        file=args.file,
        rows=args.rows,
        rate=args.rate,
        duration_s=args.duration,
        devices=args.devices,
        batch_lines=args.batch,
    )
    print(json.dumps(report.to_dict(), indent=2))
    if report.accepted == 0 and report.transport_errors > 0:
        return EXIT_DEPENDENCY
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.config, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ValueError("scenario root must be a mapping")
    config = SimConfig.from_dict(data)
    trace = run_sim(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(trace.to_json())
    print(
        json.dumps(
            {
                "final_slots": trace.final_slots,
                "arrived_rows": trace.arrived_rows,
                "committed_rows": trace.committed_rows,
                "batches": len(trace.batches),
                "mean_batch_latency_us": trace.mean_batch_latency_us(),
                "starved_ticks": len(trace.starved_ticks),
                "digest": trace.digest(),
            },
            indent=2,
        )
    )
    return EXIT_OK


def _cmd_gantt(args: argparse.Namespace) -> int:
    with open(args.trace, encoding="utf-8") as fh:
        try:
            trace = SimTrace.from_json(fh.read())
        except json.JSONDecodeError as exc:
            # json names a line and column but not the file, as YAML does
            raise ValueError(f'{exc} in "{args.trace}"') from exc
    print(render_gantt(trace, bucket_ms=args.bucket_ms))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    with open(args.scenario, encoding="utf-8") as fh:
        data = yaml.safe_load(fh) or {}
    if not isinstance(data, dict):
        raise ValueError("scenario root must be a mapping")
    report = run_bench(data)
    if args.out:
        write_report(report, args.out)
    shown = {
        "V": {str(run["nodes"]): round(run["V"], 1) for run in report["runs"]},
        "scalability": {k: round(v, 4) for k, v in report["scalability"].items()},
        "incomplete": report["incomplete"],
    }
    print(json.dumps(shown, indent=2))
    return EXIT_OK if not report["incomplete"] else EXIT_DEPENDENCY


_COMMANDS = {
    "serve": _cmd_serve,
    "segmentd": _cmd_segmentd,
    "loadgen": _cmd_loadgen,
    "simulate": _cmd_simulate,
    "gantt": _cmd_gantt,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; 0 must stay 0 (--help)
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEPENDENCY
    except (ValueError, OSError, KeyError, yaml.YAMLError) as exc:
        # an unreadable input file or config; a YAML message spans lines
        message = " ".join(line.strip() for line in str(exc).splitlines())
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
