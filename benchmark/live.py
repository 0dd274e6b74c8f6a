"""The live workloads, ``ceiling`` and ``paced``: HTTP -> ingest ->
records -> pipeline -> gateway/slot -> wire -> segment.

Three processes take part. The load generator (generator.py) and the
segment host (seghost.py) are children; the gateway runs on this
process's event loop and has the process to itself apart from the
driver's few waits on the children's pipes. Each pass launches a fresh
segment host and gateway, so every pass is one cold set-up:

    setup    launch the segment host, start the gateway, stop at the
             first slot in WAIT (a hot pool); nothing is posted
    measure  the same, then the generator's pass and a quiesce; the
             end-to-end metrics come from this untraced pass
    trace    ``measure`` with GatewayTracer installed for the window,
             giving the per-layer metrics

Each pass runs under its own ``asyncio.run``, so exceptions the loop's
handler sees while ``Gateway.stop`` runs, and while the loop then
cancels what is left, are all counted as teardown errors.
"""

from __future__ import annotations

import asyncio
import os
import statistics

from common import (OUT_DIR, Child, cpu_s, median_and_tail, now_ns, peak_rss_mb, quantile,
                    split_cpus, tail_percentile)

from gateflow.gateway import Gateway
from gateflow.slot import Initiator, SlotPhase

from inputs import gateway_config
from sim import simulator_layers
from tracing import GatewayTracer

PASSES = 3  # measured passes per untraced run; metrics are their medians
SETUP_REPEATS = 5  # cold set-ups per untraced run; setup_s is their median
READY_TIMEOUT_S = 30
QUIESCE_TIMEOUT_S = 60
# an open-loop generator this late at its tail percentile has fallen
# behind its schedule; the run is flagged in its result
LATE_FLAG_MS = 5.0


class LoopErrors:
    """Loop exception handler that files each report under the phase
    the pass is in."""

    def __init__(self) -> None:
        self.phase = "run"
        self.seen: dict[str, list[str]] = {"run": [], "teardown": []}

    def __call__(self, loop, context) -> None:
        self.seen[self.phase].append(f"{context.get('message')}: {context.get('exception')!r}")


async def _measure(gw: Gateway, gen: Child, seg: Child, traced: bool) -> dict:
    seg.send({"cmd": "mark"})
    await seg.arecv()
    tracer = GatewayTracer(gw) if traced else None
    if tracer is not None:
        tracer.install()
    state = gw.state
    activations0, aborts0 = state.activations_total, state.aborts_total
    go_ns = now_ns()
    cpu0 = cpu_s()
    gen.send({"cmd": "go", "port": gw.ingest_port})
    report = (await gen.arecv())["report"]
    quiesced = await gw.quiesce(timeout_s=QUIESCE_TIMEOUT_S)
    cpu = cpu_s() - cpu0
    end_ns = now_ns()
    if tracer is not None:
        await tracer.uninstall()
    seg.send({"cmd": "stats"})
    out = {
        "gen": report,
        "seg": await seg.arecv(),
        "quiesced": quiesced,
        "cpu_s": cpu,
        "counters": gw.counters.snapshot(),
        "rss_mb": peak_rss_mb(),
        "window_s": (end_ns - go_ns) / 1e9,
    }
    if tracer is not None:
        out["tracer"] = tracer
        out["gw_layers"] = gateway_layers(
            gw, tracer, go_ns // 1000, end_ns // 1000,
            state.activations_total - activations0, state.aborts_total - aborts0,
        )
    return out


async def _drive(workload: str, gen: Child, seg: Child, launch_ns: int,
                 mode: str, errors: LoopErrors) -> dict:
    loop = asyncio.get_running_loop()
    loop.set_exception_handler(errors)
    ports = (await seg.arecv())["ports"]
    gw = Gateway(gateway_config(workload, ports))
    ready = loop.create_future()
    note_ready = gw.state.note_ready

    def first_ready(slot_id: int, now: int) -> None:
        note_ready(slot_id, now)
        if not ready.done():
            ready.set_result(now_ns())

    gw.state.note_ready = first_ready
    try:
        await gw.start()
        ready_ns = await asyncio.wait_for(ready, READY_TIMEOUT_S)
        del gw.state.note_ready
        out = {"setup_s": (ready_ns - launch_ns) / 1e9, "config_hash": gw.config.config_hash()}
        if mode != "setup":
            out.update(await _measure(gw, gen, seg, traced=mode == "trace"))
        return out
    finally:
        errors.phase = "teardown"
        await gw.stop()


def one_pass(workload: str, seed: int, gen: Child, mode: str,
             child_cpus: set[int] | None) -> dict:
    errors = LoopErrors()
    launch_ns = now_ns()
    seg = Child("seghost.py", {"workload": workload, "seed": seed}, child_cpus)
    try:
        out = asyncio.run(_drive(workload, gen, seg, launch_ns, mode, errors))
        if mode != "setup":
            report = out["gen"]
            seg.send({
                "cmd": "audit",
                "valid": report["valid_posted"],
                "first_seq": report["first_seq"],
                "due_ns": [due for _, due, _, _ in report["posts"]],
            })
            out["audit"] = seg.recv()
        seg.send({"cmd": "stop"})
        seg_end = seg.recv()
    finally:
        seg_code = seg.close()
    out["seg_exit"] = seg_code
    out["run_errors"] = len(errors.seen["run"]) + seg_end["run_errors"]
    out["teardown_errors"] = len(errors.seen["teardown"]) + seg_end["teardown_errors"]
    out["error_samples"] = (errors.seen["run"] + errors.seen["teardown"])[:8] + seg_end["errors"]
    return out


def _phase_times(gw: Gateway, tracer: GatewayTracer, t0: int, t1: int) -> dict[SlotPhase, int]:
    """Time every slot spent in each phase within [t0, t1], from the
    slots' transition history. A slot activated before t0 counts from
    t0 in the phase it was in then."""
    totals = {phase: 0 for phase in (SlotPhase.CONNECT, SlotPhase.WAIT,
                                     SlotPhase.SEND, SlotPhase.COMMIT)}
    for slot in gw.audit_slots:
        phase = SlotPhase.CONNECT
        since = tracer.activated_at.get(slot.slot_id, t0)
        for tr in slot.history + [None]:
            until = t1 if tr is None else tr.at
            if phase in totals:
                totals[phase] += max(0, min(until, t1) - max(since, t0))
            if tr is None:
                break
            phase, since = tr.dst, tr.at
    return totals


def gateway_layers(gw: Gateway, tracer: GatewayTracer, t0: int, t1: int,
                   activations: int, aborts: int) -> dict[str, float]:
    """Per-layer metrics of the gateway process over [t0, t1] (µs)."""
    window_s = (t1 - t0) / 1e6
    in_window = [tr for tr in gw.transitions() if t0 <= tr.at <= t1]
    phases = _phase_times(gw, tracer, t0, t1)
    phase_total = sum(phases.values()) or 1
    commit_ms = []
    for slot in gw.audit_slots:
        for a, b in zip(slot.history, slot.history[1:]):
            if a.dst is SlotPhase.COMMIT and t0 <= a.at <= t1:
                commit_ms.append((b.at - a.at) / 1000)
    busy = sum(
        max(0, min(end, t1) - max(start, t0)) for _, start, end in gw.send_spans()
    )
    batches = sum(1 for tr in in_window if tr.src is SlotPhase.SEND and tr.dst is SlotPhase.COMMIT)
    committed = gw.counters.snapshot()["rows_committed"]
    depths = sorted(tracer.depths)
    waits = sorted(tracer.waits_ns)
    est_ts, est_tc = gw.state.est_ts_us, gw.state.est_tc_us

    def per(total_ns: int, n: int) -> float:
        return total_ns / n / 1000 if n else 0.0

    return {
        "records.parse_us_per_row": per(tracer.parse_ns, tracer.parse_n),
        "records.rejected": tracer.rejected,
        "ingest.handle_post_self_us_per_row": per(tracer.request_self_ns, tracer.request_rows),
        "ingest.requests": tracer.requests,
        "ingest.rows_per_request": tracer.request_rows / tracer.requests if tracer.requests else 0.0,
        "ingest.backpressured_rows": tracer.backpressured,
        "ingest.accept_ratio": tracer.accepted / tracer.request_rows if tracer.request_rows else 0.0,
        "pipeline.enqueue_us_per_row": per(tracer.enqueue_ns, tracer.enqueue_n),
        "pipeline.drain_us_per_row": per(tracer.drain_ns, tracer.drain_rows),
        "pipeline.empty_drains_per_s": tracer.empty_drains / window_s,
        "pipeline.depth_p99": quantile(depths, tail_percentile(len(depths))),
        "pipeline.wait_p50_ms": quantile(waits, 0.5) / 1e6,
        "gateway.route_serialize_us_per_row": per(tracer.route_ns + tracer.to_line_ns, tracer.route_n),
        "slot.send_busy_frac": busy / (t1 - t0),
        "slot.phase_share.connect": phases[SlotPhase.CONNECT] / phase_total,
        "slot.phase_share.wait": phases[SlotPhase.WAIT] / phase_total,
        "slot.phase_share.send": phases[SlotPhase.SEND] / phase_total,
        "slot.phase_share.commit": phases[SlotPhase.COMMIT] / phase_total,
        "slot.batches": batches,
        "slot.rows_per_batch": committed / batches if batches else 0.0,
        "slot.failures": sum(1 for tr in in_window if tr.initiator is Initiator.FAILURE),
        "scheduler.pool_mean": statistics.fmean(tracer.pools) if tracer.pools else 0.0,
        "scheduler.pool_max": max(tracer.pools, default=0),
        "scheduler.pool_optimal": gw.state.estimated_optimal() or 0,
        "scheduler.activations": activations,
        "scheduler.aborts": aborts,
        "scheduler.est_ts_ms": est_ts / 1000 if est_ts is not None else 0.0,
        "scheduler.est_tc_ms": est_tc / 1000 if est_tc is not None else 0.0,
        "scheduler.tick_us": per(tracer.tick_ns, tracer.tick_n),
        "segment.commit_p50_ms": quantile(sorted(commit_ms), 0.5),
    }


def write_spans(tracer: GatewayTracer, workload: str, seed: int) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(path)
    return str(path.relative_to(OUT_DIR.parent))


def _pass_result(p: dict) -> dict:
    """End-to-end metrics and checks of one measured pass."""
    gen, audit, seg = p["gen"], p["audit"], p["seg"]
    rows = audit["committed_valid"]
    first_post = min(sent for _, _, sent, _ in gen["posts"])
    acks = [(done - due) / 1e6 for _, due, _, done in gen["posts"]]
    ack_p50, ack_tail, ack_p, ack_n = median_and_tail(acks)
    # a valid row the gateway rejected is also a missing one, so it is
    # counted once, in failed_rows; a malformed row it let through is
    # committed as a foreign line
    failed = audit["failed_rows"] + audit["foreign"] + gen["transport_errors"]
    counters = p["counters"]
    checks = {
        "exactly_once": audit["failed_rows"] == audit["foreign"] == 0,
        "rejections_match_planted": gen["rejected"] == gen["malformed_posted"],
        "quiesced": p["quiesced"],
        "counters_balance": counters["rows_accepted"] == counters["rows_committed"],
        "no_transport_errors": gen["transport_errors"] == 0,
        "no_loop_errors": p["run_errors"] == 0,
    }
    span_s = max(1e-9, (seg["last_publish_ns"] - first_post) / 1e9)
    return {
        "metrics": {
            "rows_per_s": rows / span_s,
            "cpu_us_per_row": p["cpu_s"] * 1e6 / max(1, rows),
            "ack_p50_ms": ack_p50,
            "ack_p99_ms": ack_tail,
            "visible_p50_ms": audit["visible_p50_ms"],
            "visible_p99_ms": audit["visible_tail_ms"],
            "rss_mb": p["rss_mb"],
        },
        "attempted": gen["rows_posted"],
        "failed": failed,
        "checks": checks,
        "detail": {
            "ack_percentile": ack_p, "ack_samples": ack_n,
            "visible_percentile": audit["visible_tail_p"], "visible_samples": audit["visible_n"],
            "rows_committed": rows, "rows_posted": gen["rows_posted"],
            "malformed_planted": gen["malformed_posted"], "rejected": gen["rejected"],
            "failed_rows": audit["failed_rows"], "missing": audit["missing"],
            "duplicated": audit["duplicated"], "corrupted": audit["corrupted"],
            "foreign": audit["foreign"], "misrouted": audit["misrouted"],
            "unresolved": gen["unresolved_rows"],
            "transport_errors": gen["transport_errors"],
            "generator_late_tail_ms": gen["late_tail_ms"],
            "generator_late_percentile": gen["late_tail_p"],
            "generator_ran_out_of_bodies": gen["ran_out"],
            "window_s": p["window_s"], "teardown_errors": p["teardown_errors"],
            "loop_errors": p["error_samples"], "setup_s": p["setup_s"],
        },
    }


def run_live(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    """Untraced: PASSES measured passes of seconds/PASSES each, every
    end-to-end metric the median over them, except that the ack
    percentiles pool the passes' samples. Traced: one untraced and one
    traced pass of that length, and for ``paced`` the simulator layer."""
    pass_s = seconds / PASSES
    split = split_cpus()
    gateway_cpus, child_cpus = split if split else (None, None)
    if gateway_cpus:
        os.sched_setaffinity(0, gateway_cpus)
    gen = Child("generator.py", {"workload": workload, "seed": seed, "seconds": pass_s},
                child_cpus)
    try:
        gen.recv()  # every body is built
        setup_only = [] if traced else [
            one_pass(workload, seed, gen, "setup", child_cpus)
            for _ in range(SETUP_REPEATS - PASSES)
        ]
        passes = [one_pass(workload, seed, gen, "measure", child_cpus)
                  for _ in range(1 if traced else PASSES)]
        trace_pass = one_pass(workload, seed, gen, "trace", child_cpus) if traced else None
        gen.send({"cmd": "exit"})
    finally:
        gen_code = gen.close()
    simulator = (simulator_layers(seed, pass_s, gateway_cpus)
                 if traced and workload == "paced" else None)

    results = [_pass_result(p) for p in passes]
    result = {
        "metrics": {name: statistics.median(r["metrics"][name] for r in results)
                    for name in results[0]["metrics"]},
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "checks": {name: all(r["checks"][name] for r in results)
                   for name in results[0]["checks"]},
        "detail": {"passes": [r["detail"] | {"metrics": r["metrics"]} for r in results]},
        "config_hash": passes[0]["config_hash"],
        "flags": [],
    }
    setups = [p["setup_s"] for p in setup_only + passes]
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["detail"]["setup_samples_s"] = setups
    # latency tails come from every pass's samples together: a median
    # of per-pass tails would sit on a lower, steeper percentile
    ack_p50, ack_tail, ack_p, ack_n = median_and_tail(
        (done - due) / 1e6 for p in passes for _, due, _, done in p["gen"]["posts"])
    result["metrics"].update(ack_p50_ms=ack_p50, ack_p99_ms=ack_tail)
    result["detail"].update(ack_percentile=ack_p, ack_samples=ack_n)
    result["checks"]["children_exit_0"] = gen_code == 0 and all(
        p["seg_exit"] == 0 for p in setup_only + passes)
    if workload == "paced" and any(p["gen"]["late_tail_ms"] > LATE_FLAG_MS for p in passes):
        result["flags"].append("generator-behind-schedule")
    if any(p["gen"]["ran_out"] for p in passes):
        result["flags"].append("generator-ran-out-of-bodies")
    if trace_pass is not None:
        traced_result = _pass_result(trace_pass)
        tracer = trace_pass.pop("tracer")
        gen_r, seg = trace_pass["gen"], trace_pass["seg"]
        rows = max(1, traced_result["detail"]["rows_committed"])
        layers = dict(trace_pass["gw_layers"])
        layers.update({
            "gateway.teardown_errors": trace_pass["teardown_errors"],
            "segment.publish_us_per_row": seg["publish_ns"] / max(1, seg["rows"]) / 1000,
            "segment.cpu_us_per_row": seg["cpu_s"] * 1e6 / rows,
            "segment.commits": seg["commits"],
            "segment.empty_commits": seg["empty_commits"],
            "segment.rows_per_commit": seg["rows"] / max(1, seg["commits"]),
            "segment.aborted_txns": seg["aborted_txns"],
            "generator.late_p99_ms": gen_r["late_tail_ms"],
            "generator.retried_rows": gen_r["retried_rows"],
            "generator.cpu_s": gen_r["cpu_s"],
            "trace.overhead_cpu_us_per_row": traced_result["metrics"]["cpu_us_per_row"]
            - result["metrics"]["cpu_us_per_row"],
        })
        result["layers"] = layers
        result["attempted"] += traced_result["attempted"]
        result["failed"] += traced_result["failed"]
        for name, ok in traced_result["checks"].items():
            result["checks"][name] = result["checks"][name] and ok
        result["checks"]["traced_rejected_match_planted"] = (
            tracer.rejected == gen_r["malformed_posted"]
        )
        result["checks"]["children_exit_0"] &= trace_pass["seg_exit"] == 0
        if simulator is not None:
            layers.update(simulator["layers"])
            result["checks"]["simulator_replay_and_pool"] = simulator["ok"]
            result["detail"]["simulator"] = simulator["detail"]
        result["detail"]["spans_file"] = write_spans(tracer, workload, seed)
        result["detail"]["traced_pass"] = traced_result["detail"] | {
            "metrics": traced_result["metrics"]}
    return result
