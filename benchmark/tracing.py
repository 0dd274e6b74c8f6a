"""Per-layer tracing of a live gateway, from outside the package.

``GatewayTracer`` wraps the public functions each layer is called
through, in the namespace the caller looks them up in:

    records   gateflow.ingest.parse_record           (per row)
    ingest    LineIngestor.handle_post                (per request: span)
    pipeline  queue.enqueue / queue.drain_up_to       (per row / per drain)
    gateway   gateflow.gateway.route_record and
              Record.to_line                          (per row)
    scheduler gateflow.gateway.tick                   (per tick)

Per-row calls are folded into a count and a nanosecond sum where they
happen. Requests and non-empty drains are kept as spans with an id and
a parent (a drain's parent is the batch of the slot that is sending),
held in memory and written out when the run ends. ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import asyncio
import json
from time import perf_counter_ns

import gateflow.gateway as gateway_mod
import gateflow.ingest as ingest_mod
from gateflow.pipeline import EnqueueResult
from gateflow.records import IngestError, Record
from gateflow.slot import SlotPhase


def batch_id(slot_id: int, cycle: int) -> str:
    return f"s{slot_id}-c{cycle}"


class GatewayTracer:
    SAMPLE_S = 0.002  # queue depth and pool size sampling period

    def __init__(self, gw) -> None:
        self.gw = gw
        self.parse_n = self.parse_ns = self.rejected = 0
        self.enqueue_n = self.enqueue_ns = 0
        self.drain_rows = self.drain_ns = self.drains = self.empty_drains = 0
        self.route_n = self.route_ns = 0
        self.to_line_n = self.to_line_ns = 0
        self.tick_n = self.tick_ns = 0
        self.requests = self.request_rows = self.request_self_ns = 0
        self.backpressured = self.accepted = 0
        self.enqueued_at: dict[int, int] = {}
        self.waits_ns: list[int] = []
        self.depths: list[int] = []
        self.pools: list[int] = []
        self.activated_at: dict[int, int] = {}
        self.spans: list[dict] = []
        self._restore: list[tuple[object, str, object, bool]] = []
        self._sampler: asyncio.Task | None = None

    # -- installation --------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        # an instance only shadows its class: restoring means deleting
        had_own = name in vars(owner)
        self._restore.append((owner, name, getattr(owner, name), had_own))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        gw = self.gw
        self._patch(ingest_mod, "parse_record", self._wrap_parse(ingest_mod.parse_record))
        self._patch(gw.queue, "enqueue", self._wrap_enqueue(gw.queue.enqueue))
        self._patch(gw.queue, "drain_up_to", self._wrap_drain(gw.queue.drain_up_to))
        self._patch(gateway_mod, "route_record", self._wrap_route(gateway_mod.route_record))
        self._patch(Record, "to_line", self._wrap_to_line(Record.to_line))
        self._patch(gateway_mod, "tick", self._wrap_tick(gateway_mod.tick))
        self._patch(gw.state, "note_activated", self._wrap_activated(gw.state.note_activated))
        for ingestor in gw.ingest.ingestors:
            self._patch(ingestor, "handle_post", self._wrap_handle_post(ingestor.handle_post))
        self._sampler = asyncio.get_running_loop().create_task(self._sample())

    async def uninstall(self) -> None:
        if self._sampler is not None:
            self._sampler.cancel()
            try:
                await self._sampler
            except asyncio.CancelledError:
                pass
            self._sampler = None
        for owner, name, original, had_own in reversed(self._restore):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._restore.clear()

    async def _sample(self) -> None:
        gw = self.gw
        while True:
            self.depths.append(gw.queue.approx_len())
            self.pools.append(gw.state.live_count())
            await asyncio.sleep(self.SAMPLE_S)

    # -- wrappers --------------------------------------------------------

    def _wrap_parse(self, fn):
        def parse_record(line, schema, **kw):
            t = perf_counter_ns()
            out = fn(line, schema, **kw)
            self.parse_ns += perf_counter_ns() - t
            self.parse_n += 1
            if isinstance(out, IngestError):
                self.rejected += 1
            return out
        return parse_record

    def _wrap_enqueue(self, fn):
        def enqueue(item):
            t = perf_counter_ns()
            out = fn(item)
            t1 = perf_counter_ns()
            self.enqueue_ns += t1 - t
            self.enqueue_n += 1
            if out is EnqueueResult.ACCEPTED:
                self.enqueued_at[item.seq] = t1
            return out
        return enqueue

    def _wrap_drain(self, fn):
        def drain_up_to(max_items):
            t = perf_counter_ns()
            out = fn(max_items)
            t1 = perf_counter_ns()
            if not out:
                self.empty_drains += 1
                return out
            self.drains += 1
            self.drain_rows += len(out)
            self.drain_ns += t1 - t
            pop = self.enqueued_at.pop
            waits = self.waits_ns
            for rec in out:
                at = pop(rec.seq, None)
                if at is not None:
                    waits.append(t1 - at)
            self.spans.append({
                "name": "pipeline.drain", "id": f"d{self.drains}",
                "parent": self._current_batch(), "start_ns": t, "end_ns": t1,
                "rows": len(out),
            })
            return out
        return drain_up_to

    def _current_batch(self) -> str | None:
        sid = self.gw.state.current_sender
        runner = self.gw.runners.get(sid) if sid is not None else None
        return batch_id(sid, runner.slot.cycle) if runner is not None else None

    def _wrap_route(self, fn):
        def route_record(device_id, segment_count):
            t = perf_counter_ns()
            out = fn(device_id, segment_count)
            self.route_ns += perf_counter_ns() - t
            self.route_n += 1
            return out
        return route_record

    def _wrap_to_line(self, fn):
        def to_line(rec):
            t = perf_counter_ns()
            out = fn(rec)
            self.to_line_ns += perf_counter_ns() - t
            self.to_line_n += 1
            return out
        return to_line

    def _wrap_tick(self, fn):
        def tick(state, now, pipeline_nonempty):
            t = perf_counter_ns()
            out = fn(state, now, pipeline_nonempty)
            self.tick_ns += perf_counter_ns() - t
            self.tick_n += 1
            return out
        return tick

    def _wrap_activated(self, fn):
        def note_activated(now):
            sid = fn(now)
            self.activated_at[sid] = now
            return sid
        return note_activated

    def _wrap_handle_post(self, fn):
        def handle_post(body):
            children0 = self.parse_ns + self.enqueue_ns
            t = perf_counter_ns()
            report = fn(body)
            t1 = perf_counter_ns()
            self_ns = (t1 - t) - (self.parse_ns + self.enqueue_ns - children0)
            self.requests += 1
            rows = report.accepted + report.rejected + report.backpressured
            self.request_rows += rows
            self.request_self_ns += self_ns
            self.accepted += report.accepted
            self.backpressured += report.backpressured
            self.spans.append({
                "name": "ingest.handle_post", "id": f"r{self.requests}",
                "parent": None, "start_ns": t, "end_ns": t1, "self_ns": self_ns,
                "rows": rows, "accepted": report.accepted,
                "backpressured": report.backpressured,
            })
            return report
        return handle_post

    # -- output ----------------------------------------------------------

    def batch_spans(self) -> list[dict]:
        """One span per send window, from the slots' transition history:
        send start to the end of its commit phase."""
        spans = []
        for slot in self.gw.audit_slots:
            cycle = 0
            start = send_end = None
            for tr in slot.history:
                if tr.dst is SlotPhase.SEND:
                    start = tr.at
                elif tr.src is SlotPhase.SEND:
                    send_end = tr.at
                if tr.src is SlotPhase.COMMIT and start is not None:
                    spans.append({
                        "name": "slot.batch", "id": batch_id(slot.slot_id, cycle),
                        "parent": None, "start_us": start, "send_end_us": send_end,
                        "end_us": tr.at, "outcome": tr.dst.value,
                    })
                    start = None
                if tr.dst is SlotPhase.CONNECT:
                    cycle += 1
        return spans

    def write_spans(self, path) -> None:
        """One JSON object per line: requests, drains, then batches."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans + self.batch_spans():
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
