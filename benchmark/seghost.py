"""Segment host process: the workload's mock segment daemons on one
asyncio loop, in a process of their own.

    python3 seghost.py '{"workload": "paced", "seed": 1}'

It prints ``{"ports": [...]}`` once every daemon listens, then answers
one JSON line per command read from stdin:

    mark   start of the measured window: CPU and commit counters reset
    stats  CPU, commit counts and publish timing since ``mark``
    audit  check every committed row against the seeded reference and
           measure each row's visibility latency (see ``audit``)
    stop   stop the daemons; the answer, printed after the loop has
           closed, counts the exceptions its handler saw before and
           after this command

Every ``SegmentStore.publish`` is wrapped to record one monotonic stamp
when it returns, with the range of store lines it made visible.
"""

from __future__ import annotations

import asyncio
import json
import sys
from bisect import bisect_right
from time import perf_counter_ns

from common import cpu_s, median_and_tail, now_ns, send, use_source_tree

use_source_tree()

from gateflow.segment import SegmentDaemon, TxnState  # noqa: E402
from gateflow.slot import route_record  # noqa: E402

from inputs import segment_specs, valid_line  # noqa: E402


class PublishLog:
    """Wraps one store's ``publish``: (stamp_ns, first line, rows) per
    call, plus the time spent inside it."""

    def __init__(self, store) -> None:
        self.entries: list[tuple[int, int, int]] = []
        self.busy_ns = 0
        self.lines = 0
        publish = store.publish

        def timed_publish(txn_id, rows):
            t = perf_counter_ns()
            publish(txn_id, rows)
            stamp = now_ns()
            self.busy_ns += perf_counter_ns() - t
            self.entries.append((stamp, self.lines, len(rows)))
            self.lines += len(rows)

        store.publish = timed_publish


class SegmentHost:
    def __init__(self, job: dict) -> None:
        self.job = job
        self.daemons = [SegmentDaemon(spec) for spec in segment_specs(job["workload"])]
        self.logs = [PublishLog(d.store) for d in self.daemons]
        self.mark_cpu = 0.0
        self.mark_entries = [0] * len(self.daemons)
        self.mark_busy = [0] * len(self.daemons)
        # exceptions that reach the loop's handler, before and after stop
        self.errors: dict[str, list[str]] = {"run": [], "teardown": []}
        self.phase = "run"

    def on_loop_exception(self, loop, context) -> None:
        exc = context.get("exception")
        self.errors[self.phase].append(f"{context.get('message')}: {exc!r}")

    def mark(self) -> dict:
        self.mark_cpu = cpu_s()
        self.mark_entries = [len(log.entries) for log in self.logs]
        self.mark_busy = [log.busy_ns for log in self.logs]
        return {"marked": True}

    def stats(self) -> dict:
        cpu = cpu_s() - self.mark_cpu
        commits = empty = rows = busy = last = 0
        for log, first, busy0 in zip(self.logs, self.mark_entries, self.mark_busy):
            for stamp, _, n in log.entries[first:]:
                commits += 1
                empty += n == 0
                rows += n
                last = max(last, stamp)
            busy += log.busy_ns - busy0
        aborted = sum(
            1 for d in self.daemons for t in d.txns.values() if t.state is TxnState.ABORTED
        )
        return {"cpu_s": cpu, "commits": commits, "empty_commits": empty, "rows": rows,
                "publish_ns": busy, "last_publish_ns": last, "aborted_txns": aborted}

    def audit(self, valid: int, first_seq: list[int], due_ns: list[int]) -> dict:
        """A valid seq below ``valid`` is delivered when exactly one copy
        is committed, byte-equal to ``valid_line(seed, seq)``, on the
        segment ``route_record`` names. ``failed_rows`` counts the seqs
        that were not; ``foreign`` counts committed lines that carry no
        posted seq at all. ``first_seq``/``due_ns`` give each posted
        body's first seq and due time, from which each row's visibility
        latency (due -> publish return) follows."""
        seed = self.job["seed"]
        n_segs = len(self.daemons)
        copies = bytearray(valid)  # intact copies, counted up to 2
        spoiled = bytearray(valid)  # a copy was altered or misrouted
        duplicated = corrupted = foreign = misrouted = 0
        visible_ms = []
        for idx, (daemon, log) in enumerate(zip(self.daemons, self.logs)):
            lines = daemon.store.committed_lines()
            for stamp, start, n in log.entries:
                for line in lines[start:start + n]:
                    fields = line.split(",")
                    try:
                        seq = int(fields[2])
                    except (IndexError, ValueError):
                        seq = -1
                    if not 0 <= seq < valid:
                        foreign += 1
                        continue
                    if line != valid_line(seed, seq):
                        corrupted += 1
                        spoiled[seq] = 1
                        continue
                    if route_record(fields[0], n_segs) != idx:
                        misrouted += 1
                        spoiled[seq] = 1
                    if copies[seq]:
                        duplicated += 1
                        copies[seq] = 2
                        continue
                    copies[seq] = 1
                    body = bisect_right(first_seq, seq) - 1
                    visible_ms.append((stamp - due_ns[body]) / 1e6)
        delivered = sum(1 for c, bad in zip(copies, spoiled) if c == 1 and not bad)
        p50, tail, p, count = median_and_tail(visible_ms)
        return {
            "committed_valid": valid - copies.count(0),
            "failed_rows": valid - delivered,
            "missing": copies.count(0),
            "duplicated": duplicated,
            "corrupted": corrupted,
            "foreign": foreign,
            "misrouted": misrouted,
            "visible_p50_ms": p50,
            "visible_tail_ms": tail,
            "visible_tail_p": p,
            "visible_n": count,
        }

    async def serve(self) -> None:
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(self.on_loop_exception)
        for daemon in self.daemons:
            await daemon.start()
        send({"ports": [d.bound_port for d in self.daemons]})
        reader = asyncio.StreamReader()
        stdin, _ = await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        while True:
            line = await reader.readline()
            cmd = json.loads(line) if line else {"cmd": "stop"}
            if cmd["cmd"] == "stop":
                break
            if cmd["cmd"] == "mark":
                send(self.mark())
            elif cmd["cmd"] == "stats":
                send(self.stats())
            elif cmd["cmd"] == "audit":
                send(self.audit(cmd["valid"], cmd["first_seq"], cmd["due_ns"]))
        stdin.close()
        self.phase = "teardown"
        for daemon in self.daemons:
            await daemon.stop()


def main() -> int:
    host = SegmentHost(json.loads(sys.argv[1]))
    asyncio.run(host.serve())
    # asyncio.run has cancelled and reaped the leftover tasks by now
    send({"run_errors": len(host.errors["run"]),
          "teardown_errors": len(host.errors["teardown"]),
          "errors": (host.errors["run"] + host.errors["teardown"])[:8]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
