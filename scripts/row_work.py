"""Gateway row work per layer, in process: the CPU the live path spends
on each row between an HTTP body and the bytes a segment link is given.

Builds seeded bodies shaped like the ``ceiling`` workload's (posts of
1000 ``seq:int`` lines over 64 devices, 1% malformed, one of each
rejection kind in turn) and feeds them, post by post, through the code
the gateway runs: the ingest side decodes the body and calls
``LineIngestor.handle_post`` into a ``RowFifo``, which validates and
queues the rows in body order; the send side drains that queue with
``drain_up_to`` and hands the runs to ``write_runs``, as the send
window does, with links whose writers keep nothing. Routing rows to
their segments happens there, once per drain, so it shows on the send
side. The two sides alternate after every post, as they do on the live
loop, and each is timed on its own. No socket, HTTP framing or segment
is involved.

The whole feed is repeated ``--repeats`` times with fresh objects, and
the script prints microseconds per row for each side and their sum:
min, median and max over the repeats. It pins itself to one CPU where
``os.sched_setaffinity`` allows it, so that runs on a shared host wait
less often on another core's cache.

    PYTHONPATH=src python scripts/row_work.py --rows 300000 --repeats 7
"""

import argparse
import gc
import os
import random
import statistics
import sys
import time

from gateflow.gateway import DRAIN_ROWS, _SegmentLink, write_runs
from gateflow.ingest import LineIngestor
from gateflow.pipeline import RowFifo
from gateflow.records import Schema

SCHEMA = "seq:int"
DEVICES = 64
POST_LINES = 1000
MALFORMED_P = 0.01
TS_BASE = 1_700_000_000_000_000
QUEUE_CAPACITY = 50_000


def build_bodies(rows: int, seed: int) -> list[bytes]:
    """Posts of ``POST_LINES`` lines, ``rows`` lines in all; a valid
    line is ``d<device>,<timestamp>,<seq>`` and about one in a hundred
    trips a rejection instead."""
    rng = random.Random(seed)
    malformed = (
        lambda k: f",{TS_BASE + k},{k}",  # empty device
        lambda k: f"d{k % DEVICES},{TS_BASE + k}",  # arity
        lambda k: f"d{k % DEVICES},-{k + 1},{k}",  # bad timestamp
        lambda k: f"d{k % DEVICES},{TS_BASE + k},v{k}",  # type
    )
    bodies = []
    seq = bad = 0
    for start in range(0, rows, POST_LINES):
        lines = []
        for _ in range(min(POST_LINES, rows - start)):
            if rng.random() < MALFORMED_P:
                lines.append(malformed[bad % len(malformed)](rng.randrange(1 << 30)))
                bad += 1
            else:
                lines.append(f"d{(seq + seed) % DEVICES},{TS_BASE + seq},{seq}")
                seq += 1
        bodies.append(("\n".join(lines) + "\n").encode())
    return bodies


class NullWriter:
    """Takes what the send window writes and keeps nothing."""

    def write(self, blob) -> None:
        pass


def one_pass(bodies: list[bytes], segments: int) -> tuple[int, int, int]:
    """(rows posted, ingest ns, send ns) for one feed of every body."""
    queue = RowFifo(capacity=QUEUE_CAPACITY)
    ingestor = LineIngestor(queue, Schema.parse_spec(SCHEMA))
    links = [_SegmentLink(f"seg{i}", None, NullWriter()) for i in range(segments)]
    clock = time.perf_counter_ns
    rows = ingest_ns = send_ns = written = 0
    for body in bodies:
        t0 = clock()
        report = ingestor.handle_post(body.decode("utf-8", errors="replace"))
        t1 = clock()
        write_runs(links, queue.drain_up_to(DRAIN_ROWS))
        t2 = clock()
        for link in links:
            # the rows the links were given, every segment's together
            written += sum(blob.count(b"\n") for blob in link.sent)
            link.sent = []  # what a commit does with them
        ingest_ns += t1 - t0
        send_ns += t2 - t1
        rows += report.accepted + report.rejected + report.backpressured
        if report.backpressured or written != ingestor.next_seq:
            raise RuntimeError(f"rows went missing: {report}, {written} written")
    return rows, ingest_ns, send_ns


def pin_to_one_cpu() -> str:
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return "no"
    return f"cpu{cpu}"


def spread(values: list[float]) -> str:
    return (f"min={min(values):.3f} median={statistics.median(values):.3f} "
            f"max={max(values):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=300_000, help="lines posted per repeat")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--segments", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rows < 1 or args.repeats < 1 or args.segments < 1:
        parser.error("--rows, --repeats and --segments must be >= 1")
    pinned = pin_to_one_cpu()
    bodies = build_bodies(args.rows, args.seed)
    ingest, send = [], []
    for _ in range(args.repeats):
        gc.collect()  # start each repeat from the same heap
        rows, ingest_ns, send_ns = one_pass(bodies, args.segments)
        ingest.append(ingest_ns / rows / 1000)
        send.append(send_ns / rows / 1000)
    print(f"rows={args.rows} segments={args.segments} repeats={args.repeats} pinned={pinned}")
    print(f"ingest_us_per_row {spread(ingest)}")
    print(f"send_us_per_row {spread(send)}")
    print(f"total_us_per_row {spread([a + b for a, b in zip(ingest, send)])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
