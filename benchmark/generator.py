"""Load generator process: posts pre-built bodies to the gateway over
one keep-alive HTTP connection.

    python3 generator.py '{"workload": "ceiling", "seed": 1, "seconds": 10}'

It builds every body before it reports ``ready``, then runs one pass per
``{"cmd": "go", "port": P}`` line on stdin and answers each with a
report line; ``{"cmd": "exit"}`` ends it. ``ceiling`` is a closed loop:
the next body goes out when the previous one is answered, until the
run's seconds are up. ``paced`` is an open loop: each body is due at
its scheduled offset and goes out then, or as soon as the connection is
free if the generator is late. A 429 answer re-posts exactly the
backpressured tail, as ``LoadGenerator._post_batch`` does, so no row is
posted twice.
"""

from __future__ import annotations

import http.client
import json
import sys
import time

from common import cpu_s, median_and_tail, now_ns, send, use_source_tree

use_source_tree()

from inputs import Body, bodies_for  # noqa: E402

RETRY_BUDGET = 200
RETRY_DELAY_S = 0.01
# the open-loop schedule starts this long after ``go``
LEAD_NS = 20_000_000


class Poster:
    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None
        self.accepted = self.rejected = self.retried = 0
        self.unresolved = self.transport_errors = 0

    def connect(self) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        self.conn.connect()

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def _post(self, data: bytes) -> dict | None:
        try:
            if self.conn is None:
                self.connect()
            self.conn.request("POST", "/ingest", data, {"Content-Type": "text/plain"})
            resp = self.conn.getresponse()
            return json.loads(resp.read())
        except (ConnectionError, OSError, ValueError, http.client.HTTPException):
            self.transport_errors += 1
            self.close()
            return None

    def post_body(self, body: Body) -> None:
        """Post one body, then re-post its backpressured tails."""
        data = body.data  # always the rows still pending
        retries = 0
        while True:
            result = self._post(data)
            if result is None:
                self.unresolved += data.count(b"\n")
                return
            self.accepted += result["accepted"]
            self.rejected += result["rejected"]
            tail = result["backpressured"]
            if tail == 0:
                return
            retries += 1
            if retries > RETRY_BUDGET:
                self.unresolved += tail
                return
            self.retried += tail
            time.sleep(RETRY_DELAY_S)
            data = b"\n".join(data.split(b"\n")[-tail - 1:-1]) + b"\n"


def run_pass(workload: str, bodies: list[Body], port: int, seconds: float) -> dict:
    poster = Poster(port)
    poster.connect()
    cpu0 = cpu_s()
    start = now_ns()
    closed = workload == "ceiling"
    t0 = start + (0 if closed else LEAD_NS)
    deadline = start + int(seconds * 1e9)
    posts = []  # [body index, due_ns, sent_ns, done_ns]
    late_ms = []
    for idx, body in enumerate(bodies):
        if closed:
            if now_ns() >= deadline:
                break
            due = now_ns()
        else:
            due = t0 + body.due_us * 1000
            wait = due - now_ns()
            if wait > 0:
                time.sleep(wait / 1e9)
        sent = now_ns()
        poster.post_body(body)
        done = now_ns()
        posts.append((idx, due, sent, done))
        late_ms.append(max(0, sent - due) / 1e6)
    poster.close()
    cpu = cpu_s() - cpu0
    posted = bodies[: len(posts)]
    _, late_p99, late_p, _ = median_and_tail(late_ms)
    return {
        "posts": posts,
        "bodies_posted": len(posts),
        "rows_posted": sum(b.valid + b.malformed for b in posted),
        "valid_posted": sum(b.valid for b in posted),
        "malformed_posted": sum(b.malformed for b in posted),
        "first_seq": [b.first_seq for b in posted],
        "accepted": poster.accepted,
        "rejected": poster.rejected,
        "retried_rows": poster.retried,
        "unresolved_rows": poster.unresolved,
        "transport_errors": poster.transport_errors,
        "late_tail_ms": late_p99,
        "late_tail_p": late_p,
        "late_max_ms": max(late_ms, default=0.0),
        "ran_out": closed and len(posts) == len(bodies),
        "cpu_s": cpu,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    t = time.perf_counter()
    bodies = bodies_for(job["workload"], job["seed"], job["seconds"])
    send({"ready": len(bodies), "build_s": time.perf_counter() - t})
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "exit":
            break
        send({"report": run_pass(job["workload"], bodies, cmd["port"], job["seconds"])})
    return 0


if __name__ == "__main__":
    sys.exit(main())
