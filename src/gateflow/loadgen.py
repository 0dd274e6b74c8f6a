"""Load generator: posts CSV lines at the gateway over HTTP/1.1.

Two sources: replay of an existing file, or a synthetic stream of
sequence-numbered rows (one int value column carrying the sequence
number, so an end-to-end audit can check every row arrived exactly
once). Runs are paced to a target rows/sec when asked, otherwise go as
fast as the gateway accepts.

On a 429 the response's ``backpressured`` count is always the tail of
the posted body, so retrying means re-posting exactly those last lines;
nothing is ever double-posted.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from itertools import chain

RETRY_BUDGET = 200  # re-posts of one batch's backpressured tail
RETRY_DELAY_S = 0.01
REPORT_KEYS = ("accepted", "rejected", "backpressured")


@dataclass
class LoadgenReport:
    posted: int = 0
    accepted: int = 0
    rejected: int = 0
    retried: int = 0
    unresolved: int = 0  # still backpressured after the retry budget
    transport_errors: int = 0
    elapsed_s: float = 0.0

    @property
    def achieved_rows_per_s(self) -> float:
        return self.accepted / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "posted": self.posted,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "retried": self.retried,
            "unresolved": self.unresolved,
            "transport_errors": self.transport_errors,
            "elapsed_s": round(self.elapsed_s, 3),
            "achieved_rows_per_s": round(self.achieved_rows_per_s, 1),
        }


def synthetic_lines(total: int, devices: int = 16, start_seq: int = 0):
    """dev<k>,<timestamp>,<seq> rows; seq is the audit key."""
    base_ts = time.time_ns() // 1000
    for seq in range(start_seq, start_seq + total):
        yield f"dev{seq % devices},{base_ts + seq},{seq}"


@dataclass
class LoadGenerator:
    host: str
    port: int
    batch_lines: int = 1000
    rate: float | None = None  # rows/sec; None = unpaced
    report: LoadgenReport = field(default_factory=LoadgenReport)

    def __post_init__(self) -> None:
        if self.batch_lines < 1:
            raise ValueError("batch_lines must be >= 1")
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        return self._conn

    def _post(self, lines: list[str]) -> dict | None:
        """The gateway's report on posting ``lines``, or None after a
        transport error, which drops the connection. A reply that is not
        HTTP, or not an object of non-negative integer ``REPORT_KEYS``
        with ``backpressured`` at most ``len(lines)``, is one too."""
        try:
            conn = self._connection()
            # the gateway reads bodies as UTF-8; http.client would
            # encode a str body as Latin-1
            body = ("\n".join(lines) + "\n").encode()
            conn.request("POST", "/ingest", body, {"Content-Type": "text/plain"})
            report = json.loads(conn.getresponse().read())
        except (ConnectionError, OSError, http.client.HTTPException, ValueError):
            report = None  # ValueError: not JSON, or not UTF-8
        if (isinstance(report, dict)
                and all(type(report.get(k)) is int and report[k] >= 0 for k in REPORT_KEYS)
                and report["backpressured"] <= len(lines)):
            return report
        self.report.transport_errors += 1
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        return None

    def _post_batch(self, lines: list[str]) -> None:
        """Post a batch, re-posting any backpressured tail."""
        pending = lines
        retries = 0
        while pending:
            result = self._post(pending)
            if result is None:
                self.report.unresolved += len(pending)
                return
            self.report.posted += len(pending)
            self.report.accepted += result["accepted"]
            self.report.rejected += result["rejected"]
            tail = result["backpressured"]
            if tail == 0:
                return
            self.report.posted -= tail  # the tail goes around again
            pending = pending[len(pending) - tail:]
            retries += 1
            self.report.retried += tail
            if retries > RETRY_BUDGET:
                self.report.unresolved += tail
                return
            time.sleep(RETRY_DELAY_S)

    def run(self, lines_iter) -> LoadgenReport:
        start = time.monotonic()
        batch: list[str] = []
        sent = 0
        # the gateway counts lines as str.splitlines does, so a line
        # with another break in it goes out as the lines the gateway
        # sees: a backpressured tail then names lines of this batch
        for line in chain.from_iterable(map(str.splitlines, lines_iter)):
            batch.append(line)
            if len(batch) >= self.batch_lines:
                self._post_batch(batch)
                sent += len(batch)
                batch = []
                if self.rate:
                    target = start + sent / self.rate
                    delay = target - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
        if batch:
            self._post_batch(batch)
        self.report.elapsed_s = time.monotonic() - start
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        return self.report


def run_loadgen(
    host: str,
    port: int,
    *,
    file: str | None = None,
    rows: int | None = None,
    rate: float | None = None,
    duration_s: float | None = None,
    devices: int = 16,
    batch_lines: int = 1000,
) -> LoadgenReport:
    """File replay when ``file`` is given, else a synthetic run of
    ``rows`` rows (or rate x duration)."""
    if devices < 1:
        raise ValueError("devices must be >= 1")
    gen = LoadGenerator(host, port, batch_lines=batch_lines, rate=rate)
    if file is not None:
        with open(file, encoding="utf-8") as fh:
            return gen.run(line.rstrip("\n") for line in fh if line.strip())
    if rows is None:
        if rate is None or duration_s is None:
            raise ValueError("synthetic mode needs rows, or rate and duration")
        rows = int(rate * duration_s)
    return gen.run(synthetic_lines(rows, devices))
