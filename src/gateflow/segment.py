"""Mock segment daemon: the TCP endpoint a slot streams its batches to.

Wire protocol, one connection per slot-segment pair, newline framed:

    client: BEGIN <txn-id> <table>
    server: READY <txn-id>            (after begin_latency_ms)
    client: <csv-row> ...             (zero or more)
    client: EOF
    server: COMMITTED <txn-id> <n>    (after commit_fixed_ms plus
                                       commit_per_row_us per row)
    server: ERROR <txn-id> <reason>   (duplicate-txn | unknown-txn |
                                       protocol-order)

A line that is exactly ``EOF`` or starts with ``BEGIN `` is a control
line; every other non-empty line is a row. Each control line gets one
reply, and so does each row outside a transaction (an ``ERROR``). While
a transaction is open, each run of rows is decoded and counted as it
arrives, with no reply, so ``EOF`` only hands the rows over to the
commit; empty lines are not rows. Rows stay in the decoded text they
arrived in (``RowText``), one ``str`` per run and not one per row, in
the open transaction and in the store alike, and are split out only
when something reads them.

Rows become query-visible atomically when the commit latency elapses,
never row-by-row; a connection dropped before EOF aborts its
transaction and nothing from it is ever visible. ``stop`` aborts every
open connection, so their transactions too, drops any reply not yet
flushed and waits for every handler (see ``listener``). The latencies
stand in for a real storage engine and are read from the segment's
``SegmentConfig``: ``begin_latency_ms``, ``commit_fixed_ms`` and
``commit_per_row_us``.
"""

from __future__ import annotations

import asyncio
import re
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .config import SegmentConfig
from .listener import Listener

ERR_DUPLICATE = "duplicate-txn"
ERR_UNKNOWN = "unknown-txn"
ERR_ORDER = "protocol-order"

# a control line with the newline before and after it
_CONTROL = re.compile(rb"\n(?:EOF|BEGIN [^\n]*)\n")


class WireFramer:
    """Cuts one connection's byte stream into control lines and the
    runs of other lines between them.

    ``feed`` takes the bytes of one read and returns, in stream order,
    ``(True, line)`` for each control line, without its newline, and
    ``(False, run)`` for each run of other lines, every one of them
    ending in its newline. Only whole lines come out; a partial last
    line waits for the next read.
    """

    def __init__(self) -> None:
        # unconsumed bytes, from the newline that ended the last whole
        # line on, so a control line always has a newline before it
        self._pending = b"\n"

    def feed(self, data: bytes) -> list[tuple[bool, bytes]]:
        buf = self._pending + data
        last = buf.rfind(b"\n")  # buf[0] is a newline, so last >= 0
        self._pending = buf[last:]
        frames: list[tuple[bool, bytes]] = []
        pos = 0  # at the newline that ends the last line consumed
        while pos < last:
            match = _CONTROL.search(buf, pos, last + 1)
            start = match.start() if match else last
            if start > pos:
                frames.append((False, buf[pos + 1:start + 1]))
            if match is None:
                break
            pos = match.end() - 1
            frames.append((True, buf[start + 1:pos]))
        return frames


class TxnState(str, Enum):
    BEGUN = "begun"
    COMMITTED = "committed"
    ABORTED = "aborted"


class RowText:
    """Rows as the decoded text they arrived in: ``runs`` of whole
    lines, each line one row ending in its newline, none empty, and
    ``len`` the number of rows. One ``str`` per run rather than one
    per row keeps a store of millions of rows at a few thousand
    objects: the cyclic garbage collector walks every item of a list
    it examines, and walking a list of row strings stalled the
    segment's event loop for tens of milliseconds."""

    __slots__ = ("runs", "count")

    def __init__(self) -> None:
        self.runs: list[str] = []
        self.count = 0

    @classmethod
    def of(cls, rows: Iterable[str]) -> "RowText":
        """The text of rows given one by one, each without a newline."""
        text = cls()
        rows = list(rows)
        if rows:
            text.runs.append("".join(f"{row}\n" for row in rows))
            text.count = len(rows)
        return text

    def add_run(self, run: bytes) -> None:
        """Append the rows of one run of whole lines; empty lines are
        not rows. No UTF-8 sequence holds a newline byte, so decoding
        run by run gives the text that decoding their join gives."""
        text = run.decode("utf-8", errors="replace")
        if text.startswith("\n") or "\n\n" in text:
            text = "".join(f"{line}\n" for line in text.split("\n") if line)
        if text:
            self.runs.append(text)
            self.count += text.count("\n")

    def __len__(self) -> int:
        return self.count

    def lines(self) -> list[str]:
        """The rows, each without its newline."""
        return "".join(self.runs).split("\n")[:-1]


@dataclass
class SegmentTxn:
    """One transaction a segment has seen: BEGUN while its rows arrive,
    then COMMITTED on EOF or ABORTED when its connection drops first.
    ``rows`` holds the rows received so far, decoded, until the commit
    takes them or the abort drops them."""

    txn_id: str
    state: TxnState = TxnState.BEGUN
    rows: RowText = field(default_factory=RowText)

    def take_rows(self) -> RowText:
        """The received rows; the transaction keeps none of them."""
        rows, self.rows = self.rows, RowText()
        return rows


class SegmentStore:
    """Committed rows of one segment.

    ``publish`` adds a transaction's rows under one lock, and every
    reader takes the same lock, so a reader sees a transaction's rows
    either not at all or completely. Rows are kept as the text runs
    they were published in (see ``RowText``). The latest-row index is
    built on read: ``visibility_probe`` first folds in the runs
    published since the last probe. Probe methods may be called from
    any thread.
    """

    def __init__(self, dump_path: str | None = None) -> None:
        self._lock = threading.Lock()
        self._runs: list[str] = []
        self._rows = 0
        self._latest: dict[str, tuple[int, tuple[str, ...]]] = {}
        self._indexed = 0  # leading runs folded into _latest
        self._txn_rows: dict[str, int] = {}
        self._dump = open(dump_path, "a", encoding="utf-8") if dump_path else None
        self.last_publish_us = 0  # monotonic stamp of the latest commit

    def publish(self, txn_id: str, rows: RowText | Iterable[str]) -> None:
        """Make a transaction's rows visible, all at once."""
        if not isinstance(rows, RowText):
            rows = RowText.of(rows)
        with self._lock:
            self._runs.extend(rows.runs)
            self._rows += len(rows)
            self._txn_rows[txn_id] = len(rows)
            self.last_publish_us = time.monotonic_ns() // 1000
            if self._dump is not None:
                self._dump.writelines(f"{txn_id},{line}\n" for line in rows.lines())
                self._dump.flush()

    def visibility_probe(self, device_id: str) -> Optional[tuple[int, tuple[str, ...]]]:
        """Latest committed (timestamp, values) for a device, or None.
        Of rows with equal timestamps the later commit wins; a row
        without an integer timestamp is never the latest."""
        with self._lock:
            latest = self._latest
            for line in "".join(self._runs[self._indexed:]).split("\n")[:-1]:
                fields = line.split(",")
                try:
                    ts = int(fields[1])
                except (IndexError, ValueError):
                    continue
                cur = latest.get(fields[0])
                if cur is None or ts >= cur[0]:
                    latest[fields[0]] = (ts, tuple(fields[2:]))
            self._indexed = len(self._runs)
            return latest.get(device_id)

    def txn_rows(self, txn_id: str) -> int:
        """Committed row count of a transaction; 0 while uncommitted."""
        with self._lock:
            return self._txn_rows.get(txn_id, 0)

    def committed_lines(self) -> list[str]:
        with self._lock:
            return "".join(self._runs).split("\n")[:-1]

    @property
    def total_rows(self) -> int:
        with self._lock:
            return self._rows

    def close(self) -> None:
        if self._dump is not None:
            self._dump.close()
            self._dump = None


class SegmentDaemon(Listener):
    """One listening segment. Host several of these in one process to
    emulate a multi-instance deployment on a single node."""

    def __init__(self, spec: SegmentConfig, dump_path: str | None = None) -> None:
        super().__init__(spec.host, spec.port)
        self.spec = spec
        self.store = SegmentStore(dump_path)
        self.txns: dict[str, SegmentTxn] = {}
        # a segment applies one commit at a time, like a single-writer
        # storage engine; transaction starts stay concurrent
        self._commit_lock = asyncio.Lock()

    async def stop(self) -> None:
        await super().stop()
        self.store.close()

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        spec = self.spec
        active: SegmentTxn | None = None
        last_txn = "-"
        try:
            framer = WireFramer()
            while chunk := await reader.read(65536):
                for control, data in framer.feed(chunk):
                    if not control and active is not None:
                        active.rows.add_run(data)
                        continue
                    parts = data.decode("utf-8", errors="replace").split(" ") if control else []
                    if not control:
                        reason = ERR_ORDER if last_txn != "-" else ERR_UNKNOWN
                        strays = sum(1 for raw in data.split(b"\n") if raw)
                        reply = f"ERROR {last_txn} {reason}\n" * strays
                    elif data == b"EOF" and active is None:
                        reply = f"ERROR {last_txn} {ERR_ORDER}\n"
                    elif data == b"EOF":
                        rows = active.take_rows()
                        async with self._commit_lock:
                            await asyncio.sleep(
                                (spec.commit_fixed_ms * 1000
                                 + len(rows) * spec.commit_per_row_us) / 1e6)
                            # active stays set until publish returns, so
                            # a cancel during the sleep aborts the txn
                            self.store.publish(active.txn_id, rows)
                        active.state = TxnState.COMMITTED
                        reply = f"COMMITTED {active.txn_id} {len(rows)}\n"
                        active = None
                    elif len(parts) != 3 or not all(parts):
                        reply = f"ERROR - {ERR_ORDER}\n"
                    elif parts[1] in self.txns:
                        reply = f"ERROR {parts[1]} {ERR_DUPLICATE}\n"
                    elif active is not None:
                        reply = f"ERROR {parts[1]} {ERR_ORDER}\n"
                    else:
                        last_txn = parts[1]
                        active = self.txns[last_txn] = SegmentTxn(last_txn)
                        await asyncio.sleep(spec.begin_latency_ms / 1000)
                        reply = f"READY {last_txn}\n"
                    # one write and one drain per frame: a peer that
                    # vanished stops the handler before the next frame
                    writer.write(reply.encode())
                    await writer.drain()
        finally:
            if active is not None:
                # dropped or stopped mid-transaction: nothing becomes
                # visible, and the daemon keeps the txn id but not its rows
                active.state = TxnState.ABORTED
                active.rows = RowText()


async def start_cluster(
    specs: list[SegmentConfig], dump_dir: str | None = None
) -> list[SegmentDaemon]:
    """Start one daemon per segment spec; caller owns shutdown."""
    daemons = []
    for spec in specs:
        dump = f"{dump_dir}/{spec.id}.dump" if dump_dir else None
        daemon = SegmentDaemon(spec, dump)
        await daemon.start()
        daemons.append(daemon)
    return daemons
