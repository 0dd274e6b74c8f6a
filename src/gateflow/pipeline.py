"""FIFOs between the ingest listener and the sending slot.

``RowFifo`` is the live gateway's queue: a deque of ``Run``s, each a
stretch of one post's rows encoded as one blob in body order, bounded
in rows, for producers and a consumer that share one
asyncio event loop. An optional ``on_fill`` callback hears each time
the queue stops being empty; the gateway wakes its sender from there.

``LockFreeQueue`` is the reproduced multi-producer multi-consumer
design, kept as the reference the queue contract is tested against. It
is the two-pointer linked-list queue built on single-word
compare-and-swap (Michael & Scott, PODC 1996): head and tail each live
in a versioned reference and every successful swap bumps a
modification counter, so a swap presented with a stale counter fails
even when the node reference matches (the classic reuse hazard).
CPython has no hardware CAS, so the primitive emulates one word with a
tuple swapped under a private lock; readers load the tuple without
locking, which the GIL makes atomic. All higher-level lock-freedom
claims are relative to that primitive.

Both share one contract, with a run standing for its rows in
``RowFifo``: ``enqueue`` answers BACKPRESSURE instead of growing past
the capacity, ``dequeue``/``drain_up_to`` take from the head, and
``approx_len`` is exact when nothing is in flight. ``LockFreeQueue``
also has ``extend``, which stops at the first refusal.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from enum import Enum
from typing import Any, Callable, Iterable, NamedTuple


class EnqueueResult(Enum):
    ACCEPTED = "accepted"
    BACKPRESSURE = "backpressure"


class VersionedRef:
    """A reference plus a monotonically increasing modification counter.

    ``load`` returns the (node, counter) pair that must be handed back
    to ``compare_and_swap``; the swap succeeds only if *both* still
    match. Counters never run backwards, so a node that was removed and
    re-linked cannot satisfy a stale expectation.
    """

    __slots__ = ("_state", "_lock")

    def __init__(self, node: Any = None) -> None:
        self._state = (node, 0)
        self._lock = threading.Lock()

    def load(self) -> tuple[Any, int]:
        return self._state

    def compare_and_swap(self, expected_node: Any, expected_counter: int, new_node: Any) -> bool:
        with self._lock:
            node, counter = self._state
            if node is expected_node and counter == expected_counter:
                self._state = (new_node, counter + 1)
                return True
            return False


class _Node:
    __slots__ = ("payload", "next")

    def __init__(self, payload: Any) -> None:
        self.payload = payload
        self.next = VersionedRef(None)


class LockFreeQueue:
    """FIFO safe for any number of producer and consumer threads.

    ``capacity=None`` makes the queue unbounded. With a capacity set,
    ``enqueue`` returns BACKPRESSURE instead of growing past it; the
    bound is enforced by reserving space before linking the node, so
    the element count can never overshoot.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be non-negative or None")
        dummy = _Node(None)
        self._head = VersionedRef(dummy)
        self._tail = VersionedRef(dummy)
        self._capacity = capacity
        self._reserved = 0
        self._reserve_lock = threading.Lock()

    # -- producers ---------------------------------------------------

    def enqueue(self, item: Any) -> EnqueueResult:
        if item is None:
            raise ValueError("queue items may not be None")
        if self._capacity is not None:
            with self._reserve_lock:
                if self._reserved >= self._capacity:
                    return EnqueueResult.BACKPRESSURE
                self._reserved += 1
        node = _Node(item)
        tail_ref = self._tail
        while True:
            tail, tcnt = tail_ref.load()
            nxt, ncnt = tail.next.load()
            if (tail, tcnt) != tail_ref.load():
                continue
            if nxt is None:
                if tail.next.compare_and_swap(None, ncnt, node):
                    # swing tail; a concurrent helper may have done it
                    tail_ref.compare_and_swap(tail, tcnt, node)
                    return EnqueueResult.ACCEPTED
            else:
                # tail is lagging: help it forward and retry
                tail_ref.compare_and_swap(tail, tcnt, nxt)

    # -- consumers ---------------------------------------------------

    def dequeue(self) -> Any | None:
        head_ref = self._head
        tail_ref = self._tail
        while True:
            head, hcnt = head_ref.load()
            tail, tcnt = tail_ref.load()
            nxt, _ = head.next.load()
            if (head, hcnt) != head_ref.load():
                continue
            if head is tail:
                if nxt is None:
                    return None
                tail_ref.compare_and_swap(tail, tcnt, nxt)
            else:
                value = nxt.payload
                if head_ref.compare_and_swap(head, hcnt, nxt):
                    nxt.payload = None  # new dummy should not pin the item
                    if self._capacity is not None:
                        with self._reserve_lock:
                            self._reserved -= 1
                    return value

    def drain_up_to(self, max_items: int) -> list:
        """Dequeue at most ``max_items``; equivalent to repeated dequeue."""
        if max_items < 0:
            raise ValueError("max_items must be >= 0")
        out = []
        append = out.append
        dequeue = self.dequeue
        for _ in range(max_items):
            item = dequeue()
            if item is None:
                break
            append(item)
        return out

    # -- observers ---------------------------------------------------

    def approx_len(self) -> int:
        """Cheap size estimate: exact when quiescent, otherwise off by
        at most the number of in-flight operations."""
        if self._capacity is not None:
            return self._reserved
        # every enqueue bumps the tail counter exactly once (possibly
        # via a helper), every dequeue bumps the head counter once
        _, tcnt = self._tail.load()
        _, hcnt = self._head.load()
        return max(0, tcnt - hcnt)

    def extend(self, items: Iterable[Any]) -> int:
        """Enqueue items until exhausted or backpressured; returns count."""
        n = 0
        for item in items:
            if self.enqueue(item) is EnqueueResult.BACKPRESSURE:
                break
            n += 1
        return n


class Run(NamedTuple):
    """A stretch of accepted rows on their way to the segments.

    ``blob`` holds the rows encoded, each ended by "\\n", in the order
    they were accepted; they are not routed yet: the sending slot
    splits what it drains into one blob per segment. ``rows`` counts
    them, and ``seq`` is the accept number of the first row, or -1 for
    rows put back after a failed send."""

    blob: bytes
    rows: int
    seq: int


class RowFifo:
    """A queue of ``Run``s for one event loop, bounded in rows; not
    thread-safe.

    The live gateway validates, queues and sends on a single asyncio
    thread, where the compare-and-swap machinery of ``LockFreeQueue``
    buys nothing. A post's rows travel as runs, so the queue costs a
    deque operation per run, not per row. ``queue_capacity`` and
    ``approx_len`` count rows; ``room`` tells a producer how many more
    rows fit, so it can cut a run to fit. The first run of a non-empty
    stretch, whether ``enqueue`` or ``requeue`` puts it in, calls
    ``on_fill``; the rest of the stretch does not.
    """

    def __init__(self, capacity: int | None = None,
                 on_fill: Callable[[], None] | None = None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be non-negative or None")
        self._runs: deque[Run] = deque()
        self._rows = 0
        self._limit = sys.maxsize if capacity is None else capacity
        self.on_fill = on_fill

    def room(self) -> int:
        """How many more rows ``enqueue`` takes."""
        return max(0, self._limit - self._rows)

    def enqueue(self, run: Run) -> EnqueueResult:
        """Queue a whole run, or refuse it when its rows do not fit."""
        if run is None:
            raise ValueError("queue items may not be None")
        if run.rows > self._limit - self._rows:
            return EnqueueResult.BACKPRESSURE
        runs = self._runs
        runs.append(run)
        self._rows += run.rows
        if len(runs) == 1:
            self._filled()
        return EnqueueResult.ACCEPTED

    def requeue(self, runs: list[Run]) -> None:
        """Put already-admitted runs back at the head, in order.

        The capacity does not apply: these rows were accepted once, and
        refusing them now would lose them.
        """
        was_empty = not self._runs
        self._runs.extendleft(reversed(runs))
        self._rows += sum(run.rows for run in runs)
        if runs and was_empty:
            self._filled()

    def _filled(self) -> None:
        if self.on_fill is not None:
            self.on_fill()

    def dequeue(self) -> Run | None:
        if not self._runs:
            return None
        run = self._runs.popleft()
        self._rows -= run.rows
        return run

    def drain_up_to(self, max_rows: int) -> list[Run]:
        """Take whole runs from the head until they hold ``max_rows``
        rows or the queue is empty; the last run taken may carry the
        count past ``max_rows``."""
        if max_rows < 0:
            raise ValueError("max_rows must be >= 0")
        runs = self._runs
        if max_rows >= self._rows:
            out = list(runs)
            runs.clear()
            self._rows = 0
            return out
        out = []
        taken = 0
        popleft = runs.popleft
        while taken < max_rows:
            run = popleft()
            out.append(run)
            taken += run.rows
        self._rows -= taken
        return out

    def approx_len(self) -> int:
        """Rows queued; exact, as there are no in-flight operations on
        one loop."""
        return self._rows
