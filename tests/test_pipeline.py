"""Queue unit tests, model-based property suites, and the staged
reuse-hazard schedule that must fail its compare-and-swap.

The contract tests run against ``LockFreeQueue``, the reproduced
reference. Each ``...RowFifo`` class holds the same tests for
``RowFifo``, the gateway's single-loop FIFO of runs, where a run
stands for its rows: the capacity, ``approx_len`` and ``drain_up_to``
count rows, and a run goes in and comes out whole."""

import threading
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateflow.pipeline import EnqueueResult, LockFreeQueue, RowFifo, Run, VersionedRef


def run(tag, rows=1, seq=0):
    """A run of ``rows`` rows, told apart by ``tag``."""
    return Run("".join(f"{tag},{i},{i}\n" for i in range(rows)).encode(), rows, seq)


def drain_all(q):
    out = []
    while True:
        item = q.dequeue()
        if item is None:
            return out
        out.append(item)


class TestBasics:
    queue_cls = LockFreeQueue

    def test_fifo_four_chars(self):
        q = self.queue_cls()
        for ch in "MATR":
            assert q.enqueue(ch) is EnqueueResult.ACCEPTED
        assert q.approx_len() == 4
        assert drain_all(q) == ["M", "A", "T", "R"]

    def test_dequeue_empty(self):
        assert self.queue_cls().dequeue() is None

    def test_round_trip(self):
        q = self.queue_cls()
        q.enqueue("x")
        assert q.dequeue() == "x"
        assert q.dequeue() is None

    def test_single_producer_order(self):
        q = self.queue_cls()
        for i in range(1, 1001):
            q.enqueue(i)
        assert drain_all(q) == list(range(1, 1001))

    def test_none_rejected(self):
        with pytest.raises(ValueError):
            self.queue_cls().enqueue(None)


class TestBasicsRowFifo:
    def test_fifo_four_chars(self):
        q = RowFifo()
        runs = [run(ch, rows) for rows, ch in enumerate("MATR", start=1)]
        for r in runs:
            assert q.enqueue(r) is EnqueueResult.ACCEPTED
        assert q.approx_len() == 10
        assert drain_all(q) == runs

    def test_dequeue_empty(self):
        assert RowFifo().dequeue() is None

    def test_round_trip(self):
        q = RowFifo()
        q.enqueue(run("x", 3))
        assert q.dequeue() == run("x", 3)
        assert q.dequeue() is None
        assert q.approx_len() == 0

    def test_single_producer_order(self):
        q = RowFifo()
        runs = [run(f"d{i}", 1 + i % 4, i) for i in range(1, 1001)]
        for r in runs:
            q.enqueue(r)
        assert q.approx_len() == sum(r.rows for r in runs)
        assert drain_all(q) == runs

    def test_none_rejected(self):
        with pytest.raises(ValueError):
            RowFifo().enqueue(None)


class TestCapacity:
    queue_cls = LockFreeQueue

    def test_zero_capacity_backpressures(self):
        q = self.queue_cls(capacity=0)
        assert q.enqueue("a") is EnqueueResult.BACKPRESSURE
        assert q.approx_len() == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            self.queue_cls(capacity=-1)

    def test_backpressure_at_capacity(self):
        q = self.queue_cls(capacity=3)
        for i in range(3):
            assert q.enqueue(i) is EnqueueResult.ACCEPTED
        assert q.enqueue(99) is EnqueueResult.BACKPRESSURE
        # a dequeue frees exactly one seat
        assert q.dequeue() == 0
        assert q.enqueue(3) is EnqueueResult.ACCEPTED
        assert q.enqueue(4) is EnqueueResult.BACKPRESSURE
        assert drain_all(q) == [1, 2, 3]

    def test_extend_stops_at_capacity(self):
        q = self.queue_cls(capacity=2)
        assert q.extend(iter(range(5))) == 2
        assert drain_all(q) == [0, 1]


class TestCapacityRowFifo:
    def test_zero_capacity_backpressures(self):
        q = RowFifo(capacity=0)
        assert q.room() == 0
        assert q.enqueue(run("a")) is EnqueueResult.BACKPRESSURE
        assert q.approx_len() == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            RowFifo(capacity=-1)

    def test_backpressure_at_capacity(self):
        # the capacity counts rows, and a run goes in whole or not at all
        q = RowFifo(capacity=5)
        assert q.enqueue(run("a", 2)) is EnqueueResult.ACCEPTED
        assert q.enqueue(run("b", 2)) is EnqueueResult.ACCEPTED
        assert q.enqueue(run("c", 2)) is EnqueueResult.BACKPRESSURE
        assert q.enqueue(run("d", 1)) is EnqueueResult.ACCEPTED
        assert q.enqueue(run("e", 1)) is EnqueueResult.BACKPRESSURE
        # a dequeue frees the rows of the run it takes
        assert q.dequeue() == run("a", 2)
        assert q.enqueue(run("f", 3)) is EnqueueResult.BACKPRESSURE
        assert q.enqueue(run("f", 2)) is EnqueueResult.ACCEPTED
        assert q.enqueue(run("g", 1)) is EnqueueResult.BACKPRESSURE
        assert drain_all(q) == [run("b", 2), run("d", 1), run("f", 2)]

    def test_room_counts_free_rows(self):
        # what a producer cuts its run to
        q = RowFifo(capacity=5)
        assert q.room() == 5
        q.enqueue(run("a", 3))
        assert q.room() == 2
        q.requeue([run("b", 4)])  # past the capacity: no room, not less
        assert q.room() == 0 and q.approx_len() == 7
        q.drain_up_to(4)
        assert q.room() == 2
        assert RowFifo().room() > 1 << 40


class TestDrain:
    queue_cls = LockFreeQueue

    def test_underfull(self):
        q = self.queue_cls()
        q.extend([1, 2, 3])
        assert q.drain_up_to(10) == [1, 2, 3]

    def test_partial_preserves_rest(self):
        q = self.queue_cls()
        q.extend(range(10))
        assert q.drain_up_to(4) == [0, 1, 2, 3]
        assert drain_all(q) == [4, 5, 6, 7, 8, 9]

    def test_empty(self):
        assert self.queue_cls().drain_up_to(5) == []


class TestDrainRowFifo:
    def test_underfull(self):
        q = RowFifo()
        runs = [run("a", 1), run("b", 2), run("c", 3)]
        for r in runs:
            q.enqueue(r)
        assert q.drain_up_to(10) == runs
        assert q.approx_len() == 0

    def test_partial_preserves_rest(self):
        # whole runs until the rows taken reach the bound: the last one
        # may pass it
        q = RowFifo()
        runs = [run(f"d{i}", i) for i in range(1, 5)]
        for r in runs:
            q.enqueue(r)
        assert q.drain_up_to(2) == runs[:2]
        assert q.approx_len() == 7
        assert q.drain_up_to(3) == runs[2:3]
        assert q.drain_up_to(0) == []
        assert q.approx_len() == 4
        assert drain_all(q) == runs[3:]

    def test_empty(self):
        assert RowFifo().drain_up_to(5) == []


class TestApproxLen:
    queue_cls = LockFreeQueue

    def test_fresh(self):
        assert self.queue_cls().approx_len() == 0

    def test_quiescent_counts(self):
        q = self.queue_cls()
        for i in range(5):
            q.enqueue(i)
        assert q.approx_len() == 5
        q.dequeue()
        q.dequeue()
        assert q.approx_len() == 3

    def test_bounded_variant(self):
        q = self.queue_cls(capacity=8)
        for i in range(5):
            q.enqueue(i)
        q.dequeue()
        assert q.approx_len() == 4


class TestApproxLenRowFifo:
    def test_fresh(self):
        assert RowFifo().approx_len() == 0

    def test_quiescent_counts(self):
        q = RowFifo()
        for i in range(5):
            q.enqueue(run(f"d{i}", i + 1))
        assert q.approx_len() == 15
        q.dequeue()
        q.dequeue()
        assert q.approx_len() == 12

    def test_bounded_variant(self):
        q = RowFifo(capacity=8)
        for i in range(5):
            q.enqueue(run(f"d{i}", 1 + i % 2))
        assert q.approx_len() == 7
        q.dequeue()
        assert q.approx_len() == 6


# the queue against a deque oracle under arbitrary op sequences
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("enq"), st.integers(0, 999)),
        st.tuples(st.just("deq"), st.just(0)),
        st.tuples(st.just("drain"), st.integers(1, 5)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_ops, capacity=st.one_of(st.none(), st.integers(0, 6)))
def test_matches_deque_model(ops, capacity):
    q = LockFreeQueue(capacity=capacity)
    model = deque()
    for op, arg in ops:
        if op == "enq":
            got = q.enqueue(arg)
            if capacity is not None and len(model) >= capacity:
                assert got is EnqueueResult.BACKPRESSURE
            else:
                assert got is EnqueueResult.ACCEPTED
                model.append(arg)
        elif op == "deq":
            expected = model.popleft() if model else None
            assert q.dequeue() == expected
        else:
            expected = [model.popleft() for _ in range(min(arg, len(model)))]
            assert q.drain_up_to(arg) == expected
        assert q.approx_len() == len(model)
    assert drain_all(q) == list(model)


# RowFifo against a deque of runs: "enq" and "requeue" carry a row count
_run_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["enq", "requeue"]), st.integers(1, 4)),
        st.tuples(st.just("deq"), st.just(0)),
        st.tuples(st.just("drain"), st.integers(0, 6)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_run_ops, capacity=st.one_of(st.none(), st.integers(0, 8)))
def test_row_fifo_matches_run_model(ops, capacity):
    q = RowFifo(capacity=capacity)
    model = deque()
    for k, (op, arg) in enumerate(ops):
        rows = sum(r.rows for r in model)
        if op == "enq":
            item = run(f"d{k}", arg, k)
            got = q.enqueue(item)
            if capacity is not None and rows + arg > capacity:
                assert got is EnqueueResult.BACKPRESSURE
            else:
                assert got is EnqueueResult.ACCEPTED
                model.append(item)
        elif op == "requeue":
            item = run(f"d{k}", arg, -1)
            q.requeue([item])
            model.appendleft(item)
        elif op == "deq":
            assert q.dequeue() == (model.popleft() if model else None)
        else:
            expected = []
            while model and sum(r.rows for r in expected) < arg:
                expected.append(model.popleft())
            assert q.drain_up_to(arg) == expected
        rows = sum(r.rows for r in model)
        assert q.approx_len() == rows
        if capacity is not None:
            assert q.room() == max(0, capacity - rows)
    assert drain_all(q) == list(model)


def test_requeue_goes_to_the_head_past_capacity():
    q = RowFifo(capacity=3)
    q.enqueue(run("c", 2))
    q.requeue([run("a", 1), run("b", 2)])
    assert q.approx_len() == 5
    assert q.enqueue(run("e")) is EnqueueResult.BACKPRESSURE
    assert drain_all(q) == [run("a", 1), run("b", 2), run("c", 2)]


class TestRowFifoWaiter:
    """The queue's waiter is its ``on_fill`` callback, which the gateway
    points at the sender's wake: it hears the first run of each
    non-empty stretch, and not the rest of the stretch."""

    @pytest.mark.parametrize(
        "fill, rows",
        [
            pytest.param(lambda q: q.enqueue(run("r")), 1, id="enqueue"),
            pytest.param(lambda q: q.enqueue(run("r", 3)), 3, id="run"),
            pytest.param(lambda q: q.requeue([run("r"), run("s", 2)]), 3, id="requeue"),
        ],
    )
    def test_each_way_in_wakes_a_pending_wait(self, fill, rows):
        fills = []
        q = RowFifo(capacity=8, on_fill=lambda: fills.append(q.approx_len()))
        fill(q)
        assert fills == [rows]  # once, however many runs and rows went in
        fill(q)  # the queue is not empty: no call
        assert fills == [rows]
        assert q.approx_len() > rows

    def test_on_fill_hears_each_end_of_an_empty_stretch(self):
        fills = []
        q = RowFifo(capacity=4, on_fill=lambda: fills.append(q.approx_len()))
        q.enqueue(run("a", 2))
        q.requeue([run("c")])  # the queue was not empty
        assert fills == [2]
        q.drain_up_to(10)
        q.requeue([])  # nothing put back
        q.requeue([run("d"), run("e")])
        assert fills == [2, 2]
        q.drain_up_to(10)
        q.enqueue(run("f"))
        assert fills == [2, 2, 1]


class TestReuseHazard:
    """A stale modification counter must fail the swap even when the
    node reference matches (the remove-and-reinsert hazard)."""

    def test_versioned_ref_stale_counter(self):
        node_a = object()
        node_b = object()
        ref = VersionedRef(node_a)
        stale_node, stale_counter = ref.load()
        # interleaved writer: A -> B -> A again
        assert ref.compare_and_swap(node_a, stale_counter, node_b)
        _, c2 = ref.load()
        assert ref.compare_and_swap(node_b, c2, node_a)
        node_now, counter_now = ref.load()
        assert node_now is node_a  # looks untouched by reference...
        assert ref.compare_and_swap(stale_node, stale_counter, node_b) is False
        assert counter_now == stale_counter + 2

    def test_queue_head_reinsertion_schedule(self):
        # a reader snapshots head; a fast thread dequeues and the same
        # node object comes back as head; the reader's swap must fail
        q = LockFreeQueue()
        q.enqueue("first")
        q.enqueue("second")
        head_node, head_counter = q._head.load()

        assert q.dequeue() == "first"  # advances head past the dummy
        # hand-craft the reinsertion: the old dummy becomes head again
        current, counter = q._head.load()
        assert q._head.compare_and_swap(current, counter, head_node)
        node_again, _ = q._head.load()
        assert node_again is head_node

        assert q._head.compare_and_swap(head_node, head_counter, current) is False


class TestThreaded:
    def test_producers_consumers_conserve(self):
        # scaled-down concurrency smoke; the full-size run lives in the
        # acceptance suite
        q = LockFreeQueue()
        per_producer = 2000
        producers = 4
        consumed: list[list] = [[] for _ in range(4)]
        done = threading.Event()

        def produce(pid):
            for i in range(per_producer):
                q.enqueue((pid, i))

        def consume(out):
            while True:
                item = q.dequeue()
                if item is not None:
                    out.append(item)
                elif done.is_set():
                    final = q.dequeue()  # sweep a last straggler
                    if final is None:
                        return
                    out.append(final)

        pts = [threading.Thread(target=produce, args=(p,)) for p in range(producers)]
        cts = [threading.Thread(target=consume, args=(c,)) for c in consumed]
        for t in cts + pts:
            t.start()
        for t in pts:
            t.join()
        done.set()
        for t in cts:
            t.join()

        got = [item for chunk in consumed for item in chunk]
        assert len(got) == producers * per_producer
        assert set(got) == {(p, i) for p in range(producers) for i in range(per_producer)}
        # per-producer order survives any interleaving
        for p in range(producers):
            for chunk in consumed:
                seqs = [i for pid, i in chunk if pid == p]
                assert seqs == sorted(seqs)
