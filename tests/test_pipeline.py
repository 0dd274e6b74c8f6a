"""Queue unit tests, a model-based property suite, and the staged
reuse-hazard schedule that must fail its compare-and-swap.

The contract tests run against both queues: ``LockFreeQueue``, the
reproduced reference, and ``RowFifo``, the gateway's single-loop FIFO;
each ``...RowFifo`` class reruns its parent's tests on the latter."""

import threading
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gateflow.pipeline import EnqueueResult, LockFreeQueue, RowFifo, VersionedRef


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


class TestBasicsRowFifo(TestBasics):
    queue_cls = RowFifo


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


class TestCapacityRowFifo(TestCapacity):
    queue_cls = RowFifo


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


class TestDrainRowFifo(TestDrain):
    queue_cls = RowFifo


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


class TestApproxLenRowFifo(TestApproxLen):
    queue_cls = RowFifo


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
@given(
    ops=_ops,
    capacity=st.one_of(st.none(), st.integers(0, 6)),
    queue_cls=st.sampled_from([LockFreeQueue, RowFifo]),
)
def test_matches_deque_model(ops, capacity, queue_cls):
    q = queue_cls(capacity=capacity)
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


def test_requeue_goes_to_the_head_past_capacity():
    q = RowFifo(capacity=2)
    q.extend(["c", "d"])
    q.requeue(["a", "b"])
    assert q.approx_len() == 4
    assert q.enqueue("e") is EnqueueResult.BACKPRESSURE
    assert drain_all(q) == ["a", "b", "c", "d"]


class TestRowFifoWaiter:
    """The queue's waiter is its ``on_fill`` callback, which the gateway
    points at the sender's wake: it hears the first item of each
    non-empty stretch, and not the rest of the stretch."""

    @pytest.mark.parametrize(
        "fill",
        [
            pytest.param(lambda q: q.enqueue("r"), id="enqueue"),
            pytest.param(lambda q: q.extend(["r", "s"]), id="extend"),
            pytest.param(lambda q: q.requeue(["r"]), id="requeue"),
        ],
    )
    def test_each_way_in_wakes_a_pending_wait(self, fill):
        fills = []
        q = RowFifo(capacity=8, on_fill=lambda: fills.append(q.approx_len()))
        fill(q)
        assert fills == [1]  # at the first item, not again for the rest
        fill(q)  # the queue is not empty: no call
        assert fills == [1]
        assert q.approx_len() > 1

    def test_on_fill_hears_each_end_of_an_empty_stretch(self):
        fills = []
        q = RowFifo(capacity=4, on_fill=lambda: fills.append(q.approx_len()))
        q.extend(["a", "b"])  # called at the first row only
        q.requeue(["c"])  # the queue was not empty
        assert fills == [1]
        q.drain_up_to(10)
        q.requeue([])  # nothing put back
        q.requeue(["d", "e"])
        assert fills == [1, 2]
        q.drain_up_to(10)
        q.enqueue("f")
        assert fills == [1, 2, 1]


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
