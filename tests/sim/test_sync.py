"""Unit tests for Store and Resource."""

import pytest

from repro.sim.errors import Interrupt
from repro.sim.kernel import Simulator
from repro.sim.sync import Resource, Store


class TestStore:
    def test_put_then_get_immediate(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        got = []

        def p():
            v = yield store.get()
            got.append((sim.now, v))

        sim.process(p())
        sim.run()
        assert got == [(0.0, "x")]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            v = yield store.get()
            got.append((sim.now, v))

        def producer():
            yield sim.timeout(3.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(3.0, "late")]

    def test_fifo_order_items(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(3):
            store.put(i)
        got = []

        def p():
            for _ in range(3):
                v = yield store.get()
                got.append(v)

        sim.process(p())
        sim.run()
        assert got == [0, 1, 2]

    def test_fifo_order_getters(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(tag):
            v = yield store.get()
            got.append((tag, v))

        def producer():
            yield sim.timeout(1.0)
            store.put("first")
            store.put("second")

        sim.process(consumer("a"))
        sim.process(consumer("b"))
        sim.process(producer())
        sim.run()
        assert got == [("a", "first"), ("b", "second")]

    @pytest.mark.parametrize("method", ["put", "deliver"])
    def test_interrupted_getter_does_not_swallow_next_item(self, method):
        """A loop interrupted while parked on ``get()`` leaves its getter in
        the store; the loop restarted after it must still receive the first
        item (a restarted daemon on the same inbox)."""
        sim = Simulator()
        store = Store(sim)
        got = []

        def loop(tag):
            try:
                while True:
                    item = yield store.get()
                    got.append((tag, item))
            except Interrupt:
                return

        old = sim.process(loop("old"))
        sim.run()
        old.interrupt("stop")
        sim.process(loop("new"))
        sim.run()
        sim.call_later(1.0, getattr(store, method), 1)
        sim.call_later(2.0, getattr(store, method), 2)
        sim.run()
        assert got == [("new", 1), ("new", 2)]
        assert len(store._getters) == 1  # only the live loop's

    def test_len_and_drain(self):
        sim = Simulator()
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.drain() == [1, 2]
        assert len(store) == 0


class TestResource:
    def test_capacity_enforced(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        timeline = []

        def worker(i):
            yield res.acquire()
            timeline.append(("start", i, sim.now))
            yield sim.timeout(1.0)
            res.release()
            timeline.append(("end", i, sim.now))

        for i in range(4):
            sim.process(worker(i))
        sim.run()
        starts = {i: t for op, i, t in timeline if op == "start"}
        # Two run immediately; the other two wait for releases.
        assert sorted(starts.values()) == [0.0, 0.0, 1.0, 1.0]

    def test_utilization(self):
        sim = Simulator()
        res = Resource(sim, capacity=4)

        def worker():
            yield res.acquire()
            yield sim.timeout(10.0)
            res.release()

        sim.process(worker())
        sim.run(until=5.0)
        assert res.in_use == 1
        assert res.utilization == 0.25

    def test_release_without_acquire(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            res.release()

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)

    def test_queued_count(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def holder():
            yield res.acquire()
            yield sim.timeout(100.0)
            res.release()

        def waiter():
            yield res.acquire()
            res.release()

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=1.0)
        assert res.queued == 1
