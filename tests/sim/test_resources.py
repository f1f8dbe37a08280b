"""Unit tests for simulation resource primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    Container,
    FilterStore,
    PriorityResource,
    Resource,
    SimulationEngine,
    Store,
)


@pytest.fixture
def engine():
    return SimulationEngine()


class TestResource:
    def test_capacity_must_be_positive(self, engine):
        with pytest.raises(ValueError):
            Resource(engine, capacity=0)

    def test_grant_up_to_capacity(self, engine):
        res = Resource(engine, capacity=2)
        granted = []
        def user(tag):
            req = res.request()
            yield req
            granted.append((tag, engine.now))
            yield engine.timeout(10.0)
            res.release(req)
        engine.process(user("a"))
        engine.process(user("b"))
        engine.process(user("c"))
        engine.run()
        times = dict(granted)
        assert times["a"] == 0.0 and times["b"] == 0.0
        assert times["c"] == 10.0

    def test_fifo_ordering(self, engine):
        res = Resource(engine, capacity=1)
        order = []
        def user(tag, hold):
            req = res.request()
            yield req
            order.append(tag)
            yield engine.timeout(hold)
            res.release(req)
        for tag in "abcd":
            engine.process(user(tag, 1.0))
        engine.run()
        assert order == list("abcd")

    def test_release_unheld_raises(self, engine):
        res = Resource(engine)
        req = res.request()
        engine.run()
        res.release(req)
        with pytest.raises(RuntimeError):
            res.release(req)

    def test_cancel_pending_request(self, engine):
        res = Resource(engine, capacity=1)
        first = res.request()
        second = res.request()
        second.cancel()
        third = res.request()
        engine.run()
        res.release(first)
        engine.run()
        assert third.triggered
        assert not second.triggered

    def test_cancel_granted_request_raises(self, engine):
        res = Resource(engine)
        req = res.request()
        engine.run()
        with pytest.raises(RuntimeError):
            req.cancel()

    def test_count_and_queue_length(self, engine):
        res = Resource(engine, capacity=1)
        res.request()
        res.request()
        res.request()
        assert res.count == 1
        assert res.queue_length == 2

    def test_context_manager_releases(self, engine):
        res = Resource(engine, capacity=1)
        order = []
        def user(tag):
            with res.request() as req:
                yield req
                order.append(tag)
                yield engine.timeout(1.0)
        engine.process(user("a"))
        engine.process(user("b"))
        engine.run()
        assert order == ["a", "b"]
        assert res.count == 0


class TestPriorityResource:
    def test_lower_priority_number_goes_first(self, engine):
        res = PriorityResource(engine, capacity=1)
        order = []
        def user(tag, prio):
            req = res.request(priority=prio)
            yield req
            order.append(tag)
            yield engine.timeout(1.0)
            res.release(req)
        def submitter():
            # Occupy the resource, then queue contenders with priorities.
            yield engine.timeout(0)
            engine.process(user("low", 10))
            engine.process(user("high", 0))
            engine.process(user("mid", 5))
        hold = res.request()
        engine.process(submitter())
        engine.run()
        res.release(hold)
        engine.run()
        assert order == ["high", "mid", "low"]

    def test_ties_broken_by_arrival(self, engine):
        res = PriorityResource(engine, capacity=1)
        hold = res.request()
        r1 = res.request(priority=1)
        r2 = res.request(priority=1)
        engine.run()
        res.release(hold)
        engine.run()
        assert r1.triggered and not r2.triggered

    def test_withdrawn_requests_are_skipped(self, engine):
        res = PriorityResource(engine, capacity=1)
        hold = res.request()
        r1 = res.request(priority=0)
        r2 = res.request(priority=1)
        r1.cancel()
        engine.run()
        res.release(hold)
        engine.run()
        assert r2.triggered and not r1.triggered
        assert res.queue_length == 0


class TestStore:
    def test_put_then_get(self, engine):
        store = Store(engine)
        store.put("item")
        got = store.get()
        engine.run()
        assert got.value == "item"

    def test_get_blocks_until_put(self, engine):
        store = Store(engine)
        result = []
        def getter():
            item = yield store.get()
            result.append((item, engine.now))
        def putter():
            yield engine.timeout(5.0)
            yield store.put("late")
        engine.process(getter())
        engine.process(putter())
        engine.run()
        assert result == [("late", 5.0)]

    def test_fifo_order(self, engine):
        store = Store(engine)
        for i in range(5):
            store.put(i)
        got = [store.get() for _ in range(5)]
        engine.run()
        assert [g.value for g in got] == [0, 1, 2, 3, 4]

    def test_bounded_capacity_blocks_put(self, engine):
        store = Store(engine, capacity=1)
        done = []
        def producer():
            yield store.put("a")
            yield store.put("b")
            done.append(engine.now)
        def consumer():
            yield engine.timeout(3.0)
            yield store.get()
        engine.process(producer())
        engine.process(consumer())
        engine.run()
        assert done == [3.0]

    def test_len_reports_items(self, engine):
        store = Store(engine)
        store.put(1)
        store.put(2)
        engine.run()
        assert len(store) == 2


class TestStorePutNowait:
    """``put_nowait`` is ``put`` without the event nobody reads."""

    @staticmethod
    def _replay(ops, deposit):
        """Run *ops* (True = deposit the next integer, False = get)."""
        engine = SimulationEngine()
        store = Store(engine)
        gets, served, lengths, n = [], [], [], 0
        for is_put in ops:
            if is_put:
                deposit(store, n)
                n += 1
            else:
                event = store.get()
                event.callbacks.append(
                    lambda ev, k=len(gets): served.append((k, ev.value)))
                gets.append(event)
            lengths.append(len(store))
        engine.run()
        return served, lengths, list(store.items), \
            [g.triggered for g in gets]

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(st.booleans(), max_size=40))
    def test_same_items_to_same_getters_in_same_order(self, ops):
        with_put = self._replay(ops, lambda store, item: store.put(item))
        nowait = self._replay(ops,
                              lambda store, item: store.put_nowait(item))
        assert nowait == with_put

    def test_schedules_no_event(self, engine):
        store = Store(engine)
        store.put_nowait("a")
        assert engine.peek() == float("inf") and len(store) == 1
        store.put("b")
        assert engine.peek() == 0.0           # the StorePut itself

    def test_wakes_a_blocked_getter(self, engine):
        store = Store(engine)
        got = []
        def getter():
            got.append((yield store.get()))
        engine.process(getter())
        engine.run()
        store.put_nowait("late")
        assert len(store) == 0                # handed over, not parked
        engine.run()
        assert got == ["late"]

    def test_full_bounded_store_raises(self, engine):
        store = Store(engine, capacity=1)
        store.put_nowait("a")
        with pytest.raises(RuntimeError, match="full"):
            store.put_nowait("b")
        assert list(store.items) == ["a"]

    def test_raises_behind_queued_putters(self, engine):
        store = Store(engine, capacity=1)
        store.put("a")
        blocked = store.put("b")
        store.get()                           # frees the slot for "b" ...
        engine.run()
        assert blocked.triggered and list(store.items) == ["b"]
        waiting = store.put("c")              # ... and "c" queues again
        with pytest.raises(RuntimeError):
            store.put_nowait("d")
        assert not waiting.triggered

    def test_filter_store_serves_the_matching_getter(self, engine):
        store = FilterStore(engine)
        pear = store.get(lambda x: x == "pear")
        store.put_nowait("apple")
        store.put_nowait("pear")
        engine.run()
        assert pear.value == "pear"
        assert list(store.items) == ["apple"]


class TestFilterStore:
    def test_predicate_get(self, engine):
        store = FilterStore(engine)
        for item in [1, 2, 3, 4]:
            store.put(item)
        got = store.get(lambda x: x % 2 == 0)
        engine.run()
        assert got.value == 2

    def test_unmatched_get_waits(self, engine):
        store = FilterStore(engine)
        store.put("apple")
        got = store.get(lambda x: x == "pear")
        engine.run()
        assert not got.triggered
        store.put("pear")
        engine.run()
        assert got.value == "pear"
        assert list(store.items) == ["apple"]

    def test_multiple_getters_matched_independently(self, engine):
        store = FilterStore(engine)
        g_even = store.get(lambda x: x % 2 == 0)
        g_odd = store.get(lambda x: x % 2 == 1)
        store.put(7)
        store.put(8)
        engine.run()
        assert g_odd.value == 7
        assert g_even.value == 8


class TestContainer:
    def test_initial_level(self, engine):
        c = Container(engine, capacity=100, init=40)
        assert c.level == 40

    def test_get_blocks_until_level(self, engine):
        c = Container(engine, capacity=100, init=0)
        times = []
        def getter():
            yield c.get(10)
            times.append(engine.now)
        def putter():
            yield engine.timeout(2.0)
            yield c.put(10)
        engine.process(getter())
        engine.process(putter())
        engine.run()
        assert times == [2.0]
        assert c.level == 0

    def test_put_blocks_at_capacity(self, engine):
        c = Container(engine, capacity=10, init=10)
        times = []
        def putter():
            yield c.put(5)
            times.append(engine.now)
        def getter():
            yield engine.timeout(4.0)
            yield c.get(5)
        engine.process(putter())
        engine.process(getter())
        engine.run()
        assert times == [4.0]
        assert c.level == 10

    def test_invalid_amounts(self, engine):
        c = Container(engine, capacity=10)
        with pytest.raises(ValueError):
            c.put(0)
        with pytest.raises(ValueError):
            c.get(-1)
