"""Unit tests for the one simulation queue: Store and its StoreGet."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimulationEngine, Store, StoreGet


@pytest.fixture
def engine():
    return SimulationEngine()


class TestStore:
    def test_put_then_get(self, engine):
        store = Store(engine)
        store.put_nowait("item")
        got = store.get()
        assert isinstance(got, StoreGet)
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
            store.put_nowait("late")
        engine.process(getter())
        engine.process(putter())
        engine.run()
        assert result == [("late", 5.0)]

    def test_fifo_order(self, engine):
        store = Store(engine)
        for i in range(5):
            store.put_nowait(i)
        got = [store.get() for _ in range(5)]
        engine.run()
        assert [g.value for g in got] == [0, 1, 2, 3, 4]

    def test_len_reports_items(self, engine):
        store = Store(engine)
        store.put_nowait(1)
        store.put_nowait(2)
        assert len(store) == 2 and list(store.items) == [1, 2]


class TestStorePutNowait:
    """``put_nowait`` deposits inside the caller's own kernel entry."""

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(st.booleans(), max_size=40))
    def test_same_items_to_same_getters_in_same_order(self, ops):
        """Against the obvious model (True = deposit the next integer,
        False = get): the k-th get is served the k-th item, and only
        unserved items are held."""
        engine = SimulationEngine()
        store = Store(engine)
        gets, served, n = [], [], 0
        model_items, model_waiting = deque(), deque()
        for is_put in ops:
            if is_put:
                store.put_nowait(n)
                model_items.append(n)
                n += 1
            else:
                event = store.get()
                event.callbacks.append(
                    lambda ev, k=len(gets): served.append((k, ev.value)))
                model_waiting.append(len(gets))
                gets.append(event)
            if model_items and model_waiting:
                model_waiting.popleft()
                model_items.popleft()
            assert list(store.items) == list(model_items)
        engine.run()
        n_served = len(gets) - len(model_waiting)
        assert served == [(k, k) for k in range(n_served)]
        assert [g.triggered for g in gets] \
            == [k < n_served for k in range(len(gets))]

    def test_schedules_no_event(self, engine):
        store = Store(engine)
        store.put_nowait("a")
        assert engine.peek() == float("inf") and len(store) == 1

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
