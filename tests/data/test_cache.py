"""Tests for the warm tier: each location's bounded LRU of staged copies."""

import pytest
from hypothesis import given, strategies as st

from repro.data import DataConfig, DataObject, DataServices
from repro.pilot import DataManager, Session, StagingDirective
from repro.pilot.data_manager import Staging


def obj(name: str, size: float) -> DataObject:
    return DataObject(oid=f"obj.{name}", size_bytes=size, source=name)


def oids(objects):
    return [o.oid for o in objects]


@pytest.fixture
def session():
    with Session(seed=0) as s:
        yield s


@pytest.fixture
def tier(session):
    """A data plane whose warm tiers hold 100 bytes each."""
    def make(capacity=100):
        return DataServices(session, DataConfig(
            cache_capacity_bytes=capacity))
    return make


class TestAdmission:
    def test_admit_and_contains(self, tier):
        data = tier()
        assert data.admit("delta", obj("a", 60)) == []
        assert data.holds("delta", "obj.a")
        assert data.occupancy("delta") == 60

    def test_platforms_are_independent(self, tier):
        data = tier()
        data.admit("delta", obj("a", 60))
        assert not data.holds("frontier", "obj.a")
        assert data.occupancy("frontier") == 0

    def test_oversized_object_never_admitted(self, tier):
        data = tier()
        data.admit("delta", obj("small", 50))
        assert data.admit("delta", obj("huge", 101)) == []  # evicts nothing
        assert not data.holds("delta", "obj.huge")          # pass-through
        assert data.holds("delta", "obj.small")

    def test_zero_capacity_admits_nothing(self, tier):
        data = tier(capacity=0)
        data.admit("delta", obj("a", 1))
        assert not data.holds("delta", "obj.a")

    def test_readmission_is_a_touch(self, tier):
        data = tier()
        data.admit("delta", obj("a", 40))
        data.admit("delta", obj("b", 40))
        assert data.admit("delta", obj("a", 40)) == []
        assert data.occupancy("delta") == 80
        # "a" became MRU, so "b" is now the eviction victim
        assert oids(data.admit("delta", obj("c", 40))) == ["obj.b"]


class TestEviction:
    def test_lru_order(self, tier):
        data = tier()
        data.admit("delta", obj("a", 40))
        data.admit("delta", obj("b", 40))
        assert oids(data.admit("delta", obj("c", 40))) == ["obj.a"]
        assert not data.holds("delta", "obj.a")
        assert data.holders("obj.a") == ()
        assert oids(data.admit("delta", obj("d", 40))) == ["obj.b"]

    def test_touch_rescues_from_eviction(self, tier):
        data = tier()
        data.admit("delta", obj("a", 40))
        data.admit("delta", obj("b", 40))
        data.touch("delta", "obj.a")
        assert oids(data.admit("delta", obj("c", 40))) == ["obj.b"]

    def test_multi_eviction_for_large_object(self, tier):
        data = tier()
        for name in "abc":
            data.admit("delta", obj(name, 30))
        evicted = data.admit("delta", obj("big", 90))
        assert oids(evicted) == ["obj.a", "obj.b", "obj.c"]
        assert data.occupancy("delta") == 90

    def test_eviction_stats(self, tier):
        data = tier()
        data.admit("delta", obj("a", 60))
        data.admit("delta", obj("b", 60))
        assert data.evictions == 1
        assert data.bytes_evicted == 60

    def test_durable_copy_is_never_a_victim(self, tier):
        data = tier()
        data.admit("delta", obj("a", 60))
        data.register_durable("obj.a", "delta")  # graduates out of the LRU
        assert data.occupancy("delta") == 0
        assert data.admit("delta", obj("b", 100)) == []
        assert data.holds("delta", "obj.a") and data.holds("delta", "obj.b")


class TestFloatResidue:
    def test_exact_capacity_admission_after_residual_drift(self, tier):
        """Out-of-order removals leave float residue in the occupancy
        accumulator; an exact-capacity admission on the emptied tier must
        still succeed instead of crashing the eviction loop."""
        data = tier(capacity=1.0)
        names = [f"o{i}" for i in range(6)]
        for name in names:
            data.admit("p", obj(name, 0.1 + 0.01 * len(name)))
        for name in reversed(names):
            data.register_durable(f"obj.{name}", "p")
        assert data.occupancy("p") != 0.0  # the residue this test is about
        data.admit("p", obj("flag", 0.0))  # too small to round it away
        assert data.occupancy("p") == 0.0
        assert data.admit("p", obj("full", 1.0)) == []
        assert data.holds("p", "obj.full")
        assert data.occupancy("p") == 1.0


class TestCapacityConfig:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            DataConfig(cache_capacity_bytes=-1)


class TestWipe:
    def test_wipe_is_not_an_eviction(self):
        """A lost warm tier loses its copies, not capacity: the eviction
        counters stay put, the durable origin stays, and the next stage-in
        is a miss that moves the input again."""
        size = 40
        with Session(seed=0, data_config=DataConfig(
                cache_capacity_bytes=100)) as session:
            dmgr = DataManager(session)
            data = session.data

            def stage(name, uid):
                directive = StagingDirective(source=name, size_bytes=size)
                landed = session.engine.event()
                dmgr.stage([directive], "delta", uid, "stage_in",
                           Staging(lambda event, error: event.fail(error)
                                   if error else event.succeed(), landed))
                session.run(until=landed)
                return data.intern(name, size).oid

            staged = [stage(name, f"task.{name}") for name in "abc"]
            assert (data.evictions, data.bytes_evicted) == (1, size)
            assert data.wipe("delta") == 2
            assert (data.evictions, data.bytes_evicted) == (1, size)
            assert data.occupancy("delta") == 0
            for oid in staged:
                assert not data.holds("delta", oid)
                assert data.holders(oid) == {"localhost"}  # durable origin
            misses, moved = dmgr.cache_misses, dmgr.bytes_transferred
            assert stage("c", "task.again") == staged[-1]
            assert dmgr.cache_misses == misses + 1
            assert dmgr.bytes_transferred == moved + size
            assert data.holds("delta", staged[-1])

    def test_wipe_of_an_empty_tier_loses_nothing(self, tier):
        data = tier()
        data.register_durable("obj.a", "delta")
        assert data.wipe("delta") == 0
        assert data.wipe("frontier") == 0
        assert data.holds("delta", "obj.a")


@given(st.data())
def test_occupancy_never_exceeds_capacity(data):
    """Property: any admit/touch/durable/wipe traffic keeps occupancy <=
    capacity and occupancy equal to the sum of warm-tier copy sizes."""
    capacity = data.draw(st.integers(min_value=0, max_value=200))
    with Session(seed=0) as session:
        tier = DataServices(session, DataConfig(
            cache_capacity_bytes=float(capacity)))
        sizes = {}
        durable = set()
        for _step in range(data.draw(st.integers(min_value=1, max_value=40))):
            action = data.draw(st.sampled_from(
                ["admit", "admit", "touch", "durable", "wipe"]))
            name = data.draw(st.sampled_from("abcdefgh"))
            size = sizes.setdefault(
                name, data.draw(st.integers(min_value=0, max_value=120)))
            if action == "admit":
                tier.admit("p", obj(name, size))
                if size > capacity and name not in durable:
                    assert not tier.holds("p", f"obj.{name}")
            elif action == "touch":
                tier.touch("p", f"obj.{name}")
            elif action == "durable":
                tier.register_durable(f"obj.{name}", "p")
                durable.add(name)
            else:
                tier.wipe("p")
            warm = [n for n in sizes
                    if tier.holds("p", f"obj.{n}") and n not in durable]
            assert tier.occupancy("p") <= capacity
            assert tier.occupancy("p") == sum(sizes[n] for n in warm)
