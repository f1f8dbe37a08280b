"""Tests for content addressing and the copy record of objects."""

import pytest

from repro.data import DataConfig, DataObject, DataServices
from repro.data.objects import object_id
from repro.pilot import Session


@pytest.fixture
def data():
    with Session(seed=0) as session:
        yield DataServices(session, DataConfig(cache_capacity_bytes=100))


def obj(name: str, size: float = 10) -> DataObject:
    return DataObject(oid=name, size_bytes=size, source=name)


class TestObjectId:
    def test_deterministic(self):
        assert object_id("a/b.dat", 100) == object_id("a/b.dat", 100)

    def test_source_and_size_both_matter(self):
        assert object_id("a", 100) != object_id("b", 100)
        assert object_id("a", 100) != object_id("a", 101)

    def test_float_and_int_sizes_agree(self):
        assert object_id("a", 100) == object_id("a", 100.0)


class TestObjectStore:
    def test_intern_is_idempotent(self, data):
        first = data.intern("data.h5", 1e9)
        second = data.intern("data.h5", 1e9)
        assert first is second
        assert first.oid == object_id("data.h5", 1e9)

    def test_distinct_objects_catalogued(self, data):
        a = data.intern("a", 10)
        b = data.intern("b", 20)
        assert a.oid != b.oid
        assert (a.size_bytes, b.size_bytes) == (10.0, 20.0)
        assert data.intern("a", 10) is a

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            DataObject(oid="obj.x", size_bytes=-1)


class TestReplicaRegistry:
    def test_add_and_query(self, data):
        data.admit("delta", obj("o1"))
        assert data.holds("delta", "o1")
        assert not data.holds("frontier", "o1")
        assert data.holders("o1") == {"delta"}

    def test_remove(self, data):
        data.admit("delta", obj("o1"))
        data.wipe("delta")
        assert not data.holds("delta", "o1")
        assert data.holders("o1") == ()

    def test_durable_replica_protected(self, data):
        data.register_durable("o1", "localhost")
        data.admit("localhost", obj("big", 100))  # fills the tier
        assert data.holds("localhost", "o1")
        assert data.wipe("localhost") == 1        # only the warm copy
        assert data.holders("o1") == {"localhost"}
        assert data.holders("big") == ()

    def test_durable_upgrade_sticks(self, data):
        data.admit("delta", obj("o1"))
        data.register_durable("o1", "delta")
        data.admit("delta", obj("o1"))  # re-admission must not downgrade
        assert data.occupancy("delta") == 0
        assert data.wipe("delta") == 0
        assert data.holds("delta", "o1")

    def test_drop_location(self, data):
        data.admit("delta", obj("o1"))
        data.admit("delta", obj("o2"))
        data.admit("frontier", obj("o1"))
        assert data.wipe("delta") == 2
        assert data.holders("o1") == {"frontier"}
        assert data.holders("o2") == ()

    def test_resident_bytes(self, data):
        a = data.intern("a", 100)
        b = data.intern("b", 50)
        pairs = [(a.oid, a.size_bytes), (b.oid, b.size_bytes)]
        data.register_durable(a.oid, "delta")
        assert data.resident_bytes("delta", pairs) == 100
        data.admit("delta", b)
        assert data.resident_bytes("delta", pairs) == 150
        assert data.resident_bytes("frontier", pairs) == 0
