"""The three-record data plane, kept as the test reference.

Until the copy record moved into :class:`repro.data.DataServices`, a
platform-cached copy was written down twice: the object catalogue
(:class:`ObjectStore`), the replica registry (:class:`ReplicaRegistry`,
which location holds which object, durable or not) and the per-platform LRU
caches (:class:`CacheManager`), kept in step by the ``DataServices`` glue
and by the resilience layer's ``wipe_platform_cache``.  This module is that
code, unchanged in behaviour; ``tests/test_properties.py`` drives it and the
shipped record with the same traffic and holds them to the same answers.
It shares :class:`DataObject` and :func:`object_id` with the shipped
module, nothing else.

The one intended difference: the reference's :meth:`ReferenceDataServices.wipe`
drops copies through :meth:`CacheManager.evict`, so a lost warm tier counts
as capacity evictions; the shipped ``wipe`` leaves those counters alone.
"""

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.data.objects import DataObject, object_id


class ObjectStore:
    """Catalog of known data objects, keyed by content address."""

    def __init__(self) -> None:
        self._objects: Dict[str, DataObject] = {}

    def intern(self, source: str, size_bytes: float) -> DataObject:
        """Get-or-create the object for (source, size); idempotent."""
        oid = object_id(source, size_bytes)
        obj = self._objects.get(oid)
        if obj is None:
            obj = DataObject(oid=oid, size_bytes=float(size_bytes),
                             source=source)
            self._objects[oid] = obj
        return obj


class ReplicaError(Exception):
    """Raised for inconsistent replica bookkeeping."""


class ReplicaRegistry:
    """Tracks which locations hold which objects (durable or cached)."""

    def __init__(self) -> None:
        self._holders: Dict[str, Dict[str, bool]] = {}  # oid -> {loc: durable}
        self._at: Dict[str, Set[str]] = {}              # loc -> {oid}

    def add(self, oid: str, location: str, durable: bool = False) -> None:
        """Record that *location* holds *oid* (durable wins over cached)."""
        entry = self._holders.setdefault(oid, {})
        entry[location] = durable or entry.get(location, False)
        self._at.setdefault(location, set()).add(oid)

    def remove(self, oid: str, location: str, force: bool = False) -> None:
        """Drop a replica; durable replicas require ``force=True``."""
        entry = self._holders.get(oid, {})
        if location not in entry:
            raise ReplicaError(f"{location!r} does not hold {oid!r}")
        if entry[location] and not force:
            raise ReplicaError(
                f"refusing to drop durable replica of {oid!r} at {location!r}")
        del entry[location]
        if not entry:
            self._holders.pop(oid, None)
        self._at[location].discard(oid)

    def holds(self, location: str, oid: str) -> bool:
        return oid in self._at.get(location, ())

    def holders(self, oid: str) -> FrozenSet[str]:
        return frozenset(self._holders.get(oid, ()))


class CacheManager:
    """Bounded LRU caches, one per platform."""

    def __init__(self, capacity_bytes: float) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self._default_capacity = float(capacity_bytes)
        self._lru: Dict[str, "OrderedDict[str, DataObject]"] = {}
        self._occupancy: Dict[str, float] = {}
        self.evictions = 0
        self.bytes_evicted = 0.0

    def capacity(self, platform: str) -> float:
        return self._default_capacity

    def occupancy(self, platform: str) -> float:
        return self._occupancy.get(platform, 0.0)

    def entries(self, platform: str) -> List[str]:
        """Cached oids in LRU order (head = next eviction victim)."""
        return list(self._lru.get(platform, ()))

    def touch(self, platform: str, oid: str) -> None:
        """Mark *oid* most-recently-used (no-op if absent)."""
        lru = self._lru.get(platform)
        if lru is not None and oid in lru:
            lru.move_to_end(oid)

    def admit(self, platform: str,
              obj: DataObject) -> Tuple[bool, List[DataObject]]:
        """Insert *obj*, evicting LRU entries until it fits."""
        cap = self.capacity(platform)
        if obj.size_bytes > cap:
            return False, []
        lru = self._lru.setdefault(platform, OrderedDict())
        if obj.oid in lru:
            lru.move_to_end(obj.oid)
            return True, []
        evicted: List[DataObject] = []
        while lru and self.occupancy(platform) + obj.size_bytes > cap:
            victim_oid, victim = lru.popitem(last=False)
            self._occupancy[platform] -= victim.size_bytes
            evicted.append(victim)
            self.evictions += 1
            self.bytes_evicted += victim.size_bytes
        if not lru:
            self._occupancy[platform] = 0.0
        lru[obj.oid] = obj
        self._occupancy[platform] = self.occupancy(platform) + obj.size_bytes
        return True, evicted

    def evict(self, platform: str, oid: str) -> Optional[DataObject]:
        """Drop one entry explicitly; returns it (or None if absent)."""
        obj = self.discard(platform, oid)
        if obj is not None:
            self.evictions += 1
            self.bytes_evicted += obj.size_bytes
        return obj

    def discard(self, platform: str, oid: str) -> Optional[DataObject]:
        """Remove an entry without counting it as an eviction."""
        lru = self._lru.get(platform)
        if lru is None or oid not in lru:
            return None
        obj = lru.pop(oid)
        self._occupancy[platform] -= obj.size_bytes
        return obj


class ReferenceDataServices:
    """The glue that kept the three records consistent by hand."""

    def __init__(self, capacity_bytes: float,
                 cache_enabled: bool = True) -> None:
        self.cache_enabled = cache_enabled
        self.objects = ObjectStore()
        self.replicas = ReplicaRegistry()
        self.cache = CacheManager(capacity_bytes)

    def holds(self, location: str, oid: str) -> bool:
        return self.replicas.holds(location, oid)

    def touch(self, location: str, oid: str) -> None:
        self.cache.touch(location, oid)

    def register_durable(self, oid: str, location: str) -> None:
        self.cache.discard(location, oid)
        self.replicas.add(oid, location, durable=True)

    def admit(self, platform: str, obj: DataObject) -> List[DataObject]:
        if not self.cache_enabled:
            return []
        if self.replicas.holds(platform, obj.oid):
            self.cache.touch(platform, obj.oid)
            return []
        admitted, evicted = self.cache.admit(platform, obj)
        for victim in evicted:
            self.replicas.remove(victim.oid, platform)
        if admitted:
            self.replicas.add(obj.oid, platform)
        return evicted

    def wipe(self, platform: str) -> int:
        """The body of ``ResilienceServices.wipe_platform_cache``."""
        victims = self.cache.entries(platform)
        for oid in victims:
            self.cache.evict(platform, oid)
            self.replicas.remove(oid, platform)
        return len(victims)
