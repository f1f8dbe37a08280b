"""Content-addressed data objects and their replica locations.

The runtime's staging directives name files (``source``/``target``) and
sizes; the data subsystem derives from them a stable *object identity* so
that the same input staged by many tasks -- the Cell Painting pipeline's
1.6 TB Globus dataset, HPO's repeated training features -- is recognised as
*one* object with many replicas instead of many unrelated transfers.

* :func:`object_id` -- digest-based content address (source path + size,
  the simulation's stand-in for a real checksum);
* :class:`ObjectStore` -- the catalog of known objects by digest;
* :class:`ReplicaRegistry` -- which locations (platforms, the client side)
  currently hold which objects.  *Durable* replicas are origin copies that
  eviction must never drop; non-durable ones are platform-cache residents
  managed by :class:`repro.data.cache.CacheManager`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Set

__all__ = ["DataObject", "ObjectStore", "ReplicaRegistry", "ReplicaError",
           "object_id"]


@lru_cache(maxsize=4096)  # asked five times per staged task, SHA-1 each
def object_id(source: str, size_bytes: float) -> str:
    """Content address for a named dataset of a given size."""
    digest = hashlib.sha1(
        f"{source}\x00{int(size_bytes)}".encode()).hexdigest()[:16]
    return f"obj.{digest}"


@dataclass(frozen=True)
class DataObject:
    """One immutable dataset: identity plus size."""

    oid: str
    size_bytes: float
    source: str = ""

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")


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

    def get(self, oid: str) -> DataObject:
        return self._objects[oid]

    def __contains__(self, oid: str) -> bool:
        return oid in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def objects(self) -> List[DataObject]:
        return list(self._objects.values())

    @property
    def total_bytes(self) -> float:
        return sum(o.size_bytes for o in self._objects.values())


class ReplicaError(Exception):
    """Raised for inconsistent replica bookkeeping."""


class ReplicaRegistry:
    """Tracks which locations hold which objects.

    A location is a platform name (platform cache replica) or the client
    side's platform (durable origin copy).  The registry is pure
    bookkeeping: admission/eviction policy lives in the cache manager, and
    the :class:`repro.data.DataServices` facade keeps the two consistent
    (invariant: the registry never reports an object a location does not
    hold).
    """

    def __init__(self) -> None:
        self._holders: Dict[str, Dict[str, bool]] = {}  # oid -> {loc: durable}
        self._at: Dict[str, Set[str]] = {}              # loc -> {oid}

    # -- updates -----------------------------------------------------------------
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

    def drop_location(self, location: str) -> List[str]:
        """Forget every replica at *location* (e.g. a retired platform)."""
        oids = list(self._at.pop(location, set()))
        for oid in oids:
            entry = self._holders.get(oid, {})
            entry.pop(location, None)
            if not entry:
                self._holders.pop(oid, None)
        return oids

    # -- queries -----------------------------------------------------------------
    def holds(self, location: str, oid: str) -> bool:
        return oid in self._at.get(location, ())

    def is_durable(self, oid: str, location: str) -> bool:
        return self._holders.get(oid, {}).get(location, False)

    def holders(self, oid: str) -> FrozenSet[str]:
        return frozenset(self._holders.get(oid, ()))

    def objects_at(self, location: str) -> FrozenSet[str]:
        return frozenset(self._at.get(location, ()))

    def locations(self) -> List[str]:
        return [loc for loc, oids in self._at.items() if oids]

    def resident_bytes(self, location: str, objects: Iterable[DataObject],
                       ) -> float:
        """Bytes of the given objects already held at *location*."""
        return sum(o.size_bytes for o in objects
                   if self.holds(location, o.oid))
