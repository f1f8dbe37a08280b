"""The data-locality subsystem: objects, copies, transfers.

The paper's workflows are *data-driven*: the Cell Painting pipeline moves a
1.6 TB Globus-managed dataset, and HPO rounds re-read the same training
features across dozens of trials.  This package gives the runtime a real
data plane for that traffic:

* :mod:`repro.data.objects`   -- content-addressed objects;
* :mod:`repro.data.transfers` -- contention-aware transfer scheduling over
  shared-bandwidth links;
* :class:`DataServices` -- the session's one record of which location holds
  a copy of which object.

A copy is recorded once.  A copy that sits in its location's LRU is a
*warm-tier* copy: the platform's bounded cache of staged inputs evicts it
under capacity pressure.  Any other copy is a *durable origin* (the
client-side original, a checkpoint) that eviction never drops.  So "the
registry reports only copies that exist" and "occupancy never exceeds
capacity" hold by construction.  :class:`DataConfig` carries the tuning
knobs; pass one to ``Session(data_config=...)`` to change caching/placement
behaviour.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from .objects import DataObject, object_id
from .transfers import TransferRecord, TransferScheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session

__all__ = [
    "DEFAULT_CACHE_CAPACITY_BYTES",
    "DataConfig",
    "DataObject",
    "DataServices",
    "TransferRecord",
    "TransferScheduler",
    "object_id",
]

PLACEMENTS = ("data_affinity", "round_robin")

#: Default per-platform warm-tier capacity: roomy enough that eviction only
#: matters when experiments bound it explicitly (200 TB ~ scratch quota).
DEFAULT_CACHE_CAPACITY_BYTES = 200e12


@dataclass
class DataConfig:
    """Tuning knobs for the data subsystem."""

    #: model platform caches at all (False = the seed's cache-less behaviour)
    cache_enabled: bool = True
    #: default per-platform cache capacity in bytes
    cache_capacity_bytes: float = DEFAULT_CACHE_CAPACITY_BYTES
    #: TaskManager placement policy: prefer the pilot whose platform holds
    #: the largest share of a task's input bytes, or plain round-robin
    placement: str = "data_affinity"
    #: coalesce concurrent stages of the same object to the same platform
    dedup_inflight: bool = True

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement {self.placement!r} not in {PLACEMENTS}")
        if not self.cache_capacity_bytes >= 0:  # NaN fails it too
            raise ValueError("cache_capacity_bytes must be >= 0")


class DataServices:
    """The session's data plane: objects, their copies, transfers.

    All DataManagers (one per TaskManager) share the session's instance, so
    copy knowledge -- and therefore cache hits and data-affinity placement
    -- spans managers and workflow stages.  It is the one owner of the copy
    record: one entry per object, one per copy, and each location's LRU of
    its warm-tier copies.
    """

    def __init__(self, session: "Session",
                 config: Optional[DataConfig] = None) -> None:
        self.session = session
        self.config = config or DataConfig()
        self.transfers = TransferScheduler(session)
        #: (oid, destination) -> completion event of the transfer already
        #: under way; session-scoped so in-flight dedup spans DataManagers
        self.inflight: dict = {}
        self._capacity = float(self.config.cache_capacity_bytes)
        self._objects: Dict[str, DataObject] = {}
        #: oid -> locations holding a copy (never an empty set)
        self._holders: Dict[str, Set[str]] = {}
        #: location -> its warm-tier copies, least recently used first
        self._cached: Dict[str, "OrderedDict[str, DataObject]"] = {}
        self._occupancy: Dict[str, float] = {}
        #: warm-tier copies dropped for capacity (a wipe is not counted)
        self.evictions = 0
        self.bytes_evicted = 0.0

    # -- queries -----------------------------------------------------------------
    def intern(self, source: str, size_bytes: float) -> DataObject:
        """Get-or-create the object for (source, size); idempotent."""
        oid = object_id(source, size_bytes)
        obj = self._objects.get(oid)
        if obj is None:
            obj = self._objects[oid] = DataObject(
                oid=oid, size_bytes=float(size_bytes), source=source)
        return obj

    def holds(self, location: str, oid: str) -> bool:
        return location in self._holders.get(oid, ())

    def holders(self, oid: str):
        """The locations holding a copy of *oid* (read-only)."""
        return self._holders.get(oid, ())

    def occupancy(self, location: str) -> float:
        """Bytes of warm-tier copies at *location*."""
        return self._occupancy.get(location, 0.0)

    def input_objects(self, directives) -> List[tuple]:
        """``(oid, size_bytes)`` pairs for the data-bearing directives.

        Only ``transfer`` directives count: ``link`` is free everywhere and
        ``copy`` is intra-platform by definition.  Compute this once per
        task and reuse it across candidate platforms -- the digest is the
        expensive part of affinity scoring.
        """
        return [(object_id(d.source or d.target, d.size_bytes),
                 d.size_bytes)
                for d in directives if d.action == "transfer"]

    def resident_bytes(self, location: str, pairs) -> float:
        """Bytes of pre-digested ``(oid, size)`` pairs held at *location*."""
        return sum(size for oid, size in pairs if self.holds(location, oid))

    # -- updates -----------------------------------------------------------------
    def _drop(self, oid: str, location: str) -> None:
        holders = self._holders[oid]
        holders.discard(location)
        if not holders:
            del self._holders[oid]

    def touch(self, location: str, oid: str) -> None:
        """Mark a warm-tier copy most recently used (no-op otherwise)."""
        lru = self._cached.get(location)
        if lru is not None and oid in lru:
            lru.move_to_end(oid)

    def register_durable(self, oid: str, location: str) -> None:
        """Record an origin copy that eviction never drops.

        A warm copy at the same location graduates out of the LRU (not
        counted as an eviction).
        """
        lru = self._cached.get(location)
        if lru is not None and oid in lru:
            self._occupancy[location] -= lru.pop(oid).size_bytes
        self._holders.setdefault(oid, set()).add(location)

    def admit(self, location: str, obj: DataObject) -> List[DataObject]:
        """Cache *obj* at *location*'s warm tier; returns evicted objects.

        A held copy is only touched.  An object larger than the whole tier
        is not admitted and evicts nothing (pass-through staging); otherwise
        least-recently-used copies go until it fits.  No-op when caching is
        disabled.
        """
        if not self.config.cache_enabled:
            return []
        oid = obj.oid
        if self.holds(location, oid):
            self.touch(location, oid)
            return []
        size = obj.size_bytes
        capacity = self._capacity
        if size > capacity:
            return []
        lru = self._cached.setdefault(location, OrderedDict())
        occupancy = self._occupancy
        evicted: List[DataObject] = []
        while lru and occupancy[location] + size > capacity:
            victim_oid, victim = lru.popitem(last=False)
            occupancy[location] -= victim.size_bytes
            self._drop(victim_oid, location)
            evicted.append(victim)
            self.evictions += 1
            self.bytes_evicted += victim.size_bytes
        if not lru:
            # float residue from out-of-order removals must not survive an
            # empty tier (it would make exact-capacity admissions fail)
            occupancy[location] = 0.0
        lru[oid] = obj
        occupancy[location] += size
        self._holders.setdefault(oid, set()).add(location)
        return evicted

    def wipe(self, location: str) -> int:
        """Drop every warm-tier copy at *location* (a lost warm tier).

        Durable origins survive, and the next stage-in re-stages from them.
        Returns the number of copies lost; a wipe is not an eviction.
        """
        lru = self._cached.get(location)
        if not lru:
            return 0
        lost = len(lru)
        while lru:
            oid, obj = lru.popitem(last=False)
            self._occupancy[location] -= obj.size_bytes
            self._drop(oid, location)
        return lost
