"""Per-node resource accounting: core/GPU/memory slot management.

A :class:`NodeState` tracks which core and GPU indices are free on one node
of an allocation.  The agent scheduler (:mod:`repro.pilot.agent.scheduler`)
carves :class:`Slot` objects out of nodes and returns them on task
completion.  Invariant maintained throughout: a core/GPU index is held by at
most one live slot (verified by property-based tests).

Placement queries read **per-rank-shape fit masks**: for every rank shape
``(cores, gpus, mem_gb)`` a :class:`NodeList` has been asked about, one
Python ``int`` whose bit *i* says whether node *i* passes
:meth:`NodeState.fits` for one such rank right now.  A node change
(allocate / release / health flip) re-evaluates that one node against the
tracked shapes, O(tracked shapes); ``find_fit`` from a round-robin start
with wrap-around is a shift and a lowest-set-bit, whatever the pool size or
load, and returns exactly the node the seed's linear first-fit scan would
(including the soft ``avoid`` deferral).  A bit is *exact* -- "no bit set"
means no node fits -- so the scheduler's wake filter and pre-placement
check read the same masks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Slot", "NodeState", "NodeList"]

#: A rank shape: what one rank asks of a node, ``(cores, gpus, mem_gb)``.
RankShape = Tuple[int, int, float]

#: Rank shapes a NodeList keeps fit masks for, at the least.  A node change
#: costs O(tracked shapes) and building an untracked shape's mask O(nodes),
#: so a list tracks up to ``max(_MIN_TRACKED_SHAPES, nodes)`` shapes: a
#: node change never costs more than one rebuild.  A workload with more
#: distinct rank shapes than that overflows the table, which clears it and
#: lets the live shapes refill lazily on their next query.
_MIN_TRACKED_SHAPES = 64


class Slot(NamedTuple):
    """A placement of one task/service rank on a node.

    ``cores`` and ``gpus`` hold the specific indices assigned, ``mem_gb``
    the reserved memory.  Slots are immutable; releasing goes through the
    owning :class:`NodeState`.
    """

    node_index: int
    node_name: str
    cores: Tuple[int, ...]
    gpus: Tuple[int, ...] = ()
    mem_gb: float = 0.0

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)


class NodeState:
    """Mutable free/busy accounting for one node.

    Nodes carry a *health* state driven by the resilience subsystem's fault
    injector: ``up`` (normal), ``degraded`` (draining -- running slots
    survive but no new slots are placed) and ``down`` (crashed -- the
    injector kills resident work; the node rejects placements until it is
    repaired after its MTTR).  Slot accounting is independent of health so
    a release on a down node keeps the books consistent for the repair.
    """

    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"

    def __init__(self, index: int, name: str, cores: int, gpus: int,
                 mem_gb: float) -> None:
        self.index = index
        self.name = name
        self.num_cores = cores
        self.num_gpus = gpus
        self.mem_gb = mem_gb
        self.health = NodeState.UP
        self._free_cores: List[int] = list(range(cores))
        self._free_gpus: List[int] = list(range(gpus))
        self._free_mem = float(mem_gb)
        #: the owning NodeList's fit-mask table (shared, mutated in place)
        #: and this node's bit in every mask; None for a free-standing node
        self._fit_masks: Optional[Dict[RankShape, int]] = None
        self._bit = 1 << index
        #: health hooks ``(node, kind)`` with kind in down | degraded | up
        #: -- schedulers subscribe to wake parked work on a repair
        self._health_listeners: List[Callable[["NodeState", str], None]] = []

    def _refit(self) -> None:
        """Re-evaluate this node's bit in every tracked shape's fit mask.

        The predicate is :meth:`fits`, spelled out so the node's state is
        read once for all shapes.
        """
        masks = self._fit_masks
        if not masks:
            return
        bit = self._bit
        up = self.health == NodeState.UP
        free_cores = len(self._free_cores)
        free_gpus = len(self._free_gpus)
        free_mem = self._free_mem
        for shape, mask in masks.items():
            cores, gpus, mem_gb = shape
            if (up and free_cores >= cores and free_gpus >= gpus
                    and free_mem >= mem_gb - 1e-9):
                if not mask & bit:
                    masks[shape] = mask | bit
            elif mask & bit:
                masks[shape] = mask ^ bit

    # -- health ----------------------------------------------------------------
    @property
    def is_up(self) -> bool:
        return self.health == NodeState.UP

    def _set_health(self, health: str) -> None:
        self.health = health
        self._refit()
        for listener in self._health_listeners:
            listener(self, health)

    def mark_down(self) -> None:
        """Crash the node: placements are rejected until :meth:`mark_up`."""
        self._set_health(NodeState.DOWN)

    def mark_degraded(self) -> None:
        """Drain the node: running slots survive, new placements skip it."""
        self._set_health(NodeState.DEGRADED)

    def mark_up(self) -> None:
        """Repair the node (end of MTTR window)."""
        self._set_health(NodeState.UP)

    # -- capacity queries ------------------------------------------------------
    @property
    def free_cores(self) -> int:
        return len(self._free_cores)

    @property
    def free_gpus(self) -> int:
        return len(self._free_gpus)

    @property
    def free_mem_gb(self) -> float:
        return self._free_mem

    def fits(self, cores: int, gpus: int = 0, mem_gb: float = 0.0) -> bool:
        """Can this node currently host the requested slot?"""
        return (self.health == NodeState.UP
                and len(self._free_cores) >= cores
                and len(self._free_gpus) >= gpus
                and self._free_mem >= mem_gb - 1e-9)

    # -- allocation ------------------------------------------------------------
    def allocate(self, cores: int, gpus: int = 0,
                 mem_gb: float = 0.0) -> Slot:
        """Carve a slot; raises RuntimeError if it does not fit."""
        if cores < 0 or gpus < 0 or mem_gb < 0:
            raise ValueError("resource amounts must be non-negative")
        free_cores = self._free_cores
        free_gpus = self._free_gpus
        if not (self.health == NodeState.UP       # == self.fits(...)
                and len(free_cores) >= cores
                and len(free_gpus) >= gpus
                and self._free_mem >= mem_gb - 1e-9):
            raise RuntimeError(
                f"node {self.name}: cannot allocate {cores}c/{gpus}g/"
                f"{mem_gb}GB (free: {self.free_cores}c/{self.free_gpus}g/"
                f"{self._free_mem}GB)")
        core_ids = tuple(free_cores[:cores])
        del free_cores[:cores]
        gpu_ids = tuple(free_gpus[:gpus])
        del free_gpus[:gpus]
        self._free_mem -= mem_gb
        self._refit()
        return Slot(self.index, self.name, core_ids, gpu_ids, mem_gb)

    def release(self, slot: Slot) -> None:
        """Return a slot's resources; raises on double-release."""
        if slot.node_index != self.index:
            raise RuntimeError(
                f"slot for node {slot.node_index} released on node {self.index}")
        free_cores = self._free_cores
        free_gpus = self._free_gpus
        if not (set(slot.cores).isdisjoint(free_cores)
                and set(slot.gpus).isdisjoint(free_gpus)):
            raise RuntimeError(
                f"double release on node {self.name}: cores "
                f"{set(slot.cores) & set(free_cores)}, gpus "
                f"{set(slot.gpus) & set(free_gpus)} already free")
        free_cores.extend(slot.cores)
        free_cores.sort()
        free_gpus.extend(slot.gpus)
        free_gpus.sort()
        self._free_mem = min(self.mem_gb, self._free_mem + slot.mem_gb)
        self._refit()

    def __repr__(self) -> str:
        return (f"<NodeState {self.name} free={self.free_cores}c/"
                f"{self.free_gpus}g/{self._free_mem:.0f}GB>")


class NodeList:
    """An ordered collection of :class:`NodeState` with search helpers.

    Wrapping nodes in a NodeList makes it the keeper of their fit masks
    (see the module docstring), so placement queries never scan the array;
    the list is fixed-size after construction and a node belongs to at most
    one list.
    """

    def __init__(self, nodes: List[NodeState]) -> None:
        self.nodes = list(nodes)
        #: rank shape -> fit mask; built lazily per shape by :meth:`fit_mask`,
        #: kept current by the nodes themselves (``NodeState._refit``)
        self._fit_masks: Dict[RankShape, int] = {}
        self._max_shapes = max(_MIN_TRACKED_SHAPES, len(self.nodes))
        # The runtime indexes nodes by Slot.node_index everywhere
        # (scheduler release, colocation pins, the fit masks' bit
        # addressing), so node.index must equal list position; fail loudly
        # on subset/reordered lists instead of corrupting silently.
        for pos, node in enumerate(self.nodes):
            if node.index != pos:
                raise ValueError(
                    f"node {node.name} has index {node.index} at list "
                    f"position {pos}; NodeList requires dense, in-order "
                    f"node indices")
            if node._fit_masks is not None:
                raise ValueError(
                    f"node {node.name} already belongs to a NodeList")
            node._fit_masks = self._fit_masks
        self._index_of = {node.name: node.index for node in self.nodes}
        #: distinct static (cores, gpus, mem) profiles for O(1) feasibility
        self._profiles = sorted({(n.num_cores, n.num_gpus, n.mem_gb)
                                 for n in self.nodes}, reverse=True)
        self._total_cores = sum(n.num_cores for n in self.nodes)
        self._total_gpus = sum(n.num_gpus for n in self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __getitem__(self, idx: int) -> NodeState:
        return self.nodes[idx]

    @classmethod
    def build(cls, count: int, cores: int, gpus: int, mem_gb: float,
              name_prefix: str = "node") -> "NodeList":
        """Construct *count* identical nodes."""
        return cls([
            NodeState(i, f"{name_prefix}{i:05d}", cores, gpus, mem_gb)
            for i in range(count)
        ])

    def fit_mask(self, cores: int, gpus: int = 0,
                 mem_gb: float = 0.0) -> int:
        """Bit *i* set iff node *i* fits one ``(cores, gpus, mem_gb)`` rank.

        Exact at all times: O(1) for a tracked shape, one O(nodes) pass of
        :meth:`NodeState.fits` the first time a shape is asked about.
        """
        shape = (cores, gpus, mem_gb)
        mask = self._fit_masks.get(shape)
        if mask is None:
            if len(self._fit_masks) >= self._max_shapes:
                self._fit_masks.clear()
            mask = 0
            for node in self.nodes:
                if node.fits(cores, gpus, mem_gb):
                    mask |= node._bit
            self._fit_masks[shape] = mask
        return mask

    def find_fit(self, cores: int, gpus: int = 0, mem_gb: float = 0.0,
                 start: int = 0,
                 avoid: Optional[set] = None) -> Optional[NodeState]:
        """First-fit search starting at index *start* (wraps around).

        *avoid* is a soft blacklist of node names (failed-node memory of
        the retry policy): avoided nodes are skipped on the first pass and
        reconsidered only when nothing else fits.

        Served by the shape's fit mask: the first fitting node at or after
        *start* is the lowest set bit of ``mask >> start``, the wrap-around
        the lowest set bit of the mask itself, so a fully-packed allocation
        answers "nothing fits" with one dict lookup.  The returned node is
        always identical to what the seed's linear scan would have picked.
        """
        mask = self.fit_mask(cores, gpus, mem_gb)
        if not mask:
            return None
        if avoid:
            avoided = 0
            for name in avoid:
                index = self._index_of.get(name)
                if index is not None:
                    avoided |= 1 << index
            mask = mask & ~avoided or mask  # soft: all avoided = none avoided
        ahead = mask >> start
        if ahead:
            return self.nodes[start + (ahead & -ahead).bit_length() - 1]
        return self.nodes[(mask & -mask).bit_length() - 1]

    def can_ever_fit(self, cores: int, gpus: int, mem_gb: float) -> bool:
        """Could any node host this rank when completely empty?

        Static-capacity check over the distinct node profiles (O(1) for
        homogeneous pools), independent of current health or load.
        """
        return any(pc >= cores and pg >= gpus and pm >= mem_gb - 1e-9
                   for pc, pg, pm in self._profiles)

    @property
    def total_cores(self) -> int:
        """Static core capacity across all nodes."""
        return self._total_cores

    @property
    def total_gpus(self) -> int:
        """Static GPU capacity across all nodes."""
        return self._total_gpus

    @property
    def up_count(self) -> int:
        """Nodes currently accepting placements."""
        return sum(1 for n in self.nodes if n.is_up)

    @property
    def total_free_cores(self) -> int:
        return sum(n.free_cores for n in self.nodes)

    @property
    def total_free_gpus(self) -> int:
        return sum(n.free_gpus for n in self.nodes)
