"""Per-node resource accounting: core/GPU/memory slot management.

A :class:`NodeState` tracks which core and GPU indices are free on one node
of an allocation.  The agent scheduler (:mod:`repro.pilot.agent.scheduler`)
carves :class:`Slot` objects out of nodes and returns them on task
completion.  Invariant maintained throughout: a core/GPU index is held by at
most one live slot (verified by property-based tests).

Placement queries read **per-rank-shape fit masks**: for every rank shape
``(cores, gpus, mem_gb)`` a :class:`NodeList` has been asked about, one
Python ``int`` whose bit *i* says whether node *i* passes
:meth:`NodeState.fits` for one such rank right now.  The list's mask table
is a dict keyed by the rank shape (``NodeList._fit_masks[shape]`` builds an
untracked shape's mask on its first read, O(nodes)).  A node change
(allocate / release / health flip) costs what it changes: each node keeps
the set of tracked shapes it fits as a bit word, the list memoises that
word per node state ``(free cores, free GPUs, free memory)`` (a node that
is not up fits nothing), and the change XORs the node's old word with its
new one and flips the node's bit in only the masks of the shapes whose
answer moved -- one or two on an allocate or release, none when a node
stays full.  ``find_fit`` from a round-robin start with wrap-around is a
shift and a lowest-set-bit, whatever the pool size or load, and returns
exactly the node the seed's linear first-fit scan would (including the
soft ``avoid`` deferral).  A bit is *exact* -- "no bit set" means no node
fits -- so the scheduler's wake filter and pre-placement check read the
same masks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Slot", "NodeState", "NodeList"]

#: A rank shape: what one rank asks of a node, ``(cores, gpus, mem_gb)``.
RankShape = Tuple[int, int, float]

#: Rank shapes a NodeList keeps fit masks for, at the least.  Building an
#: untracked shape's mask costs O(nodes), so a list tracks up to
#: ``max(_MIN_TRACKED_SHAPES, nodes)`` shapes.  A workload with more
#: distinct rank shapes than that overflows the table, which clears it and
#: lets the live shapes refill lazily on their next query.
_MIN_TRACKED_SHAPES = 64

#: Node states ``(free cores, free GPUs, free memory)`` whose fit words a
#: NodeList memoises, at the most.  A miss costs O(tracked shapes); a
#: homogeneous pool whose ranks ask no memory reaches (cores + 1) x (GPUs
#: + 1) states.  Like the mask table, a full memo is cleared and refills
#: lazily.
_MAX_NODE_STATES = 4096


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
        #: the owning NodeList's fit table (shared, mutated in place) and
        #: this node's bit in every mask; None for a free-standing node
        self._table: Optional[_FitTable] = None
        self._bit = 1 << index
        #: bit *k*: this node fits the table's tracked shape *k* right now
        self._fits = 0
        #: health hooks ``(node, kind)`` with kind in down | degraded | up
        #: -- schedulers subscribe to wake parked work on a repair
        self._health_listeners: List[Callable[["NodeState", str], None]] = []

    def _refit(self) -> None:
        """Flip this node's bit in the masks of the shapes whose answer
        moved: the old fit word XOR the new one (the table's memo of this
        node state), one set bit per shape that changed."""
        table = self._table
        if table is None:
            return
        if self.health == NodeState.UP:
            state = (len(self._free_cores), len(self._free_gpus),
                     self._free_mem)
            fits = table.words.get(state)
            if fits is None:
                fits = table.word(state)
        else:
            fits = 0
        moved = fits ^ self._fits
        if moved:
            self._fits = fits
            bit = self._bit
            shapes = table.shapes
            while moved:
                low = moved & -moved
                table[shapes[low.bit_length() - 1]] ^= bit
                moved ^= low

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


class _FitTable(dict):
    """``rank shape -> fit mask`` for the shapes a :class:`NodeList` tracks.

    Reading an untracked shape builds its mask, O(nodes), and tracks it as
    shape *k* (``shapes[k]``): each node's fit word gains bit *k* and the
    memo of words per node state (``words``) starts over, since no word in
    it answers for the new shape.  A full table is cleared first, and every
    node's word with it.  Kept current by the nodes (``NodeState._refit``).
    """

    __slots__ = ("nodes", "max_shapes", "shapes", "words")

    def __init__(self, nodes: List[NodeState], max_shapes: int) -> None:
        super().__init__()
        self.nodes = nodes
        self.max_shapes = max_shapes
        #: tracked shape *k*, whose bit in a fit word is ``1 << k``
        self.shapes: List[RankShape] = []
        #: node state ``(free cores, free GPUs, free memory)`` -> the fit
        #: word of an up node in that state
        self.words: Dict[Tuple[int, int, float], int] = {}

    def __missing__(self, shape: RankShape) -> int:
        if len(self.shapes) >= self.max_shapes:
            self.clear()
            self.shapes.clear()
            for node in self.nodes:
                node._fits = 0
        cores, gpus, mem_gb = shape
        shape_bit = 1 << len(self.shapes)
        self.shapes.append(shape)
        self.words.clear()
        mask = 0
        for node in self.nodes:
            if node.fits(cores, gpus, mem_gb):
                mask |= node._bit
                node._fits |= shape_bit
        self[shape] = mask
        return mask

    def word(self, state: Tuple[int, int, float]) -> int:
        """The tracked shapes an up node in *state* fits (memoised): the
        predicate is :meth:`NodeState.fits`, spelled out."""
        free_cores, free_gpus, free_mem = state
        word = 0
        for k, (cores, gpus, mem_gb) in enumerate(self.shapes):
            if (free_cores >= cores and free_gpus >= gpus
                    and free_mem >= mem_gb - 1e-9):
                word |= 1 << k
        if len(self.words) >= _MAX_NODE_STATES:
            self.words.clear()
        self.words[state] = word
        return word


class NodeList:
    """An ordered collection of :class:`NodeState` with search helpers.

    Wrapping nodes in a NodeList makes it the keeper of their fit masks
    (see the module docstring), so placement queries never scan the array;
    the list is fixed-size after construction and a node belongs to at most
    one list.
    """

    def __init__(self, nodes: List[NodeState]) -> None:
        self.nodes = list(nodes)
        self._max_shapes = max(_MIN_TRACKED_SHAPES, len(self.nodes))
        #: rank shape -> fit mask; built on a shape's first read, kept
        #: current by the nodes themselves (``NodeState._refit``)
        self._fit_masks = _FitTable(self.nodes, self._max_shapes)
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
            if node._table is not None:
                raise ValueError(
                    f"node {node.name} already belongs to a NodeList")
            node._table = self._fit_masks
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
        mask = self._fit_masks[cores, gpus, mem_gb]
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
    def total_free_cores(self) -> int:
        return sum(n.free_cores for n in self.nodes)

    @property
    def total_free_gpus(self) -> int:
        return sum(n.free_gpus for n in self.nodes)
