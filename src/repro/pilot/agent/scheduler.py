"""Agent-side scheduler: places task ranks onto the pilot's nodes.

Reproduces RADICAL-Pilot's *continuous* scheduler semantics with the
extension the paper adds (§III: "We extended the existing Scheduler to enact
priority relations between services and tasks"):

* requests are served in (priority desc, arrival asc) order;
* any queued request that fits may start (no strict FIFO head-blocking,
  matching RP's behaviour for independent tasks);
* a multi-rank request is placed atomically -- all ranks get slots or the
  request stays queued;
* ``tags={"colocate": <group>}`` pins all members of a group to the node
  chosen for the group's first member;
* ``tags={"affinity": <key>}`` is the *soft* variant used for data
  locality: ranks prefer the node last used for the same key (where the
  key's data plausibly still sits in node-local storage) but fall back to
  any fitting node rather than queueing.

Invariant (property-tested, with and without affinity tags): no core/GPU
index is ever double-booked.

**Hot-path design** (the control plane's throughput cap on leadership-class
scales -- see ``benchmarks/test_ablation_sched_throughput.py``):

* the pending queue is a set of per-*shape* binary heaps keyed on
  ``(-priority, seq)``, where a shape is everything feasibility-relevant
  about a request -- ``(cores, gpus, mem, ranks, colocate-group)``.  Soft
  hints (affinity, avoid) steer node *choice*, never placeability, so all
  members of a shape become placeable and unplaceable together;
* rescans are **event-driven**: an ``_infeasible`` shape memo records which
  shapes failed placement since capacity last *grew* (release, node repair,
  explicit kick).  Submitting into a memoised shape is an O(log n) enqueue
  with no placement attempt.  A capacity increase *wake-filters* the memo
  against the node list's per-shape **fit masks**
  (:meth:`~repro.hpc.node.NodeList.fit_mask`: bit *i* says node *i* fits
  one rank right now): only parked shapes with a bit among the nodes whose
  capacity grew are woken; the rest stay parked without a doomed placement
  attempt.  The grant pass reads the same mask for each woken shape's head
  *again* right before placing it, and before re-offering the shape after
  a grant (**capacity-qualified wake**): siblings woken by the same
  release compete for the same few cores, and the ones that lost are
  parked unattempted.  A bit is exact -- no bit set means ``_place`` could
  only fail -- so the checks never change what is granted, only what is
  attempted.  Woken shapes enter a **feasible-shape ready heap** keyed on
  their head entry's ``(-priority, seq)``, so the grant pass picks the
  globally best pending request in O(log shapes) instead of a linear scan
  over every shape key (colocate-heavy mixes create one shape per group).
  A single kick therefore grants every currently-feasible request without
  re-walking entries already rejected at the same capacity (the seed
  restarted a full scan of the queue after every grant);
* ``withdraw`` is O(1) via a uid->entry index with lazy heap deletion, and
  ``held_on_node`` reads a per-node held-task index instead of scanning
  every held slot;
* node search inside :meth:`_place` is ``NodeList.find_fit``: a shift and a
  lowest-set-bit on the shape's fit mask, O(1) in the number of nodes.

The semantics are pinned to the seed implementation
(``ReferenceScheduler`` in ``tests/pilot/reference_scheduler.py``) by a
property test replaying random traffic through both and comparing grant
order, landing order and slot assignments.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, \
    Tuple

from ...hpc.node import NodeList, NodeState, Slot
from ...utils.log import get_logger
from ..task import NO_SLOTS

if TYPE_CHECKING:  # pragma: no cover
    from ..session import Session
    from ..task import Task

__all__ = ["AgentScheduler", "SchedulerError", "SchedulerStats"]

log = get_logger("pilot.agent.scheduler")

#: feasibility class of a request: per-rank resources, rank count and hard
#: colocation group (None for ungrouped requests)
ShapeKey = Tuple[int, int, float, int, Optional[str]]

#: pending-queue entry: [(-priority), seq, task, landing, alive, enqueue
#: time]
_ALIVE = 4


class SchedulerError(Exception):
    """Raised for requests that can never be satisfied."""


class SchedulerStats:
    """Hot-path counters (cheap enough to keep always-on)."""

    __slots__ = ("place_attempts", "grants", "passes", "memo_hits")

    def __init__(self) -> None:
        self.place_attempts = 0  # _place invocations (success or failure)
        self.grants = 0          # successful placements
        self.passes = 0          # _try_schedule pass executions
        self.memo_hits = 0       # submits enqueued without a placement try

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return f"<SchedulerStats {self.as_dict()}>"


class AgentScheduler:
    """Slot allocator over one pilot's node list."""

    def __init__(self, session: "Session", nodes: NodeList,
                 pilot_uid: str) -> None:
        self.session = session
        self.nodes = nodes
        self.pilot_uid = pilot_uid
        self._seq = itertools.count()
        #: per-shape pending heaps, entries ordered by (-priority, seq)
        self._shape_queues: Dict[ShapeKey, List[list]] = {}
        #: uid -> live pending entry (O(1) withdraw / duplicate check)
        self._entries: Dict[str, list] = {}
        self._pending_count = 0
        #: shapes that failed placement since capacity last increased
        self._infeasible: Set[ShapeKey] = set()
        #: feasible-shape heap: (head -priority, head seq, shape) of woken
        #: shapes, drained by _try_schedule in global head order
        self._ready: List[tuple] = []
        self._ready_shapes: Set[ShapeKey] = set()
        #: static per-rank-shape fit memo (node profiles never change)
        self._fit_cache: Dict[Tuple[int, int, float], bool] = {}
        self._held: Dict[str, List[Slot]] = {}
        #: node index -> {uid: slot count} (held_on_node without scans)
        self._node_held: Dict[int, Dict[str, int]] = {}
        self._colocate_node: Dict[str, int] = {}
        self._affinity_node: Dict[str, int] = {}  # soft data-affinity memory
        self._rr_index = 0  # round-robin start node for spreading load
        self.stats = SchedulerStats()
        # Observability (None-guarded: one attribute test on hot paths when
        # the plane is disabled, nothing else)
        obs = session.observability
        self._obs_metrics = obs.metrics if obs is not None else None
        if self._obs_metrics is not None:
            #: shape -> live pending entries (incremental, so the per-tick
            #: poll never scans the heaps)
            self._obs_shape_counts: Dict[ShapeKey, int] = {}
            self._obs_grant_hist = self._obs_metrics.histogram(
                "scheduler_grant_latency_s", {"pilot": pilot_uid})
            self._obs_shapes_seen: Set[ShapeKey] = set()
            self._obs_metrics.add_poll(self._obs_poll)
        # Node repairs grow capacity outside this class's own entry points
        # (mark_up is public API; the fault injector's explicit kick() is
        # convention, not contract).  Subscribe to health-up changes so the
        # infeasible-shape memo can never go stale against a repair.
        for node in nodes:
            node._health_listeners.append(self._health_changed)

    def _health_changed(self, node: NodeState, health: str) -> None:
        if health == NodeState.UP:
            self._capacity_increased(1 << node.index)

    # -- observability -----------------------------------------------------------
    def _obs_poll(self) -> None:
        """Per-sample-tick snapshot of queue depth and core utilization."""
        metrics = self._obs_metrics
        pilot = {"pilot": self.pilot_uid}
        metrics.gauge("scheduler_pending_total", pilot).set(
            self._pending_count)
        # zero shapes seen earlier so a drained shape's series returns to 0
        for shape in self._obs_shapes_seen:
            if shape not in self._obs_shape_counts:
                metrics.gauge("scheduler_pending",
                              {"pilot": self.pilot_uid,
                               "shape": str(shape)}).set(0)
        for shape, count in self._obs_shape_counts.items():
            self._obs_shapes_seen.add(shape)
            metrics.gauge("scheduler_pending",
                          {"pilot": self.pilot_uid,
                           "shape": str(shape)}).set(count)
        total = self.nodes.total_cores
        if total:
            used = total - self.nodes.total_free_cores
            metrics.gauge("pilot_core_utilization", pilot).set(used / total)

    def _obs_track_dequeue(self, shape: ShapeKey) -> None:
        """Shape-count bookkeeping for one entry leaving the queue.

        Takes the already-computed shape key: recomputing it per grant
        would dominate the instrumentation cost on the hot path.
        """
        counts = self._obs_shape_counts
        left = counts.get(shape, 1) - 1
        if left > 0:
            counts[shape] = left
        else:
            counts.pop(shape, None)

    # -- validation ----------------------------------------------------------
    def _feasible(self, task: "Task") -> bool:
        """Could the request ever fit on an *empty* pilot?  O(1)."""
        d = task.description
        key = (d.cores_per_rank, d.gpus_per_rank, d.mem_per_rank_gb)
        fits = self._fit_cache.get(key)
        if fits is None:
            # node profiles are static, so the per-shape answer is too
            fits = self.nodes.can_ever_fit(*key)
            self._fit_cache[key] = fits
        if not fits:
            return False
        return (task.n_cores <= self.nodes.total_cores
                and task.n_gpus <= self.nodes.total_gpus)

    @staticmethod
    def _shape_of(task: "Task") -> ShapeKey:
        d = task.description
        tags = d._tags  # as stored: a default's is never built
        group = tags.get("colocate") if tags else None
        return (d.cores_per_rank, d.gpus_per_rank, d.mem_per_rank_gb,
                d.ranks, group)

    # -- public API ------------------------------------------------------------
    def schedule(self, task: "Task",
                 landing: Callable[["Task"], None]) -> None:
        """Request slots for *task*; a grant lands on ``landing(task)``.

        The grant puts the slots in ``task.slots`` and schedules
        ``landing(task)`` one zero-delay kernel entry later, the handle in
        ``task.wait``.  A request that can never be granted raises
        :class:`SchedulerError`.
        """
        if task.uid in self._held:
            raise SchedulerError(f"{task.uid} already holds slots")
        if task.uid in self._entries:
            raise SchedulerError(f"{task.uid} is already queued")
        if not self._feasible(task):
            raise SchedulerError(
                f"{task.uid} can never fit on pilot {self.pilot_uid}: "
                f"needs {task.n_cores}c/{task.n_gpus}g")
        shape = self._shape_of(task)
        if shape in self._infeasible:
            # Known-unplaceable at current capacity: enqueue without a
            # placement attempt.  Every queued sibling of this shape was
            # rejected since the last capacity increase, and capacity only
            # shrinks between increases, so trying again cannot succeed.
            self.stats.memo_hits += 1
            self._enqueue(shape, task, landing)
        else:
            # Invariant: a shape absent from the memo has no queued entries
            # (they were all granted or the shape is memoised), so
            # attempting just this request preserves the global grant order
            # -- all other pending work is currently unplaceable by
            # construction.
            slots = self._place(task)
            if slots is None:
                self._infeasible.add(shape)
                self._enqueue(shape, task, landing)
            else:
                self._grant(task, landing, slots)

    def release(self, task: "Task") -> None:
        """Return a task's slots and re-run placement for waiters."""
        slots = self._held.pop(task.uid, None)
        if slots is None:
            raise SchedulerError(f"{task.uid} holds no slots")
        changed = 0  # bit i: node i got capacity back
        for slot in slots:
            self.nodes[slot.node_index].release(slot)
            self._drop_node_held(slot.node_index, task.uid)
            changed |= 1 << slot.node_index
        task.slots = NO_SLOTS
        self._capacity_increased(changed)

    def withdraw(self, task: "Task") -> bool:
        """Remove a queued (not yet granted) request.  True if found.

        O(1): the entry is tombstoned in place and skipped lazily when its
        heap surfaces it.  No capacity changed, so no rescan is needed.

        A requester withdrawn at the grant instant (after the grant, before
        its landing ran) finds nothing queued here, but the scheduler holds
        slots for it that nobody will ever release: those are returned, and
        the call still reports False -- there was no queued request.
        """
        entry = self._entries.pop(task.uid, None)
        if entry is None:
            if task.uid in self._held:
                self.release(task)
            return False
        entry[_ALIVE] = False
        self._pending_count -= 1
        if not self._pending_count:
            self._entries = {}     # give a drained queue's peak table back
        if self._obs_metrics is not None:
            self._obs_track_dequeue(self._shape_of(task))
        return True

    def kick(self) -> None:
        """Re-run placement (e.g. after a crashed node was repaired)."""
        self._capacity_increased()

    def held_on_node(self, node_index: int) -> List[str]:
        """Uids of tasks holding at least one slot on the given node."""
        return list(self._node_held.get(node_index, ()))

    @property
    def queue_length(self) -> int:
        return self._pending_count

    @property
    def held_tasks(self) -> List[str]:
        return list(self._held)

    # -- queue plumbing ----------------------------------------------------------
    def _enqueue(self, shape: ShapeKey, task: "Task",
                 landing: Callable[["Task"], None]) -> None:
        entry = [-task.description.priority, next(self._seq), task, landing,
                 True, self.session.engine.now]
        heappush(self._shape_queues.setdefault(shape, []), entry)
        self._entries[task.uid] = entry
        self._pending_count += 1
        if self._obs_metrics is not None:
            self._obs_shape_counts[shape] = \
                self._obs_shape_counts.get(shape, 0) + 1

    def _peek(self, queue: List[list]) -> Optional[list]:
        """Head live entry of one shape heap (tombstones popped lazily)."""
        while queue:
            head = queue[0]
            if head[_ALIVE]:
                return head
            heappop(queue)
        return None

    def _grant(self, task: "Task", landing: Callable[["Task"], None],
               slots: List[Slot], queued_at: Optional[float] = None) -> None:
        """Hand *slots* to *task*; *queued_at* is when a pending entry was
        enqueued (None: granted on arrival, nothing was queued)."""
        self._held[task.uid] = slots
        for slot in slots:
            holders = self._node_held.setdefault(slot.node_index, {})
            holders[task.uid] = holders.get(task.uid, 0) + 1
        task.slots = slots
        self.stats.grants += 1
        now = self.session.engine.now
        self.session.profiler.record(now, task.uid, "schedule_ok",
                                     self.pilot_uid)
        if self._obs_metrics is not None:
            self._obs_grant_hist.observe(
                0.0 if queued_at is None else now - queued_at)
        task.wait = self.session.engine.call_later(0.0, landing, task)

    def _drop_node_held(self, node_index: int, uid: str) -> None:
        holders = self._node_held.get(node_index)
        if holders is None:
            return
        count = holders.get(uid, 0) - 1
        if count > 0:
            holders[uid] = count
        else:
            holders.pop(uid, None)
            if not holders:
                del self._node_held[node_index]

    def _capacity_increased(self, changed: int = -1) -> None:
        """Capacity grew: wake qualifying parked shapes and re-place.

        *changed* is the bit mask of the nodes whose capacity grew
        (release, single-node repair); an explicit kick names no node and
        passes all bits.  A parked shape transitioned to placeable only if
        a node whose capacity just grew can now host one of its ranks:
        state elsewhere is unchanged, per-rank consumption is uniform (so
        greedy multi-rank success is independent of node choice order), and
        capacity only shrinks between increases.  So a shape is woken iff
        its fit mask has a bit among the changed nodes.  Unwoken shapes
        would have failed their placement attempt, so skipping them is
        behaviour-preserving (the seed cleared the memo wholesale and paid
        a doomed ``_place`` per unplaceable shape).
        """
        infeasible = self._infeasible
        if infeasible:
            fit_mask = self.nodes.fit_mask
            woken = [shape for shape in infeasible
                     if fit_mask(shape[0], shape[1], shape[2]) & changed]
            for shape in woken:
                infeasible.discard(shape)
                self._push_ready(shape)
        self._try_schedule()

    def _push_ready(self, shape: ShapeKey) -> None:
        """Offer a shape's live head to the ready heap (dedup'd)."""
        if shape in self._ready_shapes:
            return
        queue = self._shape_queues.get(shape)
        head = self._peek(queue) if queue else None
        if head is None:
            self._shape_queues.pop(shape, None)  # fully drained shape
            return
        self._ready_shapes.add(shape)
        heappush(self._ready, (head[0], head[1], shape))

    # -- placement ---------------------------------------------------------------
    def _place(self, task: "Task") -> Optional[List[Slot]]:
        """Try to place all ranks; returns slots or None (state rolled back)."""
        self.stats.place_attempts += 1
        d = task.description
        cores, gpus, mem = d.cores_per_rank, d.gpus_per_rank, d.mem_per_rank_gb
        slots: List[Slot] = []
        tags = d._tags  # as stored: a default's is never built
        group = tags.get("colocate") if tags else None
        affinity = tags.get("affinity") if tags else None
        if affinity is None:  # placement-derived hint (never user tags)
            affinity = getattr(task, "affinity_key", None)
        pinned: Optional[int] = self._colocate_node.get(group) \
            if group else None
        preferred: Optional[int] = self._affinity_node.get(affinity) \
            if affinity is not None else None
        avoid = getattr(task, "avoid_nodes", None)
        for _rank in range(d.ranks):
            node: Optional[NodeState]
            if pinned is not None:
                # colocation is a *hard* constraint: the pin wins even over
                # the retry policy's failed-node memory
                node = self.nodes[pinned]
                if not node.fits(cores, gpus, mem):
                    node = None
            else:
                node = None
                if preferred is not None:  # soft: fall through on no fit
                    candidate = self.nodes[preferred]
                    if candidate.fits(cores, gpus, mem) \
                            and not (avoid and candidate.name in avoid):
                        node = candidate
                if node is None:
                    node = self.nodes.find_fit(
                        cores, gpus, mem, start=self._rr_index, avoid=avoid)
            if node is None:
                for slot in slots:  # rollback partial placement
                    self.nodes[slot.node_index].release(slot)
                return None
            slots.append(node.allocate(cores, gpus, mem))
        if group and group not in self._colocate_node:
            self._colocate_node[group] = slots[0].node_index
        if affinity is not None:
            self._affinity_node[affinity] = slots[0].node_index
        self._rr_index = (slots[-1].node_index + 1) % len(self.nodes)
        return slots

    def _try_schedule(self) -> None:
        """Grant every woken request that currently fits (priority order).

        One pass over the feasible-shape ready heap: woken shapes surface
        in global head ``(-priority, seq)`` order, so each pick costs
        O(log shapes) instead of a linear scan over every shape key.  A
        popped shape is verified against its queue (withdraws make heap
        keys stale -- the live head is simply re-offered), then attempted:
        a grant re-offers the shape's next head (it may fit the remaining
        capacity), a failure parks the shape in the infeasible memo.  The
        heap always surfaces the minimal live head among non-parked
        shapes, so the grant order is identical to the seed's full scan.
        A head is attempted only while its shape's fit mask is non-zero
        (some node fits one rank -- exact); otherwise the shape is parked
        unattempted.  A pass therefore costs O(grants) placement attempts,
        plus a multi-rank or pinned request whose ranks do not all find
        room and which fails inside ``_place``.
        """
        self.stats.passes += 1
        ready = self._ready
        ready_shapes = self._ready_shapes
        queues = self._shape_queues
        infeasible = self._infeasible
        fit_mask = self.nodes.fit_mask
        while ready:
            key0, key1, shape = heappop(ready)
            ready_shapes.discard(shape)
            if shape in infeasible:
                continue
            queue = queues.get(shape)
            head = self._peek(queue) if queue else None
            if head is None:
                queues.pop(shape, None)  # fully drained shape
                continue
            if head[0] != key0 or head[1] != key1:
                self._push_ready(shape)  # stale key: re-offer live head
                continue
            # Capacity-qualified wake: grants earlier in this pass may have
            # consumed what woke the shape.  When no up node can host one
            # rank any more, _place could only return None (pinned or not),
            # so park the shape without paying for the doomed attempt.
            if not fit_mask(shape[0], shape[1], shape[2]):
                infeasible.add(shape)
                continue
            task, landing = head[2], head[3]
            slots = self._place(task)
            if slots is None:
                infeasible.add(shape)
                continue
            heappop(queue)
            del self._entries[task.uid]
            self._pending_count -= 1
            if not self._pending_count:
                self._entries = {}     # as in withdraw
            if self._obs_metrics is not None:
                self._obs_track_dequeue(shape)
            self._grant(task, landing, slots, head[5])
            # Capacity never grows inside a pass: siblings of a shape that
            # no longer fits are parked here, not re-offered and popped.
            if queue and not fit_mask(shape[0], shape[1], shape[2]):
                infeasible.add(shape)
            else:
                self._push_ready(shape)
