"""Reference agent scheduler: the executable placement specification.

This is a line-for-line preservation of the seed's quadratic scheduler --
grant-then-rescan over a sorted pending list, linear first-fit over all
nodes -- kept as the *semantic oracle* for the indexed production scheduler
(:class:`repro.pilot.agent.scheduler.AgentScheduler`):

* the placement-equivalence property test replays randomized
  submit/release/crash/withdraw traffic through both implementations and
  asserts identical grant order and slot assignments;
* the scheduler-throughput benchmark measures it as the pre-refactor
  baseline, so the reported speedups are against real executable history
  rather than a number in a commit message.

Do not optimise this module: its value is being obviously equivalent to
the seed semantics.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.hpc.node import NodeState, Slot
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.pilot.session import Session
    from repro.pilot.task import Task

__all__ = ["ReferenceScheduler"]


class ReferenceScheduler:
    """Seed-semantics slot allocator: linear scans, rescan after grant."""

    def __init__(self, session: "Session", nodes, pilot_uid: str) -> None:
        from repro.pilot.agent.scheduler import SchedulerError
        self._error = SchedulerError
        self.session = session
        self.nodes = nodes
        self.pilot_uid = pilot_uid
        self._pending: List[Tuple[int, int, "Task", Event]] = []
        self._seq = itertools.count()
        self._held: Dict[str, List[Slot]] = {}
        self._colocate_node: Dict[str, int] = {}
        self._affinity_node: Dict[str, int] = {}
        self._rr_index = 0

    # -- validation ----------------------------------------------------------
    def _feasible(self, task: "Task") -> bool:
        d = task.description
        per_node_ok = any(
            node.num_cores >= d.cores_per_rank
            and node.num_gpus >= d.gpus_per_rank
            and node.mem_gb >= d.mem_per_rank_gb
            for node in self.nodes)
        if not per_node_ok:
            return False
        total_cores = sum(n.num_cores for n in self.nodes)
        total_gpus = sum(n.num_gpus for n in self.nodes)
        return task.n_cores <= total_cores and task.n_gpus <= total_gpus

    def _find_fit(self, cores: int, gpus: int, mem_gb: float,
                  start: int, avoid) -> Optional[NodeState]:
        """The seed's linear first-fit scan with soft-avoid deferral."""
        n = len(self.nodes)
        deferred: Optional[NodeState] = None
        for off in range(n):
            node = self.nodes[(start + off) % n]
            if node.fits(cores, gpus, mem_gb):
                if avoid and node.name in avoid:
                    deferred = deferred or node
                    continue
                return node
        return deferred

    # -- public API ------------------------------------------------------------
    def schedule(self, task: "Task") -> Event:
        event = self.session.engine.event()
        if task.uid in self._held:
            event.fail(self._error(f"{task.uid} already holds slots"))
            return event
        if not self._feasible(task):
            event.fail(self._error(
                f"{task.uid} can never fit on pilot {self.pilot_uid}: "
                f"needs {task.n_cores}c/{task.n_gpus}g"))
            return event
        self._pending.append(
            (-task.description.priority, next(self._seq), task, event))
        self._pending.sort(key=lambda entry: entry[:2])
        self._try_schedule()
        return event

    def release(self, task: "Task") -> None:
        slots = self._held.pop(task.uid, None)
        if slots is None:
            raise self._error(f"{task.uid} holds no slots")
        for slot in slots:
            self.nodes[slot.node_index].release(slot)
        task.slots = []
        self._try_schedule()

    def withdraw(self, task: "Task") -> bool:
        for entry in self._pending:
            if entry[2] is task:
                self._pending.remove(entry)
                return True
        return False

    def kick(self) -> None:
        self._try_schedule()

    def held_on_node(self, node_index: int) -> List[str]:
        return [uid for uid, slots in self._held.items()
                if any(s.node_index == node_index for s in slots)]

    @property
    def queue_length(self) -> int:
        return len(self._pending)

    @property
    def held_tasks(self) -> List[str]:
        return list(self._held)

    # -- placement ---------------------------------------------------------------
    def _place(self, task: "Task") -> Optional[List[Slot]]:
        d = task.description
        slots: List[Slot] = []
        group = d.tags.get("colocate") if d.tags else None
        affinity = d.tags.get("affinity") if d.tags else None
        if affinity is None:
            affinity = getattr(task, "affinity_key", None)
        pinned: Optional[int] = self._colocate_node.get(group) \
            if group else None
        preferred: Optional[int] = self._affinity_node.get(affinity) \
            if affinity is not None else None
        avoid = getattr(task, "avoid_nodes", None)
        for _rank in range(d.ranks):
            node: Optional[NodeState]
            if pinned is not None:
                node = self.nodes[pinned]
                if not node.fits(d.cores_per_rank, d.gpus_per_rank,
                                 d.mem_per_rank_gb):
                    node = None
            else:
                node = None
                if preferred is not None:
                    candidate = self.nodes[preferred]
                    if candidate.fits(d.cores_per_rank, d.gpus_per_rank,
                                      d.mem_per_rank_gb) \
                            and not (avoid and candidate.name in avoid):
                        node = candidate
                if node is None:
                    node = self._find_fit(
                        d.cores_per_rank, d.gpus_per_rank, d.mem_per_rank_gb,
                        self._rr_index, avoid)
            if node is None:
                for slot in slots:
                    self.nodes[slot.node_index].release(slot)
                return None
            slots.append(node.allocate(d.cores_per_rank, d.gpus_per_rank,
                                       d.mem_per_rank_gb))
        if group and group not in self._colocate_node:
            self._colocate_node[group] = slots[0].node_index
        if affinity is not None:
            self._affinity_node[affinity] = slots[0].node_index
        self._rr_index = (slots[-1].node_index + 1) % len(self.nodes)
        return slots

    def _try_schedule(self) -> None:
        granted = True
        while granted:
            granted = False
            for entry in list(self._pending):
                _negprio, _seq, task, event = entry
                slots = self._place(task)
                if slots is None:
                    continue
                self._pending.remove(entry)
                self._held[task.uid] = slots
                task.slots = slots
                self.session.profiler.record(
                    self.session.engine.now, task.uid, "schedule_ok",
                    self.pilot_uid)
                event.succeed(slots)
                granted = True
                break
