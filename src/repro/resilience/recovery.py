"""Policy-driven recovery: retries, checkpoints, pilot resubmission.

Three policies cover the failure modes of long-running hybrid campaigns:

* :class:`RetryPolicy` -- bounded per-task retries with jittered
  exponential backoff.  Pilot losses gate on the heartbeat monitor's
  *declaration* (failures are acted on when observed, not when they
  happen), failed nodes/pilots are blacklisted, and the retried task
  late-binds to whatever healthy pilot the TaskManager then holds.  Which
  origins are retried, how fast the backoff grows and its jitter are module
  constants (:data:`RETRY_ORIGINS`, :data:`BACKOFF_FACTOR`,
  :data:`BACKOFF_JITTER_S`).
* :class:`Checkpointer` -- state persisted as durable data objects (the
  save pays an intra-platform copy at the checkpoint home,
  :data:`CHECKPOINT_HOME`).
  User code saves through it once per round -- the resilience ablation's
  checkpoint/restart arm and ``examples/fault_tolerance.py`` do -- so a
  restart replays only work lost since the last checkpoint; lost warm-tier
  copies re-stage from the durable origins the data subsystem already
  tracks.
* :class:`PilotResubmitPolicy` -- a pilot declared dead by the monitor is
  resubmitted through the platform's batch system (paying queue wait
  again) and re-attached to the TaskManagers that held it, so waiting
  retries find capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    MutableMapping,
    Optional,
    Tuple,
)

from ..data.transfers import Transfer
from ..sim.events import Event, Hook
from ..utils.log import get_logger
from .failures import FailureReason

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.pilot_manager import PilotManager
    from ..pilot.task import Pilot, Task
    from ..pilot.task_manager import TaskManager
    from . import ResilienceServices

__all__ = [
    "RetryPolicy",
    "PilotResubmitPolicy",
    "RecoveryRecord",
    "RecoveryEngine",
    "Checkpointer",
]

log = get_logger("resilience.recovery")

#: failure origins worth retrying (binding errors and cancellations are not
#: infrastructure faults)
RETRY_ORIGINS = frozenset(
    ("node", "pilot", "transfer", "staging", "executor", "service"))
#: growth of the backoff per failed attempt
BACKOFF_FACTOR = 2.0
#: upper bound of the uniform jitter added to each backoff (seconds)
BACKOFF_JITTER_S = 0.5

#: serialized-state size charged per save when the caller names none
CHECKPOINT_BYTES = 0.0
#: durable home of checkpoint objects (the client side)
CHECKPOINT_HOME = "localhost"


@dataclass
class RetryPolicy:
    """Bounded retries with backoff and late re-binding.

    A retried failure blacklists the pilot it lost (origin ``pilot``) and
    the node it ran on, and the backoff grows by :data:`BACKOFF_FACTOR` per
    failed attempt, plus up to :data:`BACKOFF_JITTER_S` of jitter.
    """

    max_retries: int = 2
    backoff_base_s: float = 1.0
    #: how long a retry may wait for a healthy pilot before giving up
    rebind_wait_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        # written so that NaN fails each check
        if not self.backoff_base_s >= 0:
            raise ValueError("backoff_base_s must be >= 0")
        if not self.rebind_wait_s >= 0:
            raise ValueError("rebind_wait_s must be >= 0")


@dataclass
class PilotResubmitPolicy:
    """Resubmit pilots the monitor declares dead."""

    #: resubmissions allowed per pilot lineage (original + replacements)
    max_resubmits: int = 1

    def __post_init__(self) -> None:
        if self.max_resubmits < 0:
            raise ValueError("max_resubmits must be >= 0")


@dataclass(frozen=True)
class RecoveryRecord:
    """One granted task retry: failure to re-dispatch."""

    task_uid: str
    origin: str
    failed_at: float
    resumed_at: float
    attempt: int       # the attempt that failed

    @property
    def latency_s(self) -> float:
        return self.resumed_at - self.failed_at


class RecoveryEngine:
    """Applies the configured policies to observed failures."""

    def __init__(self, services: "ResilienceServices") -> None:
        self.services = services
        self.session = services.session
        self.config = services.config
        self._rng = self.session.rng("resilience.recovery")
        self.blacklisted_pilots: set = set()
        self.blacklisted_nodes: set = set()
        #: granted retries (feeds recovery-latency distributions)
        self.records: List[RecoveryRecord] = []
        #: task uids whose retries were exhausted or timed out
        self.gave_up: List[str] = []
        #: (dead_uid, new_uid, at) of every pilot resubmission
        self.resubmissions: List[Tuple[str, str, float]] = []
        self._resubmit_count: Dict[str, int] = {}   # lineage root -> count
        self._lineage: Dict[str, str] = {}          # pilot uid -> root uid

    # -- task retries ------------------------------------------------------------
    def task_failed(self, tmgr: "TaskManager", task: "Task",
                    reason: Optional[FailureReason]):
        """Decide the fate of a failed task attempt.

        Returns None (give up: the task stays FAILED) or a retry plan for
        the TaskManager to hold and ``start()``.  Its steps -- the
        detection gate, the backoff, the capacity gate -- are landings, and
        the last lands on ``tmgr._recovered(task, granted)``.
        """
        policy = self.config.retry
        if policy is None or reason is None:
            return None
        if reason.origin not in RETRY_ORIGINS:
            return None
        if task.attempts > policy.max_retries:
            self.gave_up.append(task.uid)
            return None
        if reason.origin == "pilot" and reason.pilot_uid:
            self.blacklisted_pilots.add(reason.pilot_uid)
        if reason.node_name:
            self.blacklisted_nodes.add(reason.node_name)
            if isinstance(task.avoid_nodes, frozenset):
                task.avoid_nodes = set(task.avoid_nodes)  # the first add
            task.avoid_nodes.add(reason.node_name)
        return _RetryPlan(self, tmgr, task, reason, policy)

    def _detect(self, plan: "_RetryPlan") -> None:
        """1. Detection gate: a lost pilot is only *observed* dead once its
        heartbeat lease expires; acting earlier would be oracle knowledge
        the real control plane does not have."""
        plan.failed_at = self.session.engine.now
        if plan.reason.origin == "pilot" and plan.reason.pilot_uid:
            declared = self.services.monitor.declared(plan.reason.pilot_uid)
            if declared is not None and not declared.processed:
                plan.wait = Hook(declared, self._backoff, plan)
                return
        self._backoff(plan)

    def _backoff(self, plan: "_RetryPlan", _: Any = None) -> None:
        """2. Jittered exponential backoff."""
        delay = plan.policy.backoff_base_s \
            * BACKOFF_FACTOR ** (plan.task.attempts - 1)
        if BACKOFF_JITTER_S > 0:
            delay += float(self._rng.uniform(0, BACKOFF_JITTER_S))
        plan.deadline = None
        if delay > 0:
            plan.wait = self.session.engine.call_later(delay, self._capacity,
                                                       plan)
        else:
            self._capacity(plan)

    def _capacity(self, plan: "_RetryPlan") -> None:
        """3. Capacity gate: late re-binding needs a live pilot; wait for
        one (e.g. a resubmission clearing the batch queue) up to the
        policy's patience, counted from the first look."""
        engine = self.session.engine
        tmgr, task = plan.tmgr, plan.task
        plan.wait = plan.timer = None
        if plan.deadline is None:
            plan.deadline = engine.now + plan.policy.rebind_wait_s
        if self._has_capacity(tmgr):
            self.records.append(RecoveryRecord(
                task_uid=task.uid, origin=plan.reason.origin,
                failed_at=plan.failed_at, resumed_at=engine.now,
                attempt=plan.reason.attempt))
            return tmgr._recovered(task, True)
        remaining = plan.deadline - engine.now
        if remaining <= 0:
            self.gave_up.append(task.uid)
            log.warning("%s: no pilot capacity within %.0fs; giving up",
                        task.uid, plan.policy.rebind_wait_s)
            return tmgr._recovered(task, False)
        # whichever lands first withdraws the other, and the gate looks
        # again one zero-delay entry later
        plan.timer = engine.call_later(remaining, self._expired, plan)
        plan.wait = Hook(tmgr.pilots_changed, self._changed, plan)

    def _changed(self, plan: "_RetryPlan", _: Any) -> None:
        plan.timer.cancel()
        plan.timer = None
        plan.wait = self.session.engine.call_later(0.0, self._capacity, plan)

    def _expired(self, plan: "_RetryPlan") -> None:
        plan.timer = None  # it fired: the engine may hand it out again
        plan.wait.cancel()
        plan.wait = self.session.engine.call_later(0.0, self._capacity, plan)

    def _has_capacity(self, tmgr: "TaskManager") -> bool:
        from ..pilot.states import PilotState
        return any(p.state not in PilotState.FINAL for p in tmgr.pilots)

    # -- pilot resubmission ------------------------------------------------------
    def watch_pilot(self, pmgr: "PilotManager", pilot: "Pilot",
                    lease) -> None:
        """Arm resubmission for *pilot*: act when its lease expires (only
        ever for an unclean death), in the entry that declares it."""
        lease.declared.callbacks.append(
            lambda _: self._pilot_declared(pmgr, pilot))

    def _pilot_declared(self, pmgr: "PilotManager", pilot: "Pilot") -> None:
        policy = self.config.pilot_resubmit
        if policy is None:
            return
        root = self._lineage.get(pilot.uid, pilot.uid)
        used = self._resubmit_count.get(root, 0)
        if used >= policy.max_resubmits:
            log.warning("%s: resubmission budget exhausted (%d)",
                        pilot.uid, used)
            return
        self._resubmit_count[root] = used + 1
        (replacement,) = pmgr.submit_pilots(pilot.description)
        self._lineage[replacement.uid] = root
        self.resubmissions.append(
            (pilot.uid, replacement.uid, self.session.engine.now))
        log.info("resubmitted %s as %s (lineage %s, %d/%d)", pilot.uid,
                 replacement.uid, root, used + 1, policy.max_resubmits)
        for tmgr in self.services.task_managers:
            if any(p.uid == pilot.uid for p in tmgr.pilots):
                tmgr.add_pilots(replacement)

    # -- introspection -----------------------------------------------------------
    @property
    def retries_granted(self) -> int:
        return len(self.records)

    def recovery_latencies(self) -> List[float]:
        return [r.latency_s for r in self.records]


class _RetryPlan:
    """A granted retry in progress, the record its steps land with:
    ``wait`` is the hook or timer armed now (in the capacity gate, next to
    the deadline ``timer``), and :meth:`cancel` withdraws them."""

    __slots__ = ("recovery", "tmgr", "task", "reason", "policy",
                 "failed_at", "deadline", "wait", "timer")

    def __init__(self, recovery: RecoveryEngine, tmgr: "TaskManager",
                 task: "Task", reason: FailureReason,
                 policy: RetryPolicy) -> None:
        self.recovery, self.tmgr, self.task = recovery, tmgr, task
        self.reason, self.policy = reason, policy
        self.failed_at = 0.0
        self.deadline: Optional[float] = None
        self.wait = self.timer = None

    def start(self) -> None:
        self.recovery._detect(self)

    def cancel(self) -> None:
        for armed in (self.wait, self.timer):
            if armed is not None:
                armed.cancel()
        self.wait = self.timer = None


def _settle(event: Event, error: Optional[BaseException]) -> None:
    """A transfer's landing resolving *event*; a failure is its waiter's."""
    if error is None:
        event.succeed()
    else:
        event.fail(error).defuse()


class Checkpointer:
    """Per-iteration checkpoints as durable, content-addressed objects.

    ``save`` is a process body: the serialized state is copied within the
    checkpoint home (:data:`CHECKPOINT_HOME` to itself, on its 25 GB/s
    local route; a checkpoint is not free) before the object is registered
    durable and the in-memory payload committed.  The copy shares no link
    with the staging of tasks on other platforms.  The backing *store*
    survives the session when the caller provides one, which is what lets a
    restarted campaign resume from its predecessor's last checkpoint.
    """

    def __init__(self, session,
                 store: Optional[MutableMapping] = None) -> None:
        self.session = session
        self._store: MutableMapping = store if store is not None else {}
        self.saves = 0
        self.restores = 0

    def save(self, key: str, iteration: int, payload: Any,
             nbytes: Optional[float] = None):
        """Process body: persist *payload* as checkpoint *iteration* of *key*."""
        nbytes = CHECKPOINT_BYTES if nbytes is None else nbytes
        home = CHECKPOINT_HOME
        if nbytes > 0:
            copied = self.session.engine.event()
            move = Transfer(home, home, nbytes, f"ckpt.{key}.{iteration}",
                            _settle, copied)
            self.session.data.transfers.transfer(move)
            try:
                yield copied
            finally:
                move.cancel()  # an abandoned save frees the link
        obj = self.session.data.intern(f"ckpt/{key}/{iteration}", nbytes or 0)
        self.session.data.register_durable(obj.oid, home)
        self._store[key] = (iteration, payload)
        self.saves += 1
        self.session.profiler.record(
            self.session.engine.now, f"ckpt.{key}", "checkpoint_save",
            "resilience")

    def latest(self, key: str) -> Optional[Tuple[int, Any]]:
        """Most recent ``(iteration, payload)`` for *key*, or None."""
        found = self._store.get(key)
        if found is not None:
            self.restores += 1
            self.session.profiler.record(
                self.session.engine.now, f"ckpt.{key}", "checkpoint_restore",
                "resilience")
        return found

    def has(self, key: str) -> bool:
        return key in self._store
