"""Policy-driven recovery: retries, checkpoints, pilot resubmission.

Three policies cover the failure modes of long-running hybrid campaigns:

* :class:`RetryPolicy` -- bounded per-task retries with jittered
  exponential backoff.  Pilot losses gate on the heartbeat monitor's
  *declaration* (failures are acted on when observed, not when they
  happen), failed nodes/pilots are blacklisted, and the retried task
  late-binds to whatever healthy pilot the TaskManager then holds.
* :class:`CheckpointPolicy` / :class:`Checkpointer` -- iterative workflows
  persist per-iteration state as durable ObjectStore objects (the save
  pays a real transfer to the checkpoint home), so a campaign restart
  replays only work lost since the last checkpoint; lost cache replicas
  re-stage from the durable origins the data subsystem already tracks.
* :class:`PilotResubmitPolicy` -- a pilot declared dead by the monitor is
  resubmitted through the platform's batch system (paying queue wait
  again) and re-attached to the TaskManagers that held it, so waiting
  retries find capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    MutableMapping,
    Optional,
    Tuple,
)

from ..sim.events import AnyOf
from ..utils.log import get_logger
from .failures import FailureReason

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.pilot_manager import PilotManager
    from ..pilot.task import Pilot, Task
    from ..pilot.task_manager import TaskManager
    from . import ResilienceServices

__all__ = [
    "RetryPolicy",
    "CheckpointPolicy",
    "PilotResubmitPolicy",
    "RecoveryRecord",
    "RecoveryEngine",
    "Checkpointer",
]

log = get_logger("resilience.recovery")


@dataclass
class RetryPolicy:
    """Bounded retries with backoff, blacklisting and late re-binding."""

    max_retries: int = 2
    backoff_base_s: float = 1.0
    backoff_factor: float = 2.0
    backoff_jitter_s: float = 0.5
    #: failure origins worth retrying (binding errors and cancellations
    #: are not infrastructure faults)
    retry_origins: Tuple[str, ...] = (
        "node", "pilot", "transfer", "staging", "executor", "service")
    blacklist_pilots: bool = True
    blacklist_nodes: bool = True
    #: how long a retry may wait for a healthy pilot before giving up
    rebind_wait_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_jitter_s < 0:
            raise ValueError("backoff settings must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")


@dataclass
class CheckpointPolicy:
    """How often iterative workflows persist state, and where."""

    #: checkpoint every k-th iteration (1 = every iteration)
    interval_iters: int = 1
    #: default serialized-state size charged per save (bytes)
    checkpoint_bytes: float = 0.0
    #: durable home of checkpoint objects (the client side by default)
    home_platform: str = "localhost"

    def __post_init__(self) -> None:
        if self.interval_iters < 1:
            raise ValueError("interval_iters must be >= 1")
        if self.checkpoint_bytes < 0:
            raise ValueError("checkpoint_bytes must be >= 0")


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

        Returns None (give up: the task stays FAILED) or a generator the
        task driver runs; the generator yields through detection + backoff
        + capacity gates and returns True to retry, False to give up.
        """
        policy = self.config.retry
        if policy is None or reason is None:
            return None
        if reason.origin not in policy.retry_origins:
            return None
        if task.attempts > policy.max_retries:
            self.gave_up.append(task.uid)
            return None
        if policy.blacklist_pilots and reason.origin == "pilot" \
                and reason.pilot_uid:
            self.blacklisted_pilots.add(reason.pilot_uid)
        if policy.blacklist_nodes and reason.node_name:
            self.blacklisted_nodes.add(reason.node_name)
            if isinstance(task.avoid_nodes, frozenset):
                task.avoid_nodes = set(task.avoid_nodes)  # the first add
            task.avoid_nodes.add(reason.node_name)
        return self._retry_plan(tmgr, task, reason, policy)

    def _retry_plan(self, tmgr: "TaskManager", task: "Task",
                    reason: FailureReason, policy: RetryPolicy):
        engine = self.session.engine
        failed_at = engine.now
        # 1. Detection gate: a lost pilot is only *observed* dead once its
        #    heartbeat lease expires; acting earlier would be oracle
        #    knowledge the real control plane does not have.
        if reason.origin == "pilot" and reason.pilot_uid:
            declared = self.services.monitor.declared(reason.pilot_uid)
            if declared is not None and not declared.processed:
                yield declared
        # 2. Jittered exponential backoff.
        delay = policy.backoff_base_s \
            * policy.backoff_factor ** (task.attempts - 1)
        if policy.backoff_jitter_s > 0:
            delay += float(self._rng.uniform(0, policy.backoff_jitter_s))
        if delay > 0:
            yield engine.timeout(delay)
        # 3. Capacity gate: late re-binding needs a live pilot; wait for
        #    one (e.g. a resubmission clearing the batch queue) up to the
        #    policy's patience.
        deadline = engine.now + policy.rebind_wait_s
        while not self._has_capacity(tmgr):
            remaining = deadline - engine.now
            if remaining <= 0:
                self.gave_up.append(task.uid)
                log.warning("%s: no pilot capacity within %.0fs; giving up",
                            task.uid, policy.rebind_wait_s)
                return False
            timer = engine.timeout(remaining)
            yield AnyOf(engine, [tmgr.pilots_changed, timer])
            if not timer.processed:
                timer.cancel()
        self.records.append(RecoveryRecord(
            task_uid=task.uid, origin=reason.origin, failed_at=failed_at,
            resumed_at=engine.now, attempt=reason.attempt))
        return True

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


class Checkpointer:
    """Per-iteration checkpoints as durable, content-addressed objects.

    ``save`` is a simulation (sub)process: the serialized state crosses the
    fabric to the checkpoint home (sharing links with live staging -- a
    checkpoint is not free) before the object is registered durable and
    the in-memory payload committed.  The backing *store* survives the
    session when the caller provides one, which is what lets a restarted
    campaign resume from its predecessor's last checkpoint.
    """

    def __init__(self, session, policy: CheckpointPolicy,
                 store: Optional[MutableMapping] = None) -> None:
        self.session = session
        self.policy = policy
        self._store: MutableMapping = store if store is not None else {}
        self.saves = 0
        self.restores = 0

    def due(self, iteration: int) -> bool:
        """Is *iteration* (0-based) a checkpoint boundary under the policy?"""
        return (iteration + 1) % self.policy.interval_iters == 0

    def save(self, key: str, iteration: int, payload: Any,
             nbytes: Optional[float] = None,
             src_platform: Optional[str] = None):
        """Process body: persist *payload* as checkpoint *iteration* of *key*."""
        nbytes = self.policy.checkpoint_bytes if nbytes is None else nbytes
        home = self.policy.home_platform
        src = src_platform or home
        if nbytes > 0:
            yield from self.session.data.transfers.transfer(
                src, home, nbytes, uid=f"ckpt.{key}.{iteration}")
        obj = self.session.data.objects.intern(
            f"ckpt/{key}/{iteration}", nbytes or 0)
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
