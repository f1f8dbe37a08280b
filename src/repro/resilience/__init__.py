"""The resilience subsystem: fault model, detection, policy-driven recovery.

Leadership-class platforms fail as a matter of course -- node crashes,
pilot preemption and walltime expiry, link flaps, serving-instance deaths.
The seed runtime's only failure path was marking a task FAILED; this
package gives the runtime the full loop:

* :mod:`repro.resilience.faults`    -- clock-driven fault injection from
  dedicated RNG streams (ground truth for metrics, never used by recovery);
* :mod:`repro.resilience.detection` -- heartbeat leases over the message
  bus: failures are *observed* with latency, not known instantly;
* :mod:`repro.resilience.recovery`  -- retry with backoff + blacklists,
  durable per-iteration checkpoints, pilot resubmission;
* :mod:`repro.resilience.failures`  -- the structured failure taxonomy
  every layer attaches to tasks.

:class:`ResilienceServices` is the session-scoped facade;
``Session(resilience_config=ResilienceConfig(...))`` turns it on.  Without
a config the runtime behaves exactly as before (no heartbeats, no retries,
instant task failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, MutableMapping, Optional

from ..comm.message import Address
from ..sim.events import Ticker
from .detection import DetectionRecord, HeartbeatMonitor, Lease, heartbeat_topic
from .failures import (
    FailureReason,
    NodeFailure,
    PilotLost,
    RuntimeFault,
    classify_failure,
    failure_counts,
)
from .faults import FaultInjector, FaultModel, FaultRecord
from .recovery import (
    Checkpointer,
    PilotResubmitPolicy,
    RecoveryEngine,
    RecoveryRecord,
    RetryPolicy,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.pilot_manager import PilotManager
    from ..pilot.session import Session
    from ..pilot.task import Pilot

__all__ = [
    "Checkpointer",
    "DetectionRecord",
    "FailureReason",
    "FaultInjector",
    "FaultModel",
    "FaultRecord",
    "HeartbeatMonitor",
    "Lease",
    "NodeFailure",
    "PilotLost",
    "PilotResubmitPolicy",
    "RecoveryEngine",
    "RecoveryRecord",
    "ResilienceConfig",
    "ResilienceServices",
    "RetryPolicy",
    "RuntimeFault",
    "classify_failure",
    "failure_counts",
    "heartbeat_topic",
]


#: platform the session's heartbeat monitor listens from (heartbeats pay
#: fabric latency from the entity's platform to here)
MONITOR_PLATFORM = "localhost"
#: silent heartbeat intervals before a lease expires (detection declares
#: death); pilot and service leases alike
LEASE_MISSES = 3


@dataclass
class ResilienceConfig:
    """Tuning knobs of the resilience subsystem (the Session facade)."""

    #: cadence of pilot-agent heartbeats published over the bus
    heartbeat_interval_s: float = 5.0
    #: task-retry policy (None = failures are terminal, as in the seed)
    retry: Optional[RetryPolicy] = field(default_factory=RetryPolicy)
    #: resubmit pilots the monitor declares dead (None = off)
    pilot_resubmit: Optional[PilotResubmitPolicy] = None
    #: fault model to inject (None = no injection; detection/recovery
    #: still cover organically failing components)
    faults: Optional[FaultModel] = None
    #: external durable checkpoint store; pass the same mapping to a new
    #: session to resume a restarted campaign from its predecessor's state
    checkpoint_store: Optional[MutableMapping] = None

    def __post_init__(self) -> None:
        if not self.heartbeat_interval_s > 0:  # NaN fails it too
            raise ValueError("heartbeat_interval_s must be positive")


class ResilienceServices:
    """Session-scoped facade stitching injection, detection and recovery."""

    def __init__(self, session: "Session",
                 config: Optional[ResilienceConfig] = None) -> None:
        self.session = session
        self.config = config or ResilienceConfig()
        self.monitor = HeartbeatMonitor(session, platform=MONITOR_PLATFORM)
        self.recovery = RecoveryEngine(self)
        self.checkpoints = Checkpointer(session,
                                        store=self.config.checkpoint_store)
        self.injector: Optional[FaultInjector] = (
            FaultInjector(session, self.config.faults, self)
            if self.config.faults is not None else None)
        #: managers registered for recovery fan-out
        self.task_managers: List = []
        self.pilot_managers: List = []
        self.service_managers: List = []

    # -- registration ------------------------------------------------------------
    def register_task_manager(self, tmgr) -> None:
        if tmgr not in self.task_managers:
            self.task_managers.append(tmgr)

    def register_pilot_manager(self, pmgr) -> None:
        if pmgr not in self.pilot_managers:
            self.pilot_managers.append(pmgr)

    def register_service_manager(self, smgr) -> None:
        self.service_managers.append(smgr)
        if self.injector is not None:
            self.injector.arm_services(smgr)

    # -- pilot lifecycle hooks (called by the PilotManager) ----------------------
    def pilot_activated(self, pmgr: "PilotManager", pilot: "Pilot") -> None:
        """Start heartbeats, the lease and armed fault records."""
        lease = self.monitor.watch(pilot.uid,
                                   self.config.heartbeat_interval_s,
                                   LEASE_MISSES)
        sender = Address(name=f"{pilot.uid}.hb", platform=pilot.platform.name)
        self.session.add_daemon(
            Ticker(self.session.engine, self._pilot_beat, (pilot, sender)))
        self.recovery.watch_pilot(pmgr, pilot, lease)
        if self.injector is not None:
            self.injector.arm_pilot(pilot)

    def pilot_finalized(self, pilot: "Pilot", state: str) -> None:
        """Orderly endings deregister the lease; dirty deaths let it expire."""
        from ..pilot.states import PilotState
        if state != PilotState.FAILED:
            self.monitor.deregister(pilot.uid)

    def _pilot_beat(self, beat) -> Optional[float]:
        """One agent-side heartbeat (a session daemon's handler); beats stop
        the instant the pilot dies, and quiesce withdraws the next one."""
        from ..pilot.states import PilotState
        pilot, sender = beat
        if pilot.state != PilotState.PMGR_ACTIVE:
            return None
        self.session.bus.publish(
            heartbeat_topic(pilot.uid),
            {"uid": pilot.uid, "t": self.session.engine.now}, sender=sender)
        return self.config.heartbeat_interval_s

    # -- fan-out helpers ---------------------------------------------------------
    def fail_task(self, uid: str, exc: BaseException) -> bool:
        """Deliver an infrastructure fault to the task or service *uid*."""
        for tmgr in self.task_managers:
            task = tmgr._tasks.get(uid)
            if task is not None:
                tmgr.fail_task(task, exc)
                return True
        for smgr in self.service_managers:
            handle = smgr.lookup(uid)
            if handle is not None:
                smgr.fail_service(handle, exc)
                return True
        return False

    # -- metrics support ---------------------------------------------------------
    def detection_latencies(self) -> List[float]:
        """Fault-to-declaration latencies, joining leases with ground truth.

        Detections are matched against the injector's fault records per
        target uid (first unmatched fault wins).  Without an injector the
        observable silence (last beat to declaration) is reported instead.
        """
        if self.injector is None:
            return [d.silence_s for d in self.monitor.detections]
        out: List[float] = []
        used: set = set()
        for det in self.monitor.detections:
            candidates = [
                (i, r) for i, r in enumerate(self.injector.records)
                if i not in used and r.at <= det.declared_at
                and r.target == det.uid]
            if not candidates:
                # not injector-caused (e.g. walltime expiry): the silence
                # window is the observable proxy
                out.append(det.silence_s)
                continue
            i, fault = max(candidates, key=lambda pair: pair[1].at)
            used.add(i)
            out.append(det.declared_at - fault.at)
        return out
