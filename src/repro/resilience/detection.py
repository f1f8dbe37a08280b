"""Heartbeat-based failure detection with lease semantics.

The runtime never *knows* a remote component died -- it only stops hearing
from it.  Components under watch publish periodic heartbeats on a per-entity
bus topic (paying fabric latency like any other message); the
:class:`HeartbeatMonitor` keeps a lease per entity that expires after
``misses`` silent intervals.  Lease expiry is the moment the failure is
*observed*: recovery policies key off the monitor's declaration event, so
detection latency (fault time to declaration) is a real, measurable cost of
the control plane rather than oracle knowledge.

A lease is a record, not a loop: the bus hands each landed beat to
:meth:`Lease._beat`, which re-arms the lease's one expiry timer, and the
timer's landing declares.  Stopping a lease (:meth:`Lease.interrupt`: an
orderly deregistration, or the session's quiesce) withdraws the timer and
the subscription in the call, so nothing of it stays on the event queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..comm.message import Message
from ..sim.events import Deferred, Event
from ..utils.log import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session

__all__ = ["heartbeat_topic", "DetectionRecord", "Lease", "HeartbeatMonitor"]

log = get_logger("resilience.detection")


def heartbeat_topic(uid: str) -> str:
    """Bus topic an entity's heartbeats are published on."""
    return f"hb.{uid}"


@dataclass(frozen=True)
class DetectionRecord:
    """One lease expiry: when the silence started and when it was declared."""

    uid: str
    last_beat_at: float
    declared_at: float

    @property
    def silence_s(self) -> float:
        return self.declared_at - self.last_beat_at


class Lease:
    """Liveness lease of one watched entity, armed until it expires or is
    stopped; a session daemon (``interrupt`` / ``is_alive``)."""

    def __init__(self, monitor: "HeartbeatMonitor", uid: str,
                 interval_s: float, misses: int, topic: str) -> None:
        session = monitor.session
        self.uid = uid
        self.interval_s = interval_s
        self.misses = misses
        self.last_beat_at = session.engine.now  # lease starts at watch time
        self.beats = 0
        self.deregistered = False
        #: succeeds (with the declaration timestamp) once the lease expires
        self.declared: Event = session.engine.event()
        self._monitor = monitor
        self._sub = session.bus.subscribe(topic, monitor.platform, self._beat)
        #: the one armed expiry (None once expired or stopped)
        self._timer: Optional[Deferred] = None
        self._arm()

    @property
    def expired(self) -> bool:
        return self.declared.triggered

    @property
    def is_alive(self) -> bool:
        """True while the expiry is armed."""
        return self._timer is not None

    def _arm(self) -> None:
        self._timer = self._monitor.session.engine.call_later(
            self.interval_s * self.misses, self._expire)

    def _beat(self, msg: Message) -> None:
        """A beat landed: stamp it and push the expiry out."""
        self._timer.cancel()
        self.last_beat_at = self._monitor.session.engine.now
        self.beats += 1
        self._arm()

    def _expire(self, _: Any) -> None:
        """``misses * interval`` of silence: the entity is observably dead."""
        self._timer = None
        self._sub.cancel()
        self._monitor._declare(self)

    def interrupt(self, cause: Any = None) -> None:
        """Orderly goodbye: the armed expiry is withdrawn, so the ensuing
        silence declares nothing and a drain is not dragged to the
        deadline.  A no-op on a lease that already expired or stopped."""
        if self._timer is not None:
            self.deregistered = True
            self._timer.cancel()
            self._timer = None
            self._sub.cancel()


class HeartbeatMonitor:
    """Watches heartbeat topics and declares entities dead on lease expiry."""

    def __init__(self, session: "Session",
                 platform: str = "localhost") -> None:
        self.session = session
        self.platform = platform
        self._leases: Dict[str, Lease] = {}
        #: every lease expiry ever declared (feeds FailureMetrics)
        self.detections: List[DetectionRecord] = []
        self._obs = session.observability

    # -- watching ----------------------------------------------------------------
    def watch(self, uid: str, interval_s: float, misses: int = 3,
              topic: Optional[str] = None) -> Lease:
        """Start watching *uid*; returns its lease.  Idempotent per uid.

        *topic* overrides the heartbeat topic (service instances publish
        on their pre-existing ``heartbeat.<uid>`` channel; pilots use
        :func:`heartbeat_topic`).  A lease watched after the session's
        quiesce is stopped at once.
        """
        lease = self._leases.get(uid)
        if lease is not None:
            return lease
        if not interval_s > 0 or misses < 1:
            raise ValueError("need interval_s > 0 and misses >= 1")
        lease = Lease(self, uid, interval_s, misses,
                      topic or heartbeat_topic(uid))
        self._leases[uid] = lease
        self.session.add_daemon(lease)
        return lease

    def deregister(self, uid: str) -> None:
        """Orderly goodbye: stop watching without declaring a failure."""
        lease = self._leases.get(uid)
        if lease is not None:
            lease.interrupt("deregistered")

    # -- queries -----------------------------------------------------------------
    def lease(self, uid: str) -> Optional[Lease]:
        return self._leases.get(uid)

    def declared(self, uid: str) -> Optional[Event]:
        """The declaration event of *uid* (None if never watched)."""
        lease = self._leases.get(uid)
        return lease.declared if lease is not None else None

    # -- the declaration ---------------------------------------------------------
    def _declare(self, lease: Lease) -> None:
        """Record the expiry of *lease* and trigger its declaration."""
        now = self.session.engine.now
        record = DetectionRecord(uid=lease.uid,
                                 last_beat_at=lease.last_beat_at,
                                 declared_at=now)
        self.detections.append(record)
        log.warning("%s lease expired at t=%.1f (last beat t=%.1f)",
                    lease.uid, now, lease.last_beat_at)
        obs = self._obs
        if obs is not None:
            obs.metrics.histogram(
                "detection_silence_s").observe(record.silence_s)
            if obs.monitors is not None:
                from ..observability.monitor import AnomalyEvent
                obs.monitors.emit(AnomalyEvent(
                    kind="lease_expired", t=now, subject=lease.uid,
                    message=(f"{lease.uid} declared dead after "
                             f"{record.silence_s:.1f}s of silence"),
                    severity="critical",
                    details={"silence_s": record.silence_s,
                             "last_beat_at": lease.last_beat_at}))
        lease.declared.succeed(now)
