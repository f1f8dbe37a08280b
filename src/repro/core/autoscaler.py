"""Autoscaler: elastic service-instance counts driven by load telemetry.

The paper's runtime fixes the number of service instances at submission
time and names elasticity as future work (§IV-E).  The
:class:`Autoscaler` closes that loop: every :data:`INTERVAL_S` it reads the
fleet's :class:`~repro.comm.message.LoadReport` telemetry in the
:class:`~repro.core.registry.EndpointRegistry` and starts/stops instances
to hold the estimated queueing delay under a target SLO:

* **scale up** when the fleet-mean estimated queue delay
  (``queue_depth * ewma_service_s / workers``) stays above
  :data:`TARGET_QUEUE_DELAY_S` for :data:`UP_TICKS` consecutive
  evaluations -- bootstrapping instances count against
  :data:`MAX_INSTANCES` so a slow model load does not trigger a launch
  storm;
* **scale down** when the fleet is below :data:`LOW_QUEUE_DELAY_S` with
  zero backlog for :data:`DOWN_TICKS` evaluations -- the least-loaded
  instance is stopped (the ServiceManager drains it first, so admitted
  requests still complete) and its endpoint deregisters before the drain,
  steering registry-reading balancers away.

Scaling actions are recorded in :attr:`Autoscaler.scale_events` and the
instance-count time series in :attr:`Autoscaler.count_trace`, which the
scaling-study benchmark plots.

The control loop is a re-armed timer record, not a process
(:class:`~repro.sim.events.Ticker`); ``stop()`` withdraws its armed tick.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple, Union

from ..pilot.description import ServiceDescription
from ..pilot.states import ServiceState
from ..sim.events import Ticker
from ..utils.log import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.task import Pilot
    from .service_manager import ServiceHandle, ServiceManager

__all__ = ["Autoscaler"]

log = get_logger("core.autoscaler")


# scaling policy (all times in simulated seconds)
#: SLO: scale up while the fleet-mean queue delay stays above this
TARGET_QUEUE_DELAY_S = 2.0
#: scale down while every instance's queue delay stays below this
LOW_QUEUE_DELAY_S = TARGET_QUEUE_DELAY_S / 4.0
#: evaluation cadence
INTERVAL_S = 5.0
MIN_INSTANCES = 1
MAX_INSTANCES = 8
#: consecutive breaches before scaling up
UP_TICKS = 2
#: consecutive idle evaluations before scaling down
DOWN_TICKS = 4


class Autoscaler:
    """Grows and shrinks one service group against queue-delay SLOs.

    *home* is where new instances start: a pilot (launched on its slots)
    or the name of a platform whose services are attached remotely.  The
    group is :attr:`handles`; ones put there before :meth:`start` are
    managed like the autoscaler's own.
    """

    def __init__(self, smgr: "ServiceManager",
                 description: ServiceDescription,
                 home: Union["Pilot", str]) -> None:
        self.smgr = smgr
        self.description = description
        remote = isinstance(home, str)
        self.pilot: Optional["Pilot"] = None if remote else home
        self.remote_platform: Optional[str] = home if remote else None
        self.handles: List["ServiceHandle"] = []
        #: handles scaled down or failed out of the group (kept so
        #: fleet-wide statistics survive instance churn)
        self.retired: List["ServiceHandle"] = []
        #: (time, "up"|"down", instance count after the action)
        self.scale_events: List[Tuple[float, str, int]] = []
        #: (time, instance count) sampled every evaluation tick
        self.count_trace: List[Tuple[float, int]] = []
        self._up_streak = 0
        self._down_streak = 0
        self._ticker: Optional[Ticker] = None

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> "Autoscaler":
        """Arm the control loop (ensuring the min instance count)."""
        if self._ticker is not None:
            raise RuntimeError("autoscaler already started")
        while len(self._live()) < MIN_INSTANCES:
            self._launch_one()
        self._ticker = Ticker(self.smgr.session.engine, self._tick,
                              first=INTERVAL_S)
        return self

    def stop(self) -> None:
        """Stop the control loop (instances keep running)."""
        if self._ticker is not None:
            self._ticker.interrupt("autoscaler stopping")
            self._ticker = None

    # -- introspection ------------------------------------------------------------
    @property
    def n_instances(self) -> int:
        """Live (bootstrapping or ready) instances under management."""
        return len(self._live())

    @property
    def all_handles(self) -> List["ServiceHandle"]:
        """Every handle ever managed (live plus retired/failed)."""
        return self.handles + self.retired

    def _live(self) -> List["ServiceHandle"]:
        live = [h for h in self.handles
                if h.service_state not in (ServiceState.FAILED,
                                           ServiceState.STOPPED,
                                           ServiceState.STOPPING)]
        failed = [h for h in self.handles
                  if h.service_state == ServiceState.FAILED]
        if failed:
            self.retired.extend(failed)
            self.handles = [h for h in self.handles
                            if h.service_state != ServiceState.FAILED]
        return live

    # -- control loop -------------------------------------------------------------
    def _tick(self, _: Any) -> float:
        self._evaluate()
        self.count_trace.append((self.smgr.session.engine.now,
                                 len(self._live())))
        return INTERVAL_S

    def _evaluate(self) -> None:
        live = self._live()
        ready = [h for h in live if h.is_ready]
        reports = [self.smgr.registry.load_of(h.uid) for h in ready]
        reports = [r for r in reports if r is not None]
        if not reports:
            # No telemetry yet (fleet still bootstrapping): do nothing.
            self._up_streak = self._down_streak = 0
            return

        delays = [r.est_queue_delay_s for r in reports]
        mean_delay = sum(delays) / len(delays)
        backlog = sum(r.backlog for r in reports)

        if mean_delay > TARGET_QUEUE_DELAY_S:
            self._up_streak += 1
            self._down_streak = 0
        elif max(delays) < LOW_QUEUE_DELAY_S and backlog == 0:
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = self._down_streak = 0

        now = self.smgr.session.engine.now
        if self._up_streak >= UP_TICKS and len(live) < MAX_INSTANCES:
            self._launch_one()
            self._up_streak = 0
            self.scale_events.append((now, "up", len(self._live())))
            log.info("t=%.1fs scale up -> %d instances (delay %.2fs)",
                     now, len(self._live()), mean_delay)
        elif (self._down_streak >= DOWN_TICKS
              and len(ready) > 0 and len(live) > MIN_INSTANCES):
            victim = self._pick_victim(ready)
            self.smgr.stop_services(victim)
            self.handles.remove(victim)
            self.retired.append(victim)
            self._down_streak = 0
            self.scale_events.append((now, "down", len(self._live())))
            log.info("t=%.1fs scale down -> %d instances",
                     now, len(self._live()))

    def _launch_one(self) -> "ServiceHandle":
        desc = self.description.copy()
        desc.endpoint_name = ""  # each instance needs a unique endpoint
        if self.pilot is not None:
            (handle,) = self.smgr.start_services(desc, self.pilot)
        else:
            handle = self.smgr.start_remote(desc, self.remote_platform)
        self.handles.append(handle)
        return handle

    def _pick_victim(self, ready: List["ServiceHandle"]) -> "ServiceHandle":
        """Stop the instance with the smallest published backlog."""
        def backlog(handle: "ServiceHandle") -> int:
            report = self.smgr.registry.load_of(handle.uid)
            return report.backlog if report is not None else 0
        return min(ready, key=backlog)
