"""Endpoint registry: where services publish and clients discover endpoints.

The third bootstrap component of Experiment 1 is "communicat[ing] the
service endpoints to the task" (§IV-A) -- the ``publish`` phase of Fig. 3.
The registry is itself a bus-served component: services register over
request/reply (paying a fabric round-trip plus the registry's processing
cost), and clients/load-balancers look endpoints up either over the bus or
through the cheap in-process read path.  It owns no process: a request is
handled in the kernel entry it lands in, a state-changing one is applied
by one more entry its processing cost later.

The registry also ingests the fleet's load telemetry: every service
instance publishes a :class:`~repro.comm.message.LoadReport` on
:data:`~repro.comm.message.TELEMETRY_TOPIC` with each heartbeat, and the
registry attaches the latest report to the corresponding
:class:`ServiceInfo`.  Telemetry-aware load balancers
(:class:`~repro.core.load_balancer.JoinShortestQueueBalancer`) and the
:class:`~repro.core.autoscaler.Autoscaler` read it from here.  Reports
arrive with fabric latency and heartbeat cadence, so consumers see
*stale* load -- exactly the information regime a real control plane has.

Registered means listed.  A crashed instance never deregisters itself: in
a resilient session the heartbeat lease the ServiceManager arms on the
session's :class:`~repro.resilience.detection.HeartbeatMonitor` notices the
silence and fails the service, whose endpoint is then scrubbed from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..comm.message import TELEMETRY_TOPIC, Address, LoadReport, Message
from ..utils.log import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session

__all__ = ["ServiceInfo", "EndpointRegistry"]

log = get_logger("core.registry")

#: Registry-side processing cost of a (de)registration: endpoint validation
#: and synchronisation with the agent.  Calibrated so the Fig. 3 publish
#: component sits below the ~2 s launch component.
PUBLISH_PROCESS_MEAN_S = 0.8
PUBLISH_PROCESS_STD_S = 0.1


@dataclass
class ServiceInfo:
    """One registered service endpoint."""

    uid: str
    name: str
    address: Address
    model: str
    backend: str
    platform: str
    registered_at: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)
    #: latest load telemetry (None until the first heartbeat arrives)
    load: Optional[LoadReport] = None


class EndpointRegistry:
    """Bus-served registry of live service endpoints.

    A session's first registry is bound as ``registry`` (rng stream
    ``registry.registry``); each later one (a second ServiceManager's)
    takes its own name from the session's ids, ``registry.0001`` on, and
    the rng stream of that name.
    """

    def __init__(self, session: "Session",
                 platform: str = "localhost") -> None:
        self.session = session
        self.platform = platform
        name = session.ids.generate("registry")
        if name == "registry.0000":
            name = "registry"
        self.socket = session.bus.bind(name, platform=platform)
        self._entries: Dict[str, ServiceInfo] = {}
        self._by_uid: Dict[str, ServiceInfo] = {}
        self._loads: Dict[str, LoadReport] = {}
        self._rng = session.rng(f"registry.{name}")
        self.socket.handle_with(self._on_request)
        session.bus.subscribe(TELEMETRY_TOPIC, platform, self._on_report)

    @property
    def address(self) -> Address:
        return self.socket.address

    # -- requests ------------------------------------------------------------------
    def _on_request(self, msg: Message) -> None:
        """Handle one landed request.

        Registrations are processed concurrently -- the processing cost
        models per-endpoint validation/synchronisation work, not an
        exclusive registry lock.  (A serialising registry would make the
        Fig. 3 publish component grow linearly with the instance count,
        which the paper does not observe.)  The cost is drawn in landing
        order.
        """
        op = (msg.payload or {}).get("op")
        if op in ("register", "deregister"):
            cost = max(0.05, self._rng.normal(PUBLISH_PROCESS_MEAN_S,
                                              PUBLISH_PROCESS_STD_S))
            self.session.engine.call_later(cost, self._apply, msg)
        elif op == "lookup":
            info = self._entries.get(msg.payload["name"])
            self.socket.reply(msg, {"ok": info is not None, "info": info})
        elif op == "list":
            self.socket.reply(
                msg, {"ok": True, "services": list(self._entries.values())})
        else:
            self.socket.reply(msg, {"ok": False,
                                    "error": f"unknown op {op!r}"})

    def _apply(self, msg: Message) -> None:
        """A (de)registration's processing cost has passed: change state."""
        if msg.payload["op"] == "register":
            info = msg.payload["info"]
            info.registered_at = self.session.engine.now
            self._entries[info.name] = info
            self._by_uid[info.uid] = info
            self.socket.reply(msg, {"ok": True, "name": info.name})
        else:
            found = self._entries.pop(msg.payload["name"], None)
            if found is not None:
                self._by_uid.pop(found.uid, None)
                self._loads.pop(found.uid, None)
            self.socket.reply(msg, {"ok": found is not None})

    # -- telemetry ingestion -------------------------------------------------------
    def _on_report(self, msg: Message) -> None:
        """Ingest one fleet LoadReport published on the telemetry topic."""
        report = msg.payload
        if not isinstance(report, LoadReport):
            log.warning("ignoring malformed telemetry %r", report)
            return
        info = self._by_uid.get(report.uid)
        if info is None:
            # Not (or no longer) registered: a deregistered instance keeps
            # heartbeating while it drains -- storing its report would
            # leave a permanently stale entry behind.
            return
        # Keep only the freshest report per instance (pub/sub legs from
        # different platforms may reorder).
        known = self._loads.get(report.uid)
        if known is not None and known.t > report.t:
            return
        self._loads[report.uid] = report
        info.load = report

    # -- cheap in-process reads (used by load balancers and tests) -----------------
    def lookup(self, name: str) -> Optional[ServiceInfo]:
        return self._entries.get(name)

    def load_of(self, uid: str) -> Optional[LoadReport]:
        """Latest telemetry for a service uid (None before first beat)."""
        return self._loads.get(uid)

    def load_for(self, address: Address) -> Optional[LoadReport]:
        """Latest telemetry for the instance bound at *address*."""
        info = self._entries.get(address.name)
        return info.load if info is not None else None

    def list_services(self, model: Optional[str] = None,
                      platform: Optional[str] = None) -> List[ServiceInfo]:
        out = list(self._entries.values())
        if model is not None:
            out = [s for s in out if s.model == model]
        if platform is not None:
            out = [s for s in out if s.platform == platform]
        return out

    def __len__(self) -> int:
        return len(self._entries)
