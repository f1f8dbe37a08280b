"""Network fabric: latency and bandwidth between and within platforms.

The service client/server exchanges of the paper are dominated by network
latency for NOOP inference (§IV-C) -- local inter-node latency is measured
at 0.063 +/- 0.014 ms, remote (Delta <-> R3) node-to-node latency at
0.47 +/- 0.04 ms.  The :class:`Fabric` reproduces exactly these one-way
delay distributions and adds a bandwidth term for bulk data staging
(Globus-style transfers in the Cell Painting pipeline).

Bulk staging additionally needs a *contention* model: two 1 TB transfers on
the same WAN link do not each see the full pipe.  :class:`SharedLink` is the
engine-backed shared-bandwidth model -- concurrent flows fair-share the
link's capacity, with per-flow progress rebalanced whenever a flow joins or
leaves.  The data subsystem (:mod:`repro.data.transfers`) instantiates one
per fabric route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..sim.events import Event, Timeout
from .platform import LatencySpec, PlatformSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import SimulationEngine

__all__ = ["Route", "Fabric", "SharedLink", "DEFAULT_WAN_LATENCY",
           "DEFAULT_WAN_BANDWIDTH_GBPS"]

#: Paper §IV-C: node-to-node latency between Delta and R3.
DEFAULT_WAN_LATENCY = LatencySpec(mean_ms=0.47, std_ms=0.04)
#: Sustained wide-area transfer bandwidth (Globus-managed, GB/s).
DEFAULT_WAN_BANDWIDTH_GBPS = 1.0
#: Bandwidth of every platform's intra-platform route (GB/s).
LOCAL_BANDWIDTH_GBPS = 25.0


@dataclass(frozen=True)
class Route:
    """Latency/bandwidth between two endpoints (platform pair)."""

    latency: LatencySpec
    bandwidth_gbps: float = DEFAULT_WAN_BANDWIDTH_GBPS

    def transfer_time(self, nbytes: float, rng) -> float:
        """Seconds to move *nbytes*: one-way latency + serialisation time."""
        latency = self.latency  # LatencySpec.sample(rng), spelled out
        return (max(rng.normal(latency.mean_ms, latency.std_ms),
                    latency.floor_ms) * 1e-3
                + nbytes / (self.bandwidth_gbps * 1e9))


class Fabric:
    """Pairwise communication model over a set of platforms.

    Routes are symmetric.  Intra-platform routes default to the platform's
    own ``intra_latency``; every inter-platform route is the paper's WAN
    link (:data:`DEFAULT_WAN_LATENCY`, :data:`DEFAULT_WAN_BANDWIDTH_GBPS`).

    Every draw is a gaussian, so *rng* needs only ``normal(loc, scale[,
    size])``: a session hands over its block-drawn
    ``RngHub.normals("fabric")`` stream, which prices every bus hop and
    staging latency at a fraction of a scalar numpy call.
    """

    def __init__(self, rng) -> None:
        self._rng = rng
        self._platforms: Dict[str, PlatformSpec] = {}
        self._routes: Dict[Tuple[str, str], Route] = {}
        #: what ``route(a, b)`` resolved to, per ordered pair asked for by
        #: :meth:`transfer_time`; emptied whenever the topology changes
        self._resolved: Dict[Tuple[str, str], Route] = {}

    # -- topology --------------------------------------------------------------
    def add_platform(self, spec: PlatformSpec) -> None:
        """Register a platform; creates its intra-platform route."""
        self._platforms[spec.name] = spec
        self._routes[(spec.name, spec.name)] = Route(
            latency=spec.intra_latency, bandwidth_gbps=LOCAL_BANDWIDTH_GBPS)
        self._resolved.clear()

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def route(self, a: str, b: str) -> Route:
        """Resolve the route between two platforms (the WAN link if they
        differ)."""
        if a == b:
            try:
                return self._routes[(a, a)]
            except KeyError:
                raise KeyError(f"platform {a!r} not registered") from None
        known = self._routes.get(self._key(a, b))
        if known is not None:
            return known
        if a not in self._platforms or b not in self._platforms:
            missing = [p for p in (a, b) if p not in self._platforms]
            raise KeyError(f"platform(s) not registered: {missing}")
        # Materialise (and cache) the WAN default so repeat lookups are
        # stable object identities.
        route = Route(latency=DEFAULT_WAN_LATENCY,
                      bandwidth_gbps=DEFAULT_WAN_BANDWIDTH_GBPS)
        self._routes[self._key(a, b)] = route
        return route

    # -- sampling ----------------------------------------------------------------
    def latency(self, a: str, b: str) -> float:
        """Sample a one-way message latency (seconds) between *a* and *b*."""
        return float(self.route(a, b).latency.sample(self._rng))

    def transfer_time(self, a: str, b: str, nbytes: float) -> float:
        """Seconds to move *nbytes* of payload between *a* and *b*."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        route = self._resolved.get((a, b))
        if route is None:  # once per pair: every bus hop asks
            route = self._resolved[(a, b)] = self.route(a, b)
        return route.transfer_time(nbytes, self._rng)

    def platforms(self):
        return dict(self._platforms)


class _Flow:
    """One active transfer on a :class:`SharedLink`."""

    __slots__ = ("remaining", "done", "started", "nbytes")

    def __init__(self, nbytes: float, done: Event, started: float) -> None:
        self.nbytes = nbytes
        self.remaining = nbytes
        self.done = done
        self.started = started


class SharedLink:
    """A link whose bandwidth is fair-shared among concurrent flows.

    Classic processor-sharing fluid model: with *n* active flows each
    progresses at ``bandwidth / n``.  Whenever a flow joins or completes the
    per-flow rate changes, so accumulated progress is settled and the next
    completion re-derived -- concurrent transfers slow each other down
    instead of teleporting for free.

    ``transfer`` returns an event that succeeds (with the flow's total
    duration on the link) once the bytes have drained.  Zero-byte flows
    complete immediately.
    """

    #: residual bytes below which a flow counts as drained (float slack)
    _EPS_BYTES = 1e-3

    def __init__(self, engine: "SimulationEngine", bandwidth_gbps: float,
                 name: str = "") -> None:
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth_gbps must be positive")
        self.engine = engine
        self.name = name
        self.rate_bps = bandwidth_gbps * 1e9  # bytes/second
        self._flows: List[_Flow] = []
        self._last_settle = engine.now
        self._timer: Optional[Timeout] = None
        #: lifetime stats
        self.bytes_total = 0.0
        self.flows_total = 0
        self.peak_concurrency = 0

    # -- introspection -----------------------------------------------------------
    @property
    def active_flows(self) -> int:
        return len(self._flows)

    @property
    def flow_rate_bps(self) -> float:
        """Bytes/second currently seen by each active flow."""
        return self.rate_bps / max(1, len(self._flows))

    def eta(self, nbytes: float) -> float:
        """Seconds a new *nbytes* flow would take if admitted now.

        Contention-aware first-order estimate: assumes the current flow
        count (plus the new flow) persists; used for replica selection.
        """
        return nbytes * (len(self._flows) + 1) / self.rate_bps

    # -- transfers ---------------------------------------------------------------
    def transfer(self, nbytes: float) -> Event:
        """Admit a flow of *nbytes*; returns its completion event."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        done = Event(self.engine)
        self._settle()
        self._flows.append(_Flow(float(nbytes), done, self.engine.now))
        self.flows_total += 1
        self.bytes_total += float(nbytes)
        self.peak_concurrency = max(self.peak_concurrency, len(self._flows))
        self._reschedule()
        return done

    def interrupt_all(self, make_exc) -> int:
        """Fail every active flow (a link flap); returns the victim count.

        ``make_exc(flow)`` builds the exception each flow's completion
        event fails with -- waiters (in-flight transfers) get it as their
        error and surface it as ``TransferAborted`` to staging.
        Failed events are defused so an already-detached waiter cannot
        crash the engine.
        """
        self._settle()
        victims, self._flows = self._flows, []
        for flow in victims:
            self.bytes_total -= flow.remaining  # undelivered bytes
            flow.done.fail(make_exc(flow))
            flow.done.defuse()
        self._reschedule()
        return len(victims)

    def abort(self, done: Event) -> bool:
        """Withdraw the flow identified by its completion event.

        Used when a staging call is cancelled mid-transfer: the flow
        stops consuming link bandwidth immediately (survivors speed up) and
        its event never triggers.  Returns True if the flow was active.
        """
        for flow in self._flows:
            if flow.done is done:
                self._settle()
                self._flows.remove(flow)
                self.bytes_total -= flow.remaining  # undelivered bytes
                self._reschedule()
                return True
        return False

    # -- fluid accounting --------------------------------------------------------
    def _settle(self) -> None:
        """Charge progress accumulated since the last rate change."""
        now = self.engine.now
        if self._flows:
            drained = (now - self._last_settle) * self.flow_rate_bps
            for flow in self._flows:
                flow.remaining = max(0.0, flow.remaining - drained)
        self._last_settle = now

    def _drain_eps(self) -> float:
        """Residual bytes below which a flow counts as done.

        Scaled to the clock's float resolution at the current timestamp:
        a residue whose serialisation time cannot advance ``engine.now``
        (``now + eta == now`` in float64) would re-arm a zero-progress
        timer forever, so it is absorbed instead.
        """
        resolution = 4 * math.ulp(max(1.0, self.engine.now))
        return max(self._EPS_BYTES, self.flow_rate_bps * resolution)

    def _reschedule(self) -> None:
        """Complete drained flows and re-arm the next-completion timer."""
        if self._timer is not None and not self._timer.processed \
                and not self._timer._cancelled:
            self._timer.cancel()
        self._timer = None
        eps = self._drain_eps()
        for flow in [f for f in self._flows if f.remaining <= eps]:
            self._flows.remove(flow)
            flow.done.succeed(self.engine.now - flow.started)
        if not self._flows:
            return
        eta = min(f.remaining for f in self._flows) / self.flow_rate_bps
        self._timer = self.engine.timeout(eta)
        self._timer.callbacks.append(self._on_timer)

    def _on_timer(self, event: Event) -> None:
        if event is not self._timer:  # superseded by a later rebalance
            return
        self._settle()
        self._reschedule()

    def __repr__(self) -> str:
        return (f"<SharedLink {self.name or '?'} flows={len(self._flows)} "
                f"bw={self.rate_bps / 1e9:.1f}GB/s>")
