"""Fault injection: the simulated adversary of the resilience subsystem.

The :class:`FaultInjector` turns the platform's reliability characteristics
into concrete, clock-driven fault events, all drawn from dedicated
:mod:`repro.sim.rng` streams so fault schedules are reproducible and
independent of the workload's own randomness:

* **node faults** -- per-node exponential MTBF; a fault either *crashes*
  the node (resident tasks are killed, the node rejects placements until
  its MTTR elapses) or *degrades* it (drain: running work survives, new
  placements skip it);
* **pilot preemption** -- the batch system kills a running allocation
  (``JobState.FAILED``), modelling preemptible queues and system drains;
  walltime expiry needs no injection -- the batch system already enforces
  it;
* **link flaps / corrupt transfers** -- in-flight flows on a fabric link
  fail mid-stream, and completed transfers can arrive corrupt; both surface
  as :class:`~repro.data.transfers.TransferAborted` to staging;
* **serving-instance crashes** -- a READY service's data plane dies
  abruptly (heartbeats cease; detection is the liveness watchdog's job).

The injector records ground-truth fault times so analytics can report
*detection latency* (fault to lease expiry) without the runtime itself ever
using that oracle knowledge.

Every injector is a re-armed timer record (:class:`~repro.sim.events.Ticker`),
not a process: a node's is a two-state up/down handler, and one callback on
``pilot.finished`` stops a pilot's node and preemption records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional

from ..sim.events import Ticker
from ..utils.log import get_logger
from .failures import NodeFailure

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session
    from ..pilot.task import Pilot
    from . import ResilienceServices

__all__ = ["FaultModel", "FaultRecord", "FaultInjector"]

log = get_logger("resilience.faults")


@dataclass
class FaultModel:
    """What to break, and how often."""

    #: per-node mean time between failures; None falls back to the
    #: platform's :attr:`~repro.hpc.platform.PlatformSpec.node_mtbf_s`
    #: (0 disables node faults)
    node_mtbf_s: Optional[float] = None
    #: per-node repair time after a crash; None falls back to the platform
    node_mttr_s: Optional[float] = None
    #: fraction of node faults that degrade (drain) instead of crash
    degraded_fraction: float = 0.0
    #: per-pilot preemption MTBF (0 = never preempted)
    pilot_preempt_mtbf_s: float = 0.0
    #: MTBF of link flaps across busy fabric links (0 = off)
    link_flap_mtbf_s: float = 0.0
    #: probability a completed transfer arrives corrupt
    transfer_corrupt_prob: float = 0.0
    #: MTBF of serving-instance crashes across READY services (0 = off)
    service_crash_mtbf_s: float = 0.0
    #: a lost pilot takes its platform's warm cache tier with it; lost
    #: copies must re-stage from durable origins
    wipe_cache_on_pilot_loss: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.degraded_fraction <= 1:
            raise ValueError("degraded_fraction must be in [0, 1]")
        if not 0 <= self.transfer_corrupt_prob <= 1:
            raise ValueError("transfer_corrupt_prob must be in [0, 1]")


@dataclass(frozen=True)
class FaultRecord:
    """Ground truth of one injected fault."""

    kind: str        # node_crash | node_degraded | node_repair |
                     # pilot_preempt | link_flap | transfer_corrupt |
                     # service_crash
    target: str      # node name / pilot uid / link name / service uid
    at: float
    detail: str = ""


@dataclass
class _NodeFaults:
    """One node's up/down fault record: the argument of its ticker."""

    pilot: "Pilot"
    node: Any
    mtbf: float
    mttr: float
    down: bool = False  # a repair, not a fault, is due next


class FaultInjector:
    """Drives the configured :class:`FaultModel` against live entities."""

    def __init__(self, session: "Session", model: FaultModel,
                 services: "ResilienceServices") -> None:
        self.session = session
        self.model = model
        self.services = services
        self._rng = session.rng("resilience.faults")
        self.records: List[FaultRecord] = []
        self._armed_pilots: List["Pilot"] = []
        self._link_flaps: Optional[Ticker] = None
        if model.transfer_corrupt_prob > 0:
            transfers = session.data.transfers
            transfers.corruption_check = self._corruption_check

    # -- bookkeeping -------------------------------------------------------------
    def _record(self, kind: str, target: str, detail: str = "") -> None:
        self.records.append(FaultRecord(
            kind=kind, target=target, at=self.session.engine.now,
            detail=detail))
        log.info("fault %s on %s at t=%.1f %s", kind, target,
                 self.session.engine.now, detail)

    def faults(self, kind: Optional[str] = None) -> List[FaultRecord]:
        if kind is None:
            return list(self.records)
        return [r for r in self.records if r.kind == kind]

    # -- arming ------------------------------------------------------------------
    def arm_pilot(self, pilot: "Pilot") -> None:
        """Attach fault records to a freshly activated pilot.

        Every record is a session daemon: quiesce stops the adversary along
        with the heartbeats it preys on.
        """
        engine = self.session.engine
        daemon = self.session.add_daemon
        self._armed_pilots.append(pilot)
        spec = pilot.platform
        mtbf = (self.model.node_mtbf_s if self.model.node_mtbf_s is not None
                else spec.node_mtbf_s)
        mttr = (self.model.node_mttr_s if self.model.node_mttr_s is not None
                else spec.node_mttr_s)
        records = [Ticker(engine, self._node_flip,
                          _NodeFaults(pilot, node, mtbf, mttr),
                          first=self._node_uptime)
                   for node in pilot.nodes] if mtbf and mtbf > 0 else []
        if self.model.pilot_preempt_mtbf_s > 0:
            records.append(Ticker(
                engine, self._preempt, pilot,
                first=lambda _: self._draw(self.model.pilot_preempt_mtbf_s)))
        for record in records:
            daemon(record)

        def disarm(_: Any) -> None:
            for record in records:
                record.interrupt("pilot ended")

        pilot.finished.callbacks.append(disarm)
        if self.model.link_flap_mtbf_s > 0 and self._link_flaps is None:
            self._link_flaps = Ticker(
                engine, self._link_flap,
                first=lambda _: self._draw(self.model.link_flap_mtbf_s))
            daemon(self._link_flaps)

    def arm_services(self, smgr) -> None:
        """Start the serving-instance crash record over a ServiceManager."""
        if self.model.service_crash_mtbf_s > 0:
            self.session.add_daemon(Ticker(
                self.session.engine, self._service_crash, smgr,
                first=lambda _: self._draw(self.model.service_crash_mtbf_s)))

    def _draw(self, mtbf: float) -> float:
        """Time to the next fault of a kind, from the faults stream."""
        return float(self._rng.exponential(mtbf))

    # -- node faults -------------------------------------------------------------
    def _node_uptime(self, rec: _NodeFaults) -> Optional[float]:
        """Time to the node's next fault (None once its pilot is over)."""
        from ..pilot.states import PilotState
        if rec.pilot.state != PilotState.PMGR_ACTIVE:
            return None
        return self._draw(rec.mtbf)

    def _node_flip(self, rec: _NodeFaults) -> Optional[float]:
        """Up -> crashed or degraded (a repair is due after the MTTR);
        down -> repaired (the next fault is drawn)."""
        pilot, node = rec.pilot, rec.node
        if rec.down:
            rec.down = False
            node.mark_up()
            self._record("node_repair", node.name)
            pilot.agent.scheduler.kick()
            return self._node_uptime(rec)
        rec.down = True
        if float(self._rng.random()) < self.model.degraded_fraction:
            node.mark_degraded()
            self._record("node_degraded", node.name, detail=pilot.uid)
        else:
            node.mark_down()
            self._record("node_crash", node.name, detail=pilot.uid)
            for uid in pilot.agent.scheduler.held_on_node(node.index):
                self.services.fail_task(uid, NodeFailure(node.name, pilot.uid))
        return max(rec.mttr, 0.0)

    # -- pilot preemption --------------------------------------------------------
    def _preempt(self, pilot: "Pilot") -> None:
        from ..hpc.batch import JobState
        from ..pilot.states import PilotState
        if pilot.state != PilotState.PMGR_ACTIVE \
                or pilot.batch_job.state != JobState.RUNNING:
            return
        self._record("pilot_preempt", pilot.uid,
                     detail=pilot.platform.name)
        batch = self.session.batch_system(pilot.platform.name)
        batch.fail(pilot.batch_job)
        if self.model.wipe_cache_on_pilot_loss:
            lost = self.session.data.wipe(pilot.platform.name)
            if lost:
                log.warning("platform %s lost %d warm-tier copies",
                            pilot.platform.name, lost)

    # -- link faults -------------------------------------------------------------
    def _corruption_check(self, src: str, dst: str, nbytes: float) -> bool:
        corrupt = float(self._rng.random()) < self.model.transfer_corrupt_prob
        if corrupt:
            self._record("transfer_corrupt", f"{src}->{dst}",
                         detail=f"{nbytes:.3g}B")
        return corrupt

    def _link_flap(self, _: Any) -> Optional[float]:
        from ..data.transfers import TransferAborted
        from ..pilot.states import PilotState
        if self._armed_pilots and all(
                p.state in PilotState.FINAL for p in self._armed_pilots):
            return None  # campaign over: stop generating events
        busy = [link for link in self.session.data.transfers.links().values()
                if link.active_flows]
        if busy:
            link = busy[int(self._rng.integers(len(busy)))]
            n = link.interrupt_all(
                lambda flow: TransferAborted(f"link {link.name} flapped"))
            self._record("link_flap", link.name, detail=f"{n} flows killed")
        return self._draw(self.model.link_flap_mtbf_s)

    # -- service crashes ---------------------------------------------------------
    def _service_crash(self, smgr) -> Optional[float]:
        from ..pilot.states import ServiceState
        if smgr.services and all(h.service_state in ServiceState.FINAL
                                 for h in smgr.services):
            return None
        ready = smgr.ready_services()
        if ready:
            victim = ready[int(self._rng.integers(len(ready)))]
            self._record("service_crash", victim.uid)
            smgr.crash_service(victim)
        return self._draw(self.model.service_crash_mtbf_s)
