"""PilotManager: acquires allocations and brings up agents.

Submitting a :class:`PilotDescription` translates into a batch job on the
target platform; once the job starts, the manager materialises the node
list, pays the agent bootstrap cost and flips the pilot to
``PMGR_ACTIVE``.  Cancellation and walltime expiry drive the pilot to a
final state and (via :class:`repro.pilot.task_manager.TaskManager` watchers)
cancel any still-running tasks.

A pilot's lifecycle is no process: a callback on each of its job's
``started`` and ``finished`` events and a bootstrap timer.  A job that ends
while the agent boots is finalised when the agent comes up.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Iterable, List, Union

from ..hpc.batch import JobState
from ..hpc.node import NodeList
from ..resilience.failures import PilotLost
from ..sim.events import Event
from ..utils.log import get_logger
from .agent import Agent
from .description import PilotDescription
from .states import PilotState
from .task import Pilot

if TYPE_CHECKING:  # pragma: no cover
    from .session import Session

__all__ = ["PilotManager"]

log = get_logger("pilot.pmgr")

#: Mean/std of the agent bootstrap cost (seconds): starting the agent
#: processes and wiring its communication channels once nodes are up.
AGENT_BOOTSTRAP_MEAN_S = 2.5
AGENT_BOOTSTRAP_STD_S = 0.5


class PilotManager:
    """Manages the lifecycle of pilots within one session."""

    def __init__(self, session: "Session") -> None:
        self.session = session
        self.uid = session.ids.generate("pmgr")
        self._pilots: dict[str, Pilot] = {}
        self._rng = session.rng(f"pmgr.{self.uid}")
        self._resilience = session.resilience
        if self._resilience is not None:
            self._resilience.register_pilot_manager(self)

    # -- submission -----------------------------------------------------------
    def submit_pilots(
        self, descriptions: Union[PilotDescription, Iterable[PilotDescription]],
    ) -> List[Pilot]:
        """Submit one or many pilot descriptions; returns pilot handles."""
        self.session.check_open()
        if isinstance(descriptions, PilotDescription):
            descriptions = [descriptions]
        pilots: List[Pilot] = []
        for desc in descriptions:
            pilot = Pilot(self.session, desc,
                          self.session.ids.generate("pilot"))
            spec = pilot.platform
            n_nodes = desc.required_nodes(spec.cores_per_node,
                                          spec.gpus_per_node)
            batch = self.session.batch_system(spec.name)
            pilot.advance(PilotState.PMGR_LAUNCHING, self.uid)
            job = pilot.batch_job = batch.submit(n_nodes, desc.runtime_s)
            self._pilots[pilot.uid] = pilot
            job.started.callbacks.append(partial(self._job_started, pilot))
            job.finished.callbacks.append(partial(self._job_ended, pilot))
            pilots.append(pilot)
            log.info("submitted %s: %d nodes on %s", pilot.uid, n_nodes,
                     spec.name)
        return pilots

    def _job_started(self, pilot: Pilot, started: Event) -> None:
        """The allocation began: build the node list, boot the agent."""
        spec = pilot.platform
        pilot.nodes = NodeList.build(
            count=pilot.batch_job.n_nodes, cores=spec.cores_per_node,
            gpus=spec.gpus_per_node, mem_gb=spec.mem_per_node_gb,
            name_prefix=f"{pilot.uid}-node")
        bootstrap = max(0.1, self._rng.normal(AGENT_BOOTSTRAP_MEAN_S,
                                              AGENT_BOOTSTRAP_STD_S))
        self.session.engine.call_later(bootstrap, self._agent_up, pilot)

    def _agent_up(self, pilot: Pilot) -> None:
        """The bootstrap timer: the agent is up and the pilot ACTIVE."""
        pilot.agent = Agent(self.session, pilot.uid, pilot.nodes,
                            pilot.platform.launch_method, pilot.platform.name)
        pilot.advance(PilotState.PMGR_ACTIVE, self.uid)
        pilot.became_active.succeed(pilot)
        log.info("%s active (%d nodes) at t=%.2f", pilot.uid,
                 pilot.batch_job.n_nodes, self.session.engine.now)
        if self._resilience is not None:
            # Heartbeats + lease + armed fault records: from here on the
            # pilot's liveness is *observed*, not assumed.
            self._resilience.pilot_activated(self, pilot)
        finished = pilot.batch_job.finished
        if finished.processed:  # the job ended while the agent booted
            self._job_ended(pilot, finished)

    def _job_ended(self, pilot: Pilot, finished: Event) -> None:
        """Finalise an active pilot, or one cancelled while pending; a
        booting one is finalised by :meth:`_agent_up`."""
        if pilot.state == PilotState.PMGR_ACTIVE:
            final = finished.value
            self._finalise(pilot, (
                PilotState.CANCELED if final == JobState.CANCELLED
                else PilotState.FAILED))  # walltime timeout / preemption
        elif not pilot.batch_job.started.triggered:
            self._finalise(pilot, PilotState.CANCELED)

    def _finalise(self, pilot: Pilot, state: str) -> None:
        pilot.advance(state, self.uid)
        if not pilot.became_active.triggered:
            pilot.became_active.fail(PilotLost(pilot.uid, state))
            pilot.became_active.defuse()
        if self._resilience is not None:
            self._resilience.pilot_finalized(pilot, state)
        pilot.finished.succeed(state)

    # -- control --------------------------------------------------------------
    def cancel_pilots(self, pilots: Union[Pilot, Iterable[Pilot]]) -> None:
        """Cancel pilots (releases their batch allocation)."""
        if isinstance(pilots, Pilot):
            pilots = [pilots]
        for pilot in pilots:
            if pilot.state in PilotState.FINAL:
                continue
            batch = self.session.batch_system(pilot.platform.name)
            batch.cancel(pilot.batch_job)

    def wait_active(self, pilots: Union[Pilot, Iterable[Pilot]]) -> Event:
        """Event succeeding once all given pilots are active."""
        if isinstance(pilots, Pilot):
            pilots = [pilots]
        return self.session.engine.all_of(
            [p.became_active for p in pilots])

