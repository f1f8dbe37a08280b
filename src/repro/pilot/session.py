"""The Session: root object owning engine, fabric, bus and bookkeeping.

Mirrors RADICAL-Pilot's ``rp.Session``: every run starts by creating a
session, from which managers (:class:`PilotManager`, :class:`TaskManager`,
:class:`ServiceManager`) are derived.  A session runs on one kernel, the
virtual-time :class:`~repro.sim.engine.SimulationEngine`: modeled costs
advance its clock, and function tasks run their real Python inline (see
:mod:`repro.pilot.agent.executor`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..data import DataConfig, DataServices
    from ..observability import ObservabilityConfig, ObservabilityServices
    from ..resilience import ResilienceConfig, ResilienceServices

from ..comm.bus import MessageBus
from ..hpc.batch import BatchSystem
from ..hpc.network import Fabric
from ..hpc.platform import PLATFORMS, PlatformSpec, get_platform
from ..sim.engine import SimulationEngine
from ..sim.events import Event
from ..sim.rng import RngHub
from ..utils.ids import IdRegistry
from ..utils.log import get_logger
from .profiler import Profiler

__all__ = ["Session"]

log = get_logger("pilot.session")


class Session:
    """Root container for one runtime instance."""

    def __init__(self, seed: int = 0,
                 platforms: Optional[List[Union[str, PlatformSpec]]] = None,
                 data_config: Optional["DataConfig"] = None,
                 resilience_config: Optional["ResilienceConfig"] = None,
                 observability: Optional["ObservabilityConfig"] = None,
                 profile: str = "full") -> None:
        self.ids = IdRegistry()
        self.uid = self.ids.generate("session")
        self.rng_hub = RngHub(seed)
        self.engine = SimulationEngine()
        self.fabric = Fabric(self.rng_hub.normals("fabric"))
        #: what a reader derives from the profile log: "full" a row per
        #: record, "durations" first timestamps only (no row is ever built),
        #: "off" nothing (recording only counts)
        self.profiler = Profiler(level=profile)
        self._batch: Dict[str, BatchSystem] = {}
        self._closed = False
        self._quiescing = False
        #: background keep-alives (heartbeats, fault records, the sampler,
        #: the dashboard, armed leases) stopped by quiesce() so run() drains
        self._daemons: List[Any] = []
        self._daemon_prune_at = 64
        self._data_config = data_config
        self._data: Optional["DataServices"] = None
        self._resilience_config = resilience_config
        self._resilience: Optional["ResilienceServices"] = None

        specs: List[PlatformSpec] = []
        for entry in (platforms if platforms is not None
                      else list(PLATFORMS.values())):
            specs.append(entry if isinstance(entry, PlatformSpec)
                         else get_platform(entry))
        self._platforms = {spec.name: spec for spec in specs}
        for spec in self._platforms.values():
            self.fabric.add_platform(spec)

        self.bus = MessageBus(self.engine, self.fabric, self.ids)

        #: live telemetry plane (None unless ``observability=`` was given).
        #: A plain attribute, not a lazy property: hot paths guard with a
        #: single ``session.observability is not None`` test.
        self.observability: Optional["ObservabilityServices"] = None
        if observability is not None:
            from ..observability import ObservabilityServices
            self.observability = ObservabilityServices(self, observability)

        log.info("session %s created (seed=%d)", self.uid, seed)

    # -- lookups -------------------------------------------------------------
    def platform(self, name: str) -> PlatformSpec:
        """Resolve a platform registered with this session."""
        try:
            return self._platforms[name]
        except KeyError:
            raise KeyError(
                f"platform {name!r} not attached to session "
                f"(have: {sorted(self._platforms)})") from None

    def platforms(self) -> Dict[str, PlatformSpec]:
        return dict(self._platforms)

    def batch_system(self, platform_name: str) -> BatchSystem:
        """The (lazily created) batch scheduler of one platform."""
        system = self._batch.get(platform_name)
        if system is None:
            spec = self.platform(platform_name)
            system = BatchSystem(
                self.engine, spec, self.rng_hub.stream(f"batch.{spec.name}"),
                self.ids)
            self._batch[platform_name] = system
        return system

    def rng(self, stream: str):
        """A named deterministic RNG stream scoped to this session."""
        return self.rng_hub.stream(stream)

    @property
    def data(self) -> "DataServices":
        """The session's data subsystem (lazily created, shared by all
        DataManagers so replica/cache knowledge spans managers)."""
        if self._data is None:
            from ..data import DataServices
            self._data = DataServices(self, self._data_config)
        return self._data

    @property
    def resilience(self) -> Optional["ResilienceServices"]:
        """The resilience subsystem, or None when no config was given.

        Managers check for None and keep the seed's fail-fast semantics
        (no heartbeats, no retries) when resilience is off.
        """
        if self._resilience is None and self._resilience_config is not None:
            from ..resilience import ResilienceServices
            self._resilience = ResilienceServices(self,
                                                  self._resilience_config)
        return self._resilience

    @property
    def now(self) -> float:
        return self.engine.now

    # -- campaign facade ---------------------------------------------------------
    def campaign_runner(self, task_manager,
                        window: Optional[int] = None):
        """A :class:`~repro.workflows.campaign.CampaignRunner` on this
        session: streaming, dependency-driven execution of one or more
        workflow graphs with optional backpressure (*window* bounds the
        campaign's concurrently driven tasks)."""
        from ..workflows.campaign import CampaignRunner
        return CampaignRunner(self, task_manager, window=window)

    # -- performance attribution facade ------------------------------------------
    def attribution(self, makespan: Optional[float] = None):
        """Performance attribution from the live telemetry plane.

        Shorthand for ``session.observability.attribution()``: the span
        forest interpreted as per-task phase breakdowns, the campaign
        critical path, and what-if makespan lower bounds (see
        :mod:`repro.observability.attribution`).  Requires the session to
        run with ``observability=`` and the tracing plane on.
        """
        if self.observability is None:
            raise RuntimeError(
                "attribution needs the telemetry plane: create the "
                "session with observability=ObservabilityConfig()")
        return self.observability.attribution(makespan=makespan)

    # -- running -----------------------------------------------------------------
    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Drive the engine (see :meth:`SimulationEngine.run`)."""
        self.check_open()
        return self.engine.run(until=until)

    # -- quiesce / stop ----------------------------------------------------------
    @property
    def quiescing(self) -> bool:
        """True once :meth:`quiesce` has been called."""
        return self._quiescing

    def add_daemon(self, daemon) -> None:
        """Register a background keep-alive for quiesce to stop.

        A daemon keeps the event queue alive by design -- a re-armed
        :class:`~repro.sim.events.Ticker` (heartbeats, fault injectors, the
        sampler, the dashboard) or an armed lease -- and is anything with
        ``interrupt(cause)`` and ``is_alive``.  A record withdraws its timer
        in ``interrupt`` and is dead when it returns; a
        :class:`~repro.sim.events.Process` is still accepted (it gets
        :class:`~repro.sim.events.Interrupt` at its next resume).

        Registering after :meth:`quiesce` stops the daemon immediately:
        a pilot that only activates during the final drain (e.g. one still
        in batch queue-wait when the campaign ended) must not re-arm
        heartbeats the quiesce can no longer reach.
        """
        if self._quiescing:
            daemon.interrupt("session quiesce")
            return
        self._daemons.append(daemon)
        # Amortised cleanup: long campaigns with pilot resubmission register
        # daemons per activation (one fault record per node); ended ones
        # must not pin their dead pilot's state for the session lifetime.
        if len(self._daemons) >= self._daemon_prune_at:
            self._daemons = [d for d in self._daemons if d.is_alive]
            self._daemon_prune_at = max(64, 2 * len(self._daemons))

    def quiesce(self) -> None:
        """Signal session-scoped shutdown so ``run()`` drains cleanly.

        With resilience enabled, pilot heartbeats (and their leases and
        fault records) re-arm forever, which forced every campaign to run
        with ``until=`` and guess a horizon.  Quiescing stops every
        registered daemon in this call (the sampler and the dashboard take
        their final sample and snapshot in it), no lease is declared
        expired by the silence, and a final ``run()`` processes whatever
        genuine work remains and returns.  Idempotent.
        """
        if self._quiescing:
            return
        self._quiescing = True
        daemons, self._daemons = self._daemons, []
        for daemon in daemons:
            daemon.interrupt("session quiesce")
        log.info("session %s quiescing at t=%.3f (%d daemons stopped)",
                 self.uid, self.engine.now, len(daemons))

    # -- lifecycle -----------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def check_open(self) -> None:
        """Refuse new work on a closed session.

        Called by everything that would start something: :meth:`run`,
        ``TaskManager.submit_tasks``, ``PilotManager.submit_pilots``,
        ``ServiceManager.start_services`` / ``start_remote`` /
        ``start_autoscaler``.  Reading a closed session -- ``now``, the
        profiler, task handles -- keeps working.
        """
        if self._closed:
            raise RuntimeError("session is closed")

    def close(self) -> None:
        """Shut the session down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        log.info("session %s closed at t=%.3f", self.uid, self.engine.now)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<Session {self.uid} t={self.engine.now:.3f}>"
