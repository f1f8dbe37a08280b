"""ServiceManager: the control plane of the paper's runtime extension.

Complementing the existing TaskManager (§III, Fig. 2), the ServiceManager
turns :class:`~repro.pilot.description.ServiceDescription` objects into
running, discoverable, monitored service instances:

* **launch**  -- the service task is scheduled (with priority) on pilot
  resources and its executable launched (Fig. 3 ``launch``);
* **init**    -- the serving host loads and initialises the model
  (Fig. 3 ``init``, the dominating component);
* **publish** -- the endpoint is registered with the
  :class:`~repro.core.registry.EndpointRegistry` (Fig. 3 ``publish``);
* **ready**   -- the instance serves requests until stopped; in a
  resilient session its heartbeats renew a lease on the session's
  heartbeat monitor (``_watch_liveness``), whose expiry fails it.

A service's one process is its driver; the startup timeout is a timer
that ``handle.ready`` withdraws, the liveness watch two callbacks.

Orderly shutdown deregisters the endpoint *first* (telemetry-reading load
balancers stop routing there), then drains the instance's admitted
requests, then tears the data plane down -- so scaling down never drops
in-flight work.  :meth:`ServiceManager.start_autoscaler` attaches an
:class:`~repro.core.autoscaler.Autoscaler` that grows and shrinks a
service group against queue-delay SLOs using the registry's telemetry.

Remote services (the paper's R3 scenario) attach to persistent endpoints:
"Remote models are usually persistent on dedicated resources and do not
need to be bootstrapped" (§IV-A) -- so ``start_remote`` registers them
without charging (or recording) bootstrap phases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Union

from ..comm.message import Address
from ..pilot.description import ServiceDescription
from ..pilot.states import SERVICE_MODEL, ServiceState, TaskState
from ..pilot.task import Pilot, Task
from ..resilience import LEASE_MISSES
from ..serving.hosts import create_host
from ..sim.events import URGENT, Event, Interrupt, Process, Ticker
from ..utils.log import get_logger
from .autoscaler import Autoscaler
from .registry import EndpointRegistry, ServiceInfo
from .service import ServiceInstance

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session

__all__ = ["ServiceHandle", "ServiceManager"]

log = get_logger("core.smgr")


class ServiceHandle:
    """User-facing handle of one managed service."""

    def __init__(self, session: "Session", description: ServiceDescription,
                 uid: str) -> None:
        self.session = session
        self.description = description
        self.uid = uid
        self.task = Task(session, description, uid)  # the Service Task (§III)
        self.service_state = ServiceState.DEFINED
        self.address: Optional[Address] = None
        self.instance: Optional[ServiceInstance] = None
        self.pilot_uid: Optional[str] = None
        self.platform: Optional[str] = None
        self.remote = False
        #: succeeds with the handle once READY; fails if startup fails
        self.ready: Event = session.engine.event()
        #: succeeds with the final service state
        self.stopped: Event = session.engine.event()
        self._stop_requested: Event = session.engine.event()

    def advance_service(self, state: str) -> None:
        """Validated service-state transition with profiling."""
        SERVICE_MODEL.check(self.service_state, state)
        self.service_state = state
        self.session.profiler.record(
            self.session.engine.now, self.uid, f"svc:{state}", "smgr")

    @property
    def is_ready(self) -> bool:
        return self.service_state == ServiceState.READY

    def __repr__(self) -> str:
        return f"<ServiceHandle {self.uid} {self.service_state}>"


class ServiceManager:
    """Manages service lifecycles within one session."""

    def __init__(self, session: "Session",
                 registry: Optional[EndpointRegistry] = None,
                 registry_platform: str = "localhost") -> None:
        self.session = session
        self.uid = session.ids.generate("smgr")
        self.registry = registry or EndpointRegistry(
            session, platform=registry_platform)
        self._reg_sock = session.bus.connect(
            self.registry.platform, name=f"{self.uid}.regsock")
        self._handles: Dict[str, ServiceHandle] = {}
        self._drivers: Dict[str, Process] = {}
        #: concurrent model loads per platform (drives init contention)
        self._loading: Dict[str, int] = {}
        self._resilience = session.resilience
        if self._resilience is not None and \
                self._resilience.injector is not None:
            self._resilience.injector.arm_services(self)

    # -- local (pilot-hosted) services ---------------------------------------------
    def start_services(
        self,
        descriptions: Union[ServiceDescription, Iterable[ServiceDescription]],
        pilot: Pilot,
    ) -> List[ServiceHandle]:
        """Bootstrap services on *pilot*'s resources; returns handles."""
        self.session.check_open()
        if isinstance(descriptions, ServiceDescription):
            descriptions = [descriptions]
        handles: List[ServiceHandle] = []
        for desc in descriptions:
            handle = ServiceHandle(self.session, desc,
                                   self.session.ids.generate("service"))
            handle.pilot_uid = pilot.uid
            self._handles[handle.uid] = handle
            self._drivers[handle.uid] = self.session.engine.process(
                self._drive(handle, pilot))
            # fail the bootstrap if it exceeds the description's timeout;
            # the outcome of ``ready`` -- either way -- withdraws the timer
            timeout = Ticker(self.session.engine, self._startup_timed_out,
                             handle, first=desc.startup_timeout_s)
            handle.ready.callbacks.append(lambda _, t=timeout: t.interrupt())
            handles.append(handle)
        return handles

    def _startup_timed_out(self, handle: ServiceHandle) -> None:
        driver = self._drivers[handle.uid]
        if not handle.ready.triggered and driver.is_alive:
            log.warning("%s startup timed out after %.0fs", handle.uid,
                        handle.description.startup_timeout_s)
            driver.interrupt("startup timeout")

    def _drive(self, handle: ServiceHandle, pilot: Optional[Pilot]):
        """Lifecycle of one service, on *pilot*'s resources or -- without a
        pilot -- attached to a persistent remote endpoint.

        A remote model is resident (§IV-A): nothing is launched or loaded,
        and no ``bootstrap_*`` / ``init_*`` / ``publish_*`` row is recorded.
        """
        engine = self.session.engine
        desc = handle.description
        task = handle.task
        scheduled = False

        def mark(event: str) -> None:
            if pilot is not None:
                self.session.profiler.record(engine.now, handle.uid, event,
                                             self.uid)

        try:
            if pilot is not None:
                if not pilot.is_active:
                    yield pilot.became_active
                handle.platform = pilot.platform.name
            mark("bootstrap_start")

            # -- launch phase -----------------------------------------------------
            handle.advance_service(ServiceState.LAUNCHING)
            if pilot is not None:
                task.advance(TaskState.TMGR_SCHEDULING, self.uid)
                task.advance(TaskState.AGENT_SCHEDULING, self.uid)
                grant = pilot.agent.scheduler.schedule(task)
                try:
                    yield grant
                except Interrupt:
                    pilot.agent.scheduler.withdraw(task)
                    raise
                scheduled = True
                task.advance(TaskState.AGENT_EXECUTING, self.uid)
                yield from pilot.agent.executor.launch(task)

            # -- init phase -------------------------------------------------------
            handle.advance_service(ServiceState.INITIALIZING)
            mark("init_start")
            host = create_host(desc.backend, desc.model,
                               max_concurrency=desc.max_concurrency,
                               max_batch_size=desc.max_batch_size or None)
            if pilot is not None:
                platform = pilot.platform
                rng = self.session.rng(f"smgr.init.{handle.uid}")
                self._loading[platform.name] = \
                    self._loading.get(platform.name, 0) + 1
                try:
                    load_s = host.load_time(
                        rng, concurrent_loads=self._loading[platform.name],
                        fs_bandwidth_gbps=platform.fs_bandwidth_gbps,
                        fs_aggregate_gbps=platform.fs_aggregate_gbps)
                    yield engine.timeout(load_s)
                finally:
                    self._loading[platform.name] -= 1
            mark("init_stop")

            # -- publish phase ------------------------------------------------------
            handle.advance_service(ServiceState.PUBLISHING)
            mark("publish_start")
            endpoint = desc.endpoint_name or f"{handle.uid}.ep"
            socket = self.session.bus.bind(endpoint,
                                           platform=handle.platform)
            handle.address = socket.address
            info = ServiceInfo(
                uid=handle.uid, name=endpoint, address=socket.address,
                model=desc.model, backend=desc.backend,
                platform=handle.platform,
                meta={"remote": True} if handle.remote else {})
            yield self._reg_sock.request(self.registry.address,
                                         {"op": "register", "info": info})
            mark("publish_stop")

            # -- ready ---------------------------------------------------------------
            handle.instance = ServiceInstance(
                self.session, handle.uid, socket, host,
                heartbeat_interval_s=desc.heartbeat_interval_s,
                max_queue_depth=desc.max_queue_depth)
            handle.instance.start()
            handle.advance_service(ServiceState.READY)
            mark("bootstrap_stop")
            handle.ready.succeed(handle)
            if self._resilience is not None:
                # one URGENT hop, after the instance's first beat went out:
                # the lease is not among that beat's subscribers
                engine.call_later(0.0, lambda _: self._watch_liveness(handle),
                                  priority=URGENT)
            log.info("%s ready at %s (t=%.1fs)", handle.uid, handle.address,
                     engine.now)

            # -- serve until stop requested ---------------------------------------------
            yield handle._stop_requested
            handle.advance_service(ServiceState.STOPPING)
            # Deregister first (no new traffic routes here), then drain so
            # every admitted request still gets its reply, then tear down.
            yield self._reg_sock.request(self.registry.address,
                                         {"op": "deregister",
                                          "name": endpoint})
            yield from handle.instance.drain()
            handle.instance.stop()
            handle.advance_service(ServiceState.STOPPED)
            if pilot is not None:
                task.finish(TaskState.DONE, self.uid)
        except Interrupt as intr:
            self._fail_handle(handle, RuntimeError(str(intr.cause)))
        except Exception as exc:
            self._fail_handle(handle, exc)
        finally:
            if scheduled and task.uid in pilot.agent.scheduler.held_tasks:
                pilot.agent.scheduler.release(task)
            if not handle.stopped.triggered:
                handle.stopped.succeed(handle.service_state)

    def _fail_handle(self, handle: ServiceHandle,
                     exc: BaseException) -> None:
        if handle.instance is not None and handle.instance.running:
            handle.instance.stop()
        if handle.address is not None \
                and self.registry.lookup(handle.address.name) is not None:
            # The failure is now *observed* (liveness/startup watchdog):
            # scrub the stale endpoint so no new traffic routes there.
            self._reg_sock.request(self.registry.address,
                                   {"op": "deregister",
                                    "name": handle.address.name})
        if handle.service_state not in ServiceState.FINAL:
            handle.service_state = ServiceState.FAILED
            self.session.profiler.record(
                self.session.engine.now, handle.uid,
                f"svc:{ServiceState.FAILED}", self.uid)
        if not handle.task.is_final:
            handle.task.exception = exc
            handle.task.finish(TaskState.FAILED, self.uid)
        if not handle.ready.triggered:
            handle.ready.fail(exc)
            handle.ready.defuse()
        log.info("%s failed: %s", handle.uid, exc)

    # -- remote (persistent) services --------------------------------------------------
    def start_remote(self, description: ServiceDescription,
                     platform: str) -> ServiceHandle:
        """Attach a persistent remote service (no bootstrap, no BT).

        The endpoint is bound and registered immediately; the model is
        assumed resident (paper §IV-A).
        """
        self.session.check_open()
        handle = ServiceHandle(self.session, description,
                               self.session.ids.generate("service"))
        handle.remote = True
        handle.platform = platform
        self._handles[handle.uid] = handle
        self._drivers[handle.uid] = self.session.engine.process(
            self._drive(handle, None))
        return handle

    # -- elasticity ------------------------------------------------------------------------
    def start_autoscaler(self, description: ServiceDescription,
                         pilot: Optional[Pilot] = None,
                         remote_platform: Optional[str] = None,
                         handles: Optional[List[ServiceHandle]] = None,
                         ) -> Autoscaler:
        """Start an :class:`Autoscaler` managing instances of *description*.

        Give either *pilot* (instances bootstrap on pilot resources) or
        *remote_platform* (persistent attachment).  Pre-existing *handles*
        are adopted into the managed group; the autoscaler tops the group
        up to its minimum immediately and then scales between its minimum
        and maximum against the registry's load telemetry.
        """
        self.session.check_open()
        scaler = Autoscaler(self, description, pilot=pilot,
                            remote_platform=remote_platform, handles=handles)
        return scaler.start()

    # -- control ---------------------------------------------------------------------------
    def stop_services(
        self, handles: Union[ServiceHandle, Iterable[ServiceHandle]],
    ) -> None:
        """Request orderly shutdown of the given services."""
        if isinstance(handles, ServiceHandle):
            handles = [handles]
        for handle in handles:
            if handle.service_state in ServiceState.FINAL:
                continue
            if not handle._stop_requested.triggered:
                handle._stop_requested.succeed("stop")

    def wait_ready(
        self, handles: Union[ServiceHandle, Iterable[ServiceHandle]],
    ) -> Event:
        """Event succeeding when all given services are READY."""
        if isinstance(handles, ServiceHandle):
            handles = [handles]
        return self.session.engine.all_of([h.ready for h in handles])

    def wait_stopped(
        self, handles: Union[ServiceHandle, Iterable[ServiceHandle]],
    ) -> Event:
        if isinstance(handles, ServiceHandle):
            handles = [handles]
        return self.session.engine.all_of([h.stopped for h in handles])

    # -- fault injection ------------------------------------------------------------------
    def crash_service(self, handle: ServiceHandle) -> bool:
        """Crash a service's data plane abruptly (fault injection).

        The instance dies mid-flight: admitted requests are dropped, the
        endpoint socket unbinds, heartbeats cease.  Nothing notifies the
        control plane -- the liveness watchdog has to notice the silence,
        which is exactly the detection latency the resilience metrics
        report.  Returns False when there was nothing live to crash.
        """
        if handle.instance is None or not handle.instance.running:
            return False
        handle.instance.stop()
        return True

    # -- liveness ------------------------------------------------------------------------
    def _watch_liveness(self, handle: ServiceHandle) -> None:
        """Lease a READY service's heartbeat channel on the resilience
        subsystem's monitor (service declarations land in the same
        detection records as pilot ones).  Its expiry fails the service;
        the service's end deregisters it (an orderly end declares nothing).
        """
        monitor = self._resilience.monitor
        lease = monitor.watch(handle.uid,
                              handle.description.heartbeat_interval_s,
                              LEASE_MISSES, topic=f"heartbeat.{handle.uid}")
        lease.declared.callbacks.append(
            lambda _: self._liveness_failed(handle))
        handle.stopped.callbacks.append(
            lambda _: monitor.deregister(handle.uid))

    def _liveness_failed(self, handle: ServiceHandle) -> None:
        if handle.service_state == ServiceState.READY:
            log.warning("%s missed %d heartbeats; marking FAILED",
                        handle.uid, LEASE_MISSES)
            driver = self._drivers.get(handle.uid)
            if driver is not None and driver.is_alive:
                driver.interrupt("liveness failure")

    # -- introspection -------------------------------------------------------------------
    def get(self, uid: str) -> ServiceHandle:
        return self._handles[uid]

    @property
    def services(self) -> List[ServiceHandle]:
        return list(self._handles.values())

    def ready_services(self) -> List[ServiceHandle]:
        return [h for h in self._handles.values() if h.is_ready]
