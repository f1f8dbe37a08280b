"""ServiceManager: the control plane of the paper's runtime extension.

Complementing the TaskManager (§III, Fig. 2), it runs services as
discoverable, monitored instances.  A service is a task, its Fig. 3 phases
landings on the task path: the grant lands on ``_granted``, which starts
the executor's launch timer (**launch**); that lands on ``_init``, a
model-load timer (**init**), which lands on ``_publish``; the registry's
reply makes it READY (**publish**).  A startup timeout, a lease expiry, a
node fault, the pilot's end and an exception escaping a step all end it in
:meth:`ServiceManager._end`.  An orderly stop deregisters the endpoint
*first*, then drains the admitted requests, then tears down, so scaling
down never drops in-flight work.  A remote service (the paper's R3) is
resident: "Remote models ... do not need to be bootstrapped" (§IV-A).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Union

from ..comm.message import Address
from ..pilot.agent import SchedulerError
from ..pilot.description import ServiceDescription
from ..pilot.states import SERVICE_MODEL, ServiceState, TaskState
from ..pilot.task import QUEUED, Pilot, Task
from ..resilience import LEASE_MISSES
from ..resilience.failures import pilot_end_cause
from ..serving.hosts import create_host
from ..sim.events import URGENT, Deferred, Event
from ..utils.log import get_logger
from .autoscaler import Autoscaler
from .registry import EndpointRegistry, ServiceInfo
from .service import ServiceInstance

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session

__all__ = ["ServiceHandle", "ServiceManager"]

log = get_logger("core.smgr")

_NO_TIMER = Deferred()  # a ServiceHandle's startup timer, once none is armed


class ServiceHandle:
    """User-facing handle of one managed service."""

    def __init__(self, session: "Session", description: ServiceDescription,
                 uid: str, pilot: Optional[Pilot], platform: str) -> None:
        self.session = session
        self.description = description
        self.uid = uid
        self.task = Task(session, description, uid)  # the Service Task (§III)
        self.task.pilot = pilot
        self.service_state = ServiceState.DEFINED
        self.address: Optional[Address] = None
        self.instance: Optional[ServiceInstance] = None
        self.platform = platform
        self.remote = pilot is None
        #: succeeds with the handle once READY; fails if startup fails
        self.ready: Event = session.engine.event()
        #: succeeds with the final service state
        self.stopped: Event = session.engine.event()
        self._stop_requested: Event = session.engine.event()
        #: the registry reply a step waits for (register / deregister)
        self.wait: Optional[Event] = None
        self._timer = _NO_TIMER  # the armed startup timeout

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


Handles = Union[ServiceHandle, Iterable[ServiceHandle]]  # one or several


def _listed(handles: Handles) -> Iterable[ServiceHandle]:
    return [handles] if isinstance(handles, ServiceHandle) else handles


def _step(method):
    """A landing on the service path: an exception escaping it fails it."""
    def landing(self, subject, *args):  # the handle, or its task
        try:
            method(self, subject, *args)
        except Exception as exc:
            self._unwind(subject, exc)
    return landing


class ServiceManager:
    """Manages service lifecycles within one session."""

    def __init__(self, session: "Session",
                 registry_platform: str = "localhost") -> None:
        self.session = session
        self.uid = session.ids.generate("smgr")
        self.registry = EndpointRegistry(session, platform=registry_platform)
        self._reg_sock = session.bus.connect(
            self.registry.platform, name=f"{self.uid}.regsock")
        self._handles: Dict[str, ServiceHandle] = {}
        self._pilots: Set[Pilot] = set()  # those whose end we hear
        self._loading: Dict[str, int] = {}  # concurrent loads, per platform
        self._resilience = session.resilience
        if self._resilience is not None:
            self._resilience.register_service_manager(self)

    # -- bootstrap -----------------------------------------------------------------
    def start_services(self, descriptions: Union[
            ServiceDescription, Iterable[ServiceDescription]],
            pilot: Pilot) -> List[ServiceHandle]:
        """Bootstrap services on *pilot*'s resources; returns handles."""
        self.session.check_open()
        if isinstance(descriptions, ServiceDescription):
            descriptions = [descriptions]
        handles = [self._begin_soon(desc, pilot) for desc in descriptions]
        if pilot.finished.processed:  # it ended: so do they, unlaunched
            self._pilot_ended(pilot, pilot.finished)
        elif pilot not in self._pilots:  # hear its end, once
            self._pilots.add(pilot)
            pilot.finished.callbacks.append(partial(self._pilot_ended, pilot))
        return handles

    def start_remote(self, description: ServiceDescription,
                     platform: str) -> ServiceHandle:
        """Attach a persistent remote service (no bootstrap, no BT)."""
        self.session.check_open()
        return self._begin_soon(description, None, platform)

    def _begin_soon(self, desc: ServiceDescription, pilot: Optional[Pilot],
                    remote_platform: Optional[str] = None) -> ServiceHandle:
        """A new handle whose first step is one URGENT entry later."""
        handle = ServiceHandle(
            self.session, desc, self.session.ids.generate("service"), pilot,
            remote_platform or pilot.platform.name)
        handle.task.owner = self  # the executor's launch hands it back
        self._handles[handle.uid] = handle
        handle._stop_requested.callbacks.append(lambda _: self._stop(handle))
        self.session.engine.call_later(0.0, self._begin, handle,
                                       priority=URGENT)
        return handle

    @_step
    def _begin(self, handle: ServiceHandle) -> None:
        """Wait for the pilot, then arm the startup timeout (remote: init)."""
        pilot = handle.task.pilot
        if pilot is None:
            handle.advance_service(ServiceState.LAUNCHING)
            self._init(handle.task)
        elif pilot.is_active or pilot.became_active.processed:
            self._activated(handle, pilot.became_active)
        else:
            pilot.became_active.callbacks.append(
                partial(self._activated, handle))
        if pilot is not None and handle.service_state != ServiceState.FAILED:
            handle._timer = self.session.engine.call_later(
                handle.description.startup_timeout_s, self._timed_out, handle)

    def _timed_out(self, handle: ServiceHandle) -> None:
        handle._timer = _NO_TIMER
        self.fail_service(handle, RuntimeError("startup timeout"))

    def _mark(self, handle: ServiceHandle, event: str) -> None:
        if not handle.remote:
            self.session.profiler.record(self.session.engine.now,
                                         handle.uid, event, self.uid)

    @_step
    def _activated(self, handle: ServiceHandle, active: Event) -> None:
        """The pilot is up: request slots (the scheduler's landing form)."""
        if not active.ok or handle.service_state == ServiceState.FAILED:
            return self._end(handle, active.value)  # no pilot, or ended
        task = handle.task
        self._mark(handle, "bootstrap_start")
        handle.advance_service(ServiceState.LAUNCHING)
        task.advance(TaskState.TMGR_SCHEDULING, self.uid)
        task.advance(TaskState.AGENT_SCHEDULING, self.uid)
        task.phase = QUEUED
        try:
            task.pilot.agent.scheduler.schedule(task, self._granted)
        except SchedulerError as exc:  # fails one kernel entry later
            self.session.engine.call_later(0.0, partial(self._end, handle),
                                           exc)

    @_step
    def _granted(self, task: Task) -> None:
        """Grant landing: the launch timer's landing is the init."""
        task.wait = None
        task.advance(TaskState.AGENT_EXECUTING, self.uid)
        task.pilot.agent.executor.start(task)

    def _init(self, task: Task) -> None:
        """Load the model: one timer, counted in ``_loading`` meanwhile."""
        handle, desc = self._handles[task.uid], task.description
        handle.advance_service(ServiceState.INITIALIZING)
        self._mark(handle, "init_start")
        host = create_host(desc.backend, desc.model,
                           max_concurrency=desc.max_concurrency,
                           max_batch_size=desc.max_batch_size or None)
        if handle.remote:
            return self._publish(handle, host)
        platform = task.pilot.platform
        loads = self._loading.get(platform.name, 0) + 1
        load_s = host.load_time(self.session.rng(f"smgr.init.{handle.uid}"),
                                concurrent_loads=loads,
                                fs_bandwidth_gbps=platform.fs_bandwidth_gbps,
                                fs_aggregate_gbps=platform.fs_aggregate_gbps)
        self._loading[platform.name] = loads
        task.wait = self.session.engine.call_later(
            load_s, partial(self._publish, handle), host)

    @_step
    def _publish(self, handle: ServiceHandle, host) -> None:
        """Bind the endpoint and register it; the reply makes it READY."""
        if handle.task.wait is not None:  # the load timer's landing
            handle.task.wait = None
            self._loading[handle.platform] -= 1
        self._mark(handle, "init_stop")
        desc = handle.description
        endpoint = desc.endpoint_name or f"{handle.uid}.ep"
        handle.advance_service(ServiceState.PUBLISHING)
        self._mark(handle, "publish_start")
        socket = self.session.bus.bind(endpoint, platform=handle.platform)
        handle.address = socket.address
        info = ServiceInfo(
            uid=handle.uid, name=endpoint, address=socket.address,
            model=desc.model, backend=desc.backend, platform=handle.platform,
            meta={"remote": True} if handle.remote else {})
        handle.wait = reply = self._reg_sock.request(
            self.registry.address, {"op": "register", "info": info})
        reply.callbacks.append(partial(self._ready, handle, socket, host))

    @_step
    def _ready(self, handle: ServiceHandle, socket, host,
               reply: Event) -> None:
        if handle.wait is not reply:
            return  # ended, and scrubbed from the registry
        handle.wait = None
        if handle.service_state == ServiceState.FAILED:
            return self._deregister(handle)  # it ended while registering
        self._mark(handle, "publish_stop")
        handle.instance = ServiceInstance(
            self.session, handle.uid, socket, host,
            heartbeat_interval_s=handle.description.heartbeat_interval_s,
            max_queue_depth=handle.description.max_queue_depth)
        handle.instance.start()
        handle.advance_service(ServiceState.READY)
        self._mark(handle, "bootstrap_stop")
        handle._timer.cancel()
        handle.ready.succeed(handle)
        if self._resilience is not None:
            # one URGENT hop: the lease misses the first beat's delivery
            self.session.engine.call_later(
                0.0, lambda _: self._watch_liveness(handle), priority=URGENT)
        log.info("%s ready at %s", handle.uid, handle.address)
        if handle._stop_requested.processed:  # asked while bootstrapping
            self._stop(handle)

    # -- ends ----------------------------------------------------------------------
    def _stop(self, handle: ServiceHandle) -> None:
        """Deregister (no new traffic), drain, tear down."""
        if handle.service_state == ServiceState.READY:  # not ended first
            handle.advance_service(ServiceState.STOPPING)
            self._deregister(handle).callbacks.append(
                lambda _: handle.instance.drain(
                    partial(self._end, handle, None)))

    def _deregister(self, handle: ServiceHandle) -> Event:
        return self._reg_sock.request(self.registry.address, {
            "op": "deregister", "name": handle.address.name})

    def fail_service(self, handle: ServiceHandle, cause) -> None:
        """End a service in an URGENT landing (*cause*: see :meth:`_end`)."""
        self.session.engine.call_later(
            0.0, lambda _: self._end(handle, cause), priority=URGENT)

    def _pilot_ended(self, pilot: Pilot, finished: Event) -> None:
        """Every service aboard ends with its pilot (``pilot_end_cause``)."""
        cause = pilot_end_cause(pilot.uid, finished.value,
                                self._resilience is not None)
        for handle in list(self._handles.values()):
            if handle.task.pilot is pilot:
                self._end(handle, cause)

    def _unwind(self, subject, exc: BaseException) -> None:
        """An exception escaped a step of *subject* (a handle or its task)."""
        self._end(self._handles[subject.uid], exc)

    def _end(self, handle: ServiceHandle, cause) -> None:
        """A service ends here, from any step: landing withdrawn, agent side
        undone (:meth:`Agent.evict`), instance stopped, endpoint scrubbed,
        ``stopped`` fired.  *cause* None: a drained stop; else it FAILs, its
        task FAILED by an exception, CANCELED by a note (an orderly end)."""
        state, task = handle.service_state, handle.task
        if state in ServiceState.FINAL:
            return
        wait, task.wait = task.wait, None
        queued = task.phase == QUEUED
        if queued:
            task.pilot.agent.evict(task, wait)
        elif state == ServiceState.INITIALIZING and wait is not None:
            self._loading[handle.platform] -= 1
        handle._timer.cancel()
        if handle.instance is not None:
            handle.instance.stop()
        if state != ServiceState.STOPPING and handle.address is not None \
                and self.registry.lookup(handle.address.name) is not None:
            handle.wait = None  # nothing left for its reply to do
            self._deregister(handle)
        if cause is None:
            handle.advance_service(ServiceState.STOPPED)
            if not handle.remote:
                task.finish(TaskState.DONE, self.uid)
        else:
            handle.service_state = ServiceState.FAILED
            self.session.profiler.record(self.session.engine.now,
                                         handle.uid, "svc:FAILED", self.uid)
            failed = isinstance(cause, BaseException)
            exc = cause if failed else RuntimeError(cause)
            task.exception = exc if failed else None
            task.finish(TaskState.FAILED if failed else TaskState.CANCELED,
                        self.uid)
            if not handle.ready.triggered:
                handle.ready.fail(exc).defuse()
            log.warning("%s failed: %s", handle.uid, exc)
        if task.phase is not None and not queued:  # launched: holds slots
            task.pilot.agent.evict(task, wait)
        task.phase = None
        handle.stopped.succeed(handle.service_state)

    # -- control -----------------------------------------------------------------
    def start_autoscaler(self, description: ServiceDescription,
                         remote_platform: str) -> Autoscaler:
        """An :class:`Autoscaler` of *description* instances attached on
        *remote_platform*, started."""
        self.session.check_open()
        return Autoscaler(self, description, remote_platform).start()

    def stop_services(self, handles: Handles) -> None:
        """Request orderly shutdown of the given services."""
        for handle in _listed(handles):
            if handle.service_state not in ServiceState.FINAL \
                    and not handle._stop_requested.triggered:
                handle._stop_requested.succeed("stop")

    def wait_ready(self, handles: Handles) -> Event:
        return self.session.engine.all_of(
            [h.ready for h in _listed(handles)])

    def wait_stopped(self, handles: Handles) -> Event:
        return self.session.engine.all_of(
            [h.stopped for h in _listed(handles)])

    def crash_service(self, handle: ServiceHandle) -> bool:
        """Kill a live data plane silently (only the lease can notice)."""
        if handle.instance is None or not handle.instance.running:
            return False
        handle.instance.stop()
        return True

    def _watch_liveness(self, handle: ServiceHandle) -> None:
        """Lease a READY service's beats; the lease's expiry fails it."""
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
            self.fail_service(handle, RuntimeError("liveness failure"))

    # -- introspection -------------------------------------------------------------------
    def lookup(self, uid: str) -> Optional[ServiceHandle]:
        return self._handles.get(uid)

    @property
    def services(self) -> List[ServiceHandle]:
        return list(self._handles.values())

    def ready_services(self) -> List[ServiceHandle]:
        return [h for h in self._handles.values() if h.is_ready]
