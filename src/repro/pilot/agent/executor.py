"""Agent-side executor: launches and runs placed tasks.

Two payload kinds (matching :class:`repro.pilot.description.TaskDescription`):

* **executable tasks** -- cost-modelled: the executor charges the launch
  method's cost (including the MPI concurrency knee), ``pre_exec_s``, then
  ``duration_s`` (+jitter).
* **function tasks** -- *really executed*: the callable runs inline and the
  clock advances by ``duration_s`` if given, else by the measured wall
  time; a cancel while that charge runs withdraws its timer.

The concurrent-launch counter feeds the launcher cost model: Experiment 1's
launch component grows past ~160 *simultaneous* launches (Fig. 3).

On the task path the executor owns a task from the grant's landing to the
end of its payload and advances it from the landings of its own timers
(:meth:`AgentExecutor.start`); a service task shares the launch timer, but
its launch landing hands it back to its owner, the ServiceManager.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING

from ...hpc.launcher import LaunchMethod, get_launcher
from ...resilience.failures import classify_failure
from ...utils.log import get_logger
from ..description import ServiceDescription
from ..task import EXEC, LAUNCH, PLACED

if TYPE_CHECKING:  # pragma: no cover
    from ..session import Session
    from ..task import Task

__all__ = ["AgentExecutor", "ExecutionError"]

log = get_logger("pilot.agent.executor")


class ExecutionError(Exception):
    """Raised for malformed execution requests."""


class AgentExecutor:
    """Runs tasks on a pilot's resources."""

    def __init__(self, session: "Session", pilot_uid: str,
                 launch_method: str) -> None:
        self.session = session
        self.pilot_uid = pilot_uid
        self.launcher: LaunchMethod = get_launcher(launch_method)
        #: launch cost and duration jitter are its only draws
        self._rng = session.rng_hub.normals(f"executor.{pilot_uid}")
        self._launching = 0
        self._executing = 0

    # -- cost components ----------------------------------------------------------
    def _duration(self, task: "Task") -> float:
        d = task.description
        duration = float(d.duration_s)
        if d.duration_jitter_s > 0:
            duration += float(abs(self._rng.normal(0.0, d.duration_jitter_s)))
        return duration

    # -- the task path: one landing per timer ---------------------------------------
    def start(self, task: "Task") -> None:
        """Own a task that holds slots until its payload is over:
        ``_launched`` and ``_exec_done`` are the landings of the launch and
        exec timers (``pre_exec_s`` adds ``_run``), then the agent has it
        back.  An exception escaping a landing goes to its owner's unwind,
        of which :meth:`abort` is the executor's part."""
        if not task.slots:
            raise ExecutionError(f"{task.uid}: executing without slots")
        engine = self.session.engine
        self._launching += 1
        task.phase = LAUNCH
        self.session.profiler.record(engine.now, task.uid, "launch_start",
                                     self.pilot_uid)
        cost = self.launcher.launch_time(self._launching, self._rng)
        task.wait = engine.call_later(cost, self._launched, task)

    def _launched(self, task: "Task") -> None:
        task.wait = None
        try:
            engine = self.session.engine
            self._launching -= 1
            task.phase = PLACED
            self.session.profiler.record(engine.now, task.uid, "launch_stop",
                                         self.pilot_uid)
            d = task.description
            if isinstance(d, ServiceDescription):  # its payload is a service
                task.owner._init(task)
            elif d.pre_exec_s > 0:
                task.wait = engine.call_later(d.pre_exec_s, self._run, task)
            else:
                self._run(task)
        except Exception as exc:
            task.owner._unwind(task, exc)

    def _run(self, task: "Task") -> None:
        """Start the payload (a landing after ``pre_exec_s``, else inline)."""
        task.wait = None
        try:
            d = task.description
            engine = self.session.engine
            self.session.profiler.record(engine.now, task.uid, "exec_start",
                                         self.pilot_uid)
            self._executing += 1
            task.phase = EXEC
            task.exec_started = engine.now
            if d.function is None:
                charge, landing, arg = \
                    self._duration(task), self._exec_done, task
            else:
                # Run inline, charge the modeled (or measured) duration;
                # the result is the task's once that has passed.
                try:
                    wall0 = _time.perf_counter()
                    result = d.function(*d.fn_args, **dict(d._fn_kwargs))
                    measured = _time.perf_counter() - wall0
                except Exception as exc:
                    self._payload_failed(task, exc)
                    return
                charge = self._duration(task)
                if d.duration_s <= 0:
                    charge = measured
                landing, arg = self._returned, (task, result)
            if charge > 0:
                task.wait = engine.call_later(charge, landing, arg)
            else:
                landing(arg)
        except Exception as exc:
            task.owner._unwind(task, exc)

    def _returned(self, flight: tuple) -> None:
        task, result = flight
        task.result = result
        self._exec_done(task)

    def _exec_done(self, task: "Task") -> None:
        task.wait = None
        try:
            task.exit_code = 0
            self._stopped(task, "exec_stop")
            task.pilot.agent._executed(task)
        except Exception as exc:
            task.owner._unwind(task, exc)

    def _stopped(self, task: "Task", event: str) -> None:
        """The payload is off the cores, however it ended."""
        now = self.session.engine.now
        self._executing -= 1
        task.phase = PLACED
        task.runtime_s = now - task.exec_started
        self.session.profiler.record(now, task.uid, event, self.pilot_uid)

    def _payload_failed(self, task: "Task", exc: BaseException) -> None:
        now = self.session.engine.now
        task.exception = exc
        task.exit_code = 1
        task.record_failure(classify_failure(
            exc, at=now, attempt=task.attempts, phase="agent",
            component=self.pilot_uid,
            wasted_core_s=(now - task.exec_started) * task.n_cores))
        self._stopped(task, "exec_fail")
        task.owner._unwind(task, exc)

    def abort(self, task: "Task") -> None:
        """Unwind table, executor side (the timer is already withdrawn): a
        launch no longer feeds the cost of the others; a payload was
        killed -- no exit code, ``exec_cancel``."""
        if task.phase == LAUNCH:
            self._launching -= 1
        elif task.phase == EXEC:
            task.exit_code = None
            self._stopped(task, "exec_cancel")
