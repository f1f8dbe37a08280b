"""The pilot agent: scheduler + executor running inside an allocation.

The agent is the pilot-side runtime (cf. RADICAL-Pilot's agent): it owns the
allocation's nodes, places work via :class:`AgentScheduler`, runs it via
:class:`AgentExecutor`, and guarantees slot release on every exit path.

On the task path the agent is a *component*, not a process: a task handed
to :meth:`Agent.submit` is the agent's while it waits for slots
(``AGENT_SCHEDULING``), the executor's from the grant's landing to the end
of the payload (``AGENT_EXECUTING``), and the agent's again for the call
that releases the slots and hands it back to its TaskManager -- each step
inside the kernel entry that caused it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ...hpc.node import NodeList
from ..states import TaskState
from ..task import QUEUED, STAGE_OUT
from .executor import AgentExecutor, ExecutionError
from .scheduler import AgentScheduler, SchedulerError

if TYPE_CHECKING:  # pragma: no cover
    from ..session import Session
    from ..task import Task

__all__ = ["Agent", "AgentScheduler", "AgentExecutor", "SchedulerError",
           "ExecutionError"]


class Agent:
    """Per-pilot runtime combining scheduling and execution."""

    def __init__(self, session: "Session", pilot_uid: str, nodes: NodeList,
                 launch_method: str, platform_name: str) -> None:
        self.session = session
        self.pilot_uid = pilot_uid
        self.platform_name = platform_name
        self.scheduler = AgentScheduler(session, nodes, pilot_uid)
        self.executor = AgentExecutor(session, pilot_uid, launch_method)
        #: the grant landing, bound once: every queued request holds it
        self._landing = self._granted

    def submit(self, task: "Task") -> None:
        """Take a bound (and staged) task: queue it for slots.  A request
        the scheduler refuses fails the attempt one kernel entry later."""
        task.phase = QUEUED
        task.advance(TaskState.AGENT_SCHEDULING, self.pilot_uid)
        try:
            self.scheduler.schedule(task, self._landing)
        except SchedulerError as exc:
            task.wait = self.session.engine.call_later(
                0.0, self._refused, (task, exc))

    def _refused(self, flight: tuple) -> None:
        task, exc = flight
        task.wait = None
        task.owner._unwind(task, exc)

    def _granted(self, task: "Task") -> None:
        """Grant landing: the task holds ``task.slots``; start it."""
        task.wait = None
        try:
            task.advance(TaskState.AGENT_EXECUTING, self.pilot_uid)
            self.executor.start(task)
        except Exception as exc:
            task.owner._unwind(task, exc)

    def _executed(self, task: "Task") -> None:
        """The payload is over: free the slots (*before* output staging,
        which must not block the next placement), hand the task back."""
        task.phase = STAGE_OUT  # nothing of the agent's left to undo
        self.scheduler.release(task)
        task.owner._executed(task)

    def evict(self, task: "Task", wait: Any) -> None:
        """Unwind table, agent side; *wait* is the kernel entry the task
        was waiting for, if one was armed.  It is cancelled: a stale grant
        must never start a later attempt, an abandoned timer drags the
        clock to its deadline.  Queued: the request is withdrawn (with the
        slots, if granted but not landed); else the executor's counters and
        rows are settled and the slots released."""
        if wait is not None:
            wait.cancel()
        if task.phase == QUEUED:
            self.scheduler.withdraw(task)
        else:
            self.executor.abort(task)
            self.scheduler.release(task)
