"""Task and Pilot runtime entities.

Entities pair a user description with live state: lifecycle state (enforced
by :mod:`repro.pilot.states`), placement (pilot binding, slots), results and
an engine event that observers can wait on.

A :class:`Task` is a *record*: it runs nothing itself.  Between submission
and completion one component at a time owns it, notes in ``phase`` what the
task waits for and in ``wait`` the handle of that wait, and advances the
record when the wait is over (:mod:`repro.pilot.task_manager`).  Tasks and
pilots are slotted, so neither has a per-instance ``__dict__``: a task
is one 224 B object on CPython 3.11 (352 B as an object and its instance
dict).  It allocates no container it does not use: the state callbacks,
the failure history and the nodes to avoid are a shared empty tuple /
frozenset until the first one arrives, and the slots of a task that holds
none are the shared empty tuple :data:`NO_SLOTS`.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, AbstractSet, Any, Callable, Optional,
                    Sequence, Tuple)

from ..hpc.node import NodeList, Slot
from ..sim.events import Event
from .description import PilotDescription, TaskDescription
from .states import (
    PILOT_MODEL,
    TASK_MODEL,
    PilotState,
    StateModel,
    TaskState,
)

if TYPE_CHECKING:  # pragma: no cover
    from .session import Session

__all__ = ["Task", "Pilot"]

# ``Task.phase``: what a task in the pipeline waits for (None = queued behind
# a chunk or window, or the attempt is over).  The TaskManager's phases are
# named like the failure phase an error there is reported under.
STARTING = "starting"      # in a start batch that has not landed yet
BINDING = "binding"        # bound, waiting for the pilot to become active
STAGE_IN = "stage_in"
QUEUED = "queued"          # agent: waiting for slots or for the grant to land
LAUNCH = "launch"          # executor: launch timer, counted in _launching
PLACED = "placed"          # executor: holds slots, in neither counter
EXEC = "exec"              # executor: exec timer, counted in _executing
STAGE_OUT = "stage_out"    # slots released: stage-out and the final state
RECOVERING = "recovering"  # FAILED, a retry plan decides

#: ``Task.avoid_nodes`` of every task no retry policy has steered yet
_NO_NODES: AbstractSet[str] = frozenset()

#: ``Task.slots`` of every task that holds none: before its grant, after
#: the release and after a restart
NO_SLOTS: Sequence[Slot] = ()


class _StatefulEntity:
    """Shared machinery: validated state + profile + state callbacks."""

    __slots__ = ("session", "uid", "state", "_callbacks")

    _model: StateModel
    _initial: str

    def __init__(self, session: "Session", uid: str) -> None:
        self.session = session
        self.uid = uid
        self.state = self._initial
        #: grown by copy, so a transition iterates the tuple it started with
        self._callbacks: Tuple[Callable[[Any, str], None], ...] = ()

    def advance(self, target: str, component: str = "") -> None:
        """Move to *target* state; records profile + notifies callbacks."""
        model = self._model
        if target not in model.allowed[self.state]:
            model.check(self.state, target)  # raises: the move is illegal
        self.state = target
        session = self.session
        session.profiler.record(session.engine.now, self.uid,
                                model.events[target], component)
        if self._callbacks:
            for callback in self._callbacks:
                callback(self, target)

    def on_state(self, callback: Callable[[Any, str], None]) -> None:
        """Register ``callback(entity, new_state)`` for every transition."""
        self._callbacks += (callback,)


class Completion(Event):
    """``Task.completed``: an engine event that knows its ``task``, so one
    observer serves the completion of every task."""

    __slots__ = ("task",)


class Task(_StatefulEntity):
    """One unit of work bound to a session.

    ``completed`` is an engine event that *succeeds with the final state*
    regardless of DONE/FAILED/CANCELED -- waiting never raises; inspect
    :attr:`exception` / :attr:`state` for the outcome.
    """

    __slots__ = ("description", "pilot_uid", "slots", "result", "exception",
                 "exit_code", "completed", "runtime_s", "affinity_key",
                 "attempts", "failure", "failures", "avoid_nodes",
                 "trace_parent", "_obs_submitted_at", "owner", "phase",
                 "wait", "pilot", "exec_started")

    _model = TASK_MODEL
    _initial = TaskState.NEW

    def __init__(self, session: "Session",
                 description: TaskDescription, uid: str) -> None:
        # the base's four fields, written here: a task is made per
        # submission, and entering ``_StatefulEntity.__init__`` costs a frame
        self.session = session
        self.uid = uid
        self.state = self._initial
        self._callbacks = ()
        self.description = description
        self.pilot_uid: Optional[str] = None
        self.slots: Sequence[Slot] = NO_SLOTS
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self.exit_code: Optional[int] = None
        self.completed = completed = Completion(session.engine)
        completed.task = self
        #: wall/sim duration actually spent executing
        self.runtime_s: Optional[float] = None
        #: soft node-affinity hint (dominant input object id), set by the
        #: TaskManager's data-aware placement; an explicit
        #: ``tags={"affinity": ...}`` on the description takes precedence
        self.affinity_key: Optional[str] = None
        #: 1-based attempt counter (bumped by recovery-driven restarts)
        self.attempts: int = 1
        #: structured reason of the latest failure (resilience subsystem)
        self.failure = None  # Optional[repro.resilience.failures.FailureReason]
        #: full per-attempt failure history (a list from the first one)
        self.failures: Sequence[Any] = ()
        #: node names the retry policy asks the agent scheduler to avoid
        #: (the recovery engine makes it a set on its first add)
        self.avoid_nodes = _NO_NODES
        #: explicit causal parent span for the tracer (observability);
        #: usually unset -- campaign nodes parent via the tracer's ambient
        #: context instead
        self.trace_parent = None
        # The record its owner advances:
        self._obs_submitted_at: Optional[float] = None  # telemetry plane
        self.owner = None  # the TaskManager the task was submitted to
        self.phase: Optional[str] = None  # what it waits for (see above)
        #: handle of that wait, whatever withdraws it on ``cancel()``
        #: (a ``Deferred``, ``Hook``, ``Staging`` or retry plan), or None
        self.wait: Any = None
        #: the pilot this attempt is bound to (in its live-bound load)
        self.pilot: Optional["Pilot"] = None
        self.exec_started: Optional[float] = None  # payload start

    @property
    def is_final(self) -> bool:
        return self.state in TaskState.FINAL

    @property
    def n_cores(self) -> int:
        return self.description.ranks * self.description.cores_per_rank

    @property
    def n_gpus(self) -> int:
        return self.description.ranks * self.description.gpus_per_rank

    def finish(self, state: str, component: str = "") -> None:
        """Enter a final state and trigger the completion event.

        The event fires even when an observer of the transition raises:
        the exception goes to the caller, the waiters are still released.
        """
        if self.state in TaskState.FINAL:
            return
        try:
            self.advance(state, component)
        finally:
            if self.state == state:  # not so after an illegal transition
                self.completed.succeed(state)

    def seal(self) -> None:
        """Trigger completion for a task already sitting in a final state.

        The retry path advances to FAILED *without* completing (a pending
        recovery decision may resurrect the task); once recovery gives up,
        sealing delivers the completion event waiters block on.
        """
        if not self.completed.triggered:
            self.completed.succeed(self.state)

    def record_failure(self, reason) -> None:
        """Attach a structured :class:`FailureReason` for the live attempt."""
        self.failure = reason
        if not self.failures:
            self.failures = []
        self.failures.append(reason)

    def prepare_restart(self) -> None:
        """Reset per-attempt state for a recovery-granted re-execution.

        Called in RESCHEDULING: binding, slots and results of the killed
        attempt are cleared (failure history is kept) so the next attempt
        re-binds and re-stages from scratch.
        """
        self.attempts += 1
        self.pilot_uid = None
        self.slots = NO_SLOTS
        self.result = None
        self.exception = None
        self.exit_code = None
        self.runtime_s = None

    def __repr__(self) -> str:
        return f"<Task {self.uid} {self.state}>"


class Pilot(_StatefulEntity):
    """An agent running inside one batch allocation."""

    __slots__ = ("description", "platform", "nodes", "agent", "batch_job",
                 "became_active", "finished")

    _model = PILOT_MODEL
    _initial = PilotState.NEW

    def __init__(self, session: "Session",
                 description: PilotDescription, uid: str) -> None:
        super().__init__(session, uid)
        self.description = description
        self.platform = session.platform(description.resource)
        self.nodes: Optional[NodeList] = None
        self.agent = None  # set on activation (repro.pilot.agent.Agent)
        self.batch_job = None
        self.became_active: Event = session.engine.event()
        self.finished: Event = session.engine.event()

    @property
    def is_active(self) -> bool:
        return self.state == PilotState.PMGR_ACTIVE

    def __repr__(self) -> str:
        return f"<Pilot {self.uid} {self.state} on {self.description.resource}>"
