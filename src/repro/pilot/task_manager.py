"""TaskManager: accepts tasks, binds them to pilots, owns their outcome.

A task is a record, and every step of the pipeline of Fig. 2 -- TMGR
scheduling (pilot binding) -> input staging (DataManager) -> agent
scheduling -> execution -> output staging -> final state -- is a plain
method of the component that owns the task at that point (TaskManager:
binding, staging, the outcome; Agent: queued for slots, release;
AgentExecutor: the launch and exec timers), run inside the kernel entry
that ended the previous wait.  No process, generator or private event per
task: a plain executable task on an active pilot costs four kernel entries
-- grant, launch, exec, ``task.completed`` -- plus one start landing per
submitted batch or admitted chunk (README "task path": the owner table).
Its own waits are landings too -- a hook on ``pilot.became_active``, a
:class:`~repro.pilot.data_manager.Staging` fan-out, the retry plan's steps
-- each held in ``Task.wait`` and withdrawn by its ``cancel()``.

A windowed submission (``submit_tasks(window=)``) is a record too
(:class:`_WindowFeed`): chunks that fit start inside ``submit_tasks``, the
next one queues at the :class:`SubmissionWindow`, and the completion that
frees its slots starts it from its own kernel entry.  ``chunk_size`` without
a window runs on a window one chunk wide, which serialises chunks strictly:
the completion of a chunk's last task starts the next one.

Failures are captured on the task (never crash the manager).  A
cancellation or injected fault is one URGENT landing, resolved against the
task's phase *when it lands* by :meth:`TaskManager._unwind` -- as is an
exception escaping any handler, so slots are released and timers withdrawn
on every exit path.

Pilot binding is **data-aware** by default: a task whose inputs already
(partially) live on some pilot's platform -- as replicas registered by the
data subsystem -- is bound to the pilot holding the largest share of its
input bytes, so warm caches are actually reached.  The policy degrades
gracefully: no staged inputs, no replicas anywhere, or a hot pilot already
carrying :data:`AFFINITY_LOAD_SLACK` more live tasks than the least-loaded
candidate all fall back to round-robin.  The policy is the session's
(``Session(data_config=DataConfig(placement=...))``), the same for every
TaskManager of the session.  Compute slots are released by the
agent *before* output staging runs, so stage-out never blocks the next
task's placement.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Union)

from ..data.objects import object_id
from ..resilience.failures import classify_failure, pilot_end_cause
from ..sim.events import URGENT, Event, Hook
from ..utils.log import get_logger
from .data_manager import DataManager, Staging
from .description import TaskDescription
from .states import PilotState, TaskState
from .task import (BINDING, RECOVERING, STAGE_IN, STAGE_OUT, STARTING,
                   Completion, Pilot, Task)

if TYPE_CHECKING:  # pragma: no cover
    from .session import Session

__all__ = ["TaskManager", "SubmissionWindow"]

log = get_logger("pilot.tmgr")

#: data affinity yields to round-robin when the preferred pilot is carrying
#: this many more live tasks than the least-loaded candidate
AFFINITY_LOAD_SLACK = 8

#: phases in which the TaskManager itself holds the task; an error in one is
#: reported under the phase's own name, anywhere else as "agent"
_OURS = frozenset((STARTING, BINDING, STAGE_IN, STAGE_OUT, RECOVERING))


class SubmissionWindow:
    """A counting slot pool bounding the tasks concurrently in the pipeline.

    A window wider than a chunk is a sliding window: a new task (or
    chunk) starts the moment enough in-flight tasks complete, so the pipe
    stays full through heterogeneous-duration bags; one exactly a chunk
    wide serialises chunks (chunk N+1 starts when chunk N completed).  One
    window may be shared across many ``submit_tasks`` calls (and even
    TaskManagers) -- that is how the campaign engine applies *global*
    backpressure across every node of every concurrently running graph.

    Nobody blocks on a window: a request that does not fit is queued as
    ``(handler, arg, n)``, and the :meth:`release` that makes room reserves
    the slots and calls ``handler(arg)`` itself, inside the kernel entry of
    the completion that freed them -- no wake-up event in between.  Slots
    are taken atomically per request (a queued request holds nothing), so
    submitters sharing one window cannot deadlock on partially acquired
    bursts.  Admission is strict FIFO: a release admits exactly the queued
    requests that now fit, head first, and a new request never overtakes a
    queued one.
    """

    def __init__(self, engine, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.in_flight = 0
        #: high-water mark of concurrently held slots (observability)
        self.peak = 0
        self._waiters: deque = deque()   # (handler, arg, n) in arrival order
        #: admitted (slots reserved), handler not called yet: a release made
        #: *by* a handler only reserves, the outermost one does the calling
        self._admitted: deque = deque()
        self._calling = False

    def admit(self, n: int, handler: Callable[[Any], None], arg: Any) -> bool:
        """Take *n* slots (capped at capacity) now -- True -- or queue the
        request: ``handler(arg)`` is called once they are reserved."""
        n = min(n, self.capacity)
        if not self._waiters and self.in_flight + n <= self.capacity:
            self.in_flight += n
            if self.in_flight > self.peak:
                self.peak = self.in_flight
            return True
        self._waiters.append((handler, arg, n))
        return False

    def release(self, n: int = 1) -> None:
        """Return *n* slots and admit whatever queued requests now fit.

        A handler may itself release (a chunk cancelled while it queued
        gives its slots straight back): the requests that admits are called
        after it returns, in admission order, by the release that called
        it -- as if each had been woken in turn -- so a run of cancelled
        chunks, however long, unwinds in a loop and not in the stack.
        """
        self.in_flight -= n
        waiters, admitted = self._waiters, self._admitted
        while waiters and self.in_flight + waiters[0][2] <= self.capacity:
            handler, arg, need = waiters.popleft()
            self.in_flight += need
            if self.in_flight > self.peak:
                self.peak = self.in_flight
            admitted.append((handler, arg))
        if admitted and not self._calling:
            self._calling = True
            try:
                while admitted:
                    handler, arg = admitted.popleft()
                    handler(arg)
            finally:
                self._calling = False

    def _task_completed(self, event: Event) -> None:
        """``task.completed`` callback of a task holding one slot."""
        self.release()


class _WindowFeed:
    """A windowed ``submit_tasks`` call in progress: what is left to admit."""

    __slots__ = ("tasks", "window", "chunk_size", "next", "chunk")

    def __init__(self, tasks: List[Task], window: SubmissionWindow,
                 chunk_size: int) -> None:
        self.tasks = tasks
        self.window = window
        self.chunk_size = min(chunk_size, window.capacity)
        self.next = 0                        # index of the next chunk
        #: the chunk queued at the window, whose slots release() reserves
        self.chunk: Optional[List[Task]] = None


class TaskManager:
    """Manages compute tasks within one session."""

    def __init__(self, session: "Session") -> None:
        self.session = session
        self.uid = session.ids.generate("tmgr")
        self.data_manager = DataManager(session)
        #: the session's placement policy (``DataConfig.placement``)
        self.placement = session.data.config.placement
        #: how often data affinity (vs round-robin fallback) decided binding
        self.affinity_placements = 0
        self._pilots: List[Pilot] = []
        self._tasks: Dict[str, Task] = {}
        self._callbacks: List[Callable[[Task, str], None]] = []
        self._rr = itertools.count()
        #: live (non-final) tasks bound per pilot uid, kept O(1) so
        #: placement never rescans the task table
        self._live_bound: Dict[str, int] = {}
        #: rotated event; succeeds whenever pilots are attached, so retry
        #: plans waiting for capacity wake up on resubmissions
        self.pilots_changed: Event = session.engine.event()
        self._resilience = session.resilience
        if self._resilience is not None:
            self._resilience.register_task_manager(self)
        self._observability = session.observability

    # -- pilot binding -----------------------------------------------------------
    def add_pilots(self, pilots: Union[Pilot, Iterable[Pilot]]) -> None:
        """Attach pilots; tasks are distributed round-robin among them."""
        if isinstance(pilots, Pilot):
            pilots = [pilots]
        added = False
        for pilot in pilots:
            if pilot in self._pilots:
                continue
            self._pilots.append(pilot)
            if not pilot.finished.processed:  # else no task of ours ran
                pilot.finished.callbacks.append(partial(self._pilot_ended,
                                                        pilot))
            added = True
        if added:
            fired, self.pilots_changed = (self.pilots_changed,
                                          self.session.engine.event())
            fired.succeed(None)

    def _pilot_ended(self, pilot: Pilot, finished: Event) -> None:
        """A callback on ``pilot.finished``: its still-running tasks are
        cancelled, or failed, as :func:`pilot_end_cause` maps the end."""
        state = finished.value
        victims = [t for t in self._tasks.values()
                   if t.pilot_uid == pilot.uid and not t.is_final]
        if not victims:
            return
        cause = pilot_end_cause(pilot.uid, state, self._resilience is not None)
        log.warning("%s went %s; %d tasks end: %s", pilot.uid, state,
                    len(victims), cause)
        if isinstance(cause, BaseException):  # PilotLost
            for task in victims:
                self.fail_task(task, cause)
        else:
            self.cancel_tasks(victims)

    def _select_pilot(self, task: Task) -> Pilot:
        if task.description.pilot:
            for pilot in self._pilots:
                if pilot.uid == task.description.pilot:
                    return pilot
            raise ValueError(
                f"{task.uid}: pilot {task.description.pilot!r} not attached")
        if not self._pilots:
            raise RuntimeError(
                "no pilots attached to this TaskManager; call add_pilots()")
        candidates = [p for p in self._pilots
                      if p.state not in PilotState.FINAL]
        if not candidates:
            raise RuntimeError("all attached pilots are final")
        if self._resilience is not None:
            # Late re-binding prefers pilots with a clean record; if every
            # candidate is blacklisted, use them anyway (degrade, not fail).
            blacklist = self._resilience.recovery.blacklisted_pilots
            healthy = [p for p in candidates if p.uid not in blacklist]
            if healthy:
                candidates = healthy
        if self.placement == "data_affinity":
            self._tag_node_affinity(task)
            if len(candidates) > 1:
                choice = self._affinity_choice(task, candidates)
                if choice is not None:
                    self.affinity_placements += 1
                    self.session.profiler.record(
                        self.session.engine.now, task.uid,
                        "placement_affinity", self.uid)
                    return choice
        return candidates[next(self._rr) % len(candidates)]

    def _tag_node_affinity(self, task: Task) -> None:
        """Propagate data affinity down to node placement.

        Marks the *task* (never the caller-owned description) with its
        dominant input object so the pilot's AgentScheduler softly prefers
        the node last used for that object.  Recomputed per submission, so
        reused descriptions never carry a stale hint; explicit user tags
        take precedence in the scheduler.
        """
        staging = [s for s in task.description._input_staging
                   if s.action == "transfer" and s.size_bytes > 0]
        if not staging:
            return
        dominant = max(staging, key=lambda s: s.size_bytes)
        task.affinity_key = object_id(dominant.source or dominant.target,
                                      dominant.size_bytes)

    def _live_load(self, pilot: Pilot) -> int:
        """Non-final tasks currently bound to *pilot* (placement pressure)."""
        return self._live_bound.get(pilot.uid, 0)

    def _affinity_choice(self, task: Task,
                         candidates: List[Pilot]) -> Optional[Pilot]:
        """The pilot whose platform holds the most input bytes, or None.

        Returns None (round-robin fallback) when the task stages nothing,
        no candidate platform holds any of its inputs, or every best-scoring
        pilot is overloaded relative to the least-loaded candidate by more
        than :data:`AFFINITY_LOAD_SLACK`.
        """
        staging = task.description._input_staging
        if not staging:
            return None
        data = self.session.data
        pairs = data.input_objects(staging)  # digest once, score per pilot
        scores = {p.uid: data.resident_bytes(p.platform.name, pairs)
                  for p in candidates}
        best = max(scores.values())
        if best <= 0:
            return None
        top = [p for p in candidates if scores[p.uid] >= best]
        min_load = min(self._live_load(p) for p in candidates)
        top = [p for p in top
               if self._live_load(p) <= min_load + AFFINITY_LOAD_SLACK]
        if not top:
            return None
        if len(top) == 1:
            return top[0]
        return top[next(self._rr) % len(top)]

    # -- submission ----------------------------------------------------------------
    def submit_tasks(
        self, descriptions: Union[TaskDescription, Iterable[TaskDescription]],
        chunk_size: Optional[int] = None,
        window: Union[None, int, SubmissionWindow] = None,
        on_complete: Optional[Callable[[Task], None]] = None,
    ) -> List[Task]:
        """Submit task descriptions; returns live task handles.

        This is the **bulk path**: uids for the whole batch are generated
        under one lock acquisition and task handles are materialised
        up-front, so campaign code holds the full list immediately, and
        the whole batch is started by one kernel entry.

        *chunk_size* bounds control-plane pressure for very large batches:
        instead of starting every task at submit time (100k simultaneous
        starts means 100k queue entries on the agent before the first task
        finishes), tasks are started *chunk_size* at a time -- without
        *window*, on a window one chunk wide: a chunk starts when the last
        task of the previous one completes (strict serialization).

        *window* turns chunking into a sliding window: at most *window*
        tasks are in the pipeline, and the next task (or chunk of
        *chunk_size* tasks) starts as soon as slots free up, overlapping
        chunk N+1's submission with chunk N's completion.  Pass a shared
        :class:`SubmissionWindow` to bound in-flight tasks *across*
        multiple submit calls -- the campaign engine's backpressure.

        To start tasks after an upstream event, submit them from that
        event's callback, or make them a campaign node with ``deps``.

        *on_complete* is invoked as ``on_complete(task)`` when each task's
        completion event fires, whatever the final state.

        Tasks cancelled before they are started are skipped, not
        resurrected.  ``None`` everywhere keeps the fully concurrent
        semantics.
        """
        self.session.check_open()
        if isinstance(descriptions, TaskDescription):
            descriptions = [descriptions]
        descriptions = list(descriptions)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if isinstance(window, int):
            window = SubmissionWindow(self.session.engine, window)
        uids = self.session.ids.generate_batch("task", len(descriptions))
        session = self.session
        callbacks = self._callbacks
        obs = self._observability
        tasks: List[Task] = []
        table = self._tasks
        completed = None
        if on_complete is not None:  # one observer serves the whole batch
            def completed(event: Completion) -> None:
                on_complete(event.task)
        for desc, uid in zip(descriptions, uids):
            task = Task(session, desc, uid)
            task.owner = self
            for callback in callbacks:
                task.on_state(callback)
            if completed is not None:
                task.completed.callbacks.append(completed)
            if obs is not None:
                obs.task_submitted(task)
            table[uid] = task
            tasks.append(task)
        if not tasks:
            return tasks
        if window is None and chunk_size is not None \
                and chunk_size < len(tasks):
            window = SubmissionWindow(session.engine, chunk_size)
        if window is not None:
            self._advance_feed(_WindowFeed(tasks[:], window, chunk_size or 1))
        else:
            self._start(tasks[:])  # the caller owns the list it gets back
        return tasks

    def _advance_feed(self, feed: _WindowFeed) -> None:
        """Start the chunks of *feed* that the window admits now.

        Each task holds one window slot from its start to completion;
        slots free as tasks finish, so submission overlaps completion
        instead of barriering on whole chunks.  With ``chunk_size > 1``
        tasks start in bursts (the slots for a burst are taken
        atomically), preserving the start-batching of the chunked path.
        Runs inside ``submit_tasks`` until a chunk has to queue at the
        window, then again -- called by
        :meth:`SubmissionWindow.release` with that chunk's slots reserved
        -- inside the completion entry that made room: one start landing
        per admitted chunk and nothing else.
        """
        window = feed.window
        chunk, feed.chunk = feed.chunk, None  # reserved by release(), if any
        while True:
            if chunk:  # admitted: its slots are held
                started = [t for t in chunk
                           if not (t.completed.triggered or t.is_final)]
                for task in started:
                    task.completed.callbacks.append(window._task_completed)
                if started:
                    self._start(started)
                if len(started) < len(chunk):
                    # cancelled while the chunk waited for its slots
                    window.release(len(chunk) - len(started))
            lo = feed.next
            if lo >= len(feed.tasks):
                return
            feed.next = lo + feed.chunk_size
            # minus those cancelled while queued behind the window
            chunk = [t for t in feed.tasks[lo:feed.next]
                     if not (t.completed.triggered or t.is_final)]
            if chunk and not window.admit(len(chunk), self._advance_feed,
                                          feed):
                feed.chunk = chunk  # release() comes back with it
                return

    # -- the task path: TaskManager-owned steps -------------------------------------
    def _start(self, tasks: List[Task]) -> None:
        """One URGENT start landing for all of *tasks*."""
        for task in tasks:
            task.phase = STARTING
        self.session.engine.call_later(0.0, self._start_batch, tasks,
                                       priority=URGENT)

    def _start_batch(self, tasks: List[Task]) -> None:
        for i, task in enumerate(tasks):
            if task.phase == STARTING:
                try:
                    self._begin(task)
                except BaseException:  # goes to run()'s caller: the rest of
                    self._start([t for t in tasks[i + 1:]  # the batch that
                                 if t.phase == STARTING])  # waits still starts
                    raise

    def _begin(self, task: Task, retry: bool = False) -> None:
        """One execution attempt, as far as it gets without waiting.

        On failure the task advances to FAILED (observers see it) *without*
        completing; the recovery engine may then grant a retry -- its plan
        gates on failure detection (heartbeat leases), backs off and waits
        for pilot capacity -- after which the task moves through
        RESCHEDULING back here.  Exhausted or ungranted failures seal the
        task, delivering the completion event.  Without resilience
        configured every failure is terminal.
        """
        try:
            task.phase = BINDING
            if retry:
                task.advance(TaskState.RESCHEDULING, self.uid)
                task.prepare_restart()
                log.info("%s rescheduled (attempt %d)", task.uid,
                         task.attempts)
            task.advance(TaskState.TMGR_SCHEDULING, self.uid)
            pilot = self._select_pilot(task)
            task.pilot_uid = pilot.uid
            task.pilot = pilot
            self._live_bound[pilot.uid] = \
                self._live_bound.get(pilot.uid, 0) + 1
            active = pilot.became_active
            if pilot.is_active:
                self._bound(task)
            elif active.processed:  # not active, and never will be again
                self._resumed(task, None if active.ok else active.value)
            else:
                task.wait = Hook(active, self._resumed, task)
        except Exception as exc:  # captured on the task, not raised
            self._unwind(task, exc)

    def _bound(self, task: Task) -> None:
        """The pilot is active: stage in, or go straight to its agent."""
        staging = task.description._input_staging  # as stored: () unset
        if staging:
            task.phase = STAGE_IN
            task.advance(TaskState.TMGR_STAGING_INPUT, self.uid)
            self._stage(task, staging, "stage_in")
        else:
            task.pilot.agent.submit(task)

    def _executed(self, task: Task) -> None:
        """Back from the agent, slots released: stage out, then DONE."""
        staging = task.description._output_staging
        if staging:
            # stage-out overlaps with successor tasks' scheduling and
            # execution instead of holding compute hostage to the fabric
            task.advance(TaskState.TMGR_STAGING_OUTPUT, self.uid)
            self._stage(task, staging, "stage_out")
        else:
            self._finish(task, TaskState.DONE)

    def _stage(self, task: Task, directives, phase: str) -> None:
        task.wait = staging = Staging(self._resumed, task)
        self.data_manager.stage(directives, task.pilot.platform.name,
                                task.uid, phase, staging)

    def _resumed(self, task: Task, error: Optional[BaseException]) -> None:
        """The pilot became active, or a staging call landed: on to the
        next step -- or *error* (the pilot ended first, a directive
        failed) ends the attempt."""
        task.wait = None
        phase = task.phase
        try:
            if error is not None:
                self._attempt_over(task, error)
            elif phase == BINDING:
                self._bound(task)
            elif phase == STAGE_IN:
                task.pilot.agent.submit(task)
            else:
                self._finish(task, TaskState.DONE)
        except Exception as exc:
            self._unwind(task, exc)

    def _finish(self, task: Task, state: str) -> None:
        task.phase = None
        try:
            task.finish(state, self.uid)
        finally:
            self._unbind(task)

    def _unbind(self, task: Task) -> None:
        """The attempt no longer weighs on its pilot's live-bound load."""
        if task.pilot is not None:
            self._live_bound[task.pilot.uid] -= 1
            task.pilot = None

    def _recovered(self, task: Task, granted: bool) -> None:
        """The retry plan landed: a retry, or FAILED stands."""
        task.wait = None
        if granted:
            self._begin(task, retry=True)
        else:
            task.phase = None
            task.seal()

    # -- the unwind table ---------------------------------------------------------------
    def _landed(self, flight: tuple) -> None:
        """URGENT landing of a cancellation or fault, resolved against the
        task's phase *now*: a no-op once the attempt is over."""
        task, cause = flight
        if task.phase is not None:
            self._unwind(task, cause)

    def _unwind(self, task: Task, cause) -> None:
        """Take *task* out of whatever it waits for and end the attempt.

        *cause* is the exception that fails it -- a fault from
        :meth:`fail_task`, or one that escaped a handler of any owner --
        or, for a cancellation, a plain note.  A wait of ours is cancelled:
        its hooks and timers are withdrawn, its transfers aborted; a retry
        plan's withdrawal leaves the task FAILED.  What the agent side
        holds is undone by :meth:`Agent.evict`.
        """
        phase = task.phase
        if phase is None:  # no attempt to charge it to
            raise cause
        wait, task.wait = task.wait, None
        if phase not in _OURS:
            task.pilot.agent.evict(task, wait)
        elif wait is not None:
            wait.cancel()
            if phase == RECOVERING:  # no retry after all: FAILED stands
                return self._recovered(task, False)
        self._attempt_over(task, cause)

    def _attempt_over(self, task: Task, cause) -> None:
        """The attempt ended short of DONE: CANCELED, or FAILED and -- if
        the recovery engine grants one -- a retry plan to wait on."""
        if not isinstance(cause, BaseException):
            self._finish(task, TaskState.CANCELED)
            return
        # An infrastructure fault (node crash, pilot loss) or an error of
        # the pipeline itself: a failure, not a user cancellation.
        phase, task.phase = task.phase, None
        reason = self._attempt_failed(
            task, cause, phase if phase in _OURS else "agent")
        self._unbind(task)
        try:
            task.advance(TaskState.FAILED, self.uid)
        except BaseException:  # an observer raised: FAILED stands, unretried
            task.seal()
            raise
        plan = None
        if self._resilience is not None:
            plan = self._resilience.recovery.task_failed(self, task, reason)
        if plan is None:
            task.seal()
        else:
            task.phase = RECOVERING
            task.wait = plan
            plan.start()

    def _attempt_failed(self, task: Task, exc: BaseException, phase: str):
        """Record a structured failure reason for the live attempt."""
        if task.exception is None:
            task.exception = exc
        if task.failure is None or task.failure.attempt != task.attempts:
            task.record_failure(classify_failure(
                exc, at=self.session.engine.now, attempt=task.attempts,
                phase=phase, component=self.uid,
                wasted_core_s=(task.runtime_s or 0.0) * task.n_cores))
        log.info("%s failed (attempt %d, %s): %s", task.uid, task.attempts,
                 task.failure.origin, exc)
        return task.failure

    # -- waiting / control ----------------------------------------------------------
    def wait_tasks(self, tasks: Optional[Iterable[Task]] = None) -> Event:
        """Event succeeding once all given (default: all) tasks are final."""
        tasks = list(tasks) if tasks is not None else list(self._tasks.values())
        return self.session.engine.all_of([t.completed for t in tasks])

    def cancel_tasks(self, tasks: Union[Task, Iterable[Task]]) -> None:
        """Cancel tasks, wherever they are in the pipeline.

        A task in the pipeline is cancelled by an URGENT landing resolved
        against its phase when it lands (see :meth:`_unwind`).  A task
        sitting in FAILED awaiting a recovery decision is *not* final yet
        (its completion has not fired): cancelling it interrupts the
        pending retry, sealing the task as FAILED.
        """
        if isinstance(tasks, Task):
            tasks = [tasks]
        for task in tasks:
            if task.completed.triggered:
                continue
            if task.phase is not None:
                self.session.engine.call_later(
                    0.0, self._landed, (task, "cancelled by user"),
                    priority=URGENT)
            elif task.is_final:  # failed, and nothing left to decide
                task.seal()
            else:  # queued behind an unstarted chunk: cancel in place
                task.finish(TaskState.CANCELED, self.uid)

    def fail_task(self, task: Task, exc: BaseException) -> None:
        """Deliver an infrastructure fault to a task.

        Used by the fault injector (node crashes) and the pilot watcher
        (pilot losses): the attempt ends with *exc* as its failure and the
        recovery engine is consulted, instead of treating the interruption
        as a user cancellation.
        """
        if task.completed.triggered:
            return
        if task.phase is not None:
            self.session.engine.call_later(0.0, self._landed, (task, exc),
                                           priority=URGENT)
        elif not task.is_final:
            task.record_failure(classify_failure(
                exc, at=self.session.engine.now, attempt=task.attempts,
                component=self.uid))
            task.finish(TaskState.FAILED, self.uid)

    def register_callback(self,
                          callback: Callable[[Task, str], None]) -> None:
        """Invoke ``callback(task, state)`` on every task state change."""
        self._callbacks.append(callback)
        for task in self._tasks.values():
            task.on_state(callback)

    # -- introspection -----------------------------------------------------------------
    def get(self, uid: str) -> Task:
        return self._tasks[uid]

    @property
    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    @property
    def pilots(self) -> List[Pilot]:
        return list(self._pilots)

    def counts_by_state(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for task in self._tasks.values():
            counts[task.state] = counts.get(task.state, 0) + 1
        return counts
