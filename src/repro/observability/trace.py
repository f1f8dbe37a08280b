"""Causal task tracing: spans with trace/span/parent ids.

Post-mortem analytics already exist (the flat :class:`Profiler` row table),
but explaining *why* a task was slow needs causality: which campaign node
submitted it, how long it waited in which queue, which transfers ran on its
behalf, how many recovery attempts it burned.  The :class:`Tracer` keeps
that as a forest of :class:`Span` objects:

* every task submitted through an instrumented TaskManager gets a **root
  span** (category ``task``), opened at submission and closed when its
  completion event fires -- so deferred drivers (windows, chunks, ``after=``
  dependencies) show up as real queue time;
* **phase spans** (``submit``, ``schedule``, ``stage_in``, ``agent_queue``,
  ``execute``, ``stage_out``, ``recovery``, ...) follow the task's state
  transitions: entering a state closes the previous phase and opens the
  next, stamped with the attempt number;
* campaign-node spans and transfer spans are parented onto the graph node
  and task that caused them, so one trace id spans driver code, control
  plane and data plane.

**Read off the profile, derived on query.**  A task transition is recorded
once, by the profiler (:mod:`repro.pilot.profiler`); the tracer keeps no
copy of it.  While a run is live the tracer records two things per task in
its own append-only log: the submission (uid, attempt, the ids of the
explicit or ambient parent) and the completion event, each stamped with the
profile's record count at that moment.  No task ``Span`` exists until
something asks: ``Tracer.spans`` -- and with it ``len``, ``find``,
``spans_of_trace``, ``task_root``, ``start_span``, both exporters,
``CampaignAttribution.from_spans`` and the dashboard summary -- first
*replays*: its own records merged, in stamp order, with the profile's
``state:*`` records of the tasks it tracks, which the profiler hands it
once each, in every profile level, without folding them for it (see
:attr:`~repro.pilot.profiler.Profiler.reader`).  Span and trace ids are
handed out in that merged order, and ``start_span`` replays before it takes
its own, so ids, order, parents, stamps and attrs are those an eager tracer
builds (``tests/observability/reference_tracer.py`` is that tracer;
``tests/test_properties.py`` holds the two equal).  What this buys and
costs: the run pays for neither span construction nor a second copy of the
transitions, the **first query does** (about 1.2 us per span; later
queries replay only what was recorded since).

**Mid-run queries** are first-class.  A span still open when queried has
``end is None``; the *same object* is closed by the next query after its
closing record -- a ``Span`` handed out by one query is brought up to date
by the next, not behind the caller's back in between.

Export formats: ``to_chrome_trace(path)`` writes Chrome trace-event JSON
(openable in Perfetto / ``chrome://tracing``; each trace renders as one
named track), ``to_jsonl(path)`` writes one span per line for offline
tooling.  :func:`spans_from_profiler` rebuilds lifecycle spans from a saved
profile (see :meth:`~repro.pilot.profiler.Profiler.to_jsonl`), so traces
can be derived offline from runs that only kept the row table.
"""

from __future__ import annotations

import json
from itertools import chain, compress, count
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..pilot.states import TASK_MODEL, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session
    from ..pilot.task import Task

__all__ = ["Span", "Tracer", "spans_from_profiler"]

#: task state -> phase-span name opened on entering that state (states
#: absent here -- final states -- close the current phase without opening)
PHASE_OF_STATE = {
    TaskState.TMGR_SCHEDULING: "schedule",
    TaskState.TMGR_STAGING_INPUT: "stage_in",
    TaskState.AGENT_SCHEDULING: "agent_queue",
    TaskState.AGENT_EXECUTING: "execute",
    TaskState.TMGR_STAGING_OUTPUT: "stage_out",
    TaskState.FAILED: "recovery",
    TaskState.RESCHEDULING: "reschedule",
}

#: the same, keyed by the profile event of each task state (None: the state
#: closes the current phase and opens none)
_PHASE_OF_EVENT = {event: PHASE_OF_STATE.get(state)
                   for state, event in TASK_MODEL.events.items()}


class Span:
    """One timed, causally-linked operation.

    ``end`` stays None while the span is open.  Ids are small integers
    unique within one tracer (deterministic: no wall clock, no entropy).
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "category",
                 "start", "end", "attrs")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 name: str, category: str, start: float,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Optional[Dict[str, Any]] = attrs

    @property
    def open(self) -> bool:
        return self.end is None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def set_attr(self, key: str, value: Any) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs or {},
        }

    def __repr__(self) -> str:
        state = "open" if self.open else f"{self.duration:.3f}s"
        return (f"<Span {self.name} trace={self.trace_id} "
                f"id={self.span_id} {state}>")


#: record kinds of the tracer's own log (first field of a record)
_SUBMIT, _DONE = 0, 1


class Tracer:
    """Span store, fed by explicit spans, its task log and the profile.

    The two task hooks append one record each to ``_log`` and build
    nothing; :attr:`spans` replays what has not been read yet.  The log is
    one flat list (plain scalars: nothing for the garbage collector to
    track), a record is a run of fields led by its kind and the profile's
    record count when it was made (its *stamp*):

    * ``_SUBMIT, stamp, t, uid, attempt, parent trace id, parent span id``
      -- both ids None without a parent;
    * ``_DONE, stamp, t, uid`` -- the completion event fired.

    A record stamped *s* replays after profile record ``s - 1`` and before
    profile record *s*.
    """

    def __init__(self, session: "Session") -> None:
        self.session = session
        self._profiler = profiler = session.profiler
        if profiler.reader is not None:
            raise RuntimeError("the session's profile already has a reader")
        profiler.reader = self._read
        self._spans: List[Span] = []
        self._log: List[Any] = []
        self._last_trace_id = 0
        self._last_span_id = 0
        # replay state: as far as the log has been read
        #: task uid -> its live root span (dropped on completion)
        self._task_roots: Dict[str, Span] = {}
        #: task uid -> currently open phase span
        self._task_phase: Dict[str, Span] = {}
        #: ambient parent for tasks submitted while set (campaign nodes
        #: wrap their synchronous submit calls with this)
        self.context_parent: Optional[Span] = None

    # -- generic span API ----------------------------------------------------
    def start_span(self, name: str, category: str = "",
                   parent: Optional[Span] = None,
                   trace_id: Optional[int] = None,
                   attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span; inherits the parent's trace id when given."""
        self._catch_up()  # its ids come after those of every record so far
        if parent is not None:
            trace_id = parent.trace_id
        elif trace_id is None:
            trace_id = self._last_trace_id = self._last_trace_id + 1
        self._last_span_id = span_id = self._last_span_id + 1
        span = Span(trace_id, span_id,
                    parent.span_id if parent is not None else None,
                    name, category, self.session.engine.now, attrs)
        self._spans.append(span)
        return span

    def end_span(self, span: Span) -> Span:
        """Close a span at the current sim time (idempotent)."""
        if span.end is None:
            span.end = self.session.engine.now
        return span

    # -- task lifecycle hooks: one log record each ---------------------------
    def task_submitted(self, task: "Task") -> None:
        """Record the task's root span and its initial ``submit`` phase.

        A campaign node that submitted the task marks itself as
        ``task.trace_parent``; the root then joins the node's trace so one
        trace id covers graph node, task phases and transfers.  The caller
        owes a :meth:`task_completed` when the completion event fires.
        """
        parent = task.trace_parent or self.context_parent
        self._log += (_SUBMIT, self._profiler.recorded,
                      self.session.engine.now, task.uid, task.attempts,
                      None if parent is None else parent.trace_id,
                      None if parent is None else parent.span_id)

    def task_completed(self, uid: str) -> None:
        """Completion event fired: any open phase and the root close."""
        self._log += (_DONE, self._profiler.recorded,
                      self.session.engine.now, uid)

    # -- replay --------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """Every span so far, in id order; reads the logs up to now.

        The replay resumes where the last query stopped and consumes the
        records it reads.  A span open now has ``end is None``; the same
        object is closed by the query that follows its closing record.
        """
        self._catch_up()
        return self._spans

    def _catch_up(self) -> None:
        """Read what the profile and the task log hold up to now."""
        self._profiler.share()  # hands what we have not seen to _read
        if self._log:
            self._read([], 0)

    def _read(self, log: List[Any], start: int) -> None:
        """Replay the task log merged with the profile *log* from field
        *start* on (the stretch this tracer has not seen).

        A tracked task's ``state:*`` record closes its open phase and opens
        the next, as the eager tracer's transition hook did; its attempt is
        the closed phase's, plus one after ``reschedule`` (the restart
        bumps the counter between RESCHEDULING and the next state).  Every
        record of the task log is stamped at or before the end of the
        stretch, so the whole log is read.
        """
        own, self._log = self._log, []
        base = self._profiler.recorded - (len(log) - start) // 4  # log[start]
        events = log[start + 2::4]
        # the task transitions among them by number, then a sentinel that
        # reads the task records stamped after the last of them
        hits = chain(compress(range(len(events)),
                              map(_PHASE_OF_EVENT.__contains__, events)),
                     (None,))
        roots, phases = self._task_roots, self._task_phase
        append = self._spans.append
        trace_id, span_id = self._last_trace_id, self._last_span_id
        at, end = 0, len(own)
        for k in hits:
            while at < end and (k is None or own[at + 1] <= base + k):
                if own[at] == _SUBMIT:
                    t, uid, attempt, parent_trace, parent_id = \
                        own[at + 2:at + 7]
                    at += 7
                    if parent_trace is None:
                        trace_id = parent_trace = trace_id + 1
                    span_id += 2
                    root = roots[uid] = Span(parent_trace, span_id - 1,
                                             parent_id, uid, "task", t,
                                             {"uid": uid})
                    append(root)
                    phase = phases[uid] = Span(parent_trace, span_id,
                                               span_id - 1, "submit", "task",
                                               t, {"attempt": attempt})
                    append(phase)
                else:
                    t, uid = own[at + 2], own[at + 3]
                    at += 4
                    phase = phases.pop(uid, None)
                    if phase is not None and phase.end is None:
                        phase.end = t
                    root = roots.pop(uid, None)
                    if root is not None and root.end is None:
                        root.end = t
            if k is None:
                break
            at_k = start + 4 * k
            uid = log[at_k + 1]
            # a tracked task has an open phase from its submission until a
            # final state that opens none (DONE, CANCELED): the rest of the
            # profile's transitions (pilots, untracked tasks) are not ours
            phase = phases.pop(uid, None)
            if phase is None:
                continue
            t = log[at_k]
            if phase.end is None:
                phase.end = t
            name = _PHASE_OF_EVENT[events[k]]
            if name is not None:
                root = roots[uid]
                attempt = phase.attrs["attempt"]
                if phase.name == "reschedule":
                    attempt += 1
                span_id += 1
                phase = phases[uid] = Span(root.trace_id, span_id,
                                           root.span_id, name, "task", t,
                                           {"attempt": attempt})
                append(phase)
        self._last_trace_id, self._last_span_id = trace_id, span_id

    def task_root(self, uid: str) -> Optional[Span]:
        """The live root span of a task (None once completed/untracked)."""
        self._catch_up()
        return self._task_roots.get(uid)

    # -- queries -------------------------------------------------------------
    def spans_of_trace(self, trace_id: int) -> List[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def find(self, name: Optional[str] = None,
             category: Optional[str] = None) -> List[Span]:
        return [s for s in self.spans
                if (name is None or s.name == name)
                and (category is None or s.category == category)]

    def __len__(self) -> int:
        return len(self.spans)

    # -- export --------------------------------------------------------------
    def chrome_trace_events(self) -> List[Dict[str, Any]]:
        """Chrome trace-event list: one complete ("X") event per span.

        Each trace renders as one named track (pid 1, tid = per-trace
        index, thread_name metadata from the trace's root span), so a task
        and everything it caused line up on one Perfetto row.
        """
        events: List[Dict[str, Any]] = []
        tids: Dict[int, int] = {}
        for span in self.spans:
            tid = tids.get(span.trace_id)
            if tid is None:
                tid = tids[span.trace_id] = len(tids) + 1
                events.append({
                    "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                    "args": {"name": span.name},
                })
            end = span.end if span.end is not None else span.start
            events.append({
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "name": span.name,
                "cat": span.category or "span",
                "ts": span.start * 1e6,       # trace events use microseconds
                "dur": (end - span.start) * 1e6,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    **(span.attrs or {}),
                },
            })
        return events

    def to_chrome_trace(self, path: str) -> int:
        """Write Chrome trace-event JSON; returns the span count."""
        payload = {"traceEvents": self.chrome_trace_events(),
                   "displayTimeUnit": "ms"}
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return len(self.spans)

    def to_jsonl(self, path: str) -> int:
        """One span per line; returns the span count."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
        return len(self.spans)


def spans_from_profiler(profiler, uids: Optional[List[str]] = None,
                        ) -> List[Span]:
    """Rebuild task lifecycle spans from recorded ``state:*`` events.

    Offline companion to the live tracer: works from any profile that kept
    first timestamps (the ``durations`` tier suffices, as does a profile
    re-loaded via :meth:`~repro.pilot.profiler.Profiler.from_jsonl`).  Each
    task gets a root span plus one phase span per state it entered, ordered
    and closed by the next state's first timestamp.  Recovery loops
    revisit states, whose *first* timestamps only are retained -- live
    tracing keeps per-attempt spans; this reconstruction is first-attempt
    granularity.
    """
    if uids is None:
        uids = profiler.uids_with_event(f"state:{TaskState.TMGR_SCHEDULING}")
    spans: List[Span] = []
    trace_ids = count(1)
    span_ids = count(1)
    for uid in uids:
        stamps = []
        for state in (TaskState.ORDER + [TaskState.FAILED,
                                         TaskState.RESCHEDULING,
                                         TaskState.CANCELED]):
            t = profiler.timestamp(uid, f"state:{state}")
            if t is not None:
                stamps.append((t, state))
        if not stamps:
            continue
        stamps.sort()
        trace_id = next(trace_ids)
        end = max(t for t, _ in stamps)
        root = Span(trace_id, next(span_ids), None, uid, "task", stamps[0][0])
        root.end = end
        spans.append(root)
        for i, (t, state) in enumerate(stamps):
            name = PHASE_OF_STATE.get(state)
            if name is None:
                continue
            span = Span(trace_id, next(span_ids), root.span_id, name,
                        "task", t)
            span.end = stamps[i + 1][0] if i + 1 < len(stamps) else end
            spans.append(span)
    return spans
