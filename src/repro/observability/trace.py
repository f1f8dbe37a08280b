"""Causal task tracing: spans with trace/span/parent ids.

Post-mortem analytics already exist (the flat :class:`Profiler` row table),
but explaining *why* a task was slow needs causality: which campaign node
submitted it, how long it waited in which queue, which transfers ran on its
behalf, how many recovery attempts it burned.  The :class:`Tracer` keeps
that as a forest of :class:`Span` objects:

* every task submitted through an instrumented TaskManager gets a **root
  span** (category ``task``), opened at submission and closed when its
  completion event fires -- so deferred starts (windows, chunks) show up as
  real queue time;
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
once each, in every profile level, before it folds or drops them (see
:attr:`~repro.pilot.profiler.Profiler.reader`).  Span and trace ids are
handed out in that merged order, and ``start_span`` replays before it takes
its own, so ids, order, parents, stamps and attrs are those an eager tracer
builds (``tests/observability/reference_tracer.py`` is that tracer;
``tests/test_properties.py`` holds the two equal).  What this buys and
costs: the run pays for neither span construction nor a second copy of the
transitions, the **first query does** (about 1.2 us per span; later
queries replay only what was recorded since).  This replay is the one span
constructor: every analysis of a run's spans (the exporters, the
attribution engine, the dashboard) reads them from here.

**A task span's attribute stays raw until read.**  A task root carries
``{"uid": uid}`` and a phase ``{"attempt": n}``, one attribute each.  The
replay stores that one value raw in the ``attrs`` slot; the first read of
``attrs`` builds the dict, and every later read returns that same dict, so
``set_attr``, item writes, ``as_dict`` and the exporters see what they
always saw.  A task span nobody asks for its attributes costs about 160
traced bytes instead of 345 (CPython 3.11).

**Mid-run queries** are first-class.  A span still open when queried has
``end is None``; the *same object* is closed by the next query after its
closing record -- a ``Span`` handed out by one query is brought up to date
by the next, not behind the caller's back in between.

Export formats: ``to_chrome_trace(path)`` writes Chrome trace-event JSON
(openable in Perfetto / ``chrome://tracing``; each trace renders as one
named track), ``to_jsonl(path)`` writes one span per line for offline
tooling.
"""

from __future__ import annotations

import json
from itertools import chain, compress, islice
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..pilot.states import TASK_MODEL, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session
    from ..pilot.task import Task

__all__ = ["Span", "Tracer"]

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

#: a final state's phase: it closes the current phase and opens none (true,
#: so that every task transition's code tests true)
_NO_PHASE = "-"

#: the same, keyed by the profile event of each task state
_PHASE_OF_EVENT = {event: PHASE_OF_STATE.get(state, _NO_PHASE)
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
        state = ("open" if self.end is None
                 else f"{self.end - self.start:.3f}s")
        return (f"<Span {self.name} trace={self.trace_id} "
                f"id={self.span_id} {state}>")


#: the ``attrs`` slot's own accessors: a task span keeps its one attribute
#: raw in the slot, behind an ``attrs`` property
_get_attrs, _set_attrs = Span.attrs.__get__, Span.attrs.__set__


class _TaskPhase(Span):
    """A task phase span: its one attribute (the attempt) stays raw in the
    ``attrs`` slot until ``attrs`` is first read, which builds the dict
    once; from then on ``attrs`` is that dict."""

    __slots__ = ()
    _key = "attempt"

    @property
    def attrs(self) -> Dict[str, Any]:
        attrs = _get_attrs(self)
        if type(attrs) is not dict:
            attrs = {self._key: attrs}
            _set_attrs(self, attrs)
        return attrs

    attrs = attrs.setter(_set_attrs)


class _TaskRoot(_TaskPhase):
    """A task root span: its one attribute is the task uid."""

    __slots__ = ()
    _key = "uid"


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
        #: the profile's code table as last read, and the phase of each code
        self._pairs: Any = None
        self._phases: List[str] = []
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
                   attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Open a span; inherits the parent's trace id when given."""
        self._catch_up()  # its ids come after those of every record so far
        if parent is not None:
            trace_id = parent.trace_id
        else:
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
            self._read((), (), (), (), 0)

    def _read(self, times, uids, codes, pairs, start: int) -> None:
        """Replay the task log merged with the profile's columns from
        record *start* on (the stretch this tracer has not seen).

        A tracked task's ``state:*`` record closes its open phase and opens
        the next, as the eager tracer's transition hook did; its attempt is
        the closed phase's, plus one after ``reschedule`` (the restart
        bumps the counter between RESCHEDULING and the next state).  A
        record is a task transition when its code names one: each code of
        the profile's table is looked up once.  Every record of the task
        log is stamped at or before the end of the stretch, so the whole
        log is read.
        """
        own, self._log = self._log, []
        base = self._profiler.recorded - len(times)  # record 0's number
        phase_of = self._phase_of_code(pairs)
        # the task transitions among them by number, then a sentinel that
        # reads the task records stamped after the last of them
        hits = chain(compress(range(start, len(times)),
                              map(phase_of.__getitem__, codes[start:])),
                     (None,))
        roots, phases = self._task_roots, self._task_phase
        append = self._spans.append
        trace_id, span_id = self._last_trace_id, self._last_span_id
        at, end = 0, len(own)
        t0 = None
        for k in hits:
            while at < end and (k is None or own[at + 1] <= base + k):
                if own[at] == _SUBMIT:
                    t, uid, attempt, parent_trace, parent_id = \
                        own[at + 2:at + 7]
                    at += 7
                    if parent_trace is None:
                        trace_id = parent_trace = trace_id + 1
                    span_id += 2
                    root = roots[uid] = _TaskRoot(parent_trace, span_id - 1,
                                                  parent_id, uid, "task", t,
                                                  uid)
                    append(root)
                    phase = phases[uid] = _TaskPhase(
                        parent_trace, span_id, span_id - 1, "submit", "task",
                        t, attempt)
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
            uid = uids[k]
            # a tracked task has an open phase from its submission until a
            # final state that opens none (DONE, CANCELED): the rest of the
            # profile's transitions (pilots, untracked tasks) are not ours
            phase = phases.pop(uid, None)
            if phase is None:
                continue
            t = times[k]
            if t == t0:  # transitions of one instant share one float
                t = t0
            else:
                t0 = t
            if phase.end is None:
                phase.end = t
            name = phase_of[codes[k]]
            if name is not _NO_PHASE:
                root = roots[uid]
                attempt = _get_attrs(phase)  # raw, unless read since
                if type(attempt) is dict:
                    attempt = attempt["attempt"]
                if phase.name == "reschedule":
                    attempt += 1
                span_id += 1
                phase = phases[uid] = _TaskPhase(root.trace_id, span_id,
                                                 root.span_id, name, "task",
                                                 t, attempt)
                append(phase)
        self._last_trace_id, self._last_span_id = trace_id, span_id

    def _phase_of_code(self, pairs) -> list:
        """Code -> the phase its task transition opens (``_NO_PHASE`` for a
        final state), or ``""`` for a record that is no task transition;
        caught up with the profile's code table *pairs*."""
        phase_of = self._phases
        if self._pairs is not pairs and pairs:  # a new table: a clear()
            self._pairs, phase_of[:] = pairs, []
        for event, _ in islice(pairs, len(phase_of), None):
            phase_of.append(_PHASE_OF_EVENT.get(event, ""))
        return phase_of

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
