"""Causal task tracing: spans with trace/span/parent ids.

Post-mortem analytics already exist (the flat :class:`Profiler` row table),
but explaining *why* a task was slow needs causality: which campaign node
submitted it, how long it waited in which queue, which transfers ran on its
behalf, how many recovery attempts it burned.  The :class:`Tracer` keeps
that as a forest of spans:

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
profile's record count at that moment.  No task span exists until
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
``tests/test_properties.py`` holds the two equal).  The run pays for
neither span rows nor a second copy of the transitions; the **first
query** does (about 0.7 us a span on CPython 3.11), later queries replay
only what was recorded since.  This replay is the one span constructor:
every analysis of a run's spans (the exporters, the attribution engine,
the dashboard) reads them from here.

**A span is a row until it is read.**  The replay appends each span to
columns -- trace and parent id, a code for its (name, category), start and
end (NaN while open), and its one raw attribute: a task root's uid, a
phase's attempt, or an explicit span's ``attrs`` -- about 50 traced bytes
a span (36 in the columns, the rest their growth slack; a span object
built by the replay cost 166).  ``Tracer.spans`` is a :class:`SpanView`
over those rows: ``len``, ``bool``, ``==`` and both exporters read the
columns and make no span object.  The first read of a span makes one
(about 0.3 us and 88 bytes with its cache slot), which stays: every later
read returns that same object.  It reads its fields off its row and writes
``end`` and ``attrs`` back into it, so ``set_attr``, item writes on
``attrs`` and ``end_span`` are what the exporters see, also after the
caller dropped the span.  ``attrs`` of a task span is built as a dict on its first read
and kept beside the row.  ``Span`` itself stays the plain record the eager
tracer and hand-built analyses construct.

**Mid-run queries** are first-class.  A span still open when queried has
``end is None``; the *same object* is closed by the next query after its
closing record -- a span handed out by one query is brought up to date
by the next, not behind the caller's back in between.

Export formats: ``to_chrome_trace(path)`` writes Chrome trace-event JSON
(openable in Perfetto / ``chrome://tracing``; each trace renders as one
named track), ``to_jsonl(path)`` writes one span per line for offline
tooling.
"""

from __future__ import annotations

import json
import sys
from array import array
from struct import Struct
from collections.abc import Sequence
from itertools import chain, count, islice
from operator import itemgetter
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Tuple)

from ..pilot.states import TASK_MODEL, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session
    from ..pilot.task import Task

__all__ = ["Span", "SpanView", "Tracer"]

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

#: span kinds, by code: (name, category, the key of the raw attribute).  A
#: task root's name is its raw attribute (its uid); an explicit span's raw
#: attribute is its ``attrs`` itself (key None).  Codes 0 and 1 are the
#: root and the ``submit`` phase; explicit kinds are added on first use.
_TASK_KINDS: List[Tuple[Optional[str], str, Optional[str]]] = [
    (None, "task", "uid"), ("submit", "task", "attempt")] + [
    (name, "task", "attempt") for name in PHASE_OF_STATE.values()]
_ROOT, _SUBMIT_PHASE = 0, 1
_RESCHEDULE = _TASK_KINDS.index(("reschedule", "task", "attempt"))

#: a final state's code: it closes the current phase and opens none (true,
#: so that every task transition's code tests true)
_NO_PHASE = -1

#: profile event of each task state -> the span code of the phase it opens
_PHASE_OF_EVENT = {
    event: (_TASK_KINDS.index((PHASE_OF_STATE[state], "task", "attempt"))
            if state in PHASE_OF_STATE else _NO_PHASE)
    for state, event in TASK_MODEL.events.items()}

_NAN = float("nan")
#: ``attrs`` not built for a task span yet
_RAW = object()

#: a task log record, packed: 2 x its stamp (+ 1 for a completion), its
#: sim time
_RECORD = Struct("=qd")
_pack = _RECORD.pack
#: what a submission's record leaves out: attempt 1, no parent (ids 0)
_PLAIN = (1, 0, 0)
#: the replay's sentinel hit, after every profile record, and the due
#: stamp once the task log is read
_AFTER, _NEVER = sys.maxsize, float("inf")


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


class _RowSpan:
    """A span read off a tracer: :class:`Span`'s fields, read from row
    ``k`` of the tracer's columns; ``end`` and ``attrs`` are written back
    into it.  One is made per row, on the row's first read."""

    __slots__ = ("_tracer", "_k")

    def __init__(self, tracer: "Tracer", k: int) -> None:
        self._tracer = tracer
        self._k = k

    @property
    def trace_id(self) -> int:
        return self._tracer._trace[self._k]

    @property
    def span_id(self) -> int:
        return self._k + 1

    @property
    def parent_id(self) -> Optional[int]:
        return self._tracer._parent[self._k] or None

    @property
    def name(self) -> str:
        tracer = self._tracer
        name = tracer._kinds[tracer._code[self._k]][0]
        return tracer._attr[self._k] if name is None else name

    @property
    def category(self) -> str:
        tracer = self._tracer
        return tracer._kinds[tracer._code[self._k]][1]

    @property
    def start(self) -> float:
        return self._tracer._start[self._k]

    def _get_end(self) -> Optional[float]:
        end = self._tracer._end[self._k]
        return None if end != end else end

    def _set_end(self, value: Optional[float]) -> None:
        self._tracer._end[self._k] = _NAN if value is None else value

    def _get_attrs(self) -> Optional[Dict[str, Any]]:
        tracer, k = self._tracer, self._k
        key = tracer._kinds[tracer._code[k]][2]
        if key is None:
            return tracer._attr[k]
        attrs = tracer._attrs.get(k, _RAW)
        if attrs is _RAW:
            attrs = tracer._attrs[k] = {key: tracer._attr[k]}
        return attrs

    def _set_attrs(self, value: Optional[Dict[str, Any]]) -> None:
        tracer, k = self._tracer, self._k
        if tracer._kinds[tracer._code[k]][2] is None:
            tracer._attr[k] = value
        else:
            tracer._attrs[k] = value

    end = property(_get_end, _set_end)
    attrs = property(_get_attrs, _set_attrs)
    set_attr = Span.set_attr
    as_dict = Span.as_dict
    __repr__ = Span.__repr__


class SpanView(Sequence):
    """Read-only spans of a tracer, each made when first read: ``len``,
    ``bool``, indexing (negative too; a slice is a view), iteration, ``==``
    with a list or a view, ``repr``.  A snapshot of the rows there were:
    spans replayed later are not in it, but its spans are closed by later
    queries as every span is."""

    __slots__ = ("_tracer", "_at")

    def __init__(self, tracer: "Tracer", at: range) -> None:
        self._tracer = tracer
        self._at = at   # the rows shown

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return SpanView(self._tracer, self._at[i])
        return self._tracer._span(self._at[i])

    def __iter__(self) -> Iterator[_RowSpan]:
        tracer = self._tracer
        made = tracer._slots()
        for k in self._at:  # _span, inlined: a read of every span is hot
            span = made[k]
            if span is None:
                span = made[k] = _RowSpan(tracer, k)
            yield span

    def __eq__(self, other) -> bool:
        """The same spans (spans compare by identity): a span nobody read
        yet is in no list, and a tracer's rows are its own."""
        if isinstance(other, SpanView):
            return len(self) == len(other) and (
                not self._at or (other._tracer is self._tracer
                                 and other._at == self._at))
        if not isinstance(other, list):
            return NotImplemented
        made = self._tracer._made
        return len(self) == len(other) and all(
            k < len(made) and made[k] is span
            for k, span in zip(self._at, other))

    def __repr__(self) -> str:
        return repr(list(self))


class Tracer:
    """Span store, fed by explicit spans, its task log and the profile.

    The two task hooks append one record each to the task log and build
    nothing; :attr:`spans` replays what has not been read yet.  The log is
    two columns (nothing for the garbage collector to track): ``_uids``,
    and ``_records``, one packed 16-byte record per uid -- the profile's
    record count when it was made (its *stamp*), stored doubled and plus
    one for a completion, and the sim time.  A
    submission that is not a first attempt without a parent also keeps
    (attempt, parent trace id, parent span id) in ``_submits`` (ids 0
    without a parent).  A record stamped *s* replays after profile record
    ``s - 1`` and before profile record *s*.

    The spans are rows of the columns ``_trace``, ``_parent`` (0: none),
    ``_code`` (into the kind table ``_kinds``), ``_start``, ``_end`` (NaN:
    open) and ``_attr``; row *k* is span id ``k + 1``.  ``_made`` holds
    the span object of every row read so far, ``_attrs`` the attribute
    dicts built for task spans.
    """

    def __init__(self, session: "Session") -> None:
        self.session = session
        self._profiler = profiler = session.profiler
        if profiler.reader is not None:
            raise RuntimeError("the session's profile already has a reader")
        profiler.reader = self._read
        # the task log
        self._engine = session.engine
        self._records = bytearray()
        self._uids: List[str] = []
        self._submits: Dict[str, Tuple[int, int, int]] = {}
        # the span rows
        self._trace, self._parent = array("i"), array("i")
        self._code = array("i")
        self._start, self._end = array("d"), array("d")
        self._attr: List[Any] = []
        self._kinds = list(_TASK_KINDS)
        self._code_of = {kind: code for code, kind in enumerate(self._kinds)}
        self._made: List[Optional[_RowSpan]] = []
        self._attrs: Dict[int, Any] = {}
        #: the profile's code table as last read, and the span code of the
        #: phase each of its codes opens (0: no task transition)
        self._pairs: Any = None
        self._phases: List[int] = []
        self._last_trace_id = 0
        # replay state: as far as the log has been read
        #: task uid -> the row of its live root span (dropped on completion)
        self._task_roots: Dict[str, int] = {}
        #: task uid -> the row of its currently open phase span
        self._task_phase: Dict[str, int] = {}
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
        kind = (name, category, None)
        code = self._code_of.get(kind)
        if code is None:
            code = self._code_of[kind] = len(self._kinds)
            self._kinds.append(kind)
        row = len(self._code)
        self._trace.append(trace_id)
        self._parent.append(0 if parent is None else parent.span_id)
        self._code.append(code)
        self._start.append(self._engine.now)
        self._end.append(_NAN)
        self._attr.append(attrs)
        return self._span(row)

    def end_span(self, span: Span) -> Span:
        """Close a span at the current sim time (idempotent)."""
        if span.end is None:
            span.end = self._engine.now
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
        if parent is not None or task.attempts != 1:
            self._submits[task.uid] = (
                task.attempts, 0, 0) if parent is None else (
                task.attempts, parent.trace_id, parent.span_id)
        self._uids.append(task.uid)
        records = self._records  # extended in place: no attribute store
        records += _pack(2 * self._profiler.recorded, self._engine.now)

    def task_completed(self, uid: str) -> None:
        """Completion event fired: any open phase and the root close."""
        self._uids.append(uid)
        records = self._records
        records += _pack(2 * self._profiler.recorded + 1, self._engine.now)

    # -- replay --------------------------------------------------------------
    @property
    def spans(self) -> SpanView:
        """Every span so far, in id order; reads the logs up to now.

        The replay resumes where the last query stopped and consumes the
        records it reads.  A span open now has ``end is None``; the same
        object is closed by the query that follows its closing record.
        """
        self._catch_up()
        return SpanView(self, range(len(self._code)))

    def _slots(self) -> List[Optional[_RowSpan]]:
        """``_made``, grown to a slot per row."""
        made = self._made
        if len(made) < len(self._code):
            made.extend([None] * (len(self._code) - len(made)))
        return made

    def _span(self, k: int) -> _RowSpan:
        """Row *k*'s span object, made on its first read."""
        made = self._slots()
        span = made[k]
        if span is None:
            span = made[k] = _RowSpan(self, k)
        return span

    def _catch_up(self) -> None:
        """Read what the profile and the task log hold up to now."""
        self._profiler.share()  # hands what we have not seen to _read
        if self._uids:
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
        own = zip(_RECORD.iter_unpack(self._records), self._uids)
        submits = self._submits
        base = self._profiler.recorded - len(times)  # record 0's number
        phase_of = self._phase_of_code(pairs)
        # the task transitions among them, (number, the code of the phase
        # opened), then a sentinel that reads the task records stamped
        # after the last of them
        hits = chain(filter(itemgetter(1), zip(
            count(start), map(phase_of.__getitem__, codes[start:]))),
            ((_AFTER, 0),))
        roots, phases = self._task_roots, self._task_phase
        trace, code, end, attr = self._trace, self._code, self._end, \
            self._attr
        add_trace, add_parent = trace.append, self._parent.append
        add_code, add_start = code.append, self._start.append
        add_end, add_attr = end.append, attr.append
        trace_id, row = self._last_trace_id, len(code)
        record = next(own, None)
        due = _NEVER if record is None else record[0][0] >> 1
        for k, opened in hits:
            last = base + k
            while due <= last:  # the task records due before hit k
                (stamp, t), uid = record
                if not stamp & 1:  # a submission: its root and submit phase
                    attempt, parent_trace, parent_id = submits.pop(
                        uid, _PLAIN)
                    if not parent_trace:
                        trace_id = parent_trace = trace_id + 1
                    roots[uid], phases[uid] = row, row + 1
                    add_trace(parent_trace)
                    add_trace(parent_trace)
                    add_parent(parent_id)
                    add_parent(row + 1)
                    add_code(_ROOT)
                    add_code(_SUBMIT_PHASE)
                    add_start(t)
                    add_start(t)
                    add_end(_NAN)
                    add_end(_NAN)
                    add_attr(uid)
                    add_attr(attempt)
                    row += 2
                else:  # a completion: the open phase and the root close
                    phase = phases.pop(uid, None)
                    if phase is not None and end[phase] != end[phase]:
                        end[phase] = t
                    root = roots.pop(uid, None)
                    if root is not None and end[root] != end[root]:
                        end[root] = t
                record = next(own, None)
                due = _NEVER if record is None else record[0][0] >> 1
            if k is _AFTER:
                break
            uid = uids[k]
            # a tracked task has an open phase from its submission until a
            # final state that opens none (DONE, CANCELED): the rest of the
            # profile's transitions (pilots, untracked tasks) are not ours
            phase = phases.pop(uid, None)
            if phase is None:
                continue
            t = times[k]
            e = end[phase]
            if e != e:  # open (NaN): not ended by hand since
                end[phase] = t
            if opened != _NO_PHASE:
                root = roots[uid]
                attempt = attr[phase]
                if code[phase] == _RESCHEDULE:
                    attempt += 1
                phases[uid] = row
                add_trace(trace[root])
                add_parent(root + 1)
                add_code(opened)
                add_start(t)
                add_end(_NAN)
                add_attr(attempt)
                row += 1
        self._last_trace_id = trace_id
        self._records, self._uids = bytearray(), []
        if not roots and not phases:
            # every task closed: fresh tables give the peak capacity back
            self._task_roots, self._task_phase = {}, {}

    def _phase_of_code(self, pairs) -> list:
        """Profile code -> the span code of the phase its task transition
        opens (``_NO_PHASE`` for a final state), or 0 for a record that is
        no task transition; caught up with the profile's code table
        *pairs*."""
        phase_of = self._phases
        if self._pairs is not pairs and pairs:  # a new table: a clear()
            self._pairs, phase_of[:] = pairs, []
        for event, _ in islice(pairs, len(phase_of), None):
            phase_of.append(_PHASE_OF_EVENT.get(event, 0))
        return phase_of

    def task_root(self, uid: str) -> Optional[Span]:
        """The live root span of a task (None once completed/untracked)."""
        self._catch_up()
        row = self._task_roots.get(uid)
        return None if row is None else self._span(row)

    # -- queries -------------------------------------------------------------
    def spans_of_trace(self, trace_id: int) -> List[Span]:
        self._catch_up()
        return [self._span(k) for k, trace in enumerate(self._trace)
                if trace == trace_id]

    def find(self, name: Optional[str] = None,
             category: Optional[str] = None) -> List[Span]:
        self._catch_up()
        kinds = self._kinds
        return [self._span(k)
                for k, (code, raw) in enumerate(zip(self._code, self._attr))
                if (category is None or kinds[code][1] == category)
                and (name is None or name == (
                    raw if kinds[code][0] is None else kinds[code][0]))]

    def __len__(self) -> int:
        return len(self.spans)

    # -- export --------------------------------------------------------------
    def _rows(self) -> Iterator[tuple]:
        """Every span's fields, caught up, as :meth:`Span.as_dict` has them
        and in its order: read off the columns, with no span object made."""
        self._catch_up()
        kinds, built = self._kinds, self._attrs
        for k, (trace_id, parent_id, code, start, end, raw) in enumerate(zip(
                self._trace, self._parent, self._code, self._start,
                self._end, self._attr)):
            name, category, key = kinds[code]
            if key is None:
                attrs = raw
            else:
                attrs = built.get(k, _RAW)
                if attrs is _RAW:
                    attrs = {key: raw}
            yield (trace_id, k + 1, parent_id or None,
                   raw if name is None else name, category, start,
                   None if end != end else end, attrs or {})

    def chrome_trace_events(self) -> List[Dict[str, Any]]:
        """Chrome trace-event list: one complete ("X") event per span.

        Each trace renders as one named track (pid 1, tid = per-trace
        index, thread_name metadata from the trace's root span), so a task
        and everything it caused line up on one Perfetto row.
        """
        events: List[Dict[str, Any]] = []
        tids: Dict[int, int] = {}
        for (trace_id, span_id, parent_id, name, category, start, end,
             attrs) in self._rows():
            tid = tids.get(trace_id)
            if tid is None:
                tid = tids[trace_id] = len(tids) + 1
                events.append({
                    "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                    "args": {"name": name},
                })
            if end is None:
                end = start
            events.append({
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "name": name,
                "cat": category or "span",
                "ts": start * 1e6,            # trace events use microseconds
                "dur": (end - start) * 1e6,
                "args": {
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent_id,
                    **attrs,
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
        keys = ("trace_id", "span_id", "parent_id", "name", "category",
                "start", "end", "attrs")
        with open(path, "w") as fh:
            for row in self._rows():
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")
        return len(self.spans)
