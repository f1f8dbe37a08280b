"""What watching one task costs while it runs: two tracer records, one shared
completion hook, no span, and no container the task does not use.

A transition is appended once, by the profiler.  The tracer keeps only a
task's submission and its completion and reads the phases in between off the
profile when it is queried.  That first query replays them into rows, and a
later query replays only what was recorded since; a span object is made only
when its span is read.  Counted by differencing two run sizes, so start-up
constants cancel.
"""

import functools
import gc
import json
import sys

from repro import (
    ObservabilityConfig,
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.observability.trace import SpanView, _RowSpan

#: tracer records of one attempt of a plain task: submission, completion
RECORDS_PER_ATTEMPT = 2
#: spans they replay into: root, submit, schedule, agent_queue, execute
SPANS_PER_ATTEMPT = 5
#: GC-tracked objects a completed task leaves: the task, its completion
#: event, its (released) slot list -- and nothing it never used
TRACKED_PER_TASK = 4


class CountingLog(bytearray):
    """A tracer log's packed records that count themselves: a record is one
    ``+=``."""

    records = 0

    def __iadd__(self, record):
        self.records += 1
        return super().__iadd__(record)


def count_spans_built(monkeypatch):
    """Span objects made from here on (the tracer makes one per span read)."""
    built = [0]
    init = _RowSpan.__init__

    def counted(span, *args, **kwargs):
        built[0] += 1
        init(span, *args, **kwargs)
    monkeypatch.setattr(_RowSpan, "__init__", counted)
    return built


def bag(session):
    """``run(n)``: submit *n* plain tasks, run them to completion; returns
    the tasks and what hung on their completion events at submission: the
    hook counts, the distinct last hooks and whether any was a partial."""
    pmgr, tmgr = PilotManager(session), TaskManager(session)
    (pilot,) = pmgr.submit_pilots(
        PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
    tmgr.add_pilots(pilot)
    desc = TaskDescription(executable="x", duration_s=5.0)

    def run(n):
        tasks = tmgr.submit_tasks([desc] * n)
        hooks = [task.completed.callbacks for task in tasks]
        counts = tuple(sorted({len(h) for h in hooks}))  # not GC-tracked
        last = {id(h[-1]) for h in hooks if h}
        partial = any(isinstance(hook, functools.partial)
                      for h in hooks for hook in h)
        del hooks
        session.run(until=tmgr.wait_tasks(tasks))
        return tasks, (counts, len(last), partial)
    return run


def watched(n, monkeypatch):
    """(spans built, tracer records, hooks, GC-tracked objects) of *n*
    tasks run to completion under full telemetry, nothing queried."""
    built = count_spans_built(monkeypatch)
    with Session(seed=2, observability=ObservabilityConfig()) as session:
        tracer = session.observability.tracer
        tracer._records = log = CountingLog()
        tasks, hooks = bag(session)(n)
        gc.collect()
        tracked = len(gc.get_objects())
        out = built[0], log.records, hooks, tracked
        del tasks
    monkeypatch.undo()
    return out


def test_a_watched_attempt_costs_two_records_one_shared_hook_and_no_span(
        monkeypatch):
    with Session(seed=2) as session:
        _, ((unwatched,), _, _) = bag(session)(1)
    watched(50, monkeypatch)  # warm every cache the counts below would see
    few_built, few_records, few_hooks, few_tracked = watched(50, monkeypatch)
    many_built, many_records, many_hooks, many_tracked = \
        watched(100, monkeypatch)
    assert few_built == many_built == 0
    # none per transition: the phases are read off the profile
    assert (many_records - few_records) / 50 == RECORDS_PER_ATTEMPT
    # one observer on each completion, the same one for every task: no
    # per-task partial or closure
    assert few_hooks == many_hooks == ((unwatched + 1,), 1, False)
    assert (many_tracked - few_tracked) / 50 <= TRACKED_PER_TASK


def log_is_empty(tracer):
    """The task log was consumed by the replay, not kept beside the rows."""
    return not (tracer._records or tracer._uids)


def test_a_query_replays_only_what_was_recorded_since(monkeypatch):
    built = count_spans_built(monkeypatch)
    with Session(seed=2, observability=ObservabilityConfig()) as session:
        tracer = session.observability.tracer
        run = bag(session)
        run(50)
        first = list(tracer.spans)
        assert built[0] == len(first) == 50 * SPANS_PER_ATTEMPT
        assert log_is_empty(tracer)
        assert all(span.end is not None for span in first)
        assert len(tracer.spans) == len(first) and built[0] == len(first)

        run(20)
        assert built[0] == len(first)     # still nothing built while running
        second = tracer.spans
        assert log_is_empty(tracer)
        # the query replays rows; the spans are made as they are read, and
        # the first 250 are the objects made before, not rebuilt
        assert built[0] == len(first)
        assert [s.span_id for s in second] == \
            list(range(1, len(second) + 1))
        assert built[0] - len(first) == 20 * SPANS_PER_ATTEMPT
        assert all(a is b for a, b in zip(first, second))


def test_len_bool_eq_and_the_exporters_make_no_span(monkeypatch, tmp_path):
    built = count_spans_built(monkeypatch)
    with Session(seed=2, observability=ObservabilityConfig()) as session:
        tracer = session.observability.tracer
        bag(session)(20)
        spans = tracer.spans
        assert len(spans) == len(tracer) == 20 * SPANS_PER_ATTEMPT
        assert spans and spans == tracer.spans and spans != []
        assert not tracer.spans[:0] and tracer.spans[:0] == []
        assert spans != [None] * len(spans)
        tracer.to_jsonl(str(tmp_path / "spans.jsonl"))
        tracer.to_chrome_trace(str(tmp_path / "trace.json"))
        assert tracer.chrome_trace_events()
        assert built[0] == 0
        # once read, a list of the same objects is equal to the view
        assert spans == list(spans) and built[0] == len(spans)
        assert spans[1:] != list(spans)[:-1]


def test_a_span_read_once_is_the_same_object_on_every_later_read(
        monkeypatch):
    built = count_spans_built(monkeypatch)
    with Session(seed=2, observability=ObservabilityConfig()) as session:
        tracer = session.observability.tracer
        tasks, _ = bag(session)(3)
        spans = tracer.spans
        root = spans[0]
        assert built[0] == 1
        assert root is spans[0] is tracer.spans[0] is spans[-15]
        assert root is next(iter(tracer.spans)) is tracer.find(
            name=tasks[0].uid)[0] is tracer.spans_of_trace(1)[0]
        assert built[0] == SPANS_PER_ATTEMPT  # the trace's spans, read
        assert root.name == tasks[0].uid and root.end is not None


def test_a_held_span_is_closed_by_the_next_query_not_before():
    with Session(seed=2, observability=ObservabilityConfig()) as session:
        tracer = session.observability.tracer
        pmgr, tmgr = PilotManager(session), TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=1, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        (task,) = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=5.0)])
        session.run(until=0.5)
        root, *_, phase = tracer.spans
        assert root.end is None and phase.end is None
        session.run(until=tmgr.wait_tasks([task]))
        assert root.end is None and phase.end is None  # nothing replayed
        spans = tracer.spans
        assert spans[0] is root and phase in spans
        assert root.end == session.now and phase.end is not None
        assert all(span.end is not None for span in spans)


def test_an_attrs_write_on_a_dropped_span_stays_in_its_row(tmp_path):
    with Session(seed=2, observability=ObservabilityConfig()) as session:
        tracer = session.observability.tracer
        bag(session)(2)
        tracer.spans[0].set_attr("note", "kept")
        tracer.spans[1].attrs["extra"] = 1
        tracer.find(name="execute")[0].attrs = {"attempt": 7}
        explicit = tracer.start_span("marker", "driver")
        explicit.set_attr("k", "v")
        tracer.end_span(explicit)
        explicit_id = explicit.span_id
        del explicit
        spans = tracer.spans
        assert spans[0].attrs == {"uid": "task.0000", "note": "kept"}
        assert spans[1].attrs == {"attempt": 1, "extra": 1}
        assert spans[explicit_id - 1].attrs == {"k": "v"}
        path = tmp_path / "spans.jsonl"
        tracer.to_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["attrs"] == {"uid": "task.0000", "note": "kept"}
        assert [ln["attrs"] for ln in lines if ln["name"] == "execute"][0] \
            == {"attempt": 7}
        assert lines[-1]["attrs"] == {"k": "v"}
        assert lines[-1]["end"] == lines[-1]["start"] == session.now


def test_a_slice_is_a_view():
    with Session(seed=2, observability=ObservabilityConfig()) as session:
        tracer = session.observability.tracer
        bag(session)(4)
        spans = tracer.spans
        tail = spans[-5:]
        assert isinstance(tail, SpanView) and len(tail) == 5
        assert tail[::2] == [spans[15], spans[17], spans[19]]
        assert tail[0] is spans[15] and tail[-1] is spans[-1]
        assert list(spans[3:1]) == [] and spans[100:] == []
        assert repr(tail[:1]) == repr([spans[15]])


def test_every_profile_level_gives_the_same_spans():
    spans = {}
    for level in ("full", "durations", "off"):
        with Session(seed=2, profile=level,
                     observability=ObservabilityConfig()) as session:
            run = bag(session)
            run(30)
            mid = [s.as_dict() for s in session.observability.tracer.spans]
            run(20)
            spans[level] = (mid, [s.as_dict() for s in
                                  session.observability.tracer.spans])
            if level == "off":
                assert len(session.profiler) == 0
                assert session.profiler.dropped == session.profiler.recorded
    assert len(spans["full"][1]) == 50 * SPANS_PER_ATTEMPT
    assert spans["full"] == spans["durations"] == spans["off"]


def test_find_and_spans_of_trace_make_only_the_spans_they_return(
        monkeypatch):
    built = count_spans_built(monkeypatch)
    with Session(seed=2, observability=ObservabilityConfig()) as session:
        tracer = session.observability.tracer
        tasks, _ = bag(session)(10)
        executes = tracer.find(name="execute", category="task")
        assert [s.name for s in executes] == ["execute"] * 10
        assert built[0] == 10
        assert tracer.find(category="nothing") == [] and built[0] == 10
        (root,) = tracer.find(name=tasks[3].uid)
        assert root.parent_id is None and root.attrs == {"uid": tasks[3].uid}
        assert tracer.spans_of_trace(root.trace_id)[0] is root
        assert built[0] == 10 + SPANS_PER_ATTEMPT - 1  # its execute is made


def test_views_of_two_tracers_are_equal_only_when_empty():
    with Session(seed=2, observability=ObservabilityConfig()) as one, \
            Session(seed=2, observability=ObservabilityConfig()) as two:
        mine, theirs = one.observability.tracer, two.observability.tracer
        assert mine.spans == theirs.spans == [] and not mine.spans
        bag(one)(1)
        bag(two)(1)
        assert mine.spans != theirs.spans
        assert mine.spans[-1].as_dict() == theirs.spans[-1].as_dict()
        assert mine.spans == mine.spans[:] and mine.spans[1:] != mine.spans
        assert (mine.spans == object()) is False


def test_a_replay_that_closes_every_task_gives_its_tables_back():
    # The replay's uid -> row tables hold one entry per task in flight.
    # The read-bytes bag (5,000 mixed-shape tasks on 16 nodes, all
    # submitted before the first query) grows them to one entry per task;
    # once the replay has closed every task they are fresh dicts again, not
    # empty dicts that keep their peak capacity.
    with Session(seed=0, observability=ObservabilityConfig()) as session:
        pmgr, tmgr = PilotManager(session), TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="frontier", nodes=16, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        session.run(until=pmgr.wait_active([pilot]))
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="x", duration_s=60.0,
                            cores_per_rank=(1, 2, 4, 8)[i % 4])
            for i in range(5_000)])
        session.run(until=tmgr.wait_tasks(tasks))
        tracer = session.observability.tracer
        assert len(tracer.spans) == 5_000 * SPANS_PER_ATTEMPT
        assert sys.getsizeof(tracer._task_roots) == sys.getsizeof({})
        assert sys.getsizeof(tracer._task_phase) == sys.getsizeof({})
