"""What watching one task costs while it runs: two tracer records, one shared
completion hook, no span, and no container the task does not use.

A transition is appended once, by the profiler.  The tracer keeps only a
task's submission and its completion and reads the phases in between off the
profile when it is queried; ``Span`` objects are built by that first query,
and a later query builds only what was recorded since.  Counted by
differencing two run sizes, so start-up constants cancel.
"""

import functools
import gc

from repro import (
    ObservabilityConfig,
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.observability.trace import Span

#: tracer records of one attempt of a plain task: submission, completion
RECORDS_PER_ATTEMPT = 2
#: spans they replay into: root, submit, schedule, agent_queue, execute
SPANS_PER_ATTEMPT = 5
#: GC-tracked objects a completed task leaves: the task, its completion
#: event, its (released) slot list -- and nothing it never used
TRACKED_PER_TASK = 4


class CountingLog(list):
    """A tracer log that counts its records: a record is one ``+=``."""

    records = 0

    def __iadd__(self, fields):
        self.records += 1
        return super().__iadd__(fields)


def count_spans_built(monkeypatch):
    built = [0]
    init = Span.__init__

    def counted(span, *args, **kwargs):
        built[0] += 1
        init(span, *args, **kwargs)
    monkeypatch.setattr(Span, "__init__", counted)
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
        tracer._log = log = CountingLog()
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


def test_a_query_replays_only_what_was_recorded_since(monkeypatch):
    built = count_spans_built(monkeypatch)
    with Session(seed=2, observability=ObservabilityConfig()) as session:
        tracer = session.observability.tracer
        run = bag(session)
        run(50)
        first = list(tracer.spans)
        assert built[0] == len(first) == 50 * SPANS_PER_ATTEMPT
        assert tracer._log == []          # consumed, not kept beside them
        assert all(span.end is not None for span in first)
        assert len(tracer.spans) == len(first) and built[0] == len(first)

        run(20)
        assert built[0] == len(first)     # still nothing built while running
        second = tracer.spans
        assert built[0] - len(first) == 20 * SPANS_PER_ATTEMPT
        assert all(a is b for a, b in zip(first, second))
        assert [s.span_id for s in second] == \
            list(range(1, len(second) + 1))
        assert tracer._log == []


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
