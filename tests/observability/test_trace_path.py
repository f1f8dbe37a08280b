"""What watching one task costs while it runs: log records, not spans.

Under full telemetry a task transition appends one record to the tracer's
lifecycle log and the whole plane hangs one callback on the task's
completion event; ``Span`` objects are built by the first query, and a later
query builds only what was recorded since.  Counted by differencing two run
sizes, so start-up constants cancel.
"""

from repro import (
    ObservabilityConfig,
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.observability.trace import _DONE, _STATE, _SUBMIT, Span

#: fields per log record, by kind (see ``Tracer``)
WIDTH = {_SUBMIT: 7, _STATE: 6, _DONE: 3}
#: records of one attempt of a plain task: submission, TMGR_SCHEDULING,
#: AGENT_SCHEDULING, AGENT_EXECUTING, DONE, the completion event
RECORDS_PER_ATTEMPT = 6
#: spans they replay into: root, submit, schedule, agent_queue, execute
SPANS_PER_ATTEMPT = 5


def records(log):
    """Number of records in a flat lifecycle log."""
    n = at = 0
    while at < len(log):
        at += 1 if type(log[at]) is Span else WIDTH[log[at]]
        n += 1
    assert at == len(log)
    return n


def count_spans_built(monkeypatch):
    built = [0]
    init = Span.__init__

    def counted(span, *args, **kwargs):
        built[0] += 1
        init(span, *args, **kwargs)
    monkeypatch.setattr(Span, "__init__", counted)
    return built


def bag(session):
    """``run(n)``: submit *n* plain tasks, note how many callbacks hang on
    each completion event, run them to completion."""
    pmgr, tmgr = PilotManager(session), TaskManager(session)
    (pilot,) = pmgr.submit_pilots(
        PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
    tmgr.add_pilots(pilot)

    def run(n):
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=5.0)
             for _ in range(n)])
        hooks = {len(task.completed.callbacks) for task in tasks}
        session.run(until=tmgr.wait_tasks(tasks))
        (per_task,) = hooks
        return per_task
    return run


def watched(n, monkeypatch):
    """(spans built, log records, completion hooks per task) of *n* tasks
    run to completion under full telemetry, nothing queried yet."""
    built = count_spans_built(monkeypatch)
    with Session(seed=2, observability=ObservabilityConfig()) as session:
        hooks = bag(session)(n)
        out = built[0], records(session.observability.tracer._log), hooks
    monkeypatch.undo()
    return out


def test_a_watched_attempt_costs_six_records_one_hook_and_no_span(
        monkeypatch):
    with Session(seed=2) as session:
        unwatched = bag(session)(1)
    few_built, few_records, few_hooks = watched(50, monkeypatch)
    many_built, many_records, many_hooks = watched(100, monkeypatch)
    assert few_built == many_built == 0
    assert (many_records - few_records) / 50 == RECORDS_PER_ATTEMPT
    assert few_hooks - unwatched == many_hooks - unwatched == 1


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
