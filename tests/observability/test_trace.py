"""The tracing plane: spans, exports, and task spans read off the profile."""

import json
from types import SimpleNamespace

from repro import Session
from repro.observability.trace import Tracer
from repro.pilot.states import TaskState


class TestTracerApi:
    def test_span_ids_and_parent_links(self):
        with Session(seed=1) as session:
            tracer = Tracer(session)
            root = tracer.start_span("root", "test")
            child = tracer.start_span("child", "test", parent=root)
            other = tracer.start_span("other", "test")
            assert child.trace_id == root.trace_id
            assert child.parent_id == root.span_id
            assert other.trace_id != root.trace_id
            assert other.parent_id is None
            assert len(tracer) == 3

    def test_end_span_stamps_sim_time_idempotently(self):
        with Session(seed=1) as session:
            tracer = Tracer(session)
            span = tracer.start_span("s")
            assert span.end is None
            session.run(until=session.engine.timeout(3.0))
            tracer.end_span(span)
            assert span.end == 3.0
            session.run(until=session.engine.timeout(1.0))
            tracer.end_span(span)  # already closed: no restamp
            assert span.end == 3.0

    def test_queries(self):
        with Session(seed=1) as session:
            tracer = Tracer(session)
            a = tracer.start_span("a", "x")
            tracer.start_span("b", "y", parent=a)
            assert [s.name for s in tracer.spans_of_trace(a.trace_id)] \
                == ["a", "b"]
            assert [s.name for s in tracer.find(category="y")] == ["b"]
            assert [s.name for s in tracer.find(name="a")] == ["a"]

    def test_set_attr_and_as_dict(self):
        with Session(seed=1) as session:
            tracer = Tracer(session)
            span = tracer.start_span("s", "cat", attrs={"k": 1})
            span.set_attr("k2", "v")
            d = span.as_dict()
            assert d["attrs"] == {"k": 1, "k2": "v"}
            assert d["name"] == "s" and d["category"] == "cat"


class TestExports:
    def _tracer_with_spans(self, session):
        tracer = Tracer(session)
        root = tracer.start_span("task.0", "task")
        child = tracer.start_span("execute", "task", parent=root)
        session.run(until=session.engine.timeout(2.0))
        tracer.end_span(child)
        tracer.end_span(root)
        return tracer

    def test_chrome_trace_events_shape(self):
        with Session(seed=1) as session:
            tracer = self._tracer_with_spans(session)
            events = tracer.chrome_trace_events()
            meta = [e for e in events if e["ph"] == "M"]
            complete = [e for e in events if e["ph"] == "X"]
            assert len(meta) == 1  # one track per trace, named after root
            assert meta[0]["args"]["name"] == "task.0"
            assert len(complete) == 2
            for e in complete:
                assert e["pid"] == 1 and e["tid"] == meta[0]["tid"]
                assert e["ts"] == 0.0 and e["dur"] == 2e6  # microseconds
            by_name = {e["name"]: e for e in complete}
            assert by_name["execute"]["args"]["parent_id"] \
                == by_name["task.0"]["args"]["span_id"]

    def test_to_chrome_trace_file(self, tmp_path):
        with Session(seed=1) as session:
            tracer = self._tracer_with_spans(session)
            path = tmp_path / "trace.json"
            assert tracer.to_chrome_trace(str(path)) == 2
            payload = json.loads(path.read_text())
            assert payload["displayTimeUnit"] == "ms"
            assert len(payload["traceEvents"]) == 3

    def test_to_jsonl(self, tmp_path):
        with Session(seed=1) as session:
            tracer = self._tracer_with_spans(session)
            path = tmp_path / "spans.jsonl"
            assert tracer.to_jsonl(str(path)) == 2
            lines = [json.loads(ln) for ln in path.read_text().splitlines()]
            assert [ln["name"] for ln in lines] == ["task.0", "execute"]
            assert lines[1]["parent_id"] == lines[0]["span_id"]


STAGES = [TaskState.TMGR_SCHEDULING, TaskState.TMGR_STAGING_INPUT,
          TaskState.AGENT_SCHEDULING, TaskState.AGENT_EXECUTING,
          TaskState.TMGR_STAGING_OUTPUT, TaskState.DONE]


class TestSpansFromProfiler:
    """The tracer builds task spans from the profile's ``state:*`` records:
    a stand-in task manager submits a task to it and records the task's
    transitions in the session profile, each at its own sim time."""

    @staticmethod
    def _advance(session, t):
        session.run(until=session.engine.timeout(t - session.now))

    def _lifecycle(self, session, tracer, uid, stamps):
        """Submit *uid* at the first stamp, record each ``(t, state)`` at
        *t*, complete it at the last."""
        self._advance(session, stamps[0][0])
        tracer.task_submitted(SimpleNamespace(uid=uid, attempts=1,
                                              trace_parent=None))
        for t, state in stamps:
            self._advance(session, t)
            session.profiler.record(t, uid, f"state:{state}", "tmgr")
        tracer.task_completed(uid)

    def _record_lifecycle(self, session, tracer, uid, t0):
        self._lifecycle(session, tracer, uid,
                        [(t0 + i, state) for i, state in enumerate(STAGES)])

    def test_rebuilds_phase_spans(self):
        with Session(seed=1) as session:
            tracer = Tracer(session)
            self._record_lifecycle(session, tracer, "task.0", 0.0)
            spans = tracer.spans
        root = spans[0]
        assert root.name == "task.0" and root.parent_id is None
        assert (root.start, root.end) == (0.0, 5.0)
        phases = {s.name: s for s in spans[1:]}
        assert list(phases) == ["submit", "schedule", "stage_in",
                                "agent_queue", "execute", "stage_out"]
        # each phase is closed by the next state's record
        assert (phases["submit"].start, phases["submit"].end) == (0.0, 0.0)
        assert (phases["execute"].start, phases["execute"].end) == (3.0, 4.0)
        assert all(s.parent_id == root.span_id for s in spans[1:])
        assert all(s.trace_id == root.trace_id for s in spans[1:])

    def test_multiple_tasks_get_distinct_traces(self):
        with Session(seed=1) as session:
            tracer = Tracer(session)
            self._record_lifecycle(session, tracer, "task.0", 0.0)
            self._record_lifecycle(session, tracer, "task.1", 10.0)
            roots = [s for s in tracer.spans if s.parent_id is None]
        assert [r.name for r in roots] == ["task.0", "task.1"]
        assert roots[0].trace_id != roots[1].trace_id

    def test_explicit_uids_and_empty_profile(self):
        # only the uids submitted to the tracer are its own: the
        # transitions of any other entity in the profile build nothing
        with Session(seed=1) as session:
            tracer = Tracer(session)
            assert tracer.spans == []
            for t, state in enumerate(STAGES):
                session.profiler.record(float(t), "ghost", f"state:{state}",
                                        "tmgr")
            assert tracer.spans == []
            self._record_lifecycle(session, tracer, "task.0", 10.0)
            assert {s.name for s in tracer.spans
                    if s.parent_id is None} == {"task.0"}
            assert len(tracer.spans) == 7  # root + submit + 5 phases

    def test_retry_loop_yields_recovery_and_reschedule_phases(self):
        with Session(seed=1) as session:
            tracer = Tracer(session)
            self._lifecycle(session, tracer, "task.r", [
                (0.0, TaskState.TMGR_SCHEDULING),
                (1.0, TaskState.TMGR_STAGING_INPUT),
                (2.0, TaskState.AGENT_SCHEDULING),
                (3.0, TaskState.AGENT_EXECUTING),
                (8.0, TaskState.FAILED),
                (10.0, TaskState.RESCHEDULING),
                (11.0, TaskState.TMGR_SCHEDULING),
                (12.0, TaskState.AGENT_SCHEDULING),
                (13.0, TaskState.AGENT_EXECUTING),
                (20.0, TaskState.TMGR_STAGING_OUTPUT),
                (21.0, TaskState.DONE)])
            spans = tracer.spans
        root = spans[0]
        assert (root.start, root.end) == (0.0, 21.0)
        # a span per phase per attempt: the second attempt's phases are
        # its own, stamped with its attempt number
        assert [(s.name, s.start, s.end, s.attrs["attempt"])
                for s in spans[1:]] == [
            ("submit", 0.0, 0.0, 1),
            ("schedule", 0.0, 1.0, 1),
            ("stage_in", 1.0, 2.0, 1),
            ("agent_queue", 2.0, 3.0, 1),
            ("execute", 3.0, 8.0, 1),
            ("recovery", 8.0, 10.0, 1),
            ("reschedule", 10.0, 11.0, 1),
            ("schedule", 11.0, 12.0, 2),
            ("agent_queue", 12.0, 13.0, 2),
            ("execute", 13.0, 20.0, 2),
            ("stage_out", 20.0, 21.0, 2),
        ]

    def test_full_level_rebuilds_the_same_spans(self):
        # the tracer reads each record once, before any level folds it
        built = {}
        for level in ("full", "durations", "off"):
            with Session(seed=1, profile=level) as session:
                tracer = Tracer(session)
                for uid, t0 in (("task.0", 0.0), ("task.1", 10.0),
                                ("task.2", 20.0), ("task.3", 30.0)):
                    self._record_lifecycle(session, tracer, uid, t0)
                built[level] = [s.as_dict() for s in tracer.spans]
        assert built["full"] == built["durations"] == built["off"]
        assert len([s for s in built["full"]
                    if s["parent_id"] is None]) == 4

    def test_a_task_span_builds_its_attrs_once_and_keeps_writes(
            self, tmp_path):
        # a task root or phase row keeps its one attribute raw until
        # ``attrs`` is read; the dict built then is what every later read
        # returns
        with Session(seed=1) as session:
            tracer = Tracer(session)
            tracer.task_submitted(SimpleNamespace(uid="task.a", attempts=1,
                                                  trace_parent=None))
            for t, state in ((0.0, TaskState.TMGR_SCHEDULING),
                             (1.0, TaskState.AGENT_EXECUTING),
                             (2.0, TaskState.FAILED),
                             (3.0, TaskState.RESCHEDULING)):
                self._advance(session, t)
                session.profiler.record(t, "task.a", f"state:{state}", "t")
            root, *phases = tracer.spans
            reschedule = phases[-1]
            assert reschedule.name == "reschedule" and reschedule.end is None
            # the rows keep the raw value; no dict is built until read
            assert (tracer._attr[root.span_id - 1],
                    tracer._attr[reschedule.span_id - 1]) == ("task.a", 1)
            assert tracer._attrs == {}
            assert root.attrs is root.attrs
            assert reschedule.attrs is reschedule.attrs
            reschedule.attrs["note"] = "read while open"
            root.set_attr("status", "done")
            # the replay reads the attempt off a built dict as well
            self._advance(session, 4.0)
            session.profiler.record(4.0, "task.a", "state:TMGR_SCHEDULING",
                                    "t")
            tracer.task_completed("task.a")
            spans = tracer.spans
            assert (spans[-1].name, spans[-1].attrs) == \
                ("schedule", {"attempt": 2})
            want = {root.span_id: {"uid": "task.a", "status": "done"},
                    reschedule.span_id: {"attempt": 1,
                                         "note": "read while open"}}
            for span_id, attrs in want.items():
                (span,) = [s for s in spans if s.span_id == span_id]
                assert span.as_dict()["attrs"] == attrs
            path = tmp_path / "spans.jsonl"
            tracer.to_jsonl(str(path))
            lines = {line["span_id"]: line["attrs"] for line in
                     map(json.loads, path.read_text().splitlines())}
            args = {e["args"]["span_id"]: e["args"]
                    for e in tracer.chrome_trace_events() if e["ph"] == "X"}
            for span_id, attrs in want.items():
                assert lines[span_id] == attrs
                assert attrs.items() <= args[span_id].items()
