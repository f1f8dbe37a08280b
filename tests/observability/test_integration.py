"""End-to-end telemetry: a real campaign run with every plane enabled."""

import json

import pytest

from repro import (
    ObservabilityConfig,
    PilotDescription,
    PilotManager,
    Session,
    TaskManager,
)
from repro.pilot.description import StagingDirective, TaskDescription
from repro.pilot.states import TaskState
from repro.workflows import CampaignGraph, TaskNode


def sim_task(name, duration, **kwargs):
    return TaskDescription(name=name, executable="sim",
                           duration_s=float(duration), **kwargs)


@pytest.fixture
def env():
    with Session(seed=23, observability=ObservabilityConfig(
            sample_interval_s=2.0)) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        yield session, tmgr, pilot


def drain(session, proc=None):
    """Run to *proc* (or the task wait event), then quiesce and drain."""
    session.run(until=proc)
    session.quiesce()
    session.run()


class TestCampaignTrace:
    @pytest.fixture
    def run(self, env):
        session, tmgr, pilot = env
        graph = CampaignGraph(name="demo", nodes=[
            TaskNode(name="a",
                     build=lambda c: [sim_task(f"a{i}", 4.0)
                                      for i in range(4)]),
            TaskNode(name="b", deps=("a",),
                     build=lambda c: [sim_task(f"b{i}", 3.0)
                                      for i in range(3)]),
        ])
        runner = session.campaign_runner(tmgr)
        proc = session.engine.process(runner.run_campaign([graph]))
        drain(session, proc)
        return session, runner, pilot

    def test_every_done_task_has_a_full_lifecycle(self, run):
        session, runner, _ = run
        tracer = session.observability.tracer
        tasks = [t for tasks in runner.node_tasks.values() for t in tasks]
        assert len(tasks) == 7
        assert all(t.state == TaskState.DONE for t in tasks)
        for task in tasks:
            (root,) = tracer.find(name=task.uid, category="task")
            phases = [s for s in tracer.spans
                      if s.parent_id == root.span_id]
            names = [s.name for s in phases]
            for required in ("submit", "schedule", "agent_queue", "execute"):
                assert required in names, (task.uid, names)
            assert all(s.end is not None for s in phases)
            assert root.end is not None
            # phases tile the root span in order
            assert phases[0].start == root.start
            for prev, cur in zip(phases, phases[1:]):
                assert prev.end == cur.start

    def test_task_roots_are_parented_on_campaign_nodes(self, run):
        session, runner, _ = run
        tracer = session.observability.tracer
        (camp,) = tracer.find(category="campaign")
        node_spans = {s.name: s for s in tracer.find(category="campaign_node")}
        assert set(node_spans) == {"demo/a", "demo/b"}
        for span in node_spans.values():
            assert span.parent_id == camp.span_id
            assert span.trace_id == camp.trace_id
            assert span.end is not None
            assert span.attrs["status"] == "done"
        for key, tasks in runner.node_tasks.items():
            for task in tasks:
                (root,) = tracer.find(name=task.uid, category="task")
                assert root.parent_id == node_spans[key].span_id
                assert root.trace_id == camp.trace_id

    def test_chrome_export_is_valid_and_complete(self, run, tmp_path):
        session, runner, _ = run
        tracer = session.observability.tracer
        path = tmp_path / "trace.json"
        assert tracer.to_chrome_trace(str(path)) == len(tracer.spans)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(tracer.spans)
        for e in complete:
            assert e["dur"] >= 0 and e["ts"] >= 0
            assert e["pid"] == 1 and e["tid"] >= 1
            assert "span_id" in e["args"]
        names = {e["name"] for e in complete}
        for tasks in runner.node_tasks.values():
            assert {t.uid for t in tasks} <= names

    def test_metric_invariants(self, run):
        session, runner, pilot = run
        metrics = session.observability.metrics
        assert len(metrics.sample_times) >= 2

        # utilization is a fraction; busy mid-run, idle again at drain
        util = metrics.series_for("pilot_core_utilization",
                                  {"pilot": pilot.uid})
        assert util and all(0.0 <= v <= 1.0 for _, v in util)
        assert max(v for _, v in util) > 0.0
        assert util[-1][1] == 0.0

        # pending depth returns to zero once the campaign drains
        pending = metrics.series_for("scheduler_pending_total",
                                     {"pilot": pilot.uid})
        assert pending and pending[-1][1] == 0.0

        # one grant latency and one end-to-end latency per task
        assert metrics.histogram(
            "scheduler_grant_latency_s", {"pilot": pilot.uid}).count == 7
        assert metrics.histogram("task_latency_s").count == 7
        assert metrics.value("tasks_completed_total",
                             {"state": "DONE"}) == 7.0

        # the frontier gauge opened and closed with the campaign
        (frontier,) = metrics.series_by_name(
            "campaign_frontier_size").values()
        assert max(v for _, v in frontier) >= 1.0
        assert frontier[-1][1] == 0.0
        (done,) = metrics.instruments("campaign_nodes_completed_total")
        assert done.value == 2.0

    def test_no_spurious_anomalies(self, run):
        session, _, _ = run
        assert session.observability.monitors.events == []


class TestStragglerDetection:
    def test_injected_10x_task_is_flagged(self, env):
        session, tmgr, _ = env
        descriptions = [sim_task(f"fast{i}", 1.0) for i in range(8)]
        descriptions.append(sim_task("slow", 10.0))
        tasks = tmgr.submit_tasks(descriptions)
        drain(session, tmgr.wait_tasks(tasks))
        assert all(t.state == TaskState.DONE for t in tasks)
        slow = next(t for t in tasks if t.description.name == "slow")
        events = session.observability.monitors.of_kind("straggler")
        assert [e.subject for e in events] == [slow.uid]
        assert events[0].details["ratio"] >= 5.0


class TestDataPlane:
    def test_cache_counters_and_transfer_spans(self, env):
        session, tmgr, _ = env
        stage = [StagingDirective(source="dataset.bin", action="transfer",
                                  size_bytes=int(1e9))]
        first = sim_task("t0", 1.0, input_staging=stage)
        tasks = tmgr.submit_tasks([first])
        session.run(until=tmgr.wait_tasks(tasks))
        # same content staged again: warm replica, no second transfer
        second = tmgr.submit_tasks([sim_task("t1", 1.0,
                                             input_staging=stage)])
        drain(session, tmgr.wait_tasks(second))

        obs = session.observability
        assert obs.metrics.value("data_cache_misses_total") == 1.0
        assert obs.metrics.value("data_cache_hits_total") == 1.0
        (moved,) = obs.metrics.instruments("transfer_link_bytes_total")
        assert moved.value == 1e9

        # the one real transfer is a span parented on the task's root
        (span,) = obs.tracer.find(name="transfer", category="data")
        (root,) = obs.tracer.find(name=tasks[0].uid, category="task")
        assert span.parent_id == root.span_id
        assert span.attrs["bytes"] == 1e9
        assert span.end is not None


class TestDetectionLatency:
    def test_lease_expiry_observes_silence_and_emits(self):
        with Session(seed=5, observability=ObservabilityConfig(
                sample_interval_s=100.0)) as session:
            from repro.resilience.detection import HeartbeatMonitor
            monitor = HeartbeatMonitor(session)
            lease = monitor.watch("svc.0", interval_s=1.0, misses=3)
            session.run(until=lease.declared)
            obs = session.observability
            hist = obs.metrics.histogram("detection_silence_s")
            assert hist.count == 1
            assert hist.sum == pytest.approx(3.0)
            (event,) = obs.monitors.of_kind("lease_expired")
            assert event.subject == "svc.0"
            assert event.severity == "critical"


class TestDisabledPlane:
    def test_default_session_has_no_observability(self):
        with Session(seed=1) as session:
            assert session.observability is None
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=1e9))
            tmgr.add_pilots(pilot)
            tasks = tmgr.submit_tasks([sim_task("t", 1.0)])
            session.run(until=tmgr.wait_tasks(tasks))
            assert tasks[0].state == TaskState.DONE

    def test_partial_planes(self):
        with Session(seed=1, observability=ObservabilityConfig(
                tracing=False, monitors=False)) as session:
            obs = session.observability
            assert obs.tracer is None and obs.monitors is None
            assert obs.metrics is not None  # the metrics plane is always on


class TestConfig:
    @pytest.mark.parametrize("interval", [0.0, -5.0, float("nan")])
    @pytest.mark.parametrize("field", ["sample_interval_s",
                                       "dashboard_interval_s"])
    def test_intervals_must_be_positive(self, field, interval):
        """A zero sample interval re-armed the sampler at the same instant
        forever, so ``session.run(until=1.0)`` never returned; the dashboard
        interval was only checked with ``dashboard=True``.  Both are refused
        up front, NaN included."""
        with pytest.raises(ValueError, match=field):
            ObservabilityConfig(**{field: interval})
