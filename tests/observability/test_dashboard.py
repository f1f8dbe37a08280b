"""The live text dashboard: daemon contract, snapshots, end-of-run summary."""

import pytest

from repro import ObservabilityConfig
from repro.observability import AnomalyEvent
from repro.observability.dashboard import Dashboard
from repro.pilot import (
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
)


def advance(session, seconds):
    """Run the clock forward by *seconds* of simulated time."""
    def _sleep():
        yield session.engine.timeout(seconds)
    session.run(until=session.engine.process(_sleep()))


def dash_session(**overrides):
    config = ObservabilityConfig(dashboard=True, dashboard_interval_s=10.0,
                                 sample_interval_s=5.0, **overrides)
    return Session(seed=3, profile="off", observability=config)


class TestDaemonContract:
    def test_periodic_snapshots_then_final_on_quiesce(self):
        with dash_session() as session:
            dash = session.observability.dashboard
            advance(session, 35.0)
            assert len(dash.snapshots) == 3  # t=10, 20, 30
            session.quiesce()
            session.run()
            # the armed t=40 timer is cancelled: one drain-time snapshot,
            # and the daemon does not drag the clock to the next tick
            assert len(dash.snapshots) == 4
            assert session.now == 35.0
            assert "t=35.0s" in dash.snapshots[-1]

    def test_interval_must_be_positive(self):
        with dash_session() as session:
            with pytest.raises(ValueError):
                Dashboard(session, interval_s=0.0)
            session.quiesce()
            session.run()


class TestSnapshotContent:
    def test_instruments_render_by_kind(self):
        with dash_session() as session:
            registry = session.observability.metrics
            registry.gauge("queue_depth", {"queue": "agent"}).set(7.0)
            registry.counter("tasks_total").inc(3.0)
            hist = registry.histogram("latency_s")
            for v in (1.0, 2.0, 3.0):
                hist.observe(v)
            text = session.observability.dashboard.snapshot()
            session.quiesce()
            session.run()
        assert "== telemetry @ t=0.0s ==" in text
        assert "gauge" in text and "queue_depth{queue=agent}" in text
        assert "counter" in text and "tasks_total" in text
        assert "histogram" in text and "count=3" in text
        assert "p50=" in text and "p99=" in text

    def test_empty_registry_notes_no_instruments(self):
        with dash_session() as session:
            text = session.observability.dashboard.snapshot()
            session.quiesce()
            session.run()
        assert "(no instruments registered yet)" in text

    def test_recent_anomalies_rendered_most_recent_last(self):
        with dash_session() as session:
            dash = session.observability.dashboard
            events = session.observability.monitors.events
            for i in range(8):
                events.append(AnomalyEvent(
                    kind="straggler", t=float(i), subject=f"task.{i}",
                    message=f"anomaly {i}"))
            text = dash.snapshot()
            session.quiesce()
            session.run()
        assert "recent anomalies (8 total)" in text
        assert "anomaly 7" in text
        assert "anomaly 2" not in text  # only the last MAX_EVENTS=5 shown
        assert "[ warning]" in text


class TestSummary:
    def test_summary_tables_without_tracing(self):
        with dash_session(tracing=False) as session:
            registry = session.observability.metrics
            registry.gauge("queue_depth").set(2.0)
            advance(session, 30.0)
            session.quiesce()
            session.run()
            text = session.observability.dashboard.summary(title="postmortem")
        assert "postmortem" in text
        assert "instruments" in text and "queue_depth" in text
        assert "samples taken" in text and "snapshots rendered" in text
        assert "anomaly events by kind" in text
        assert "Performance attribution" not in text  # no spans to attribute

    def test_summary_builds_attribution_from_live_tracer(self):
        with dash_session() as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(PilotDescription(
                resource="delta", nodes=1, runtime_s=1e9))
            tmgr.add_pilots(pilot)
            tasks = tmgr.submit_tasks(
                [TaskDescription(executable="x", duration_s=30.0)
                 for _ in range(4)])
            session.run(until=tmgr.wait_tasks(tasks))
            session.quiesce()
            session.run()
            text = session.observability.dashboard.summary()
        assert "Performance attribution" in text
        assert "what-if makespan lower bounds" in text
        assert "tasks_completed_total" in text
