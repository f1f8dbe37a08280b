"""Tests for the telemetry-driven Autoscaler."""

import pytest

from repro import (
    Autoscaler,
    ServiceDescription,
    ServiceManager,
    Session,
)
from repro.analytics import run_autoscaled_workload
from repro.core import autoscaler


@pytest.fixture
def policy(monkeypatch):
    """Set autoscaler policy constants for one test: ``policy(
    min_instances=2)`` patches ``autoscaler.MIN_INSTANCES``."""
    def patch(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(autoscaler, name.upper(), value)
    return patch


class TestLifecycle:
    def test_needs_exactly_one_placement(self):
        """The home is one argument: a pilot, or a remote platform name."""
        with Session(seed=0) as session:
            smgr = ServiceManager(session, registry_platform="delta")
            desc = ServiceDescription(model="noop")
            with pytest.raises(TypeError):
                Autoscaler(smgr, desc)  # no home
            remote = Autoscaler(smgr, desc, "r3")
            assert (remote.pilot, remote.remote_platform) == (None, "r3")
            pilot = object()
            local = Autoscaler(smgr, desc, pilot)
            assert (local.pilot, local.remote_platform) == (pilot, None)

    def test_start_ensures_min_instances(self, policy):
        policy(min_instances=3, max_instances=5)
        with Session(seed=0) as session:
            smgr = ServiceManager(session, registry_platform="delta")
            scaler = smgr.start_autoscaler(
                ServiceDescription(model="noop"),
                remote_platform="r3")
            session.run(until=smgr.wait_ready(scaler.handles))
            assert len(scaler._live()) == 3
            assert sum(h.is_ready for h in scaler.handles) == 3
            scaler.stop()

    def test_idle_fleet_stays_at_min(self, policy):
        policy(min_instances=2, max_instances=6, interval_s=2.0)
        with Session(seed=0) as session:
            smgr = ServiceManager(session, registry_platform="delta")
            scaler = smgr.start_autoscaler(
                ServiceDescription(model="noop",
                                   heartbeat_interval_s=2.0),
                remote_platform="r3")
            session.run(until=smgr.wait_ready(scaler.handles))
            session.run(until=session.now + 120.0)
            assert len(scaler._live()) == 2
            assert scaler.scale_events == []
            scaler.stop()


class TestStop:
    def test_stopping_leaves_no_tick_armed(self, policy):
        """``ServiceInstance.stop()`` and ``Autoscaler.stop()`` used to
        leave their next interval timeout on the event queue, so a
        ``run()`` after the stop ran the clock on to that abandoned tick.
        Stopping withdraws the armed tick: once the stopped services and
        the autoscaler have nothing genuine left, the queue is empty."""
        policy(min_instances=2, interval_s=11.0)
        with Session(seed=0) as session:
            smgr = ServiceManager(session, registry_platform="delta")
            scaler = smgr.start_autoscaler(
                ServiceDescription(model="noop", heartbeat_interval_s=7.0),
                remote_platform="r3")
            session.run(until=smgr.wait_ready(scaler.handles))
            session.run(until=session.now + 30.0)
            scaler.stop()
            smgr.stop_services(scaler.handles)
            session.run(until=smgr.wait_stopped(scaler.handles))
            assert session.engine.peek() == float("inf")
            stopped_at = session.now
            session.run()
            assert session.now == stopped_at


class TestElasticity:
    def test_grows_and_shrinks_under_bursty_load(self):
        """Acceptance: a burst grows the fleet toward the SLO; the idle
        window shrinks it back to the minimum."""
        result = run_autoscaled_workload(
            burst_s=120.0, idle_s=240.0, n_bursts=2, seed=3)

        counts = [count for _, count in result.count_trace]
        cfg_min = autoscaler.MIN_INSTANCES
        assert max(counts) > cfg_min              # demonstrably grew
        assert counts[-1] == cfg_min              # ...and shrank back
        directions = [d for _, d, _ in result.scale_events]
        assert "up" in directions and "down" in directions
        # both bursts triggered growth: an 'up' follows a 'down'
        first_down = directions.index("down")
        assert "up" in directions[first_down:]
        # the workload itself completed
        assert result.metrics.n_requests > 0
        assert all(r.ok for c in result.per_client for r in c)

    def test_fixed_fleet_control_shows_the_gap(self):
        """With autoscaling off the same burst piles onto min_instances."""
        elastic = run_autoscaled_workload(
            burst_s=120.0, idle_s=120.0, n_bursts=1, seed=3)
        fixed = run_autoscaled_workload(
            burst_s=120.0, idle_s=120.0, n_bursts=1, seed=3,
            autoscale=False)
        assert fixed.scale_events == []
        assert max(c for _, c in elastic.count_trace) > 1
        # elastic fleet serves more requests in the same wall-clock burst
        assert elastic.metrics.n_requests > fixed.metrics.n_requests
        # and at a lower mean response time
        assert elastic.metrics.rt_stats.mean < fixed.metrics.rt_stats.mean
