"""The anomaly monitors: stragglers, queue growth, SLO burn."""

from types import SimpleNamespace

import pytest

from repro.observability import (AnomalyEvent, MetricsRegistry, MonitorHub,
                                 monitor)


def stub_task(uid, runtime, cores=1, gpus=0, ranks=1, attempts=1):
    return SimpleNamespace(uid=uid, runtime_s=runtime, n_cores=cores,
                           n_gpus=gpus, attempts=attempts,
                           description=SimpleNamespace(ranks=ranks))


@pytest.fixture
def hub(monkeypatch):
    """A hub under detector constants set for one test: ``hub(slo_window=4)``
    patches ``monitor.SLO_WINDOW``."""
    def make(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(monitor, name.upper(), value)
        return MonitorHub()
    return make


class TestStraggler:
    def test_flags_10x_task(self, hub):
        h = hub(straggler_k=3.0, straggler_min_samples=5)
        for i in range(6):
            h.observe_exec(stub_task(f"t{i}", 1.0), t=float(i))
        h.observe_exec(stub_task("slow", 10.0), t=10.0)
        (event,) = h.of_kind("straggler")
        assert event.subject == "slow"
        assert event.severity == "critical"  # 10x >= 2k with k=3
        assert event.details["ratio"] == 10.0

    def test_needs_min_samples(self, hub):
        h = hub(straggler_min_samples=5)
        for i in range(4):
            h.observe_exec(stub_task(f"t{i}", 1.0), t=float(i))
        h.observe_exec(stub_task("slow", 50.0), t=5.0)
        assert h.of_kind("straggler") == []

    def test_windows_are_per_shape(self, hub):
        h = hub(straggler_min_samples=5)
        for i in range(6):
            h.observe_exec(stub_task(f"a{i}", 1.0, cores=1), t=float(i))
        # 10s is normal for the 64-core shape: its window is empty, so the
        # single-core median must not condemn it
        h.observe_exec(stub_task("mpi", 10.0, cores=64), t=10.0)
        assert h.of_kind("straggler") == []

    def test_slow_sample_joins_window_after_comparison(self, hub):
        h = hub(straggler_k=3.0, straggler_min_samples=5)
        for i in range(5):
            h.observe_exec(stub_task(f"t{i}", 1.0), t=float(i))
        # a burst of slow tasks: each is compared against the still-fast
        # median, so the whole burst is flagged, not just its first member
        h.observe_exec(stub_task("s1", 10.0), t=10.0)
        h.observe_exec(stub_task("s2", 10.0), t=11.0)
        assert [e.subject for e in h.of_kind("straggler")] == ["s1", "s2"]

    def test_unfinished_task_ignored(self, hub):
        h = hub()
        h.observe_exec(stub_task("t", None), t=0.0)
        assert h.events == []


class TestSloBurn:
    def test_burn_alert_and_rearm(self, hub):
        h = hub(slo_latency_s=1.0, slo_window=4, slo_burn_threshold=0.5)
        for i, lat in enumerate([0.5, 2.0, 2.0, 0.5]):
            h.observe_latency(f"t{i}", lat, t=float(i))
        (event,) = h.of_kind("slo_burn")
        assert event.details["burn"] == 0.5
        # the window cleared on alert: the next completion cannot re-alert
        h.observe_latency("t4", 9.0, t=5.0)
        assert len(h.of_kind("slo_burn")) == 1

    def test_disabled_without_objective(self, hub):
        h = hub(slo_latency_s=None)
        for i in range(64):
            h.observe_latency(f"t{i}", 1e9, t=float(i))
        assert h.events == []

    def test_no_alert_below_threshold(self, hub):
        h = hub(slo_latency_s=1.0, slo_window=4, slo_burn_threshold=0.5)
        for i, lat in enumerate([0.5, 2.0, 0.5, 0.5]):
            h.observe_latency(f"t{i}", lat, t=float(i))
        assert h.of_kind("slo_burn") == []


class TestQueueGrowth:
    def _feed(self, h, reg, depths, name="scheduler_pending_total",
              labels=None):
        g = reg.gauge(name, labels or {"pilot": "p"})
        for i, depth in enumerate(depths):
            g.set(depth)
            reg.sample(float(i))
            h.on_sample(reg, float(i))

    def test_monotonic_growth_alerts_once(self, hub):
        h = hub(queue_growth_window=5, queue_growth_min_depth=16.0)
        reg = MetricsRegistry()
        self._feed(h, reg, [1, 4, 8, 16, 32, 64, 128])
        # keeps growing afterwards, but one alert per streak
        (event,) = h.of_kind("queue_growth")
        assert "scheduler_pending_total" in event.subject
        assert event.details["depth"] == 32.0

    def test_realerts_after_dip(self, hub):
        h = hub(queue_growth_window=3, queue_growth_min_depth=4.0)
        reg = MetricsRegistry()
        self._feed(h, reg, [1, 8, 16, 2, 8, 16])
        assert len(h.of_kind("queue_growth")) == 2

    def test_shallow_or_flat_queues_stay_quiet(self, hub):
        h = hub(queue_growth_window=3, queue_growth_min_depth=16.0)
        reg = MetricsRegistry()
        self._feed(h, reg, [1, 2, 3])          # growing but shallow
        self._feed(h, reg, [20, 20, 20],       # deep but flat
                   labels={"pilot": "q"})
        assert h.of_kind("queue_growth") == []


class TestHubPlumbing:
    def test_subscribers_see_emitted_events(self, hub):
        h = hub()
        seen = []
        h.subscribe(seen.append)
        event = AnomalyEvent(kind="custom", t=1.0, subject="x", message="m")
        h.emit(event)
        assert seen == [event] and h.events == [event]
        assert h.of_kind("custom") == [event]
        assert h.of_kind("other") == []
