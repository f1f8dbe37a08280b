"""Tests for load-balancing policies."""

import pytest

from repro.comm.message import Address, LoadReport
from repro.core import (
    JoinShortestQueueBalancer,
    LeastLoadedBalancer,
    RandomBalancer,
    RoundRobinBalancer,
    create_balancer,
)
from repro.sim import RngHub


TARGETS = [Address(f"svc.{i}", "delta") for i in range(4)]


class FakeRegistry:
    """Registry stub serving canned LoadReports by address."""

    def __init__(self, reports=None):
        self.reports = reports or {}

    def set(self, target, queue_depth=0, in_flight=0, workers=1,
            max_batch_size=1, ewma=1.0):
        self.reports[target] = LoadReport(
            uid=target.name, t=0.0, queue_depth=queue_depth,
            in_flight=in_flight, ewma_service_s=ewma, handled=0, shed=0,
            workers=workers, max_batch_size=max_batch_size)

    def load_for(self, target):
        return self.reports.get(target)


class TestRoundRobin:
    def test_cycles_through_targets(self):
        lb = RoundRobinBalancer()
        picks = [lb.pick(TARGETS) for _ in range(8)]
        assert picks == TARGETS + TARGETS

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinBalancer().pick([])

    def test_handles_target_list_growth(self):
        lb = RoundRobinBalancer()
        lb.pick(TARGETS[:2])
        lb.pick(TARGETS[:2])
        pick = lb.pick(TARGETS)  # now 4 targets
        assert pick in TARGETS


class TestRandom:
    def test_uniformish_distribution(self):
        lb = RandomBalancer(RngHub(0).stream("lb"))
        counts = {t: 0 for t in TARGETS}
        for _ in range(4000):
            counts[lb.pick(TARGETS)] += 1
        for count in counts.values():
            assert 800 < count < 1200

    def test_deterministic_with_seed(self):
        a = RandomBalancer(RngHub(5).stream("lb"))
        b = RandomBalancer(RngHub(5).stream("lb"))
        assert [a.pick(TARGETS) for _ in range(10)] == \
            [b.pick(TARGETS) for _ in range(10)]


class TestLeastLoaded:
    def test_prefers_idle_instance(self):
        lb = LeastLoadedBalancer()
        lb.record_start(TARGETS[0])
        lb.record_start(TARGETS[1])
        pick = lb.pick(TARGETS[:3])
        assert pick == TARGETS[2]

    def test_ties_rotate(self):
        lb = LeastLoadedBalancer()
        picks = {lb.pick(TARGETS) for _ in range(4)}
        assert picks == set(TARGETS)

    def test_done_decrements(self):
        lb = LeastLoadedBalancer()
        lb.record_start(TARGETS[0])
        lb.record_done(TARGETS[0])
        assert lb.load_of(TARGETS[0]) == 0

    def test_done_never_goes_negative(self):
        lb = LeastLoadedBalancer()
        lb.record_done(TARGETS[0])
        assert lb.load_of(TARGETS[0]) == 0

    def test_skews_away_from_slow_instance(self):
        lb = LeastLoadedBalancer()
        # target 0 is "slow": requests to it never complete
        picks = []
        for _ in range(12):
            t = lb.pick(TARGETS[:2])
            lb.record_start(t)
            picks.append(t)
            if t != TARGETS[0]:
                lb.record_done(t)
        assert picks.count(TARGETS[0]) < picks.count(TARGETS[1])


class TestLeastLoadedWithTelemetry:
    def test_published_backlog_counts(self):
        """Load caused by *other* clients (visible only via telemetry)
        steers a telemetry-aware least-loaded balancer."""
        registry = FakeRegistry()
        registry.set(TARGETS[0], queue_depth=3, in_flight=1)
        registry.set(TARGETS[1], queue_depth=0, in_flight=0)
        lb = LeastLoadedBalancer(registry=registry)
        assert lb.pick(TARGETS[:2]) == TARGETS[1]

    def test_local_in_flight_added_to_published(self):
        registry = FakeRegistry()
        registry.set(TARGETS[0], queue_depth=0)
        registry.set(TARGETS[1], queue_depth=1)
        lb = LeastLoadedBalancer(registry=registry)
        # two locally-routed, unreported requests tip the balance
        lb.record_start(TARGETS[0])
        lb.record_start(TARGETS[0])
        assert lb.pick(TARGETS[:2]) == TARGETS[1]


class TestJoinShortestQueue:
    def test_requires_registry(self):
        with pytest.raises(ValueError):
            JoinShortestQueueBalancer(None)

    def test_prefers_shortest_queue(self):
        registry = FakeRegistry()
        registry.set(TARGETS[0], queue_depth=4)
        registry.set(TARGETS[1], queue_depth=1)
        registry.set(TARGETS[2], queue_depth=2)
        lb = JoinShortestQueueBalancer(registry)
        assert lb.pick(TARGETS[:3]) == TARGETS[1]

    def test_capacity_normalisation(self):
        """A batching instance with a longer queue still wins: its queue
        drains in fewer dispatch rounds."""
        registry = FakeRegistry()
        registry.set(TARGETS[0], queue_depth=2, workers=1, max_batch_size=1)
        registry.set(TARGETS[1], queue_depth=8, workers=1, max_batch_size=8)
        lb = JoinShortestQueueBalancer(registry)
        assert lb.pick(TARGETS[:2]) == TARGETS[1]

    def test_cold_fleet_degrades_to_local_least_loaded(self):
        lb = JoinShortestQueueBalancer(FakeRegistry())
        lb.record_start(TARGETS[0])
        assert lb.pick(TARGETS[:2]) == TARGETS[1]

    def test_ties_rotate(self):
        registry = FakeRegistry()
        for t in TARGETS:
            registry.set(t, queue_depth=1)
        lb = JoinShortestQueueBalancer(registry)
        assert {lb.pick(TARGETS) for _ in range(4)} == set(TARGETS)


class TestFactory:
    def test_create_known(self):
        assert create_balancer("round-robin").name == "round-robin"
        assert create_balancer("least-loaded").name == "least-loaded"
        assert create_balancer(
            "join-shortest-queue",
            registry=FakeRegistry()).name == "join-shortest-queue"

    def test_random_needs_rng(self):
        """A random balancer draws from the rng it is built with; the
        factory, which has none to give, does not make one."""
        assert RandomBalancer(RngHub(0).stream("x")).name == "random"
        with pytest.raises(KeyError):
            create_balancer("random")

    def test_jsq_needs_registry(self):
        with pytest.raises(ValueError):
            create_balancer("join-shortest-queue")

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            create_balancer("quantum")
