"""The metrics plane: instruments, registry, and the sampling daemon."""

import pytest

from repro import ObservabilityConfig, Session
from repro.observability import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter("hits", ())
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_set_inc_dec(self):
        g = Gauge("depth", ())
        g.set(4)
        g.inc()
        g.dec()
        g.dec()
        assert g.value == 3.0

    def test_histogram_buckets_and_overflow(self):
        h = Histogram("lat", (), buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 3.0, 100.0):
            h.observe(v)
        # value == bound lands in that bound's bucket (le semantics)
        assert h.counts == [2, 0, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(104.5)
        assert h.mean == pytest.approx(104.5 / 4)

    def test_histogram_quantile(self):
        h = Histogram("lat", (), buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 0.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 4.0
        # overflow values report the last finite bound
        h.observe(1e9)
        assert h.quantile(1.0) == 4.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty_histogram(self):
        h = Histogram("lat", ())
        assert h.mean == 0.0
        assert h.quantile(0.9) == 0.0
        with pytest.raises(ValueError):
            Histogram("bad", (), buckets=())

    def test_quantile_rank_semantics(self):
        # the q-quantile of n observations is the max(1, ceil(q*n))-th
        # smallest: q=0 pins the minimum's bucket, q=1 the maximum's
        h = Histogram("lat", (), buckets=(1.0, 2.0, 4.0, 8.0))
        for v in (3.0, 5.0, 7.0):
            h.observe(v)
        assert h.quantile(0.0) == 4.0  # min is 3.0, not the empty 1.0
        assert h.quantile(1.0) == 8.0
        # exact rank products must not be inflated by ceil():
        # q=1/3 of 3 observations is rank 1 exactly
        assert h.quantile(1.0 / 3.0) == 4.0
        assert h.quantile(2.0 / 3.0) == 8.0

    def test_quantile_single_observation_answers_every_q(self):
        h = Histogram("lat", (), buckets=(1.0, 2.0, 4.0))
        h.observe(3.0)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 4.0

    def test_quantile_exact_bucket_edges_five_observations(self):
        h = Histogram("lat", (), buckets=(1.0, 2.0, 3.0, 4.0, 5.0))
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            h.observe(v)
        # q=0.2 of 5 observations is rank 1 (the minimum), not rank 2
        assert h.quantile(0.2) == 1.0
        assert h.quantile(0.4) == 2.0
        assert h.quantile(0.6) == 3.0
        assert h.quantile(0.8) == 4.0
        assert h.quantile(0.5) == 3.0  # rank ceil(2.5) = 3


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x", {"k": "v"})
        b = reg.counter("x", {"k": "v"})
        assert a is b
        # label order does not matter
        g1 = reg.gauge("g", {"a": "1", "b": "2"})
        g2 = reg.gauge("g", {"b": "2", "a": "1"})
        assert g1 is g2

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_distinct_labels_are_distinct_instruments(self):
        reg = MetricsRegistry()
        reg.counter("x", {"k": "a"}).inc()
        reg.counter("x", {"k": "b"}).inc(2)
        assert reg.value("x", {"k": "a"}) == 1.0
        assert reg.value("x", {"k": "b"}) == 2.0
        assert reg.value("x", {"k": "missing"}) is None
        assert len(reg.instruments("x")) == 2

    def test_sample_builds_series_and_runs_polls(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        source = {"v": 0.0}
        reg.add_poll(lambda: g.set(source["v"]))
        for t, v in [(1.0, 3.0), (2.0, 7.0)]:
            source["v"] = v
            reg.sample(t)
        assert reg.sample_times == [1.0, 2.0]
        assert reg.series_for("depth") == [(1.0, 3.0), (2.0, 7.0)]

    def test_histogram_sampled_as_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(0.5)
        h.observe(0.7)
        reg.sample(1.0)
        assert reg.series_for("lat") == [(1.0, 2.0)]

    def test_series_by_name_groups_labels(self):
        reg = MetricsRegistry()
        reg.gauge("q", {"s": "a"}).set(1)
        reg.gauge("q", {"s": "b"}).set(2)
        reg.sample(0.0)
        by = reg.series_by_name("q")
        assert set(by) == {(("s", "a"),), (("s", "b"),)}


class TestSamplingDaemon:
    def test_samples_at_interval_and_final_sample_at_quiesce(self):
        with Session(seed=1, observability=ObservabilityConfig(
                tracing=False, monitors=False,
                sample_interval_s=5.0)) as session:
            session.run(until=session.engine.timeout(12.0))
            reg = session.observability.metrics
            assert reg.sample_times == [5.0, 10.0]
            session.quiesce()
            session.run()
            # final sample at the quiesce time; the armed timer is
            # cancelled so the drain does not advance the clock to t=15
            assert reg.sample_times == [5.0, 10.0, 12.0]
            assert session.now == 12.0
