"""Tests for the platform catalog and latency specs."""

import numpy as np
import pytest

from repro.hpc import (
    DELTA,
    FRONTIER,
    LOCALHOST,
    R3,
    LatencySpec,
    PlatformSpec,
    get_platform,
    register_platform,
)
from repro.sim import RngHub


class TestCatalog:
    def test_known_platforms_resolve(self):
        for name in ("frontier", "delta", "r3", "localhost"):
            assert get_platform(name).name == name

    def test_unknown_platform_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown platform"):
            get_platform("summit")

    def test_frontier_supports_experiment_1_scale(self):
        # Experiment 1 needs 640 GPUs at 1 GPU per service.
        assert FRONTIER.nodes * FRONTIER.gpus_per_node >= 640
        assert FRONTIER.gpus_per_node == 8

    def test_delta_pilot_shape_matches_table_2(self):
        # Table II: 256 cores / 16 GPUs per pilot -> 4 Delta nodes.
        nodes_needed = 16 // DELTA.gpus_per_node
        assert nodes_needed * DELTA.cores_per_node == 256

    def test_local_latency_matches_paper(self):
        assert DELTA.intra_latency.mean_ms == pytest.approx(0.063)
        assert DELTA.intra_latency.std_ms == pytest.approx(0.014)

    def test_totals(self):
        assert LOCALHOST.nodes * LOCALHOST.cores_per_node == 8
        assert R3.nodes * R3.gpus_per_node == 16

    def test_register_custom_platform(self):
        spec = PlatformSpec(
            name="testbox", nodes=2, cores_per_node=4, gpus_per_node=1,
            mem_per_node_gb=8.0,
            intra_latency=LatencySpec(0.1, 0.01))
        register_platform(spec)
        assert get_platform("testbox") is spec
        with pytest.raises(ValueError):
            register_platform(spec)
        register_platform(spec, overwrite=True)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            PlatformSpec(name="bad", nodes=0, cores_per_node=1,
                         gpus_per_node=0, mem_per_node_gb=1.0,
                         intra_latency=LatencySpec(0.1, 0.01))

    def test_with_overrides_copies(self):
        tweaked = DELTA.with_overrides(nodes=10)
        assert tweaked.nodes == 10
        assert DELTA.nodes != 10
        assert tweaked.cores_per_node == DELTA.cores_per_node


class TestLatencySpec:
    def test_sample_units_are_seconds(self):
        rng = RngHub(0).stream("lat")
        spec = LatencySpec(mean_ms=0.47, std_ms=0.04)
        samples = [spec.sample(rng) for _ in range(10_000)]
        assert np.mean(samples) == pytest.approx(0.47e-3, rel=0.05)
        assert np.std(samples) == pytest.approx(0.04e-3, rel=0.10)

    def test_samples_never_below_floor(self):
        rng = RngHub(1).stream("lat")
        spec = LatencySpec(mean_ms=0.01, std_ms=0.5, floor_ms=0.001)
        samples = [spec.sample(rng) for _ in range(10_000)]
        assert np.min(samples) >= 0.001e-3

    def test_scalar_sample(self):
        rng = RngHub(2).stream("lat")
        value = LatencySpec(1.0, 0.1).sample(rng)
        assert np.isscalar(value) or value.shape == ()
        assert value > 0
