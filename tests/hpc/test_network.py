"""Tests for the network fabric latency/bandwidth model."""

import numpy as np
import pytest

from repro.hpc import DELTA, FRONTIER, R3, Fabric
from repro.hpc.network import DEFAULT_WAN_BANDWIDTH_GBPS, DEFAULT_WAN_LATENCY
from repro.sim import RngHub


@pytest.fixture
def fabric():
    fab = Fabric(RngHub(0).stream("fabric"))
    fab.add_platform(DELTA)
    fab.add_platform(R3)
    return fab


class TestRoutes:
    def test_intra_platform_uses_platform_latency(self, fabric):
        samples = [fabric.latency("delta", "delta") for _ in range(2000)]
        assert np.mean(samples) == pytest.approx(0.063e-3, rel=0.1)

    def test_inter_platform_defaults_to_wan(self, fabric):
        samples = [fabric.latency("delta", "r3") for _ in range(2000)]
        assert np.mean(samples) == pytest.approx(0.47e-3, rel=0.1)

    def test_remote_latency_exceeds_local(self, fabric):
        local = np.mean([fabric.latency("delta", "delta") for _ in range(500)])
        remote = np.mean([fabric.latency("delta", "r3") for _ in range(500)])
        assert remote > local * 3

    def test_route_symmetry(self, fabric):
        assert fabric.route("delta", "r3") is fabric.route("r3", "delta")

    def test_every_cross_platform_route_is_the_wan_link(self, fabric):
        fabric.add_platform(FRONTIER)
        names = ["delta", "frontier", "r3"]
        for a in names:
            for b in names:
                route = fabric.route(a, b)
                if a == b:
                    assert route.latency is not DEFAULT_WAN_LATENCY
                    continue
                assert route.latency is DEFAULT_WAN_LATENCY
                assert route.bandwidth_gbps == DEFAULT_WAN_BANDWIDTH_GBPS
                assert route is fabric.route(b, a)

    def test_unregistered_platform_raises(self, fabric):
        with pytest.raises(KeyError, match="not registered"):
            fabric.latency("delta", "anvil")
        with pytest.raises(KeyError, match="not registered"):
            fabric.latency("anvil", "anvil")


class TestTransfers:
    def test_transfer_time_includes_bandwidth_term(self, fabric):
        one_gb = 1e9
        t = fabric.transfer_time("delta", "r3", one_gb)
        # WAN default bandwidth is 1 GB/s -> ~1 s plus sub-ms latency
        assert t == pytest.approx(1.0, rel=0.01)

    def test_zero_bytes_is_just_latency(self, fabric):
        t = fabric.transfer_time("delta", "delta", 0)
        assert 0 < t < 1e-3

    def test_negative_bytes_rejected(self, fabric):
        with pytest.raises(ValueError):
            fabric.transfer_time("delta", "r3", -1)

    def test_local_transfer_faster_than_wan(self, fabric):
        nbytes = 10e9
        local = fabric.transfer_time("delta", "delta", nbytes)
        wan = fabric.transfer_time("delta", "r3", nbytes)
        assert local < wan

    def test_default_wan_matches_paper(self):
        assert DEFAULT_WAN_LATENCY.mean_ms == pytest.approx(0.47)
        assert DEFAULT_WAN_LATENCY.std_ms == pytest.approx(0.04)
