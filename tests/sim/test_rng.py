"""Tests for deterministic named RNG streams."""

import numpy as np

from repro.sim import RngHub


class TestRngHub:
    def test_same_name_same_sequence_across_hubs(self):
        a = RngHub(seed=7).stream("fabric").random(5)
        b = RngHub(seed=7).stream("fabric").random(5)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        hub = RngHub(seed=7)
        a = hub.stream("fabric").random(5)
        b = hub.stream("launch").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngHub(seed=1).stream("x").random(5)
        b = RngHub(seed=2).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        hub = RngHub(seed=0)
        assert hub.stream("a") is hub.stream("a")

    def test_draw_order_in_one_stream_does_not_affect_other(self):
        hub1 = RngHub(seed=9)
        hub1.stream("noisy").random(1000)  # heavy use of one stream
        a = hub1.stream("quiet").random(4)
        hub2 = RngHub(seed=9)
        b = hub2.stream("quiet").random(4)
        assert np.array_equal(a, b)
