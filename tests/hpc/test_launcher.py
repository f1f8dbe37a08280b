"""Tests for launch-method cost models (the Fig. 3 'knee')."""

import numpy as np
import pytest

from repro.hpc import ForkLauncher, MpiexecLauncher, SshLauncher, get_launcher
from repro.sim import RngHub


def mean_launch(launcher, n, rng, reps=200):
    return float(np.mean([launcher.launch_time(n, rng) for _ in range(reps)]))


class TestMpiexecKnee:
    def test_flat_up_to_knee(self):
        rng = RngHub(0).stream("l")
        lm = MpiexecLauncher()
        at_1 = mean_launch(lm, 1, rng)
        at_160 = mean_launch(lm, 160, rng)
        assert at_160 == pytest.approx(at_1, rel=0.15)

    def test_grows_beyond_knee(self):
        rng = RngHub(0).stream("l")
        lm = MpiexecLauncher()
        at_160 = mean_launch(lm, 160, rng)
        at_320 = mean_launch(lm, 320, rng)
        at_640 = mean_launch(lm, 640, rng)
        assert at_320 > at_160 * 1.5
        assert at_640 > at_320

    def test_monotone_growth_in_tail(self, monkeypatch):
        monkeypatch.setattr(MpiexecLauncher, "jitter_s", 0.0)
        rng = RngHub(1).stream("l")
        lm = MpiexecLauncher()
        values = [lm.launch_time(n, rng) for n in (161, 200, 400, 640)]
        assert values == sorted(values)

    def test_positive_and_validates(self):
        rng = RngHub(2).stream("l")
        lm = MpiexecLauncher()
        assert lm.launch_time(1, rng) > 0
        with pytest.raises(ValueError):
            lm.launch_time(0, rng)


class TestOtherLaunchers:
    def test_ssh_linear_growth_no_knee(self, monkeypatch):
        monkeypatch.setattr(SshLauncher, "jitter_s", 0.0)
        rng = RngHub(3).stream("l")
        lm = SshLauncher()
        at_1 = lm.launch_time(1, rng)
        at_501 = lm.launch_time(501, rng)
        assert at_501 - at_1 == pytest.approx(500 * lm.per_peer_s, rel=0.01)

    def test_fork_flat(self):
        rng = RngHub(4).stream("l")
        lm = ForkLauncher()
        a = mean_launch(lm, 1, rng)
        b = mean_launch(lm, 640, rng)
        assert b == pytest.approx(a, rel=0.2)

    def test_relative_cost_ordering(self):
        rng = RngHub(5).stream("l")
        fork = mean_launch(ForkLauncher(), 10, rng)
        ssh = mean_launch(SshLauncher(), 10, rng)
        mpi = mean_launch(MpiexecLauncher(), 10, rng)
        assert fork < ssh < mpi


class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert get_launcher("mpiexec").name == "MPIEXEC"
        assert get_launcher("FORK").name == "FORK"

    def test_unknown_launcher(self):
        with pytest.raises(KeyError):
            get_launcher("srun-turbo")
