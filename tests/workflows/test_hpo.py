"""Tests for the HPO module (search space, samplers, study)."""

import numpy as np
import pytest

from repro.workflows import (
    ChoiceParam,
    FloatParam,
    IntParam,
    RandomSampler,
    SearchSpace,
    Study,
    TpeSampler,
)


SPACE = SearchSpace([
    FloatParam("lr", 1e-4, 1e-1, log=True),
    IntParam("batch", 4, 64),
    ChoiceParam("act", ("relu", "tanh")),
])


class TestParams:
    def test_float_bounds(self):
        rng = np.random.default_rng(0)
        param = FloatParam("x", 0.5, 2.0)
        samples = [param.sample(rng) for _ in range(200)]
        assert all(0.5 <= s <= 2.0 for s in samples)

    def test_log_scale_spreads_orders_of_magnitude(self):
        rng = np.random.default_rng(0)
        param = FloatParam("x", 1e-5, 1e-1, log=True)
        samples = np.array([param.sample(rng) for _ in range(500)])
        assert (samples < 1e-3).mean() > 0.3  # log scale visits small values

    def test_int_param(self):
        rng = np.random.default_rng(0)
        param = IntParam("n", 2, 5)
        samples = {param.sample(rng) for _ in range(200)}
        assert samples == {2, 3, 4, 5}

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            FloatParam("x", 2.0, 1.0)
        with pytest.raises(ValueError):
            FloatParam("x", -1.0, 1.0, log=True)
        with pytest.raises(ValueError):
            IntParam("n", 5, 5)
        with pytest.raises(ValueError):
            ChoiceParam("c", ("only",))

    def test_space_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SearchSpace([FloatParam("x", 0, 1), IntParam("x", 0, 2)])

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace([])


def quadratic(params):
    """Objective: minimum at lr=1e-2, batch=32."""
    return (np.log10(params["lr"]) + 2) ** 2 + \
        ((params["batch"] - 32) / 32) ** 2


class TestStudy:
    def test_ask_tell_cycle(self):
        study = Study(SPACE, RandomSampler(seed=0))
        trial = study.ask()
        assert trial.state == "RUNNING"
        study.tell(trial, 1.0)
        assert trial.is_complete
        assert study.best_value == 1.0

    def test_double_tell_rejected(self):
        study = Study(SPACE, RandomSampler(seed=0))
        trial = study.ask()
        study.tell(trial, 1.0)
        with pytest.raises(ValueError):
            study.tell(trial, 2.0)

    def test_failed_trials_excluded_from_best(self):
        study = Study(SPACE, RandomSampler(seed=0))
        t1, t2 = study.ask(), study.ask()
        study.tell(t1, None, failed=True)
        study.tell(t2, 3.0)
        assert study.best_trial is t2

    def test_no_complete_trials_raises(self):
        study = Study(SPACE, RandomSampler(seed=0))
        with pytest.raises(ValueError):
            _ = study.best_trial

    def test_maximize_direction(self):
        study = Study(SPACE, RandomSampler(seed=0), direction="maximize")
        t1, t2 = study.ask(), study.ask()
        study.tell(t1, 0.2)
        study.tell(t2, 0.9)
        assert study.best_trial is t2

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            Study(SPACE, direction="sideways")


class TestSamplers:
    def _optimise(self, sampler, n_trials=40):
        study = Study(SPACE, sampler)
        for _ in range(n_trials):
            trial = study.ask()
            study.tell(trial, quadratic(trial.params))
        return study

    def test_random_search_finds_decent_point(self):
        study = self._optimise(RandomSampler(seed=1))
        assert study.best_value < 1.0

    def test_tpe_beats_or_matches_random(self):
        """Averaged over seeds, TPE should at least roughly match random."""
        tpe_scores = [self._optimise(TpeSampler(seed=s)).best_value
                      for s in range(8)]
        rnd_scores = [self._optimise(RandomSampler(seed=s)).best_value
                      for s in range(8)]
        assert np.mean(tpe_scores) <= np.mean(rnd_scores) * 1.25

    def test_tpe_startup_phase_is_random(self):
        sampler = TpeSampler(seed=0, n_startup=5)
        study = Study(SPACE, sampler)
        for _ in range(3):
            trial = study.ask()  # no completed trials yet: must not crash
            study.tell(trial, 1.0)

    def test_tpe_handles_constant_values(self):
        sampler = TpeSampler(seed=0, n_startup=2)
        study = Study(SPACE, sampler)
        for _ in range(10):
            trial = study.ask()
            study.tell(trial, 5.0)  # all identical objectives
        assert len(study.trials) == 10

    def test_tpe_validation(self):
        with pytest.raises(ValueError):
            TpeSampler(gamma=0.0)
