"""Hyperparameter optimisation: the Optuna stand-in.

The Cell Painting pipeline drives training "by hyperparameter optimization
using the Optuna framework ... exploring various hyperparameter
configurations (e.g., learning rate, batch size, weight decay, and dropout
rate)" (§II-A).  This module provides an ask/tell optimiser with two
samplers:

* :class:`RandomSampler` -- uniform over the space (baseline);
* :class:`TpeSampler`    -- a Tree-structured-Parzen-Estimator-style
  sampler: candidates are drawn and ranked by the density ratio of "good"
  (top-quantile) vs "bad" observations, estimated with gaussian KDEs
  (scipy) per dimension.

Ask/tell decouples trial generation from execution, which is what lets the
pipeline evaluate trials *concurrently* as runtime tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FloatParam",
    "IntParam",
    "ChoiceParam",
    "SearchSpace",
    "Trial",
    "RandomSampler",
    "TpeSampler",
    "Study",
]


@dataclass(frozen=True)
class FloatParam:
    """Continuous parameter, optionally sampled on a log scale."""

    name: str
    low: float
    high: float
    log: bool = False

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"{self.name}: low must be < high")
        if self.log and self.low <= 0:
            raise ValueError(f"{self.name}: log scale requires low > 0")

    def sample(self, rng) -> float:
        if self.log:
            return float(np.exp(rng.uniform(np.log(self.low),
                                            np.log(self.high))))
        return float(rng.uniform(self.low, self.high))

    def to_unit(self, value: float) -> float:
        """Map to [0, 1] for KDE modelling."""
        if self.log:
            return (math.log(value) - math.log(self.low)) / \
                (math.log(self.high) - math.log(self.low))
        return (value - self.low) / (self.high - self.low)


@dataclass(frozen=True)
class IntParam:
    """Integer parameter (inclusive bounds)."""

    name: str
    low: int
    high: int

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"{self.name}: low must be < high")

    def sample(self, rng) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def to_unit(self, value: int) -> float:
        return (value - self.low) / (self.high - self.low)


@dataclass(frozen=True)
class ChoiceParam:
    """Categorical parameter."""

    name: str
    choices: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if len(self.choices) < 2:
            raise ValueError(f"{self.name}: need >= 2 choices")

    def sample(self, rng) -> Any:
        return self.choices[int(rng.integers(len(self.choices)))]


class SearchSpace:
    """An ordered collection of parameters."""

    def __init__(self, params: Sequence) -> None:
        if not params:
            raise ValueError("empty search space")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.params = list(params)

    def sample(self, rng) -> Dict[str, Any]:
        return {p.name: p.sample(rng) for p in self.params}

    @property
    def numeric_params(self) -> List:
        return [p for p in self.params
                if isinstance(p, (FloatParam, IntParam))]


@dataclass
class Trial:
    """One HPO trial: parameters plus (eventually) an objective value."""

    number: int
    params: Dict[str, Any]
    value: Optional[float] = None
    state: str = "RUNNING"   # RUNNING | COMPLETE | FAILED

    @property
    def is_complete(self) -> bool:
        return self.state == "COMPLETE"


class RandomSampler:
    """Uniform random search."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)

    def suggest(self, space: SearchSpace, trials: List[Trial]) -> Dict[str, Any]:
        return space.sample(self._rng)


class TpeSampler:
    """TPE-style sampler: maximise the good/bad KDE density ratio.

    After ``n_startup`` random trials, candidates are scored by
    ``l(x)/g(x)`` where ``l`` models the top ``gamma`` quantile of completed
    trials and ``g`` the rest, per numeric dimension (categoricals fall back
    to sampling from the good set's empirical distribution).
    """

    name = "tpe"

    def __init__(self, seed: int = 0, n_startup: int = 8,
                 gamma: float = 0.25, n_candidates: int = 24) -> None:
        if not 0 < gamma < 1:
            raise ValueError("gamma must be in (0, 1)")
        self._rng = np.random.default_rng(seed)
        self.n_startup = n_startup
        self.gamma = gamma
        self.n_candidates = n_candidates

    def suggest(self, space: SearchSpace, trials: List[Trial]) -> Dict[str, Any]:
        complete = [t for t in trials if t.is_complete]
        if len(complete) < self.n_startup:
            return space.sample(self._rng)

        complete.sort(key=lambda t: t.value)  # minimisation
        n_good = max(2, int(self.gamma * len(complete)))
        good, bad = complete[:n_good], complete[n_good:]
        if len(bad) < 2:
            return space.sample(self._rng)

        candidates = [space.sample(self._rng)
                      for _ in range(self.n_candidates)]
        scores = np.zeros(len(candidates))
        for param in space.numeric_params:
            good_units = np.array([param.to_unit(t.params[param.name])
                                   for t in good], dtype=float)
            bad_units = np.array([param.to_unit(t.params[param.name])
                                  for t in bad], dtype=float)
            l_kde = self._kde(good_units)
            g_kde = self._kde(bad_units)
            for i, cand in enumerate(candidates):
                u = param.to_unit(cand[param.name])
                scores[i] += (np.log(max(l_kde(u), 1e-12))
                              - np.log(max(g_kde(u), 1e-12)))
        # Categoricals: bias candidates toward good choices.
        for param in space.params:
            if isinstance(param, ChoiceParam):
                good_choices = [t.params[param.name] for t in good]
                for i, cand in enumerate(candidates):
                    freq = good_choices.count(cand[param.name]) / len(good)
                    scores[i] += np.log(max(freq, 1.0 / (2 * len(good))))
        return candidates[int(np.argmax(scores))]

    @staticmethod
    def _kde(units: np.ndarray):
        """1-D KDE robust to degenerate (constant) samples."""
        if np.allclose(units, units[0]):
            center = units[0]
            return lambda u: math.exp(-0.5 * ((u - center) / 0.1) ** 2)
        # scipy.stats takes ~1 s to import: load it on first use only,
        # not with every ``import repro.workflows``
        from scipy.stats import gaussian_kde

        kde = gaussian_kde(units, bw_method=0.3)
        return lambda u: float(kde(u)[0])


class Study:
    """Ask/tell optimisation study (minimisation)."""

    def __init__(self, space: SearchSpace, sampler=None,
                 direction: str = "minimize") -> None:
        if direction not in ("minimize", "maximize"):
            raise ValueError("direction must be minimize or maximize")
        self.space = space
        self.sampler = sampler or RandomSampler()
        self.direction = direction
        self.trials: List[Trial] = []

    def ask(self) -> Trial:
        """Create a new trial with sampler-suggested parameters."""
        internal = [self._internal(t) for t in self.trials]
        params = self.sampler.suggest(self.space, internal)
        trial = Trial(number=len(self.trials), params=params)
        self.trials.append(trial)
        return trial

    def tell(self, trial: Trial, value: Optional[float],
             failed: bool = False) -> None:
        """Report a trial's objective (or failure)."""
        if trial.state != "RUNNING":
            raise ValueError(f"trial {trial.number} already told")
        if failed or value is None:
            trial.state = "FAILED"
            return
        trial.value = float(value)
        trial.state = "COMPLETE"

    def _internal(self, trial: Trial) -> Trial:
        """View of a trial with value sign-flipped for maximisation."""
        if self.direction == "maximize" and trial.value is not None:
            flipped = Trial(trial.number, trial.params, -trial.value,
                            trial.state)
            return flipped
        return trial

    @property
    def best_trial(self) -> Trial:
        complete = [t for t in self.trials if t.is_complete]
        if not complete:
            raise ValueError("no completed trials")
        if self.direction == "minimize":
            return min(complete, key=lambda t: t.value)
        return max(complete, key=lambda t: t.value)

    @property
    def best_value(self) -> float:
        return self.best_trial.value
