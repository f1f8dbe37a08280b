"""UQ methods and calibration metrics for the UQ pipeline (§II-C).

The paper benchmarks "various UQ methods (e.g., Bayesian LoRA, LoRA
ensemble)" over "multiple random seeds for each UQ method" and across
"different large language models such as Llama and Mistral".  At our scale
the fine-tuned adapter is a small classifier head on model-specific
features; the UQ machinery is real:

* :class:`BayesianLinearUQ` ("bayesian-lora") -- MAP logistic regression
  with a diagonal Laplace posterior; predictive uncertainty from Monte
  Carlo weight samples.
* :class:`EnsembleUQ` ("lora-ensemble") -- a deep-ensemble of MLP heads
  differing by initialisation/minibatch seed.

Calibration metrics: negative log-likelihood, expected calibration error,
Brier score, accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .mlp import MLPClassifier, MLPConfig, one_hot, softmax

__all__ = [
    "UQMetrics",
    "evaluate_probs",
    "BayesianLinearUQ",
    "EnsembleUQ",
    "UQ_METHODS",
    "create_uq_method",
]


@dataclass(frozen=True)
class UQMetrics:
    """Calibration/performance summary of one UQ evaluation."""

    accuracy: float
    nll: float
    ece: float
    brier: float

    def as_dict(self) -> Dict[str, float]:
        return {"accuracy": self.accuracy, "nll": self.nll,
                "ece": self.ece, "brier": self.brier}


def expected_calibration_error(probs: np.ndarray, labels: np.ndarray,
                               n_bins: int = 10) -> float:
    """Standard top-label ECE with equal-width confidence bins."""
    confidences = probs.max(axis=1)
    predictions = probs.argmax(axis=1)
    accuracies = (predictions == labels).astype(float)
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    ece = 0.0
    n = len(labels)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (confidences > lo) & (confidences <= hi)
        if not mask.any():
            continue
        ece += mask.sum() / n * abs(accuracies[mask].mean()
                                    - confidences[mask].mean())
    return float(ece)


def evaluate_probs(probs: np.ndarray, labels: np.ndarray) -> UQMetrics:
    """Compute all calibration metrics for predicted probabilities."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ValueError("probs must be (n, k) matching labels")
    n, k = probs.shape
    eps = 1e-12
    picked = np.clip(probs[np.arange(n), labels], eps, None)
    nll = float(-np.log(picked).mean())
    accuracy = float((probs.argmax(axis=1) == labels).mean())
    brier = float(((probs - one_hot(labels, k)) ** 2).sum(axis=1).mean())
    ece = expected_calibration_error(probs, labels)
    return UQMetrics(accuracy=accuracy, nll=nll, ece=ece, brier=brier)


class BayesianLinearUQ:
    """Bayesian multinomial logistic regression via diagonal Laplace.

    MAP training by full-batch gradient descent with L2 prior; the
    posterior over weights is approximated as independent gaussians with
    variance from the diagonal of the (GGN-approximated) Hessian.
    Prediction averages softmax outputs over ``n_samples`` weight draws.
    """

    name = "bayesian-lora"

    def __init__(self, seed: int = 0, prior_precision: float = 1.0,
                 epochs: int = 200, learning_rate: float = 0.5,
                 n_samples: int = 32) -> None:
        self.seed = seed
        self.prior_precision = prior_precision
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.n_samples = n_samples
        self._mean: Optional[np.ndarray] = None  # (d+1, k)
        self._std: Optional[np.ndarray] = None

    @staticmethod
    def _design(X: np.ndarray) -> np.ndarray:
        return np.hstack([X, np.ones((X.shape[0], 1))])

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BayesianLinearUQ":
        X = self._design(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=int)
        n, d = X.shape
        k = int(y.max()) + 1
        Y = one_hot(y, k)
        rng = np.random.default_rng(self.seed)
        W = rng.normal(0, 0.01, size=(d, k))
        for _ in range(self.epochs):
            probs = softmax(X @ W)
            grad = X.T @ (probs - Y) / n + self.prior_precision * W / n
            W -= self.learning_rate * grad
        probs = softmax(X @ W)
        # GGN diagonal: sum_i x_i^2 * p(1-p), per class.
        pq = probs * (1.0 - probs)                       # (n, k)
        hess_diag = (X ** 2).T @ pq + self.prior_precision  # (d, k)
        self._mean = W
        self._std = 1.0 / np.sqrt(hess_diag)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._mean is None:
            raise RuntimeError("not fitted")
        rng = np.random.default_rng(self.seed + 1)
        X = self._design(np.asarray(X, dtype=float))
        acc = np.zeros((X.shape[0], self._mean.shape[1]))
        for _ in range(self.n_samples):
            W = self._mean + rng.normal(size=self._mean.shape) * self._std
            acc += softmax(X @ W)
        return acc / self.n_samples


class EnsembleUQ:
    """Deep-ensemble UQ: average the softmax of independently-seeded heads."""

    name = "lora-ensemble"

    def __init__(self, seed: int = 0, n_members: int = 5,
                 hidden: int = 32, epochs: int = 15,
                 learning_rate: float = 1e-2) -> None:
        if n_members < 2:
            raise ValueError("ensemble needs >= 2 members")
        self.seed = seed
        self.n_members = n_members
        self.hidden = hidden
        self.epochs = epochs
        self.learning_rate = learning_rate
        self._members: List[MLPClassifier] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "EnsembleUQ":
        self._members = []
        for m in range(self.n_members):
            cfg = MLPConfig(hidden=self.hidden, epochs=self.epochs,
                            learning_rate=self.learning_rate,
                            seed=self.seed * 1000 + m)
            self._members.append(MLPClassifier(cfg).fit(X, y))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self._members:
            raise RuntimeError("not fitted")
        return np.mean([m.predict_proba(X) for m in self._members], axis=0)


UQ_METHODS = ("bayesian-lora", "lora-ensemble")


def create_uq_method(name: str, seed: int = 0):
    """Instantiate a UQ method by name."""
    if name == "bayesian-lora":
        return BayesianLinearUQ(seed=seed)
    if name == "lora-ensemble":
        return EnsembleUQ(seed=seed)
    raise KeyError(f"unknown UQ method {name!r}; known: {UQ_METHODS}")
