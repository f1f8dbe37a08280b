"""A small, fully vectorised NumPy MLP classifier.

This is the trainable model behind the Cell Painting "ViT fine-tuning" head
and the UQ pipeline's LoRA-ensemble members.  We do not pretend to train an
8B transformer offline; what the pipelines need is a *real* supervised
learner whose training consumes real CPU, whose hyperparameters matter
(for HPO), and whose probabilistic outputs support calibration analysis.

Implementation follows the hpc-parallel guide idioms: no Python-level loops
over samples -- forward/backward are matrix expressions; minibatching uses
index views, not copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["MLPConfig", "MLPClassifier", "softmax", "one_hot"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilised."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Dense one-hot encoding."""
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


@dataclass
class MLPConfig:
    """Hyperparameters of the classifier (the HPO search space)."""

    hidden: int = 64
    #: Adam step size; sized for the small standardised feature problems
    #: the pipelines train on (a few hundred samples, tens of features).
    learning_rate: float = 1e-2
    weight_decay: float = 1e-4
    dropout: float = 0.0
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0

    def validate(self) -> None:
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


class MLPClassifier:
    """Two-layer MLP with ReLU, softmax output and Adam optimisation."""

    def __init__(self, config: Optional[MLPConfig] = None) -> None:
        self.config = config or MLPConfig()
        self.config.validate()
        self._params: Optional[Tuple[np.ndarray, ...]] = None
        self.n_classes_: Optional[int] = None
        self.loss_history_: List[float] = []

    # -- parameters ---------------------------------------------------------------
    def _init_params(self, n_features: int, n_classes: int,
                     rng: np.random.Generator) -> None:
        h = self.config.hidden
        scale1 = np.sqrt(2.0 / n_features)
        scale2 = np.sqrt(2.0 / h)
        self._params = (
            rng.normal(0, scale1, size=(n_features, h)),  # W1
            np.zeros(h),                                   # b1
            rng.normal(0, scale2, size=(h, n_classes)),    # W2
            np.zeros(n_classes),                           # b2
        )

    # -- training -------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        """Train with minibatch Adam; returns self."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2:
            raise ValueError("X must be 2-D (n_samples, n_features)")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y length mismatch")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        n, d = X.shape
        n_classes = int(y.max()) + 1
        self.n_classes_ = n_classes
        self._init_params(d, n_classes, rng)
        W1, b1, W2, b2 = self._params
        Y = one_hot(y, n_classes)

        # Adam state
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        moments = [np.zeros_like(p) for p in (W1, b1, W2, b2)]
        velocities = [np.zeros_like(p) for p in (W1, b1, W2, b2)]
        step = 0
        self.loss_history_.clear()

        for _epoch in range(cfg.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                xb, yb = X[idx], Y[idx]

                # forward
                z1 = xb @ W1 + b1
                a1 = np.maximum(z1, 0.0)
                if cfg.dropout > 0:
                    mask = rng.random(a1.shape) >= cfg.dropout
                    a1 = a1 * mask / (1.0 - cfg.dropout)
                logits = a1 @ W2 + b2
                probs = softmax(logits)

                # cross-entropy + L2
                batch_loss = -np.log(
                    np.clip((probs * yb).sum(axis=1), 1e-12, None)).mean()
                epoch_loss += batch_loss * len(idx)

                # backward
                dlogits = (probs - yb) / len(idx)
                dW2 = a1.T @ dlogits + cfg.weight_decay * W2
                db2 = dlogits.sum(axis=0)
                da1 = dlogits @ W2.T
                dz1 = da1 * (z1 > 0)
                dW1 = xb.T @ dz1 + cfg.weight_decay * W1
                db1 = dz1.sum(axis=0)

                # Adam update
                step += 1
                params = [W1, b1, W2, b2]
                grads = [dW1, db1, dW2, db2]
                for i, (p, g) in enumerate(zip(params, grads)):
                    moments[i] = beta1 * moments[i] + (1 - beta1) * g
                    velocities[i] = beta2 * velocities[i] + (1 - beta2) * g * g
                    m_hat = moments[i] / (1 - beta1 ** step)
                    v_hat = velocities[i] / (1 - beta2 ** step)
                    p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            self.loss_history_.append(epoch_loss / n)
        self._params = (W1, b1, W2, b2)
        return self

    # -- inference -------------------------------------------------------------------
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._params is None:
            raise RuntimeError("model is not fitted")
        W1, b1, W2, b2 = self._params
        a1 = np.maximum(np.asarray(X, dtype=float) @ W1 + b1, 0.0)
        return softmax(a1 @ W2 + b2)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Accuracy on (X, y)."""
        return float((self.predict(X) == np.asarray(y)).mean())
