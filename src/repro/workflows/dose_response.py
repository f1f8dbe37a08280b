"""Dose-response modelling for the Signature Detection pipeline's stage 3.

"Additional tasks integrate the above results with temporal/dose
information, producing dose-response insights" (§II-B).  We fit the
dose-dependent signature statistic (C>T transition fraction) with both a
linear model and a saturating Hill curve (scipy least squares), report fit
quality, and derive the classic summary quantities (slope, EC50).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

__all__ = ["DoseResponseFit", "fit_linear", "fit_hill", "hill"]


def hill(dose: np.ndarray, floor: float, span: float, ec50: float,
         slope: float) -> np.ndarray:
    """Hill (sigmoidal saturation) curve."""
    dose = np.asarray(dose, dtype=float)
    return floor + span * dose ** slope / (ec50 ** slope + dose ** slope)


@dataclass(frozen=True)
class DoseResponseFit:
    """Result of one dose-response fit."""

    model: str                    # "linear" | "hill"
    params: Dict[str, float]
    r_squared: float
    p_value: float                # slope significance (linear model only)

    @property
    def responsive(self) -> bool:
        """Did the signature respond to dose? (positive, significant slope)"""
        if self.model == "linear":
            return self.params["slope"] > 0 and self.p_value < 0.05
        return self.params["span"] > 0 and self.r_squared > 0.5


def _r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    ss_res = float(((y - y_hat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        return 1.0 if ss_res == 0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_linear(doses: Sequence[float],
               responses: Sequence[float]) -> DoseResponseFit:
    """Ordinary least-squares dose-response line."""
    x = np.asarray(list(doses), dtype=float)
    y = np.asarray(list(responses), dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need >= 3 paired observations")
    # scipy is imported on first use (see hpo.TpeSampler._kde)
    from scipy.stats import linregress

    result = linregress(x, y)
    y_hat = result.intercept + result.slope * x
    return DoseResponseFit(
        model="linear",
        params={"slope": float(result.slope),
                "intercept": float(result.intercept)},
        r_squared=_r_squared(y, y_hat),
        p_value=float(result.pvalue),
    )


def fit_hill(doses: Sequence[float],
             responses: Sequence[float]) -> DoseResponseFit:
    """Hill-curve fit with conservative bounds (falls back gracefully)."""
    x = np.asarray(list(doses), dtype=float)
    y = np.asarray(list(responses), dtype=float)
    if x.size != y.size or x.size < 4:
        raise ValueError("need >= 4 paired observations")
    floor0 = float(y.min())
    span0 = max(float(y.max() - y.min()), 1e-3)
    positive = x[x > 0]
    ec50_0 = float(np.median(positive)) if positive.size else 0.5
    from scipy.optimize import curve_fit

    try:
        popt, _ = curve_fit(
            hill, x, y, p0=[floor0, span0, ec50_0, 1.0],
            bounds=([0.0, 0.0, 1e-6, 0.2], [1.0, 1.0, 100.0, 8.0]),
            maxfev=20_000)
    except RuntimeError:
        # no convergence: report a degenerate flat fit
        return DoseResponseFit(model="hill",
                               params={"floor": floor0, "span": 0.0,
                                       "ec50": ec50_0, "slope": 1.0},
                               r_squared=0.0, p_value=1.0)
    y_hat = hill(x, *popt)
    return DoseResponseFit(
        model="hill",
        params={"floor": float(popt[0]), "span": float(popt[1]),
                "ec50": float(popt[2]), "slope": float(popt[3])},
        r_squared=_r_squared(y, y_hat),
        p_value=float("nan"),
    )
