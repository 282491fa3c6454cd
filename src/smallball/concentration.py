"""Tail bounds: explicit concentration inequalities, drift tail models and
exact binomial limits.

A TailModel maps a threshold x to a certified upper bound on the drift
tail P(norm(a) >= x).  Every model is nonincreasing in the threshold and
clamped to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from scipy import special as _special

__all__ = [
    "TailModel",
    "gauss_l2_tail",
    "drift_bounded_model",
    "drift_borell_model",
    "cp_upper",
    "cp_lower",
]


def gauss_l2_tail(norm2: float, h: float) -> float:
    """Two-sided deviation bound for the Euclidean norm of a Gaussian vector.

    With Gamma the covariance, ||Gamma||_2 <= norm2 and I = sqrt E||Y||_2^2:
      P(| ||Y||_2 - I | >= h) <= 2 exp(-h^2 / (4 norm2)).
    Centering at the second moment pays a factor 2 in the exponent against
    the mean or the median.
    """
    if norm2 <= 0:
        raise ValueError("norm2 must be positive")
    if h < 0:
        raise ValueError("threshold must be non-negative")
    return min(1.0, 2.0 * math.exp(-h * h / (4.0 * norm2)))


@dataclass(frozen=True)
class TailModel:
    """A certified drift tail bound, evaluable at any non-negative threshold.

    kinds:
      drift_bounded -- params: bound (a.s. bound on the drift norm)
      drift_borell  -- params: mean, var (Gaussian sup concentration)
    """

    kind: str
    bound: Optional[float] = None
    mean: Optional[float] = None
    var: Optional[float] = None

    def evaluate(self, threshold: float) -> float:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.kind == "drift_bounded":
            return 0.0 if threshold > self.bound else 1.0
        if self.kind == "drift_borell":
            if threshold <= self.mean:
                return 1.0
            dev = threshold - self.mean
            return min(1.0, math.exp(-dev * dev / (2.0 * self.var)))
        raise ValueError(f"unknown tail model kind {self.kind!r}")


def drift_bounded_model(bound: float) -> TailModel:
    """P(norm(a) >= x) = 0 for x > bound, else 1 (exact for a.s. bounds)."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    return TailModel(kind="drift_bounded", bound=float(bound))


def drift_borell_model(mean: float, var: float) -> TailModel:
    """One-sided Gaussian sup tail: exp(-(x-mean)^2 / (2 var)) above the mean."""
    if var <= 0:
        raise ValueError("var must be positive")
    return TailModel(kind="drift_borell", mean=float(mean), var=float(var))


# ---------------------------------------------------------------------------
# exact binomial (Clopper-Pearson) machinery


def cp_upper(k: int, n: int, confidence: float) -> float:
    """One-sided exact upper confidence limit for a binomial proportion:
    the Beta(k+1, n-k) quantile at the confidence level, i.e. the inverse
    regularized incomplete beta function."""
    _check_counts(k, n, confidence)
    if k >= n:
        return 1.0
    return float(_special.betaincinv(k + 1, n - k, confidence))


def cp_lower(k: int, n: int, confidence: float) -> float:
    """One-sided exact lower confidence limit for a binomial proportion."""
    _check_counts(k, n, confidence)
    if k <= 0:
        return 0.0
    return float(_special.betaincinv(k, n - k + 1, 1.0 - confidence))


def _check_counts(k, n, confidence):
    if n < 1 or k < 0 or k > n:
        raise ValueError(f"invalid counts k={k}, n={n}")
    if not (0.5 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0.5, 1), got {confidence}")
