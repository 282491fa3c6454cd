"""Uniform time grids and the grid quantities that need no simulation.

``holder_norm_batch`` is the dense Holder seminorm, maximizing
|f(t)-f(s)| / (t-s)**beta over every grid pair of every row; it is the
reference for the Holder ball counts in ``mcverify``.  Those start from
the largest term on a 33-point subgrid, compute every term they evaluate
with the same expression, and skip the terms that a bound over a cell of
starts puts at or below the next radius.  ``mcverify`` also holds the
sup and L1 norms of the Monte Carlo estimates.  ``increment_lp`` is the
increment norm |X|_p of the partition split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UniformGrid",
    "holder_norm_batch",
    "increment_lp",
]


@dataclass(frozen=True)
class UniformGrid:
    """Uniform partition of [0, T] into N steps of width delta = T / N."""

    T: float
    N: int

    def __post_init__(self):
        if not (self.T > 0):
            raise ValueError(f"T must be positive, got {self.T}")
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 1):
            raise ValueError(f"N must be an integer >= 1, got {self.N}")

    @property
    def delta(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        # t_k = k * delta, k = 0..N; endpoint exact by construction
        return np.linspace(0.0, self.T, self.N + 1)


def holder_norm_batch(values: np.ndarray, delta: float, beta: float) -> np.ndarray:
    """Exact Holder seminorm for each row of a (paths, N+1) array."""
    values = np.asarray(values, dtype=float)
    n_pts = values.shape[1]
    best = np.zeros(values.shape[0])
    for lag in range(1, n_pts):
        gap = (lag * delta) ** beta
        dev = np.max(np.abs(values[:, lag:] - values[:, :-lag]), axis=1)
        np.maximum(best, dev / gap, out=best)
    return best


def increment_lp(values, p: float):
    """(sum_k |f(t_k) - f(t_{k-1})|^p)^(1/p) for p >= 1, along the last axis
    of ``values`` (p = inf gives max_k |f(t_k) - f(t_{k-1})|)."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    inc = np.abs(np.diff(values, axis=-1))
    if p == 1:
        return inc.sum(axis=-1)
    if p == 2:
        return np.sqrt(np.sum(inc * inc, axis=-1))
    if np.isinf(p):
        return np.max(inc, axis=-1, initial=0.0)
    return np.sum(inc**p, axis=-1) ** (1.0 / p)
