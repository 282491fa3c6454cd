"""Uniform time grids, sampled paths, and the path norms used by the bounds.

All norms are computed exactly on the grid: the sup norm is the max of
|values|, the Holder norm maximizes |f(t)-f(s)| / (t-s)**beta over every
grid pair, and the L1 norm is the left Riemann sum of |f|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UniformGrid",
    "SamplePath",
    "sup_norm",
    "holder_norm",
    "l1_norm",
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


@dataclass(frozen=True)
class SamplePath:
    """A function sampled on a uniform grid: values[k] = f(t_k).

    Paths of centered processes start at zero; drift paths need not.
    """

    grid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.shape[0] != self.grid.N + 1:
            raise ValueError(
                f"values must have length N+1 = {self.grid.N + 1}, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def sup_norm(path: SamplePath) -> float:
    """max_k |f(t_k)|."""
    return float(np.max(np.abs(path.values)))


def holder_norm(path: SamplePath, beta: float) -> float:
    """Discrete beta-Holder seminorm, maximized over all grid pairs.

    Cost is O(N^2); intended for N up to a few thousand.  Batched Monte
    Carlo runs use the screened evaluation in ``mcverify`` instead, which
    prunes by dyadic lag blocks and returns the ball counts, not the norm.
    """
    if not (0 < beta < 1):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return float(holder_norm_batch(path.values[None, :], path.grid.delta, beta)[0])


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


def l1_norm(path: SamplePath) -> float:
    """Left Riemann sum of |f|: delta * sum_{k<N} |f(t_k)|."""
    return float(path.grid.delta * np.sum(np.abs(path.values[:-1])))


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
