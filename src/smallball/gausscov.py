"""Increment covariances of Gaussian processes and their operator norms.

The variance profile sigma2(s, t) = E (X_t - X_s)^2 determines the
covariance of the increment vector Y_k = X_{t_k} - X_{t_{k-1}} by
polarization.  This module builds that matrix (as a Toeplitz row when the
profile is declared stationary) and encloses its extreme
eigenvalues.  It also computes the summable two-norm bound used by the
explicit certificates, and the spectral density of fractional Gaussian
noise in closed form, whose supremum is the large-N limit of the
Toeplitz eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy import special as _special

from .paths import UniformGrid

__all__ = [
    "IncrementalVariance",
    "IncrementCovariance",
    "SpectralSymbol",
    "sigma2_fbm",
    "increment_covariance",
    "toeplitz_eig_enclosure",
    "s_weight",
    "s_weight_envelope",
    "gamma_two_norm_bound",
    "fgn_symbol",
    "symbol_sup",
]


def _check_hurst(H):
    if not (0.0 < H < 1.0):
        raise ValueError(f"Hurst index must lie in (0, 1), got {H}")


@dataclass(frozen=True)
class IncrementalVariance:
    """Variance profile sigma2(s, t).  ``stationary`` declares that it
    depends on t - s only; it is never guessed from samples of ``fn``."""

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    stationary: bool = False


def sigma2_fbm(H: float) -> IncrementalVariance:
    """Variance profile |t-s|^{2H} of fractional Brownian motion."""
    _check_hurst(H)

    def fn(s, t):
        return np.abs(np.asarray(t, dtype=float) - np.asarray(s, dtype=float)) ** (
            2.0 * H
        )

    return IncrementalVariance(fn, stationary=True)


# ---------------------------------------------------------------------------
# increment covariance matrix


def _eval_pairs(fn, s, t):
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    try:
        out = np.asarray(fn(s, t), dtype=float)
        if out.shape != s.shape:
            raise TypeError
        return out
    except Exception:
        return np.vectorize(fn, otypes=[float])(s, t)


@dataclass
class IncrementCovariance:
    """Covariance of the increment vector on a uniform grid.

    ``first_row`` is populated when the matrix is Toeplitz; the dense
    matrix is materialized on demand.  Eigenvalue enclosures, and the one
    eigendecomposition of the dense matrix, are computed once and cached
    (idempotent, so concurrent readers at worst duplicate work).
    """

    grid: UniformGrid
    toeplitz: bool
    first_row: Optional[np.ndarray] = None
    _dense: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def N(self) -> int:
        return self.grid.N

    @property
    def gamma(self) -> np.ndarray:
        if self._dense is None:
            # row i of toeplitz(row) is window N-1-i of [row reversed, row[1:]]
            mirrored = np.concatenate((self.first_row[::-1], self.first_row[1:]))
            windows = np.lib.stride_tricks.sliding_window_view(mirrored, self.N)
            self._dense = windows[::-1].copy()
        return self._dense

    @cached_property
    def _eigh(self):
        """(ascending eigenvalues, eigenvectors) of gamma."""
        return np.linalg.eigh(self.gamma)

    @cached_property
    def _max_enclosure(self):
        return (toeplitz_eig_enclosure(self.first_row, "max") if self.toeplitz
                else (float(self._eigh[0][-1]),) * 2)

    @cached_property
    def _min_enclosure(self):
        return (toeplitz_eig_enclosure(self.first_row, "min") if self.toeplitz
                else (float(self._eigh[0][0]),) * 2)

    def lambda_max(self) -> float:
        """Largest eigenvalue: the upper end of its enclosure."""
        return self._max_enclosure[1]

    def lambda_range(self):
        """(smallest, largest) eigenvalue: the outer ends of their enclosures."""
        return self._min_enclosure[0], self._max_enclosure[1]

    def sampling_factor(self) -> np.ndarray:
        """Factor F with F F^T = Gamma, for exact Gaussian sampling."""
        lam, q = self._eigh
        lam = np.clip(lam, 0.0, None)
        return q * np.sqrt(lam)


def _count_below(row, mu):
    """(number of eigenvalues of toeplitz(row) below mu, shift used, last pivot).

    Counts the negative Levinson-Durbin prediction errors of T - mu I, the
    pivots of its LDL^T factorization (Sylvester's law of inertia).  The
    last pivot is D(mu) = det(T - mu I) / det(T' - mu I), T' the leading
    (N-1) x (N-1) block: above the largest eigenvalue of T' it is convex and
    decreasing, and crosses zero at the largest eigenvalue of T.  On a zero
    or overflowing pivot, mu steps down by a doubling ulp and retries.
    """
    m = row.shape[0] - 1
    r, rev = row[1:].tolist(), row[:0:-1].copy()  # rev[m - k:] = row[k..1]
    mu = float(mu)
    step = float(np.spacing(max(abs(mu), float(np.max(np.abs(row))))))
    while True:
        phi, err, negatives = np.empty(m), float(row[0] - mu), 0
        for k in range(m + 1):
            if err == 0.0 or not math.isfinite(err):
                break
            negatives += err < 0.0
            if k == m:
                return negatives, mu, err
            head = phi[:k]
            kappa = (r[k] - float(head @ rev[m - k:])) / err
            head -= kappa * head[::-1]
            phi[k] = kappa
            err *= 1.0 - kappa * kappa
        mu -= step
        step *= 2.0


_JUMP_WIDTH = 2.0**24  # brackets at most this many tolerances wide jump
_ROOT_PASSES = 4  # evaluations of the last pivot one estimate may spend


def _bisect(lower, upper, width, step):
    """Halve (lower, upper) until it is at most ``width`` wide.

    ``step(mid)`` returns whether mid lies above the eigenvalue and the
    shift that then replaces the upper or the lower end.
    """
    while upper - lower > width:
        above, end = step(0.5 * (lower + upper))
        if above:
            upper = end
        else:
            lower = end
    return lower, upper


def _pivot_root(count, lower, upper, tol):
    """Estimate of the zero of the last Levinson pivot D(mu) in (lower,
    upper), or None if it has not settled to tol / 8 inside the bracket
    within _ROOT_PASSES evaluations of D.

    The first step is the secant through the two ends; later steps go to
    the zero of the rational (Moebius) interpolant through the last three
    points, which follows D across its pole at the top eigenvalue of T'.
    """
    # (shift, pivot) points, the end with the smaller pivot last
    pts = sorted((count(mu)[1:] for mu in (lower, upper)), key=lambda p: -abs(p[1]))
    while True:
        (x1, f1), (x2, f2) = pts[-2:]
        if len(pts) == 2:
            num, den = -f2 * (x2 - x1), f2 - f1
        else:
            x0, f0 = pts[-3]
            d0, d1 = x0 - x2, x1 - x2
            num = d0 * d1 * f2 * (f1 - f0)
            den = f1 * (f2 - f0) * d1 - f0 * (f2 - f1) * d0
        est = x2 + num / den if den != 0.0 else math.nan
        if not lower < est < upper:
            return None
        if abs(est - x2) <= tol / 8.0:
            return est
        if len(pts) == 2 + _ROOT_PASSES:
            return None
        pts.append(count(est)[1:])


def _jump(count, passes, n, lower, upper, tol):
    """The bracket that bisecting (lower, upper) down to tol reaches, or None.

    Bisection is replayed with the pivot estimate deciding each midpoint,
    which leaves a bracket (a, b).  Each end must be backed by a pass of
    this call (``passes``: shift asked -> ``_count_below`` result).  A pass
    already made at a shift s in [a, b] settles an end with no count at the
    end itself: fewer than n eigenvalues below s puts the largest at s or
    above, so at a or above; all n below s puts it below s, so below b.
    The root-finder's last evaluation lies within tol / 8 of its estimate,
    so it usually settles one end.  An end left unsettled is counted and
    must confirm with no nudge of the shift.  Every skipped midpoint lies
    outside [a, b], so wherever the counts are monotone in mu they force
    each skipped decision: the result is the bisection's.  The jump is
    tried only where the most passes it can spend (two to start the
    root-finder, _ROOT_PASSES, two at the ends) are fewer than the
    bisection steps it replaces.
    """
    if upper - lower <= 2.0 ** (_ROOT_PASSES + 4) * tol:
        return None
    est = _pivot_root(count, lower, upper, tol)
    if est is None:
        return None
    a, b = _bisect(lower, upper, tol, lambda mid: (est < mid, mid))
    inside = [below for below, mu, _ in passes.values() if a <= mu <= b]
    for end, confirms in ((a, lambda below: below < n), (b, lambda below: below == n)):
        if any(map(confirms, inside)):
            continue
        below, mu, _ = count(end)
        if not confirms(below) or mu != end:
            return None
    return a, b


def _circulant(row):
    """(weighted row, eigenvalues, roundoff pad) of the 2N circulant that
    embeds toeplitz(row) as a leading block.

    The eigenvalues r_0 + 2 sum_k r_k cos(pi j k / N), j = 0..N, are one
    rfft of the row with its off-diagonal lags doubled; they are FFT
    results, so bounds drawn from them are widened by ``pad``.
    """
    weighted = np.where(np.arange(row.shape[0]) == 0, 1.0, 2.0) * row
    circ = np.fft.rfft(weighted, 2 * row.shape[0]).real
    return weighted, circ, 64.0 * float(np.finfo(float).eps) * float(np.max(np.abs(circ)))


def toeplitz_eig_enclosure(row, which: str = "max"):
    """(lower, upper) enclosure, at most 1e-13 of the spectral scale wide,
    of the largest (``which="max"``) or smallest (``"min"``) eigenvalue of
    the symmetric Toeplitz matrix with first row ``row``.

    Bisects on a shift, counting eigenvalues below it by Levinson-Durbin
    inertia (Cybenko & Van Loan, SIAM J. Sci. Stat. Comput. 7(1), 1986).
    The 2N circulant embedding brackets it: its extreme eigenvalue from
    outside (Cauchy interlacing), the Rayleigh quotient of a sine-tapered
    Fourier vector at that frequency from inside.  At the top of an
    H < 1/2 fGn spectrum the Rayleigh end lies within 3e-9 (N = 256) to
    5e-12 (N = 2048) of the scale and the circulant end 1e-4 to 1e-6
    away, so before bisecting, counts at 2^10 and then 2^20 tolerance
    widths above the Rayleigh end probe for a near upper end: the first
    probe above the eigenvalue becomes the upper end, and a probe below it
    the lower end.

    Once the bracket is at most 2^24 tolerances wide (at once after the
    probes at a near end, after some bisection at a far one), the rest of
    the bisection is skipped (``_jump``): a root-finder on the last
    Levinson pivot, started from the passes already made at the two ends,
    estimates the eigenvalue; the remaining midpoints are replayed with the
    estimate deciding each one.  Of the replay's two final ends, one that
    a pass already made at a shift between them settles is not counted
    again (the root-finder's last pass, within tol / 8 of the estimate,
    usually settles one); the other is counted.  If both confirm, with no
    nudge of a counted shift, they are returned; otherwise bisection goes
    on from the bracket the real counts left.  Wherever the counts are
    monotone in the shift, the result is bit for bit the plain
    bisection's, so the ``toeplitz`` table keeps its bytes.  Ends move
    only on inertia counts made in this call, so the enclosure stays
    certified.  At H = 0.3 the largest eigenvalue takes 5 passes at
    N = 256-2048 instead of 12-22, and a far end about 20 instead of
    about 40.
    """
    if which not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    sign = 1.0 if which == "max" else -1.0  # lambda_min(T) = -lambda_max(-T)
    row = sign * np.asarray(row, dtype=float)
    n = row.shape[0]
    k = np.arange(n)
    weighted, circ, pad = _circulant(row)
    v = np.sin(np.pi * (k + 1) / (n + 1)) * np.cos(np.pi * int(np.argmax(circ)) / n * k)
    lags = np.fft.irfft(np.abs(np.fft.rfft(v, 2 * n)) ** 2, 2 * n)[:n]  # sum_i v_i v_i+k
    scale = float(np.max(np.abs(circ)))
    upper = float(np.max(circ)) + pad
    lower = min(float(weighted @ lags / lags[0]), upper) - 2.0 * pad
    tol = 1e-13 * scale
    passes = {}  # shift asked -> _count_below result, for each pass in this call

    def count(mu):
        if mu not in passes:
            passes[mu] = _count_below(row, mu)
        return passes[mu]

    for probe in (lower + 2.0**10 * tol, lower + 2.0**20 * tol):
        if probe >= upper:
            break
        below, mu, _ = count(probe)
        if below == n:
            upper = mu
            break
        lower = mu

    def bisect_step(mid):
        below, mu, _ = count(mid)
        return below == n, mu

    lower, upper = _bisect(lower, upper, _JUMP_WIDTH * tol, bisect_step)
    ends = _jump(count, passes, n, lower, upper, tol)
    lower, upper = ends or _bisect(lower, upper, tol, bisect_step)
    return (lower, upper) if sign > 0 else (-upper, -lower)


def increment_covariance(iv: IncrementalVariance, grid: UniformGrid) -> IncrementCovariance:
    """Increment covariance by polarization:

    Gamma_ij = (sigma2(t_{i-1}, t_j) + sigma2(t_i, t_{j-1})
                - sigma2(t_i, t_j) - sigma2(t_{i-1}, t_{j-1})) / 2.

    A profile declared stationary gives a Toeplitz Gamma, from the second
    differences of sigma2(0, u) along the lags; any other profile gets the
    dense polarization, which is right whatever the profile.

    Raises if the result is indefinite beyond -1e-10 * ||Gamma||_2.  A
    Toeplitz Gamma is a leading block of its 2N circulant embedding, so by
    Cauchy interlacing lambda_min >= min(circulant eigenvalues) - pad, and
    Gamma_00 <= lambda_max; when that bound is at least -1e-10 * Gamma_00
    the check is settled with no inertia pass.  Otherwise it takes the
    lambda_max enclosure and one inertia count at -1e-10 * lambda_max.  A
    dense Gamma is settled by its one cached eigendecomposition.
    """
    if iv.stationary:
        # second difference of g(u) = sigma2(0, u) along lags
        u = np.arange(grid.N + 1, dtype=float) * grid.delta
        g = _eval_pairs(iv.fn, np.zeros_like(u), u)
        row = np.empty(grid.N)
        row[0] = g[1]
        if grid.N > 1:
            row[1:] = 0.5 * (g[2:] + g[:-2] - 2.0 * g[1:-1])
        cov = IncrementCovariance(grid=grid, toeplitz=True, first_row=row)
        _, circ, pad = _circulant(row)
        if float(np.min(circ)) - pad >= -1e-10 * row[0]:
            return cov
    else:
        times = grid.times
        s_mat = _eval_pairs(iv.fn, *np.meshgrid(times, times, indexing="ij"))
        gamma = 0.5 * (
            s_mat[:-1, 1:] + s_mat[1:, :-1] - s_mat[1:, 1:] - s_mat[:-1, :-1]
        )
        gamma = 0.5 * (gamma + gamma.T)  # polarization is symmetric up to roundoff
        cov = IncrementCovariance(grid=grid, toeplitz=False, _dense=gamma)
    # lambda_min < -1e-10 max|lambda|, by one inertia count when Toeplitz
    mu = -1e-10 * cov.lambda_max()
    if (_count_below(cov.first_row, mu)[0] > 0 if cov.toeplitz
            else cov.lambda_range()[0] < mu):
        lo, hi = cov.lambda_range()
        raise ValueError(
            f"increment covariance indefinite: min eigenvalue {lo:.3e} "
            f"against max {hi:.3e}"
        )
    return cov


# ---------------------------------------------------------------------------
# summable two-norm bound


# terms per block of the prefix sums of s_weight
_S_BLOCK = 2**16


def s_weight(H: float, N: int) -> float:
    """max_j sum_k (1+|k-j|)^{2H-2}, computed exactly.

    This is the row weight of the covariance cover (1+|i-j|)^{2H-2}; it
    stays bounded for H < 1/2, grows like log N at H = 1/2 and like
    N^{2H-1} for H > 1/2.  With c the prefix sums of k^{2H-2}, row j
    weighs w(j) = c[j] + c[N+1-j] - 1, and w(j+1) - w(j) = (j+1)^{2H-2}
    - (N+1-j)^{2H-2} is >= 0 exactly when j <= N/2, since k^{2H-2} does
    not increase in k for H <= 1.  So w peaks at the middle row
    m = ceil(N/2), and one prefix sum up to N+1-m gives the answer
    c[m] + c[N+1-m] - 1.  c runs in blocks of _S_BLOCK terms, in constant
    memory, each block summed on from the total carried into it, so
    every value is bit for bit that of one cumsum over 1..N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not H <= 1.0:
        raise ValueError("H must be <= 1")
    power, m = 2.0 * H - 2.0, (N + 1) // 2
    top = N + 1 - m
    lo, carry, c_m = 0, 0.0, 0.0
    while lo < top:
        k = np.arange(lo + 1, min(lo + _S_BLOCK, top) + 1, dtype=float)
        c = np.cumsum(np.concatenate(([carry], k**power)))
        if lo < m <= lo + len(k):
            c_m = c[m - lo]
        lo, carry = lo + len(k), c[-1]
    return float(c_m + carry - 1.0)


def s_weight_envelope(H: float, n: float) -> float:
    """Smooth dominating form of ``s_weight``: valid for every N <= n.

    H < 1/2: 2 zeta(2-2H) - 1 (constant); H = 1/2: 1 + 2 log((n+2)/2);
    H > 1/2: (1 + 2 * 1.5^{2H-1} / (2H-1)) * n^{2H-1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if H < 0.5:
        return float(2.0 * _special.zeta(2.0 - 2.0 * H) - 1.0)
    if H == 0.5:
        return 1.0 + 2.0 * math.log((n + 2.0) / 2.0)
    k = 1.0 + 2.0 * 1.5 ** (2.0 * H - 1.0) / (2.0 * H - 1.0)
    return float(k * n ** (2.0 * H - 1.0))


def gamma_two_norm_bound(H: float, N: int, delta: float, c_deriv: float) -> float:
    """Upper bound on ||Gamma||_2 via ||Gamma||_2 <= ||Gamma||_1.

    Valid whenever |E Y_i Y_j| <= c_deriv * delta^{2H} * (1+|i-j|)^{2H-2};
    for fBm the smallest such constant is 1, the lag-zero term.  Returns
    c_deriv * delta^{2H} * s_weight(H, N).
    """
    if delta <= 0 or c_deriv <= 0:
        raise ValueError("delta and c_deriv must be positive")
    return c_deriv * delta ** (2.0 * H) * s_weight(H, N)


# ---------------------------------------------------------------------------
# spectral density of fGn


@dataclass(frozen=True)
class SpectralSymbol:
    """Spectral density f of unit-variance fGn on [-pi, pi].

    f(lam) = const (1 - cos lam) sum_{j in Z} |lam + 2 pi j|^{-1-2H} with
    const = 2 sin(pi H) Gamma(1+2H), so that (1/2pi) int f = rho(0) = 1
    (Beran 1994, section 2.1).  Bounded iff H <= 1/2; the Toeplitz
    eigenvalues converge to sup f from below.
    """

    H: float
    const: float

    def evaluate(self, lam) -> np.ndarray:
        """f(lam) in closed form, with s = 1+2H and a = lam/2pi:

        const [sinc^2(a)/2 |lam|^{1-2H}
               + 2 sin^2(lam/2) (2pi)^{-s} (zeta(s, 1+a) + zeta(s, 1-a))],

        the j = 0 term and the Hurwitz zeta sum of the others.  At lam = 0
        it is 0, 1/2 or +inf (times const) for H below, at or above 1/2.
        """
        lam = np.asarray(lam, dtype=float)
        if np.any(np.abs(lam) > np.pi + 1e-12):
            raise ValueError("frequency outside [-pi, pi]")
        s = 1.0 + 2.0 * self.H
        a = lam / (2.0 * np.pi)
        with np.errstate(divide="ignore"):
            center = 0.5 * np.sinc(a) ** 2 * np.abs(lam) ** (1.0 - 2.0 * self.H)
        others = (2.0 * np.sin(0.5 * lam) ** 2 * (2.0 * np.pi) ** -s
                  * (_special.zeta(s, 1.0 + a) + _special.zeta(s, 1.0 - a)))
        out = self.const * (center + others)
        return float(out) if lam.ndim == 0 else out


def fgn_symbol(H: float) -> SpectralSymbol:
    """The fGn spectral density, normalized by its closed-form constant."""
    _check_hurst(H)
    const = 2.0 * math.sin(math.pi * H) * math.gamma(1.0 + 2.0 * H)
    return SpectralSymbol(H=H, const=const)


# relative; covers the rounding of f(pi) (at most 2e-15 against mpmath)
# and keeps the H = 1/2 Toeplitz enclosure end 1 + 1.4e-14 below
_SUP_MARGIN = 1e-13


def symbol_sup(symbol: SpectralSymbol) -> float:
    """sup f over [-pi, pi]: f(pi) (1 + 1e-13) for H <= 1/2, else math.inf.

    For H < 1/2 the density increases on [0, pi] and f is flat at
    H = 1/2, so the supremum is f(pi) = (8 / pi^{1+2H}) sin(pi H)
    Gamma(1+2H) (1 - 2^{-1-2H}) zeta(1+2H).  A grid scan relies on the
    same fact, since a grid maximum bounds a supremum only from below
    unless it sits on a grid point; ``test_antipersistent_sup_is_at_pi``
    checks it.  The margin makes the value an upper bound despite the
    rounding of f(pi).
    """
    if symbol.H > 0.5:
        return math.inf
    return symbol.evaluate(math.pi) * (1.0 + _SUP_MARGIN)
