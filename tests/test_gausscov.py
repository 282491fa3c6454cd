"""Increment covariance machinery against dense linear-algebra oracles.

Every fast path (Levinson eigenvalue enclosures, cumulative row weights)
is compared with a brute-force dense computation on sizes where that is
cheap.
"""

import math

import numpy as np
import pytest
from scipy.linalg import toeplitz
from scipy.special import zeta

from smallball import gausscov
from smallball.gausscov import (
    IncrementalVariance,
    _count_below,
    fbm_cover_constant,
    fgn_symbol,
    gamma_two_norm_bound,
    increment_covariance,
    s_weight,
    s_weight_envelope,
    sigma2_fbm,
    symbol_sup,
    toeplitz_eig_enclosure,
)
from smallball.paths import UniformGrid
from smallball.simulate import fgn_autocovariance


def _plain_bisection(row, which):
    """The enclosure by plain inertia bisection: the circulant and Rayleigh
    bracket, the two upward probes, then one count per midpoint."""
    sign = 1.0 if which == "max" else -1.0
    row = sign * np.asarray(row, dtype=float)
    n = row.shape[0]
    k = np.arange(n)
    weighted = np.where(k == 0, 1.0, 2.0) * row
    circ = np.fft.rfft(weighted, 2 * n).real
    v = np.sin(np.pi * (k + 1) / (n + 1)) * np.cos(np.pi * int(np.argmax(circ)) / n * k)
    lags = np.fft.irfft(np.abs(np.fft.rfft(v, 2 * n)) ** 2, 2 * n)[:n]
    scale = float(np.max(np.abs(circ)))
    pad = 64.0 * float(np.finfo(float).eps) * scale
    upper = float(np.max(circ)) + pad
    lower = min(float(weighted @ lags / lags[0]), upper) - 2.0 * pad
    tol = 1e-13 * scale
    for probe in (lower + 2.0**10 * tol, lower + 2.0**20 * tol):
        if probe >= upper:
            break
        below, mu, _ = gausscov._count_below(row, probe)
        if below == n:
            upper = mu
            break
        lower = mu
    while upper - lower > tol:
        below, mid, _ = gausscov._count_below(row, 0.5 * (lower + upper))
        if below == n:
            upper = mid
        else:
            lower = mid
    return (lower, upper) if sign > 0 else (-upper, -lower)


def _counting(monkeypatch):
    """Shifts of the inertia passes that the enclosure makes from now on."""
    calls = []

    def counted(row, mu):
        out = _count_below(row, mu)
        calls.append(out[1])
        return out

    monkeypatch.setattr(gausscov, "_count_below", counted)
    return calls


def _shared_passes(monkeypatch):
    """Give the enclosure and its plain-bisection reference one table of
    inertia passes, each a pure function of the row and the shift, so that
    comparing them costs little more than the reference alone."""
    table = {}

    def shared(row, mu):
        key = (row.tobytes(), mu)
        if key not in table:
            table[key] = _count_below(row, mu)
        return table[key]

    monkeypatch.setattr(gausscov, "_count_below", shared)


def _dense_gamma(H, grid):
    lags = np.abs(np.arange(grid.N)[:, None] - np.arange(grid.N)[None, :])
    return grid.delta ** (2 * H) * fgn_autocovariance(H, lags)


class TestIncrementCovariance:
    def test_fbm_matrix_matches_autocovariance(self):
        grid = UniformGrid(1.0, 32)
        cov = increment_covariance(sigma2_fbm(0.3), grid)
        np.testing.assert_allclose(cov.gamma, _dense_gamma(0.3, grid), atol=1e-13)
        assert cov.N == 32

    def test_custom_sigma2_agrees_with_fbm(self):
        # polarization of a generic variance profile must reproduce the
        # stationary row when the profile happens to be fractional
        grid = UniformGrid(2.0, 16)
        generic = increment_covariance(
            IncrementalVariance(lambda s, t: abs(t - s) ** 0.6), grid
        )
        exact = increment_covariance(sigma2_fbm(0.3), grid)
        np.testing.assert_allclose(generic.gamma, exact.gamma, atol=1e-12)

    def test_lambda_range_matches_eigvalsh(self):
        grid = UniformGrid(64.0, 64)  # delta = 1: unit-variance increments
        cov = increment_covariance(sigma2_fbm(0.3), grid)
        lo, hi = cov.lambda_range()
        w = np.linalg.eigvalsh(_dense_gamma(0.3, grid))
        assert lo == pytest.approx(w[0], rel=1e-8)
        assert hi == pytest.approx(w[-1], rel=1e-8)

    def test_norms_match_dense(self):
        grid = UniformGrid(1.0, 40)
        cov = increment_covariance(sigma2_fbm(0.45), grid)
        dense = _dense_gamma(0.45, grid)
        assert cov.two_norm() == pytest.approx(np.linalg.norm(dense, 2), rel=1e-8)
        # symmetric matrix: the two-norm is at most the one-norm
        assert cov.two_norm() <= np.abs(dense).sum(axis=0).max() + 1e-12

    def test_nonstationary_profile_builds_dense_matrix(self):
        # sigma2 = |t^2 - s^2| is Brownian motion run at clock t^2: its
        # increments are independent with variances t_i^2 - t_{i-1}^2
        grid = UniformGrid(1.0, 8)
        cov = increment_covariance(
            IncrementalVariance(lambda s, t: np.abs(t**2 - s**2)), grid
        )
        assert cov.toeplitz is False
        t = grid.times
        np.testing.assert_array_equal(cov.gamma, np.diag(t[1:] ** 2 - t[:-1] ** 2))
        assert cov.lambda_range() == (1 / 64, 15 / 64)

    def test_nonstationary_indefinite_profile_rejected(self):
        grid = UniformGrid(1.0, 8)
        iv = IncrementalVariance(lambda s, t: (t - s) ** 2 * (1 + s))
        with pytest.raises(ValueError, match="increment covariance indefinite"):
            increment_covariance(iv, grid)

    def test_degenerate_profile_collapses_spectrum(self):
        grid = UniformGrid(1.0, 8)
        cov = increment_covariance(IncrementalVariance(lambda s, t: 0.0), grid)
        assert cov.lambda_range() == (0.0, 0.0)


class TestToeplitzEigEnclosure:
    @pytest.mark.parametrize("H", [0.2, 0.3, 0.45, 0.5, 0.6, 0.75])
    @pytest.mark.parametrize("N", [2, 3, 17, 256, 1024])
    def test_ends_contain_dense_eigenvalues(self, H, N):
        row = fgn_autocovariance(H, np.arange(N))
        w = np.linalg.eigvalsh(toeplitz(row))
        # eigvalsh itself is exact only to a few ulps of the norm
        tol = 32 * np.finfo(float).eps * w[-1]
        for which, exact in (("min", w[0]), ("max", w[-1])):
            lo, hi = toeplitz_eig_enclosure(row, which)
            assert lo - tol <= exact <= hi + tol
            assert 0.0 <= hi - lo <= 1e-13 * 2 * np.abs(row).sum()

    def test_top_eigenvector_skew_symmetric_case(self):
        # for even N the top eigenvector of the H < 1/2 matrix is
        # skew-symmetric under reversal, so Lanczos from the constant start
        # vector never sees it; N = 1100 is above the old dense cut-off
        row = fgn_autocovariance(0.3, np.arange(1100))
        exact = np.linalg.eigvalsh(toeplitz(row))[-1]
        lo, hi = toeplitz_eig_enclosure(row)
        assert hi == pytest.approx(exact, rel=1e-12)
        assert lo == pytest.approx(exact, rel=1e-12)

    def test_zero_row(self):
        assert toeplitz_eig_enclosure(np.zeros(5), "max") == (0.0, 0.0)
        assert toeplitz_eig_enclosure(np.zeros(5), "min") == (0.0, 0.0)

    def test_zero_pivot_nudges_the_shift(self):
        # mu = 1 makes the 2x2 matrix T - mu I singular (last pivot 0); its
        # eigenvalues are 1 and 3, so none lies below the nudged shift
        count, mu, pivot = _count_below(np.array([2.0, 1.0]), 1.0)
        assert count == 0 and 0.0 < 1.0 - mu <= 1e-15 and pivot > 0.0
        # mu = row[0] zeroes the first pivot; the count still matches
        for row in ([2.0, 1.0], fgn_autocovariance(0.3, np.arange(64))):
            row = np.asarray(row)
            count, mu, _ = _count_below(row, row[0])
            assert mu < row[0]
            assert count == np.sum(np.linalg.eigvalsh(toeplitz(row)) < row[0])

    def test_lambda_max_nondecreasing_in_n(self):
        tops = [toeplitz_eig_enclosure(fgn_autocovariance(0.3, np.arange(n)))
                for n in (256, 1024, 2048)]
        assert tops[0][1] <= tops[1][0] and tops[1][1] <= tops[2][0]

    def test_rejects_unknown_end(self):
        with pytest.raises(ValueError):
            toeplitz_eig_enclosure([1.0, 0.5], "middle")

    def test_last_pivot_is_determinant_ratio(self):
        row = fgn_autocovariance(0.3, np.arange(12))
        T = toeplitz(row)
        for mu in (0.3, 1.1, 1.5):
            _, used, pivot = _count_below(row, mu)
            ratio = (np.linalg.det(T - mu * np.eye(12))
                     / np.linalg.det(T[:-1, :-1] - mu * np.eye(11)))
            assert used == mu and pivot == pytest.approx(ratio, rel=1e-9)

    # the jump must land on the plain bisection's bracket exactly
    @pytest.mark.parametrize("H", [0.05, 0.1, 0.2, 0.3, 0.45, 0.5, 0.6, 0.75, 0.9])
    def test_equals_plain_bisection(self, H, monkeypatch):
        _shared_passes(monkeypatch)
        for N in [*range(2, 40), 64, 127, 256]:
            row = fgn_autocovariance(H, np.arange(N))
            for which in ("max", "min"):
                reference = _plain_bisection(row, which)
                assert toeplitz_eig_enclosure(row, which) == reference

    @pytest.mark.parametrize("N", [1024, 2048])
    def test_equals_plain_bisection_large(self, N, monkeypatch):
        _shared_passes(monkeypatch)
        row = fgn_autocovariance(0.3, np.arange(N))
        reference = _plain_bisection(row, "max")
        assert toeplitz_eig_enclosure(row) == reference

    @pytest.mark.parametrize("miss", [-3.0, 3.0])
    def test_wrong_estimate_falls_back_to_bisection(self, miss, monkeypatch):
        row = fgn_autocovariance(0.3, np.arange(256))
        reference = _plain_bisection(row, "max")
        tol = 1e-13 * 2 * np.abs(row).sum()  # above 1e-13 of the spectral scale
        estimate = gausscov._pivot_root
        monkeypatch.setattr(gausscov, "_pivot_root",
                            lambda *args: estimate(*args) + miss * tol)
        calls = _counting(monkeypatch)
        assert toeplitz_eig_enclosure(row) == reference
        assert len(calls) > 10  # the two replay ends failed; bisection went on

    def test_zero_pivot_at_replay_end_falls_back(self, monkeypatch):
        row = fgn_autocovariance(0.3, np.arange(256))
        lo, hi = toeplitz_eig_enclosure(row)
        nudged = float(np.nextafter(lo, -np.inf))

        def singular_at_lo(row, mu):
            # T - lo I meets a zero pivot, as [2.0, 1.0] does at mu = 1,
            # and the count steps the shift an ulp down
            return _count_below(row, nudged if mu == lo else mu)

        monkeypatch.setattr(gausscov, "_count_below", singular_at_lo)
        reference = _plain_bisection(row, "max")
        assert reference[0] == nudged
        # the replay's lower end lo is confirmed by a nudged count, so the
        # jump must not return it: bisection goes on to the reference
        assert toeplitz_eig_enclosure(row) == reference

    # inertia passes per enclosure, as (H, end, N, at most what plain
    # bisection takes, at most what the enclosure takes); the first four
    # name the row.  At a near end (the top of the H < 1/2 spectrum) the
    # jump follows the probes at once; at a far end it follows bisection
    # down to 2^24 tolerances.
    @pytest.mark.parametrize("H,which,N,plain,passes", [
        pytest.param(*row, id="-".join(map(str, row[:4]))) for row in [
            (0.3, "max", 2048, 12, 6), (0.3, "max", 1024, 12, 6),
            (0.3, "max", 256, 23, 6),
            (0.45, "max", 2048, 11, 6), (0.45, "max", 1024, 11, 6),
            (0.3, "min", 1024, 40, 20), (0.3, "min", 2048, 39, 19),
            (0.45, "min", 1024, 41, 21), (0.45, "min", 2048, 41, 21),
            (0.7, "max", 1024, 44, 24), (0.7, "max", 2048, 44, 24),
        ]])
    def test_inertia_passes(self, H, which, N, plain, passes, monkeypatch):
        calls = _counting(monkeypatch)
        row = fgn_autocovariance(H, np.arange(N))
        lo, hi = toeplitz_eig_enclosure(row, which)
        assert len(calls) <= passes < plain
        assert 0.0 <= hi - lo <= 1e-13 * 2 * np.abs(row).sum()


class TestRowWeights:
    @pytest.mark.parametrize("H,N", [(0.3, 7), (0.5, 12), (0.8, 9), (0.45, 40)])
    def test_s_weight_equals_brute_force(self, H, N):
        lags = np.abs(np.arange(N)[:, None] - np.arange(N)[None, :])
        brute = ((1.0 + lags) ** (2 * H - 2)).sum(axis=1).max()
        assert s_weight(H, N) == pytest.approx(brute, rel=1e-13)

    def test_s_weight_envelope_dominates(self):
        for H in (0.25, 0.4, 0.5, 0.6, 0.75):
            for N in (1, 2, 5, 17, 128, 1000):
                assert s_weight_envelope(H, N) >= s_weight(H, N) - 1e-12

    def test_envelope_closed_forms(self):
        assert s_weight_envelope(0.3, 50) == pytest.approx(2 * zeta(1.4) - 1, rel=1e-13)
        assert s_weight_envelope(0.5, 50) == pytest.approx(1 + 2 * math.log(26.0), rel=1e-13)

    def test_gamma_two_norm_bound_dominates_true_norm(self):
        # the whole certificate chain leans on this inequality
        for H in (0.3, 0.45, 0.6, 0.75):
            for N in (16, 64, 256):
                grid = UniformGrid(N * 0.01, N)
                cov = increment_covariance(sigma2_fbm(H), grid)
                bound = gamma_two_norm_bound(H, N, grid.delta, fbm_cover_constant(H))
                assert bound >= cov.two_norm() * (1 - 1e-10)

    def test_fbm_cover_constant_is_lag_zero(self):
        # |rho_H(k)| <= (1+k)^{2H-2} holds with constant 1 for fBm
        assert fbm_cover_constant(0.3) == 1.0
        assert fbm_cover_constant(0.7) == 1.0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            s_weight(0.3, 0)
        with pytest.raises(ValueError):
            s_weight_envelope(0.3, 0.5)
        with pytest.raises(ValueError):
            gamma_two_norm_bound(0.3, 8, -1.0, 1.0)


class TestSpectralSymbol:
    def test_normalization_integrates_to_one(self):
        from scipy.integrate import quad

        sym = fgn_symbol(0.3)
        integral, _ = quad(lambda x: sym.evaluate(x), 0.0, math.pi, limit=200)
        assert integral / math.pi == pytest.approx(1.0, rel=1e-7)

    def test_h_half_symbol_is_flat(self):
        sym = fgn_symbol(0.5)
        lam = np.linspace(0.0, math.pi, 9)
        np.testing.assert_allclose(sym.evaluate(lam), 1.0, atol=1e-9)

    def test_sup_frozen_values(self):
        assert symbol_sup(fgn_symbol(0.3)) == pytest.approx(
            1.418718056550768, rel=1e-9
        )
        assert symbol_sup(fgn_symbol(0.45)) == pytest.approx(
            1.105896028035461, rel=1e-9
        )

    def test_h_half_sup_is_one_within_margin(self):
        # the density is exactly 1; the bound is the margin on top of
        # f(pi), itself within 4e-16 of 1
        value = symbol_sup(fgn_symbol(0.5))
        assert 1.0 <= value <= (1.0 + 1e-13) * (1.0 + 4e-16)

    @pytest.mark.parametrize("H", [0.02, 0.1, 0.3, 0.45, 0.5, 0.55, 0.7, 0.95])
    def test_evaluate_matches_mpmath_zeta_form(self, H):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            h, s = mp.mpf(H), 1 + 2 * mp.mpf(H)
            const = 2 * mp.sin(mp.pi * h) * mp.gamma(s)
            sym = fgn_symbol(H)
            for lam in (1e-12, 1e-3, 0.5, math.pi / 3, 2.0, 3.0, math.pi,
                        -math.pi):
                x = mp.mpf(lam)
                a = x / (2 * mp.pi)
                ref = const * 2 * mp.sin(x / 2) ** 2 * (
                    abs(x) ** -s
                    + (2 * mp.pi) ** -s * (mp.zeta(s, 1 + a) + mp.zeta(s, 1 - a)))
                assert sym.evaluate(lam) == pytest.approx(float(ref), rel=1e-14)
        assert sym.evaluate(0.0) == (0.0 if H < 0.5 else 1.0 if H == 0.5 else math.inf)

    @pytest.mark.parametrize("H", [0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3,
                                   0.35, 0.4, 0.45, 0.4999, 0.5])
    def test_sup_equals_full_grid_scan(self, H):
        # a coarse scan and one refinement around its maximum bound the
        # supremum from below; symbol_sup lies above by at most its margin
        # plus the rounding of f
        sym = fgn_symbol(H)
        lam = np.linspace(0.0, math.pi, 2049)
        k = int(np.argmax(sym.evaluate(lam)))
        fine = np.linspace(lam[max(k - 1, 0)], lam[min(k + 1, 2048)], 2049)
        scan = float(np.max(sym.evaluate(fine)))
        assert scan <= symbol_sup(sym) <= scan * (1.0 + 1e-13 + 4e-16)

    def test_antipersistent_sup_is_at_pi(self):
        # for H < 1/2 the density increases toward the Nyquist frequency,
        # which is what lets symbol_sup return f(pi)
        lam = np.linspace(0.0, math.pi, 4097)
        for H in (0.05, 0.3, 0.45, 0.4999):
            sym = fgn_symbol(H)
            f = sym.evaluate(lam)
            assert np.all(np.diff(f) >= -4e-16 * f[1:])
            assert symbol_sup(sym) == pytest.approx(sym.evaluate(math.pi),
                                                    rel=1e-12)

    def test_persistent_symbol_unbounded(self):
        assert math.isinf(symbol_sup(fgn_symbol(0.7)))

    def test_toeplitz_eigenvalues_approach_sup_from_below(self):
        sym_sup = symbol_sup(fgn_symbol(0.3))
        last = 0.0
        for N in (16, 64, 256):
            grid = UniformGrid(float(N), N)
            hi = increment_covariance(sigma2_fbm(0.3), grid).lambda_range()[1]
            assert last <= hi <= sym_sup + 1e-12
            last = hi
        assert hi >= 0.995 * sym_sup

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fgn_symbol(1.0)
        with pytest.raises(ValueError):
            fgn_symbol(0.3).evaluate(4.0)
