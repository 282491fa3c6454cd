"""Monte Carlo estimation, rate fitting, and certificate verification.

Structural properties (determinism, shared-sample counting, CSV shape)
are exact; distributional ones use the reflection-series law of the
Brownian sup as an independent oracle.
"""

import numpy as np
import pytest
from scipy.stats import norm as normal

from smallball.bounds import Certificate, Regime
from smallball.errors import InvalidComparisonError
from smallball.mcverify import (
    NormSpec,
    _holder_counts,
    bm_sup_exact,
    config_digest,
    estimate_small_ball,
    estimate_small_ball_drifts,
    drift_norm_samples,
    fit_rate,
    partition_norm_samples,
    verify_certificates,
)
from smallball.paths import UniformGrid, holder_norm_batch
from smallball.simulate import DriftSpec, ProcessSpec, SeedSpec, path_values_block

BM = ProcessSpec(kind="bm")
GRID = UniformGrid(1.0, 256)


def _cert(epsilon, total, *, delta=0.25, N=4, vacuous=False):
    flags = ("VACUOUS",) if vacuous else ()
    return Certificate.build(
        epsilon=epsilon, T=1.0, regime=Regime.sup(), p=2, N=N, delta=delta,
        I=1.0, term_concentration=total, term_drift=0.0, mode="EXPLICIT",
        flags=flags,
    )


def _bm_sup_reflection(eps):
    # P(sup_{[0,1]} |B| <= eps) = sum_k (-1)^k [Phi((2k+1) eps) - Phi((2k-1) eps)]
    total = 0.0
    for k in range(-40, 41):
        total += (-1) ** k * (
            normal.cdf((2 * k + 1) * eps) - normal.cdf((2 * k - 1) * eps)
        )
    return total


class TestNormSpec:
    def test_labels_and_regimes(self):
        # the norm of the event and the certificate regime are one type
        assert NormSpec is Regime
        assert NormSpec("sup").label() == "sup"
        assert NormSpec("l1") == Regime.l1()
        h = NormSpec("holder", beta=0.25)
        assert h.label() == "holder(0.25)"
        assert h == Regime.holder(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            NormSpec("l2")
        with pytest.raises(ValueError):
            NormSpec("holder")
        for beta in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                NormSpec("holder", beta=beta)
        with pytest.raises(ValueError):
            NormSpec("sup", beta=0.3)


class TestEstimate:
    def test_needs_enough_paths_and_positive_epsilons(self):
        with pytest.raises(ValueError):
            estimate_small_ball(BM, GRID, [0.5], 100, seed=1)
        with pytest.raises(ValueError):
            estimate_small_ball(BM, GRID, [-0.5], 2000, seed=1)
        # a NaN radius would leave the grid unsorted and skew every count
        with pytest.raises(ValueError, match="epsilons must be positive"):
            estimate_small_ball(BM, GRID, [1.5, float("nan"), 1.0], 2000, seed=1)

    def test_shared_sample_counts_are_monotone(self):
        table = estimate_small_ball(BM, GRID, [0.3, 0.6, 1.0, 2.0], 2000, seed=1)
        ks = [r.k for r in table.rows]
        assert ks == sorted(ks)
        assert all(r.cp_lower <= r.p_hat <= r.cp_upper for r in table.rows)

    def test_matches_brute_force_counting(self):
        eps = [0.5, 1.0]
        table = estimate_small_ball(BM, GRID, eps, 1000, seed=3)
        vals = path_values_block(BM, GRID, SeedSpec(3), np.arange(1000))
        sups = np.max(np.abs(vals), axis=1)
        for e, row in zip(eps, table.rows):
            assert row.k == int(np.count_nonzero(sups <= e))

    def test_gaussian_kind_digest_hashes_custom_profile(self):
        spec = ProcessSpec(kind="gaussian", sigma2=lambda s, t: np.abs(t - s))
        grid = UniformGrid(1.0, 8)
        table = estimate_small_ball(spec, grid, [0.5], 1000, seed=2)
        payload = {
            "spec": {"kind": "gaussian", "H": 0.5, "method": "circulant",
                     "drift": {"kind": "none", "level": 0.0, "amplitude": 1.0,
                               "frequency": 1.0, "H2": 0.5},
                     "sigma2": "custom"},
            "T": 1.0, "N": 8, "epsilons": [0.5], "n_paths": 1000, "seed": 2,
            "norm": {"kind": "sup", "beta": None}, "confidence": 0.99,
        }
        assert table.digest == config_digest(payload)
        assert table.process == "gaussian"

    def test_worker_count_does_not_change_output(self):
        t1 = estimate_small_ball(BM, GRID, [0.5, 1.0], 2000, seed=5, workers=1)
        t2 = estimate_small_ball(BM, GRID, [0.5, 1.0], 2000, seed=5, workers=2)
        assert t1.to_csv_text() == t2.to_csv_text()

    def test_agrees_with_reflection_series(self):
        # the discrete sup underestimates the true sup, so the estimated
        # ball probability sits above the continuous one and converges
        # from above as the grid refines
        exact = _bm_sup_reflection(1.0)
        coarse = estimate_small_ball(BM, GRID, [1.0], 20000, seed=11).rows[0]
        fine = estimate_small_ball(
            BM, UniformGrid(1.0, 2048), [1.0], 20000, seed=11
        ).rows[0]
        assert coarse.cp_lower > exact
        assert fine.cp_upper > exact
        assert abs(fine.p_hat - exact) < abs(coarse.p_hat - exact)
        assert fine.p_hat - exact < 0.02

    def test_csv_layout(self):
        table = estimate_small_ball(BM, GRID, [0.5], 1000, seed=1)
        lines = table.to_csv_text().strip().split("\n")
        assert lines[0] == "# small-ball estimates v2"
        assert any(line.startswith("# digest=") for line in lines)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "epsilon,n_paths,k,p_hat,cp_lower,cp_upper,confidence"

    def test_holder_norm_counts_match_batch_norms(self):
        grid = UniformGrid(1.0, 64)
        spec = ProcessSpec(kind="fbm", H=0.4)
        eps = [0.4, 0.8, 1.6]
        table = estimate_small_ball(
            spec, grid, eps, 1000, seed=9, norm=NormSpec("holder", beta=0.2)
        )
        vals = path_values_block(spec, grid, SeedSpec(9), np.arange(1000))
        norms = holder_norm_batch(vals, grid.delta, 0.2)
        for e, row in zip(eps, table.rows):
            assert row.k == int(np.count_nonzero(norms <= e))

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 7, 16, 20, 40, 64, 1000,
                                   1023, 1025, 2047, 2048])
    @pytest.mark.parametrize("H,beta", [(0.3, 0.1), (0.4, 0.2), (0.5, 0.4),
                                        (0.7, 0.5)])
    def test_pruned_holder_counts_match_dense_norms(self, H, beta, N):
        # N not a power of two leaves a partial last lag block, for small N
        # the range window is wider than the path, and near the path end the
        # windows of the top blocks are clipped to the last table column
        grid = UniformGrid(1.0, N)
        rows = 12 if N > 1000 else 48 if N > 64 else 256
        vals = path_values_block(ProcessSpec(kind="fbm", H=H), grid,
                                 SeedSpec(N), np.arange(rows))
        norms = holder_norm_batch(vals, grid.delta, beta)
        lag1 = np.abs(np.diff(vals, axis=1)).max(axis=1) / grid.delta ** beta
        radius_sets = [
            [0.5 * lag1.min()],                    # every row leaves at lag 1
            [0.5 * lag1.min(), 0.9 * lag1.min()],
            [2.0 * norms.max()],                   # every row survives
            [float(np.median(norms))],             # a single radius
            list(np.quantile(norms, [0.1, 0.3, 0.5, 0.7, 0.9])),
            sorted(norms[:7]),                     # radii equal to norms
        ]
        for radii in radius_sets:
            eps = np.asarray(radii, dtype=float)
            dense = [int(np.count_nonzero(norms <= e)) for e in eps]
            assert _holder_counts(vals, grid.delta, beta, eps).tolist() == dense

    def test_pruned_holder_counts_at_a_radius_and_a_large_lag(self):
        # a unit jump, then a ramp of slope 1/8: with beta = 1/2 and
        # delta = 1/64 lag l reads (l + 7) / sqrt(l), so the running value
        # sits exactly at the radius 8 from lag 1 up to the last block
        # [32, 63], and the norm 70 / sqrt(63) is reached only at lag 63.
        # That block must be scanned, and scanned on past lag 32.
        grid = UniformGrid(63 / 64, 63)
        path = np.concatenate([[0.0], 1.0 + np.arange(63) / 8.0])[None, :]
        assert holder_norm_batch(path[:, :32], grid.delta, 0.5)[0] == 8.0
        norm = holder_norm_batch(path, grid.delta, 0.5)[0]
        assert norm == pytest.approx(70 / 63 ** 0.5, rel=1e-15)
        for radii, counts in [
            ([8.0, 16.0], [0, 1]),
            ([8.0, norm, 16.0], [0, 1, 1]),
            ([norm], [1]),
            ([np.nextafter(norm, 0.0)], [0]),
        ]:
            eps = np.asarray(radii)
            assert _holder_counts(path, grid.delta, 0.5, eps).tolist() == counts

    @pytest.mark.parametrize("N,beta", [(64, 0.1), (256, 0.1), (1025, 0.05),
                                        (2048, 0.05)])
    def test_pruned_holder_counts_at_a_planted_pair(self, N, beta):
        # a zero path with a dip -a at t0 and a peak +a at t0 + L: the pair
        # (t0, t0 + L) reads 2a / (L delta)^beta, every other term at most
        # a / delta^beta, which is smaller while L^beta < 2, and every other
        # start of L's lag block bounds at a / (lo delta)^beta, below the
        # norm.  Pairs start at the path start, in the middle, and end at
        # the path end, where the top block windows are clipped.  a is the
        # first height at which radius * (L delta)^beta, for the radius one
        # ulp below the norm, rounds up to the pair's difference 2a (none
        # does when the scale is a power of two).
        grid = UniformGrid(1.0, N)
        if N <= 256:
            lags = range(16, N + 1)
        else:
            lags = sorted({x for lo in (16, 64, 512, 1024) if lo <= N
                           for x in (lo, lo + 1, min(2 * lo, N + 1) - 1)})
        for L in lags:
            scale = (L * grid.delta) ** beta
            a = next((1.0 + k / 4096 for k in range(4096)
                      if 2.0 + k / 2048
                      <= np.nextafter((2.0 + k / 2048) / scale, 0.0) * scale),
                     1.0)
            for t0 in sorted({0, (N - L) // 2, N - L}):
                path = np.zeros((1, N + 1))
                path[0, t0], path[0, t0 + L] = -a, a
                norm = holder_norm_batch(path, grid.delta, beta)[0]
                assert norm == 2 * a / scale
                below = np.nextafter(norm, 0.0)
                for radii, counts in [([norm], [1]), ([below], [0]),
                                      ([below, norm], [0, 1])]:
                    got = _holder_counts(path, grid.delta, beta, np.array(radii))
                    assert got.tolist() == counts, (L, t0, radii)

    def test_l1_norm_counts(self):
        eps = [0.2, 0.5]
        table = estimate_small_ball(BM, GRID, eps, 1000, seed=9, norm=NormSpec("l1"))
        vals = path_values_block(BM, GRID, SeedSpec(9), np.arange(1000))
        l1 = GRID.delta * np.sum(np.abs(vals[:, :-1]), axis=1)
        for e, row in zip(eps, table.rows):
            assert row.k == int(np.count_nonzero(l1 <= e))

    def test_interval_width_halves_with_quadrupled_sample(self):
        # CP width scales like 1/sqrt(n) at fixed p
        t1 = estimate_small_ball(BM, GRID, [1.0], 4000, seed=2)
        t2 = estimate_small_ball(BM, GRID, [1.0], 16000, seed=2)
        w1 = t1.rows[0].cp_upper - t1.rows[0].cp_lower
        w2 = t2.rows[0].cp_upper - t2.rows[0].cp_lower
        assert 0.5 * 0.8 <= w1 / (2 * w2) <= 0.5 * 1.2 * 2


class TestMultiDriftEstimate:
    def test_byte_identical_to_single_runs(self):
        drifts = [
            DriftSpec(),
            DriftSpec(kind="bounded_wave", amplitude=1.0),
            DriftSpec(kind="shared_fbm"),
        ]
        spec = ProcessSpec(kind="fbm", H=0.3)
        grid = UniformGrid(1.0, 128)
        eps = [0.3, 0.6]
        tables = estimate_small_ball_drifts(spec, drifts, grid, eps, 2000, seed=17)
        for d, t in zip(drifts, tables):
            single = estimate_small_ball(
                ProcessSpec(kind="fbm", H=0.3, drift=d), grid, eps, 2000, seed=17
            )
            assert t.to_csv_text() == single.to_csv_text()

    def test_worker_determinism(self):
        drifts = [DriftSpec(), DriftSpec(kind="shared_fbm")]
        spec = ProcessSpec(kind="fbm", H=0.3)
        grid = UniformGrid(1.0, 128)
        a = estimate_small_ball_drifts(spec, drifts, grid, [0.5], 2000, seed=17, workers=1)
        b = estimate_small_ball_drifts(spec, drifts, grid, [0.5], 2000, seed=17, workers=2)
        assert [t.to_csv_text() for t in a] == [t.to_csv_text() for t in b]

    def test_requires_at_least_one_drift(self):
        with pytest.raises(ValueError):
            estimate_small_ball_drifts(BM, [], GRID, [0.5], 2000, seed=1)


class TestNormSamples:
    def test_partition_norms_match_path_blocks(self):
        spec = ProcessSpec(kind="fbm", H=0.3, drift=DriftSpec(kind="shared_fbm"))
        grid = UniformGrid(1.0, 32)
        samples = partition_norm_samples(spec, grid, 2.0, 600, seed=21)
        # drift must be stripped: compare against the bare process
        vals = path_values_block(ProcessSpec(kind="fbm", H=0.3), grid, SeedSpec(21), np.arange(600))
        inc = np.diff(vals, axis=1)
        np.testing.assert_allclose(samples, np.sqrt((inc**2).sum(axis=1)), atol=1e-12)

    def test_partition_norms_for_other_p(self):
        # p = inf is the largest increment, not a constant
        spec = ProcessSpec(kind="fbm", H=0.3)
        grid = UniformGrid(1.0, 16)
        vals = path_values_block(spec, grid, SeedSpec(5), np.arange(300))
        inc = np.abs(np.diff(vals, axis=1))
        for p, expected in ((np.inf, inc.max(axis=1)), (1.0, inc.sum(axis=1)),
                            (3.0, (inc**3).sum(axis=1) ** (1.0 / 3.0))):
            samples = partition_norm_samples(spec, grid, p, 300, seed=5)
            np.testing.assert_allclose(samples, expected, rtol=1e-14)

    def test_second_moment_scale(self):
        # E |X|_2^2 = N delta^{2H}
        grid = UniformGrid(1.0, 64)
        s = partition_norm_samples(ProcessSpec(kind="fbm", H=0.3), grid, 2.0, 4000, seed=2)
        target = 64 * grid.delta**0.6
        assert abs((s**2).mean() - target) / target < 0.05

    def test_deterministic_drift_norms(self):
        spec = ProcessSpec(kind="bm", drift=DriftSpec(kind="constant", level=-1.5))
        s = drift_norm_samples(spec, GRID, NormSpec("sup"), 300, seed=4)
        np.testing.assert_array_equal(s, np.full(300, 1.5))
        wave = ProcessSpec(kind="bm", drift=DriftSpec(kind="bounded_wave", amplitude=2.0))
        s = drift_norm_samples(wave, GRID, NormSpec("sup"), 300, seed=4)
        grid_max = 2.0 * np.max(np.abs(np.sin(2 * np.pi * GRID.times)))
        np.testing.assert_allclose(s, grid_max, atol=1e-12)

    @pytest.mark.parametrize("n_paths", [0, -5])
    def test_need_at_least_one_path(self, n_paths):
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            partition_norm_samples(BM, GRID, 2.0, n_paths, seed=4)
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            drift_norm_samples(BM, GRID, NormSpec("sup"), n_paths, seed=4)

    def test_l1_event_controls_l1_of_drift(self):
        # left Riemann sum of a constant is exact: integral of |2| over [0,1]
        spec = ProcessSpec(kind="bm", drift=DriftSpec(kind="constant", level=2.0))
        s = drift_norm_samples(spec, GRID, NormSpec("l1"), 300, seed=4)
        np.testing.assert_allclose(s, 2.0, atol=1e-12)


class TestBmSupExact:
    def test_matches_reflection_series(self):
        for eps in (0.4, 0.5, 1.0, 1.7):
            assert bm_sup_exact(eps) == pytest.approx(
                _bm_sup_reflection(eps), abs=1e-10
            )

    def test_frozen_digits(self):
        assert bm_sup_exact(1.0) == pytest.approx(0.3707774297995239, rel=1e-12)
        assert bm_sup_exact(0.5) == pytest.approx(0.009156990289760759, rel=1e-12)

    def test_horizon_scaling(self):
        # sup over [0, T] scales like sqrt(T)
        assert bm_sup_exact(0.5, T=0.25) == pytest.approx(bm_sup_exact(1.0), rel=1e-12)

    def test_edge(self):
        assert bm_sup_exact(0.0) == 0.0


class TestFitRate:
    def test_exact_recovery(self):
        eps = np.geomspace(0.3, 0.9, 12)
        vals = np.exp(-2.0 * eps**-3.0)
        fit = fit_rate(eps, vals, mode="RAW")
        assert fit.gamma_hat == pytest.approx(3.0, abs=1e-12)
        assert fit.c2_hat == pytest.approx(2.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_used == 12

    def test_prefactor_aware_is_exact_with_prefactor(self):
        eps = np.geomspace(0.2, 0.8, 10)
        vals = 0.5 * np.exp(-0.3 * eps**-2.0)
        fit = fit_rate(eps, vals, mode="PREFACTOR_AWARE", c1=0.5)
        assert fit.gamma_hat == pytest.approx(2.0, abs=1e-12)
        assert fit.c2_hat == pytest.approx(0.3, rel=1e-12)
        # RAW on the same curve is biased by the ignored prefactor
        raw = fit_rate(eps, vals, mode="RAW")
        assert abs(raw.gamma_hat - 2.0) > 1e-3

    def test_strict_mode_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            fit_rate([0.1, 0.2, 0.3], [0.5, 1.0, 0.2])
        with pytest.raises(ValueError):
            fit_rate([0.1, 0.2, 0.3], [0.5, 0.0, 0.2])

    def test_window_drops_points(self):
        eps = np.geomspace(0.3, 0.9, 12)
        vals = np.exp(-2.0 * eps**-3.0)
        vals[0] = 0.0  # saturated empirical cell
        vals[-1] = 1.0
        fit = fit_rate(eps, vals, value_window=(0.0, 1.0))
        assert fit.n_used == 10
        assert fit.gamma_hat == pytest.approx(3.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_rate([0.1, 0.2], [0.5, 0.4])
        with pytest.raises(ValueError):
            fit_rate([0.1, 0.2, 0.3], [0.5, 0.4, 0.3], mode="LOGLOG")


class TestVerify:
    def _table(self, epsilons, n_paths=2000, seed=1):
        return estimate_small_ball(BM, GRID, epsilons, n_paths, seed=seed)

    def test_verdicts(self):
        table = self._table([0.5, 1.0, 2.0])
        upper_mid = table.rows[1].cp_upper
        certs = [
            _cert(0.5, 1.0, vacuous=True),
            _cert(1.0, min(1.0 - 1e-9, upper_mid + 0.05)),
            _cert(2.0, 0.01),  # far below the empirical upper limit
        ]
        report = verify_certificates(table, certs)
        assert [r.verdict for r in report.rows] == ["VACUOUS", "PASS", "FAIL"]
        assert not report.ok
        assert report.counts() == {"PASS": 1, "FAIL": 1, "VACUOUS": 1}
        assert report.rows[1].margin > 0 >= report.rows[2].margin

    def test_csv_schema(self):
        table = self._table([0.5])
        report = verify_certificates(table, [_cert(0.5, 0.9)])
        text = report.to_csv_text()
        assert text.startswith("epsilon,p_hat,ci_lo,ci_hi,bound,verdict\n")
        assert len(text.strip().split("\n")) == 2

    def test_certificates_accepted_in_any_order(self):
        table = self._table([0.5, 1.0])
        certs = [_cert(1.0, 0.99), _cert(0.5, 0.9)]
        report = verify_certificates(table, certs)
        assert [r.epsilon for r in report.rows] == [0.5, 1.0]

    def test_count_mismatch_raises(self):
        with pytest.raises(InvalidComparisonError):
            verify_certificates(self._table([0.5, 1.0]), [_cert(0.5, 0.9)])

    def test_epsilon_mismatch_raises(self):
        with pytest.raises(InvalidComparisonError):
            verify_certificates(self._table([0.5]), [_cert(0.51, 0.9)])

    def test_nesting_violation_raises(self):
        # grid step is 1/256; a partition step of 0.3/256ths does not nest
        bad = _cert(0.5, 0.9, delta=0.3 / 256, N=850)
        with pytest.raises(InvalidComparisonError):
            verify_certificates(self._table([0.5]), [bad])

    def test_witnessless_vacuous_certificate_skips_nesting(self):
        c = Certificate.vacuous_certificate(0.5, 1.0, Regime.sup(), reason="infeasible")
        report = verify_certificates(self._table([0.5]), [c])
        assert report.rows[0].verdict == "VACUOUS"

    def test_non_monotone_estimates_rejected(self):
        table = self._table([0.5, 1.0])
        broken = table.__class__(
            process=table.process, norm=table.norm, T=table.T, N=table.N,
            seed=table.seed, n_paths=table.n_paths, confidence=table.confidence,
            digest=table.digest,
            rows=(table.rows[1], table.rows[0]),  # p_hat now decreasing
        )
        with pytest.raises(InvalidComparisonError):
            verify_certificates(broken, [_cert(0.5, 0.9), _cert(1.0, 0.9)])
