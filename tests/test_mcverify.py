"""Monte Carlo estimation, rate fitting, and certificate verification.

Structural properties (determinism, shared-sample counting, CSV shape)
are exact; distributional ones use the reflection-series law of the
Brownian sup as an independent oracle.
"""

import hashlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm as normal

import smallball.mcverify
import smallball.simulate
from smallball.bounds import Certificate, Regime
from smallball.errors import InvalidComparisonError
from smallball.mcverify import (
    NormSpec,
    _chunk_map,
    _holder_counts,
    _norms_block,
    _subgrid_floor,
    bm_sup_exact,
    config_digest,
    estimate_small_ball,
    estimate_small_ball_drifts,
    drift_norm_samples,
    fit_rate,
    partition_norm_samples,
    verify_certificates,
)
from smallball.paths import UniformGrid, holder_norm_batch, increment_lp
from smallball.simulate import (
    DriftSpec,
    ProcessSpec,
    SeedSpec,
    _Sampler,
    _x_law,
    path_values_block,
)

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


def _planted_pair(N, beta, t0, L):
    """A zero path with a dip -a at t0 and a peak +a at t0 + L.

    The pair reads 2a / (L delta)^beta, which is the norm while
    L^beta < 2: every other term is at most a / delta^beta.  a is the
    first height at which radius * (L delta)^beta, for the radius one ulp
    below the norm, rounds up to the pair's difference 2a, so a screen
    without its slack skips the pair (none does when the scale is a power
    of two).
    """
    delta = UniformGrid(1.0, N).delta
    scale = (L * delta) ** beta
    a = next((1.0 + k / 4096 for k in range(4096)
              if 2.0 + k / 2048
              <= np.nextafter((2.0 + k / 2048) / scale, 0.0) * scale), 1.0)
    path = np.zeros((1, N + 1))
    path[0, t0], path[0, t0 + L] = -a, a
    norm = holder_norm_batch(path, delta, beta)[0]
    assert norm == 2 * a / scale
    return path, delta, norm


def _assert_counted_at_its_norm(path, delta, beta, norm, case):
    below = np.nextafter(norm, 0.0)
    for radii, counts in [([norm], [1]), ([below], [0]), ([below, norm], [0, 1])]:
        got = _holder_counts(path, delta, beta, np.array(radii))
        assert got.tolist() == counts, (case, radii)


@st.composite
def _spiky_paths(draw):
    """Rows of a scaled random walk with a few spikes, on N = 1..300."""
    N = draw(st.integers(1, 300))
    rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    walk = draw(st.sampled_from([0.0, 0.01, 1.0]))
    values = walk * rng.standard_normal((rows, N + 1)).cumsum(axis=1)
    for r, t, h in draw(st.lists(st.tuples(
            st.integers(0, rows - 1), st.integers(0, N),
            st.floats(-8.0, 8.0, allow_nan=False)), max_size=6)):
        values[r, t] += h
    beta = draw(st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.5, 0.9]))
    T = draw(st.sampled_from([1.0, 0.3, 7.0]))
    return values, UniformGrid(T, N).delta, beta


class TestNormSpec:
    def test_labels_and_regimes(self):
        # the norm of the event and the certificate regime are one type
        assert NormSpec is Regime
        assert Regime("sup").label() == "sup"
        assert Regime("l1") == Regime.l1()
        h = Regime("holder", beta=0.25)
        assert h.label() == "holder(0.25)"
        assert h == Regime.holder(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            Regime("l2")
        with pytest.raises(ValueError):
            Regime("holder")
        for beta in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                Regime("holder", beta=beta)
        with pytest.raises(ValueError):
            Regime("sup", beta=0.3)


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

    @pytest.mark.parametrize("workers,pool_size", [(2, 2), (5000, 4)])
    def test_pool_has_at_most_one_process_per_chunk(self, workers, pool_size,
                                                    monkeypatch):
        # a fork-start pool forks max_workers processes at the first submit,
        # so the size is checked on a fake that maps in this process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, job, blocks, chunksize=1):
                return map(job, blocks)

        monkeypatch.setattr("smallball.mcverify.ProcessPoolExecutor", FakePool)
        serial = estimate_small_ball(BM, GRID, [0.5, 1.0], 1000, seed=5)
        pooled = estimate_small_ball(BM, GRID, [0.5, 1.0], 1000, seed=5,
                                     workers=workers)
        assert sizes == [pool_size]  # 1000 paths are 4 chunks
        assert pooled.to_csv_text() == serial.to_csv_text()

    def test_lambda_sigma2_runs_in_the_pool(self):
        # a chunk job carries the sampling factor, not the sigma2 callable,
        # so a lambda that cannot pickle still reaches the pool workers
        spec = ProcessSpec(kind="gaussian", sigma2=lambda s, t: abs(t - s) ** 0.8)
        grid = UniformGrid(1.0, 16)
        serial = estimate_small_ball(spec, grid, [0.5, 1.0], 1000, seed=2)
        pooled = estimate_small_ball(spec, grid, [0.5, 1.0], 1000, seed=2,
                                     workers=2)
        assert pooled.to_csv_text() == serial.to_csv_text()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_needs_at_least_one_worker(self, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            estimate_small_ball(BM, GRID, [0.5], 1000, seed=5, workers=workers)

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

    def test_numpy_path_count_writes_the_int_bytes(self):
        # repr(np.int64(1000)) is "np.int64(1000)" under numpy 2, and
        # k / np.int64(1000) a numpy float with the same kind of repr; a
        # numpy seed would also digest as the string "3"
        as_int = estimate_small_ball(BM, GRID, [0.5, 1.0], 1000, seed=3)
        for kwargs in ({"n_paths": np.int64(1000)}, {"seed": np.int64(3)},
                       {"confidence": np.float64(0.99)}):
            args = {"n_paths": 1000, "seed": 3, "confidence": 0.99, **kwargs}
            as_numpy = estimate_small_ball(BM, GRID, [0.5, 1.0], **args)
            assert as_numpy.to_csv_text() == as_int.to_csv_text(), kwargs

    def test_holder_norm_counts_match_batch_norms(self):
        grid = UniformGrid(1.0, 64)
        spec = ProcessSpec(kind="fbm", H=0.4)
        eps = [0.4, 0.8, 1.6]
        table = estimate_small_ball(
            spec, grid, eps, 1000, seed=9, norm=Regime("holder", beta=0.2)
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

    @pytest.mark.parametrize("N,beta", [(64, 0.1), (1000, 0.1)])
    def test_planted_pairs_at_the_direct_and_first_walk_lags(self, N, beta):
        # lags 1-3 are scanned one at a time and lags 4-15 in the blocks
        # [4, 8) and [8, 16); dips at 1 and N // 2 + 1 sit off the floor's
        # subgrid
        for L in range(1, 16):
            for t0 in sorted({1, N // 2 + 1, N - L - 1, N - L}):
                path, delta, norm = _planted_pair(N, beta, t0, L)
                _assert_counted_at_its_norm(path, delta, beta, norm, (L, t0))

    @pytest.mark.parametrize("N,beta", [(100, 0.1), (1000, 0.1), (1023, 0.05)])
    def test_planted_pairs_at_cell_edges(self, N, beta):
        # in block [lo, 2 lo) the starts come in cells of lo: the last start
        # of a cell (i lo - 1), the first (i lo), and the starts of the
        # last, partial cell, with the lags that reach the far end of the
        # cell's two window columns
        for lo in (4, 8, 16, 32, 64, 128, 256, 512):
            if lo > N:
                continue
            starts = N + 1 - lo
            cells = -(-starts // lo)
            edges = {(cells - 1) * lo, starts - 1}
            for i in sorted({1, 2, cells // 2, cells - 1}):
                edges |= {i * lo - 1, i * lo}
            for L in sorted({lo, lo + 1, 2 * lo - 1}):
                for t0 in sorted(t for t in edges if 0 <= t <= N - L):
                    path, delta, norm = _planted_pair(N, beta, t0, L)
                    _assert_counted_at_its_norm(path, delta, beta, norm,
                                                (lo, L, t0))

    @pytest.mark.parametrize("N,beta", [(64, 0.1), (100, 0.1), (2048, 0.05)])
    def test_planted_pair_on_the_subgrid_is_the_floor(self, N, beta):
        # both ends on the floor's 33-point subgrid: the floor is the norm
        s = N // 32
        for i, j in [(0, 1), (3, 4), (0, 31), (31, 32), (10, 20)]:
            path, delta, norm = _planted_pair(N, beta, i * s, (j - i) * s)
            assert _subgrid_floor(path, delta, beta)[0] == norm
            _assert_counted_at_its_norm(path, delta, beta, norm, (i, j))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_spiky_paths())
    def test_counts_match_dense_norms_on_spiky_paths(self, case):
        values, delta, beta = case
        norms = holder_norm_batch(values, delta, beta)
        radii = np.unique(np.concatenate([norms, np.nextafter(norms, 0.0)]))
        radii = radii[radii > 0] if (radii > 0).any() else np.array([1.0])
        dense = [int(np.count_nonzero(norms <= e)) for e in radii]
        assert _holder_counts(values, delta, beta, radii).tolist() == dense

    def test_l1_norm_counts(self):
        eps = [0.2, 0.5]
        table = estimate_small_ball(BM, GRID, eps, 1000, seed=9, norm=Regime("l1"))
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
        s = drift_norm_samples(spec, GRID, Regime("sup"), 300, seed=4)
        np.testing.assert_array_equal(s, np.full(300, 1.5))
        wave = ProcessSpec(kind="bm", drift=DriftSpec(kind="bounded_wave", amplitude=2.0))
        s = drift_norm_samples(wave, GRID, Regime("sup"), 300, seed=4)
        grid_max = 2.0 * np.max(np.abs(np.sin(2 * np.pi * GRID.times)))
        np.testing.assert_allclose(s, grid_max, atol=1e-12)

    @pytest.mark.parametrize("n_paths", [0, -5])
    def test_need_at_least_one_path(self, n_paths):
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            partition_norm_samples(BM, GRID, 2.0, n_paths, seed=4)
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            drift_norm_samples(BM, GRID, Regime("sup"), n_paths, seed=4)

    def test_l1_event_controls_l1_of_drift(self):
        # left Riemann sum of a constant is exact: integral of |2| over [0,1]
        spec = ProcessSpec(kind="bm", drift=DriftSpec(kind="constant", level=2.0))
        s = drift_norm_samples(spec, GRID, Regime("l1"), 300, seed=4)
        np.testing.assert_allclose(s, 2.0, atol=1e-12)


class TestSlices:
    """Chunks of CHUNK paths are streamed through row slices of
    max(1, 2^16 // N) rows that reuse one set of buffers.  At N = 3000 a
    slice holds 21 rows, so a full chunk is 12 slices and a 4-row one, and
    the last chunk of 278 paths (22 rows) is a slice and a 1-row one:
    every last slice leaves stale rows of the slice before it in the
    buffers.  Counts must equal those of dense whole-block values."""

    N, PATHS, SEED = 3000, 278, 23
    GRID = UniformGrid(1.0, 3000)
    SPEC = ProcessSpec(kind="fbm", H=0.3)
    DRIFTS = (DriftSpec(), DriftSpec(kind="constant", level=-0.4),
              DriftSpec(kind="bounded_wave", amplitude=0.7, frequency=2.0),
              DriftSpec(kind="fbm", H2=0.6), DriftSpec(kind="shared_fbm"))

    def _dense_norms(self, drift, norm):
        values = path_values_block(replace(self.SPEC, drift=drift), self.GRID,
                                   SeedSpec(self.SEED), np.arange(self.PATHS))
        if norm.kind != "holder":
            return _norms_block(values, self.GRID.delta, norm)
        # the dense scan is row by row; pieces keep its temporaries small
        return np.concatenate([
            holder_norm_batch(values[i:i + 16], self.GRID.delta, norm.beta)
            for i in range(0, self.PATHS, 16)])

    def _counts(self, drifts, eps, norm=Regime.sup()):
        # the chunk jobs of estimate_small_ball_drifts, below its 1000-path floor
        job = partial(smallball.mcverify._chunk_counts,
                      _x_law(self.SPEC, self.GRID), tuple(drifts), self.GRID,
                      SeedSpec(self.SEED), norm, np.asarray(eps))
        return sum(_chunk_map(job, self.PATHS))

    @pytest.mark.parametrize("norm", [Regime.sup(), Regime.l1(), Regime.holder(0.2)],
                             ids=lambda n: n.kind)
    def test_counts_match_dense_values_across_slice_boundaries(self, norm):
        # one estimate composes x with every drift into one reused buffer;
        # radii at three quantiles of each drift's norms, and one above
        # every norm, where a stale row counted would push k past n_paths
        norms = [self._dense_norms(d, norm) for d in self.DRIFTS]
        eps = sorted({float(q) for n in norms for q in np.quantile(n, [0.1, 0.5, 0.9])}
                     | {2.0 * max(float(n.max()) for n in norms)})
        counts = self._counts(self.DRIFTS, eps, norm)
        for drift, row, dense in zip(self.DRIFTS, counts, norms):
            assert row.tolist() == [
                int(np.count_nonzero(dense <= e)) for e in eps], drift.kind
            assert row[-1] == self.PATHS

    def test_each_slice_counts_only_its_rows(self, monkeypatch):
        counted = []
        counts_block = smallball.mcverify._counts_block

        def spy(values, delta, norm, epsilons):
            counted.append(values.shape[0])
            return counts_block(values, delta, norm, epsilons)

        monkeypatch.setattr(smallball.mcverify, "_counts_block", spy)
        drifts = (DriftSpec(), DriftSpec(kind="shared_fbm"))
        counts = self._counts(drifts, [1e9])
        slices = [21] * 12 + [4] + [21, 1]
        assert counted == [r for r in slices for _ in drifts]
        assert counts.tolist() == [[self.PATHS], [self.PATHS]]

    @pytest.mark.parametrize("spec", [
        ProcessSpec(kind="fbm", H=0.3), ProcessSpec(kind="bm"),
        ProcessSpec(kind="gaussian", sigma2=lambda s, t: abs(t - s) ** 0.8),
    ], ids=lambda s: s.kind)
    def test_slices_sample_the_rows_of_the_whole_block(self, spec):
        # 9 streams in slices of 4 rows end on a lone row, which the
        # gaussian kind multiplies like every other (no one-row product)
        grid = UniformGrid(1.0, 40)
        streams = np.array([3, 0, 7, 2**40, 1, 9, 4, 12, 5])
        sampler = _Sampler(grid.N, grid.delta, SeedSpec(6), streams, 4,
                           _x_law(spec, grid))
        sliced = np.concatenate([sampler.values(lo, min(lo + 4, 9)).copy()
                                 for lo in range(0, 9, 4)])
        whole = path_values_block(spec, grid, SeedSpec(6), streams)
        np.testing.assert_array_equal(sliced, whole)

    @staticmethod
    def _count_builds(monkeypatch):
        built = []
        build = smallball.simulate.increment_covariance

        def counting(iv, grid):
            built.append(grid.N)
            return build(iv, grid)

        monkeypatch.setattr(smallball.simulate, "increment_covariance", counting)
        return built

    def test_gaussian_factor_is_built_once_per_estimate(self, monkeypatch):
        built = self._count_builds(monkeypatch)
        spec = ProcessSpec(kind="gaussian", sigma2=lambda s, t: abs(t - s) ** 0.8)
        table = estimate_small_ball(spec, UniformGrid(1.0, 1000),
                                    [0.6, 0.9, 1.2, 2.0, 5.0], 1000, 31)
        assert built == [1000]  # not once per chunk: 4 chunks of 4 slices each
        # the bytes of the table sampled by whole chunks
        text = table.to_csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f7d3add77edb45ed05620fe3855665cbc40da47a48ddc3a5333be3074ad81bcd")

    def test_gaussian_norm_samples_build_the_factor_once_per_call(self, monkeypatch):
        built = self._count_builds(monkeypatch)
        spec = ProcessSpec(kind="gaussian", sigma2=lambda s, t: abs(t - s) ** 0.8,
                           drift=DriftSpec(kind="shared_fbm"))
        grid = UniformGrid(1.0, 64)
        x_norms = partition_norm_samples(spec, grid, 2.0, 600, 4)
        assert built == [64]  # 600 paths are 3 chunks
        a_sups = drift_norm_samples(spec, grid, Regime.sup(), 600, 4)
        assert built == [64, 64]
        # the shared drift's integrand is x itself, on the same streams
        x = path_values_block(replace(spec, drift=DriftSpec()), grid,
                              SeedSpec(4), np.arange(600))
        np.testing.assert_array_equal(x_norms, increment_lp(x, 2.0))
        np.testing.assert_array_equal(a_sups, _norms_block(x, grid.delta, Regime.sup()))

    def test_norm_samples_match_dense_values(self, drift_integrand):
        shared = replace(self.SPEC, drift=DriftSpec(kind="shared_fbm"))
        x = path_values_block(self.SPEC, self.GRID, SeedSpec(self.SEED),
                              np.arange(self.PATHS))
        np.testing.assert_array_equal(
            partition_norm_samples(shared, self.GRID, 2.0, self.PATHS, self.SEED),
            increment_lp(x, 2.0))
        for drift in self.DRIFTS[1:]:
            spec = replace(self.SPEC, drift=drift)
            a = drift_integrand(spec, self.GRID, self.SEED, np.arange(self.PATHS))
            for norm in (Regime.sup(), Regime.l1()):
                np.testing.assert_array_equal(
                    drift_norm_samples(spec, self.GRID, norm, self.PATHS, self.SEED),
                    _norms_block(a, self.GRID.delta, norm), err_msg=drift.kind)


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


class TestSupScreen:
    """The sup-ball screen drops, before the spectral multiply and irfft, the
    rows whose values at a few screen points already lie outside the
    largest radius; counts must equal those of the full paths."""

    DRIFTS = (DriftSpec(), DriftSpec(kind="constant", level=-0.4),
              DriftSpec(kind="bounded_wave", amplitude=0.7, frequency=2.0))

    @staticmethod
    def _chunk(H, grid, drifts, eps, paths, seed=5):
        job = partial(smallball.mcverify._chunk_counts, H, tuple(drifts), grid,
                      SeedSpec(seed), Regime.sup(), np.asarray(eps))
        return sum(_chunk_map(job, paths))

    @staticmethod
    def _spy(monkeypatch):
        rows = []
        fgn = smallball.simulate._fgn_from_draws

        def spy(H, N, delta, draws, out=None):
            rows.append(draws.shape[0])
            return fgn(H, N, delta, draws, out=out)

        monkeypatch.setattr(smallball.simulate, "_fgn_from_draws", spy)
        return rows

    @pytest.mark.parametrize("T", [1.0, 0.0047, 2.0])
    @pytest.mark.parametrize("N", [1, 2, 333, 1000, 8192])
    @pytest.mark.parametrize("H", [0.1, 0.3, 0.7])
    def test_screened_counts_equal_dense_norms(self, H, N, T, monkeypatch):
        grid = UniformGrid(T, N)
        paths = 40 if N == 8192 else 300
        values = [path_values_block(ProcessSpec(kind="fbm", H=H, drift=d), grid,
                                    SeedSpec(5), np.arange(paths))
                  for d in self.DRIFTS]
        norms = [_norms_block(v, grid.delta, Regime.sup()) for v in values]
        # the largest radius at the median over rows of the smallest peak
        # at the screen points, so that the screen drops about half the rows
        points = smallball.simulate._screen_weights(H, N, grid.delta)[0]
        top = float(np.median(np.minimum.reduce(
            [np.abs(v[:, points]).max(axis=1) for v in values])))
        eps = sorted({top * f for f in (0.25, 0.5, 0.75, 1.0)}
                     | {float(np.quantile(n, 0.1)) for n in norms} - {0.0})
        eps = [e for e in eps if e <= top]
        rows = self._spy(monkeypatch)
        counts = self._chunk(H, grid, self.DRIFTS, eps, paths)
        for drift, row, dense in zip(self.DRIFTS, counts, norms):
            assert row.tolist() == [
                int(np.count_nonzero(dense <= e)) for e in eps], drift.kind
        assert sum(rows) < 0.75 * paths

    @pytest.mark.parametrize("N", [2, 333, 8192])
    def test_rows_inside_the_margin_reach_the_full_path(self, N):
        # a radius just below a row's largest screen value, by less than
        # the screen's margin: the row must be kept, and one a margin lower
        # dropped
        H, grid = 0.3, UniformGrid(1.0, N)
        points, weights, kappa = smallball.simulate._screen_weights(
            H, N, grid.delta)
        x = _Sampler(N, grid.delta, SeedSpec(5), np.arange(4), 4, H)
        row = x.draw(0, 4)[2].copy()
        peak = float(np.abs(weights @ row).max())
        margin = 2.0 * kappa * float(np.sqrt(row @ row))
        drifts = [smallball.simulate._Drift(DriftSpec(), H, grid, SeedSpec(5),
                                            np.arange(4), 4)]
        for e, kept in ((peak - margin / 2, 1), (peak - 2 * margin, 0)):
            screen = smallball.mcverify._sup_screen(H, drifts, grid, Regime.sup(),
                                                    np.array([e / 2, e]))
            assert screen(row[None, :].copy()) == kept, (e, peak, margin)

    def test_rows_inside_the_margin_are_counted_as_the_full_path(self):
        # radii at each path's own sup norm, the largest among them: rows at
        # or near it lie inside the margin and must be counted
        H, grid, paths = 0.3, UniformGrid(1.0, 1000), 300
        norms = _norms_block(path_values_block(
            ProcessSpec(kind="fbm", H=H), grid, SeedSpec(5), np.arange(paths)),
            grid.delta, Regime.sup())
        eps = np.sort(norms)[:60]
        counts = self._chunk(H, grid, (DriftSpec(),), eps, paths)
        assert counts[0].tolist() == list(range(1, 61))

    def test_a_chunk_whose_slices_drop_every_row_counts_zero(self, monkeypatch):
        rows = self._spy(monkeypatch)
        counts = self._chunk(0.3, UniformGrid(1.0, 8192), self.DRIFTS,
                             [0.01, 0.05], 64)
        assert counts.tolist() == [[0, 0]] * 3
        assert rows == []

    def test_few_rows_reach_the_spectral_transform_at_the_verify_shape(
            self, monkeypatch):
        # the CLI verify default suite: fbm(0.3), N = 8192, radii 0.1-0.6
        rows = self._spy(monkeypatch)
        eps = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        counts = self._chunk(0.3, UniformGrid(1.0, 8192), (DriftSpec(),), eps,
                             256, seed=7)
        assert counts.tolist() == [[0] * 6]
        assert sum(rows) < 0.1 * 256

    def test_a_chunk_whose_rows_mostly_survive_stops_screening(self):
        # rows at 0 lie inside every ball: after a slice of them the screen
        # reads no more rows of its chunk, and keeps rows it would drop
        H, N = 0.3, 8192
        grid = UniformGrid(1.0, N)
        drifts = [smallball.simulate._Drift(DriftSpec(), H, grid, SeedSpec(7),
                                            np.arange(8), 8)]

        def screen():
            return smallball.mcverify._sup_screen(H, drifts, grid, Regime.sup(),
                                                  np.array([0.01]))

        far = _Sampler(N, grid.delta, SeedSpec(7), np.arange(8), 8, H).draw(0, 8)
        assert screen()(far.copy()) == 0
        switched = screen()
        assert switched(np.zeros_like(far)) == 8
        assert switched(far.copy()) == 8

    def test_counts_at_the_survivor_heavy_shape_equal_dense_norms(self):
        # criterion 03's shape: most paths lie inside the largest radius
        H, grid, paths = 0.3, UniformGrid(0.0047, 8192), 64
        eps = [float(e) for e in np.geomspace(0.15, 0.45, 8)]
        dense = _norms_block(path_values_block(
            ProcessSpec(kind="fbm", H=H), grid, SeedSpec(5), np.arange(paths)),
            grid.delta, Regime.sup())
        counts = self._chunk(H, grid, (DriftSpec(),), eps, paths)
        assert counts[0].tolist() == [
            int(np.count_nonzero(dense <= e)) for e in eps]
        assert 0 < counts[0][-1] < paths

    @pytest.mark.parametrize("law,drift,norm", [
        (0.5, DriftSpec(), Regime.sup()),
        (0.3, DriftSpec(kind="shared_fbm"), Regime.sup()),
        (0.3, DriftSpec(kind="fbm", H2=0.6), Regime.sup()),
        (0.3, DriftSpec(), Regime.l1()),
        (0.3, DriftSpec(), Regime.holder(0.2)),
    ], ids=["bm", "shared_fbm", "fbm-drift", "l1", "holder"])
    def test_screen_applies_to_fgn_sup_balls_with_deterministic_drifts(
            self, law, drift, norm):
        grid = UniformGrid(1.0, 64)
        drifts = [smallball.simulate._Drift(drift, law, grid, SeedSpec(5),
                                            np.arange(4), 4)]
        assert smallball.mcverify._sup_screen(law, drifts, grid, norm,
                                              np.array([0.1])) is None
