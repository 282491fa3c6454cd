"""Sampler correctness: covariance targets, stream isolation, drift algebra.

Distributional checks compare empirical moments against the closed-form
fGn autocovariance at loose statistical tolerances; everything structural
(seeding, composition) is checked exactly.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from smallball.paths import UniformGrid
from smallball.simulate import (
    DistSpec,
    DriftSpec,
    ProcessSpec,
    SeedSpec,
    fgn_autocovariance,
    fgn_increments_block,
    iid_sums_block,
    path_values_block,
)
from smallball.gausscov import IncrementalVariance, increment_covariance
from smallball.simulate import _fgn_from_draws, _sfc64_states

RHO1_H03 = (2.0**0.6 - 2.0) / 2.0  # rho_{0.3}(1), closed form


class TestAutocovariance:
    def test_closed_form_values(self):
        rho = fgn_autocovariance(0.3, [0, 1, 2])
        assert rho[0] == 1.0
        assert rho[1] == pytest.approx(RHO1_H03, rel=1e-14)
        # rho(2) = (3^0.6 - 2*2^0.6 + 1)/2
        assert rho[2] == pytest.approx((3.0**0.6 - 2.0 * 2.0**0.6 + 1.0) / 2.0, rel=1e-14)

    def test_bm_increments_are_uncorrelated(self):
        rho = fgn_autocovariance(0.5, [0, 1, 2, 3])
        np.testing.assert_allclose(rho, [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_persistent_regime_is_positive(self):
        assert fgn_autocovariance(0.7, [1])[0] == pytest.approx(
            (2.0**1.4 - 2.0) / 2.0, rel=1e-14
        )
        assert fgn_autocovariance(0.7, [1])[0] > 0
        assert fgn_autocovariance(0.3, [1])[0] < 0


class TestSeeding:
    def test_same_seed_reproduces(self):
        a = fgn_increments_block(0.3, 32, 0.1, SeedSpec(5), [0, 1, 2])
        b = fgn_increments_block(0.3, 32, 0.1, SeedSpec(5), [0, 1, 2])
        np.testing.assert_array_equal(a, b)

    def test_rows_depend_only_on_stream_id(self):
        # a path's draws must not depend on which block it is computed in
        whole = fgn_increments_block(0.3, 16, 0.5, SeedSpec(5), np.arange(8))
        part = fgn_increments_block(0.3, 16, 0.5, SeedSpec(5), [3, 6])
        np.testing.assert_array_equal(whole[[3, 6]], part)

    def test_streams_purposes_and_seeds_differ(self):
        base = SeedSpec(5)
        draws = [
            fgn_increments_block(0.3, 16, 0.5, base, [0]),
            fgn_increments_block(0.3, 16, 0.5, base, [1]),
            fgn_increments_block(0.3, 16, 0.5, base.with_purpose(1), [0]),
            fgn_increments_block(0.3, 16, 0.5, SeedSpec(6), [0]),
        ]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_stream_layout_v2_is_pinned(self):
        # first values under SFC64 with draws written straight into the
        # half-spectrum (H != 1/2) or the increment row (H = 1/2, iid sums);
        # any change to the stream layout moves every one of them
        np.testing.assert_allclose(
            fgn_increments_block(0.3, 8, 0.5, SeedSpec(5), [0, 3])[:, :3],
            [[-0.11725589643012763, -0.016744694950928396, 0.5035567684075145],
             [0.6904647557530104, 0.6071412795159989, -0.06666274212997389]],
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            fgn_increments_block(0.5, 8, 0.25, SeedSpec(5), [0, 3])[:, :3],
            [[-0.20308490919881306, -0.2513533454734751, 0.3290276697766773],
             [-0.5667885973387664, -0.4186587844370472, 1.1862772438843596]],
            rtol=1e-13,
        )
        np.testing.assert_allclose(
            iid_sums_block(DistSpec.uniform(-1, 1), 8, SeedSpec(5), [0, 3])[:, :3],
            [[0.0, -0.9558073626888581, -1.100207851454382],
             [0.0, -0.051520729693659284, -0.6633538769328424]],
            rtol=1e-13,
        )

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)


def _reference_rows(seed, streams, draw):
    """Row b drawn by ``draw`` from the scalar generator of streams[b]."""
    return np.array([
        draw(SeedSpec(seed.seed, s, seed.purpose).generator()) for s in streams
    ])


class TestBlockStates:
    """The block samplers' bulk SFC64 states against numpy's own seeding."""

    STREAMS = list(range(300)) + [2**32 - 1, 2**32, 2**63 - 1]
    # one-word and two-word stream ids interleaved in one block
    MIXED = [0, 2**32 + 1, 5, 2**63 - 1, 7]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 3, 2**40 + 11, 2**130 + 7])
    @pytest.mark.parametrize("purpose", [0, 1])
    def test_states_match_seed_sequence(self, seed, purpose):
        expected = [
            np.random.SFC64(
                np.random.SeedSequence(seed, spawn_key=(purpose, s))
            ).state["state"]["state"]
            for s in self.STREAMS
        ]
        np.testing.assert_array_equal(_sfc64_states(seed, purpose, self.STREAMS), expected)
        np.testing.assert_array_equal(
            _sfc64_states(seed, purpose, np.array(self.STREAMS, dtype=np.uint64)), expected
        )

    @pytest.mark.parametrize("H", [0.3, 0.5])
    def test_fgn_rows_match_scalar_generators(self, H):
        N, delta, seed = 16, 0.5, SeedSpec(7, purpose=1)
        block = fgn_increments_block(H, N, delta, seed, self.MIXED)
        if H == 0.5:
            expected = _reference_rows(seed, self.MIXED, lambda g: g.standard_normal(N))
            expected *= delta**H
        else:
            draws = _reference_rows(seed, self.MIXED, lambda g: g.standard_normal(2 * N + 2))
            expected = _fgn_from_draws(H, N, delta, draws)
        np.testing.assert_array_equal(block, expected)

    def test_gaussian_kind_rows_match_scalar_generators(self):
        grid = UniformGrid(1.0, 16)
        sigma2 = lambda s, t: abs(t - s) ** 0.8
        spec = ProcessSpec(kind="gaussian", sigma2=sigma2)
        block = path_values_block(spec, grid, SeedSpec(4), self.MIXED)
        z = _reference_rows(SeedSpec(4), self.MIXED, lambda g: g.standard_normal(grid.N))
        factor = increment_covariance(IncrementalVariance(sigma2), grid).sampling_factor()
        expected = np.zeros((len(self.MIXED), grid.N + 1))
        np.cumsum(z @ factor.T, axis=1, out=expected[:, 1:])
        np.testing.assert_array_equal(block, expected)

    @pytest.mark.parametrize("dist", [
        DistSpec.uniform(-1.0, 2.0),
        DistSpec.rademacher(),
        DistSpec.scaled_beta(2.0, 3.0, -1.0, 1.0),
    ], ids=lambda d: d.kind)
    def test_iid_sums_match_scalar_generators(self, dist):
        # an odd step count leaves a buffered 32-bit rademacher draw behind
        # each row, which the next row's state must discard
        n, seed = 7, SeedSpec(3)
        block = iid_sums_block(dist, n, seed, self.MIXED)
        steps = _reference_rows(seed, self.MIXED, lambda g: dist.sample(g, n))
        np.testing.assert_array_equal(block[:, 1:], np.cumsum(steps, axis=1))
        assert not block[:, 0].any()

    @pytest.mark.parametrize("streams", [[-1], [0, 2**64], np.array([3, -2])])
    def test_stream_ids_outside_the_limit_are_rejected(self, streams):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            fgn_increments_block(0.3, 8, 0.5, SeedSpec(0), streams)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            iid_sums_block(DistSpec.rademacher(), 4, SeedSpec(0), streams)


class TestFgnDistribution:
    @pytest.mark.parametrize("H", [0.3, 0.7])
    def test_empirical_covariance_matches_target(self, H):
        N, n_paths, delta = 8, 6000, 0.25
        inc = fgn_increments_block(H, N, delta, SeedSpec(42), np.arange(n_paths))
        emp = inc.T @ inc / n_paths
        target = delta ** (2 * H) * fgn_autocovariance(H, np.abs(
            np.arange(N)[:, None] - np.arange(N)[None, :]
        ))
        scale = delta ** (2 * H)
        assert np.max(np.abs(emp - target)) < 0.06 * scale

    @pytest.mark.parametrize("H", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("N", [1, 2, 3, 8, 64])
    def test_draws_to_increments_map_has_exact_covariance(self, H, N):
        # pushing the identity through the linear map from the 2N+2 draws
        # of one path to its N increments gives the map's rows A[j] = image
        # of draw j; Cov(Y) = A^T A must be the fGn covariance exactly
        delta = 0.37
        A = _fgn_from_draws(H, N, delta, np.eye(2 * N + 2))
        target = delta ** (2 * H) * fgn_autocovariance(H, np.abs(
            np.arange(N)[:, None] - np.arange(N)[None, :]
        ))
        np.testing.assert_allclose(A.T @ A, target, rtol=0,
                                   atol=1e-12 * delta ** (2 * H))
        # the imaginary draws of k = 0 (slot 1) and k = N (slot 2N+1)
        # do not reach the increments
        assert not A[[1, 2 * N + 1]].any()

    def test_h_half_is_iid_gaussian(self):
        inc = fgn_increments_block(0.5, 4096, 0.25, SeedSpec(3), [0])[0]
        assert abs(inc.std() - 0.5) < 0.02  # delta^H = 0.5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fgn_increments_block(1.2, 8, 1.0, SeedSpec(0), [0])
        with pytest.raises(ValueError):
            fgn_increments_block(0.3, 0, 1.0, SeedSpec(0), [0])
        with pytest.raises(ValueError):
            fgn_increments_block(0.3, 8, -1.0, SeedSpec(0), [0])


class TestIidSums:
    def test_trajectory_shape_and_start(self):
        s = iid_sums_block(DistSpec.rademacher(), 10, SeedSpec(1), [0, 1])
        assert s.shape == (2, 11)
        assert np.all(s[:, 0] == 0.0)
        # rademacher steps: every increment is +-1
        np.testing.assert_allclose(np.abs(np.diff(s, axis=1)), 1.0)

    def test_uniform_moments(self):
        d = DistSpec.uniform(-1.0, 1.0)
        assert d.mean == 0.0
        assert d.mean_abs == 0.5
        assert d.abs_bound == 1.0

    def test_scaled_beta_mean_abs_matches_quadrature(self):
        from scipy import integrate
        from scipy.stats import beta as beta_dist

        d = DistSpec.scaled_beta(2.0, 3.0, -1.0, 2.0)
        num, _ = integrate.quad(
            lambda x: abs(-1.0 + 3.0 * x) * beta_dist.pdf(x, 2, 3), 0.0, 1.0
        )
        assert d.mean == pytest.approx(0.2, rel=1e-12)
        assert d.mean_abs == pytest.approx(num, rel=1e-9)


class TestDrift:
    GRID = UniformGrid(1.0, 64)

    def test_constant_drift_integral_is_linear(self):
        spec = ProcessSpec(kind="bm", drift=DriftSpec(kind="constant", level=2.0))
        y = path_values_block(spec, self.GRID, SeedSpec(8), [0])
        x = path_values_block(
            ProcessSpec(kind="bm"), self.GRID, SeedSpec(8), [0]
        )
        np.testing.assert_allclose(y - x, 2.0 * self.GRID.times[None, :], atol=1e-14)

    def test_bounded_wave_values_and_sup_bound(self):
        d = DriftSpec(kind="bounded_wave", amplitude=0.7, frequency=2.0)
        vals = d.deterministic_values(self.GRID)
        np.testing.assert_allclose(
            vals, 0.7 * np.sin(4.0 * np.pi * self.GRID.times), atol=1e-14
        )
        assert d.sup_bound() == 0.7
        assert DriftSpec(kind="fbm").sup_bound() is None

    def test_shared_drift_integrates_the_process_itself(self):
        spec = ProcessSpec(kind="fbm", H=0.3, drift=DriftSpec(kind="shared_fbm"))
        x = path_values_block(ProcessSpec(kind="fbm", H=0.3), self.GRID, SeedSpec(8), [0, 1])
        y = path_values_block(spec, self.GRID, SeedSpec(8), [0, 1])
        delta = self.GRID.delta
        integral = np.concatenate(
            [np.zeros((2, 1)), np.cumsum(x[:, :-1], axis=1) * delta], axis=1
        )
        np.testing.assert_array_equal(y, x + integral)

    def test_independent_fbm_drift_leaves_x_untouched(self, drift_integrand):
        # adding a random drift must not consume process draws: y is the
        # driftless x plus the integral of the purpose-1 fbm, bit for bit
        bare = ProcessSpec(kind="fbm", H=0.4)
        with_drift = ProcessSpec(kind="fbm", H=0.4, drift=DriftSpec(kind="fbm", H2=0.6))
        x = path_values_block(bare, self.GRID, SeedSpec(12), [0, 3])
        y = path_values_block(with_drift, self.GRID, SeedSpec(12), [0, 3])
        a = drift_integrand(with_drift, self.GRID, 12, [0, 3])
        integral = np.concatenate(
            [np.zeros((2, 1)), np.cumsum(a[:, :-1], axis=1) * self.GRID.delta], axis=1
        )
        np.testing.assert_array_equal(y, x + integral)

    def test_compose_drift_single_path(self):
        # a(t) = sin(pi t / 2) on t = 0, 0.5, .., 2: the left Riemann sums
        # of delta * a are 0, 0, r/2, (r+1)/2, (2r+1)/2 with r = sqrt(1/2)
        grid = UniformGrid(2.0, 4)
        wave = DriftSpec(kind="bounded_wave", amplitude=1.0, frequency=0.25)
        x = path_values_block(ProcessSpec(kind="bm"), grid, SeedSpec(0), [0])
        y = path_values_block(ProcessSpec(kind="bm", drift=wave), grid, SeedSpec(0), [0])
        r = np.sqrt(0.5)
        np.testing.assert_allclose(
            y, x + 0.5 * np.array([0.0, 0.0, r, r + 1.0, 2.0 * r + 1.0]), atol=1e-15
        )

    @pytest.mark.parametrize("drift", [
        DriftSpec(),
        DriftSpec(kind="constant", level=-0.4),
        DriftSpec(kind="bounded_wave", amplitude=0.7, frequency=2.0),
        DriftSpec(kind="fbm", H2=0.6),
        DriftSpec(kind="shared_fbm"),
    ], ids=lambda d: d.kind)
    def test_compose_integrates_drift_values(self, drift, drift_integrand):
        # y = x + left Riemann sum of a, bit for bit, whatever the drift
        spec = ProcessSpec(kind="fbm", H=0.3, drift=drift)
        streams = [1, 4, 6]
        x = path_values_block(replace(spec, drift=DriftSpec()), self.GRID,
                              SeedSpec(9), streams)
        a = drift_integrand(spec, self.GRID, 9, streams)
        if drift.kind == "none":
            np.testing.assert_array_equal(a, np.zeros_like(x))
        integral = np.zeros_like(a)
        np.cumsum(a[:, :-1], axis=1, out=integral[:, 1:])
        np.testing.assert_array_equal(
            path_values_block(spec, self.GRID, SeedSpec(9), streams),
            x + integral * self.GRID.delta,
        )

    def test_bm_rejects_other_hurst_index(self):
        with pytest.raises(ValueError, match="bm has Hurst index 0.5"):
            ProcessSpec(kind="bm", H=0.2)
        assert ProcessSpec(kind="bm", H=0.5) == ProcessSpec(kind="bm")

    def test_fbm_drift_rejects_other_hurst_index(self):
        # at construction, not mid-simulation
        for H2 in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="Hurst index"):
                DriftSpec(kind="fbm", H2=H2)
        DriftSpec(kind="constant", H2=1.5)  # H2 describes only the fbm drift

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError):
            DriftSpec(kind="quadratic")
        with pytest.raises(ValueError):
            ProcessSpec(kind="poisson")
        with pytest.raises(ValueError):
            ProcessSpec(kind="gaussian")  # needs sigma2

    def test_label(self):
        spec = ProcessSpec(kind="fbm", H=0.3, drift=DriftSpec(kind="shared_fbm"))
        assert spec.label() == "fbm(H=0.3)+shared_fbm"


class TestGaussianKind:
    def test_custom_sigma2_reduces_to_bm(self):
        # sigma2(s,t) = |t-s| is Brownian scaling: increment variance delta
        grid = UniformGrid(1.0, 16)
        spec = ProcessSpec(kind="gaussian", sigma2=lambda s, t: abs(t - s))
        vals = path_values_block(spec, grid, SeedSpec(2), np.arange(4000))
        end_var = vals[:, -1].var()
        assert abs(end_var - 1.0) < 0.07

    def test_simulate_path_roundtrip(self):
        # a path starts at zero and its increments are the process draws
        grid = UniformGrid(1.0, 32)
        p = path_values_block(ProcessSpec(kind="bm"), grid, SeedSpec(6), [0])[0]
        assert p[0] == 0.0
        block = fgn_increments_block(0.5, 32, grid.delta, SeedSpec(6).with_purpose(0), [0])
        np.testing.assert_allclose(np.diff(p), block[0], atol=1e-14)


class TestBlockSlices:
    """The public blocks stream their rows through the Monte Carlo slices."""

    @pytest.mark.parametrize("spec", [
        ProcessSpec(kind="fbm", H=0.3), ProcessSpec(kind="bm"),
        ProcessSpec(kind="gaussian", sigma2=lambda s, t: abs(t - s) ** 0.8),
    ], ids=lambda s: s.kind)
    def test_empty_stream_list_gives_empty_blocks(self, spec):
        grid = UniformGrid(1.0, 16)
        assert path_values_block(spec, grid, SeedSpec(1), []).shape == (0, 17)
        if spec.kind != "gaussian":
            block = fgn_increments_block(spec.H, 16, grid.delta, SeedSpec(1), [])
            assert block.shape == (0, 16)

    @pytest.mark.parametrize("H", [0.3, 0.5])
    def test_one_row_slices_match_per_stream_calls(self, H):
        # at N = 2^17 a slice holds one row
        N, streams = 2**17, [3, 2**40, 0]
        block = fgn_increments_block(H, N, 0.5, SeedSpec(8), streams)
        for row, s in zip(block, streams):
            np.testing.assert_array_equal(
                row, fgn_increments_block(H, N, 0.5, SeedSpec(8), [s])[0])
        spec = ProcessSpec(kind="fbm", H=H, drift=DriftSpec(kind="fbm", H2=0.7))
        grid = UniformGrid(1.0, N)
        block = path_values_block(spec, grid, SeedSpec(8), streams)
        for row, s in zip(block, streams):
            np.testing.assert_array_equal(
                row, path_values_block(spec, grid, SeedSpec(8), [s])[0])

    def test_path_values_peak_memory_is_about_the_result(self):
        spec = ProcessSpec(kind="fbm", H=0.3, drift=DriftSpec(kind="bounded_wave"))
        grid, streams = UniformGrid(1.0, 8192), np.arange(512)
        path_values_block(spec, grid, SeedSpec(2), streams[:8])  # warm caches
        tracemalloc.start()
        try:
            values = path_values_block(spec, grid, SeedSpec(2), streams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * values.nbytes
