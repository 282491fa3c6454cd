"""Grid, sample-path container, and discrete norm checks.

Norm oracles here are brute-force loops over grid pairs, kept small so
they stay readable; the library versions must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallball.paths import (
    SamplePath,
    UniformGrid,
    holder_norm,
    holder_norm_batch,
    increment_lp,
    l1_norm,
    sup_norm,
)


def _path(values, T=None):
    values = np.asarray(values, dtype=float)
    grid = UniformGrid(float(len(values) - 1 if T is None else T), len(values) - 1)
    return SamplePath(grid=grid, values=values)


class TestUniformGrid:
    def test_delta_and_times(self):
        g = UniformGrid(2.0, 4)
        assert g.delta == 0.5
        np.testing.assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            UniformGrid(1.0, 0)
        with pytest.raises(ValueError):
            UniformGrid(-1.0, 8)


class TestSamplePath:
    def test_length_must_match_grid(self):
        with pytest.raises(ValueError):
            SamplePath(grid=UniformGrid(1.0, 4), values=np.zeros(4))

    def test_values_are_read_only(self):
        p = _path([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            p.values[0] = 5.0


class TestNorms:
    def test_sup_norm_hand_case(self):
        assert sup_norm(_path([0.0, 1.0, -3.0, 0.5])) == 3.0

    def test_l1_norm_is_left_riemann_sum(self):
        # delta = 1, last point excluded: |0| + |1| + |-1| = 2
        assert l1_norm(_path([0.0, 1.0, -1.0, 0.5])) == 2.0
        # halving delta halves the sum
        assert l1_norm(_path([0.0, 1.0, -1.0, 0.5], T=1.5)) == 1.0

    def test_holder_norm_single_increment(self):
        assert holder_norm(_path([0.0, 1.0]), 0.5) == 1.0

    def test_holder_norm_brute_force(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=17)
        p = _path(values, T=0.8)
        delta = p.grid.delta
        beta = 0.37
        best = 0.0
        for i in range(17):
            for j in range(i + 1, 17):
                best = max(best, abs(values[j] - values[i]) / ((j - i) * delta) ** beta)
        assert holder_norm(p, beta) == pytest.approx(best, rel=1e-14)

    def test_holder_norm_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        block = rng.normal(size=(5, 33))
        grid = UniformGrid(2.0, 32)
        batch = holder_norm_batch(block, grid.delta, 0.25)
        for k in range(5):
            single = holder_norm(SamplePath(grid=grid, values=block[k]), 0.25)
            assert batch[k] == pytest.approx(single, rel=1e-14)

    def test_holder_norm_rejects_bad_beta(self):
        p = _path([0.0, 1.0])
        for beta in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                holder_norm(p, beta)

    def test_increment_lp_hand_cases(self):
        # one path per row; the last path does not move
        block = np.array([[0.0, 3.0, -1.0], [0.0, 1.0, 3.0], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(increment_lp(block, 1.0), [7.0, 3.0, 0.0])
        np.testing.assert_allclose(
            increment_lp(block, 2.0), [5.0, np.sqrt(5.0), 0.0], rtol=1e-15
        )
        np.testing.assert_array_equal(increment_lp(block, np.inf), [4.0, 2.0, 0.0])
        assert increment_lp(block[0], 1.0) == 7.0
        assert increment_lp([2.0], np.inf) == 0.0  # no increments
        with pytest.raises(ValueError):
            increment_lp(block, 0.5)

    def test_increment_lp_general_p(self):
        block = np.array([[0.0, 3.0, -1.0], [0.0, 1.0, 3.0]])
        np.testing.assert_allclose(
            increment_lp(block, 3.0), [91.0 ** (1 / 3), 9.0 ** (1 / 3)], rtol=1e-15
        )

@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=12),
    st.floats(0.05, 0.95),
    st.floats(0.1, 10.0),
)
def test_norms_are_absolutely_homogeneous(values, beta, scale):
    p = _path(values)
    q = _path([scale * v for v in values])
    assert sup_norm(q) == pytest.approx(scale * sup_norm(p), rel=1e-12, abs=1e-12)
    assert l1_norm(q) == pytest.approx(scale * l1_norm(p), rel=1e-12, abs=1e-12)
    assert holder_norm(q, beta) == pytest.approx(
        scale * holder_norm(p, beta), rel=1e-12, abs=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
def test_holder_norm_dominates_endpoint_gap(values):
    # taking i=0, j=N in the max gives |f(T) - f(0)| / T^beta
    p = _path(values)
    T = p.grid.T
    lower = abs(values[-1] - values[0]) / T**0.5
    assert holder_norm(p, 0.5) >= lower - 1e-12
