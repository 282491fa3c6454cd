"""Grid and discrete norm checks.

The sup and L1 norms are the batched ones the Monte Carlo estimates
count with (``mcverify._norms_block``); the Holder norm is the dense
reference ``holder_norm_batch``.  Norm oracles here are brute-force
loops over grid pairs, kept small so they stay readable; the library
versions must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallball.bounds import Regime
from smallball.mcverify import _norms_block
from smallball.paths import UniformGrid, holder_norm_batch, increment_lp


def _norms(values, T=None, beta=0.5):
    """(sup, l1, Holder(beta)) of one path on the grid of [0, T]."""
    row = np.asarray(values, dtype=float)[None, :]
    delta = float(row.shape[1] - 1 if T is None else T) / (row.shape[1] - 1)
    return (
        _norms_block(row, delta, Regime.sup())[0],
        _norms_block(row, delta, Regime.l1())[0],
        holder_norm_batch(row, delta, beta)[0],
    )


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


class TestNorms:
    def test_sup_norm_hand_case(self):
        assert _norms([0.0, 1.0, -3.0, 0.5])[0] == 3.0

    def test_sup_norm_matches_abs_max_bit_for_bit(self):
        # all-zero rows of either sign, mixed signed zeros, one-sided and
        # random rows: the same bytes as np.abs(v).max(1), signbit included
        rng = np.random.default_rng(5)
        block = np.vstack([
            np.zeros((1, 9)), np.full((1, 9), -0.0),
            np.array([[0.0, -0.0] * 4 + [0.0]]), -np.arange(9.0)[None, :],
            np.arange(9.0)[None, :], rng.normal(size=(4, 9)),
        ])
        sup = _norms_block(block, 0.5, Regime.sup())
        assert sup.tobytes() == np.abs(block).max(axis=1).tobytes()
        assert not np.signbit(sup).any()

    def test_l1_norm_is_left_riemann_sum(self):
        # delta = 1, last point excluded: |0| + |1| + |-1| = 2
        assert _norms([0.0, 1.0, -1.0, 0.5])[1] == 2.0
        # halving delta halves the sum
        assert _norms([0.0, 1.0, -1.0, 0.5], T=1.5)[1] == 1.0

    def test_holder_norm_single_increment(self):
        assert _norms([0.0, 1.0])[2] == 1.0

    def test_holder_norm_brute_force(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=17)
        delta = 0.8 / 16
        beta = 0.37
        best = 0.0
        for i in range(17):
            for j in range(i + 1, 17):
                best = max(best, abs(values[j] - values[i]) / ((j - i) * delta) ** beta)
        assert _norms(values, T=0.8, beta=beta)[2] == pytest.approx(best, rel=1e-14)

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
    p = _norms(values, beta=beta)
    q = _norms([scale * v for v in values], beta=beta)
    for norm_p, norm_q in zip(p, q):
        assert norm_q == pytest.approx(scale * norm_p, rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
def test_holder_norm_dominates_endpoint_gap(values):
    # taking i=0, j=N in the max gives |f(T) - f(0)| / T^beta
    T = len(values) - 1
    lower = abs(values[-1] - values[0]) / T**0.5
    assert _norms(values)[2] >= lower - 1e-12
