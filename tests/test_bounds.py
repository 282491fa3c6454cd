"""Certificate construction and the closed-form bound families.

Frozen constants below were derived by hand from the stated formulas
(witness scale, envelope constants, Hoeffding exponents) and are asserted
at tight relative tolerances so any drift in the constant chain fails
loudly.
"""

import math

import numpy as np
import pytest
from scipy.special import zeta

from smallball.bounds import (
    Certificate,
    Regime,
    bound_fbm_holder_norm,
    bound_gaussian_class,
    bound_holder_indep,
    bound_iid_sum,
    bound_stationary,
    drift_threshold,
    empirical_certificate,
    feasible,
    iid_sum_certificate,
    representation_feasibility,
    witness_margins,
)
from smallball.concentration import cp_upper, drift_bounded_model, gauss_l2_tail
from smallball.errors import EpsilonTooLargeError, InfeasibleCertificateError
from smallball.simulate import DistSpec

TWO_OVER_E = 2.0 * math.exp(-1.0)
TWO_OVER_E2 = 2.0 * math.exp(-2.0)


class TestRegime:
    def test_labels(self):
        assert Regime.sup().label() == "sup"
        assert Regime.l1().label() == "l1"
        assert Regime.holder(0.25).label() == "holder(0.25)"

    def test_validation(self):
        with pytest.raises(ValueError):
            Regime("L2")
        with pytest.raises(ValueError):
            Regime("holder")
        with pytest.raises(ValueError):
            Regime("sup", beta=0.5)


class TestWitnessAlgebra:
    def test_sup_scale_inequality(self):
        # 4 N^{1/p} <= I / eps, N delta <= T
        assert feasible(Regime.sup(), 2.0, 4, 0.25, I=0.8, epsilon=0.1, T=1.0)
        assert not feasible(Regime.sup(), 2.0, 4, 0.25, I=0.79, epsilon=0.1, T=1.0)
        # partition overruns the horizon
        assert not feasible(Regime.sup(), 2.0, 5, 0.25, I=10.0, epsilon=0.1, T=1.0)

    def test_l1_needs_twice_the_scale(self):
        assert feasible(Regime.l1(), 2.0, 4, 0.25, I=1.6, epsilon=0.1, T=1.0)
        assert not feasible(Regime.l1(), 2.0, 4, 0.25, I=1.59, epsilon=0.1, T=1.0)

    def test_holder_scale_carries_delta_beta(self):
        reg = Regime.holder(0.5)
        need = 2.0 * 0.25**0.5 * 2.0 * 0.1  # 2 delta^beta N^{1/p} eps
        assert feasible(reg, 2.0, 4, 0.25, I=need, epsilon=0.1, T=1.0)
        assert not feasible(reg, 2.0, 4, 0.25, I=need * 0.999, epsilon=0.1, T=1.0)

    def test_drift_thresholds(self):
        assert drift_threshold(Regime.l1(), 1.0, 10, 0.1, I=2.0) == 0.25
        # I N^{-1/p} / (4 delta)
        assert drift_threshold(Regime.sup(), 2.0, 4, 0.25, I=2.0) == 2.0 / (2.0 * 1.0)


class TestCertificateContainer:
    def test_build_clamps_and_flags(self):
        c = Certificate.build(
            epsilon=0.1, T=1.0, regime=Regime.sup(), p=2, N=4, delta=0.25,
            I=1.0, term_concentration=0.7, term_drift=0.5, mode="EXPLICIT",
        )
        assert c.total == 1.0
        assert c.vacuous
        assert "VACUOUS" in c.flags

    def test_vacuous_certificate_records_reason(self):
        c = Certificate.vacuous_certificate(0.1, 1.0, Regime.sup(), reason="no witness")
        assert c.total == 1.0 and c.vacuous
        assert c.provenance["reason"] == "no witness"

    def test_to_json_round_trip(self):
        import json

        c = Certificate.build(
            epsilon=0.1, T=1.0, regime=Regime.holder(0.25), p=2, N=4,
            delta=0.25, I=1.0, term_concentration=0.2, term_drift=0.1,
            mode="EXPLICIT", provenance={"note": np.float64(1.5)},
        )
        d = json.loads(c.to_json())
        assert d["total"] == pytest.approx(0.3)
        assert d["regime"] == {"kind": "holder", "beta": 0.25}
        assert d["provenance"]["note"] == 1.5

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Certificate.build(
                epsilon=0.1, T=1.0, regime=Regime.sup(), p=2, N=4, delta=0.25,
                I=1.0, term_concentration=0.1, term_drift=0.0, mode="GUESS",
            )


class TestIidSum:
    DIST = DistSpec.uniform(-1.0, 1.0)

    def test_pinned_constant(self):
        val = bound_iid_sum(16, self.DIST.mean_abs, self.DIST.abs_bound, 0.125)
        assert val == pytest.approx(TWO_OVER_E, rel=1e-13)
        assert round(val, 6) == 0.735759

    def test_sharp_variant_is_tighter(self):
        val = bound_iid_sum(
            16, self.DIST.mean_abs, self.DIST.abs_bound, 0.125, mode="SHARP"
        )
        assert val == pytest.approx(TWO_OVER_E2, rel=1e-13)
        assert val < TWO_OVER_E

    def test_epsilon_gate(self):
        with pytest.raises(EpsilonTooLargeError):
            bound_iid_sum(16, 0.5, 1.0, 0.13)
        # boundary epsilon = mean_abs / 4 is allowed
        bound_iid_sum(16, 0.5, 1.0, 0.125)

    def test_certificate_wrapper(self):
        cert = iid_sum_certificate(self.DIST, 16, 0.125)
        assert cert.mode == "PAPER"
        assert cert.N == 16 and cert.delta == 1.0 and cert.p == 1.0
        assert cert.I == 16 * 0.5
        assert cert.total == pytest.approx(TWO_OVER_E, rel=1e-13)
        assert cert.provenance["exponent"] == pytest.approx(1.0)
        # the recorded witness is feasible exactly at the gate epsilon
        assert feasible(cert.regime, cert.p, cert.N, cert.delta, cert.I, 0.125, cert.T)
        assert not feasible(cert.regime, cert.p, cert.N, cert.delta, cert.I, 0.126, cert.T)

    def test_certificate_requires_centered_distribution(self):
        with pytest.raises(ValueError):
            iid_sum_certificate(DistSpec.uniform(0.0, 1.0), 16, 0.01)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bound_iid_sum(0, 0.5, 1.0, 0.1)
        with pytest.raises(ValueError):
            bound_iid_sum(16, -0.5, 1.0, 0.1)
        with pytest.raises(ValueError):
            bound_iid_sum(16, 0.5, 1.0, 0.1, mode="LOOSE")


class TestHolderIndep:
    def test_closed_form_case(self):
        # H = beta = 1/2, L = 1, c_inc = 2:
        #   gamma = 2, c_explicit = c^2/8 * (4/c)^{-2} = 1/8
        res = bound_holder_indep(0.5, 0.5, T=1.0, epsilon=0.1, holder_bound=1.0, c_inc=2.0)
        assert res.gamma == pytest.approx(2.0, abs=1e-14)
        assert res.c_explicit == pytest.approx(0.125, rel=1e-13)
        assert res.value == pytest.approx(2.0 * math.exp(-12.5), rel=1e-12)
        assert not res.useless

    def test_gamma_is_inverse_h_on_the_diagonal(self):
        res = bound_holder_indep(0.25, 0.25, T=1.0, epsilon=0.05, holder_bound=1.0, c_inc=1.0)
        assert res.gamma == pytest.approx(4.0, rel=1e-13)

    def test_useless_when_beta_reaches_h_plus_half(self):
        res = bound_holder_indep(0.3, 0.8, T=1.0, epsilon=0.1, holder_bound=1.0, c_inc=1.0)
        assert res.useless
        assert res.gamma == 0.0

    def test_witness_scale_exceeding_horizon_gives_trivial_bound(self):
        # delta* = (4 eps / c)^{1/beta} > T: nothing to certify
        res = bound_holder_indep(0.3, 0.3, T=0.01, epsilon=0.2, holder_bound=1.0, c_inc=1.0)
        assert res.value == 1.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bound_holder_indep(0.6, 0.5, T=1.0, epsilon=0.1, holder_bound=1.0, c_inc=1.0)
        with pytest.raises(ValueError):
            bound_holder_indep(0.3, 0.5, T=1.0, epsilon=1.5, holder_bound=1.0, c_inc=1.0)


class TestFbmHolderNorm:
    def test_rate_and_constants(self):
        res = bound_fbm_holder_norm(0.4, 0.2, epsilon=0.1, T=1.0)
        assert res.gamma == 5.0  # 1 / (H - beta), exactly representable
        s_inf = 2.0 * zeta(1.2) - 1.0
        assert res.c2 == pytest.approx(2.0**-5 / (16.0 * s_inf), rel=1e-12)
        assert res.delta == pytest.approx((2.0 * 0.1) ** 5, rel=1e-12)
        assert res.value == pytest.approx(
            2.0 * math.exp(-res.c2 * 0.1**-5.0), rel=1e-12
        )

    def test_value_decays_like_the_rate(self):
        eps = np.geomspace(0.06, 0.15, 8)
        vals = np.array([bound_fbm_holder_norm(0.4, 0.2, epsilon=e, T=1.0).value for e in eps])
        slopes = np.diff(np.log(-np.log(vals / 2.0))) / np.diff(np.log(1.0 / eps))
        np.testing.assert_allclose(slopes, 5.0, rtol=1e-10)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bound_fbm_holder_norm(0.5, 0.2, epsilon=0.1, T=1.0)  # needs H < 1/2
        with pytest.raises(ValueError):
            bound_fbm_holder_norm(0.4, 0.4, epsilon=0.1, T=1.0)  # needs beta < H
        with pytest.raises(ValueError):
            bound_fbm_holder_norm(0.4, 0.2, epsilon=0.0, T=1.0)


class TestStationary:
    SQRT = staticmethod(lambda d: math.sqrt(d))

    def test_witness_scale_solves_sigma_equals_4eps(self):
        res = bound_stationary(
            self.SQRT, Delta=1.0, ratio_bound=math.sqrt(2.0),
            symbol_sup_value=1.0, T=1.0, epsilon=0.125,
        )
        assert res.delta_star == pytest.approx(0.25, abs=1e-9)
        assert res.c2 == pytest.approx(1.0 / 64.0, rel=1e-12)
        assert res.value == 1.0  # exponent below ln 2 at this epsilon

    def test_small_epsilon_value(self):
        res = bound_stationary(
            self.SQRT, Delta=1.0, ratio_bound=math.sqrt(2.0),
            symbol_sup_value=1.0, T=1.0, epsilon=0.01,
        )
        assert res.delta_star == pytest.approx(0.0016, rel=1e-8)
        assert res.value == pytest.approx(
            2.0 * math.exp(-res.c2 * res.T / res.delta_star), rel=1e-12
        )

    def test_epsilon_gate(self):
        with pytest.raises(EpsilonTooLargeError):
            bound_stationary(
                self.SQRT, Delta=1.0, ratio_bound=math.sqrt(2.0),
                symbol_sup_value=1.0, T=1.0, epsilon=0.25,
            )

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bound_stationary(self.SQRT, Delta=1.0, ratio_bound=0.9,
                             symbol_sup_value=1.0, T=1.0, epsilon=0.01)


class TestGaussianClass:
    def test_fbm_witness_frozen_values(self):
        cert = bound_gaussian_class(0.3, 0.3, 1.0, 1.0, 1.0, T=1.0, epsilon=0.1)
        # seed scale solves delta^beta = 4 eps / sqrt(c)
        assert cert.delta == pytest.approx(0.4 ** (1.0 / 0.3), rel=1e-12)
        assert cert.N == 21
        assert cert.I == pytest.approx(math.sqrt(21.0) * 0.4, rel=1e-12)
        env = cert.provenance["envelope"]
        assert env["gamma"] == pytest.approx(10.0 / 3.0, rel=1e-14)
        s_env = 2.0 * zeta(1.4) - 1.0
        assert env["s_weight_envelope"] == pytest.approx(s_env, rel=1e-12)
        assert env["C2"] == pytest.approx(
            4.0 ** (-10.0 / 3.0) / (16.0 * s_env), rel=1e-12
        )
        assert env["dominates_discrete"]

    def test_total_is_envelope_value(self):
        eps = 0.02
        cert = bound_gaussian_class(0.3, 0.3, 1.0, 1.0, 1.0, T=1.0, epsilon=eps)
        env = cert.provenance["envelope"]
        expected = min(1.0, 2.0 * math.exp(-env["C2"] * eps ** (-10.0 / 3.0)))
        assert cert.total == pytest.approx(expected, rel=1e-12)
        assert not cert.vacuous

    def test_totals_monotone_in_epsilon(self):
        eps = np.geomspace(0.005, 0.06, 10)
        totals = [
            bound_gaussian_class(0.3, 0.3, 1.0, 1.0, 1.0, T=1.0, epsilon=e).total
            for e in eps
        ]
        assert all(a <= b + 1e-15 for a, b in zip(totals, totals[1:]))

    def test_h_above_half_uses_horizon_power(self):
        # prefactor T^{2-2H} and gamma = (2-2beta)/beta at H = beta = 0.75
        cert = bound_gaussian_class(0.75, 0.75, 1.0, 1.0, 1.0, T=4.0, epsilon=0.01)
        env = cert.provenance["envelope"]
        assert env["gamma"] == pytest.approx((2 - 1.5) / 0.75, rel=1e-13)
        assert env["prefactor_power"] == pytest.approx(0.5, abs=1e-13)

    def test_mesh_snaps_witness_upward(self):
        mesh = 1.0 / 8192
        cert = bound_gaussian_class(
            0.3, 0.3, 1.0, 1.0, 1.0, T=1.0, epsilon=0.1, delta_mesh=mesh
        )
        ratio = cert.delta / mesh
        assert abs(ratio - round(ratio)) < 1e-9
        assert cert.delta >= 0.4 ** (1.0 / 0.3) - 1e-15
        assert cert.N == int(1.0 / cert.delta)

    def test_bounded_drift_below_threshold_costs_nothing(self):
        # drift threshold at eps=0.02 is far above a 0.05-bounded drift
        plain = bound_gaussian_class(0.3, 0.3, 1.0, 1.0, 1.0, T=1.0, epsilon=0.02)
        drifted = bound_gaussian_class(
            0.3, 0.3, 1.0, 1.0, 1.0, T=1.0, epsilon=0.02,
            drift_model=drift_bounded_model(0.05),
        )
        assert drifted.term_drift == 0.0
        # the split with drift pays u = 64 instead of 16 in the exponent
        assert drifted.total >= plain.total

    def test_epsilon_and_class_gates(self):
        with pytest.raises(EpsilonTooLargeError):
            bound_gaussian_class(0.3, 0.3, 1.0, 1.0, 1.0, T=1.0, epsilon=1.0)
        with pytest.raises(ValueError):
            bound_gaussian_class(0.5, 0.3, 1.0, 1.0, 1.0, T=1.0, epsilon=0.1)
        with pytest.raises(InfeasibleCertificateError):
            bound_gaussian_class(0.3, 0.3, 1.0, 1.0, 1.0, T=1e-4, epsilon=0.1)

    def test_centering_choice_recorded(self):
        cert = bound_gaussian_class(0.3, 0.3, 1.0, 1.0, 1.0, T=1.0, epsilon=0.05)
        assert cert.provenance["centering"] == "sqrt_second_moment"

    def test_discrete_term_is_gauss_l2_tail(self):
        cert = bound_gaussian_class(0.3, 0.3, 1.0, 1.0, 1.0, T=1.0, epsilon=0.05)
        d = cert.provenance["discrete"]
        h = cert.provenance["threshold_concentration"]
        assert d["term_concentration"] == gauss_l2_tail(d["gamma_two_norm_bound"], h)
        # the recorded exponent is the one the tail was evaluated at
        assert d["term_concentration"] == min(1.0, 2.0 * math.exp(-d["exponent"]))


class TestEmpiricalCertificate:
    X = np.array([1.0, 2.0, 2.0, 2.0, 3.0])  # sample median I = 2
    A = np.array([0.1, 0.5, 0.7, 0.2])

    def test_terms_are_binomial_upper_limits(self):
        cert = empirical_certificate(0.1, 1.0, Regime.sup(), 2.0, 1, 1.0,
                                     self.X, self.A, confidence=0.9)
        assert cert.I == 2.0 and cert.mode == "STATISTICAL"
        # with a drift the split uses h = I/4 and x = I N^(-1/p) / (4 delta)
        assert cert.provenance["threshold_concentration"] == 0.5
        assert cert.provenance["threshold_drift"] == 0.5
        # |x - I| >= 0.5 twice in 5 draws; a >= 0.5 twice in 4
        assert cert.provenance["exceed_concentration"] == 2
        assert cert.provenance["exceed_drift"] == 2
        assert cert.term_concentration == cp_upper(2, 5, 0.9)
        assert cert.term_drift == cp_upper(2, 4, 0.9)
        assert cert.confidence == pytest.approx(0.8)

    def test_without_drift_samples(self):
        cert = empirical_certificate(0.1, 1.0, Regime.sup(), 2.0, 1, 1.0,
                                     self.X, confidence=0.9)
        assert cert.provenance["threshold_concentration"] == 1.0
        assert cert.term_concentration == cp_upper(2, 5, 0.9)
        assert cert.term_drift == 0.0 and cert.confidence == 0.9

    def test_infeasible_median_raises(self):
        # sup feasibility needs 4 N^(1/p) <= I / epsilon = 2 / 0.6
        with pytest.raises(InfeasibleCertificateError):
            empirical_certificate(0.6, 1.0, Regime.sup(), 2.0, 1, 1.0, self.X)


class TestRepresentationFeasibility:
    def test_feasible_triples_with_margins(self):
        for H, beta, theta in [(0.75, 0.6, 0.2), (0.75, 0.75, 0.01), (0.6, 0.55, 0.5)]:
            w = representation_feasibility(H, beta, theta)
            assert w.feasible, (H, beta, theta)
            margins = witness_margins(w.H, w.theta, w.Q, w.eta, w.mu, w.kappa, w.gamma_repr)
            assert all(v > 0 for v in margins.values())
            assert min(margins.values()) == pytest.approx(w.slack, abs=1e-12)

    def test_worked_example_witness(self):
        w = representation_feasibility(0.75, 0.6, 0.2)
        assert w.Q == pytest.approx(0.375, rel=1e-12)
        assert w.gamma_repr == pytest.approx(1.5, rel=1e-12)
        assert w.eta == pytest.approx(0.499, abs=1e-12)
        assert w.mu == pytest.approx(0.424, abs=1e-12)
        assert w.kappa == pytest.approx(0.624, abs=1e-12)

    def test_low_hurst_infeasible(self):
        w = representation_feasibility(0.4, 0.3, 0.1)
        assert not w.feasible
        assert w.reasons == ("H > 1/2",)

    def test_beta_threshold_infeasible(self):
        # 3H/(H+2) = 0.81818... at H = 0.75
        w = representation_feasibility(0.75, 0.82, 0.01)
        assert not w.feasible
        assert w.reasons == ("beta < 3H/(H+2)",)

    def test_degenerate_boundary(self):
        # at beta = H the pivot satisfies 2Q - 2H = 0 exactly
        w = representation_feasibility(0.75, 0.75, 0.0)
        assert abs(2.0 * w.Q - 1.5) < 1e-12
        assert not w.feasible
        assert w.reasons == ("theta > 2Q - 2H",)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            representation_feasibility(1.2, 0.5, 0.1)
        with pytest.raises(ValueError):
            representation_feasibility(0.75, 0.6, -0.1)
