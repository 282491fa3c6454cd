"""Certified upper bounds for small-deviation probabilities.

Everything here produces Certificates: auditable records asserting
P(norm(y) <= epsilon) <= total for a stated norm, where y = X + integral(a).
The generic engine splits the event via a partition witness (p, N, delta, I):
if the witness is feasible for the norm regime, then

    P(norm(y) <= epsilon) <= P(| |X|_p - I | >= h) + P(drift_norm(a) >= x)

with h = I/4 (I/2 when no drift) and a regime-specific drift threshold x.
Plugging tail models for the two terms yields the bound.  Feasibility per
regime, with |X|_p the l^p norm of partition increments of X:

    sup     4 N^(1/p) <= I/epsilon   and  N delta <= T
    l1      8 N^(1/p) <= I/epsilon   and  N delta <= T
    holder  2 delta^beta N^(1/p) <= I/epsilon  and  N delta <= T

Modes: EXPLICIT totals come from closed-form tail inequalities, PAPER from
pinned literature constants, STATISTICAL from exact binomial upper limits
on sampled tails.

This is the one module that assembles Certificates, and each family is
one function that validates its inputs, computes its witness and returns
a Certificate: iid_sum_certificate, holder_indep_certificate,
bound_gaussian_class, fbm_holder_certificate, stationary_certificate and
empirical_certificate.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Optional

import numpy as np

from .concentration import TailModel, cp_upper, gauss_l2_tail
from .errors import EpsilonTooLargeError, InfeasibleCertificateError
from .gausscov import gamma_two_norm_bound, s_weight_envelope
from .simulate import DistSpec

__all__ = [
    "Regime",
    "Certificate",
    "feasible",
    "drift_threshold",
    "iid_sum_certificate",
    "holder_indep_certificate",
    "bound_gaussian_class",
    "fbm_holder_certificate",
    "stationary_certificate",
    "FeasibilityWitness",
    "representation_feasibility",
    "empirical_certificate",
]


@dataclass(frozen=True)
class Regime:
    """Norm regime of the small-deviation event.

    kind 'sup' and 'l1' need no exponent; 'holder' carries the norm
    exponent beta in (0, 1).
    """

    kind: str
    beta: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("sup", "l1", "holder"):
            raise ValueError(f"unknown regime kind {self.kind!r}")
        if self.kind == "holder":
            if self.beta is None or not (0.0 < self.beta < 1.0):
                raise ValueError("holder regime requires beta in (0, 1)")
        elif self.beta is not None:
            raise ValueError(f"regime {self.kind!r} takes no beta")

    @classmethod
    def sup(cls) -> "Regime":
        return cls("sup")

    @classmethod
    def l1(cls) -> "Regime":
        return cls("l1")

    @classmethod
    def holder(cls, beta: float) -> "Regime":
        return cls("holder", beta=float(beta))

    def label(self) -> str:
        if self.kind == "holder":
            return f"holder({self.beta:g})"
        return self.kind

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.beta is not None:
            d["beta"] = self.beta
        return d


def feasible(regime: Regime, p: float, N: int, delta: float, I: float,
             epsilon: float, T: float) -> bool:
    """Whether (p, N, delta, I) witnesses the split for the given event.

    The partition must fit the horizon (N delta <= T) and the scale
    inequality for the regime must hold; all comparisons are exact.
    """
    if N < 1 or delta <= 0 or I <= 0 or epsilon <= 0 or p <= 0:
        return False
    if N * delta > T * (1.0 + 1e-12):
        return False
    ratio = I / epsilon
    root = float(N) ** (1.0 / p)
    if regime.kind == "sup":
        return 4.0 * root <= ratio
    if regime.kind == "l1":
        return 8.0 * root <= ratio
    return 2.0 * delta ** regime.beta * root <= ratio


def _check_spacing(delta: float, epsilon: float) -> None:
    """Refuse a witness spacing that underflows (below the smallest normal
    float): T / delta would overflow or divide by zero."""
    if delta < sys.float_info.min:
        raise InfeasibleCertificateError(
            f"epsilon={epsilon:g} underflows the witness spacing delta to "
            f"{delta:g}",
            tightest={"epsilon": epsilon, "delta": delta},
        )


def _cells(T: float, delta: float, epsilon: float) -> int:
    """floor(T / delta) witness cells of spacing delta in the horizon, up
    to a 1e-12 tolerance.  Refuses a spacing that underflows and a cell
    count that overflows."""
    _check_spacing(delta, epsilon)
    cells = T / delta
    if not math.isfinite(cells):
        raise InfeasibleCertificateError(
            f"epsilon={epsilon:g} gives T / delta = {T:g} / {delta:g} "
            "witness cells, more than a float holds",
            tightest={"epsilon": epsilon, "delta": delta, "T": T},
        )
    return int(math.floor(cells + 1e-12))


def drift_threshold(regime: Regime, p: float, N: int, delta: float, I: float) -> float:
    """Level x such that drift_norm(a) < x keeps the split valid.

    sup and holder regimes control the drift in sup norm via
    x = I N^(-1/p) / (4 delta); the l1 regime controls the integral of |a|
    and allows x = I / 8.
    """
    if regime.kind == "l1":
        return I / 8.0
    return I * float(N) ** (-1.0 / p) / (4.0 * delta)


_MODES = ("EXPLICIT", "PAPER", "STATISTICAL")


@dataclass(frozen=True)
class Certificate:
    """Auditable record of one certified small-deviation upper bound."""

    epsilon: float
    T: float
    regime: Regime
    p: Optional[float]
    N: Optional[int]
    delta: Optional[float]
    I: Optional[float]
    term_concentration: float
    term_drift: float
    total: float
    mode: str
    confidence: Optional[float] = None
    flags: tuple = ()
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if not (0.0 <= self.total <= 1.0):
            raise ValueError("total must lie in [0, 1]")

    @property
    def vacuous(self) -> bool:
        return "VACUOUS" in self.flags or self.total >= 1.0

    @classmethod
    def build(cls, *, epsilon, T, regime, p, N, delta, I, term_concentration,
              term_drift, mode, confidence=None, flags=(), provenance=None):
        """Assemble a certificate, clamping the total and flagging vacuity."""
        total = min(1.0, term_concentration + term_drift)
        flags = tuple(flags)
        if total >= 1.0 and "VACUOUS" not in flags:
            flags = flags + ("VACUOUS",)
        return cls(
            epsilon=float(epsilon), T=float(T), regime=regime,
            p=None if p is None else float(p),
            N=None if N is None else int(N),
            delta=None if delta is None else float(delta),
            I=None if I is None else float(I),
            term_concentration=float(term_concentration),
            term_drift=float(term_drift), total=float(total), mode=mode,
            confidence=confidence, flags=flags,
            provenance=dict(provenance or {}),
        )

    @classmethod
    def vacuous_certificate(cls, epsilon, T, regime, reason: str,
                            mode: str = "EXPLICIT") -> "Certificate":
        """The trivial bound P <= 1, recorded with the reason it was issued."""
        return cls.build(
            epsilon=epsilon, T=T, regime=regime, p=None, N=None, delta=None,
            I=None, term_concentration=1.0, term_drift=0.0, mode=mode,
            flags=("VACUOUS",), provenance={"reason": reason},
        )

    def to_dict(self) -> dict:
        return _jsonable(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


_LEAVES = frozenset({float, int, str, bool, type(None)})  # by exact type


def _jsonable(obj):
    """JSON-ready copy of a record: a dataclass by its fields, a Regime by
    its own to_dict (which omits beta=None), tuples as lists and numpy
    values as Python ones."""
    if type(obj) in _LEAVES:
        return obj
    if isinstance(obj, Regime):
        return obj.to_dict()
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    return obj


# ---------------------------------------------------------------------------
# iid partial sums


def iid_sum_certificate(
    dist: DistSpec, n: int, epsilon: float, mode: str = "PAPER_CONSTANTS"
) -> Certificate:
    """Small-deviation certificate for partial sums of centered iid bounded steps.

    Valid for epsilon <= m / 4 with m = E|Z_1| and R = sup |Z_1| =
    |low| v |high|, both from the DistSpec.  The witness is the unit
    partition (p=1, N=n, delta=1, I = n m), so |X|_1 = sum |Z_k| and
    Hoeffding applies.  PAPER_CONSTANTS (alias PAPER) reproduces the pinned
    literature constant 2 exp(-n m^2 / (4 R^2)); SHARP evaluates the
    Hoeffding tail at I/2 directly, which is tighter: 2 exp(-n m^2 / (2 R^2)).
    """
    if abs(dist.mean) > 1e-12:
        raise ValueError("distribution must be centered")
    if mode not in ("PAPER", "PAPER_CONSTANTS", "SHARP"):
        raise ValueError("mode must be 'PAPER_CONSTANTS' (alias 'PAPER') or 'SHARP'")
    variant = "SHARP" if mode == "SHARP" else "PAPER"
    if n < 1:
        raise ValueError("n must be at least 1")
    m = dist.mean_abs
    R = dist.abs_bound
    if epsilon > m / 4.0 + 1e-15:
        raise EpsilonTooLargeError(
            f"epsilon={epsilon:g} exceeds E|Z_1|/4 = {m / 4.0:g}; "
            "the iid bound does not apply"
        )
    exponent = n * m * m / ((4.0 if variant == "PAPER" else 2.0) * R * R)
    if variant == "PAPER":
        term = min(1.0, 2.0 * math.exp(-n * m**2 / (4.0 * R**2)))
    else:
        # Hoeffding at I/2 for n steps of range R, in O(1) memory at any n
        term = min(1.0, 2.0 * math.exp(-exponent))
    return Certificate.build(
        epsilon=epsilon, T=float(n), regime=Regime.sup(), p=1.0, N=n,
        delta=1.0, I=n * m, term_concentration=term, term_drift=0.0,
        mode="PAPER" if variant == "PAPER" else "EXPLICIT",
        provenance={
            "family": "iid_sum",
            "variant": variant,
            "mean_abs": m,
            "abs_bound": R,
            "exponent": exponent,
        },
    )


# ---------------------------------------------------------------------------
# independent-increment Holder paths, sup-norm event


def holder_indep_certificate(
    H: float,
    beta: float,
    T: float,
    epsilon: float,
    holder_bound: float,
    c_inc: float,
) -> Certificate:
    """Sup-norm small-deviation certificate for independent-increment paths.

    Assumes |X_t - X_s| <= holder_bound |t-s|^H almost surely and
    E|X_t - X_s| >= c_inc |t-s|^beta, 0 < H <= beta < 1.  With the witness
    p=1, delta = (4 epsilon / c_inc)^(1/beta), I = N c_inc delta^beta,
    Hoeffding at I/4 gives

        P(sup |X| <= epsilon) <= 2 exp(-c_explicit T epsilon^(-gamma)),
        gamma = (1 + 2H - 2 beta) / beta,
        c_explicit = c_inc^2/(8 holder_bound^2) (4/c_inc)^((2 beta-2H-1)/beta).

    Flagged USELESS when gamma <= 0 (beta >= H + 1/2): the bound no longer
    improves as epsilon shrinks.  Vacuous when delta exceeds the horizon.
    """
    if not (0.0 < H <= beta < 1.0):
        raise ValueError("requires 0 < H <= beta < 1")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if c_inc <= 0 or holder_bound <= 0 or T <= 0:
        raise ValueError("c_inc, holder_bound, T must be positive")
    gamma = (1.0 + 2.0 * H - 2.0 * beta) / beta
    c_explicit = (
        c_inc * c_inc / (8.0 * holder_bound * holder_bound)
        * (4.0 / c_inc) ** ((2.0 * beta - 2.0 * H - 1.0) / beta)
    )
    try:
        delta = (4.0 * epsilon / c_inc) ** (1.0 / beta)
    except OverflowError:  # a spacing that overflows fits no horizon
        delta = math.inf
    N = _cells(T, delta, epsilon)
    if delta > T:
        return Certificate.vacuous_certificate(
            epsilon, T, Regime.sup(), "no partition fits the horizon")
    term = min(1.0, 2.0 * math.exp(-c_explicit * T * epsilon ** (-gamma)))
    return Certificate.build(
        epsilon=epsilon, T=T, regime=Regime.sup(), p=1.0, N=N, delta=delta,
        I=N * c_inc * delta**beta, term_concentration=term,
        term_drift=0.0, mode="EXPLICIT",
        flags=["USELESS"] if gamma <= 0.0 else [],
        provenance={"gamma": gamma, "c_explicit": c_explicit},
    )


# ---------------------------------------------------------------------------
# Gaussian increment-class certificates (the workhorse)


# the most cells a discrete gaussian_class witness may have: s_weight sums
# one term per two cells, about 0.9 s for 2^27 cells on a 2-core Xeon
_MAX_CLASS_CELLS = 2**27


def _class_seed_delta(epsilon: float, c: float, beta: float) -> float:
    # smallest delta with 4 sqrt(N) <= I/eps under I = sqrt(c N) delta^beta
    return (4.0 * epsilon / math.sqrt(c)) ** (1.0 / beta)


def _finite_or_null(entries: dict) -> dict:
    """entries with every non-finite float replaced by None (JSON null)."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in entries.items()}


def bound_gaussian_class(
    H: float,
    beta: float,
    c: float,
    C: float,
    c_deriv: float,
    T: float,
    epsilon: float,
    drift_model: Optional[TailModel] = None,
    delta_mesh: Optional[float] = None,
) -> Certificate:
    """Sup-norm certificate for Gaussian processes in an increment class.

    The class: stationary-increment centered Gaussian X with
    c delta^(2 beta) <= E(X_{t+delta}-X_t)^2 <= C delta^(2H) (so beta >= H)
    and entrywise increment-covariance cover
    |E Y_i Y_j| <= c_deriv delta^(2H) (1+|i-j|)^(2H-2).

    The reported total is the smooth envelope
        min(1, 2 exp(-C2 prefactor(T) epsilon^(-gamma)))
    evaluated at the real-valued witness N = T/delta_seed, with the
    operator-norm weight replaced by its proven dominating envelope.  A
    discrete feasible witness (N', delta', I') is recorded alongside, and
    the envelope is only reported when it dominates the discrete bound;
    otherwise the discrete bound is reported (flag DISCRETE_WITNESS).
    Rates: gamma = (1+2H-2 beta)/beta for H < 1/2 (prefactor T),
    gamma = (2-2 beta)/beta for H > 1/2 (prefactor T^(2-2H)); H = 1/2
    carries an extra log factor absorbed into the envelope numerically.
    """
    if not (0.0 < H < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("H and beta must lie in (0, 1)")
    if beta < H:
        raise ValueError("class requires beta >= H (lower envelope is steeper)")
    if c <= 0 or C < c or c_deriv <= 0 or T <= 0:
        raise ValueError("c, C, c_deriv, T must be positive with C >= c")
    if delta_mesh is not None and not delta_mesh > 0:
        raise ValueError("delta_mesh must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if epsilon >= 1.0:
        raise EpsilonTooLargeError(
            f"epsilon={epsilon:g} >= 1; the class bound applies to small "
            "radii only"
        )
    regime = Regime.sup()
    u = 64.0 if drift_model is not None else 16.0

    delta_seed = _class_seed_delta(epsilon, c, beta)
    _check_spacing(delta_seed, epsilon)  # on the seed: snapping could hide it
    if delta_seed > T:
        raise InfeasibleCertificateError(
            f"epsilon={epsilon:g} needs delta={delta_seed:g} > T={T:g}; no "
            "partition fits the horizon",
            tightest={"delta_seed": delta_seed, "T": T},
        )

    # discrete witness: snap delta up (never down, feasibility is one-sided)
    delta_d = delta_seed
    if delta_mesh is not None:
        steps = max(1, math.ceil(delta_seed / delta_mesh - 1e-12))
        delta_d = steps * delta_mesh
    if delta_d > T:
        raise InfeasibleCertificateError(
            f"mesh snapping pushed delta to {delta_d:g} > T={T:g}",
            tightest={"delta_seed": delta_seed, "delta_mesh": delta_mesh, "T": T},
        )
    N_d = _cells(T, delta_d, epsilon)
    I_d = math.sqrt(c * N_d) * delta_d ** beta
    if not feasible(regime, 2.0, N_d, delta_d, I_d, epsilon, T):
        # the seed solves sqrt(c) delta^beta = 4 eps with equality, so pow
        # roundoff can land a sliver short; the inequality does not involve
        # N, so a relative nudge of delta (or one mesh step) restores it
        bumped = delta_d * (1.0 + 1e-12) if delta_mesh is None else delta_d + delta_mesh
        if bumped <= T:
            delta_d = bumped
            N_d = _cells(T, delta_d, epsilon)
            I_d = math.sqrt(c * N_d) * delta_d ** beta
    if not feasible(regime, 2.0, N_d, delta_d, I_d, epsilon, T):
        raise InfeasibleCertificateError(
            f"discrete witness infeasible at epsilon={epsilon:g}",
            tightest={"p": 2.0, "N": N_d, "delta": delta_d, "I": I_d},
        )
    if N_d > _MAX_CLASS_CELLS:
        raise InfeasibleCertificateError(
            f"the discrete witness at epsilon={epsilon:g} has N={N_d:.4g} cells, "
            f"more than {_MAX_CLASS_CELLS}",
            tightest={"N": N_d, "delta": delta_d, "T": T},
        )
    norm2_d = gamma_two_norm_bound(H, N_d, delta_d, c_deriv)
    h_d = I_d / 4.0 if drift_model is not None else I_d / 2.0
    exponent_d = h_d * h_d / (4.0 * norm2_d)
    term_conc_d = gauss_l2_tail(norm2_d, h_d)

    # smooth envelope at the real-valued witness
    n_real = T / delta_seed
    s_env = s_weight_envelope(H, n_real)
    exponent_env = c * n_real * delta_seed ** (2.0 * beta - 2.0 * H) / (
        u * c_deriv * s_env
    )
    term_conc_env = min(1.0, 2.0 * math.exp(-exponent_env))

    envelope_ok = term_conc_env >= term_conc_d - 1e-15
    flags = []
    if envelope_ok:
        term_conc = term_conc_env
    else:
        term_conc = term_conc_d
        flags.append("DISCRETE_WITNESS")

    if drift_model is not None:
        x_d = drift_threshold(regime, 2.0, N_d, delta_d, I_d)
        term_drift = drift_model.evaluate(x_d)
    else:
        x_d = None
        term_drift = 0.0

    if H < 0.5:
        gamma = (1.0 + 2.0 * H - 2.0 * beta) / beta
        prefactor_power = 1.0
        c2 = (
            c * (4.0 / math.sqrt(c)) ** ((2.0 * beta - 2.0 * H - 1.0) / beta)
            / (u * c_deriv * s_env)
        )
    elif H > 0.5:
        gamma = (2.0 - 2.0 * beta) / beta
        prefactor_power = 2.0 - 2.0 * H
        k_h = s_env / n_real ** (2.0 * H - 1.0)
        c2 = (
            c * (4.0 / math.sqrt(c)) ** ((2.0 * beta - 2.0) / beta)
            / (u * c_deriv * k_h)
        )
    else:
        gamma = (2.0 - 2.0 * beta) / beta
        prefactor_power = 1.0
        c2 = exponent_env * epsilon ** gamma / T  # log factor folded in
    return Certificate.build(
        epsilon=epsilon, T=T, regime=regime, p=2.0, N=N_d, delta=delta_d,
        I=I_d, term_concentration=term_conc, term_drift=term_drift,
        mode="EXPLICIT", flags=flags,
        provenance={
            "class": {"H": H, "beta": beta, "c": c, "C": C, "c_deriv": c_deriv},
            "centering": "sqrt_second_moment",
            # an entry that overflows (the real-valued witness of a horizon
            # of more cells than a float holds, an exponent past the float
            # range) is written as null
            "envelope": _finite_or_null({
                "C1": 2.0,
                "C2": c2,
                "gamma": gamma,
                "prefactor_power": prefactor_power,
                "exponent": exponent_env,
                "n_real": n_real,
                "delta_seed": delta_seed,
                "s_weight_envelope": s_env,
                "dominates_discrete": envelope_ok,
            }),
            "discrete": _finite_or_null({
                "exponent": exponent_d,
                "term_concentration": term_conc_d,
                "gamma_two_norm_bound": norm2_d,
            }),
            "threshold_concentration": h_d,
            "threshold_drift": x_d,
            "delta_mesh": delta_mesh,
        },
    )


# ---------------------------------------------------------------------------
# fractional-increment Holder-norm event


def fbm_holder_certificate(
    H: float,
    beta: float,
    epsilon: float,
    c_deriv: float = 1.0,
    T: float = 1.0,
) -> Certificate:
    """Holder-norm small-deviation certificate for fractional Gaussian paths.

    For E(X_{t+d}-X_t)^2 = d^(2H) with entrywise cover constant c_deriv,
    0 < beta < H < 1/2, the witness p=2, delta = (2 epsilon)^(1/(H-beta)),
    I = sqrt(N) delta^H is feasible for the beta-Holder ball of radius
    epsilon, giving

        P(|X|_{beta-Holder} <= epsilon) <= c1 exp(-c2 epsilon^(-gamma)),
        c1 = 2, gamma = 1 / (H - beta),
        c2 = T 2^(-gamma) / (16 c_deriv S(H)),

    with S(H) = 2 zeta(2-2H) - 1 the summable covariance weight.  Vacuous
    when delta exceeds the horizon.
    """
    if not (0.0 < beta < H < 0.5):
        raise ValueError("requires 0 < beta < H < 1/2")
    if epsilon <= 0 or T <= 0 or c_deriv <= 0:
        raise ValueError("epsilon, T, c_deriv must be positive")
    gamma = 1.0 / (H - beta)
    c2 = T * 2.0 ** (-gamma) / (16.0 * c_deriv * s_weight_envelope(H, math.inf))
    try:
        delta = (2.0 * epsilon) ** gamma
    except OverflowError:  # a spacing that overflows fits no horizon
        delta = math.inf
    N = _cells(T, delta, epsilon)
    if delta > T:
        return Certificate.vacuous_certificate(
            epsilon, T, Regime.holder(beta), "no partition fits the horizon")
    return Certificate.build(
        epsilon=epsilon, T=T, regime=Regime.holder(beta), p=2.0, N=N,
        delta=delta, I=math.sqrt(N) * delta**H,
        term_concentration=min(1.0, 2.0 * math.exp(-c2 * epsilon ** (-gamma))),
        term_drift=0.0, mode="EXPLICIT",
        provenance={"c1": 2.0, "c2": c2, "gamma": gamma, "n_real": T / delta},
    )


# ---------------------------------------------------------------------------
# stationary processes via the spectral symbol


def stationary_certificate(
    sigma: Callable[[float], float],
    Delta: float,
    ratio_bound: float,
    symbol_sup_value: float,
    T: float,
    epsilon: float,
) -> Certificate:
    """Sup-norm certificate for stationary-increment Gaussians via the spectrum.

    sigma is the increment standard deviation profile on (0, Delta],
    assumed nondecreasing; ratio_bound dominates sigma(u)/sigma(v) over
    u <= v <= Delta pairs with u >= v/2; symbol_sup_value dominates the
    spectral density of the normalised increment sequence.  The witness
    scale solves sigma(delta*) = 4 epsilon and the certified value is
    min(1, 2 exp(-C2 T / delta*)) with C2 = 1/(32 symbol_sup ratio^2),
    or 1 when delta* > T.  The bound needs no centering, so I is left
    unset; N counts the whole witness cells delta* in the horizon (at
    least one).  Raises EpsilonTooLargeError when 4 epsilon >= sigma(Delta).
    """
    if Delta <= 0 or T <= 0 or epsilon <= 0:
        raise ValueError("Delta, T, epsilon must be positive")
    if not math.isfinite(Delta):
        raise ValueError("Delta must be finite")
    if ratio_bound < 1.0 or symbol_sup_value <= 0:
        raise ValueError("ratio_bound must be >= 1 and symbol_sup_value > 0")
    target = 4.0 * epsilon
    hi = Delta
    s_hi = sigma(hi)
    if target >= s_hi:
        raise EpsilonTooLargeError(
            f"4*epsilon = {target:g} >= sigma(Delta) = {s_hi:g}; no scale in "
            "(0, Delta] reaches the required increment size"
        )
    lo = Delta
    while sigma(lo) > target:
        lo /= 2.0
        if lo < 1e-300:
            raise InfeasibleCertificateError(
                f"epsilon={epsilon:g} underflows the witness scale: sigma "
                f"stays above 4*epsilon down to delta={lo:g}",
                tightest={"epsilon": epsilon, "delta": lo},
            )
    # bisection to relative width 1e-10; sigma nondecreasing makes the
    # bracket [lo, hi] valid throughout
    hi = min(Delta, 2.0 * lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sigma(mid) > target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-10 * hi:
            break
    delta_star = lo  # round down: smaller delta keeps sigma(delta) <= 4 eps
    c2 = 1.0 / (32.0 * symbol_sup_value * ratio_bound * ratio_bound)
    term = 1.0
    if delta_star <= T:
        term = min(1.0, 2.0 * math.exp(-c2 * T / delta_star))
    return Certificate.build(
        epsilon=epsilon, T=T, regime=Regime.sup(), p=2.0,
        N=max(1, _cells(T, delta_star, epsilon)), delta=delta_star,
        I=None, term_concentration=term, term_drift=0.0, mode="EXPLICIT",
        provenance={"delta_star": delta_star, "c2": c2,
                    "symbol_sup": symbol_sup_value, "ratio_bound": ratio_bound},
    )


# ---------------------------------------------------------------------------
# representation feasibility for fractional drift models


@dataclass(frozen=True)
class FeasibilityWitness:
    feasible: bool
    H: float
    beta: float
    theta: float
    Q: float
    eta: Optional[float] = None
    mu: Optional[float] = None
    kappa: Optional[float] = None
    gamma_repr: Optional[float] = None
    slack: Optional[float] = None
    reasons: tuple = ()

    def to_dict(self) -> dict:
        return _jsonable(self)


def witness_margins(H, theta, Q, eta, mu, kappa, gamma_repr) -> dict:
    """Margins of the six representation inequalities (positive = strict).

    (1) mu + theta > Q          (2) gamma_repr H > Q   (3) kappa > Q
    (4) 1 - eta - mu > 0        (5) 2 - eta - kappa > 0
    (6) 1 + H - eta - mu - kappa > 0
    """
    return {
        "(1) mu + theta > Q": mu + theta - Q,
        "(2) gamma_repr * H > Q": gamma_repr * H - Q,
        "(3) kappa > Q": kappa - Q,
        "(4) 1 - eta - mu > 0": 1.0 - eta - mu,
        "(5) 2 - eta - kappa > 0": 2.0 - eta - kappa,
        "(6) 1 + H - eta - mu - kappa > 0": 1.0 + H - eta - mu - kappa,
    }


def representation_feasibility(H: float, beta: float, theta: float) -> FeasibilityWitness:
    """Search for exponents witnessing a fractional drift representation.

    Q = beta (1-H) / (1-beta) is the pivotal exponent.  Threshold checks,
    in order: H > 1/2, beta < 3H/(H+2), theta > 2Q - 2H, theta > Q - H;
    the first failure is reported as the infeasibility reason.  When all
    pass, a witness eta = 1-H+s, mu = max(Q-theta, 0)+s, kappa = Q+s,
    gamma_repr = Q/H + 1 is built with the margin s maximised over a 1e-3
    grid subject to the six inequalities strict and eta in (1-H, 1/2).
    The reported slack is the smallest margin across the six inequalities.
    """
    if not (0.0 < H < 1.0 and 0.0 < beta < 1.0):
        raise ValueError("H and beta must lie in (0, 1)")
    if theta < 0:
        raise ValueError("theta must be non-negative")
    Q = beta * (1.0 - H) / (1.0 - beta)
    thresholds = (
        ("H > 1/2", H > 0.5),
        ("beta < 3H/(H+2)", beta < 3.0 * H / (H + 2.0)),
        ("theta > 2Q - 2H", theta > 2.0 * Q - 2.0 * H),
        ("theta > Q - H", theta > Q - H),
    )
    for name, ok in thresholds:
        if not ok:
            return FeasibilityWitness(
                feasible=False, H=H, beta=beta, theta=theta, Q=Q,
                reasons=(name,),
            )
    gamma_repr = Q / H + 1.0
    s_cap = 0.5 - (1.0 - H)  # keeps eta below 1/2
    best = None
    for k in range(int(math.floor(s_cap / 1e-3 + 1e-9)), 0, -1):
        s = k * 1e-3
        eta = 1.0 - H + s
        if eta >= 0.5:
            continue
        mu = max(Q - theta, 0.0) + s
        kappa = Q + s
        margins = witness_margins(H, theta, Q, eta, mu, kappa, gamma_repr)
        if all(m > 0.0 for m in margins.values()):
            best = (eta, mu, kappa, min(margins.values()))
            break
    if best is None:
        return FeasibilityWitness(
            feasible=False, H=H, beta=beta, theta=theta, Q=Q,
            reasons=("no witness with positive margin on the 1e-3 grid",),
        )
    eta, mu, kappa, slack = best
    return FeasibilityWitness(
        feasible=True, H=H, beta=beta, theta=theta, Q=Q, eta=eta, mu=mu,
        kappa=kappa, gamma_repr=gamma_repr, slack=slack,
    )


# ---------------------------------------------------------------------------
# statistical certificates from simulated norms


def empirical_certificate(
    epsilon: float,
    T: float,
    regime: Regime,
    p: float,
    N: int,
    delta: float,
    x_norm_samples,
    drift_norm_samples=None,
    confidence: float = 0.99,
) -> Certificate:
    """Certificate whose tail terms are exact binomial upper limits.

    x_norm_samples are independent draws of |X|_p on the given partition;
    I is their sample median.  drift_norm_samples, when given, are draws
    of the regime's drift norm from an independent run.  Each term is the
    one-sided Clopper-Pearson upper limit at the stated confidence, so the
    total holds with confidence 2*confidence - 1 when both terms are
    estimated (confidence when only one is).
    """
    x = np.asarray(x_norm_samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least two norm samples")
    I = float(np.median(x))
    if not feasible(regime, p, N, delta, I, epsilon, T):
        raise InfeasibleCertificateError(
            f"sample median I={I:g} is infeasible for epsilon={epsilon:g} "
            f"in regime {regime.label()}",
            tightest={"p": p, "N": N, "delta": delta, "I": I},
        )
    has_drift = drift_norm_samples is not None
    h = I / 4.0 if has_drift else I / 2.0
    k_conc = int(np.count_nonzero(np.abs(x - I) >= h))
    term_conc = cp_upper(k_conc, x.size, confidence)
    if has_drift:
        a = np.asarray(drift_norm_samples, dtype=float)
        x_thr = drift_threshold(regime, p, N, delta, I)
        k_drift = int(np.count_nonzero(a >= x_thr))
        term_drift = cp_upper(k_drift, a.size, confidence)
        joint = 2.0 * confidence - 1.0
    else:
        x_thr = None
        k_drift = None
        term_drift = 0.0
        joint = confidence
    return Certificate.build(
        epsilon=epsilon, T=T, regime=regime, p=p, N=N, delta=delta, I=I,
        term_concentration=term_conc, term_drift=term_drift,
        mode="STATISTICAL", confidence=joint,
        provenance={
            "n_samples": int(x.size),
            "exceed_concentration": k_conc,
            "exceed_drift": k_drift,
            "threshold_concentration": h,
            "threshold_drift": x_thr,
            "per_term_confidence": confidence,
        },
    )
