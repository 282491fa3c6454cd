"""Certified upper bounds for small-deviation probabilities of paths.

The library bounds P(norm(y) <= epsilon) for y = x + integral(a), where x
is a Gaussian or iid-driven process and a is a drift integrand, by
splitting the event through a partition witness and certifying each piece
with an explicit concentration inequality or an exact binomial limit.
Monte Carlo machinery estimates the same probabilities and cross-checks
every certificate.
"""

from .errors import (
    SmallBallError,
    EmbeddingFailureError,
    InfeasibleCertificateError,
    EpsilonTooLargeError,
    InvalidComparisonError,
    ConfigError,
)
from .paths import (
    UniformGrid,
    holder_norm_batch,
    increment_lp,
)
from .simulate import (
    SeedSpec,
    DistSpec,
    DriftSpec,
    ProcessSpec,
    fgn_autocovariance,
    fgn_increments_block,
    path_values_block,
)
from .gausscov import (
    IncrementalVariance,
    IncrementCovariance,
    sigma2_fbm,
    increment_covariance,
    toeplitz_eig_enclosure,
    s_weight,
    s_weight_envelope,
    gamma_two_norm_bound,
    SpectralSymbol,
    fgn_symbol,
    symbol_sup,
)
from .concentration import (
    TailModel,
    gauss_l2_tail,
    drift_bounded_model,
    drift_borell_model,
    cp_lower,
    cp_upper,
)
from .bounds import (
    Regime,
    Certificate,
    feasible,
    drift_threshold,
    iid_sum_certificate,
    holder_indep_certificate,
    bound_gaussian_class,
    fbm_holder_certificate,
    stationary_certificate,
    representation_feasibility,
    witness_margins,
    FeasibilityWitness,
    empirical_certificate,
)
from .mcverify import (
    EstimateTable,
    VerifyReport,
    estimate_small_ball,
    estimate_small_ball_drifts,
    partition_norm_samples,
    drift_norm_samples,
    bm_sup_exact,
    fit_rate,
    verify_certificates,
    config_digest,
)

__version__ = "0.1.0"
