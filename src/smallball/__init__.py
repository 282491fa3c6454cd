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
    DegenerateProcessError,
    InfeasibleCertificateError,
    EpsilonTooLargeError,
    InvalidComparisonError,
    ConfigError,
)
from .paths import (
    UniformGrid,
    SamplePath,
    build_grid,
    sup_norm,
    l1_norm,
    holder_norm,
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
    simulate_fgn,
    simulate_iid_partial_sums,
    simulate_path,
    path_values_block,
    drift_values_block,
    compose_drift,
)
from .gausscov import (
    IncrementalVariance,
    IncrementCovariance,
    MatrixNorms,
    sigma2_fbm,
    sigma2_profile,
    fbm_cover_constant,
    increment_covariance,
    matrix_norms,
    toeplitz_eig_enclosure,
    s_weight,
    s_weight_envelope,
    gamma_two_norm_bound,
    SpectralSymbol,
    fgn_symbol,
    symbol_sup,
    estimate_class_parameters,
)
from .concentration import (
    CenteringChoice,
    TailModel,
    hoeffding_tail,
    hoeffding_model,
    gauss_l2_tail,
    gauss_l2_model,
    drift_bounded_model,
    drift_borell_model,
    empirical_model,
    empirical_tail,
    constant_model,
    cp_lower,
    cp_upper,
)
from .bounds import (
    Regime,
    Certificate,
    SearchConfig,
    feasible,
    drift_threshold,
    certify_general,
    bound_iid_sum,
    iid_sum_certificate,
    bound_holder_indep,
    bound_gaussian_class,
    bound_fbm_holder_norm,
    bound_stationary,
    representation_feasibility,
    witness_margins,
    FeasibilityWitness,
    empirical_certificate,
)
from .mcverify import (
    NormSpec,
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

__version__ = "1.0.0"
