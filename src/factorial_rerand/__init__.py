"""Rerandomization for balanced two-level factorial experiments.

Draw balanced allocations, score covariate balance for every factorial
effect with a squared Mahalanobis distance, and keep only allocations whose
distances clear per-effect thresholds.  The package also estimates effects,
runs randomization tests restricted to the accepted set, and ships a Monte
Carlo laboratory for checking the distributional claims at desk scale.
"""

__version__ = "0.1.0"

from .assignment import (
    Allocation,
    AssignmentMatrix,
    expand_assignment,
    negate,
)
from .balance import (
    BalanceProfile,
    CovarianceModel,
    CovariateMatrix,
    balance_profile,
    fit_covariance,
)
from .criteria import (
    AcceptanceRule,
    ThresholdMode,
    Tier,
    VarianceFactor,
    accept,
    chi2_cdf,
    chi2_pdf,
    chi2_quantile,
    implied_acceptance_probability,
    reg_lower_incomplete_gamma,
    resolve_thresholds,
    variance_factor,
)
from .design import (
    DesignMatrix,
    DesignSpec,
    ModelMatrix,
    Order,
    build_design_matrix,
    default_factor_names,
    effect_index,
    expand_model_matrix,
)
from .engine import (
    DEFAULT_MAX_DRAWS,
    EffectEstimates,
    RandomizationTestResult,
    RerandomizationResult,
    estimate_effects,
    randomization_test,
    rerandomize,
)
from .errors import (
    DimensionMismatch,
    MaxDrawsExceeded,
    ParseError,
    SingularCovariance,
)
from .simlab import (
    IndependenceReport,
    OutcomeModel,
    PotentialOutcomes,
    StudyReport,
    calibrate_empirical_thresholds,
    generate_potential_outcomes,
    independence_study,
    synthetic_nyde,
    true_estimands,
    unit_level_r2,
    variance_study,
)

__all__ = [
    "__version__",
    "Allocation",
    "AssignmentMatrix",
    "expand_assignment",
    "negate",
    "BalanceProfile",
    "CovarianceModel",
    "CovariateMatrix",
    "balance_profile",
    "fit_covariance",
    "AcceptanceRule",
    "ThresholdMode",
    "Tier",
    "VarianceFactor",
    "accept",
    "chi2_cdf",
    "chi2_pdf",
    "chi2_quantile",
    "implied_acceptance_probability",
    "reg_lower_incomplete_gamma",
    "resolve_thresholds",
    "variance_factor",
    "DesignMatrix",
    "DesignSpec",
    "ModelMatrix",
    "Order",
    "build_design_matrix",
    "default_factor_names",
    "effect_index",
    "expand_model_matrix",
    "DEFAULT_MAX_DRAWS",
    "EffectEstimates",
    "RandomizationTestResult",
    "RerandomizationResult",
    "estimate_effects",
    "rerandomize",
    "randomization_test",
    "DimensionMismatch",
    "MaxDrawsExceeded",
    "ParseError",
    "SingularCovariance",
    "IndependenceReport",
    "OutcomeModel",
    "PotentialOutcomes",
    "StudyReport",
    "calibrate_empirical_thresholds",
    "generate_potential_outcomes",
    "independence_study",
    "synthetic_nyde",
    "true_estimands",
    "unit_level_r2",
    "variance_study",
]
