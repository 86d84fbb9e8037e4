"""Weak-instruments diagnostics for linear IV models with one endogenous
regressor: GMM estimators on partialled-out data, robust first-stage
F-statistics, worst-case approximate-bias tests, and a grouped-data
simulation engine."""

from .data import Dataset, PartialledData, load_csv, partial_out
from .distributions import (
    NoncentralChiSq,
    RngStream,
    chisq_cdf,
    chisq_quantile,
    lower_gamma_regularized,
    mvn_sample,
)
from .errors import InputError, NumericalError, WeakIvError
from .estimators import (
    EstimateResult,
    MomentCov,
    ResidualCov,
    WaldResult,
    WeightSpec,
    estimate,
    estimate_moment_cov,
    ols,
    residual_cov,
    wald_test,
    weight_matrix,
)
from .fstats import (
    FStatValue,
    f_effective,
    f_generalized,
    f_nonrobust,
    f_robust,
)
from .grouped_sim import (
    DesignComparison,
    GroupStats,
    GroupedDesign,
    SimSummary,
    available_designs,
    generate,
    group_stats,
    load_design,
    random_design_comparison,
    run_sim,
    sweep_scale,
)
from .weak_test import (
    Benchmark,
    GroupedBiasDiagnostics,
    SupResult,
    WeakIvResult,
    critical_value,
    effective_dof,
    nagar_bias_grouped,
    transform_moment_cov,
    weak_iv_test,
    worst_case_bias,
)

__version__ = "0.1.0"
