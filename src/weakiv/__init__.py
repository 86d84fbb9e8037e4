"""Weak-instruments diagnostics for linear IV models with one endogenous
regressor: GMM estimators on partialled-out data, robust first-stage
F-statistics, worst-case approximate-bias tests, and a grouped-data
simulation engine.

A public name is imported from its submodule on first access (PEP 562), so
`import weakiv`, and the command line up to its parsed arguments, load no
numpy."""

import importlib
import os

__version__ = "0.1.0"

# Each public name and the submodule that exports it.
_EXPORTS = {
    "Dataset": "data", "PartialledData": "data", "load_csv": "data",
    "partial_out": "data",
    "NoncentralChiSq": "distributions", "RngStream": "distributions",
    "chisq_cdf": "distributions", "chisq_quantile": "distributions",
    "lower_gamma_regularized": "distributions", "mvn_sample": "distributions",
    "InputError": "errors", "NumericalError": "errors", "WeakIvError": "errors",
    "EstimateResult": "estimators", "MomentCov": "estimators",
    "ResidualCov": "estimators", "WaldResult": "estimators",
    "WeightSpec": "estimators", "estimate": "estimators",
    "estimate_moment_cov": "estimators", "ols": "estimators",
    "residual_cov": "estimators", "wald_test": "estimators",
    "weight_matrix": "estimators",
    "FStatValue": "fstats", "f_effective": "fstats", "f_generalized": "fstats",
    "f_nonrobust": "fstats", "f_robust": "fstats",
    "DesignComparison": "grouped_sim", "GroupStats": "grouped_sim",
    "GroupedDesign": "grouped_sim", "SimSummary": "grouped_sim",
    "available_designs": "grouped_sim", "generate": "grouped_sim",
    "group_stats": "grouped_sim", "load_design": "grouped_sim",
    "random_design_comparison": "grouped_sim", "run_sim": "grouped_sim",
    "sweep_scale": "grouped_sim",
    "Benchmark": "weak_test", "GroupedBiasDiagnostics": "weak_test",
    "SupResult": "weak_test", "WeakIvResult": "weak_test",
    "critical_value": "weak_test", "effective_dof": "weak_test",
    "nagar_bias_grouped": "weak_test", "transform_moment_cov": "weak_test",
    "weak_iv_test": "weak_test", "worst_case_bias": "weak_test",
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _EXPORTS.values():
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


def _design_dir():
    return os.path.join(os.path.dirname(__file__), "designs")


# Defined here, not in grouped_sim (which re-exports it), so that the
# command-line parser lists the shipped designs without loading numpy.
def available_designs():
    """Names of the design files shipped with the package."""
    return sorted(
        name[: -len(".yaml")]
        for name in os.listdir(_design_dir())
        if name.endswith(".yaml")
    )
