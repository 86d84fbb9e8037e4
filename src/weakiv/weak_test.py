"""Weak-instruments testing engine.

Pipeline: transform the moment covariance by the symmetric square root of the
GMM weight matrix; form the approximate-bias functional; maximize its absolute
value over the structural coefficient and the unit sphere of first-stage
directions relative to a benchmark scale ("mop": the estimator's own worst-case
scale; "ls": the worst-case least-squares bias scale); turn the resulting bound
into a noncentrality radius bound/tau; compute a critical value for the
generalized effective F-statistic by a moment-matched noncentral chi-square
(fractional effective dof) or by Monte Carlo; reject the null of weak
instruments when the statistic exceeds the critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import NoncentralChiSq, RngStream, chisq_quantile, mvn_sample
from .errors import InputError, NumericalError
from .estimators import (
    MomentCov,
    ResidualCov,
    WeightSpec,
    _spd,
    _sym,
    estimate_moment_cov,
    residual_cov,
    weight_matrix,
)
from .fstats import FStatValue, f_effective, f_generalized, f_robust

__all__ = [
    "Benchmark",
    "GroupedBiasDiagnostics",
    "SupResult",
    "WeakIvResult",
    "critical_value",
    "effective_dof",
    "nagar_bias_grouped",
    "transform_moment_cov",
    "weak_iv_test",
    "worst_case_bias",
]

_MOP_CAP_TOL = 1e-6
_SUP_RESTARTS = 64
_SUP_MAX_ITER = 500
_SUP_TOL = 1e-10
_INVERSE_SHIFT = 1e-10
"""Shift past the extreme eigenvalue, relative to the largest |eigenvalue|,
of `_extreme_directions`' inverse iteration."""
_MC_DIRECTIONS = 200


def _check_alpha(alpha):
    """Reject a test level outside (0, 1), or one so small that the
    critical value's probability 1 - alpha rounds to 1."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")
    if 1.0 - alpha == 1.0:
        raise InputError(f"alpha {alpha} is too small: 1 - alpha rounds to 1")


def _sym_sqrt(omega):
    """Symmetric positive definite square root via eigendecomposition."""
    vals, vecs = np.linalg.eigh(_spd(omega))
    return (vecs * np.sqrt(vals)) @ vecs.T


def transform_moment_cov(cov, omega):
    """Congruence-transform the covariance blocks by the symmetric square root
    of `omega`: the moment covariance of the weighted moments, a MomentCov."""
    root = _sym_sqrt(omega)
    return MomentCov(
        v1v1=root @ cov.v1v1 @ root,
        v1v2=root @ cov.v1v2 @ root,
        v2v2=root @ cov.v2v2 @ root,
    )


@dataclass(frozen=True)
class Benchmark:
    """Bias scale: "mop" uses the estimator's own worst-case scale
    sqrt(tr S1/tr lower); "ls" uses the worst-case least-squares bias scale
    from the pooled residual covariance."""

    kind: str
    resid_cov: ResidualCov | None = None

    def __post_init__(self):
        if self.kind not in ("mop", "ls"):
            raise InputError(f"unknown benchmark kind {self.kind!r}")
        if self.kind == "ls" and self.resid_cov is None:
            raise InputError("ls benchmark requires a residual covariance")


@dataclass(frozen=True, eq=False)
class SupResult:
    value: float
    argmax_beta: float
    argmax_dir: np.ndarray
    restarts_used: int
    converged: bool


def _benchmark_coeffs(s11, s12, s22):
    """Coefficients (d0, d1) of the squared benchmark d0 + d1*beta + beta^2,
    elementwise, from its scale moments: the traces of the transformed blocks
    (v1v1, v1v2, v2v2) under "mop", the pooled residual covariance under "ls";
    and where that square is not positive for every beta (degenerate)."""
    d0 = s11 / s22
    d1 = -2.0 * s12 / s22
    return d0, d1, d1 * d1 - 4.0 * d0 >= 0.0


def _denominator_coeffs(tc, bench):
    """Coefficients (d0, d1) of the squared benchmark d0 + d1*beta + beta^2."""
    if bench.kind == "mop":
        moments = tuple(float(np.trace(b)) for b in (tc.v1v1, tc.v1v2, tc.v2v2))
    else:
        rc = bench.resid_cov
        moments = (rc.v1v1, rc.v1v2, rc.v2v2)
    d0, d1, degenerate = _benchmark_coeffs(*moments)
    if degenerate:
        raise NumericalError(
            "benchmark scale is not positive for all beta (degenerate covariance)"
        )
    return d0, d1


def _beta_step(a, b, d0, d1):
    """Max over beta of (a + b*beta)^2 / (d0 + d1*beta + beta^2), elementwise:
    the root of the linear stationarity equation, or the beta -> +-inf limit
    b^2 when that is larger (returned with beta = inf)."""
    den = b * d1 - 2.0 * a
    safe = np.abs(den) > 1e-300
    beta_star = np.where(safe, (a * d1 - 2.0 * b * d0) / np.where(safe, den, 1.0), 0.0)
    with np.errstate(all="ignore"):
        f_star = (a + b * beta_star) ** 2 / (d0 + d1 * beta_star + beta_star**2)
    f_star = np.where(np.isfinite(f_star), f_star, 0.0)
    f_lim = b * b
    use_lim = f_lim > f_star
    return np.where(use_lim, f_lim, f_star), np.where(use_lim, np.inf, beta_star)


def _extreme_directions(m12, w2, beta, tr12, t, probe):
    """For each beta, the unit eigenvector of S = m12 - beta*w2 whose
    eigenvalue lam is the farther extreme from tr S / 2: the best direction
    at that fixed beta.

    The eigenvalues come from `eigvalsh`; the eigenvector from two steps of
    inverse iteration on s(lam I - S)/|S| + 1e-10 I, with s = +1 for the
    largest eigenvalue and -1 for the smallest and |S| the largest
    |eigenvalue|. That matrix is positive definite with lam's eigenvector as
    its smallest, 1e-10, so each step shrinks every other eigenvector's
    share by 1e-10 over its gap from lam relative to |S|. The steps start
    from the fixed dense `probe`: a start's own direction, an axis when S is
    diagonal, can be orthogonal to the eigenvector sought.
    """
    a = m12[None, :, :] - beta[:, None, None] * w2[None, :, :]
    vals = np.linalg.eigvalsh(a)
    trs = tr12 - beta * t
    pick_max = np.abs(trs - 2.0 * vals[:, -1]) > np.abs(trs - 2.0 * vals[:, 0])
    lam = np.where(pick_max, vals[:, -1], vals[:, 0])
    scale = np.maximum(np.abs(vals[:, 0]), np.abs(vals[:, -1]))
    scale[scale == 0.0] = 1.0
    # a becomes s(lam I - S)/|S| + shift I, in place
    sign = np.where(pick_max, 1.0, -1.0) / scale
    a *= -sign[:, None, None]
    k = m12.shape[0]
    a.reshape(beta.size, k * k)[:, :: k + 1] += (sign * lam + _INVERSE_SHIFT)[:, None]
    x = np.broadcast_to(probe, beta.shape + probe.shape)
    for _ in range(2):
        x = np.linalg.solve(a, x[:, :, None])[:, :, 0]
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def worst_case_bias(tc, bench):
    """Supremum over beta and unit directions of |bias numerator| / benchmark.

    Alternating ascent: for a fixed direction the squared objective is
    (a + b*beta)^2 / (d0 + d1*beta + beta^2), maximized in closed form (linear
    stationarity equation, plus the beta -> +-inf candidate value b^2); for a
    fixed beta the best direction is the extreme eigenvector of the symmetric
    part of S12(beta) (`_extreme_directions`). Multi-start: 64 random unit
    vectors from a fixed seed plus eigenvectors of sym(cross block) and of
    the lower block. The two steps are each exact, so the objective value
    ascends monotonically; each start stops when it changes by at most 1e-10
    relative, or after 500 steps.
    """
    w2 = tc.v2v2
    k = w2.shape[0]
    t = float(np.trace(w2))
    m12 = _sym(tc.v1v2)
    tr12 = float(np.trace(tc.v1v2))
    d0, d1 = _denominator_coeffs(tc, bench)

    gen = RngStream(0, 0).generator()
    rnd = gen.standard_normal((_SUP_RESTARTS, k))
    probe = gen.standard_normal(k)
    vec12 = np.linalg.eigh(m12)[1].T
    vals2, vecs2 = np.linalg.eigh(w2)
    starts = np.vstack([rnd, vec12, vecs2.T])
    norms = np.linalg.norm(starts, axis=1)
    norms[norms == 0.0] = 1.0
    dirs = starts / norms[:, None]
    m = dirs.shape[0]

    # direction used by the beta -> inf branch: extreme eigenvector of w2
    lim_idx = np.argmax(np.abs(2.0 * vals2 - t))
    lim_dir = vecs2[:, lim_idx]

    def ab_of(c):
        a = (tr12 - 2.0 * np.einsum("ij,jk,ik->i", c, m12, c)) / t
        b = (2.0 * np.einsum("ij,jk,ik->i", c, w2, c) - t) / t
        return a, b

    a, b = ab_of(dirs)
    f, beta = _beta_step(a, b, d0, d1)
    converged = np.zeros(m, dtype=bool)
    active = np.ones(m, dtype=bool)
    for _ in range(_SUP_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        bet = beta[idx]
        c_new = np.empty((idx.size, k))
        finite = np.isfinite(bet)
        if finite.any():
            c_new[finite] = _extreme_directions(m12, w2, bet[finite], tr12, t, probe)
        if (~finite).any():
            c_new[~finite] = lim_dir
        a, b = ab_of(c_new)
        f_new, beta_new = _beta_step(a, b, d0, d1)
        done = np.abs(f_new - f[idx]) <= _SUP_TOL * np.maximum(1.0, np.abs(f[idx]))
        f[idx] = np.maximum(f_new, f[idx])
        beta[idx] = beta_new
        dirs[idx] = c_new
        converged[idx] |= done
        active[idx] &= ~done
    best = int(np.argmax(f))
    value = math.sqrt(max(float(f[best]), 0.0))
    if bench.kind == "mop" and value > 1.0 + _MOP_CAP_TOL:
        raise NumericalError(
            f"worst-case relative bias {value:.6g} exceeds its theoretical cap of 1 "
            "under the mop benchmark; the moment covariance estimate is inconsistent"
        )
    direction = dirs[best] / np.linalg.norm(dirs[best])
    return SupResult(
        value=value,
        argmax_beta=float(beta[best]),
        argmax_dir=direction,
        restarts_used=m,
        converged=bool(converged[best]),
    )


def _diagonal_worst_case_bias(v1v1, v1v2, v2v2, kind, resid=None):
    """`worst_case_bias(...).value` of R transformed moment covariances whose
    blocks are diagonal, given as (R, G) arrays of the diagonals.

    The extreme eigenvector of a diagonal S12(beta) is a coordinate axis, so
    the sup over unit directions is a max over the G axes, and each axis takes
    the closed-form beta step. `kind` is the benchmark; "ls" needs `resid`,
    the (v1v1, v1v2, v2v2) pooled residual covariances as (R,) arrays.
    Returns (value, ok): ok is False where worst_case_bias would raise, for a
    degenerate benchmark or a "mop" value above its cap of 1.
    """
    t = v2v2.sum(axis=1)
    tr12 = v1v2.sum(axis=1)
    moments = (v1v1.sum(axis=1), tr12, t) if kind == "mop" else resid
    d0, d1, degenerate = _benchmark_coeffs(*moments)
    a = (tr12[:, None] - 2.0 * v1v2) / t[:, None]
    b = (2.0 * v2v2 - t[:, None]) / t[:, None]
    f, _ = _beta_step(a, b, d0[:, None], d1[:, None])
    value = np.sqrt(np.maximum(f.max(axis=1), 0.0))
    ok = ~degenerate
    if kind == "mop":
        ok &= value <= 1.0 + _MOP_CAP_TOL
    return value, ok


def _keff(t, t2, lmax, radius):
    """Patnaik effective dof from tr W, tr W^2 and the largest eigenvalue of
    the transformed lower block W."""
    return t * t * (1.0 + 2.0 * radius) / (t2 + 2.0 * radius * t * lmax)


def _patnaik_quantile(keff, radius, alpha):
    """Upper-alpha quantile of chi2(keff, radius*keff)/keff; elementwise over
    arrays of keff and radius as one batched quantile."""
    return chisq_quantile(NoncentralChiSq(keff, radius * keff), 1.0 - alpha) / keff


def effective_dof(w2t, radius):
    """Moment-matched effective degrees of freedom for the critical value."""
    w2t = np.asarray(w2t, dtype=float)
    if radius < 0.0:
        raise InputError(f"radius must be nonnegative, got {radius}")
    return _keff(
        float(np.trace(w2t)),
        float(np.sum(w2t * w2t)),
        float(np.linalg.eigvalsh(w2t)[-1]),
        radius,
    )


def critical_value(w2t, radius, alpha, method="patnaik", draws=100000, seed=0):
    """Critical value for the generalized effective F-statistic.

    "patnaik": upper-alpha quantile of chi2(keff, radius*keff)/keff with keff
    the moment-matched effective dof. "mc": max over a grid of max(200, k)
    directions (the k eigenvectors of the lower block, then random unit
    directions from `seed`) of the empirical upper-alpha quantile of
    |c + xi|^2 / tr over `draws` draws xi ~ N(0, lower block),
    |c|^2 = radius * tr; one shared draw batch is reused across directions.
    """
    _check_alpha(alpha)
    if radius < 0.0:
        raise InputError(f"radius must be nonnegative, got {radius}")
    if not math.isfinite(radius):
        # bias_bound / tau overflows at a tau near 0
        raise NumericalError(f"noncentrality radius {radius} is not finite")
    w2t = np.asarray(w2t, dtype=float)
    if method == "patnaik":
        return _patnaik_quantile(effective_dof(w2t, radius), radius, alpha)
    if method == "mc":
        k = w2t.shape[0]
        t = float(np.trace(w2t))
        gen = RngStream(seed, 0).generator()
        n_rand = max(0, _MC_DIRECTIONS - k)
        rnd = gen.standard_normal((n_rand, k))
        rnorm = np.linalg.norm(rnd, axis=1)
        rnorm[rnorm == 0.0] = 1.0
        grid = np.vstack([np.linalg.eigh(w2t)[1].T, rnd / rnorm[:, None]])
        xi = mvn_sample(np.zeros(k), w2t, gen, draws)
        scale = math.sqrt(radius * t)
        best = 0.0
        for c in grid:
            s = np.square(xi + scale * c).sum(axis=1) / t
            best = max(best, float(np.quantile(s, 1.0 - alpha)))
        return best
    raise InputError(f"unknown critical-value method {method!r}")


@dataclass(frozen=True, eq=False)
class WeakIvResult:
    statistic: FStatValue
    bias_bound: float
    radius: float
    effective_dof: float
    cv: float
    alpha: float
    tau: float
    benchmark: str
    method: str
    reject: bool
    sup: SupResult | None = None
    warnings: tuple = ()


def _resolve_benchmark(benchmark, pd):
    if isinstance(benchmark, Benchmark):
        return benchmark
    if benchmark == "mop":
        return Benchmark("mop")
    if benchmark == "ls":
        return Benchmark("ls", residual_cov(pd))
    raise InputError(f"unknown benchmark {benchmark!r}")


def weak_iv_test(
    pd,
    spec,
    benchmark="ls",
    tau=0.1,
    alpha=0.05,
    method="patnaik",
    flavor="hc0",
    dof_correction=False,
    mc_draws=100000,
    mc_seed=0,
):
    """Run the full weak-instruments decision procedure for one estimator.

    Rejecting means the worst-case approximate relative bias of the estimator
    is below tau at level alpha. Every weight runs the same pipeline on its
    Omega from `weight_matrix`; the kind only picks the statistic: effective
    F for "2sls", robust F for "gmmf", generalized F for "custom". `method`
    is "patnaik", "mc", or "conservative" (radius fixed at 1/tau, valid and
    conservative for the mop benchmark only). The bias bound comes from
    `worst_case_bias`; `mc_draws` and `mc_seed` are the draws and seed of the
    "mc" critical value (`critical_value`).
    """
    if not 0.0 < tau < 1.0:
        raise InputError(f"tau must be in (0, 1), got {tau}")
    _check_alpha(alpha)
    if method not in ("patnaik", "mc", "conservative"):
        raise InputError(f"unknown method {method!r}")
    if not isinstance(spec, WeightSpec):
        spec = WeightSpec(spec)
    bench = _resolve_benchmark(benchmark, pd)
    cov = estimate_moment_cov(pd, flavor=flavor, dof_correction=dof_correction)
    omega = weight_matrix(pd, spec, cov)
    tc = transform_moment_cov(cov, omega)
    if spec.kind == "2sls":
        stat = f_effective(pd, cov.v2v2)
    elif spec.kind == "gmmf":
        stat = f_robust(pd, cov.v2v2)
    else:
        stat = f_generalized(pd, cov, omega)
    warnings = ()
    sup = None
    if method == "conservative":
        if bench.kind != "mop":
            raise InputError(
                "the conservative simplified method replaces the bias bound by its "
                "cap of 1, which only the mop benchmark has; use benchmark='mop'"
            )
        bias_bound = 1.0
        radius = 1.0 / tau
    else:
        sup = worst_case_bias(tc, bench)
        if not sup.converged:
            warnings = ("bias-bound search did not converge; using best value found",)
        bias_bound = sup.value
        radius = bias_bound / tau
    keff = effective_dof(tc.v2v2, radius)
    cv = critical_value(
        tc.v2v2, radius, alpha, "patnaik" if method == "conservative" else method,
        draws=mc_draws, seed=mc_seed,
    )
    return WeakIvResult(
        statistic=stat,
        bias_bound=float(bias_bound),
        radius=float(radius),
        effective_dof=float(keff),
        cv=float(cv),
        alpha=alpha,
        tau=tau,
        benchmark=bench.kind,
        method=method,
        reject=bool(stat.value > cv),
        sup=sup,
        warnings=warnings,
    )


@dataclass(frozen=True)
class GroupedBiasDiagnostics:
    nagar_2sls: float
    nagar_gmmf: float
    conc_2sls: float
    conc_gmmf: float


def _nagar_biases(cf, sv2, suv):
    """Closed-form Nagar biases (2SLS, GMMf) of grouped designs, from the
    per-group concentrations c^2 f, first-stage variances and structural
    covariances; the last axis indexes groups, leading axes are designs."""
    total = cf.sum(axis=-1, keepdims=True)
    r = cf / sv2
    rtot = r.sum(axis=-1, keepdims=True)
    nagar_2sls = ((1.0 - 2.0 * cf / total) * suv).sum(axis=-1) / total[..., 0]
    nagar_gmmf = ((1.0 - 2.0 * r / rtot) * (suv / sv2)).sum(axis=-1) / rtot[..., 0]
    return nagar_2sls, nagar_gmmf


def _concentrations(cf, sv2):
    """Concentrations (2SLS, GMMf) of grouped designs, sum(cf) / sum(sv2) and
    the mean of cf / sv2, over the last axis (see _nagar_biases)."""
    return cf.sum(axis=-1) / sv2.sum(axis=-1), (cf / sv2).sum(axis=-1) / cf.shape[-1]


def nagar_bias_grouped(design):
    """Closed-form approximate biases and concentrations for a grouped design
    with fixed group shares."""
    if design.cov_uv2 is None:
        raise InputError(
            "design has no structural covariances (cov_uv2); closed-form bias "
            "diagnostics need them"
        )
    c = math.sqrt(design.n) * np.asarray(design.pi, dtype=float)
    f = np.asarray(design.group_probs, dtype=float)
    sv2 = np.asarray(design.var_v2, dtype=float)
    suv = np.asarray(design.cov_uv2, dtype=float)
    cf = c * c * f
    if cf.sum() <= 0.0:
        raise NumericalError("zero concentration: all first-stage coefficients vanish")
    nagar_2sls, nagar_gmmf = _nagar_biases(cf, sv2, suv)
    conc_2sls, conc_gmmf = _concentrations(cf, sv2)
    return GroupedBiasDiagnostics(
        nagar_2sls=float(nagar_2sls),
        nagar_gmmf=float(nagar_gmmf),
        conc_2sls=float(conc_2sls),
        conc_gmmf=float(conc_gmmf),
    )
