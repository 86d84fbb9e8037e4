"""Weak-instruments testing engine.

Pipeline: transform the moment covariance by the symmetric square root of the
GMM weight matrix; form the approximate-bias functional; maximize its absolute
value over the structural coefficient and the unit sphere of first-stage
directions relative to a benchmark scale ("mop": the estimator's own worst-case
scale; "ls": the worst-case least-squares bias scale), by a deterministic branch
and bound over the coefficient with a certified upper bound; turn that bound
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
from .fstats import FStatValue, f_generalized

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
_BOUND_RTOL = 1e-13
"""Relative gap to the best node below which the bias search drops an interval."""
_MAX_NODES = 4096
"""Cap on the bias search's nodes (eigenvalue evaluations)."""
_MC_DIRECTIONS = 200
_STATISTIC = {"2sls": "effective", "gmmf": "robust", "custom": "generalized"}
"""The name of the generalized F-statistic at each weight kind's Omega."""


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
    """`worst_case_bias`'s bound `value`, attained at `argmax_beta` (inf for the
    beta -> +-inf limit) and the unit direction `argmax_dir` in the basis of
    the transformed moment covariance (basis q of `PartialledData.z_qr` as
    `weak_iv_test` runs it); `upper`, a certified upper bound on the
    supremum; `nodes`, eigenvalue evaluations."""

    value: float
    argmax_beta: float
    argmax_dir: np.ndarray
    upper: float
    nodes: int


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


def worst_case_bias(tc, bench):
    """Supremum over beta and unit directions of |bias numerator| / benchmark.

    At a fixed beta the best direction is an extreme eigenvector of
    S = sym(cross block) - beta*(lower block), and the squared objective is
    h^2/q with h = max(tr S - 2 lam_min, 2 lam_max - tr S) / tr(lower block)
    and q = d0 + d1*beta + beta^2. h is convex in beta (lam_max is convex,
    lam_min concave), so on an interval it lies below its chord, and the max
    of chord^2/q there is at an end or at the root of a linear equation. The
    branch and bound runs on two folds: beta in [-1, 1], and gamma = 1/beta
    in [-1, 1] with S = gamma*(cross block) - (lower block) and
    q = d0*gamma^2 + d1*gamma + 1 (gamma = 0 is the beta -> +-inf limit).
    Each level bisects, with one batched `eigvalsh`, every interval whose
    chord bound exceeds the best node by over 1e-13 relative plus an
    allowance for rounding; the search stops when none is left or at
    `_MAX_NODES` nodes. `upper` is the largest final bound plus that
    allowance. `value` is one closed-form beta step (`_beta_step`) on the
    direction from one `eigh` at the best node.
    """
    w2 = tc.v2v2
    k = w2.shape[0]
    t = float(np.trace(w2))
    d0, d1 = _denominator_coeffs(tc, bench)
    # search over beta' = beta / sqrt(d0), so that the objective, and with it
    # the rounding allowance, carries no units of y or x
    unit = math.sqrt(d0)
    m12 = _sym(tc.v1v2) / unit
    tr12 = float(np.trace(tc.v1v2)) / unit
    d0, d1 = 1.0, d1 / unit

    def quad(fold, x):
        return np.where(fold, 1.0, d0) + x * (d1 + x * np.where(fold, d0, 1.0))

    def node_values(fold, x):
        """h / sqrt(q) and h at nodes x of each fold (0: beta, 1: gamma)."""
        u, v = np.where(fold, x, 1.0), np.where(fold, 1.0, x)
        vals = np.linalg.eigvalsh(u[:, None, None] * m12 - v[:, None, None] * w2)
        trs = u * tr12 - v * t
        h = np.maximum(trs - 2.0 * vals[:, 0], 2.0 * vals[:, -1] - trs) / t
        return h / np.sqrt(quad(fold, x)), h

    def chord_bound(fold, lo, hi, hlo, hhi):
        """Max of (chord of h)/sqrt(q) at the stationary point clipped into
        each interval; its ends are nodes, never above the best one."""
        slope = (hhi - hlo) / (hi - lo)
        icpt = hlo - slope * lo
        p0, p2 = np.where(fold, 1.0, d0), np.where(fold, d0, 1.0)
        with np.errstate(all="ignore"):
            root = (icpt * d1 - 2.0 * slope * p0) / (slope * d1 - 2.0 * icpt * p2)
            xs = np.clip(root, lo, hi)
            return np.fmax((icpt + slope * xs) / np.sqrt(quad(fold, xs)), 0.0)

    # eigvalsh and forming S move each h by at most about k*eps*|S|/tr
    folds = np.array([0.0, 1.0])
    qmin = quad(folds, np.clip(-d1 / (2.0 * np.array([1.0, d0])), -1.0, 1.0)).min()
    slack = (4.0 * (k + 1) * np.finfo(float).eps
             * (np.linalg.norm(m12) + np.linalg.norm(w2)) / (t * math.sqrt(qmin)))
    fold, x = np.repeat(folds, 3), np.tile([-1.0, 0.0, 1.0], 2)
    g, h = node_values(fold, x)
    nodes = x.size
    best = int(np.argmax(g))
    best_g, best_node = g[best], (fold[best], x[best])
    # intervals as rows (fold, lo, hi, h(lo), h(hi))
    left, right = [0, 1, 3, 4], [1, 2, 4, 5]
    iv = np.column_stack([fold[left], x[left], x[right], h[left], h[right]])
    upper = 0.0
    while True:
        bound = chord_bound(*iv.T)
        done = bound <= best_g * (1.0 + _BOUND_RTOL) + slack
        upper = max(upper, bound[done].max(initial=0.0))
        iv, bound = iv[~done], bound[~done]
        if not iv.size or nodes >= _MAX_NODES:
            upper = max(upper, bound.max(initial=0.0), best_g)
            break
        order = np.argsort(-bound, kind="stable")
        split, rest = iv[order[:_MAX_NODES - nodes]], iv[order[_MAX_NODES - nodes:]]
        fs, lo, hi, hlo, hhi = split.T
        mid = 0.5 * (lo + hi)
        gm, hm = node_values(fs, mid)
        nodes += mid.size
        if gm.max() > best_g:
            best = int(np.argmax(gm))
            best_g, best_node = gm[best], (fs[best], mid[best])
        iv = np.vstack([np.column_stack([fs, lo, mid, hlo, hm]),
                        np.column_stack([fs, mid, hi, hm, hhi]), rest])

    f, xb = best_node
    u, v = (xb, 1.0) if f else (1.0, xb)
    vals, vecs = np.linalg.eigh(u * m12 - v * w2)
    trs = u * tr12 - v * t
    pick_max = abs(trs - 2.0 * vals[-1]) > abs(trs - 2.0 * vals[0])
    direction = vecs[:, -1 if pick_max else 0]
    a = (tr12 - 2.0 * direction @ m12 @ direction) / t
    b = (2.0 * direction @ w2 @ direction - t) / t
    f_best, beta = _beta_step(a, b, d0, d1)
    value = math.sqrt(max(float(f_best), 0.0))
    if bench.kind == "mop" and value > 1.0 + _MOP_CAP_TOL:
        raise NumericalError(
            f"worst-case relative bias {value:.6g} exceeds its theoretical cap of 1 "
            "under the mop benchmark; the moment covariance estimate is inconsistent"
        )
    return SupResult(
        value=value,
        argmax_beta=float(beta * unit),
        argmax_dir=direction,
        upper=float(upper + slack),
        nodes=nodes,
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
    Omega from `weight_matrix`, with the generalized F-statistic at that
    Omega: the effective F for "2sls" and the robust F for "gmmf". `method`
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
    stat = FStatValue(_STATISTIC[spec.kind], f_generalized(pd, cov, omega).value)
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
        if sup.nodes >= _MAX_NODES:
            gap = (sup.upper - sup.value) / sup.value if sup.value > 0.0 else math.inf
            warnings = (
                f"bias-bound search stopped at its cap of {_MAX_NODES} nodes; the "
                f"supremum may exceed the bound used by up to {gap:.3g} relative",
            )
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
