"""Linear IV/GMM point estimation and moment-covariance estimation.

The estimator class is beta = (x'Z Omega Z'y) / (x'Z Omega Z'x) for a fixed
symmetric positive definite weight matrix Omega. Two named members: "2sls"
(Omega = (Z'Z/n)^{-1}) and "gmmf" (Omega equal to the inverse of the
first-stage-residual moment covariance). Weight matrices that depend on an
initial estimate of the structural coefficient are refused: only fixed-weight
estimators are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "EstimateResult",
    "MomentCov",
    "ResidualCov",
    "WaldResult",
    "WeightSpec",
    "estimate",
    "estimate_moment_cov",
    "ols",
    "residual_cov",
    "wald_test",
    "weight_matrix",
]

_FLAVORS = ("hc0", "cluster")


def _sym(m):
    return 0.5 * (m + m.T)


def _square(m, k=None, name="omega"):
    """`m` as a float array, after checking that it is a square matrix (k x k
    when `k` is given)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or k not in (None, m.shape[0]):
        want = "square" if k is None else f"{k}x{k}"
        raise InputError(f"{name} has the wrong shape {m.shape}: expected a {want} matrix")
    return m


def _spd(omega, k=None):
    """Symmetrized copy of a weight matrix after checking that it is square
    (k x k when `k` is given), symmetric and positive definite."""
    omega = _square(omega, k)
    if not np.allclose(omega, omega.T, rtol=1e-10, atol=1e-12):
        raise InputError("omega must be symmetric")
    omega = _sym(omega)
    try:
        np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        raise InputError("omega must be positive definite") from None
    return omega


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """GMM weight choice: kind in {"2sls", "gmmf", "custom"}.

    "custom" carries an explicit symmetric positive definite matrix. Requests
    for a two-step weight (kind containing "step") are refused: a weight matrix
    built from an initial structural-coefficient estimate is outside the
    fixed-weight class this package supports.
    """

    kind: str
    omega: np.ndarray | None = None

    def __post_init__(self):
        kind = str(self.kind).lower().replace("-", "").replace("_", "")
        if "step" in kind:
            raise InputError(
                "two-step GMM is not supported: its weight matrix depends on an "
                "initial estimate of the structural coefficient, which is outside "
                "the fixed-weight estimator class implemented here; use '2sls', "
                "'gmmf', or a custom fixed weight matrix"
            )
        if kind not in ("2sls", "gmmf", "custom"):
            raise InputError(f"unknown weight kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if kind == "custom":
            if self.omega is None:
                raise InputError("custom weight requires an omega matrix")
            object.__setattr__(self, "omega", _spd(self.omega))
        elif self.omega is not None:
            raise InputError(f"weight kind {kind!r} does not take an omega matrix")


@dataclass(frozen=True, eq=False)
class MomentCov:
    """Covariance blocks of the stacked instrument moments (q v1, q v2)/sqrt(n),
    with q the basis of `PartialledData.z_qr` (a block C is t'C t on the
    columns of z), v1 the reduced-form and v2 the first-stage residual;
    `weak_test.transform_moment_cov` gives the blocks of the moments
    transformed by a weight matrix's square root in the same type."""

    v1v1: np.ndarray
    v1v2: np.ndarray
    v2v2: np.ndarray

    def __post_init__(self):
        for name in ("v1v1", "v1v2", "v2v2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "v1v1", _sym(self.v1v1))
        object.__setattr__(self, "v2v2", _sym(self.v2v2))
        try:
            np.linalg.cholesky(self.full)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "moment covariance is not positive definite (degenerate residuals "
                "or too few clusters)"
            ) from None

    @property
    def full(self):
        return np.block([[self.v1v1, self.v1v2], [self.v1v2.T, self.v2v2]])

    @property
    def k_z(self):
        return self.v2v2.shape[0]


def _resid_cov_singular(v1v1, v1v2, v2v2):
    """Elementwise: whether the residual covariance [[v1v1, v1v2], [v1v2,
    v2v2]] is (near) singular, its determinant at most 1e-12 times the product
    of its diagonal, so the rule does not depend on the units of y and x."""
    diag = v1v1 * v2v2
    return diag - v1v2 * v1v2 <= 1e-12 * diag


@dataclass(frozen=True)
class ResidualCov:
    """Pooled 2x2 covariance of (reduced-form, first-stage) residuals."""

    v1v1: float
    v1v2: float
    v2v2: float

    def __post_init__(self):
        if _resid_cov_singular(self.v1v1, self.v1v2, self.v2v2):
            raise NumericalError(
                "residual covariance is (near) singular: reduced-form and "
                "first-stage residuals are almost perfectly correlated"
            )

    @property
    def matrix(self):
        return np.array([[self.v1v1, self.v1v2], [self.v1v2, self.v2v2]])


@dataclass(frozen=True, eq=False)
class EstimateResult:
    beta_hat: float
    se_robust: float
    se_nonrobust: float


@dataclass(frozen=True)
class WaldResult:
    statistic: float
    pvalue: float


def _cluster_sums(scores, labels):
    """Column sums of the rows of `scores` within each cluster: one row per
    distinct label, in sorted label order."""
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.flatnonzero(np.r_[True, sorted_labels[1:] != sorted_labels[:-1]])
    return np.add.reduceat(scores[order], starts, axis=0)


def _meat(z, resids, labels, dof_correction):
    """(1/n) sum of outer products of per-observation (or per-cluster summed)
    score vectors z_i * r_i, for each residual pair in `resids`."""
    n = z.shape[0]
    scores = [z * r[:, None] for r in resids]
    if labels is not None:
        scores = [_cluster_sums(s, labels) for s in scores]
    factor = 1.0 / n
    if dof_correction:
        if labels is not None:
            g = scores[0].shape[0]
            if g < 2:
                raise InputError("cluster correction requires at least 2 clusters")
            factor *= g / (g - 1.0)
        else:
            k_z = z.shape[1]
            if n <= k_z:
                raise InputError("degrees-of-freedom correction requires n > k_z")
            factor *= n / (n - k_z)
    blocks = {}
    for i, si in enumerate(scores):
        for j, sj in enumerate(scores):
            if j < i:
                continue
            blocks[(i, j)] = (si.T @ sj) * factor
    return blocks


def _resolve_flavor(pd, flavor):
    if flavor not in _FLAVORS:
        raise InputError(f"unknown covariance flavor {flavor!r}; use one of {_FLAVORS}")
    if flavor == "cluster":
        if pd.cluster is None:
            raise InputError("cluster covariance requested but no cluster labels bound")
        return pd.cluster
    return None


def estimate_moment_cov(pd, flavor="hc0", dof_correction=False):
    """Estimate the moment covariance blocks from first-stage and reduced-form
    residuals.

    No degrees-of-freedom correction is applied unless `dof_correction` is
    set (then n/(n - k_z), or G/(G - 1) for the cluster flavor, with G the
    number of distinct cluster labels). The estimate is made once per `pd`,
    flavor and correction, and later calls return the same MomentCov.
    """
    labels = _resolve_flavor(pd, flavor)
    key = (flavor, bool(dof_correction))
    if key not in pd.moment_covs:
        blocks = _meat(pd.z_qr[0], pd.first_stage_residuals, labels, dof_correction)
        pd.moment_covs[key] = MomentCov(
            v1v1=blocks[(0, 0)], v1v2=blocks[(0, 1)], v2v2=blocks[(1, 1)]
        )
    return pd.moment_covs[key]


def residual_cov(pd):
    """Pooled covariance of the (reduced-form, first-stage) residual pair."""
    v1, v2 = pd.first_stage_residuals
    n = pd.n
    return ResidualCov(
        v1v1=float(v1 @ v1) / n, v1v2=float(v1 @ v2) / n, v2v2=float(v2 @ v2) / n
    )


def _sandwich(z, t, u, denom, labels, dof_correction):
    meat = _meat(z, [u], labels, dof_correction)[(0, 0)]
    n = z.shape[0]
    var = float(t @ (n * meat) @ t) / denom**2
    return math.sqrt(max(var, 0.0))


def weight_matrix(pd, spec, cov=None):
    """The GMM weight matrix Omega that `spec` names for the data `pd`, in the
    basis q of `pd.z_qr` and exactly symmetric.

    "2sls" gives (q'q/n)^{-1} = I; "gmmf" gives the symmetrized inverse of the
    first-stage moment covariance block `cov.v2v2`, so it needs `cov`;
    "custom" maps `spec.omega`, given on the columns of z, to t Omega t'.
    """
    if spec.kind == "2sls":
        return np.eye(pd.k_z)
    if spec.kind == "custom":
        t = pd.z_qr[1]
        return _sym(t @ spec.omega @ t.T)
    if cov is None:
        raise InputError("the gmmf weight needs the moment covariance: pass cov")
    try:
        return _sym(np.linalg.inv(cov.v2v2))
    except np.linalg.LinAlgError:
        raise NumericalError("first-stage moment covariance is singular") from None


def estimate(pd, spec, flavor="hc0", dof_correction=False):
    """Point estimate with robust (sandwich) and nonrobust standard errors,
    computed in the instrument basis q of `pd.z_qr`.

    The robust variance uses the same HC0/cluster kernel as the moment
    covariance, applied to the structural residual y - x*beta_hat; this is the
    standard sandwich convention. The nonrobust variance replaces the kernel by
    sigma_u^2 * q'q = sigma_u^2 * n I.
    """
    labels = _resolve_flavor(pd, flavor)
    q, x, y = pd.z_qr[0], pd.x, pd.y
    qtx = q.T @ x
    cov = None
    if spec.kind == "gmmf":
        cov = estimate_moment_cov(pd, flavor=flavor, dof_correction=dof_correction)
    omega = weight_matrix(pd, spec, cov)
    t = omega @ qtx
    denom = float(qtx @ t)
    if denom <= 0.0:
        raise NumericalError(
            "degenerate identification: x'Z Omega Z'x is not positive"
        )
    beta = float(t @ (q.T @ y)) / denom
    u = y - beta * x
    se_rob = _sandwich(q, t, u, denom, labels, dof_correction)
    var_nr = float(u @ u) * float(t @ t) / denom**2
    return EstimateResult(
        beta_hat=beta,
        se_robust=se_rob,
        se_nonrobust=float(np.sqrt(max(var_nr, 0.0))),
    )


def ols(pd, flavor="hc0", dof_correction=False):
    """Least-squares slope of y on x (controls already partialled out)."""
    labels = _resolve_flavor(pd, flavor)
    x, y, n = pd.x, pd.y, pd.n
    sxx = float(x @ x)
    if sxx <= 0.0:
        raise NumericalError("regressor has zero sum of squares")
    beta = float(x @ y) / sxx
    u = y - beta * x
    se_rob = _sandwich(x[:, None], np.array([1.0]), u, sxx, labels, dof_correction)
    sigma_u2 = float(u @ u) / n
    return EstimateResult(
        beta_hat=beta,
        se_robust=se_rob,
        se_nonrobust=float(np.sqrt(sigma_u2 / sxx)),
    )


def wald_test(res, beta0):
    """Squared t-ratio against beta0 with the robust SE; p-value from chi2(1),
    whose survival function at s is erfc(sqrt(s / 2))."""
    diff = res.beta_hat - beta0
    if diff == 0.0:
        return WaldResult(statistic=0.0, pvalue=1.0)
    if res.se_robust == 0.0:
        return WaldResult(statistic=float("inf"), pvalue=0.0)
    stat = (diff / res.se_robust) ** 2
    return WaldResult(statistic=float(stat), pvalue=math.erfc(math.sqrt(stat / 2.0)))
