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


def _spd(omega, k=None):
    """Symmetrized copy of a weight matrix after checking that it is square
    (k x k when `k` is given), symmetric and positive definite."""
    omega = np.asarray(omega, dtype=float)
    square = omega.ndim == 2 and omega.shape[0] == omega.shape[1]
    if not square or k not in (None, omega.shape[0]):
        want = "square" if k is None else f"{k}x{k}"
        raise InputError(
            f"omega has the wrong shape {omega.shape}: expected a {want} matrix"
        )
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
    """Covariance blocks of the stacked instrument moments (z v1, z v2)/sqrt(n),
    where v1 is the reduced-form residual (or a structural residual when a
    coefficient was imposed) and v2 the first-stage residual."""

    v1v1: np.ndarray
    v1v2: np.ndarray
    v2v2: np.ndarray
    flavor: str = "hc0"

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


@dataclass(frozen=True)
class ResidualCov:
    """Pooled 2x2 covariance of (reduced-form, first-stage) residuals."""

    v1v1: float
    v1v2: float
    v2v2: float

    def __post_init__(self):
        if self.det <= 1e-12:
            raise NumericalError(
                "residual covariance is (near) singular: reduced-form and "
                "first-stage residuals are almost perfectly correlated"
            )

    @property
    def det(self):
        return self.v1v1 * self.v2v2 - self.v1v2 * self.v1v2

    @property
    def matrix(self):
        return np.array([[self.v1v1, self.v1v2], [self.v1v2, self.v2v2]])


@dataclass(frozen=True, eq=False)
class EstimateResult:
    beta_hat: float
    se_robust: float
    se_nonrobust: float
    residuals: np.ndarray
    weights_used: WeightSpec | None
    omega_used: np.ndarray | None


@dataclass(frozen=True)
class WaldResult:
    statistic: float
    pvalue: float


def _first_stage_residuals(pd):
    """pd's cached (v1, v2), after checking the rank of its QR of Z."""
    d = np.abs(np.diag(pd.z_qr[1]))
    if d.min() <= 1e-12 * d.max():
        raise NumericalError("instrument matrix is numerically rank deficient")
    return pd.first_stage_residuals


def _cluster_sums(scores, labels):
    g = int(labels.max()) + 1
    out = np.zeros((g, scores.shape[1]))
    for j in range(scores.shape[1]):
        out[:, j] = np.bincount(labels, weights=scores[:, j], minlength=g)
    return out


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


def estimate_moment_cov(pd, flavor="hc0", beta_for_v1=None, dof_correction=False):
    """Estimate the moment covariance blocks from first-stage and reduced-form
    residuals.

    With `beta_for_v1` set, the first residual is the structural one
    y - beta*x instead of the reduced-form projection residual. No
    degrees-of-freedom correction is applied unless `dof_correction` is set
    (then n/(n - k_z), or G/(G - 1) for the cluster flavor). Without
    `beta_for_v1` the estimate is made once per `pd`, flavor and correction,
    and later calls return the same MomentCov.
    """
    labels = _resolve_flavor(pd, flavor)
    key = (flavor, bool(dof_correction))
    if beta_for_v1 is None and key in pd.moment_covs:
        return pd.moment_covs[key]
    v1, v2 = _first_stage_residuals(pd)
    if beta_for_v1 is not None:
        v1 = pd.y - float(beta_for_v1) * pd.x
    blocks = _meat(pd.z, [v1, v2], labels, dof_correction)
    cov = MomentCov(
        v1v1=blocks[(0, 0)], v1v2=blocks[(0, 1)], v2v2=blocks[(1, 1)], flavor=flavor
    )
    if beta_for_v1 is None:
        pd.moment_covs[key] = cov
    return cov


def residual_cov(pd):
    """Pooled covariance of the (reduced-form, first-stage) residual pair."""
    v1, v2 = _first_stage_residuals(pd)
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
    """The GMM weight matrix Omega that `spec` names for the data `pd`.

    "2sls" gives (Z'Z/n)^{-1}; "gmmf" gives the inverse of the first-stage
    moment covariance block `cov.v2v2`, so it needs `cov`; "custom" gives the
    validated `spec.omega`. The two inverses are returned as computed, not
    symmetrized; callers that need exact symmetry symmetrize.
    """
    if spec.kind == "custom":
        return spec.omega
    if spec.kind == "2sls":
        m, what = pd.z.T @ pd.z / pd.n, "instrument cross-product matrix"
    else:
        m, what = cov.v2v2, "first-stage moment covariance"
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError:
        raise NumericalError(f"{what} is singular") from None


def estimate(pd, spec, flavor="hc0", dof_correction=False):
    """Point estimate with robust (sandwich) and nonrobust standard errors.

    The robust variance uses the same HC0/cluster kernel as the moment
    covariance, applied to the structural residual y - x*beta_hat; this is the
    standard sandwich convention. The nonrobust variance replaces the kernel by
    sigma_u^2 * Z'Z.
    """
    labels = _resolve_flavor(pd, flavor)
    z, x, y, n = pd.z, pd.x, pd.y, pd.n
    ztx = z.T @ x
    zty = z.T @ y
    cov = None
    if spec.kind == "gmmf":
        cov = estimate_moment_cov(pd, flavor=flavor, dof_correction=dof_correction)
    omega = _sym(weight_matrix(pd, spec, cov))
    t = omega @ ztx
    denom = float(ztx @ t)
    if denom <= 0.0:
        raise NumericalError(
            "degenerate identification: x'Z Omega Z'x is not positive"
        )
    beta = float(t @ zty) / denom
    u = y - beta * x
    se_rob = _sandwich(z, t, u, denom, labels, dof_correction)
    sigma_u2 = float(u @ u) / n
    var_nr = sigma_u2 * float(t @ (z.T @ z) @ t) / denom**2
    return EstimateResult(
        beta_hat=beta,
        se_robust=se_rob,
        se_nonrobust=float(np.sqrt(max(var_nr, 0.0))),
        residuals=u,
        weights_used=spec,
        omega_used=omega,
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
        residuals=u,
        weights_used=None,
        omega_used=None,
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
