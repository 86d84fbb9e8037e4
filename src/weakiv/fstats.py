"""First-stage F-statistics.

Four variants on the partialled model x = Z pi + v2:

- nonrobust:   x'P_Z x / (k_z sigma_v2^2)
- robust:      x'Z W2^{-1} Z'x / (n k_z)
- effective:   x'P_Z x / tr(W2 (Z'Z/n)^{-1})
- generalized: x'Z Omega Z'x / (n tr(W2 Omega)) for a weight matrix Omega

with W2 the first-stage moment covariance block. The generalized statistic
specializes to the effective one at Omega = (Z'Z/n)^{-1} and to the robust one
at Omega = W2^{-1}. Pass blocks from a single moment-covariance estimation so
that one report stays internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .estimators import WeightSpec, _spd, weight_matrix

__all__ = [
    "FStatValue",
    "f_effective",
    "f_generalized",
    "f_nonrobust",
    "f_robust",
]


@dataclass(frozen=True)
class FStatValue:
    kind: str
    value: float

    def __float__(self):
        return float(self.value)


def _proj_quad(pd):
    """x' P_Z x via the thin QR of the instruments."""
    w = pd.z_qr[0].T @ pd.x
    return float(w @ w)


def f_nonrobust(pd):
    _, v2 = pd.first_stage_residuals
    sigma2 = float(v2 @ v2) / pd.n
    if sigma2 <= 0.0:
        raise NumericalError("zero first-stage residual variance")
    return FStatValue("nonrobust", _proj_quad(pd) / (pd.k_z * sigma2))


def f_robust(pd, w2):
    w2 = np.asarray(w2, dtype=float)
    ztx = pd.z.T @ pd.x
    try:
        t = np.linalg.solve(w2, ztx)
    except np.linalg.LinAlgError:
        raise NumericalError("first-stage moment covariance is singular") from None
    return FStatValue("robust", float(ztx @ t) / (pd.n * pd.k_z))


def f_effective(pd, w2):
    w2 = np.asarray(w2, dtype=float)
    denom = float(np.trace(w2 @ weight_matrix(pd, WeightSpec("2sls"))))
    if denom <= 0.0:
        raise NumericalError("nonpositive trace in effective F denominator")
    return FStatValue("effective", _proj_quad(pd) / denom)


def f_generalized(pd, cov, omega):
    omega = _spd(omega, k=pd.k_z)
    ztx = pd.z.T @ pd.x
    denom = pd.n * float(np.trace(cov.v2v2 @ omega))
    if denom <= 0.0:
        raise NumericalError("nonpositive trace in generalized F denominator")
    return FStatValue("generalized", float(ztx @ omega @ ztx) / denom)
