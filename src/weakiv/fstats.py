"""First-stage F-statistics.

Four variants on the partialled model x = Z pi + v2, in the instrument basis
q of `PartialledData.z_qr` (z = q t, q'q = n I):

- nonrobust:   x'P_Z x / (k_z sigma_v2^2)
- robust:      x'q W2^{-1} q'x / (n k_z)
- effective:   x'P_Z x / tr(W2)
- generalized: x'q Omega q'x / (n tr(W2 Omega)) for a weight matrix Omega

with W2 the first-stage moment covariance block, and W2 and Omega in basis q.
The generalized statistic specializes to the effective one at Omega = I and
to the robust one at Omega = W2^{-1}. Pass blocks from a single
moment-covariance estimation so that one report stays internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .estimators import _spd, _square

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


def _qtx(pd):
    """q'x, with q from `pd.z_qr`: x'P_Z x = |q'x|^2 / n."""
    return pd.z_qr[0].T @ pd.x


def f_nonrobust(pd):
    _, v2 = pd.first_stage_residuals
    sigma2 = float(v2 @ v2) / pd.n
    if sigma2 <= 0.0:
        raise NumericalError("zero first-stage residual variance")
    qtx = _qtx(pd)
    return FStatValue("nonrobust", float(qtx @ qtx) / (pd.n * pd.k_z * sigma2))


def f_robust(pd, w2):
    w2 = _square(w2, pd.k_z, "w2")
    qtx = _qtx(pd)
    try:
        t = np.linalg.solve(w2, qtx)
    except np.linalg.LinAlgError:
        raise NumericalError("first-stage moment covariance is singular") from None
    return FStatValue("robust", float(qtx @ t) / (pd.n * pd.k_z))


def f_effective(pd, w2):
    denom = float(np.trace(_square(w2, pd.k_z, "w2")))
    if denom <= 0.0:
        raise NumericalError("nonpositive trace in effective F denominator")
    qtx = _qtx(pd)
    return FStatValue("effective", float(qtx @ qtx) / (pd.n * denom))


def f_generalized(pd, cov, omega):
    omega = _spd(omega, k=pd.k_z)
    qtx = _qtx(pd)
    denom = pd.n * float(np.trace(cov.v2v2 @ omega))
    if denom <= 0.0:
        raise NumericalError("nonpositive trace in generalized F denominator")
    return FStatValue("generalized", float(qtx @ omega @ qtx) / denom)
