"""First-stage F-statistics.

On the partialled model x = Z pi + v2, in the instrument basis q of
`PartialledData.z_qr` (z = q t, q'q = n I), with W2 the first-stage moment
covariance block in basis q:

- nonrobust:   x'P_Z x / (k_z sigma_v2^2)
- generalized: x'q Omega q'x / (n tr(W2 Omega)) for a weight matrix Omega

The three weighted statistics are that one formula at three weights, the
weights of the GMM estimators they test: the effective F at Omega = I
(2SLS), the robust F at the GMMf weight Omega = W2^{-1} (from the helper
that `weight_matrix` uses), and the generalized F at a given Omega.
`weak_iv_test` tests the same formula at its estimator's weight, so
`weakiv estimate` and `weakiv weakivtest` print the same robust F. Pass
blocks from a single moment-covariance estimation so that one report stays
internally consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .estimators import _gmmf_weight, _spd, _square

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


def _weighted_f(pd, kind, w2, omega):
    """x'q Omega q'x / (n tr(W2 Omega)), labelled `kind`."""
    qtx = _qtx(pd)
    denom = pd.n * float(np.trace(w2 @ omega))
    if denom <= 0.0:
        raise NumericalError(f"nonpositive trace in {kind} F denominator")
    return FStatValue(kind, float(qtx @ omega @ qtx) / denom)


def f_robust(pd, w2):
    w2 = _square(w2, pd.k_z, "w2")
    return _weighted_f(pd, "robust", w2, _gmmf_weight(w2))


def f_effective(pd, w2):
    return _weighted_f(pd, "effective", _square(w2, pd.k_z, "w2"), np.eye(pd.k_z))


def f_generalized(pd, cov, omega):
    return _weighted_f(pd, "generalized", cov.v2v2, _spd(omega, k=pd.k_z))
