"""First-stage F-statistics.

On the partialled model x = Z pi + v2, in the instrument basis q of
`PartialledData.z_qr` (z = q t, q'q = n I), with W2 the first-stage moment
covariance block in basis q:

- nonrobust:   x'P_Z x / (k_z sigma_v2^2)
- generalized: x'q Omega q'x / (n tr(W2 Omega)) at the weight matrix Omega
  that `weight_matrix` forms for a `WeightSpec`

The weighted statistics are that one formula at the weights of the GMM
estimators they test: the effective F is `f_generalized(pd, "2sls")`
(Omega = I), the robust F is `f_generalized(pd, "gmmf")` (Omega = W2^{-1}),
and a custom weight gives its generalized F. `weak_iv_test` tests the same
formula at the same Omega, so `weakiv estimate` and `weakiv weakivtest`
print the same robust F.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .estimators import estimate_moment_cov, weight_matrix

__all__ = ["f_generalized", "f_nonrobust"]


def f_nonrobust(pd):
    _, v2 = pd.first_stage_residuals
    sigma2 = float(v2 @ v2) / pd.n
    if sigma2 <= 0.0:
        raise NumericalError("zero first-stage residual variance")
    qtx = pd.z_qr[0].T @ pd.x  # x'P_Z x = |q'x|^2 / n
    return float(qtx @ qtx) / (pd.n * pd.k_z * sigma2)


def f_generalized(pd, spec, flavor="hc0", dof_correction=False):
    """x'q Omega q'x / (n tr(W2 Omega)) at Omega = `weight_matrix(pd, spec,
    flavor, dof_correction)`, with W2 from the same moment covariance."""
    w2 = estimate_moment_cov(pd, flavor=flavor, dof_correction=dof_correction).v2v2
    omega = weight_matrix(pd, spec, flavor, dof_correction)
    qtx = pd.z_qr[0].T @ pd.x
    denom = pd.n * float(np.trace(w2 @ omega))
    if denom <= 0.0:
        raise NumericalError("nonpositive trace in the generalized F denominator")
    return float(qtx @ omega @ qtx) / denom
