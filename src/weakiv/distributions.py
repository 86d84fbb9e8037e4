"""Special functions and samplers: regularized incomplete gamma, central and
noncentral chi-square CDF/quantile, reproducible multivariate normal streams.

The noncentral chi-square supports fractional degrees of freedom, which the
moment-matched effective-dof critical values in :mod:`weakiv.weak_test` produce
generically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

__all__ = [
    "NoncentralChiSq",
    "RngStream",
    "chisq_cdf",
    "chisq_quantile",
    "lower_gamma_regularized",
    "mvn_sample",
]

_TINY = 1e-300


def lower_gamma_regularized(a, x, tol=1e-15, max_iter=20000):
    """Regularized lower incomplete gamma function P(a, x).

    Power series for x < a + 1, modified Lentz continued fraction for the
    complement otherwise; both iterated to relative tolerance `tol`.
    """
    if not a > 0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    log_prefac = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        # P(a,x) = e^{-x} x^a / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n))
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(max_iter):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * tol:
                return min(1.0, total * math.exp(log_prefac))
        raise NumericalError("incomplete gamma series did not converge")
    # Lentz's method for the continued fraction of Q(a, x)
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b if abs(b) > _TINY else 1.0 / _TINY
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            return max(0.0, 1.0 - math.exp(log_prefac) * h)
    raise NumericalError("incomplete gamma continued fraction did not converge")


@dataclass(frozen=True)
class NoncentralChiSq:
    """Noncentral chi-square law with df > 0 (fractional allowed) and ncp >= 0."""

    df: float
    ncp: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.df) and self.df > 0):
            raise ValueError(f"df must be a positive finite real, got {self.df}")
        if not (math.isfinite(self.ncp) and self.ncp >= 0):
            raise ValueError(f"ncp must be a nonnegative finite real, got {self.ncp}")

    def cdf(self, x, tail_tol=1e-13):
        return chisq_cdf(self, x, tail_tol=tail_tol)

    def quantile(self, p):
        return chisq_quantile(self, p)


def chisq_cdf(d, x, tail_tol=1e-13):
    """CDF of the (non)central chi-square `d` at `x`.

    Poisson mixture sum_j w_j P(df/2 + j, x/2) with w_j Poisson(ncp/2) weights.
    The gamma-CDF sequence is generated by the downward recurrence
    P(a+1, y) = P(a, y) - y^a e^{-y} / Gamma(a+1), vectorized as a cumulative
    sum; the series is truncated once the remaining Poisson mass times the last
    CDF value drops below `tail_tol`.
    """
    if x <= 0.0:
        return 0.0
    a = 0.5 * d.df
    y = 0.5 * x
    p0 = lower_gamma_regularized(a, y)
    lam = 0.5 * d.ncp
    if lam == 0.0:  # includes ncp so small that lam underflows
        return p0
    log_lam = math.log(lam)
    log_y = math.log(y)
    nterms = max(64, int(lam + 10.0 * math.sqrt(lam + 1.0) + 64.0))
    for _ in range(60):
        j = np.arange(nterms, dtype=float)
        log_jfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, nterms)))))
        w = np.exp(-lam + j * log_lam - log_jfact)
        # u_m = y^(a+m) e^{-y} / Gamma(a+m+1) for m = 0..nterms-2
        m = np.arange(nterms - 1, dtype=float)
        log_gam = math.lgamma(a + 1.0) + np.concatenate(
            ([0.0], np.cumsum(np.log(a + np.arange(1.0, nterms - 1.0))))
        )
        u = np.exp((a + m) * log_y - y - log_gam)
        p = p0 - np.concatenate(([0.0], np.cumsum(u)))
        np.clip(p, 0.0, 1.0, out=p)
        tail = max(0.0, 1.0 - float(w.sum()))
        if tail * p[-1] <= tail_tol:
            return float(min(1.0, max(0.0, float(w @ p))))
        nterms *= 2
    raise NumericalError("noncentral chi-square series did not reach its tail bound")


def chisq_quantile(d, p, cdf_tol=1e-10, max_iter=400):
    """Quantile of the (non)central chi-square `d` at probability `p`.

    Bracketed bisection; the bracket starts at
    [0, df + ncp + 10 sqrt(2 df + 4 ncp) + 50] and expands geometrically if it
    does not yet cover `p`. Bisection runs until the interval is resolved to
    1e-12 relative to its upper end, also for quantiles far below 1, then the
    |CDF - p| < `cdf_tol` post-condition is checked.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must be in (0, 1), got {p}")
    lo = 0.0
    hi = d.df + d.ncp + 10.0 * math.sqrt(2.0 * d.df + 4.0 * d.ncp) + 50.0
    while chisq_cdf(d, hi) < p:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise NumericalError("quantile bracket expansion failed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if chisq_cdf(d, mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi or hi == lo:
            break
    q = 0.5 * (lo + hi)
    if abs(chisq_cdf(d, q) - p) > cdf_tol:
        raise NumericalError(
            f"quantile bisection did not reach CDF tolerance {cdf_tol} at p={p}"
        )
    return q


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream) fully determines the draws.

    Parallel consumers take distinct stream ids, so results do not depend on
    thread scheduling or worker count.
    """

    seed: int
    stream: int = 0

    def generator(self):
        key = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(key))


def mvn_sample(mean, cov, rng, count):
    """Draw `count` samples from N(mean, cov) using a lower Cholesky factor.

    `rng` may be an RngStream or a numpy Generator.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    try:
        lower = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance matrix is not positive definite") from exc
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    z = gen.standard_normal((count, mean.size))
    return mean + z @ lower.T
