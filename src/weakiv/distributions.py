"""Special functions and samplers: regularized incomplete gamma, central and
noncentral chi-square CDF/quantile, reproducible multivariate normal streams.

The noncentral chi-square supports fractional degrees of freedom, which the
moment-matched effective-dof critical values in :mod:`weakiv.weak_test` produce
generically. A law may also be a batch: `NoncentralChiSq` with 1-d `df` and
`ncp` arrays, evaluated together by `chisq_cdf` and `chisq_quantile`. Each
law's result depends only on its own parameters and arguments, not on the
rest of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
_BLOCK_TERMS = 1 << 15
"""Laws x Poisson-series terms evaluated at once; a batch of laws is split
into blocks under this budget, which bounds the memory of its tables."""


def _gamma_series(a, x, log_prefac, tol, max_iter):
    # P(a,x) = e^{-x} x^a / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n))
    out = np.full(a.shape, np.nan)
    idx = np.arange(a.size)
    ap = a.copy()
    term = 1.0 / a
    total = term.copy()
    for _ in range(max_iter):
        ap += 1.0
        term *= x / ap
        total += term
        done = np.abs(term) < np.abs(total) * tol
        if done.any():
            out[idx[done]] = np.minimum(1.0, total[done] * np.exp(log_prefac[done]))
            go = ~done
            idx, a, x, log_prefac = idx[go], a[go], x[go], log_prefac[go]
            ap, term, total = ap[go], term[go], total[go]
            if not idx.size:
                break
    return out


def _gamma_fraction(a, x, log_prefac, tol, max_iter):
    # Lentz's method for the continued fraction of Q(a, x)
    out = np.full(a.shape, np.nan)
    idx = np.arange(a.size)
    b = x + 1.0 - a
    c = np.full(a.shape, 1.0 / _TINY)
    with np.errstate(divide="ignore"):
        d = np.where(np.abs(b) > _TINY, 1.0 / b, 1.0 / _TINY)
    h = d.copy()
    for i in range(1, max_iter + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _TINY] = _TINY
        c = b + an / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < tol
        if done.any():
            out[idx[done]] = np.maximum(0.0, 1.0 - np.exp(log_prefac[done]) * h[done])
            go = ~done
            idx, a, log_prefac = idx[go], a[go], log_prefac[go]
            b, c, d, h = b[go], c[go], d[go], h[go]
            if not idx.size:
                break
    return out


def _lower_gamma(a, x, lgamma_a, tol=1e-15, max_iter=20000):
    """P(a, x) for 1-d arrays a > 0 and x >= 0, given lgamma(a); NaN where
    the iteration did not converge."""
    out = np.zeros(x.shape)
    pos = x > 0.0
    with np.errstate(divide="ignore"):
        log_prefac = -x + a * np.log(x) - lgamma_a
    series = pos & (x < a + 1.0)
    for branch, mask in ((_gamma_series, series), (_gamma_fraction, pos & ~series)):
        if mask.any():
            out[mask] = branch(a[mask], x[mask], log_prefac[mask], tol, max_iter)
    return out


def lower_gamma_regularized(a, x, tol=1e-15, max_iter=20000):
    """Regularized lower incomplete gamma function P(a, x).

    Power series for x < a + 1, modified Lentz continued fraction for the
    complement otherwise; both iterated to relative tolerance `tol`, each
    element until it converges. `a` and `x` broadcast; a scalar pair gives a
    float and raises NumericalError if the iteration does not converge, an
    array gives NaN where it does not.
    """
    a_arr, x_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    if not np.all(a_arr > 0):
        raise ValueError(f"shape parameter must be positive, got {a}")
    if np.any(x_arr < 0):
        raise ValueError(f"argument must be nonnegative, got {x}")
    a1, x1 = np.atleast_1d(a_arr).ravel(), np.atleast_1d(x_arr).ravel()
    lgamma_a = np.array([math.lgamma(v) for v in a1.tolist()])
    p = _lower_gamma(a1, x1, lgamma_a, tol, max_iter)
    if a_arr.ndim:
        return p.reshape(a_arr.shape)
    if math.isnan(p[0]):
        branch = "series" if x1[0] < a1[0] + 1.0 else "continued fraction"
        raise NumericalError(f"incomplete gamma {branch} did not converge")
    return float(p[0])


@dataclass(frozen=True)
class NoncentralChiSq:
    """Noncentral chi-square law with df > 0 (fractional allowed) and ncp >= 0.

    `df` and `ncp` may also be 1-d arrays (a scalar one is broadcast): a batch
    of laws, which `chisq_cdf` and `chisq_quantile` evaluate together.
    """

    df: float
    ncp: float = 0.0

    def __post_init__(self):
        df, ncp = np.broadcast_arrays(
            np.asarray(self.df, dtype=float), np.asarray(self.ncp, dtype=float)
        )
        if df.ndim > 1:
            raise ValueError("df and ncp must be scalars or 1-d arrays")
        bad = ~(np.isfinite(df) & (df > 0))
        if bad.any():
            raise ValueError(f"df must be a positive finite real, got {df[bad].flat[0]}")
        bad = ~(np.isfinite(ncp) & (ncp >= 0))
        if bad.any():
            raise ValueError(f"ncp must be a nonnegative finite real, got {ncp[bad].flat[0]}")
        if df.ndim:
            object.__setattr__(self, "df", np.array(df))
            object.__setattr__(self, "ncp", np.array(ncp))

    def cdf(self, x, tail_tol=1e-13):
        return chisq_cdf(self, x, tail_tol=tail_tol)

    def quantile(self, p):
        return chisq_quantile(self, p)

    @cached_property
    def _series(self):
        return _Series(np.atleast_1d(0.5 * self.df), np.atleast_1d(0.5 * self.ncp))


def _nterms(lam):
    """Poisson terms summed at first for rate `lam`; 1 for a central law."""
    return np.where(
        lam > 0.0,
        np.maximum(64, (lam + 10.0 * np.sqrt(lam + 1.0) + 64.0).astype(int)),
        1,
    )


class _Series:
    """The x-free parts of the Poisson mixture of a block of laws: Poisson
    weights w_j and log-gamma normalizers log Gamma(a+m+1), one row per law,
    padded to the longest row. Entries past a law's own term count are
    computed but never read, so a law's CDF does not depend on its block."""

    def __init__(self, a, lam, nterms=None):
        self.a, self.lam = a, lam
        self.nterms = _nterms(lam) if nterms is None else nterms
        self.last = self.nterms - 1
        self.lgamma_a = np.array([math.lgamma(v) for v in a.tolist()])
        width = int(self.nterms.max()) if a.size else 1
        j = np.arange(width, dtype=float)
        log_jfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, width)))))
        log_lam = np.log(np.where(lam > 0.0, lam, 1.0))
        self.w = np.exp(-lam[:, None] + j * log_lam[:, None] - log_jfact)
        lgamma_a1 = np.array([math.lgamma(v + 1.0) for v in a.tolist()])
        log_gam = np.zeros((a.size, max(width - 1, 0)))
        np.cumsum(np.log(a[:, None] + np.arange(1.0, width - 1.0)), axis=1,
                  out=log_gam[:, 1:])
        self.log_gam = lgamma_a1[:, None] + log_gam
        rows = np.arange(a.size)
        self.tail = np.maximum(0.0, 1.0 - np.cumsum(self.w, axis=1)[rows, self.last])

    def take(self, idx):
        sub = object.__new__(_Series)
        for name in ("a", "lam", "nterms", "last", "lgamma_a", "w", "log_gam", "tail"):
            setattr(sub, name, getattr(self, name)[idx])
        return sub

    def cdf(self, x, tail_tol):
        """CDF at x > 0 (one value per law), and whether each law's series
        reached its tail bound."""
        y = 0.5 * x
        p0 = _lower_gamma(self.a, y, self.lgamma_a)
        # u_m = y^(a+m) e^{-y} / Gamma(a+m+1) for m = 0..nterms-2
        u = self.a[:, None] + np.arange(self.log_gam.shape[1], dtype=float)
        u *= np.log(y)[:, None]
        u -= y[:, None]
        u -= self.log_gam
        with np.errstate(over="ignore", under="ignore"):
            np.exp(u, out=u)
        p = np.empty(self.w.shape)
        p[:, 0] = 0.0
        np.cumsum(u, axis=1, out=p[:, 1:])
        np.subtract(p0[:, None], p, out=p)
        np.clip(p, 0.0, 1.0, out=p)
        rows = np.arange(p.shape[0])
        reached = self.tail * p[rows, self.last] <= tail_tol
        # a row cumsum read at each law's own last term sums the law in an
        # order that the padding of its block cannot change
        p *= self.w
        total = np.cumsum(p, axis=1, out=p)[rows, self.last]
        return np.clip(total, 0.0, 1.0), reached


def _take(d, idx):
    """The laws `idx` of the batch `d`, sharing its series tables if built."""
    sub = NoncentralChiSq(d.df[idx], d.ncp[idx])
    if "_series" in d.__dict__:
        sub.__dict__["_series"] = d._series.take(idx)
    return sub


def _blocks(d):
    """(index, law) pairs splitting the laws of `d` into blocks of at most
    _BLOCK_TERMS series terms (one law may exceed it alone); laws of similar
    length share a block."""
    if np.ndim(d.df) == 0 or "_series" in d.__dict__:
        yield slice(None), d
        return
    nterms = _nterms(0.5 * d.ncp)
    if nterms.size * int(nterms.max(initial=1)) <= _BLOCK_TERMS:
        yield slice(None), d
        return
    order = np.argsort(nterms, kind="stable")
    start = 0
    while start < order.size:
        stop = start + 1
        while stop < order.size and (stop + 1 - start) * nterms[order[stop]] <= _BLOCK_TERMS:
            stop += 1
        idx = order[start:stop]
        yield idx, _take(d, idx)
        start = stop


def _mixture_cdf(series, x, tail_tol):
    """Block CDF at x > 0. A law whose series misses its tail bound is summed
    again, alone, over twice as many terms, up to 60 attempts in all, else
    NaN."""
    out, reached = series.cdf(x, tail_tol)
    for i in np.flatnonzero(~reached).tolist():
        one = slice(i, i + 1)
        nterms = series.nterms[one]
        out[i] = np.nan
        for _ in range(59):
            nterms = 2 * nterms
            value, ok = _Series(series.a[one], series.lam[one], nterms).cdf(x[one], tail_tol)
            if ok[0]:
                out[i] = value[0]
                break
    return out


def chisq_cdf(d, x, tail_tol=1e-13):
    """CDF of the (non)central chi-square `d` at `x`.

    Poisson mixture sum_j w_j P(df/2 + j, x/2) with w_j Poisson(ncp/2) weights.
    The gamma-CDF sequence is generated by the downward recurrence
    P(a+1, y) = P(a, y) - y^a e^{-y} / Gamma(a+1), vectorized as a cumulative
    sum; the series is truncated once the remaining Poisson mass times the last
    CDF value drops below `tail_tol`. The weights and normalizers are built
    once per law object and reused by later calls. For a batch `d`, `x`
    broadcasts against its laws and the result is an array, NaN where a law's
    series did not converge; a scalar law gives a float or raises
    NumericalError.
    """
    x = np.atleast_1d(np.broadcast_to(np.asarray(x, dtype=float), np.shape(d.df)))
    out = np.zeros(x.shape)
    xs = np.where(x <= 0.0, 1.0, x)
    for idx, law in _blocks(d):
        out[idx] = _mixture_cdf(law._series, xs[idx], tail_tol)
    out[x <= 0.0] = 0.0
    if np.ndim(d.df):
        return out
    if math.isnan(out[0]):
        raise NumericalError("noncentral chi-square series did not reach its tail bound")
    return float(out[0])


def _bisect(law, p, cdf_tol, max_iter):
    """Quantiles of the batch `law` at `p` (see chisq_quantile): NaN where the
    law failed, and whether its bracket could not be expanded."""
    n = p.size
    lo = np.zeros(n)
    hi = law.df + law.ncp + 10.0 * np.sqrt(2.0 * law.df + 4.0 * law.ncp) + 50.0
    unbounded = np.zeros(n, dtype=bool)
    idx, cur = np.arange(n), law
    while idx.size:
        below = chisq_cdf(cur, hi[idx]) < p[idx]
        idx = idx[below]
        lo[idx] = hi[idx]
        hi[idx] *= 2.0
        unbounded[idx[hi[idx] > 1e300]] = True
        idx = idx[hi[idx] <= 1e300]
        if idx.size:
            cur = _take(law, idx)
    idx = np.flatnonzero(~unbounded)
    cur = law if idx.size == n else _take(law, idx)
    live = np.ones(idx.size, dtype=bool)
    for _ in range(max_iter):
        if not live.any():
            break
        mid = 0.5 * (lo[idx] + hi[idx])
        below = chisq_cdf(cur, mid)[live] < p[idx[live]]
        step = idx[live]
        lo[step] = np.where(below, mid[live], lo[step])
        hi[step] = np.where(below, hi[step], mid[live])
        width = hi[idx] - lo[idx]
        live &= (width > 1e-12 * hi[idx]) & (width != 0.0)
        if 2 * live.sum() <= live.size:
            # a copy of the tables of the laws still bisecting costs memory,
            # so it is made only once they are at most half of `cur`
            idx, cur, live = idx[live], _take(cur, np.flatnonzero(live)), live[live]
    q = np.where(unbounded, np.nan, 0.5 * (lo + hi))
    idx = np.flatnonzero(~unbounded)
    cur = law if idx.size == n else _take(law, idx)
    missed = ~(np.abs(chisq_cdf(cur, q[idx]) - p[idx]) <= cdf_tol)
    q[idx[missed]] = np.nan
    return q, unbounded


def chisq_quantile(d, p, cdf_tol=1e-10, max_iter=400):
    """Quantile of the (non)central chi-square `d` at probability `p`.

    Bracketed bisection; the bracket starts at
    [0, df + ncp + 10 sqrt(2 df + 4 ncp) + 50] and expands geometrically if it
    does not yet cover `p`. Bisection runs until the interval is resolved to
    1e-12 relative to its upper end, also for quantiles far below 1, then the
    |CDF - p| < `cdf_tol` post-condition is checked. A batch `d` is bisected
    in blocks of laws, each step one `chisq_cdf` call on the block's laws
    still bisecting; `p` broadcasts against the laws and the result is an
    array, NaN where a law fails. A scalar law gives a float or raises
    NumericalError.
    """
    p = np.broadcast_to(np.asarray(p, dtype=float), np.shape(d.df))
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError(f"probability must be in (0, 1), got {p}")
    batch = d if np.ndim(d.df) else NoncentralChiSq(np.atleast_1d(d.df), np.atleast_1d(d.ncp))
    p = np.atleast_1d(p)
    q = np.empty(p.shape)
    unbounded = np.zeros(p.shape, dtype=bool)
    for idx, law in _blocks(batch):
        q[idx], unbounded[idx] = _bisect(law, p[idx], cdf_tol, max_iter)
    if np.ndim(d.df):
        return q
    if unbounded[0]:
        raise NumericalError("quantile bracket expansion failed")
    if math.isnan(q[0]):
        raise NumericalError(
            f"quantile bisection did not reach CDF tolerance {cdf_tol} at p={p[0]}"
        )
    return float(q[0])


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
