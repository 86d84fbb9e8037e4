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
_GAMMA_TOL = 1e-15
_GAMMA_MAX_ITER = 20000
_BISECT_MAX_ITER = 400
_TAIL_TOL = 1e-13
"""Largest Poisson mass a noncentral series may leave out: the windows of
`_window` leave out at most about 3.5e-22 at every ncp up to 2e7."""
_BLOCK_TERMS = 1 << 15
"""Laws x Poisson-series terms evaluated at once; a batch of laws is split
into blocks under this budget, which bounds the memory of its tables."""


def _gamma_series(a, x, log_prefac):
    # P(a,x) = e^{-x} x^a / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n))
    out = np.full(a.shape, np.nan)
    idx = np.arange(a.size)
    ap = a.copy()
    term = 1.0 / a
    total = term.copy()
    for _ in range(_GAMMA_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        done = np.abs(term) < np.abs(total) * _GAMMA_TOL
        if done.any():
            out[idx[done]] = np.minimum(1.0, total[done] * np.exp(log_prefac[done]))
            go = ~done
            idx, a, x, log_prefac = idx[go], a[go], x[go], log_prefac[go]
            ap, term, total = ap[go], term[go], total[go]
            if not idx.size:
                break
    return out


def _gamma_fraction(a, x, log_prefac):
    # Lentz's method for the continued fraction of Q(a, x)
    out = np.full(a.shape, np.nan)
    idx = np.arange(a.size)
    b = x + 1.0 - a
    c = np.full(a.shape, 1.0 / _TINY)
    with np.errstate(divide="ignore"):
        d = np.where(np.abs(b) > _TINY, 1.0 / b, 1.0 / _TINY)
    h = d.copy()
    for i in range(1, _GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _TINY] = _TINY
        c = b + an / c
        c[np.abs(c) < _TINY] = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _GAMMA_TOL
        if done.any():
            out[idx[done]] = np.maximum(0.0, 1.0 - np.exp(log_prefac[done]) * h[done])
            go = ~done
            idx, a, log_prefac = idx[go], a[go], log_prefac[go]
            b, c, d, h = b[go], c[go], d[go], h[go]
            if not idx.size:
                break
    return out


def _lower_gamma(a, x, lgamma_a):
    """P(a, x) for 1-d arrays a > 0 and x >= 0, given lgamma(a); NaN where
    the iteration did not converge."""
    out = np.zeros(x.shape)
    pos = x > 0.0
    # x^a e^-x / Gamma(a) is a times the Poisson(x) pmf at a; at large a the
    # first form cancels to rounding errors of size a log x, Loader's form of
    # the pmf does not (it is -inf, as it should be, for subnormal x)
    big = pos & (a >= 15.0)
    with np.errstate(divide="ignore", over="ignore"):
        log_prefac = -x + a * np.log(x) - lgamma_a
        log_prefac[big] = np.log(a[big]) + _log_poisson(a[big], x[big])
    series = pos & (x < a + 1.0)
    for branch, mask in ((_gamma_series, series), (_gamma_fraction, pos & ~series)):
        if mask.any():
            out[mask] = branch(a[mask], x[mask], log_prefac[mask])
    return out


def lower_gamma_regularized(a, x):
    """Regularized lower incomplete gamma function P(a, x).

    Power series for x < a + 1, modified Lentz continued fraction for the
    complement otherwise; both iterated to relative tolerance 1e-15, each
    element until it converges, for at most 20000 terms. `a` and `x`
    broadcast; a scalar pair gives a float and raises NumericalError if the
    iteration does not converge, an array gives NaN where it does not.
    """
    a_arr, x_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    if not np.all(a_arr > 0):
        raise ValueError(f"shape parameter must be positive, got {a}")
    if np.any(x_arr < 0):
        raise ValueError(f"argument must be nonnegative, got {x}")
    a1, x1 = np.atleast_1d(a_arr).ravel(), np.atleast_1d(x_arr).ravel()
    p = _lower_gamma(a1, x1, _lgamma(a1))
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

    def cdf(self, x):
        return chisq_cdf(self, x)

    def quantile(self, p):
        return chisq_quantile(self, p)

    @cached_property
    def _series(self):
        return _Series(np.atleast_1d(0.5 * self.df), np.atleast_1d(0.5 * self.ncp))


def _window(lam):
    """First and one-past-last Poisson index summed at first for rate `lam`:
    from 10 sd below the mean, or from 0 for lam up to about 100, to 10 sd
    plus 64 above it (at least 64; a central law sums j = 0 alone)."""
    start = np.maximum(0.0, np.floor(lam - 10.0 * np.sqrt(lam + 1.0))).astype(int)
    end = np.where(
        lam > 0.0,
        np.maximum(64, (lam + 10.0 * np.sqrt(lam + 1.0) + 64.0).astype(int)),
        1,
    )
    return start, end


def _poisson_outside(lam, start, end):
    """Chernoff bounds on the Poisson(lam) mass below `start` and at or past
    `end`: on either side of lam, the mass beyond k is at most
    exp(k - lam + k log(lam / k))."""
    def bound(k):
        with np.errstate(divide="ignore"):
            return np.exp(k - lam + k * np.log(lam / k))

    return np.where(start > 0, bound(np.maximum(start, 1)), 0.0), bound(end)


def _lgamma(v):
    """log Gamma, elementwise over a 1-d array."""
    return np.array([math.lgamma(t) for t in v.tolist()])


def _log_poisson(k, lam):
    """log(lam^k e^-lam / Gamma(k+1)) for real k >= 15 and lam > 0, in Loader's
    saddle-point form -stirlerr(k) - bd0(k, lam) - log(2 pi k) / 2. Its error
    is a few roundings of terms of size |k - lam|, not of size k log lam."""
    # stirlerr(k) = lgamma(k+1) - (k + 1/2) log k + k - log(2 pi) / 2, by its
    # asymptotic series, exact to rounding for k >= 15
    k2 = k * k
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * k2)) / k2) / k2) / k
    bd0 = k * np.log1p((k - lam) / lam) - (k - lam)
    return -stirlerr - bd0 - 0.5 * np.log(2 * math.pi * k)


def _log_gamma_table(base, ref, anchor, width):
    """Rows T_m = log Gamma(base+m+1) - (base+m) log ref - c for
    m = 0..width-1, where c = ref on a row with an anchor and 0 otherwise.

    A row with anchor 0 (and ref 1) is lgamma(base+1) plus a running sum of
    log(base+i). Any other row (base + anchor >= 15) takes T at column
    `anchor` from Loader's form of the Poisson density and the rest by
    running sums of log((base+i)/ref) outward from that column; with
    base + anchor near ref these terms are near 0 there, so the rounding error
    grows with the distance from the anchor instead of with base log ref.
    Leaving out c keeps these rows small: T_m + ref would cancel to rounding
    errors of size ref in the caller."""
    first = _lgamma(base + 1.0)
    far = anchor > 0
    first[far] = -_log_poisson(base[far] + anchor[far], ref[far])
    # the block's widest tables are the memory budget: the steps below work
    # in place on two of them, the running sums inside the result
    out = np.zeros((base.size, width))
    d = out[:, 1:]
    np.add(base[:, None], np.arange(1.0, width), out=d)
    d /= ref[:, None]
    np.log(d, out=d)
    up = np.arange(1, width) > anchor[:, None]
    back = np.where(up, 0.0, d)
    d[~up] = 0.0
    np.cumsum(d, axis=1, out=d)
    out += first[:, None]
    # T_c = T_anchor - (d_{c+1} + ... + d_anchor) for c < anchor
    np.cumsum(back[:, ::-1], axis=1, out=back[:, ::-1])
    out[:, :-1] -= back
    return out


class _Series:
    """The x-free parts of the Poisson mixture of a block of laws over each
    law's window of indices j = start..end-1 (`_window`): Poisson weights w_j
    and log-gamma normalizers log Gamma(a+j+1) - (a+j) log ref_u - c_u, one
    row per law, padded to the widest window. Entries past a law's own window
    are computed but never read, so a law's CDF does not depend on its block.

    A law whose window starts at 0 (lam up to about 100) keeps ref_u = 1 and
    log j! as a running sum of log j. Any other law takes its logs relative
    to the Poisson mean (ref_w = lam for the weights, ref_u = a + lam for the
    gamma terms) and anchors its running sums at the mode
    (`_log_gamma_table`), so that rounding errors scale with the distance
    from the mode, not with lam log lam. The tables of such a law also leave
    out c = ref (ref_w = lam in the weights, c_u = ref_u in the gamma terms),
    which the caller takes from lam and y exactly instead (c = 0 for the
    other laws). The Chernoff bounds `left` and `right` on the Poisson mass
    outside the window decide in `cdf` whether a law's sum is accepted."""

    def __init__(self, a, lam):
        j0, end = _window(lam)
        self.last = end - j0 - 1
        width = int(self.last.max()) + 1 if a.size else 1
        start = j0.astype(float)
        self.a0 = a + start
        self.lgamma_a0 = _lgamma(self.a0)
        win = j0 > 0
        anchor = np.where(win, np.floor(lam) - start, 0.0)
        ref_w, self.ref_u = np.where(win, lam, 1.0), np.where(win, a + lam, 1.0)
        self.c_u = np.where(win, self.ref_u, 0.0)
        log_lam = np.log(np.where(lam > 0.0, lam / ref_w, 1.0))
        w = start[:, None] + np.arange(width, dtype=float)
        w *= log_lam[:, None]
        w -= np.where(win, 0.0, lam)[:, None]
        w -= _log_gamma_table(start, ref_w, anchor, width)
        self.w = np.exp(w, out=w)
        self.log_gam = _log_gamma_table(self.a0, self.ref_u, anchor, width - 1)
        self.left, self.right = _poisson_outside(lam, j0, end)

    def take(self, idx):
        sub = object.__new__(_Series)
        for name in ("last", "a0", "lgamma_a0", "ref_u", "c_u", "w", "log_gam", "left",
                     "right"):
            setattr(sub, name, getattr(self, name)[idx])
        return sub

    def cdf(self, x):
        """CDF at x > 0, one value per law; NaN where a law's series misses
        its tail bound."""
        y = 0.5 * x
        p0 = _lower_gamma(self.a0, y, self.lgamma_a0)
        # u_m = y^(a0+m) e^{-y} / Gamma(a0+m+1)
        #     = exp((a0+m) log(y / ref_u) - (y - c_u) - log_gam_m) for m = 0..width-2;
        # y - c_u is exact near the mode, and log1p of it keeps its accuracy
        dy = y - self.c_u
        log_ratio = np.where(self.c_u > 0.0, np.log1p(dy / self.ref_u), np.log(y / self.ref_u))
        u = self.a0[:, None] + np.arange(self.log_gam.shape[1], dtype=float)
        u *= log_ratio[:, None]
        u -= dy[:, None]
        u -= self.log_gam
        with np.errstate(over="ignore", under="ignore"):
            np.exp(u, out=u)
        p = np.empty(self.w.shape)
        p[:, 0] = 0.0
        np.cumsum(u, axis=1, out=p[:, 1:])
        np.subtract(p0[:, None], p, out=p)
        np.clip(p, 0.0, 1.0, out=p)
        rows = np.arange(p.shape[0])
        # the terms past the window weigh at most `right` and are at most the
        # last P; those before it weigh at most `left`
        reached = self.left + self.right * p[rows, self.last] <= _TAIL_TOL
        # a row cumsum read at each law's own last term sums the law in an
        # order that the padding of its block cannot change
        p *= self.w
        total = np.cumsum(p, axis=1, out=p)[rows, self.last]
        return np.where(reached, np.clip(total, 0.0, 1.0), np.nan)


def _take(d, idx):
    """The laws `idx` of the batch `d`, sharing its series tables if built."""
    sub = NoncentralChiSq(d.df[idx], d.ncp[idx])
    if "_series" in d.__dict__:
        sub.__dict__["_series"] = d._series.take(idx)
    return sub


def _blocks(d):
    """(index, law) pairs splitting the laws of `d` into blocks of at most
    _BLOCK_TERMS window terms (one law may exceed it alone); laws of similar
    window width share a block."""
    if np.ndim(d.df) == 0 or "_series" in d.__dict__:
        yield slice(None), d
        return
    start, end = _window(0.5 * d.ncp)
    nterms = end - start
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


def chisq_cdf(d, x):
    """CDF of the (non)central chi-square `d` at `x`.

    Poisson mixture sum_j w_j P(df/2 + j, x/2) with w_j Poisson(ncp/2) weights,
    summed over a window of j around the Poisson mean lam = ncp/2: from
    lam - 10 sqrt(lam + 1) (or 0) to lam + 10 sqrt(lam + 1) + 64 (`_window`).
    The first gamma CDF of the window comes from `lower_gamma_regularized`'s
    iteration; the rest by the downward recurrence
    P(a+1, y) = P(a, y) - y^a e^{-y} / Gamma(a+1), vectorized as a cumulative
    sum. The Poisson mass outside the window is bounded in closed form
    (Chernoff: beyond k on either side of lam it is at most
    exp(k - lam + k log(lam / k))); the sum is accepted when the mass before
    the window plus the mass after it times the last gamma CDF is at most
    1e-13, else the law fails. The weights and normalizers are built once per
    law object and reused by later calls. For a batch `d`, `x` broadcasts
    against its laws and the result is an array, NaN where a law's series
    missed its tail bound; a scalar law gives a float or raises
    NumericalError.
    """
    x = np.atleast_1d(np.broadcast_to(np.asarray(x, dtype=float), np.shape(d.df)))
    out = np.zeros(x.shape)
    xs = np.where(x <= 0.0, 1.0, x)
    for idx, law in _blocks(d):
        out[idx] = law._series.cdf(xs[idx])
    out[x <= 0.0] = 0.0
    if np.ndim(d.df):
        return out
    if math.isnan(out[0]):
        raise NumericalError("noncentral chi-square series did not reach its tail bound")
    return float(out[0])


def _bisect(law, p, cdf_tol):
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
    for _ in range(_BISECT_MAX_ITER):
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


def chisq_quantile(d, p, cdf_tol=1e-10):
    """Quantile of the (non)central chi-square `d` at probability `p`.

    Bracketed bisection; the bracket starts at
    [0, df + ncp + 10 sqrt(2 df + 4 ncp) + 50] and expands geometrically if it
    does not yet cover `p`. Bisection runs until the interval is resolved to
    1e-12 relative to its upper end, also for quantiles far below 1, for at
    most 400 steps, then the |CDF - p| < `cdf_tol` post-condition is checked.
    A batch `d` is bisected in blocks of laws, each step one `chisq_cdf` call
    on the block's laws still bisecting; `p` broadcasts against the laws and
    the result is an array, NaN where a law fails. A scalar law gives a float
    or raises NumericalError.
    """
    p = np.broadcast_to(np.asarray(p, dtype=float), np.shape(d.df))
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError(f"probability must be in (0, 1), got {p}")
    batch = d if np.ndim(d.df) else NoncentralChiSq(np.atleast_1d(d.df), np.atleast_1d(d.ncp))
    p = np.atleast_1d(p)
    q = np.empty(p.shape)
    unbounded = np.zeros(p.shape, dtype=bool)
    for idx, law in _blocks(batch):
        q[idx], unbounded[idx] = _bisect(law, p[idx], cdf_tol)
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
