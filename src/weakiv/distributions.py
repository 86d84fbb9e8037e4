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

from .errors import InputError, NumericalError

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
_SERIES_MIN_TERMS = 1 << 16
_SERIES_MAX_TERMS = 900_000
"""Cap on the gamma series' terms, whose limit is max(65536, 9 sqrt(a)) for
the batch's largest a: near x = a the series takes about sqrt(70 a) terms,
so the cap lets it converge up to a = 1e10 and bounds the work past that."""
_TAIL_TOL = 1e-13
"""Largest Poisson mass a noncentral series may leave out: the windows of
`_window` leave out at most about 3.5e-22 at every ncp up to 2e7."""
_LAM_MAX = 1e7
"""Largest Poisson mean ncp/2 of a noncentral law; the window bound above is
verified up to it, and past it a window's table would grow without bound."""
_SUM_COLS = 64
"""Columns of the fixed blocks in which `_Series.cdf` sums a law's terms."""
_TOP_TOL = 1e-17
"""Largest top-of-window term W P(a+e, y) a noncentral series may leave out:
under a tenth of the spacing of doubles near 1."""
_BLOCK_TERMS = 1 << 15
"""Laws x Poisson-series terms evaluated at once; a batch of laws is split
into blocks under this budget, which bounds the memory of its tables."""
_CDF_TOL = 1e-10
"""Largest |CDF - p| a quantile may leave; past it the law fails."""


def _gamma_series(a, x, log_prefac):
    # P(a,x) = e^{-x} x^a / Gamma(a) * sum_n x^n / (a (a+1) ... (a+n)), in
    # chunks of 64 terms; at x near a the terms fall like exp(-n^2 / 2a), so
    # the sum takes about sqrt(70 a) terms
    out = np.full(a.shape, np.nan)
    idx = np.arange(a.size)
    step = np.arange(1.0, 65.0)
    term = 1.0 / a
    total = term.copy()
    # bounded before the ceil, so an infinite a runs to the cap and gives NaN
    limit = math.ceil(min(_SERIES_MAX_TERMS, max(_SERIES_MIN_TERMS, 9.0 * math.sqrt(a.max()))))
    for n in range(0, limit, step.size):
        terms = x[:, None] / (a[:, None] + (n + step))
        with np.errstate(under="ignore"):
            np.cumprod(terms, axis=1, out=terms)
            terms *= term[:, None]
        total += terms.sum(axis=1)
        term = terms[:, -1]
        done = term < total * _GAMMA_TOL
        if done.any():
            out[idx[done]] = np.minimum(1.0, total[done] * np.exp(log_prefac[done]))
            go = ~done
            idx, a, x, log_prefac = idx[go], a[go], x[go], log_prefac[go]
            term, total = term[go], total[go]
            if not idx.size:
                break
    return out


@np.errstate(over="ignore", invalid="ignore")
def _gamma_fraction(a, x, log_prefac):
    # Lentz's method for the continued fraction of Q(a, x); past an overflow
    # the recurrence cannot converge, so that element fails at once
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
        # d is 0 only where an * d + b overflowed
        lost = (d == 0.0) | ~np.isfinite(h)
        done = np.abs(delta - 1.0) < _GAMMA_TOL
        stop = done | lost
        if stop.any():
            ok = done & ~lost
            out[idx[ok]] = np.maximum(0.0, 1.0 - np.exp(log_prefac[ok]) * h[ok])
            go = ~stop
            idx, a, log_prefac = idx[go], a[go], log_prefac[go]
            b, c, d, h = b[go], c[go], d[go], h[go]
            if not idx.size:
                break
    return out


def _lower_gamma(a, x):
    """P(a, x) for 1-d arrays a > 0 and x >= 0; NaN where the iteration did
    not converge."""
    out = np.zeros(x.shape)
    pos = x > 0.0
    # x^a e^-x / Gamma(a) is a times the Poisson(x) pmf at a; at large a the
    # first form cancels to rounding errors of size a log x, Loader's form of
    # the pmf does not (it is -inf, as it should be, for subnormal x) and
    # needs no lgamma, which overflows for a above about 5e305
    big = pos & (a >= 15.0)
    small = pos & (a < 15.0)
    lgamma_a = np.zeros(a.shape)
    lgamma_a[small] = _lgamma(a[small])
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
    element until it converges, the series for at most max(65536, 9 sqrt(a))
    terms and never more than 900000 (about sqrt(70 a) are needed near x = a,
    so it converges up to a = 1e10), the fraction for at most 20000 steps.
    `a` and `x` broadcast; a scalar pair gives a float and raises
    NumericalError if the iteration does not converge, an array gives NaN
    where it does not.
    """
    a_arr, x_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    if not np.all(a_arr > 0):
        raise ValueError(f"shape parameter must be positive, got {a}")
    if np.any(x_arr < 0):
        raise ValueError(f"argument must be nonnegative, got {x}")
    a1, x1 = np.atleast_1d(a_arr).ravel(), np.atleast_1d(x_arr).ravel()
    p = _lower_gamma(a1, x1)
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
    """First and one-past-last Poisson index summed for rate `lam`: from 10 sd
    below the mean, or from 0 for lam up to about 100, to 10 sd plus 64 above
    it (at least 64; a central law sums j = 0 alone). A rate above _LAM_MAX
    gets the central window, and its law fails (`_Series`)."""
    lam = np.where(lam <= _LAM_MAX, lam, 0.0)
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
    with np.errstate(over="ignore"):
        k2 = k * k
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * k2)) / k2) / k2) / k
        return -stirlerr - _bd0(k, lam, np.log(k / lam)) - 0.5 * np.log(2 * math.pi * k)


def _bd0(k, lam, log_ratio):
    """Loader's deviance k log(k / lam) + lam - k for k, lam > 0, given
    log_ratio = log(k / lam), to a few roundings of its own size: where
    |k - lam| < (k + lam) / 10, by the series (k - lam) v +
    2k (v^3/3 + v^5/5 + ...) in v = (k - lam) / (k + lam), to v^17;
    elsewhere directly, where it is about a tenth of |k - lam| or more."""
    d = k - lam
    v = d / (k + lam)
    v2 = v * v
    series = 1.0 / 17.0
    for j in range(7, 0, -1):
        series = series * v2 + 1.0 / (2 * j + 1)
    return np.where(np.abs(v) < 0.1, d * v + 2.0 * k * v * v2 * series, k * log_ratio - d)


def _log_gamma_table(base, ref, anchor, width):
    """Rows T_m = log Gamma(base+m+1) - (base+m) log ref + c for
    m = 0..width-1, where c = ref on an anchored row (anchor >= 0) and c = 0
    on a row with anchor -1.

    A row with anchor -1 (and ref 1) is lgamma(base+1) plus a running sum of
    log(base+i). An anchored row (base + anchor >= 15) takes T at column
    `anchor` from Loader's form of the Poisson density and the rest by
    running sums of log((base+i)/ref) outward from that column; with
    base + anchor near ref these terms are near 0 there, so the rounding error
    grows with the distance from the anchor instead of with base log ref.
    Leaving out c keeps these rows small: T_m - ref would cancel to rounding
    errors of size ref in the caller."""
    far = anchor >= 0
    first = np.empty(base.size)
    first[~far] = _lgamma(base[~far] + 1.0)
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
    """The x-free part of the Poisson mixture of a block of laws, summed by
    parts. Over a law's window of indices j = s..e-1 (`_window`), with
    Poisson weights w_j, their running sums W_i = w_s + ... + w_i and
    u_i = y^(a+i) e^-y / Gamma(a+i+1), the downward recurrence
    P(a+i+1, y) = P(a+i, y) - u_i turns the windowed mixture into

        sum_j w_j P(a+j, y) = sum_i u_i W_i + W_(e-1) P(a+e, y).

    One row per law holds log(Gamma(a+i+1) / W_i) - (a+i) log ref + ref for
    i = s..e-1, with ref = a + lam, the mean of y, padded with +inf past the
    window to whole blocks of _SUM_COLS columns; so `cdf` takes each term as
    one exp of (a+i) log(y / ref) - (y - ref) minus the row. It splits that
    into (a+i-ref) log(y / ref) and the law's ref log(y / ref) - (y - ref),
    Loader's deviance -bd0(ref, y) (`_bd0`), so nothing of size a+i cancels.
    The log-gamma part is anchored near the mode in Loader's form
    (`_log_gamma_table`), so its rounding errors scale with the distance from
    the mode, not with lam log lam. A law with lam >= 15 takes its weights
    likewise relative to lam; any other keeps log j! as a running sum of
    log j. The Chernoff bounds on the Poisson mass outside the window decide
    whether a law's sum is accepted; a law with lam above _LAM_MAX fails."""

    def __init__(self, a, lam):
        over = lam > _LAM_MAX
        lam = np.where(over, 0.0, lam)
        j0, end = _window(lam)
        self.last = end - j0 - 1
        width = -(-(int(self.last.max(initial=0)) + 1) // _SUM_COLS) * _SUM_COLS
        start = j0.astype(float)
        self.a0 = a + start
        self.ref = a + lam
        # the weights' running sums, in place in one table
        anchored = lam >= 15.0
        ref_w = np.where(anchored, lam, 1.0)
        log_lam = np.log(np.where(lam > 0.0, lam / ref_w, 1.0))
        w = start[:, None] + np.arange(width, dtype=float)
        w *= log_lam[:, None]
        w -= np.where(anchored, 0.0, lam)[:, None]
        anchor = np.where(anchored, np.floor(lam) - start, -1.0)
        w -= _log_gamma_table(start, ref_w, anchor, width)
        np.exp(w, out=w)
        np.cumsum(w, axis=1, out=w)
        self.w_tot = w[np.arange(a.size), self.last]
        np.log(w, out=w)
        # Loader's form at the anchor needs a0 + anchor >= 15
        anchor = np.maximum(np.floor(lam) - start, np.ceil(15.0 - self.a0))
        t = _log_gamma_table(self.a0, self.ref, anchor, width)
        t -= w
        t[np.arange(width) > self.last[:, None]] = np.inf
        self.t = t
        left, right = _poisson_outside(lam, j0, end)
        self.outside = np.where(over, np.inf, left + right)

    def take(self, idx):
        sub = object.__new__(_Series)
        for name in ("last", "a0", "ref", "w_tot", "t", "outside"):
            setattr(sub, name, getattr(self, name)[idx])
        return sub

    def cdf(self, x):
        """CDF at x > 0, one value per law; NaN where a law's window misses
        its tail bound."""
        y = 0.5 * x
        # (a0+m) log(y / ref) - (y - ref) - t_m
        #     = m log(y / ref) + (a0 - ref) log(y / ref) - bd0(ref, y) - t_m;
        # y - ref is exact near the mode, and log1p of it keeps its accuracy
        dy = y - self.ref
        with np.errstate(divide="ignore"):
            log_ratio = np.where(
                dy > -0.5 * self.ref, np.log1p(dy / self.ref), np.log(y) - np.log(self.ref)
            )
        u = log_ratio[:, None] * np.arange(self.t.shape[1], dtype=float)
        u += ((self.a0 - self.ref) * log_ratio - _bd0(self.ref, y, -log_ratio))[:, None]
        u -= self.t
        with np.errstate(under="ignore"):
            np.exp(u, out=u)
        # fixed blocks summed alike in any batch, then a running sum read at
        # each law's own last block: the padding cannot change a law's sum
        rows = np.arange(u.shape[0])
        blocks = u.reshape(rows.size, u.shape[1] // _SUM_COLS, _SUM_COLS).sum(axis=2)
        total = np.cumsum(blocks, axis=1, out=blocks)[rows, self.last // _SUM_COLS]
        # the top term W P(b, y) with b = a+e, where its bound
        # W exp(-bd0(b, y)) / sqrt(2 pi b) / (1 - y / (b+1)) is above _TOP_TOL:
        # the series of P(b, y) against a geometric one, with Stirling's lower
        # bound on Gamma(b+1); a bound needs bd0 only to a few units of b ulp
        top = self.a0 + (self.last + 1)
        ratio = y / (top + 1.0)
        with np.errstate(divide="ignore", over="ignore"):
            bd0 = top * np.log(top / y) - (top - y)
            bound = np.where(
                ratio < 1.0, np.exp(-bd0) / np.sqrt(2.0 * math.pi * top) / (1.0 - ratio), np.inf
            )
        need = ~(self.w_tot * bound <= _TOP_TOL)
        if need.any():
            total[need] += self.w_tot[need] * _lower_gamma(top[need], y[need])
        return np.where(self.outside <= _TAIL_TOL, np.clip(total, 0.0, 1.0), np.nan)


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


def _check_ncp(d):
    """Refuse a scalar law past the largest supported noncentrality; in a
    batch such a law is NaN (`_Series`)."""
    if np.ndim(d.ncp) == 0 and d.ncp > 2.0 * _LAM_MAX:
        raise NumericalError(
            f"noncentrality {float(d.ncp):g} is above {2.0 * _LAM_MAX:g}, the largest "
            "the chi-square series supports"
        )


def chisq_cdf(d, x):
    """CDF of the (non)central chi-square `d` at `x`.

    Poisson mixture sum_j w_j P(df/2 + j, x/2) with w_j Poisson(ncp/2) weights,
    summed over a window of j around the Poisson mean lam = ncp/2: from
    lam - 10 sqrt(lam + 1) (or 0) to lam + 10 sqrt(lam + 1) + 64 (`_window`).
    Summed by parts, the window is sum_i u_i W_i + W P(a+e, y) (`_Series`):
    gamma densities u_i = y^(a+i) e^-y / Gamma(a+i+1) at y = x/2 times the
    running sums W_i of the weights, each term one exp of a per-law table,
    plus the top term, the last gamma CDF of the window, which comes from
    `lower_gamma_regularized`'s iteration only where a geometric bound puts
    it above 1e-17. The Poisson mass outside the window is bounded in closed
    form (Chernoff: beyond k on either side of lam it is at most
    exp(k - lam + k log(lam / k))); the sum is accepted when that mass is at
    most 1e-13, else the law fails. ncp is at most 2e7: a law past it fails
    before any table is built. The tables are built once per law object and
    reused by later calls. For a batch `d`, `x` broadcasts against its laws
    and the result is an array, NaN where a law fails; a scalar law gives a
    float or raises NumericalError.
    """
    _check_ncp(d)
    x = np.atleast_1d(np.broadcast_to(np.asarray(x, dtype=float), np.shape(d.df)))
    out = np.zeros(x.shape)
    zero = 0.5 * x <= 0.0
    top = x == np.inf
    xs = np.where(zero | top, 1.0, x)
    for idx, law in _blocks(d):
        out[idx] = law._series.cdf(xs[idx])
    out[zero] = 0.0
    out[top] = 1.0
    if np.ndim(d.df):
        return out
    if math.isnan(out[0]):
        series = d._series
        if series.outside[0] <= _TAIL_TOL:
            # the only other NaN: the top term's P(b, y), b = a+e, y = x/2
            top = series.a0[0] + (series.last[0] + 1)
            branch = "series" if 0.5 * x[0] < top + 1.0 else "continued fraction"
            raise NumericalError(
                f"incomplete gamma {branch} did not converge at the top of the "
                f"chi-square window of df {float(d.df):g}"
            )
        raise NumericalError("noncentral chi-square series did not reach its tail bound")
    return float(out[0])


def _normal_tail_quantile(alpha):
    """z >= 0 with P(|Z| > z) = erfc(z / sqrt 2) = alpha, 0 < alpha <= 1, for
    a standard normal Z: Newton's method on log erfc, which is concave, from
    the Chernoff bound sqrt(-2 log(alpha / 2)) above the root, so the iterates
    fall to it; exact to rounding in 3-6 steps for alpha from 0.9999 to 1e-300."""
    z = math.sqrt(-2.0 * math.log(alpha / 2.0))
    for _ in range(60):
        t = z / math.sqrt(2.0)
        tail = math.erfc(t)
        step = math.log(tail / alpha) * tail / (math.sqrt(2.0 / math.pi) * math.exp(-t * t))
        z += step
        if step > -1e-15 * z:
            break
    return z


@np.errstate(invalid="ignore", divide="ignore")  # secants across NaN or equal gaps
def _solve(law, p):
    """Quantiles of the batch `law` at `p` (see chisq_quantile), NaN where the
    law failed."""
    z = {v: _normal_tail_quantile(2.0 * min(v, 1.0 - v)) for v in set(p.tolist())}
    z = np.copysign([z[v] for v in p.tolist()], p - 0.5)
    # the start: Sankaran's (1959) approximation that (x / (df+ncp))^h is
    # about normal (h = 1/3 and Wilson-Hilferty at ncp = 0), held above 0
    s, t = law.df + law.ncp, law.df + 2.0 * law.ncp
    h = 1.0 - 2.0 / 3.0 * (s / t) * ((law.df + 3.0 * law.ncp) / t)
    r, m, sd = t / s / s, (h - 1.0) * (1.0 - 3.0 * h), math.sqrt(2.0) * np.sqrt(t)
    x0 = (1.0 + h * r * (h - 1.0 - 0.5 * (2.0 - h) * m * r)
          + z * h * np.sqrt(2.0 * r) * (1.0 + 0.5 * m * r))
    x0 = np.maximum(s * np.maximum(x0, 0.0) ** (1.0 / h), 1e-6 * sd)
    # each law's bracket, +-0.05 sd around the start: its ends with their F - p
    ends = [np.maximum(x0 - 0.05 * sd, 0.0), x0 + 0.05 * sd]
    ends = np.array([[x, chisq_cdf(law, x) - p] for x in ends])
    kept, widths = np.zeros(p.size), np.full((2, p.size), np.inf)
    idx, cur = np.arange(p.size), law
    # a law whose CDF is NaN, or p, at an end of its bracket stops here
    live = (np.abs(ends[:, 1]) > 0.0).all(axis=0)
    while live.any():
        if 2 * live.sum() <= live.size:
            # a copy of the tables of the laws still iterating costs memory,
            # so it is made only once they are at most half of `cur`
            idx, cur, live = idx[live], _take(cur, np.flatnonzero(live)), live[live]
        ((lo, flo), (hi, fhi)), k = ends[:, :, idx], kept[idx]
        # Illinois: an end kept k >= 2 steps in a row enters the secant with
        # its F - p scaled by 2^(1-k); two steps that did not halve the bracket
        # are followed by a bisection (geometric across over a factor 2); so
        # that each step moves the bracket it lands max(hi/4e12, 5e-324) inside
        slo, shi = flo * 0.5 ** np.maximum(-k - 1.0, 0.0), fhi * 0.5 ** np.maximum(k - 1.0, 0.0)
        w, inside = hi - lo, np.maximum(2.5e-13 * hi, 5e-324)
        x = np.where(w <= 0.5 * widths[0, idx], hi - shi * w / (shi - slo),
                     np.where(hi > 2.0 * lo, np.sqrt(lo) * np.sqrt(hi), 0.5 * (lo + hi)))
        # a bracket that misses p moves outward instead, doubling its width
        x = np.where(flo > 0.0, np.maximum(lo - 2.0 * w, 0.0), np.where(
            fhi < 0.0, hi + 2.0 * w, np.clip(x, lo + inside, hi - inside)))
        g = chisq_cdf(cur, x) - p[idx]
        g[x > 1e300] = np.nan
        step, x, g, k, w = (v[live] for v in (idx, x, g, k, w))
        # the new point replaces the end on its side of p; moved outward, it
        # and the end it moved from are the new bracket
        new, (lo, hi) = np.array([x, g]), ends[:, :, step]
        down, up, below = x < lo[0], x > hi[0], g < 0.0
        ends[:, :, step] = np.where(down, [new, lo], np.where(up, [hi, new], np.where(
            below, [new, hi], [lo, new])))
        kept[step] = np.where(below, np.maximum(k, 0.0) + 1.0, np.minimum(k, 0.0) - 1.0)
        widths[:, step] = np.where(down | up, np.inf, [widths[1, step], w])
        # resolved to 1e-12 of the upper end, or one subnormal; F NaN or p stops
        a, b = ends[:, 0, step]
        live[live] = (b - a > 1e-12 * b + 5e-324) & (np.abs(g) > 0.0)
    (a, fa), (b, fb) = ends
    q = b - fb * (b - a) / (fb - fa)
    q[~(np.abs(chisq_cdf(law, q) - p) <= _CDF_TOL)] = np.nan
    return q


def chisq_quantile(d, p):
    """Quantile of the (non)central chi-square `d` at probability `p`.

    Illinois regula falsi from +-0.05 sd around Sankaran's cube-root normal
    approximation at `p`, moved outward (down to 0, up to 1e300) where it
    misses `p`, with a bisection step after two that fail to halve the
    bracket, until it is 1e-12 of its upper end wide; the quantile is the
    secant root of the last bracket, checked for |CDF - p| <= 1e-10. A
    batch `d` is solved in blocks of laws, each step one `chisq_cdf` call on
    the block's laws still iterating; `p` broadcasts against the laws and the
    result is an array, NaN where a law fails. A scalar law gives a float or
    raises NumericalError.
    """
    p = np.broadcast_to(np.asarray(p, dtype=float), np.shape(d.df))
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError(f"probability must be in (0, 1), got {p}")
    _check_ncp(d)
    batch = d if np.ndim(d.df) else NoncentralChiSq(np.atleast_1d(d.df), np.atleast_1d(d.ncp))
    p = np.atleast_1d(p)
    q = np.empty(p.shape)
    for idx, law in _blocks(batch):
        q[idx] = _solve(law, p[idx])
    if np.ndim(d.df):
        return q
    if math.isnan(q[0]):
        raise NumericalError(f"quantile did not reach CDF tolerance {_CDF_TOL} at p={p[0]}")
    return float(q[0])


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream) fully determines the draws.

    Parallel consumers take distinct stream ids, so results do not depend on
    thread scheduling or worker count.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream", self.stream)):
            if value < 0:
                raise InputError(f"{name} must be a nonnegative integer, got {value}")

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
