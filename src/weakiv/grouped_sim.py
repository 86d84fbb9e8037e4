"""Monte Carlo engine for grouped-data IV designs.

Instruments are mutually exclusive group indicators, so every statistic in the
pipeline reduces to per-group sums and the moment-covariance blocks are
diagonal. 2SLS and GMMf then run one estimator path that differs only in a
per-group divisor d: d = 1 for 2SLS and d = var_x (the within-group variance
of x) for GMMf. Group g has weight n_g xbar_g^2 / d_g, the estimate is the
weighted average of the per-group Wald ratios, the transformed moment
covariance has the diagonal blocks (var_y, cov_xy, var_x) / d, and the
generalized effective F is

    F_d = sum_g(n_g xbar_g^2 / d_g) / sum_g(var_x,g / d_g),

the effective F (f_eff) at d = 1 and the robust F (f_r, the mean of the
per-group F-statistics) at d = var_x. The closed-form concentrations and
Nagar biases of designs with fixed shares (`nagar_bias_grouped`,
`random_design_comparison`) run the same divisor table at d = var_v2.
Replication r draws from an independent
counter-based substream (seed, r), which makes results invariant to the
worker count.

A chunk of replications runs in two stages. Per replication, the group labels
come from one uniform per row, by counting the inner cut points of the
cumulative group shares that it reaches (bit for bit `Generator.choice`), and
the errors from standard normals e; only the group sizes and the group sums
of e, e^2 and e0 e1 are kept. x and y are affine in e within a group, so once
per chunk these sum columns give the group sums of x and y and their centered
sums of squares in closed form, and one function of those sums,
`_stats_from_sums`, gives every statistic; `group_stats` applies the same
function to the sums of a dataset. The tests then run on all replications of
the chunk at once. Last, the chunk's columns are reduced to exact sums, each
an integer in a fixed unit (`_partials`): with the chunk's tally of failures,
one Counter of integers, which `run_sim` adds into the run's with
`Counter.update` as each chunk ends. No column outlives its chunk, and every
figure of the summary is the same for any chunking.
"""

from __future__ import annotations

import dataclasses
import math
import os
import warnings as _pywarnings
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _design_dir, _settings, available_designs
from .data import Dataset
from .distributions import RngStream, _normal_tail_quantile
from .errors import InputError, NumericalError, WeakIvError
from .estimators import _resid_cov_singular
from .weak_test import _critical_values, _diagonal_worst_case_bias

__all__ = [
    "DesignComparison",
    "GroupStats",
    "GroupedBiasDiagnostics",
    "GroupedDesign",
    "SimSummary",
    "available_designs",
    "generate",
    "group_stats",
    "load_design",
    "nagar_bias_grouped",
    "random_design_comparison",
    "run_sim",
    "sweep_scale",
]

_MAX_REDRAWS = 10
_MAX_N = 10**7
"""Largest design n. One replication's draw holds about 48 bytes per row of a
structural design (24 of a first-stage one), so about 480 MB at the cap."""
_MAX_G = 1000
"""Largest design G. A chunk holds a (chunk, 6, G) table of group sums and each
draw makes G - 1 passes over its rows; 1024 replications peak at about 300 MB
at the cap."""
_MAX_SCALE = 1e25
"""Largest magnitude of a first-stage coefficient scale_e * pi0, of beta and of
a standard deviation sqrt(var_v2) or sqrt(var_u), and the reciprocal of the
smallest sqrt(var_v2). The robust Wald variance divides by the squared sum of
the GMMf weights n_g xbar_g^2 / var_x,g, about n * pi^2 / var_v2, which
overflows past 1e154; within the bounds and at the caps (n = 10^7, G = 1000)
that sum stays below about 1e110 and the variance's numerator below about
1e210."""
_VAR_RANGE = (1e-50, 1e50)
"""The squares of 1 / _MAX_SCALE and _MAX_SCALE: the range of var_v2, and the
upper end that of var_u."""
_GENERATE_CELLS = 10**8
"""Largest n * G for `generate`, whose dense instrument matrix is then 800 MB."""
_CHUNK_REPS = 1024
"""Most replications one chunk holds; bounds the memory of its columns, which
end with the chunk: it leaves one Counter of integer sums (`_sim_chunk`)."""
_COMPARE_GROUPS = 10
_COMPARE_BATCH = 20000
_COMPARE_MAX_ATTEMPTS = 5_000_000
_FAILURE_STAGES = ("draw", "moments", "moment_cov", "bias_bound", "critical_value")


def _as_float_array(value, name):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be a number or a list of numbers") from None


def _as_float_vector(value, g, name):
    arr = _as_float_array(value, name)
    if arr.ndim == 0:
        arr = np.full(g, float(arr))
    if arr.ndim != 1 or arr.size != g:
        raise InputError(f"{name} must be a scalar or a length-{g} sequence")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class GroupedDesign:
    """Grouped IV data-generating process.

    The first-stage coefficients are scale_e * pi0. var_v2 gives the per-group
    first-stage error variances. Designs with var_u and cov_uv2 are structural
    (y is generated); without them only first-stage quantities can be
    simulated. group_probs defaults to equal shares; sizes is "multinomial"
    (random group sizes) or "fixed" (largest-remainder apportionment).
    """

    pi0: np.ndarray
    var_v2: np.ndarray
    scale_e: float = 1.0
    beta: float = 0.0
    n: int = 10000
    var_u: np.ndarray | None = None
    cov_uv2: np.ndarray | None = None
    group_probs: np.ndarray | None = None
    sizes: str = "multinomial"
    name: str = ""

    def __post_init__(self):
        pi0 = _as_float_array(self.pi0, "pi0")
        if pi0.ndim != 1 or pi0.size < 2:
            raise InputError("pi0 must be a 1-d sequence with at least two groups")
        if not np.all(np.isfinite(pi0)):
            raise InputError("pi0 contains non-finite values")
        object.__setattr__(self, "pi0", pi0)
        g = pi0.size
        if g > _MAX_G:
            raise InputError(f"G (the length of pi0) must be at most {_MAX_G}, got {g}")
        var_v2 = _as_float_vector(self.var_v2, g, "var_v2")
        if np.any(var_v2 <= 0.0):
            raise InputError("var_v2 entries must be positive")
        lo, hi = _VAR_RANGE
        if np.any(var_v2 < lo) or np.any(var_v2 > hi):
            raise InputError(f"var_v2 entries must be from {lo:g} to {hi:g}")
        object.__setattr__(self, "var_v2", var_v2)
        scale = _settings.read("scale_e", self.scale_e)
        peak = scale * float(np.abs(pi0).max())  # a float product: inf, no warning
        if peak > _MAX_SCALE:
            raise InputError(
                f"scale_e * pi0 entries must be at most {_MAX_SCALE:g} in magnitude, "
                f"got {peak:g}"
            )
        object.__setattr__(self, "scale_e", scale)
        object.__setattr__(self, "beta", _settings.number(self.beta, "beta"))
        if not abs(self.beta) <= _MAX_SCALE:
            raise InputError(
                f"beta must be at most {_MAX_SCALE:g} in magnitude, got {self.beta}"
            )
        n = _settings.integer(self.n, "n")
        if n < g + 2:
            raise InputError(f"n must be at least G + 2 = {g + 2}, got {n}")
        if n > _MAX_N:
            raise InputError(f"n must be at most {_MAX_N}, got {n}")
        object.__setattr__(self, "n", n)
        if (self.var_u is None) != (self.cov_uv2 is None):
            raise InputError("var_u and cov_uv2 must be given together or not at all")
        if self.var_u is not None:
            var_u = _as_float_vector(self.var_u, g, "var_u")
            cov_uv2 = _as_float_vector(self.cov_uv2, g, "cov_uv2")
            if np.any(var_u <= 0.0):
                raise InputError("var_u entries must be positive")
            if np.any(var_u > hi):
                raise InputError(f"var_u entries must be at most {hi:g}")
            det = var_u * var_v2 - cov_uv2 * cov_uv2
            if np.any(det <= 0.0):
                bad = int(np.argmax(det <= 0.0))
                raise InputError(
                    f"group {bad} residual covariance is not positive definite"
                )
            object.__setattr__(self, "var_u", var_u)
            object.__setattr__(self, "cov_uv2", cov_uv2)
        if self.group_probs is None:
            probs = np.full(g, 1.0 / g)
        else:
            probs = _as_float_vector(self.group_probs, g, "group_probs")
            if np.any(probs <= 0.0):
                raise InputError("group_probs entries must be positive")
            total = probs.sum()
            if abs(total - 1.0) > 1e-8:
                raise InputError(f"group_probs must sum to 1, got {total}")
            probs = probs / total
        object.__setattr__(self, "group_probs", probs)
        if self.sizes not in ("multinomial", "fixed"):
            raise InputError(
                f"sizes must be 'multinomial' or 'fixed', got {self.sizes!r}"
            )
        object.__setattr__(self, "name", str(self.name))

    @property
    def G(self):
        return self.pi0.size

    @property
    def pi(self):
        return self.scale_e * self.pi0

    @property
    def has_structural(self):
        return self.var_u is not None


_DESIGN_KEYS = {f.name for f in dataclasses.fields(GroupedDesign)}


def load_design(source):
    """Load a design from a YAML file path or a shipped design name."""
    # imported here, so a command that loads no design loads no yaml
    import yaml

    source = os.fspath(source)
    path = os.path.join(_design_dir(), source + ".yaml")
    default_name = source
    # a file, else a shipped design; any other path, such as a directory, is
    # opened for its error
    if os.path.isfile(source) or (os.path.exists(source) and not os.path.isfile(path)):
        path = source
        default_name = os.path.splitext(os.path.basename(source))[0]
    elif not os.path.isfile(path):
        raise InputError(
            f"unknown design {source!r}: not a file and not one of the shipped "
            f"designs ({', '.join(available_designs())})"
        )
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InputError(f"design file is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise InputError("design file must contain a mapping of design fields")
    unknown = sorted(str(key) for key in raw.keys() - _DESIGN_KEYS)
    if unknown:
        raise InputError(f"unknown design fields: {', '.join(unknown)}")
    for key in ("pi0", "var_v2"):
        if key not in raw:
            raise InputError(f"design file is missing required field {key!r}")
    raw.setdefault("name", default_name)
    return GroupedDesign(**raw)


def _as_generator(rng):
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    return RngStream(rng).generator()


def _fixed_counts(n, probs):
    base = np.floor(n * probs).astype(int)
    rem = n - int(base.sum())
    frac = n * probs - base
    order = np.argsort(-frac, kind="stable")
    base[order[:rem]] += 1
    if np.any(base == 0):
        raise InputError(
            "fixed apportionment leaves a group empty; increase n or its share"
        )
    return base


def _draw_labels(design, gen, tally=None):
    """Group labels (intp) and group sizes of one dataset. Multinomial sizes
    take one uniform per row and count the inner cut points of the
    normalized cumulative shares that it reaches, which is bit for bit
    `gen.choice(G, n, p=group_probs)` on the same uniforms. The count
    accumulates in the narrowest unsigned type that holds G - 1 (uint8 up to
    256 groups) from one reused comparison mask per cut, and is cast to intp
    once; the rows at or past each cut are counted from its mask, and the
    group sizes are their differences. A draw that leaves a group empty is
    redrawn from the same stream, at most _MAX_REDRAWS times; redraws are
    counted in `tally["redraws"]` when given. Fixed sizes use no random
    numbers."""
    g, n = design.G, design.n
    if design.sizes == "fixed":
        counts = _fixed_counts(n, design.group_probs)
        return np.repeat(np.arange(g), counts), counts
    cuts = design.group_probs.cumsum()
    cuts /= cuts[-1]
    labels = np.empty(n, dtype=np.min_scalar_type(g - 1))
    reached = np.empty(n, dtype=bool)
    reached_bytes = reached.view(np.uint8)
    # rows at or past each cut point: all n at 0, none past the last
    above = np.zeros(g + 1, dtype=np.intp)
    above[0] = n
    for attempt in range(_MAX_REDRAWS + 1):
        u = gen.random(n)
        labels.fill(0)
        for k, cut in enumerate(cuts[:-1].tolist(), 1):
            np.greater_equal(u, cut, out=reached)
            np.add(labels, reached_bytes, out=labels)
            above[k] = np.count_nonzero(reached)
        counts = above[:-1] - above[1:]
        if counts.min() > 0:
            return labels.astype(np.intp), counts
        if attempt < _MAX_REDRAWS:
            if tally is not None:
                tally["redraws"] += 1
            _pywarnings.warn(
                f"drew an empty group; redrawing ({attempt + 1}/{_MAX_REDRAWS})",
                stacklevel=2,
            )
    raise NumericalError(
        f"a group stayed empty after {_MAX_REDRAWS} redraws; n is too small for "
        "the smallest group share"
    )


def _cholesky(design):
    """Per-group factors of the (u, v2) covariance of a structural design:
    u = l11 e0 and v2 = l21 e0 + l22 e1 for independent standard normals."""
    l11 = np.sqrt(design.var_u)
    l21 = design.cov_uv2 / l11
    return l11, l21, np.sqrt(design.var_v2 - l21 * l21)


def generate(design, rng=_settings.SEED):
    """Draw one dataset from a structural design, with indicator instruments
    and the group labels attached as the cluster variable."""
    if not design.has_structural:
        raise InputError(
            "design has no structural covariances (var_u, cov_uv2); it can only "
            "be used for first-stage summaries via run_sim"
        )
    n, g = design.n, design.G
    if n * g > _GENERATE_CELLS:
        raise InputError(
            f"generate builds a dense n x G instrument matrix: n = {n} and G = {g} "
            f"give {n * g} cells, past its budget of {_GENERATE_CELLS}"
        )
    gen = _as_generator(rng)
    labels, _ = _draw_labels(design, gen)
    l11, l21, l22 = _cholesky(design)
    eps = gen.standard_normal((n, 2))
    x = design.pi[labels] + (l21[labels] * eps[:, 0] + l22[labels] * eps[:, 1])
    y = design.beta * x + l11[labels] * eps[:, 0]
    z = np.zeros((n, g))
    z[np.arange(n), labels] = 1.0
    return Dataset(y=y, x=x, z=z, cluster=labels)


def _estimators(var_x):
    """(estimator, statistic, divisor d) of 2SLS and GMMf. d divides, never
    multiplies as a reciprocal: x / 1 is x and var_x / var_x is exactly 1."""
    return ("2sls", "eff", 1.0), ("gmmf", "r", var_x)


def _stats_from_sums(counts, sx, cxx, sy=None, cxy=None, cyy=None):
    """Every per-group and grouped statistic of R datasets from their group
    sums, each an (R, G) array: the group sizes, the sums of x (and y) and
    the centered sums of squares and cross-products. Returns a dict of
    (R, G) per-group and (R,) grouped columns: the F-statistics and weights,
    and with y also the closed-form grouped estimators. `den_<estimator>` is
    the sum of its unnormalized weights."""
    mean_x = sx / counts
    var_x = cxx / counts
    nxb2 = sx * mean_x
    pooled_var_x = cxx.sum(axis=1) / counts.sum(axis=1)
    m = dict(
        counts=counts,
        mean_x=mean_x,
        var_x=var_x,
        f_per_group=nxb2 / var_x,
        pooled_var_x=pooled_var_x,
        f_stat=nxb2.sum(axis=1) / (counts.shape[1] * pooled_var_x),
    )
    if sy is not None:
        mean_y = sy / counts
        nxy = sx * mean_y
        sxx, sxy = cxx + nxb2, cxy + nxy
        m.update(
            mean_y=mean_y,
            var_y=cyy / counts,
            cov_xy=cxy / counts,
            beta_ols=sxy.sum(axis=1) / sxx.sum(axis=1),
        )
    for est, stat, d in _estimators(var_x):
        w = nxb2 / d
        den = w.sum(axis=1)
        m[f"f_{stat}"] = den / (var_x / d).sum(axis=1)
        m[f"weights_{est}"] = w / den[:, None]
        m[f"den_{est}"] = den
        if sy is not None:
            m[f"beta_{est}"] = (nxy / d).sum(axis=1) / den
    return m


@dataclass(frozen=True, eq=False)
class GroupStats:
    """Per-group summaries plus the grouped closed-form estimators.
    beta_per_group is NaN for a group whose mean of x is exactly zero."""

    counts: np.ndarray
    mean_x: np.ndarray
    mean_y: np.ndarray
    var_x: np.ndarray
    var_y: np.ndarray
    cov_xy: np.ndarray
    f_per_group: np.ndarray
    beta_per_group: np.ndarray
    weights_2sls: np.ndarray
    weights_gmmf: np.ndarray
    f_stat: float
    f_eff: float
    f_r: float
    beta_ols: float
    beta_2sls: float
    beta_gmmf: float


def _labels_from_indicators(z):
    if np.any((z != 0.0) & (z != 1.0)) or np.any(z.sum(axis=1) != 1.0):
        raise InputError(
            "instrument matrix is not a one-hot group indicator; pass labels "
            "explicitly"
        )
    return np.argmax(z, axis=1)


def group_stats(data, labels=None):
    """Grouped summaries for a dataset with indicator instruments."""
    y = np.asarray(data.y, dtype=float)
    x = np.asarray(data.x, dtype=float)
    z = np.asarray(data.z, dtype=float)
    if labels is None:
        labels = _labels_from_indicators(z)
    else:
        labels = np.asarray(labels)
        if (labels.shape != (y.size,) or labels.dtype.kind not in "iuf"
                or np.any(labels != np.floor(labels))):
            raise InputError("labels must be one integer per observation")
        if labels.min() < 0 or labels.max() >= z.shape[1]:
            raise InputError("labels must index the instrument columns")
        labels = labels.astype(int)
    g = z.shape[1]
    counts = np.bincount(labels, minlength=g)
    if counts.min() == 0:
        raise InputError(f"group {int(np.argmin(counts))} has no observations")
    sx = np.bincount(labels, weights=x, minlength=g)
    sy = np.bincount(labels, weights=y, minlength=g)
    dx = x - (sx / counts)[labels]
    dy = y - (sy / counts)[labels]
    cxx = np.bincount(labels, weights=dx * dx, minlength=g)
    if np.any(cxx <= 0.0):
        raise NumericalError("zero within-group variance of the endogenous regressor")
    cxy = np.bincount(labels, weights=dx * dy, minlength=g)
    cyy = np.bincount(labels, weights=dy * dy, minlength=g)
    m = _stats_from_sums(*(a[None] for a in (counts, sx, cxx, sy, cxy, cyy)))
    m = {k: v[0] if v.ndim == 2 else float(v[0]) for k, v in m.items()}
    with np.errstate(divide="ignore", invalid="ignore"):
        beta_g = np.where(m["mean_x"] != 0.0, m["mean_y"] / m["mean_x"], np.nan)
    return GroupStats(
        beta_per_group=beta_g,
        **{f.name: m[f.name] for f in dataclasses.fields(GroupStats) if f.name in m},
    )


# The summarized columns: means and sds of the scalars (a first-stage design
# has the first three), means of the per-group vectors, rates of the rejections
_SCALAR_KEYS = ("f_stat", "f_eff", "f_r", "cv_eff", "cv_r", "beta_ols", "beta_2sls", "beta_gmmf")
_GROUP_KEYS = ("f_per_group", "weights_2sls", "weights_gmmf")
_REJECTION_KEYS = ("weak_eff", "weak_r", "wald_2sls", "wald_gmmf")


def _moment_columns(design, seed, rep_ids, tally):
    """Stage 1: the group moments of the replications `rep_ids` of a chunk.
    Per replication, draw the labels and the standard normals e (two per row
    for structural designs, one otherwise) from its own substream and keep
    only the group sizes and the group sums of e and of its squares and cross
    product. x and y are affine in e within a group, so once per chunk their
    group sums, and every statistic, follow from these in closed form. Returns
    the moments of the replications that got this far as columns, one row per
    replication in order: (R,) for scalars, (R, G) for per-group vectors; None
    if none did. Failures are counted in `tally`."""
    g, n = design.G, design.n
    structural = design.has_structural
    fixed = design.sizes == "fixed"
    if fixed:
        labels, counts = _draw_labels(design, None)
    sums = np.empty((len(rep_ids), 6 if structural else 3, g))
    done = 0
    for rep in rep_ids:
        gen = RngStream(seed, rep).generator()
        if not fixed:
            try:
                labels, counts = _draw_labels(design, gen, tally)
            except WeakIvError:
                tally["draw"] += 1
                continue
        if structural:
            e = gen.standard_normal((n, 2)).T.copy()
            sq = e * e
            weights = (e[0], e[1], sq[0], sq[1], e[0] * e[1])
        else:
            e = gen.standard_normal(n)
            weights = (e, e * e)
        row = sums[done]
        row[0] = counts
        for k, w in enumerate(weights, 1):
            row[k] = np.bincount(labels, weights=w, minlength=g)
        done += 1
    # centered sums: C_ij = S_ij - S_i S_j / n_g
    counts, s0 = sums[:done, 0], sums[:done, 1]
    pi_sums = counts * design.pi
    if structural:
        s1, s00, s11, s01 = sums[:done, 2:].transpose(1, 0, 2)
        c00 = s00 - s0 * s0 / counts
        c11 = s11 - s1 * s1 / counts
        c01 = s01 - s0 * s1 / counts
        l11, l21, l22 = _cholesky(design)
        sx = pi_sums + (l21 * s0 + l22 * s1)
        cxx = l21 * l21 * c00 + 2.0 * l21 * l22 * c01 + l22 * l22 * c11
        cxu = l11 * (l21 * c00 + l22 * c01)
        # y = b x + u with u = l11 e0: (sum, centered x-cross, centered square)
        b = design.beta
        sums_y = (
            b * sx + l11 * s0,
            b * cxx + cxu,
            b * b * cxx + 2.0 * b * cxu + l11 * l11 * c00,
        )
    else:
        sx = pi_sums + np.sqrt(design.var_v2) * s0
        cxx = design.var_v2 * (sums[:done, 2] - s0 * s0 / counts)
        sums_y = ()
    # a single-observation group has zero within-group variance
    bad = np.any(cxx <= 0.0, axis=1)
    tally["moments"] += int(bad.sum())
    if bad.all():  # also when no replication got past the draw
        return None
    keep = ~bad
    return _stats_from_sums(*(a[keep] for a in (counts, sx, cxx) + sums_y))


def _wald_critical_value(alpha):
    """The chi-square(1) quantile at 1 - alpha: z^2 with P(|Z| > z) = alpha."""
    z = _normal_tail_quantile(alpha)
    return z * z


def _rep_stats(design, m, tau, alpha, benchmark, method, tally):
    """Stage 2: the weak-instruments test and Wald test of each estimator of
    `_estimators`, for every replication of a chunk at once, from its moment
    columns `m`. Returns the columns of the replications that succeed;
    failures are counted in `tally` under the first stage that fails, in the
    order a single replication runs them."""
    failed = np.zeros(m["f_stat"].shape, dtype=bool)

    def fail(stage, mask):
        new = mask & ~failed
        tally[stage] += int(new.sum())
        failed[new] = True

    var_x, var_y, cov_xy = m["var_x"], m["var_y"], m["cov_xy"]
    n = design.n
    resid = None
    if benchmark == "ls":
        resid = (
            (m["counts"] * var_y).sum(axis=1) / n,
            (m["counts"] * cov_xy).sum(axis=1) / n,
            m["pooled_var_x"],
        )
        fail("moment_cov", _resid_cov_singular(*resid))
    # the diagonal transformed covariances are positive definite group by
    # group, by the scale-free rule of the pooled one; the sample covariance
    # of a two-observation group is singular, so it fails whatever the
    # rounding of its determinant
    singular = (m["counts"] <= 2) | _resid_cov_singular(var_y, cov_xy, var_x)
    fail("moment_cov", np.any(singular, axis=1))
    valid = ~failed  # one snapshot for both estimators' critical values
    mean_x, mean_y, counts = m["mean_x"], m["mean_y"], m["counts"]
    wald_cv = _wald_critical_value(alpha)
    out = {k: m[k] for k in _SCALAR_KEYS[:3] + ("beta_ols",) + _GROUP_KEYS}
    for est, stat, d in _estimators(var_x):
        v2v2 = var_x / d
        bias, ok = _diagonal_worst_case_bias(var_y / d, cov_xy / d, v2v2, benchmark, resid)
        with np.errstate(over="ignore"):  # at a tau near 0; such a radius fails
            radius = bias / tau
        cv = np.full(radius.shape, np.nan)
        idx = np.flatnonzero(ok & valid & np.isfinite(radius))
        if idx.size:
            cv[idx] = _critical_values(v2v2[idx], radius[idx], alpha, method)
        fail("bias_bound", ~ok)
        fail("critical_value", ~np.isfinite(cv))
        b = m[f"beta_{est}"]
        bg = b[:, None]
        # each group's sum of (y - b x)^2 from its centered moments and means,
        # so no square of a group mean cancels
        r = mean_y - bg * mean_x
        su = counts * (var_y - 2.0 * bg * cov_xy + bg * bg * var_x + r * r)
        var = ((mean_x / d) ** 2 * su).sum(axis=1) / m[f"den_{est}"] ** 2
        out[f"cv_{stat}"] = cv
        out[f"weak_{stat}"] = m[f"f_{stat}"] > cv
        out[f"beta_{est}"] = b
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 in failed rows
            out[f"wald_{est}"] = (b - design.beta) ** 2 / var > wald_cv
    return {k: v[~failed] for k, v in out.items()}


def _chunk_columns(design, seed, tau, alpha, benchmark, method, rep_ids):
    """Replications `rep_ids`: (columns of the successful ones or None, tally
    of failures by stage and of empty-group redraws)."""
    tally = Counter()
    cols = _moment_columns(design, seed, rep_ids, tally)
    if cols is not None and design.has_structural:
        cols = _rep_stats(design, cols, tau, alpha, benchmark, method, tally)
    return cols, tally


def _mantissas(x):
    """(m, k) with x = m * 2**(k - 53) exactly, m an int64 and |m| < 2**53:
    every finite float is an integer mantissa times a power of two."""
    m, k = np.frexp(x)
    return np.ldexp(m, 53).astype(np.int64), k


def _extract(p):
    """The exact sums of the finite `p` along its first axis, as integers in
    units of 2**-1074, of which every finite float is a multiple: one per
    column of a table, one for a vector. From the mantissas (`_mantissas`),
    by blocks of 1024 rows: per column, two `bincount`s over the exponent sum
    the mantissas' high part (m >> 26, at most 2**27 in size) and low 26 bits,
    each sum below 2**37 and so exact in a double, and each exponent's two
    sums are shifted into an integer in units of 2**-1126, where no shift is
    negative; the final shift to 2**-1074 drops only zeros."""
    p = np.array(p, dtype=float)
    p = p.reshape(len(p), math.prod(p.shape[1:]))
    total = [0] * p.shape[1]
    for lo in range(0, len(p), 1024):
        m, k = _mantissas(p[lo : lo + 1024].T)
        for j, (mj, i) in enumerate(zip(m, k + 1074)):
            high = np.bincount(i, weights=mj >> 26).astype(np.int64)
            low = np.bincount(i, weights=mj & (2**26 - 1)).astype(np.int64)
            cells = np.flatnonzero(high | low)
            total[j] += sum(
                ((h << 26) + l) << (c - 1)
                for c, h, l in zip(cells.tolist(), high[cells].tolist(), low[cells].tolist())
            )
    return [t >> 52 for t in total]


def _square_sum(x):
    """The exact sum of the squares of the finite vector `x`, as an integer in
    units of 2**-2148, the square of 2**-1074: each square m**2 * 2**(2k - 106)
    of a mantissa (`_mantissas`) is shifted into units of 2**-2252, where no
    shift is negative; the final shift to 2**-2148 drops only zeros."""
    m, k = _mantissas(np.ravel(np.asarray(x, dtype=float)))
    return sum(a * a << 2 * e + 2146 for a, e in zip(m.tolist(), k.tolist())) >> 104


def _mean(total, n):
    """The sum `total` (in units of 2**-1074) correctly rounded (as
    math.fsum), over n; where that sum is beyond a float, though the mean is
    not, the mean correctly rounded."""
    try:
        return total / (1 << 1074) / n
    except OverflowError:
        return total / (n << 1074)


def _sd(n, s, sq):
    """sqrt((n * sq - s**2) / (n * (n - 1))), correctly rounded (unless
    subnormal; inf beyond a float), from the exact sums s of x (in units of
    2**-1074) and sq of x**2 (in units of 2**-2148). The integer square root
    gets at least 56 bits; a sticky last bit marks an inexact one, so one
    rounding to float is the correct one."""
    num = n * sq - s * s
    den = n * (n - 1)
    t = (114 - num.bit_length() + den.bit_length()) // 2
    q, rem = divmod(num << 2 * t, den) if t >= 0 else divmod(num, den << -2 * t)
    r = math.isqrt(q)
    r = 2 * r + (rem != 0 or r * r != q)
    try:
        return math.ldexp(float(r), -1075 - t)
    except OverflowError:
        return math.inf


def _partials(cols):
    """The exact sums of a chunk's summarized columns `cols`, as integers:
    "n", the replication count; ("sum", k, g), Σx of statistic k
    (`_extract`), per group g of a per-group vector, g None for a scalar;
    ("square", k), Σx² of a scalar (`_square_sum`); ("count", k), the count
    of rejection k."""
    out = Counter(n=cols["f_stat"].size)
    for k in _SCALAR_KEYS + _GROUP_KEYS:
        if k not in cols:
            continue
        x = cols[k]
        if not np.isfinite(x).all():
            raise NumericalError(f"a replication's {k} is not finite")
        sums = _extract(x)
        if x.ndim == 1:
            out["sum", k, None] = sums[0]
            out["square", k] = _square_sum(x)
        else:
            out.update({("sum", k, g): s for g, s in enumerate(sums)})
    for k in _REJECTION_KEYS:
        if k in cols:
            out["count", k] = int(np.count_nonzero(cols[k]))
    return out


def _summarize(total, g):
    """(means, sds or None under two replications, rejection rates, means of
    the g-group vectors) from the run's Counter `total` (`_partials`): each
    mean the sum correctly rounded over n (`_mean`), each sd from exact
    integers (`_sd`)."""
    n = total["n"]
    scalars = [k for k in _SCALAR_KEYS if ("square", k) in total]
    means = {k: _mean(total["sum", k, None], n) for k in scalars}
    sds = (
        {k: _sd(n, total["sum", k, None], total["square", k]) for k in scalars}
        if n >= 2 else None
    )
    rates = {k: total["count", k] / n for k in _REJECTION_KEYS if ("count", k) in total}
    group_means = {
        k: np.array([_mean(total["sum", k, j], n) for j in range(g)]) for k in _GROUP_KEYS
    }
    return means, sds, rates, group_means


def _sim_chunk(design, seed, tau, alpha, benchmark, method, rep_ids):
    """Replications `rep_ids` as one Counter of integers: the tally of
    failures by stage and of empty-group redraws, and the exact sums of the
    successful ones (`_partials`), if any. The chunk's columns end with it."""
    cols, tally = _chunk_columns(design, seed, tau, alpha, benchmark, method, rep_ids)
    if cols is not None and cols["f_stat"].size:
        tally.update(_partials(cols))
    return tally


@dataclass(frozen=True, eq=False)
class SimSummary:
    """Monte Carlo summary: means and (when at least two replications
    succeeded) standard deviations of the per-replication statistics,
    rejection rates, and per-group mean vectors. `failures` splits `failed`
    by the stage where each replication failed (draw, moments, moment_cov,
    bias_bound, critical_value); `redraws` counts the empty-group redraws."""

    design_name: str
    reps: int
    failed: int
    failures: dict
    redraws: int
    seed: int
    tau: float
    alpha: float
    benchmark: str
    method: str
    means: dict
    sds: dict | None
    rejection_rates: dict
    group_means: dict


def _pool_size(workers, jobs, cpus):
    """Worker processes to start: never more than the jobs or the CPUs, since
    a fork pool starts all of its processes at once."""
    return min(workers, jobs, cpus)


def run_sim(
    design,
    reps,
    tau=_settings.TAU,
    alpha=_settings.ALPHA,
    seed=_settings.SEED,
    benchmark=_settings.BENCHMARK,
    method=_settings.METHOD,
    workers=_settings.WORKERS,
):
    """Simulate a grouped design and summarize the replications.

    For structural designs each replication carries the three F-statistics,
    the weak-instruments critical values and rejections for the effective-F
    (2SLS) and robust-F (GMMf) tests, the three estimators, and robust Wald
    rejections of the true coefficient; first-stage-only designs yield the
    F-statistics and weights only. Failed replications are counted in
    `failed`, and by stage in `failures`, and excluded from the summaries.
    Sums are exact: a mean is the correctly rounded sum over n, and an sd
    is correctly rounded, whatever the worker count.
    """
    reps = _settings.read("reps", reps)
    tau = _settings.read("tau", tau)
    alpha = _settings.read("alpha", alpha)
    method = _settings.read("method", method)
    benchmark = _settings.read("benchmark", benchmark)
    workers = _settings.read("workers", workers)
    seed = _settings.read("seed", seed)
    if design.sizes == "fixed":
        _fixed_counts(design.n, design.group_probs)  # a design error, before any draw
    chunk = _CHUNK_REPS if workers == 1 else math.ceil(reps / (4 * workers))
    chunk = min(chunk, _CHUNK_REPS)
    job = partial(_sim_chunk, design, seed, tau, alpha, benchmark, method)
    jobs = [range(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
    # `update`, unlike `+`, keeps a chunk's zero sums
    total = Counter()
    if workers == 1:
        for part in map(job, jobs):
            total.update(part)
    else:
        # imported here, so a single-worker run loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        size = _pool_size(workers, len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=size) as pool:
            for part in pool.map(job, jobs):
                total.update(part)
    failures = {stage: total[stage] for stage in _FAILURE_STAGES}
    if total["n"] == 0:
        stages = ", ".join(f"{stage} {count}" for stage, count in failures.items() if count)
        raise NumericalError(
            f"every replication failed ({stages}; {total['redraws']} redraws)"
        )
    means, sds, rejection_rates, group_means = _summarize(total, design.G)
    return SimSummary(
        design_name=design.name,
        reps=reps,
        failed=reps - total["n"],
        failures=failures,
        redraws=total["redraws"],
        seed=seed,
        tau=tau,
        alpha=alpha,
        benchmark=benchmark,
        method=method,
        means=means,
        sds=sds,
        rejection_rates=rejection_rates,
        group_means=group_means,
    )


def sweep_scale(design, scales, reps, **options):
    """Rerun a structural design over first-stage scales with common random
    numbers; biases of 2SLS and GMMf are reported relative to the OLS bias.
    `options` are passed to `run_sim`. Every scale's design is built, and so
    checked, before the first simulation."""
    if not design.has_structural:
        raise InputError("bias curves need a structural design (var_u, cov_uv2)")
    rows = []
    for scaled in [dataclasses.replace(design, scale_e=s) for s in _settings.scales(scales)]:
        summ = run_sim(scaled, reps, **options)
        bias_ols = summ.means["beta_ols"] - design.beta
        def _rel(key):
            if bias_ols == 0.0:
                return math.nan
            return abs(summ.means[key] - design.beta) / abs(bias_ols)
        rows.append(
            {
                "scale": scaled.scale_e,
                "mean_f_eff": summ.means["f_eff"],
                "mean_f_r": summ.means["f_r"],
                "rel_bias_2sls": _rel("beta_2sls"),
                "rel_bias_gmmf": _rel("beta_gmmf"),
                "rf_weak_eff": summ.rejection_rates["weak_eff"],
                "rf_weak_r": summ.rejection_rates["weak_r"],
                "rf_wald_2sls": summ.rejection_rates["wald_2sls"],
                "rf_wald_gmmf": summ.rejection_rates["wald_gmmf"],
            }
        )
    return rows


def _closed_forms(cf, sv2, suv=None):
    """Closed-form concentration and, given the structural covariances `suv`,
    Nagar bias of each estimator of `_estimators` in grouped designs with
    fixed group shares, from the per-group signals cf = c^2 p, with c the
    scaled coefficients sqrt(n) pi and p the shares (not the per-group
    concentrations c^2 / sv2), and the first-stage variances sv2 (so
    d = sv2 for GMMf). With r = cf / d, the
    concentration is sum(r) / sum(sv2 / d) and the Nagar bias
    sum((1 - 2 r / sum(r)) suv / d) / sum(r). The last axis indexes groups,
    leading axes are designs; returns conc_<estimator> and nagar_<estimator>."""
    out = {}
    for est, _, d in _estimators(sv2):
        r = cf / d
        rtot = r.sum(axis=-1)
        out[f"conc_{est}"] = rtot / (sv2 / d).sum(axis=-1)
        if suv is not None:
            out[f"nagar_{est}"] = (
                ((1.0 - 2.0 * r / rtot[..., None]) * (suv / d)).sum(axis=-1) / rtot
            )
    return out


@dataclass(frozen=True)
class GroupedBiasDiagnostics:
    nagar_2sls: float
    nagar_gmmf: float
    conc_2sls: float
    conc_gmmf: float


def nagar_bias_grouped(design):
    """Closed-form approximate biases and concentrations for a grouped design
    with fixed group shares (`_closed_forms`)."""
    if design.cov_uv2 is None:
        raise InputError(
            "design has no structural covariances (cov_uv2); closed-form bias "
            "diagnostics need them"
        )
    c = math.sqrt(design.n) * design.pi
    cf = c * c * design.group_probs
    if cf.sum() <= 0.0:
        raise NumericalError("zero concentration: all first-stage coefficients vanish")
    forms = _closed_forms(cf, design.var_v2, design.cov_uv2)
    return GroupedBiasDiagnostics(**{k: float(v) for k, v in forms.items()})


@dataclass(frozen=True, eq=False)
class DesignComparison:
    """Closed-form bias comparison over random grouped designs."""

    count: int
    attempts: int
    seed: int
    fraction_2sls_worse: float
    nagar_2sls: np.ndarray
    nagar_gmmf: np.ndarray
    coefs: np.ndarray
    var_u: np.ndarray
    var_v2: np.ndarray
    cov_uv2: np.ndarray


def random_design_comparison(count=_settings.COUNT, seed=_settings.SEED):
    """Sample random grouped designs under concentration and endogeneity
    constraints and compare the closed-form approximate biases of 2SLS and
    GMMf.

    Each design has 10 groups with equal shares. Scaled first-stage
    coefficients are uniform on [-40, 40], variances uniform on (0, 10],
    within-group correlations uniform on (-1, 1). Designs are drawn in
    batches of 20000 until `count` are kept, or 5 million are drawn
    (NumericalError). A draw is kept when the overall endogeneity correlation
    exceeds 0.2 in absolute value, the 2SLS concentration is in (5, 10), and
    the GMMf concentration is in (40, 45). Reports the fraction of kept
    designs where 2SLS has the larger absolute approximate bias.
    """
    count = _settings.read("count", count)
    seed = _settings.read("seed", seed)
    gen = RngStream(seed).generator()
    share = 1.0 / _COMPARE_GROUPS
    size = (_COMPARE_BATCH, _COMPARE_GROUPS)
    kept = []
    attempts = 0
    n_kept = 0
    while n_kept < count:
        if attempts >= _COMPARE_MAX_ATTEMPTS:
            raise NumericalError(
                f"constraint satisfaction drew {attempts} designs without "
                f"reaching {count} accepted; constraints are too tight"
            )
        c = gen.uniform(-40.0, 40.0, size)
        vu = 10.0 * (1.0 - gen.random(size))
        v2 = 10.0 * (1.0 - gen.random(size))
        rho = gen.uniform(-1.0, 1.0, size)
        suv = rho * np.sqrt(vu * v2)
        forms = _closed_forms(c * c * share, v2)
        mu2_2sls, mu2_gmmf = forms["conc_2sls"], forms["conc_gmmf"]
        rho_all = suv.mean(axis=1) / np.sqrt(vu.mean(axis=1) * v2.mean(axis=1))
        keep = (
            (np.abs(rho_all) > 0.2)
            & (mu2_2sls > 5.0)
            & (mu2_2sls < 10.0)
            & (mu2_gmmf > 40.0)
            & (mu2_gmmf < 45.0)
        )
        attempts += _COMPARE_BATCH
        idx = np.flatnonzero(keep)
        if idx.size:
            kept.append((c[idx], vu[idx], v2[idx], suv[idx]))
            n_kept += idx.size
    c, vu, v2, suv = (np.concatenate(part)[:count] for part in zip(*kept))
    forms = _closed_forms(c * c * share, v2, suv)
    nagar_2sls, nagar_gmmf = forms["nagar_2sls"], forms["nagar_gmmf"]
    return DesignComparison(
        count=count,
        attempts=attempts,
        seed=seed,
        fraction_2sls_worse=float(
            np.mean(np.abs(nagar_2sls) > np.abs(nagar_gmmf))
        ),
        nagar_2sls=nagar_2sls,
        nagar_gmmf=nagar_gmmf,
        coefs=c,
        var_u=vu,
        var_v2=v2,
        cov_uv2=suv,
    )
