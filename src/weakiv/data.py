"""Dataset container, CSV ingestion, and partialling-out of exogenous controls.

Downstream estimators and tests operate on :class:`PartialledData`, i.e. on the
model with all included exogenous controls (intercept included by the caller)
residualized away from the outcome, the endogenous regressor, and the
instruments.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalError

__all__ = ["Dataset", "PartialledData", "load_csv", "partial_out"]

_RANK_RTOL = 1e-10
_CONTROLS = "control matrix"
_RMS_RANGE = (1e-60, 1e60)
"""Range of the root mean square of y and of x. Inside it, y and x at any two
scales give every statistic, bias bound, critical value, estimate and
standard error of the data at scale 1 to about 1e-14 relative; far past it,
squares and products in the estimators overflow or underflow."""
_QR_BLOCK_ROWS = 1024
"""Rows of a block in `_thin_qr`'s tall-skinny QR; at least four times the
columns."""


def _as_float(a, name):
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{name} must hold numbers") from None


def _as_matrix(a, name):
    m = _as_float(a, name)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise InputError(f"{name} must be a vector or matrix, got ndim={m.ndim}")
    return m


def _as_vector(a, name):
    """`a` as a contiguous float vector; one already so is returned as it is."""
    v = _as_float(a, name)
    return v if v.ndim == 1 and v.flags.c_contiguous else v.ravel()


def _checked_arrays(y, x, z, controls=None, cluster=None):
    """(y, x, z, controls, cluster): y and x as float vectors, z and
    controls (when given) as float matrices and cluster labels (when given)
    as a vector, after checking that they have y's rows and the float arrays
    only finite values. Each refusal names its array. Float arrays of the
    right layout are returned as they are, not copied."""
    named = {"y": _as_vector(y, "y"), "x": _as_vector(x, "x"), "z": _as_matrix(z, "z")}
    if controls is not None:
        named["controls"] = _as_matrix(controls, "controls")
    for name, a in named.items():
        if a.shape[0] != named["y"].size:
            raise InputError(f"{name} must have the same number of rows as y")
    if cluster is not None:
        cluster = np.asarray(cluster).ravel()
        if cluster.size != named["y"].size:
            raise InputError("cluster labels must have the same length as y")
    for name, a in named.items():
        # min and max are not finite exactly when an entry is not, and they
        # make no temporary the size of the array
        if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
            raise InputError(f"non-finite value in {name}")
    return named["y"], named["x"], named["z"], named.get("controls"), cluster


def _dense_cluster_codes(labels):
    """Dense 0..G-1 codes in sorted label order, so integer labels that are
    already dense codes map to themselves."""
    _, codes = np.unique(labels, return_inverse=True)
    return codes.astype(np.int64)


class _RankDeficient(InputError):
    """`what` is rank deficient; `column` is its first column dependent on
    its predecessors, or None."""

    def __init__(self, what, column):
        where = f" (column index {column})" if column is not None else ""
        super().__init__(f"{what} is rank deficient: collinear column{where}")
        self.what, self.column = what, column


class _BadScale(InputError):
    """The root mean square `rms` of `what` is outside _RMS_RANGE."""

    def __init__(self, what, rms):
        lo, hi = _RMS_RANGE
        super().__init__(
            f"{what} has root mean square {rms:.3g}; it must be from {lo:g} to "
            f"{hi:g}, so rescale it"
        )
        self.what, self.rms = what, rms


def _check_rms(lo, **named):
    """Refuse a named vector whose root mean square is below `lo` or above
    the upper end of _RMS_RANGE."""
    for name, v in named.items():
        rms = _rms(v)
        if not lo <= rms <= _RMS_RANGE[1]:
            raise _BadScale(name, rms)


def _rms(v):
    """Root mean square of the finite vector `v`, with no square that can
    overflow; 0 for an empty one."""
    peak = float(np.abs(v).max(initial=0.0))
    return 0.0 if peak == 0.0 else peak * float(np.sqrt(np.mean(np.square(v / peak))))


def _thin_qr(m):
    """Thin QR factors (q, r) of the n x k matrix `m`, n >= k.

    Tall-skinny Householder QR (Demmel et al. 2012): the rows are cut into
    blocks of max(_QR_BLOCK_ROWS, 4k), one batched QR factors the full
    blocks, and one more factors their R factors stacked over the remainder
    rows; each block's rows of q are its q times its rows of the second q.
    A matrix shorter than two blocks is factored by `np.linalg.qr` directly.
    """
    n, k = m.shape
    rows = max(_QR_BLOCK_ROWS, 4 * k)
    blocks = n // rows
    if blocks < 2:
        return np.linalg.qr(m)
    split = blocks * rows
    q1, r1 = np.linalg.qr(m[:split].reshape(blocks, rows, k))
    q2, r = np.linalg.qr(np.vstack([r1.reshape(blocks * k, k), m[split:]]))
    q = np.empty((n, k))
    np.matmul(q1, q2[:blocks * k].reshape(blocks, k, k),
              out=q[:split].reshape(blocks, rows, k))
    q[split:] = q2[blocks * k:]
    return q, r


def _full_rank_qr(m, what):
    """Thin QR factors (q, t) of the n-row `m` scaled so that q'q = n I, after
    checking that `m` has full column rank: no more columns than rows, and by
    the singular values of t, which are those of `m` over sqrt(n). A refusal
    names the first column whose residual on its predecessors, |t_jj|, is at
    most _RANK_RTOL times the largest singular value, or no column."""
    q, t = _thin_qr(m)
    sv = np.linalg.svd(t, compute_uv=False)
    if m.shape[0] < m.shape[1] or sv.size == 0 or sv[-1] <= _RANK_RTOL * sv[0]:
        tol = max(_RANK_RTOL * sv.max(initial=0.0), 1e-300)
        dependent = np.flatnonzero(np.abs(np.diagonal(t)) <= tol)
        raise _RankDeficient(what, int(dependent[0]) if dependent.size else None)
    q *= np.sqrt(m.shape[0])
    t /= np.sqrt(m.shape[0])
    return q, t


@dataclass(frozen=True, eq=False)
class Dataset:
    """Raw single-endogenous-regressor IV data.

    y: outcome (n,); x: endogenous regressor (n,); z: excluded instruments
    (n, k_z); controls: optional included exogenous columns (n, k_c), intercept
    included by the user; cluster: optional labels, stored as dense integer
    codes in sorted label order, one code per distinct label. The arrays are
    treated as read-only: the partialled view is computed once per Dataset.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    controls: np.ndarray | None = None
    cluster: np.ndarray | None = None

    def __post_init__(self):
        y, x, z, controls, cluster = _checked_arrays(
            self.y, self.x, self.z, self.controls, self.cluster
        )
        n = y.size
        k_z = z.shape[1]
        k_c = 0 if controls is None else controls.shape[1]
        if k_z < 1:
            raise InputError("at least one instrument column is required")
        if n < k_z + k_c + 2:
            raise InputError(
                f"need at least k_z + k_c + 2 = {k_z + k_c + 2} rows, got {n}"
            )
        _check_rms(_RMS_RANGE[0], y=y, x=x)
        if cluster is not None:
            cluster = _dense_cluster_codes(cluster)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "controls", controls)
        object.__setattr__(self, "cluster", cluster)

    @property
    def n(self):
        return self.y.size

    @property
    def k_z(self):
        return self.z.shape[1]

    @cached_property
    def _partialled(self):
        return _partial_out(self)


@dataclass(frozen=True, eq=False)
class PartialledData:
    """y, x, z with controls residualized away (orthogonal to the controls).

    The arrays are treated as read-only: the thin QR of z, the first-stage
    residuals and the moment covariance estimates are computed once, on first
    use (`partial_out` supplies the QR it made for its rank check), and shared
    by every estimator, statistic and test run on this data. Their types,
    rows and values are checked as `Dataset`'s are, but for the lower end of
    the band of root mean squares: partialling out the controls can leave x
    at zero, which the estimators refuse with their own message.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    cluster: np.ndarray | None = None

    def __post_init__(self):
        y, x, z, _, cluster = _checked_arrays(self.y, self.x, self.z, cluster=self.cluster)
        _check_rms(0.0, y=y, x=x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "cluster", cluster)

    @property
    def n(self):
        return self.y.size

    @property
    def k_z(self):
        return self.z.shape[1]

    @cached_property
    def z_qr(self):
        """(q, t) with z = q t and q'q = n I, from the thin QR of z, after
        checking that z has full rank by the rule `partial_out` applies. The
        dense path works in basis q; t'C t and t^{-1} Omega t^{-T} map a
        moment covariance C and a weight Omega in it to the columns of z."""
        try:
            return _full_rank_qr(self.z, "instrument matrix")
        except _RankDeficient:
            raise NumericalError("instrument matrix is numerically rank deficient") from None

    @cached_property
    def first_stage_residuals(self):
        """(v1, v2): y and x less their projections on the columns of z."""
        q, _ = self.z_qr
        return _resid(q, self.y), _resid(q, self.x)

    @cached_property
    def moment_covs(self):
        """`estimate_moment_cov` results made so far, by (flavor,
        dof_correction)."""
        return {}


def _resid(q, m):
    """`m` less its projection on the columns of q, where q'q = n I."""
    return m - q @ ((q.T @ m) / q.shape[0])


def partial_out(data):
    """Residualize y, x, and each instrument column on the controls.

    Uses a thin QR factorization of the control matrix. With no controls this
    is an identity pass-through. The instruments must keep full column rank
    after partialling; the thin QR that checks it becomes the result's
    `z_qr`. The result is computed once per Dataset; later calls return the
    same PartialledData.
    """
    return data._partialled


def _partial_out(data):
    if data.controls is None:
        y, x, z = data.y, data.x, data.z
        what = "instrument matrix"
    else:
        q, _ = _full_rank_qr(data.controls, _CONTROLS)
        y, x, z = _resid(q, data.y), _resid(q, data.x), _resid(q, data.z)
        what = "instrument matrix after partialling"
    z_qr = _full_rank_qr(z, what)
    pd_ = PartialledData(y=y, x=x, z=z, cluster=data.cluster)
    # seeds the cached property, which a PartialledData built directly computes
    vars(pd_)["z_qr"] = z_qr
    return pd_


def load_csv(path, y, x, z, controls=(), cluster=None):
    """Load a header CSV binding columns to model roles.

    `y`, `x` name single columns; `z` and `controls` are sequences of column
    names; every name is a string; `cluster` optionally names a label column (values kept as opaque
    strings, stripped of surrounding whitespace). A bound name that appears
    more than once in the header is an error. The file is read as UTF-8; a
    leading byte-order mark is skipped.

    The file is opened once. The lines after the header stream to one C-level
    pass (`np.loadtxt`); the stripped cluster labels go to `Dataset`, which
    codes them. When that pass rejects a cell, or the file has a line it
    would skip or split differently from the csv module (an empty or
    whitespace-only line, a bare carriage return), or a cluster label is
    empty, a per-cell scan rereads the file from the start. The scan accepts
    the number forms that only Python's `float` reads (such as `1_000`) and
    reports an empty or non-numeric cell with its data row (1-based, header
    excluded) and column. Both give bit-equal values. The result is
    partialled (`partial_out`) before it is returned, so a collinear
    instrument is named here.
    """
    for role, names in (("z", z), ("controls", controls)):
        if isinstance(names, str):
            raise InputError(
                f"{role} must be a sequence of column names, not the string {names!r}"
            )
    z, controls = list(z), list(controls)
    for role, names in (("y", [y]), ("x", [x]), ("z", z), ("controls", controls),
                        ("cluster", [] if cluster is None else [cluster])):
        for name in names:
            if not isinstance(name, str):
                raise InputError(f"{role}: a column name must be a string, not {name!r}")
    if not z:
        raise InputError("at least one instrument column must be given")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        index = {}
        for i, name in enumerate(header):
            index.setdefault(name, i)
        needed = [y, x, *z, *controls] + ([cluster] if cluster is not None else [])
        for name in needed:
            if name not in index:
                raise InputError(f"{path}: missing column {name!r}")
            positions = [i + 1 for i, h in enumerate(header) if h == name]
            if len(positions) > 1:
                raise InputError(
                    f"{path}: column {name!r} appears more than once in the header "
                    f"(columns {', '.join(map(str, positions))})"
                )
        names = [y, x, *z, *controls]
        label_col = None if cluster is None else index[cluster]
        parsed = _parse_columns(fh, [index[c] for c in names], label_col)
        if parsed is None:
            fh.seek(0)
            parsed = _scan_cells(path, fh, index, names, cluster)
    values, labels = parsed
    k = len(z)
    try:
        ds = Dataset(
            y=values[:, 0].copy(),
            x=values[:, 1].copy(),
            z=np.ascontiguousarray(values[:, 2:2 + k]),
            controls=np.ascontiguousarray(values[:, 2 + k:]) if controls else None,
            cluster=labels,
        )
    except _BadScale as exc:
        column = y if exc.what == "y" else x
        raise _BadScale(f"{path}: column {column!r}", exc.rms) from None
    # free the parsed block before the QR factorizations run
    del parsed, values
    try:
        partial_out(ds)
    except _RankDeficient as exc:
        if exc.column is None or exc.what == _CONTROLS:
            raise
        raise InputError(
            f"{path}: instrument column {z[exc.column]!r} is collinear with the "
            "other instruments/controls"
        ) from None
    return ds


def _checked_lines(fh):
    """The remaining lines of `fh`. Raises ValueError, as np.loadtxt does for
    a cell it rejects, at a line it would read differently from the csv
    module (empty or whitespace-only, or ended by a bare carriage return),
    and at the end if there was no line."""
    line = None
    for line in fh:
        if line.isspace() or line.endswith("\r"):
            raise ValueError("line the csv module reads differently")
        yield line
    if line is None:
        raise ValueError("no data rows")


def _parse_columns(fh, cols, label_col):
    """(values, labels) of the data rows left in `fh` from one np.loadtxt
    pass: values holds the columns `cols` in order, labels the stripped
    labels in column `label_col` as a str array (None when it is None).
    Returns None where the per-cell scan must decide; see load_csv."""
    dtype = [("v", float, (len(cols),))]
    if label_col is not None:
        cols = [*cols, label_col]
        dtype.append(("c", object))
    try:
        block = np.loadtxt(_checked_lines(fh), dtype=dtype, delimiter=",",
                           usecols=cols, comments=None, quotechar='"', ndmin=1)
    except ValueError:
        return None
    if label_col is None:
        return block["v"], None
    labels = np.char.strip(block["c"].astype(str))
    if (labels == "").any():
        return None
    return block["v"], labels


def _scan_cells(path, fh, index, names, cluster):
    """(values, labels) as _parse_columns returns them, read cell by cell from
    the start of `fh` with Python's float; raises InputError naming the first
    bad cell."""
    reader = csv.reader(fh)
    next(reader)
    rows = list(reader)
    if not rows:
        raise InputError(f"{path}: no data rows")

    def numeric(colname):
        ci = index[colname]
        out = np.empty(len(rows))
        for r, row in enumerate(rows):
            cell = row[ci].strip() if ci < len(row) else ""
            if cell == "":
                raise InputError(
                    f"{path}: empty cell at row {r + 1}, column {colname!r}"
                )
            try:
                out[r] = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: non-numeric cell {cell!r} at row {r + 1}, "
                    f"column {colname!r}"
                ) from None
        return out

    values = np.column_stack([numeric(name) for name in names])
    labels = None
    if cluster is not None:
        ci = index[cluster]
        cells = [row[ci] if ci < len(row) else "" for row in rows]
        labels = np.char.strip(np.array(cells, dtype=str))
        empty = np.flatnonzero(labels == "")
        if empty.size:
            raise InputError(
                f"{path}: empty cell at row {empty[0] + 1}, column {cluster!r}"
            )
    return values, labels
