"""Dataset container, CSV ingestion, and partialling-out of exogenous controls.

Downstream estimators and tests operate on :class:`PartialledData`, i.e. on the
model with all included exogenous controls (intercept included by the caller)
residualized away from the outcome, the endogenous regressor, and the
instruments.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalError

__all__ = ["Dataset", "PartialledData", "load_csv", "partial_out"]

_RANK_RTOL = 1e-10
_CONTROLS = "control matrix"

_BLANK_LINE = re.compile(r"\n[^\S\n]*\n")
_BARE_CR = re.compile(r"\r(?!\n)")


def _as_matrix(a, name):
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise InputError(f"{name} must be a vector or matrix, got ndim={m.ndim}")
    return m


def _dense_cluster_codes(labels):
    """Dense 0..G-1 codes in sorted label order, so integer labels that are
    already dense codes map to themselves."""
    _, codes = np.unique(labels, return_inverse=True)
    return codes.astype(np.int64)


def _first_dependent_column(m, scale):
    """Index of the first column whose residual on its predecessors is at most
    _RANK_RTOL times `scale`, the largest singular value of `m`."""
    n, k = m.shape
    basis = np.zeros((n, 0))
    for j in range(k):
        col = m[:, j]
        resid = col - basis @ (basis.T @ col)
        if np.linalg.norm(resid) <= max(_RANK_RTOL * scale, 1e-300):
            return j
        basis = np.column_stack([basis, resid / np.linalg.norm(resid)])
    return None


class _RankDeficient(InputError):
    """`what` is rank deficient; `column` is its first column dependent on
    its predecessors, or None."""

    def __init__(self, what, column):
        where = f" (column index {column})" if column is not None else ""
        super().__init__(f"{what} is rank deficient: collinear column{where}")
        self.what, self.column = what, column


def _check_full_rank(m, what):
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[-1] <= _RANK_RTOL * sv[0]:
        raise _RankDeficient(what, _first_dependent_column(m, sv.max(initial=0.0)))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Raw single-endogenous-regressor IV data.

    y: outcome (n,); x: endogenous regressor (n,); z: excluded instruments
    (n, k_z); controls: optional included exogenous columns (n, k_c), intercept
    included by the user; cluster: optional labels, stored as dense integer
    codes in sorted label order. The arrays are treated as read-only: the
    partialled view is computed once per Dataset.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    controls: np.ndarray | None = None
    cluster: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).ravel()
        x = np.asarray(self.x, dtype=float).ravel()
        z = _as_matrix(self.z, "z")
        controls = None if self.controls is None else _as_matrix(self.controls, "controls")
        n = y.size
        if x.size != n or z.shape[0] != n:
            raise InputError("y, x, z must share the same number of rows")
        if controls is not None and controls.shape[0] != n:
            raise InputError("controls must have the same number of rows as y")
        for name, arr in (("y", y), ("x", x), ("z", z)) + (
            () if controls is None else (("controls", controls),)
        ):
            if not np.all(np.isfinite(arr)):
                raise InputError(f"non-finite value in {name}")
        k_z = z.shape[1]
        k_c = 0 if controls is None else controls.shape[1]
        if k_z < 1:
            raise InputError("at least one instrument column is required")
        if n < k_z + k_c + 2:
            raise InputError(
                f"need at least k_z + k_c + 2 = {k_z + k_c + 2} rows, got {n}"
            )
        cluster = self.cluster
        if cluster is not None:
            cluster = np.asarray(cluster).ravel()
            if cluster.size != n:
                raise InputError("cluster labels must have the same length as y")
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
    use, and shared by every estimator, statistic and test run on this data.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    cluster: np.ndarray | None = None

    @property
    def n(self):
        return self.y.size

    @property
    def k_z(self):
        return self.z.shape[1]

    @cached_property
    def z_qr(self):
        """Thin QR factors (q, r) of z, after checking that z has full rank."""
        q, r = np.linalg.qr(self.z)
        d = np.abs(np.diag(r))
        if d.min() <= 1e-12 * d.max():
            raise NumericalError("instrument matrix is numerically rank deficient")
        return q, r

    @cached_property
    def first_stage_residuals(self):
        """(v1, v2): y and x less their projections on the columns of z."""
        q, _ = self.z_qr
        return self.y - q @ (q.T @ self.y), self.x - q @ (q.T @ self.x)

    @cached_property
    def moment_covs(self):
        """`estimate_moment_cov` results made so far, by (flavor,
        dof_correction)."""
        return {}


def partial_out(data):
    """Residualize y, x, and each instrument column on the controls.

    Uses a QR factorization of the control matrix. With no controls this is an
    identity pass-through. The instruments must keep full column rank after
    partialling. The result is computed once per Dataset; later calls return
    the same PartialledData.
    """
    return data._partialled


def _partial_out(data):
    if data.controls is None:
        _check_full_rank(data.z, "instrument matrix")
        return PartialledData(y=data.y, x=data.x, z=data.z, cluster=data.cluster)
    _check_full_rank(data.controls, _CONTROLS)
    q, _ = np.linalg.qr(data.controls, mode="reduced")

    def resid(m):
        return m - q @ (q.T @ m)

    z = resid(data.z)
    _check_full_rank(z, "instrument matrix after partialling")
    return PartialledData(y=resid(data.y), x=resid(data.x), z=z, cluster=data.cluster)


def load_csv(path, y, x, z, controls=(), cluster=None):
    """Load a header CSV binding columns to model roles.

    `y`, `x` name single columns; `z` and `controls` are sequences of column
    names; `cluster` optionally names a label column (values kept as opaque
    strings, stripped of surrounding whitespace). A bound name that appears
    more than once in the header is an error.

    The data rows are parsed in one C-level pass (`np.loadtxt`). When that
    pass rejects a cell, or the file has a line it would skip or split
    differently from the csv module (an empty or whitespace-only line, a bare
    carriage return), or a cluster label is empty, a per-cell scan reads the
    file instead. The scan accepts the number forms that only Python's
    `float` reads (such as `1_000`) and reports an empty or non-numeric cell
    with its data row (1-based, header excluded) and column.
    """
    z = list(z)
    controls = list(controls)
    if not z:
        raise InputError("at least one instrument column must be given")
    with open(path, newline="") as fh:
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
        parsed = _parse_columns(path, fh.read(), [index[c] for c in names], label_col)
    if parsed is None:
        parsed = _scan_cells(path, index, names, cluster)
    values, cl = parsed
    k = len(z)
    ds = Dataset(
        y=values[:, 0].copy(),
        x=values[:, 1].copy(),
        z=np.ascontiguousarray(values[:, 2:2 + k]),
        controls=np.ascontiguousarray(values[:, 2 + k:]) if controls else None,
        cluster=cl,
    )
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


def _parse_columns(path, body, cols, label_col):
    """(values, labels) of the data rows from one np.loadtxt pass: values
    holds the columns `cols` in order, labels the stripped column `label_col`
    (None when it is None). `body` is the text after the header. Returns None
    where the per-cell scan must decide; see load_csv."""
    # The leading newline stands for the header's, so a blank first data line
    # is found too.
    if not body or _BARE_CR.search(body) or _BLANK_LINE.search("\n" + body):
        return None
    dtype = [("v", float, (len(cols),))]
    if label_col is not None:
        cols = [*cols, label_col]
        dtype.append(("c", object))
    with open(path, newline="") as fh:
        next(csv.reader(fh))
        try:
            block = np.loadtxt(fh, dtype=dtype, delimiter=",", usecols=cols,
                               comments=None, quotechar='"', ndmin=1)
        except ValueError:
            return None
    if label_col is None:
        return block["v"], None
    labels = np.array([v.strip() for v in block["c"]], dtype=object)
    if any(v == "" for v in labels):
        return None
    return block["v"], labels


def _scan_cells(path, index, names, cluster):
    """(values, labels) as _parse_columns returns them, read cell by cell
    with Python's float; raises InputError naming the first bad cell."""
    with open(path, newline="") as fh:
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
    cl = None
    if cluster is not None:
        ci = index[cluster]
        cl = np.array(
            [row[ci].strip() if ci < len(row) else "" for row in rows], dtype=object
        )
        if any(v == "" for v in cl):
            r = next(r for r, v in enumerate(cl) if v == "")
            raise InputError(
                f"{path}: empty cell at row {r + 1}, column {cluster!r}"
            )
    return values, cl
