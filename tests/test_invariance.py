"""Invariance of the weak-instruments test and the estimates under transforms
of the data that leave the model unchanged in exact arithmetic: a nonsingular
change of the instrument basis Z -> ZA, controls in another basis (W -> WB) or
added to the instruments (Z -> Z + WC), row order and cluster labels, and the
units of y and x (y -> a y + c x, x -> b x), up to the edges of the band of
root mean squares that `Dataset` accepts.

Every case is seeded: clustered data with two controls (an intercept and one
regressor), n = 1000 and k_z from 2 to 8, run through `weak_iv_test` (2SLS and
GMMf, each under the ls and mop benchmarks) and `estimate`, with the
cluster-robust moment covariance and its degrees-of-freedom correction.

The Monte Carlo critical value (`method="mc"`) depends on the transformed
lower block W only through its eigenvalues, so it is held to the same
tolerances, with fixed draws and seed, on one dataset per k_z under the ls
benchmark.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from weakiv import Dataset, WeightSpec, estimate, partial_out, weak_iv_test, weak_test

N = 1000
KZ = (2, 3, 4, 5, 6, 8)
KINDS = ("2sls", "gmmf")
BENCHMARKS = ("ls", "mop")
TEST_FIELDS = ("statistic", "bias_bound", "effective_dof", "cv")
ESTIMATE_FIELDS = ("beta_hat", "se_robust", "se_nonrobust")
OPTIONS = {"flavor": "cluster", "dof_correction": True}
MC = {"method": "mc", "mc_seed": 7}


@pytest.fixture(autouse=True)
def mc_draws(monkeypatch):
    """The "mc" critical value on 5000 draws."""
    monkeypatch.setattr(weak_test, "_MC_DRAWS", 5000)


@lru_cache(maxsize=None)
def make_data(seed):
    """Clustered IV data: 40 clusters with random effects in both errors,
    heteroskedastic errors, and instruments correlated with the controls."""
    rng = np.random.default_rng(seed)
    kz = KZ[seed % len(KZ)]
    cluster = rng.integers(0, 40, N)
    w = np.column_stack([np.ones(N), rng.standard_normal(N)])
    z = rng.standard_normal((N, kz)) + np.outer(w[:, 1], rng.standard_normal(kz))
    effects = rng.standard_normal((40, 2))[cluster]
    scale = np.sqrt(0.5 + z[:, 0] ** 2)
    v = scale * rng.standard_normal(N) + 0.5 * effects[:, 1]
    u = 0.6 * v + scale * rng.standard_normal(N) + 0.5 * effects[:, 0]
    x = z @ rng.uniform(0.05, 0.3, kz) + w @ [0.4, -0.3] + v
    y = 0.5 * x + w @ [1.0, 0.7] + u
    return Dataset(y=y, x=x, z=z, controls=w, cluster=cluster)


def with_cond(rng, k, cond):
    """A k x k matrix with singular values log-spaced from 1 down to 1/cond
    between random orthogonal factors."""
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    v, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (u * np.logspace(0.0, -math.log10(cond), k)) @ v.T


def outputs(data, method="patnaik"):
    """Each (kind, benchmark)'s test outputs, and each kind's estimates; under
    "mc", each kind's test outputs under the ls benchmark only."""
    pd_ = partial_out(data)
    out = {}
    for kind in KINDS:
        if method == "mc":
            res = weak_iv_test(pd_, WeightSpec(kind), benchmark="ls", **OPTIONS, **MC)
            out[kind, "ls"] = {f: float(getattr(res, f)) for f in TEST_FIELDS}
            continue
        for bench in BENCHMARKS:
            res = weak_iv_test(pd_, WeightSpec(kind), benchmark=bench, **OPTIONS)
            out[kind, bench] = {f: float(getattr(res, f)) for f in TEST_FIELDS}
        res = estimate(pd_, WeightSpec(kind), **OPTIONS)
        out[kind] = {f: getattr(res, f) for f in ESTIMATE_FIELDS}
    return out


@lru_cache(maxsize=None)
def seed_outputs(seed, method):
    return outputs(make_data(seed), method)


def assert_invariant(seed, method, moved, rtol_test, rtol_est, a=1.0, b=1.0, c=0.0):
    """The outputs on `moved` equal those on `make_data(seed)`, where `moved`
    has y -> a y + c x and x -> b x: the coefficient maps to (a beta + c) / b
    and the standard errors scale by |a / b|."""
    want, got = seed_outputs(seed, method), outputs(moved, method)
    for key, fields in want.items():
        for field, value in fields.items():
            if field == "beta_hat":
                value = (a * value + c) / b
            elif field.startswith("se_"):
                value *= abs(a / b)
            rtol = rtol_est if field in ESTIMATE_FIELDS else rtol_test
            assert got[key][field] == pytest.approx(value, rel=rtol), (key, field)


def rebuilt(data, **changes):
    fields = {"y": data.y, "x": data.x, "z": data.z, "controls": data.controls,
              "cluster": data.cluster}
    return Dataset(**{**fields, **changes})


SEEDS = range(len(KZ) * 2)
CASES = [("patnaik", seed) for seed in SEEDS] + [("mc", seed) for seed in range(len(KZ))]
"""(method, seed): every seed under patnaik, one per k_z under mc."""
CASE_IDS = [f"mc-{seed}" if method == "mc" else str(seed) for method, seed in CASES]


@pytest.mark.parametrize("cond, rtol_test, rtol_est",
                         [(1e4, 1e-9, 1e-8), (1e6, 1e-9, 1e-8), (1e8, 1e-7, 1e-5)])
@pytest.mark.parametrize("method, seed", CASES, ids=CASE_IDS)
def test_instrument_basis(method, seed, cond, rtol_test, rtol_est):
    data = make_data(seed)
    a = with_cond(np.random.default_rng(100 + seed), data.k_z, cond)
    assert_invariant(seed, method, rebuilt(data, z=data.z @ a), rtol_test, rtol_est)


@pytest.mark.parametrize("method, seed", CASES, ids=CASE_IDS)
def test_control_basis_and_controls_added_to_instruments(method, seed):
    data = make_data(seed)
    rng = np.random.default_rng(200 + seed)
    b = with_cond(rng, 2, 1e2)
    c = rng.standard_normal((2, data.k_z))
    assert_invariant(seed, method, rebuilt(data, controls=data.controls @ b), 1e-9, 1e-8)
    assert_invariant(seed, method, rebuilt(data, z=data.z + data.controls @ c), 1e-9, 1e-8)


@pytest.mark.parametrize("method, seed", CASES, ids=CASE_IDS)
def test_row_order_and_cluster_labels(method, seed):
    data = make_data(seed)
    rng = np.random.default_rng(300 + seed)
    rows = rng.permutation(N)
    permuted = Dataset(y=data.y[rows], x=data.x[rows], z=data.z[rows],
                       controls=data.controls[rows], cluster=data.cluster[rows])
    assert_invariant(seed, method, permuted, 1e-9, 1e-8)
    names = np.array([f"g{i}" for i in rng.permutation(40)])
    assert_invariant(seed, method, rebuilt(data, cluster=names[data.cluster]), 1e-9, 1e-8)


@pytest.mark.parametrize("method, seed", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("a, b, c", [(1.0, 1.0, 2.5), (1.0, 1.0, -0.7), (1e8, 1.0, 0.0),
                                     (1e-8, 1.0, 0.0), (1.0, 1e8, 0.0), (1.0, 1e-8, 0.0),
                                     (-3.0, 0.01, 40.0)])
def test_units_of_y_and_x(method, seed, a, b, c):
    data = make_data(seed)
    moved = rebuilt(data, y=a * data.y + c * data.x, x=b * data.x)
    assert_invariant(seed, method, moved, 1e-9, 1e-8, a=a, b=b, c=c)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rms_y, rms_x", [(1e60, 1e60), (1e-60, 1e-60), (1e60, 1e-60),
                                          (1e-60, 1e60)])
def test_units_at_the_edges_of_the_scale_band(seed, rms_y, rms_x):
    """y and x rescaled to root mean squares just inside the ends of the band
    that `Dataset` accepts, together and at opposite ends, give the tests and
    estimates of the data at scale 1 to relative 1e-12."""
    data = make_data(seed)
    inside = {1e60: 0.999, 1e-60: 1.001}
    a = inside[rms_y] * rms_y / math.sqrt(np.mean(data.y**2))
    b = inside[rms_x] * rms_x / math.sqrt(np.mean(data.x**2))
    moved = rebuilt(data, y=a * data.y, x=b * data.x)
    assert_invariant(seed, "patnaik", moved, 1e-12, 1e-12, a=a, b=b)
