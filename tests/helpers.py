"""Shared construction helpers and oracles for the test suite."""

import math

import numpy as np
import pytest

from weakiv import Dataset, MomentCov, distributions, partial_out
from weakiv.errors import InputError, NumericalError
from weakiv.weak_test import _benchmark_coeffs, _sym_sqrt


def random_spd(rng, dim, jitter=0.1):
    m = rng.standard_normal((dim, dim))
    return m @ m.T + jitter * np.eye(dim)


def random_transformed_cov(rng, kz, jitter=0.1):
    w = random_spd(rng, 2 * kz, jitter)
    return MomentCov(
        v1v1=w[:kz, :kz], v1v2=w[:kz, kz:], v2v2=w[kz:, kz:]
    )


def moment_cov_from_full(w, kz):
    return MomentCov(v1v1=w[:kz, :kz], v1v2=w[:kz, kz:], v2v2=w[kz:, kz:])


def structural_blocks(beta, tc):
    """Covariance blocks after replacing the reduced-form residual by the
    structural residual v1 - beta*v2: returns (s1, s12)."""
    sym12 = tc.v1v2 + tc.v1v2.T
    s1 = tc.v1v1 - beta * sym12 + beta * beta * tc.v2v2
    s12 = tc.v1v2 - beta * tc.v2v2
    return s1, s12


def nagar_numerator(beta, direction, tc):
    """Approximate-bias numerator [tr(S12) - 2 c'S12 c] / tr(lower block) at a
    unit direction c: the numerator of the functional `worst_case_bias`
    maximizes."""
    direction = np.asarray(direction, dtype=float).ravel()
    nrm = np.linalg.norm(direction)
    if abs(nrm - 1.0) > 1e-8:
        raise InputError(f"direction must be a unit vector, got norm {nrm}")
    s12 = tc.v1v2 - beta * tc.v2v2
    t = float(np.trace(tc.v2v2))
    return float((np.trace(s12) - 2.0 * direction @ s12 @ direction) / t)


def benchmark_scale(beta, tc, bench):
    """Benchmark bias scale at `beta`: the denominator of the functional
    `worst_case_bias` maximizes."""
    t = float(np.trace(tc.v2v2))
    if bench.kind == "mop":
        s1, _ = structural_blocks(beta, tc)
        rad = float(np.trace(s1)) / t
    else:
        rc = bench.resid_cov
        rad = (rc.v1v1 - 2.0 * beta * rc.v1v2 + beta * beta * rc.v2v2) / rc.v2v2
    if rad <= 0.0:
        raise NumericalError(
            f"benchmark scale degenerate at beta={beta}: nonpositive radicand "
            "(residual correlation at the boundary)"
        )
    return math.sqrt(rad)


def benchmark_coeffs(tc, bench):
    """(d0, d1) of the squared benchmark d0 + d1*beta + beta^2 that
    `worst_case_bias` runs on; NumericalError where it is degenerate."""
    traces = [float(np.trace(b)) for b in (tc.v1v1, tc.v1v2, tc.v2v2)]
    rc = bench.resid_cov
    resid = None if rc is None else (rc.v1v1, rc.v1v2, rc.v2v2)
    d0, d1, degenerate = _benchmark_coeffs(bench.kind, traces, resid)
    if degenerate:
        raise NumericalError("benchmark scale is not positive for all beta")
    return d0, d1


def concentration(c, qzz, w2t, omega):
    """Concentration parameter |Omega^{1/2} Qzz c|^2 / tr(transformed lower
    block), for population diagnostics."""
    c = np.asarray(c, dtype=float).ravel()
    qzz = np.asarray(qzz, dtype=float)
    w2t = np.asarray(w2t, dtype=float)
    root = _sym_sqrt(omega)
    ct = root @ (qzz @ c)
    return float(ct @ ct) / float(np.trace(w2t))


def _basis_change(pd, m, weight, to_z):
    t = pd.z_qr[1]
    if weight:
        t = np.linalg.inv(t).T
    if not to_z:
        t = np.linalg.inv(t)
    t = np.kron(np.eye(m.shape[0] // t.shape[0]), t)
    return t.T @ m @ t


def z_basis(pd, m, weight=False):
    """A matrix in the instrument basis q of `pd.z_qr` (z = q t) on the
    columns of z: t'm t for a moment covariance (blockwise for a 2k x 2k
    `MomentCov.full`), t^{-1} m t^{-T} for a weight matrix."""
    return _basis_change(pd, m, weight, to_z=True)


def q_basis(pd, m, weight=False):
    """The inverse of `z_basis`: a matrix on the columns of z in basis q."""
    return _basis_change(pd, m, weight, to_z=False)


def make_dataset(rng, n=300, kz=3, kc=0, beta=0.5, strength=0.6,
                 with_cluster=False, het=False):
    """Simulated linear IV data with endogeneity and optional heteroskedasticity."""
    z = rng.standard_normal((n, kz))
    pi = strength * rng.standard_normal(kz) / np.sqrt(kz)
    eps = rng.standard_normal((n, 2))
    scale = np.sqrt(0.3 + z[:, 0] ** 2) if het else 1.0
    u = (0.8 * eps[:, 0] + 0.5 * eps[:, 1]) * scale
    v2 = eps[:, 1] * (scale if het else 1.0)
    controls = None
    x = z @ pi + v2
    y = beta * x + u
    if kc:
        controls = np.column_stack(
            [np.ones(n), rng.standard_normal((n, kc - 1))]
        ) if kc > 1 else np.ones((n, 1))
        gamma = rng.standard_normal(kc)
        x = x + controls @ gamma * 0.3
        y = y + controls @ gamma * 0.5
    cluster = rng.integers(0, 12, n) if with_cluster else None
    return Dataset(y=y, x=x, z=z, controls=controls, cluster=cluster)


def ill_conditioned_dataset(seed=0, cond=1e4, n=4000, kz=6):
    """Gaussian IV data whose n x kz instruments have singular values
    sqrt(n) times log-spaced from 1 down to 1/cond."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, kz)))
    v, _ = np.linalg.qr(rng.standard_normal((kz, kz)))
    z = math.sqrt(n) * (q * np.logspace(0.0, -math.log10(cond), kz)) @ v.T
    eps = rng.standard_normal((n, 2))
    x = z @ np.full(kz, 0.05) + eps[:, 1]
    y = 0.5 * x + 0.5 * eps[:, 1] + math.sqrt(0.75) * eps[:, 0]
    return Dataset(y=y, x=x, z=z)


def make_pd(rng, **kwargs):
    return partial_out(make_dataset(rng, **kwargs))


@pytest.fixture
def cdf_calls(monkeypatch):
    """The number of laws of each call to `distributions.chisq_cdf` made
    through its module global, as `chisq_quantile` makes them, while the
    test runs. Past 1000 calls it fails the test, so a root-finder that
    stops moving fails instead of hanging."""
    calls = []
    cdf = distributions.chisq_cdf

    def counting(d, x):
        calls.append(np.size(d.df))
        assert len(calls) <= 1000, "chisq_cdf called over 1000 times"
        return cdf(d, x)

    monkeypatch.setattr(distributions, "chisq_cdf", counting)
    return calls


def chunk_call(fn, design, rep_ids, seed=0, tau=0.1, alpha=0.05, benchmark="ls",
               method="patnaik"):
    """`fn`, `grouped_sim._sim_chunk` or `_chunk_columns`, on the replications
    `rep_ids` of `design`, with the settings as keywords."""
    return fn(design, seed, tau, alpha, benchmark, method, rep_ids)
