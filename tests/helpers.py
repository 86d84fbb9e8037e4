"""Shared construction helpers for the test suite."""

import numpy as np
import pytest

from weakiv import Dataset, MomentCov, TransformedMomentCov, distributions, partial_out


def random_spd(rng, dim, jitter=0.1):
    m = rng.standard_normal((dim, dim))
    return m @ m.T + jitter * np.eye(dim)


def random_transformed_cov(rng, kz, jitter=0.1):
    w = random_spd(rng, 2 * kz, jitter)
    return TransformedMomentCov(
        v1v1=w[:kz, :kz], v1v2=w[:kz, kz:], v2v2=w[kz:, kz:]
    )


def moment_cov_from_full(w, kz):
    return MomentCov(v1v1=w[:kz, :kz], v1v2=w[:kz, kz:], v2v2=w[kz:, kz:])


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
