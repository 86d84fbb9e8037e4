import numpy as np
import pytest

from helpers import make_pd, random_spd, z_basis
from weakiv import (
    Dataset,
    PartialledData,
    WeightSpec,
    estimate_moment_cov,
    f_generalized,
    f_nonrobust,
    partial_out,
    weak_iv_test,
)
from weakiv.errors import InputError, NumericalError


def proj(z):
    q, _ = np.linalg.qr(z)
    return q @ q.T


class TestBruteForce:
    def test_nonrobust(self):
        rng = np.random.default_rng(0)
        pd_ = make_pd(rng, n=120, kz=3)
        p = proj(pd_.z)
        v2 = pd_.x - p @ pd_.x
        want = float(pd_.x @ p @ pd_.x) / (3 * float(v2 @ v2) / 120)
        assert f_nonrobust(pd_) == pytest.approx(want, rel=1e-10)

    def test_robust(self):
        rng = np.random.default_rng(1)
        pd_ = make_pd(rng, n=120, kz=3, het=True)
        cov = estimate_moment_cov(pd_)
        zx = pd_.z.T @ pd_.x
        want = float(zx @ np.linalg.solve(z_basis(pd_, cov.v2v2), zx)) / (120 * 3)
        assert f_generalized(pd_, "gmmf") == pytest.approx(want, rel=1e-10)

    def test_effective(self):
        rng = np.random.default_rng(2)
        pd_ = make_pd(rng, n=120, kz=3, het=True)
        cov = estimate_moment_cov(pd_)
        p = proj(pd_.z)
        qn_inv = np.linalg.inv(pd_.z.T @ pd_.z / 120)
        w2 = z_basis(pd_, cov.v2v2)
        want = float(pd_.x @ p @ pd_.x) / float(np.trace(w2 @ qn_inv))
        assert f_generalized(pd_, "2sls") == pytest.approx(want, rel=1e-10)


class TestSpecializations:
    """A custom weight is given on the columns of z, so the textbook 2SLS
    and GMMf weights (z'z/n)^{-1} and W2_z^{-1} reproduce the named ones."""

    def test_generalized_to_effective(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pd_ = make_pd(rng, n=150, kz=3, het=True)
            omega = np.linalg.inv(pd_.z.T @ pd_.z / pd_.n)
            a = f_generalized(pd_, WeightSpec("custom", omega))
            b = f_generalized(pd_, "2sls")
            assert a == pytest.approx(b, rel=1e-10)

    def test_generalized_to_robust(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            pd_ = make_pd(rng, n=150, kz=3, het=True)
            omega = np.linalg.inv(z_basis(pd_, estimate_moment_cov(pd_).v2v2))
            a = f_generalized(pd_, WeightSpec("custom", omega))
            b = f_generalized(pd_, "gmmf")
            assert a == pytest.approx(b, rel=1e-10)

    def test_generalized_scale_invariance(self):
        rng = np.random.default_rng(5)
        pd_ = make_pd(rng, n=150, kz=4, het=True)
        m = rng.standard_normal((4, 4))
        omega = m @ m.T + 0.3 * np.eye(4)
        a = f_generalized(pd_, WeightSpec("custom", omega))
        b = f_generalized(pd_, WeightSpec("custom", 251.7 * omega))
        assert a == pytest.approx(b, rel=1e-12)

    def test_effective_equals_nonrobust_with_scaled_identity_w2(self):
        """The effective F is x'P_Z x / tr W2 and the nonrobust F is
        x'P_Z x / (k_z sigma^2), so they agree when W2 = sigma^2 z'z/n, whose
        trace in basis q is k_z sigma^2: the one is the other rescaled."""
        rng = np.random.default_rng(6)
        pd_ = make_pd(rng, n=150, kz=3)
        p = proj(pd_.z)
        v2 = pd_.x - p @ pd_.x
        sigma2 = float(v2 @ v2) / pd_.n
        tr_w2 = float(np.trace(estimate_moment_cov(pd_).v2v2))
        assert f_generalized(pd_, "2sls") * tr_w2 / (3 * sigma2) == pytest.approx(
            f_nonrobust(pd_), rel=1e-10
        )


def test_weighted_f_equal_the_test_statistics_bit_for_bit():
    """The generalized F at the 2SLS, GMMf and custom weights is the
    statistic weak_iv_test tests at the same weight, exactly; a custom omega
    is read on the columns of z by both."""
    rng = np.random.default_rng(25)
    n, kz = 200, 4
    for _ in range(60):
        z = 1.0 + rng.standard_normal((n, kz))
        scale = np.sqrt(0.5 + z[:, 0] ** 2)
        e = rng.standard_normal((n, 2)) * scale[:, None]
        x = z @ rng.uniform(0.05, 0.3, kz) + e[:, 1]
        y = 0.5 * x + 0.6 * e[:, 1] + 0.8 * e[:, 0]
        pd_ = partial_out(Dataset(y=y, x=x, z=z, controls=np.ones((n, 1))))
        custom = WeightSpec("custom", random_spd(rng, kz))
        for spec in ("gmmf", "2sls", custom):
            assert f_generalized(pd_, spec) == weak_iv_test(pd_, spec).statistic


class TestValidation:
    def test_omega_must_be_spd(self):
        rng = np.random.default_rng(7)
        pd_ = make_pd(rng, n=100, kz=2)
        with pytest.raises(InputError, match="wrong shape"):
            f_generalized(pd_, WeightSpec("custom", np.eye(3)))
        with pytest.raises(InputError, match="symmetric"):
            f_generalized(pd_, WeightSpec("custom", np.array([[1.0, 0.4], [0.0, 1.0]])))
        with pytest.raises(InputError, match="positive definite"):
            f_generalized(pd_, WeightSpec("custom", np.array([[1.0, 2.0], [2.0, 1.0]])))


def test_nonrobust_refuses_rank_deficient_instruments():
    """f_nonrobust and the effective F refuse collinear instruments, as the
    moment covariance does, instead of reading an arbitrary direction of
    their QR."""
    rng = np.random.default_rng(26)
    col = rng.standard_normal(100)
    pd_ = PartialledData(y=rng.standard_normal(100), x=col + rng.standard_normal(100),
                         z=np.column_stack([col, col]))
    for stat in (f_nonrobust, lambda d: f_generalized(d, "2sls"), estimate_moment_cov):
        with pytest.raises(NumericalError, match="rank deficient"):
            stat(pd_)
