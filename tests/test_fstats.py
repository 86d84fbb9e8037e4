import numpy as np
import pytest

from helpers import make_pd, q_basis, z_basis
from weakiv import (
    PartialledData,
    estimate_moment_cov,
    f_effective,
    f_generalized,
    f_nonrobust,
    f_robust,
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
        assert float(f_nonrobust(pd_)) == pytest.approx(want, rel=1e-10)

    def test_robust(self):
        rng = np.random.default_rng(1)
        pd_ = make_pd(rng, n=120, kz=3, het=True)
        cov = estimate_moment_cov(pd_)
        zx = pd_.z.T @ pd_.x
        want = float(zx @ np.linalg.solve(z_basis(pd_, cov.v2v2), zx)) / (120 * 3)
        assert float(f_robust(pd_, cov.v2v2)) == pytest.approx(want, rel=1e-10)

    def test_effective(self):
        rng = np.random.default_rng(2)
        pd_ = make_pd(rng, n=120, kz=3, het=True)
        cov = estimate_moment_cov(pd_)
        p = proj(pd_.z)
        qn_inv = np.linalg.inv(pd_.z.T @ pd_.z / 120)
        w2 = z_basis(pd_, cov.v2v2)
        want = float(pd_.x @ p @ pd_.x) / float(np.trace(w2 @ qn_inv))
        assert float(f_effective(pd_, cov.v2v2)) == pytest.approx(want, rel=1e-10)


class TestSpecializations:
    def test_generalized_to_effective(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pd_ = make_pd(rng, n=150, kz=3, het=True)
            cov = estimate_moment_cov(pd_)
            omega = q_basis(pd_, np.linalg.inv(pd_.z.T @ pd_.z / pd_.n), weight=True)
            a = float(f_generalized(pd_, cov, omega))
            b = float(f_effective(pd_, cov.v2v2))
            assert a == pytest.approx(b, rel=1e-10)

    def test_generalized_to_robust(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            pd_ = make_pd(rng, n=150, kz=3, het=True)
            cov = estimate_moment_cov(pd_)
            omega = np.linalg.inv(cov.v2v2)
            a = float(f_generalized(pd_, cov, omega))
            b = float(f_robust(pd_, cov.v2v2))
            assert a == pytest.approx(b, rel=1e-10)

    def test_generalized_scale_invariance(self):
        rng = np.random.default_rng(5)
        pd_ = make_pd(rng, n=150, kz=4, het=True)
        cov = estimate_moment_cov(pd_)
        m = rng.standard_normal((4, 4))
        omega = m @ m.T + 0.3 * np.eye(4)
        a = float(f_generalized(pd_, cov, omega))
        b = float(f_generalized(pd_, cov, 251.7 * omega))
        assert a == pytest.approx(b, rel=1e-12)

    def test_effective_equals_nonrobust_with_scaled_identity_w2(self):
        rng = np.random.default_rng(6)
        pd_ = make_pd(rng, n=150, kz=3)
        p = proj(pd_.z)
        v2 = pd_.x - p @ pd_.x
        sigma2 = float(v2 @ v2) / pd_.n
        w2 = q_basis(pd_, sigma2 * (pd_.z.T @ pd_.z / pd_.n))
        assert float(f_effective(pd_, w2)) == pytest.approx(
            float(f_nonrobust(pd_)), rel=1e-10
        )


class TestValidation:
    def test_omega_must_be_spd(self):
        rng = np.random.default_rng(7)
        pd_ = make_pd(rng, n=100, kz=2)
        cov = estimate_moment_cov(pd_)
        with pytest.raises(InputError, match="wrong shape"):
            f_generalized(pd_, cov, np.eye(3))
        with pytest.raises(InputError, match="symmetric"):
            f_generalized(pd_, cov, np.array([[1.0, 0.4], [0.0, 1.0]]))
        with pytest.raises(InputError, match="positive definite"):
            f_generalized(pd_, cov, np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("stat", [f_effective, f_robust])
    def test_w2_must_be_k_by_k(self, stat):
        """A 2x2 w2 on 3 instruments is refused, not read as a short trace
        or a bare numpy shape error."""
        pd_ = make_pd(np.random.default_rng(9), n=100, kz=3)
        for w2 in (np.eye(2), np.eye(4), np.ones(3), np.eye(3)[:, :2]):
            with pytest.raises(InputError, match="wrong shape"):
                stat(pd_, w2)

    def test_kinds_labelled(self):
        rng = np.random.default_rng(8)
        pd_ = make_pd(rng, n=100, kz=2)
        cov = estimate_moment_cov(pd_)
        assert f_nonrobust(pd_).kind == "nonrobust"
        assert f_robust(pd_, cov.v2v2).kind == "robust"
        assert f_effective(pd_, cov.v2v2).kind == "effective"
        assert f_generalized(pd_, cov, np.eye(2)).kind == "generalized"


def test_nonrobust_refuses_rank_deficient_instruments():
    """f_nonrobust and f_effective refuse collinear instruments, as the
    moment covariance does, instead of reading an arbitrary direction of
    their QR."""
    rng = np.random.default_rng(26)
    col = rng.standard_normal(100)
    pd_ = PartialledData(y=rng.standard_normal(100), x=col + rng.standard_normal(100),
                         z=np.column_stack([col, col]))
    for stat in (f_nonrobust, lambda d: f_effective(d, np.eye(2)), estimate_moment_cov):
        with pytest.raises(NumericalError, match="rank deficient"):
            stat(pd_)
