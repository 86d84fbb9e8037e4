import math

import numpy as np
import pytest
import scipy.stats

from helpers import ill_conditioned_dataset, make_dataset, make_pd, z_basis
from weakiv import (
    PartialledData,
    WeightSpec,
    critical_value,
    estimate,
    estimate_moment_cov,
    f_generalized,
    ols,
    partial_out,
    residual_cov,
    wald_test,
    weak_iv_test,
    weight_matrix,
)
from weakiv.errors import InputError, NumericalError


def proj(z):
    q, _ = np.linalg.qr(z)
    return q @ q.T


class TestWeightSpec:
    def test_two_step_refused(self):
        for kind in ("two-step", "twostep", "two_step", "2step"):
            with pytest.raises(InputError, match="two-step GMM is not supported"):
                WeightSpec(kind)

    def test_custom_requires_spd(self):
        with pytest.raises(InputError, match="requires an omega"):
            WeightSpec("custom")
        with pytest.raises(InputError, match="symmetric"):
            WeightSpec("custom", omega=np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(InputError, match="positive definite"):
            WeightSpec("custom", omega=np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_symmetry_is_judged_at_any_scale(self, scale):
        """A matrix far from symmetric is refused, and one asymmetric in its
        last digits accepted, in whatever units it comes: the rule is the
        one at unit scale."""
        far = np.array([[1.0, 1.0], [0.0, 1.0]]) * scale
        near = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]]) * scale
        with pytest.raises(InputError, match="^omega must be symmetric$"):
            WeightSpec("custom", omega=far)
        with pytest.raises(InputError, match="^w2t must be symmetric$"):
            critical_value(far, 1.0, 0.05)
        omega = WeightSpec("custom", omega=near).omega
        assert np.array_equal(omega, omega.T)
        assert math.isfinite(critical_value(near, 1.0, 0.05))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_omega_is_refused(self, bad):
        with pytest.raises(InputError, match="^omega must be finite$"):
            WeightSpec("custom", omega=np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_named_kinds_take_no_omega(self):
        with pytest.raises(InputError, match="does not take an omega"):
            WeightSpec("2sls", omega=np.eye(2))

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown weight kind"):
            WeightSpec("liml")


class TestDualFormulas:
    def test_2sls_equals_projection_ratio(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pd_ = make_pd(rng, n=150, kz=3)
            res = estimate(pd_, WeightSpec("2sls"))
            p = proj(pd_.z)
            want = float(pd_.x @ p @ pd_.y) / float(pd_.x @ p @ pd_.x)
            assert res.beta_hat == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_gmmf_equals_weighted_ratio(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pd_ = make_pd(rng, n=150, kz=3, het=True)
            cov = estimate_moment_cov(pd_)
            res = estimate(pd_, WeightSpec("gmmf"))
            zx = pd_.z.T @ pd_.x
            zy = pd_.z.T @ pd_.y
            t = np.linalg.solve(z_basis(pd_, cov.v2v2), zx)
            want = float(t @ zy) / float(t @ zx)
            assert res.beta_hat == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_omega_scale_invariance(self):
        rng = np.random.default_rng(2)
        pd_ = make_pd(rng, n=200, kz=4)
        m = rng.standard_normal((4, 4))
        omega = m @ m.T + 0.2 * np.eye(4)
        r1 = estimate(pd_, WeightSpec("custom", omega=omega))
        r2 = estimate(pd_, WeightSpec("custom", omega=17.3 * omega))
        assert r1.beta_hat == pytest.approx(r2.beta_hat, rel=1e-12)
        assert r1.se_robust == pytest.approx(r2.se_robust, rel=1e-10)
        assert r1.se_nonrobust == pytest.approx(r2.se_nonrobust, rel=1e-10)

    def test_single_instrument_weight_irrelevant(self):
        rng = np.random.default_rng(3)
        pd_ = make_pd(rng, n=120, kz=1, het=True)
        b = [
            estimate(pd_, WeightSpec("2sls")).beta_hat,
            estimate(pd_, WeightSpec("gmmf")).beta_hat,
            estimate(pd_, WeightSpec("custom", omega=np.array([[3.7]]))).beta_hat,
        ]
        assert b[0] == pytest.approx(b[1], rel=1e-12)
        assert b[0] == pytest.approx(b[2], rel=1e-12)


class TestWeightMatrix:
    @pytest.mark.parametrize("kind", ["2sls", "gmmf", "custom"])
    def test_exactly_symmetric_on_ill_conditioned_instruments(self, kind):
        """cond(Z) = 1e4. The custom weight is an inverse as computed,
        asymmetric in its last bits, which WeightSpec symmetrizes."""
        pd_ = partial_out(ill_conditioned_dataset())
        a = np.random.default_rng(29).standard_normal((pd_.k_z, pd_.k_z))
        custom = np.linalg.inv(a @ a.T + np.eye(pd_.k_z))
        assert not np.array_equal(custom, custom.T)
        spec = WeightSpec(kind, custom if kind == "custom" else None)
        omega = weight_matrix(pd_, spec)
        assert np.array_equal(omega, omega.T)

    @pytest.mark.parametrize("flavor, dof", [("hc0", False), ("cluster", True)])
    def test_gmmf_inverts_the_moment_cov_of_its_flavor(self, flavor, dof):
        """The gmmf weight is formed from the moment covariance that
        `estimate_moment_cov` gives for the same flavor and correction."""
        pd_ = make_pd(np.random.default_rng(30), n=100, kz=3, with_cluster=True)
        w2 = estimate_moment_cov(pd_, flavor, dof).v2v2
        omega = weight_matrix(pd_, "gmmf", flavor, dof)
        assert np.linalg.norm(omega @ w2 - np.eye(3)) <= 1e-12
        if flavor != "hc0":
            assert not np.allclose(omega, weight_matrix(pd_, "gmmf"))

    @pytest.mark.parametrize("entry", [estimate, weight_matrix, f_generalized, weak_iv_test])
    def test_custom_omega_must_be_k_by_k(self, entry):
        """A custom weight of the wrong size is refused with the instrument
        count, not left to a bare numpy shape error."""
        pd_ = make_pd(np.random.default_rng(9), n=100, kz=3)
        for k in (2, 4):
            with pytest.raises(InputError, match=f"wrong shape \\({k}, {k}\\): expected a 3x3"):
                entry(pd_, WeightSpec("custom", np.eye(k)))

    def test_string_kinds_equal_their_weight_specs(self):
        """Every entry point reads a kind string as its WeightSpec, bit for
        bit, and refuses an unknown one."""
        pd_ = make_pd(np.random.default_rng(31), n=200, kz=3, het=True, with_cluster=True)
        kw = {"flavor": "cluster", "dof_correction": True}
        for kind in ("2sls", "gmmf", "GMM-F"):
            spec = WeightSpec(kind)
            assert np.array_equal(weight_matrix(pd_, kind, **kw), weight_matrix(pd_, spec, **kw))
            assert vars(estimate(pd_, kind, **kw)) == vars(estimate(pd_, spec, **kw))
            assert f_generalized(pd_, kind, **kw) == f_generalized(pd_, spec, **kw)
            got, want = weak_iv_test(pd_, kind, **kw), weak_iv_test(pd_, spec, **kw)
            for field in ("statistic", "bias_bound", "radius", "effective_dof", "cv", "reject"):
                assert getattr(got, field) == getattr(want, field)
        for entry in (estimate, weight_matrix, f_generalized, weak_iv_test):
            with pytest.raises(InputError, match="unknown weight kind 'liml'"):
                entry(pd_, "liml")

    def test_2sls_is_the_inverse_instrument_cross_product(self):
        pd_ = make_pd(np.random.default_rng(28), n=400, kz=4, kc=3)
        want = np.linalg.inv(pd_.z.T @ pd_.z / pd_.n)
        got = z_basis(pd_, weight_matrix(pd_, WeightSpec("2sls")), weight=True)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["2sls", "gmmf"])
    def test_ill_conditioned_instruments_are_not_an_input_error(self, kind):
        """The package's own weight reaches the omega checks meant for a
        user's matrix; on cond(Z) = 1e4 they once refused it as asymmetric."""
        pd_ = partial_out(ill_conditioned_dataset())
        res = weak_iv_test(pd_, WeightSpec(kind))
        assert math.isfinite(res.cv) and math.isfinite(res.bias_bound)
        assert math.isfinite(estimate(pd_, WeightSpec(kind)).se_nonrobust)


class TestMomentCov:
    def test_hc0_matches_brute_force(self):
        rng = np.random.default_rng(4)
        pd_ = make_pd(rng, n=60, kz=2, het=True)
        cov = estimate_moment_cov(pd_)
        p = proj(pd_.z)
        v1 = pd_.y - p @ pd_.y
        v2 = pd_.x - p @ pd_.x
        n = pd_.n
        blocks = np.zeros((4, 4))
        for i in range(n):
            s = np.concatenate([pd_.z[i] * v1[i], pd_.z[i] * v2[i]])
            blocks += np.outer(s, s) / n
        assert np.allclose(z_basis(pd_, cov.full), blocks, atol=1e-12)

    def test_cluster_matches_brute_force(self):
        rng = np.random.default_rng(5)
        data = make_dataset(rng, n=90, kz=2, with_cluster=True)
        pd_ = partial_out(data)
        cov = estimate_moment_cov(pd_, flavor="cluster")
        p = proj(pd_.z)
        v1 = pd_.y - p @ pd_.y
        v2 = pd_.x - p @ pd_.x
        n = pd_.n
        want = np.zeros((4, 4))
        for g in np.unique(pd_.cluster):
            idx = pd_.cluster == g
            s = np.concatenate(
                [pd_.z[idx].T @ v1[idx], pd_.z[idx].T @ v2[idx]]
            )
            want += np.outer(s, s) / n
        assert np.allclose(z_basis(pd_, cov.full), want, atol=1e-12)

    def test_cluster_count_is_the_number_of_distinct_labels(self):
        """Relabelling the same clusters c as 7c + 3 leaves the corrected
        clustered covariance and robust SEs unchanged: G/(G - 1) counts the
        12 clusters, not the largest label + 1."""
        rng = np.random.default_rng(5)
        pd_ = make_pd(rng, n=300, kz=3, het=True, with_cluster=True)
        assert np.unique(pd_.cluster).size == 12
        relabelled = PartialledData(y=pd_.y, x=pd_.x, z=pd_.z,
                                    cluster=7 * pd_.cluster + 3)
        for block in ("v1v1", "v1v2", "v2v2"):
            want, got = (
                getattr(estimate_moment_cov(d, "cluster", dof_correction=True), block)
                for d in (pd_, relabelled)
            )
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        for kind in ("2sls", "gmmf"):
            want, got = (
                estimate(d, WeightSpec(kind), "cluster", dof_correction=True).se_robust
                for d in (pd_, relabelled)
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_cluster_correction_needs_two_clusters(self):
        rng = np.random.default_rng(9)
        pd_ = make_pd(rng, n=60, kz=2)
        one = PartialledData(y=pd_.y, x=pd_.x, z=pd_.z, cluster=np.full(60, 5))
        with pytest.raises(InputError, match="at least 2 clusters"):
            estimate_moment_cov(one, "cluster", dof_correction=True)

    def test_cluster_needs_labels(self):
        rng = np.random.default_rng(6)
        pd_ = make_pd(rng, n=60, kz=2)
        with pytest.raises(InputError, match="no cluster labels"):
            estimate_moment_cov(pd_, flavor="cluster")

    def test_unknown_flavor(self):
        rng = np.random.default_rng(7)
        pd_ = make_pd(rng, n=60, kz=2)
        with pytest.raises(InputError, match="unknown covariance flavor"):
            estimate_moment_cov(pd_, flavor="hc3")

    def test_dof_correction_scales(self):
        rng = np.random.default_rng(8)
        pd_ = make_pd(rng, n=80, kz=3)
        base = estimate_moment_cov(pd_)
        corr = estimate_moment_cov(pd_, dof_correction=True)
        assert np.allclose(corr.full, base.full * 80 / (80 - 3), rtol=1e-12)

    def test_homoskedastic_limit_kronecker(self):
        rng = np.random.default_rng(10)
        n = 40000
        data = make_dataset(rng, n=n, kz=2, strength=0.0)
        pd_ = partial_out(data)
        cov = estimate_moment_cov(pd_)
        rc = residual_cov(pd_)
        qn = pd_.z.T @ pd_.z / n
        want = np.kron(rc.matrix, qn)
        assert np.abs(cov.full - want).max() < 12.0 / np.sqrt(n)


class TestStandardErrors:
    def test_ols_closed_form(self):
        rng = np.random.default_rng(11)
        pd_ = make_pd(rng, n=100, kz=2)
        res = ols(pd_)
        x, y = pd_.x, pd_.y
        beta = float(x @ y / (x @ x))
        assert res.beta_hat == pytest.approx(beta, rel=1e-12)
        u = y - beta * x
        var_rob = float(np.sum(x**2 * u**2)) / float(x @ x) ** 2
        assert res.se_robust == pytest.approx(np.sqrt(var_rob), rel=1e-10)
        var_nr = float(u @ u) / 100 / float(x @ x)
        assert res.se_nonrobust == pytest.approx(np.sqrt(var_nr), rel=1e-10)

    def test_iv_sandwich_closed_form(self):
        rng = np.random.default_rng(12)
        pd_ = make_pd(rng, n=120, kz=3, het=True)
        res = estimate(pd_, WeightSpec("2sls"))
        n = pd_.n
        omega = np.linalg.inv(pd_.z.T @ pd_.z / n)
        t = omega @ (pd_.z.T @ pd_.x)
        denom = float((pd_.z.T @ pd_.x) @ t)
        u = pd_.y - res.beta_hat * pd_.x
        meat = sum(
            np.outer(pd_.z[i], pd_.z[i]) * u[i] ** 2 for i in range(n)
        )
        want = float(t @ meat @ t) / denom**2
        assert res.se_robust == pytest.approx(np.sqrt(want), rel=1e-10)

    def test_nonrobust_matches_robust_under_homoskedasticity(self):
        rng = np.random.default_rng(13)
        pd_ = make_pd(rng, n=30000, kz=2, strength=1.5)
        res = estimate(pd_, WeightSpec("2sls"))
        assert res.se_robust == pytest.approx(res.se_nonrobust, rel=0.05)

    def test_strong_homoskedastic_2sls_close_to_gmmf(self):
        rng = np.random.default_rng(14)
        pd_ = make_pd(rng, n=20000, kz=3, strength=2.0)
        r1 = estimate(pd_, WeightSpec("2sls"))
        r2 = estimate(pd_, WeightSpec("gmmf"))
        assert r1.beta_hat == pytest.approx(r2.beta_hat, abs=0.01)

    def test_results_are_python_floats(self):
        pd_ = make_pd(np.random.default_rng(19), n=150, kz=2)
        fits = (ols(pd_), estimate(pd_, WeightSpec("2sls")), estimate(pd_, WeightSpec("gmmf")))
        for res in fits:
            for name in ("beta_hat", "se_robust", "se_nonrobust"):
                assert type(getattr(res, name)) is float, name


class TestWald:
    def test_statistic_is_squared_t(self):
        rng = np.random.default_rng(15)
        pd_ = make_pd(rng, n=150, kz=2)
        res = estimate(pd_, WeightSpec("2sls"))
        w = wald_test(res, 0.0)
        t2 = (res.beta_hat / res.se_robust) ** 2
        assert w.statistic == pytest.approx(t2, rel=1e-12)
        assert 0.0 <= w.pvalue <= 1.0

    def test_reference_pvalue(self):
        res = ols(make_pd(np.random.default_rng(16), n=100, kz=1))
        w = wald_test(res, res.beta_hat + 1.959963985 * res.se_robust)
        assert w.pvalue == pytest.approx(0.05, abs=1e-6)

    def test_pvalue_matches_scipy_in_the_tail(self):
        """The p-value is chi2(1)'s survival function, accurate also far into
        its tail, where 1 - CDF cancels to 0."""
        res = ols(make_pd(np.random.default_rng(16), n=100, kz=1))
        for stat in np.logspace(-3, math.log10(1400.0), 41).tolist():
            w = wald_test(res, res.beta_hat - math.sqrt(stat) * res.se_robust)
            want = scipy.stats.chi2.sf(w.statistic, 1)
            assert w.pvalue == pytest.approx(want, rel=1e-12, abs=0.0), stat

    def test_at_null_value(self):
        res = ols(make_pd(np.random.default_rng(17), n=100, kz=1))
        w = wald_test(res, res.beta_hat)
        assert w.statistic == 0.0
        assert w.pvalue == 1.0


class TestDegenerate:
    def test_zero_identification_rejected(self):
        from weakiv import PartialledData

        rng = np.random.default_rng(18)
        n = 100
        z = rng.standard_normal((n, 2))
        pd_ = PartialledData(y=rng.standard_normal(n), x=np.zeros(n), z=z)
        with pytest.raises(NumericalError, match="degenerate identification"):
            estimate(pd_, WeightSpec("2sls"))
