import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    benchmark_coeffs,
    benchmark_scale,
    concentration,
    make_dataset,
    make_pd,
    nagar_numerator,
    random_spd,
    random_transformed_cov,
    structural_blocks,
    z_basis,
)
from weakiv import (
    Benchmark,
    Dataset,
    MomentCov,
    NoncentralChiSq,
    ResidualCov,
    WeightSpec,
    chisq_quantile,
    critical_value,
    effective_dof,
    estimate_moment_cov,
    f_generalized,
    load_design,
    nagar_bias_grouped,
    partial_out,
    transform_moment_cov,
    weak_iv_test,
    worst_case_bias,
)
from weakiv import weak_test
from weakiv.weak_test import _beta_step, _diagonal_worst_case_bias
from weakiv.errors import InputError, NumericalError


def sym_sqrt(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(vals)) @ vecs.T


def blocks_of(w, kz):
    return w[:kz, :kz], w[:kz, kz:], w[kz:, kz:]


class TestTransform:
    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(0)
        for kz in (1, 2, 4):
            w = random_spd(rng, 2 * kz)
            omega = random_spd(rng, kz, jitter=0.3)
            from helpers import moment_cov_from_full

            cov = moment_cov_from_full(w, kz)
            tc = transform_moment_cov(cov, omega)
            big = np.kron(np.eye(2), sym_sqrt(omega))
            want = big @ w @ big.T
            v1v1, v1v2, v2v2 = blocks_of(want, kz)
            assert np.allclose(tc.v1v1, v1v1, atol=1e-10)
            assert np.allclose(tc.v1v2, v1v2, atol=1e-10)
            assert np.allclose(tc.v2v2, v2v2, atol=1e-10)

    def test_identity_weight_is_noop(self):
        rng = np.random.default_rng(1)
        from helpers import moment_cov_from_full

        w = random_spd(rng, 6)
        cov = moment_cov_from_full(w, 3)
        tc = transform_moment_cov(cov, np.eye(3))
        assert np.allclose(tc.v1v1, cov.v1v1, atol=1e-12)
        assert np.allclose(tc.v1v2, cov.v1v2, atol=1e-12)
        assert np.allclose(tc.v2v2, cov.v2v2, atol=1e-12)

    def test_rejects_indefinite_blocks(self):
        with pytest.raises(NumericalError, match="not positive definite"):
            MomentCov(
                v1v1=np.eye(2),
                v1v2=2.0 * np.eye(2),
                v2v2=np.eye(2),
            )


class TestStructuralBlocks:
    def test_brute_force(self):
        rng = np.random.default_rng(2)
        tc = random_transformed_cov(rng, 3)
        for beta in (-2.3, 0.0, 0.7, 5.0):
            s1, s12 = structural_blocks(beta, tc)
            want1 = (
                tc.v1v1
                - beta * (tc.v1v2 + tc.v1v2.T)
                + beta**2 * tc.v2v2
            )
            want12 = tc.v1v2 - beta * tc.v2v2
            assert np.allclose(s1, want1, atol=1e-12)
            assert np.allclose(s12, want12, atol=1e-12)

    def test_numerator_brute_force(self):
        rng = np.random.default_rng(3)
        tc = random_transformed_cov(rng, 3)
        c = rng.standard_normal(3)
        c /= np.linalg.norm(c)
        for beta in (-1.0, 0.4, 3.3):
            _, s12 = structural_blocks(beta, tc)
            want = (np.trace(s12) - 2 * c @ s12 @ c) / np.trace(tc.v2v2)
            assert nagar_numerator(beta, c, tc) == pytest.approx(want, rel=1e-10)

    def test_numerator_requires_unit_direction(self):
        rng = np.random.default_rng(4)
        tc = random_transformed_cov(rng, 2)
        with pytest.raises(InputError, match="unit vector"):
            nagar_numerator(0.0, np.array([1.0, 1.0]), tc)


class TestBenchmarkScale:
    def test_mop_formula(self):
        rng = np.random.default_rng(5)
        tc = random_transformed_cov(rng, 3)
        bench = Benchmark("mop")
        for beta in (-4.0, 0.0, 1.7):
            s1, _ = structural_blocks(beta, tc)
            want = np.sqrt(np.trace(s1) / np.trace(tc.v2v2))
            assert benchmark_scale(beta, tc, bench) == pytest.approx(want, rel=1e-12)

    def test_ls_formula(self):
        rng = np.random.default_rng(6)
        tc = random_transformed_cov(rng, 3)
        sig = random_spd(rng, 2, jitter=0.4)
        rc = ResidualCov(v1v1=sig[0, 0], v1v2=sig[0, 1], v2v2=sig[1, 1])
        bench = Benchmark("ls", rc)
        for beta in (-4.0, 0.0, 1.7):
            want = np.sqrt(
                (sig[0, 0] - 2 * beta * sig[0, 1] + beta**2 * sig[1, 1])
                / sig[1, 1]
            )
            assert benchmark_scale(beta, tc, bench) == pytest.approx(want, rel=1e-12)

    def test_quadratic_coefficients(self):
        rng = np.random.default_rng(7)
        tc = random_transformed_cov(rng, 4)
        for bench in (Benchmark("mop"), Benchmark("ls", ResidualCov(2.0, 0.8, 1.5))):
            d0, d1 = benchmark_coeffs(tc, bench)
            for beta in (-2.0, 0.3, 6.0):
                want = np.sqrt(d0 + d1 * beta + beta**2)
                assert benchmark_scale(beta, tc, bench) == pytest.approx(
                    want, rel=1e-12
                )

    def test_ls_requires_residual_cov(self):
        with pytest.raises(InputError, match="residual covariance"):
            Benchmark("ls")

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown benchmark"):
            Benchmark("liml")


def grid_sup(tc, bench, m=801):
    """Dense oracle for the worst-case bias at k_z = 2."""
    sym12 = 0.5 * (tc.v1v2 + tc.v1v2.T)
    t12 = np.trace(tc.v1v2)
    t2 = np.trace(tc.v2v2)
    d0, d1 = benchmark_coeffs(tc, bench)
    phi = np.linspace(0.0, np.pi, m, endpoint=False)
    c = np.stack([np.cos(phi), np.sin(phi)])
    cs = np.einsum("im,ij,jm->m", c, sym12, c)
    cw = np.einsum("im,ij,jm->m", c, tc.v2v2, c)
    a = (t12 - 2 * cs) / t2
    b = (2 * cw - t2) / t2
    theta = np.linspace(-np.pi / 2, np.pi / 2, m)
    beta = np.tan(theta[1:-1])
    bm = np.sqrt(d0 + d1 * beta + beta**2)
    vals = np.abs(a[:, None] + b[:, None] * beta[None, :]) / bm[None, :]
    return max(float(vals.max()), float(np.abs(b).max()))


class TestWorstCaseBias:
    def test_matches_dense_grid(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            tc = random_transformed_cov(rng, 2)
            sig = random_spd(rng, 2, jitter=0.3)
            rc = ResidualCov(v1v1=sig[0, 0], v1v2=sig[0, 1], v2v2=sig[1, 1])
            for bench in (Benchmark("mop"), Benchmark("ls", rc)):
                res = worst_case_bias(tc, bench)
                assert res.value == pytest.approx(grid_sup(tc, bench), abs=2e-3)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        tc = random_transformed_cov(rng, 3)
        scaled = MomentCov(
            v1v1=7.0 * tc.v1v1, v1v2=7.0 * tc.v1v2, v2v2=7.0 * tc.v2v2
        )
        a = worst_case_bias(tc, Benchmark("mop")).value
        b = worst_case_bias(scaled, Benchmark("mop")).value
        assert a == pytest.approx(b, rel=1e-10)

    def test_mop_cap(self):
        rng = np.random.default_rng(10)
        for kz in (2, 3, 5):
            for _ in range(10):
                tc = random_transformed_cov(rng, kz)
                res = worst_case_bias(tc, Benchmark("mop"))
                assert res.value <= 1.0 + 1e-6
                assert res.value > 0.0

    def test_argmax_attains_value(self):
        rng = np.random.default_rng(11)
        tc = random_transformed_cov(rng, 3)
        res = worst_case_bias(tc, Benchmark("mop"))
        assert res.value <= res.upper <= res.value * (1.0 + 1e-12)
        if np.isfinite(res.argmax_beta):
            attained = abs(
                nagar_numerator(res.argmax_beta, res.argmax_dir, tc)
            ) / benchmark_scale(res.argmax_beta, tc, Benchmark("mop"))
            assert attained == pytest.approx(res.value, rel=1e-12, abs=0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        tc = random_transformed_cov(rng, 4)
        a = worst_case_bias(tc, Benchmark("mop"))
        b = worst_case_bias(tc, Benchmark("mop"))
        assert a.value == b.value
        assert a.argmax_beta == b.argmax_beta

    def test_draws_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the bias search drew random numbers")

        rng = np.random.default_rng(12)
        pd_ = make_pd(rng, n=300, kz=4, het=True)
        monkeypatch.setattr(weak_test, "RngStream", refuse)
        for kind in ("2sls", "gmmf"):
            res = weak_iv_test(pd_, WeightSpec(kind), method="patnaik")
            assert res.sup.value > 0.0

    @pytest.mark.parametrize("k", [2, 5, 40])
    def test_instrument_permutation_invariance(self, k):
        rng = np.random.default_rng(70 + k)
        tc = random_transformed_cov(rng, k)
        perm = rng.permutation(k)
        blocks = (tc.v1v1, tc.v1v2, tc.v2v2)
        permuted = MomentCov(*(b[np.ix_(perm, perm)] for b in blocks))
        for bench in (Benchmark("mop"), Benchmark("ls", ResidualCov(2.0, 0.5, 1.0))):
            want = worst_case_bias(tc, bench).value
            got = worst_case_bias(permuted, bench).value
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_node_cap_warns_with_gap(self, monkeypatch):
        """Stopped at a cap of a few nodes, the search still brackets the
        supremum of the full search, and weak_iv_test warns with the gap."""
        rng = np.random.default_rng(13)
        pd_ = make_pd(rng, n=400, kz=5, het=True)
        full = weak_iv_test(pd_, WeightSpec("gmmf"))
        assert full.warnings == ()
        assert full.sup.nodes < weak_test._MAX_NODES
        for cap in (4, 9):
            monkeypatch.setattr(weak_test, "_MAX_NODES", cap)
            capped = weak_iv_test(pd_, WeightSpec("gmmf"))
            assert capped.sup.nodes <= max(cap, 6)
            assert capped.sup.value <= full.sup.value * (1.0 + 1e-14)
            assert full.sup.value <= capped.sup.upper
            gap = (capped.sup.upper - capped.sup.value) / capped.sup.value
            assert capped.warnings == (
                f"bias-bound search stopped at its cap of {cap} nodes; the supremum "
                f"may exceed the bound used by up to {gap:.3g} relative",
            )

    def test_tail_limit(self):
        rng = np.random.default_rng(13)
        tc = random_transformed_cov(rng, 3)
        lam, vecs = np.linalg.eigh(tc.v2v2)
        target = 1.0 - 2.0 * lam[0] / np.trace(tc.v2v2)
        c = vecs[:, 0]
        for beta in (1e8, -1e8):
            val = abs(nagar_numerator(beta, c, tc)) / benchmark_scale(
                beta, tc, Benchmark("mop")
            )
            assert val == pytest.approx(target, abs=1e-6)


def diagonal_blocks():
    """(v1v1, v1v2, v2v2) diagonals of a positive definite transformed
    covariance with 2 to 12 groups."""
    def blocks(g):
        var = st.lists(st.floats(0.05, 20.0), min_size=g, max_size=g)
        corr = st.lists(st.floats(-0.99, 0.99), min_size=g, max_size=g)
        return st.tuples(var, corr, var)

    def build(parts):
        v1v1, corr, v2v2 = (np.array(x) for x in parts)
        return v1v1, corr * np.sqrt(v1v1 * v2v2), v2v2

    return st.integers(2, 12).flatmap(blocks).map(build)


class TestDiagonalWorstCaseBias:
    @pytest.mark.parametrize("kind", ["mop", "ls"])
    @given(
        blocks=diagonal_blocks(),
        resid=st.tuples(st.floats(0.1, 5.0), st.floats(-0.95, 0.95), st.floats(0.1, 5.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_search(self, kind, blocks, resid):
        """The max over coordinate axes equals the general search on the
        diagonal matrices, and fails exactly where the search raises."""
        v1v1, v1v2, v2v2 = blocks
        rc = ResidualCov(resid[0], resid[1] * np.sqrt(resid[0] * resid[2]), resid[2])
        bench = Benchmark(kind, rc if kind == "ls" else None)
        rc_cols = tuple(np.array([v]) for v in (rc.v1v1, rc.v1v2, rc.v2v2))
        value, ok = _diagonal_worst_case_bias(
            v1v1[None], v1v2[None], v2v2[None], kind, rc_cols if kind == "ls" else None
        )
        tc = MomentCov(np.diag(v1v1), np.diag(v1v2), np.diag(v2v2))
        try:
            want = worst_case_bias(tc, bench).value
        except NumericalError:
            assert not ok[0]
            return
        assert ok[0]
        # the general search's rounding leaves ~1e-16 where the bound is
        # exactly 0, e.g. equal groups without endogeneity
        assert value[0] == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_rows_are_independent(self):
        rng = np.random.default_rng(31)
        v1v1, v2v2 = rng.uniform(0.5, 3.0, (2, 7, 5))
        v1v2 = rng.uniform(-0.9, 0.9, (7, 5)) * np.sqrt(v1v1 * v2v2)
        value, ok = _diagonal_worst_case_bias(v1v1, v1v2, v2v2, "mop")
        for r in range(7):
            alone, _ = _diagonal_worst_case_bias(v1v1[r:r + 1], v1v2[r:r + 1], v2v2[r:r + 1], "mop")
            assert alone[0] == value[r]
        assert ok.all()


def assert_certified(tc, abs_tol=0.0, directions=2000):
    """Under both benchmarks, `worst_case_bias(tc, bench)` has value <= upper
    <= value*(1 + 1e-12); its value is attained at (argmax_beta, argmax_dir)
    to relative 1e-12; and the closed-form beta maximum of no random unit
    direction exceeds upper. `abs_tol` allows for a value of exactly 0."""
    k = tc.v2v2.shape[0]
    t = np.trace(tc.v2v2)
    c = np.random.default_rng(k).standard_normal((directions, k))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    a = (np.trace(tc.v1v2) - 2.0 * np.einsum("ij,jk,ik->i", c, tc.v1v2, c)) / t
    b = (2.0 * np.einsum("ij,jk,ik->i", c, tc.v2v2, c) - t) / t
    for bench in (Benchmark("mop"), Benchmark("ls", ResidualCov(2.0, 0.5, 1.0))):
        res = worst_case_bias(tc, bench)
        assert res.value <= res.upper <= res.value * (1.0 + 1e-12) + abs_tol
        beta, direction = res.argmax_beta, res.argmax_dir
        if np.isfinite(beta):
            attained = abs(nagar_numerator(beta, direction, tc)) / benchmark_scale(
                beta, tc, bench
            )
        else:
            attained = abs(2.0 * direction @ tc.v2v2 @ direction - t) / t
        assert attained == pytest.approx(res.value, rel=1e-12, abs=abs_tol)
        f, _ = _beta_step(a, b, *benchmark_coeffs(tc, bench))
        assert np.sqrt(f.max()) <= res.upper
    return res


@pytest.mark.filterwarnings("error")
class TestDirectionStep:
    """The bias search's certificate (`assert_certified`) on random dense
    blocks and on inputs with tied, zero or decoupled eigenvalues."""

    @given(k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_spd_blocks(self, k, seed):
        tc = random_transformed_cov(np.random.default_rng(seed), k)
        assert_certified(tc)

    @pytest.mark.parametrize("v2v2", [
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, 2.0, 2.0, 3.0, 3.0],
        [0.5, 2.0, 0.5, 2.0, 0.5],
    ])
    def test_diagonal_blocks_with_ties(self, v2v2):
        v2v2 = np.array(v2v2)
        v1v2 = 0.4 * np.resize([1.0, 1.0, -1.0], v2v2.size) * v2v2
        v1v1 = v1v2**2 / v2v2 + 1.0
        tc = MomentCov(np.diag(v1v1), np.diag(v1v2), np.diag(v2v2))
        assert_certified(tc)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_zero_cross_block(self, k):
        """At k = 2 and w2 = I every unit direction has a = b = 0, so the
        supremum is exactly 0 and upper is the rounding allowance alone."""
        rng = np.random.default_rng(40 + k)
        for w2 in (np.eye(k), random_spd(rng, k)):
            tc = MomentCov(random_spd(rng, k), np.zeros((k, k)), w2)
            assert_certified(tc, abs_tol=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_first_axis_decoupled(self, seed):
        """The first axis is an eigenvector of every S(beta) and the rest
        is dense."""
        rng = np.random.default_rng(60 + seed)
        w = random_spd(rng, 6)
        blocks = [w[:3, :3], w[:3, 3:], w[3:, 3:]]
        for b in blocks:
            b[0, 1:] = b[1:, 0] = 0.0
        tc = MomentCov(*blocks)
        assert_certified(tc)

    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_scalar_cross_block(self, k):
        rng = np.random.default_rng(50 + k)
        w2 = random_spd(rng, k)
        rho = 0.3
        tc = MomentCov(rho * rho * np.linalg.inv(w2) + np.eye(k), rho * np.eye(k), w2)
        assert_certified(tc)

    @pytest.mark.parametrize("k", [1, 3, 12])
    def test_cross_block_proportional_to_lower(self, k):
        """With the cross block 0.7*w2, S(0.7) = 0 and S(beta) = (0.7 - beta)*w2,
        so the bound is the closed-form beta step of a = 0.7*s, b = -s, with s
        the larger of |2 lam - tr w2| / tr w2 over w2's extreme eigenvalues."""
        rng = np.random.default_rng(80 + k)
        w2 = random_spd(rng, k)
        tc = MomentCov(0.49 * w2 + np.eye(k), 0.7 * w2, w2)
        res = assert_certified(tc)
        lam = np.linalg.eigvalsh(w2)
        s = max(abs(2.0 * lam[[0, -1]] - lam.sum()) / lam.sum())
        ls = Benchmark("ls", ResidualCov(2.0, 0.5, 1.0))
        f, _ = _beta_step(0.7 * s, -s, *benchmark_coeffs(tc, ls))
        assert res.value == pytest.approx(np.sqrt(f), rel=1e-12, abs=0.0)

    def test_limit_wins(self):
        """With a zero cross block and an uncorrelated ls benchmark (d1 = 0)
        the bound is the beta -> +-inf limit max |2 lam - tr w2| / tr w2."""
        rng = np.random.default_rng(90)
        w2 = random_spd(rng, 3)
        tc = MomentCov(random_spd(rng, 3), np.zeros((3, 3)), w2)
        res = worst_case_bias(tc, Benchmark("ls", ResidualCov(2.0, 0.0, 1.0)))
        lam = np.linalg.eigvalsh(w2)
        assert np.isinf(res.argmax_beta)
        want = max(abs(2.0 * lam - lam.sum())) / lam.sum()
        assert res.value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert res.value <= res.upper <= res.value * (1.0 + 1e-12)


class TestEffectiveDof:
    def test_identity_gives_dimension(self):
        for k in (1, 3, 10):
            for d in (0.0, 2.0, 14.3):
                assert effective_dof(np.eye(k), d) == pytest.approx(k, rel=1e-12)

    def test_zero_radius_formula(self):
        rng = np.random.default_rng(14)
        w = random_spd(rng, 4)
        want = np.trace(w) ** 2 / np.trace(w @ w)
        assert effective_dof(w, 0.0) == pytest.approx(want, rel=1e-12)

    def test_general_formula(self):
        rng = np.random.default_rng(15)
        w = random_spd(rng, 3)
        d = 5.5
        t = np.trace(w)
        lam_max = np.linalg.eigvalsh(w)[-1]
        want = t**2 * (1 + 2 * d) / (np.trace(w @ w) + 2 * d * t * lam_max)
        assert effective_dof(w, d) == pytest.approx(want, rel=1e-12)

    def test_negative_radius_rejected(self):
        with pytest.raises(InputError, match="radius"):
            effective_dof(np.eye(2), -0.1)

    def test_bounded_by_dimension(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            w = random_spd(rng, k)
            d = float(rng.uniform(0, 30))
            val = effective_dof(w, d)
            assert 0.0 < val <= k + 1e-9


class TestCriticalValue:
    def test_identity_reduces_to_chisq(self):
        for k in (2, 5, 10):
            d = 9.4
            want = chisq_quantile(NoncentralChiSq(k, d * k), 0.95) / k
            assert critical_value(np.eye(k), d, 0.05) == pytest.approx(
                want, rel=1e-10
            )

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(17)
        w = random_spd(rng, 3)
        cvs = [critical_value(w, d, 0.05) for d in (0.0, 1.0, 5.0, 20.0)]
        assert cvs == sorted(cvs)
        assert cvs[0] < cvs[-1]

    def test_smaller_alpha_larger_cv(self):
        rng = np.random.default_rng(18)
        w = random_spd(rng, 3)
        assert critical_value(w, 3.0, 0.01) > critical_value(w, 3.0, 0.05)

    def test_mc_close_to_patnaik_at_identity(self, monkeypatch):
        k, d = 4, 7.0
        pat = critical_value(np.eye(k), d, 0.05, method="patnaik")
        monkeypatch.setattr(weak_test, "_MC_DRAWS", 200000)
        mc = critical_value(np.eye(k), d, 0.05, method="mc", seed=3)
        assert mc == pytest.approx(pat, abs=0.12)

    def test_mc_deterministic(self, monkeypatch):
        rng = np.random.default_rng(19)
        w = random_spd(rng, 3)
        monkeypatch.setattr(weak_test, "_MC_DRAWS", 20000)
        a = critical_value(w, 4.0, 0.05, method="mc", seed=11)
        b = critical_value(w, 4.0, 0.05, method="mc", seed=11)
        assert a == b

    def test_mc_depends_on_eigenvalues_only(self, monkeypatch):
        rng = np.random.default_rng(21)
        w = random_spd(rng, 4)
        rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        lam = np.linalg.eigvalsh(w)
        monkeypatch.setattr(weak_test, "_MC_DRAWS", 5000)
        a = critical_value(w, 3.0, 0.05, method="mc", seed=2)
        b = critical_value(rot @ w @ rot.T, 3.0, 0.05, method="mc", seed=2)
        c = critical_value(np.diag(lam[::-1]), 3.0, 0.05, method="mc", seed=2)
        assert b == pytest.approx(a, rel=1e-12)
        assert c == pytest.approx(a, rel=1e-12)

    def test_batch_matches_one_law_at_a_time(self, monkeypatch):
        """A batch of diagonal laws, as the grouped simulation passes them:
        each row's value is the dense critical value on its diagonal, bit for
        bit under mc; a row with a zero eigenvalue has no mc value, and the
        dense critical value refuses its singular W."""
        lam = np.array([[2.0, 0.5, 1.0], [0.3, 0.3, 4.0], [1.0, 0.0, 2.0]])
        radius = np.array([0.0, 5.0, 2.0])
        monkeypatch.setattr(weak_test, "_MC_DRAWS", 3000)
        mc = weak_test._critical_values(lam, radius, 0.05, "mc", seed=4)
        for row, r, got in zip(lam[:2], radius, mc):
            assert got == critical_value(np.diag(row), r, 0.05, "mc", seed=4)
        assert np.isnan(mc[2])
        with pytest.raises(NumericalError, match="not positive definite"):
            weak_test._critical_values(lam[2], 2.0, 0.05, "mc", seed=4)
        for method in ("mc", "patnaik"):
            with pytest.raises(InputError, match="^w2t must be positive definite$"):
                critical_value(np.diag(lam[2]), 2.0, 0.05, method, seed=4)
        pat = weak_test._critical_values(lam, radius, 0.05)
        for row, r, got in zip(lam[:2], radius, pat):
            assert got == pytest.approx(critical_value(np.diag(row), r, 0.05), rel=1e-12)
        assert pat[2] == pytest.approx(weak_test._critical_values(lam[2], 2.0, 0.05),
                                       rel=1e-12)

    def test_unknown_method(self):
        with pytest.raises(InputError, match="unknown method"):
            critical_value(np.eye(2), 1.0, 0.05, method="bootstrap")

    @pytest.mark.parametrize("w2t, message", [
        ([[1.0, 5.0], [0.0, 1.0]], "w2t must be symmetric"),
        ([1.0, 2.0], r"w2t has the wrong shape \(2,\): expected a square matrix"),
        ([[0.25, 0.75], [0.75, 0.25]], "w2t must be positive definite"),
    ], ids=["asymmetric", "vector", "indefinite"])
    @pytest.mark.parametrize("method", ["patnaik", "mc"])
    def test_w2t_must_be_symmetric_positive_definite(self, w2t, message, method):
        """Before the check, eigvalsh read the lower triangle of an
        asymmetric W (7.3201, the identity's value), a vector raised a bare
        LinAlgError, and W with eigenvalues (1, -0.5) gave 13.62."""
        if method == "patnaik":
            with pytest.raises(InputError, match=f"^{message}$"):
                effective_dof(w2t, 1.0)
        with pytest.raises(InputError, match=f"^{message}$"):
            critical_value(w2t, 1.0, 0.05, method)

    def test_symmetric_w2t_keeps_its_bits(self):
        """An exactly symmetric W is read as it is: its critical value and
        effective dof are those of its eigenvalues, bit for bit."""
        w = random_spd(np.random.default_rng(22), 4)
        w = 0.5 * (w + w.T)
        lam = np.linalg.eigvalsh(w)
        assert critical_value(w, 2.0, 0.05) == float(weak_test._critical_values(lam, 2.0, 0.05))
        assert effective_dof(w, 2.0) == float(weak_test._effective_dof(lam, 2.0))

    def test_overflowing_law_is_a_numerical_error(self):
        """On W = diag(1e160, 1) at radius 1e200, tr W^2 and with it keff
        overflow: one law raises a NumericalError, not an InputError on a df
        the caller never gave, and emits no floating-point warning."""
        w = np.diag([1e160, 1.0])
        for entry in (lambda: critical_value(w, 1e200, 0.05), lambda: effective_dof(w, 1e200)):
            with pytest.raises(NumericalError, match=r"overflows at radius 1e\+200$"):
                entry()

    def test_overflowing_row_is_nan_in_its_batch(self):
        """A row whose keff overflows is NaN; the other rows are those of the
        batch without it, bit for bit."""
        lam = np.array([[1e160, 1.0], [2.0, 1.0], [0.5, 3.0]])
        radius = np.array([1e200, 3.0, 0.5])
        cv = weak_test._critical_values(lam, radius, 0.05)
        assert np.isnan(cv[0])
        assert cv[1:].tolist() == weak_test._critical_values(lam[1:], radius[1:], 0.05).tolist()


class TestWeakIvTest:
    def test_fast_path_matches_generic_pipeline(self):
        rng = np.random.default_rng(20)
        pd_ = make_pd(rng, n=400, kz=3, het=True)
        res = weak_iv_test(pd_, WeightSpec("gmmf"), benchmark="mop")

        cov = estimate_moment_cov(pd_)
        tc = transform_moment_cov(cov, np.linalg.inv(cov.v2v2))
        omega = np.linalg.inv(z_basis(pd_, cov.v2v2))
        stat = f_generalized(pd_, WeightSpec("custom", omega))
        sup = worst_case_bias(tc, Benchmark("mop"))
        radius = sup.value / 0.1
        keff = effective_dof(tc.v2v2, radius)
        cv = critical_value(tc.v2v2, radius, 0.05)
        assert res.statistic == pytest.approx(stat, rel=1e-8)
        assert res.bias_bound == pytest.approx(sup.value, rel=1e-8)
        assert res.effective_dof == pytest.approx(keff, rel=1e-6)
        assert res.cv == pytest.approx(cv, rel=1e-6)

    @pytest.mark.parametrize("scale", [1e-3, 1e-6])
    def test_ls_benchmark_does_not_depend_on_units(self, scale):
        """The residual covariance's singularity rule is relative to its
        diagonal, so y and x in other units give the same bias bound."""
        data = make_dataset(np.random.default_rng(1), n=500, kz=3)
        base = weak_iv_test(partial_out(data), "2sls")
        scaled = Dataset(y=data.y * scale, x=data.x * scale, z=data.z)
        res = weak_iv_test(partial_out(scaled), "2sls")
        assert base.bias_bound == pytest.approx(0.430847, abs=5e-7)
        assert res.bias_bound == pytest.approx(base.bias_bound, rel=1e-12)

    @pytest.mark.parametrize("kind", ["2sls", "gmmf"])
    @pytest.mark.parametrize("bench", ["ls", "mop"])
    @pytest.mark.parametrize("sy, sx", [(1e12, 1.0), (1e-12, 1.0), (1.0, 1e12),
                                        (1.0, 1e-12), (1e12, 1e12), (1e-12, 1e-12)])
    def test_bias_search_allowance_has_no_units(self, kind, bench, sy, sx):
        """The bias search runs over beta / sqrt(d0), so its rounding
        allowance has no units: y or x scaled by 1e+-12 leave the bound and
        its certified gap as they were, and the argmax beta scales by sy/sx."""
        data = make_dataset(np.random.default_rng(3), n=1000, kz=4, het=True)
        base = weak_iv_test(partial_out(data), kind, benchmark=bench).sup
        scaled = Dataset(y=data.y * sy, x=data.x * sx, z=data.z)
        sup = weak_iv_test(partial_out(scaled), kind, benchmark=bench).sup
        assert sup.upper - sup.value <= 1e-12 * sup.value
        assert sup.value == pytest.approx(base.value, rel=1e-12)
        assert sup.argmax_beta * sx / sy == pytest.approx(base.argmax_beta, rel=1e-6)

    @pytest.mark.parametrize("named", ["2sls", "gmmf"])
    def test_custom_weight_reproduces_named_weight(self, named):
        rng = np.random.default_rng(26)
        pd_ = make_pd(rng, n=400, kz=3, het=True)
        if named == "2sls":
            omega = np.linalg.inv(pd_.z.T @ pd_.z / pd_.n)
        else:
            omega = np.linalg.inv(z_basis(pd_, estimate_moment_cov(pd_).v2v2))
        want = weak_iv_test(pd_, WeightSpec(named))
        got = weak_iv_test(pd_, WeightSpec("custom", omega=omega))
        for field in ("bias_bound", "radius", "effective_dof", "cv"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-9)
        assert got.statistic == pytest.approx(want.statistic, rel=1e-9)
        assert got.reject == want.reject

    @pytest.mark.parametrize("kind", ["2sls", "gmmf"])
    @pytest.mark.parametrize("kz", [1, 3])
    def test_tau_near_zero_on_large_x_is_a_numerical_error(self, kind, kz):
        """At tau 1e-300 with x scaled by 1e21 the critical value's law
        overflows or passes the largest noncentrality: a NumericalError,
        without a floating-point warning."""
        data = make_dataset(np.random.default_rng(3), n=200, kz=kz)
        pd_ = partial_out(Dataset(y=data.y, x=data.x * 1e21, z=data.z))
        with pytest.raises(NumericalError, match=r"overflows at radius|above 2e\+07"):
            weak_iv_test(pd_, kind, tau=1e-300)

    def test_reject_consistency(self):
        rng = np.random.default_rng(22)
        for strength in (0.05, 1.5):
            pd_ = make_pd(rng, n=300, kz=3, strength=strength)
            res = weak_iv_test(pd_, WeightSpec("2sls"))
            assert res.reject == (res.statistic > res.cv)

    def test_conservative_requires_mop(self):
        rng = np.random.default_rng(23)
        pd_ = make_pd(rng, n=300, kz=3)
        with pytest.raises(InputError, match="conservative"):
            weak_iv_test(pd_, WeightSpec("gmmf"), method="conservative")

    def test_conservative_dominates_patnaik(self):
        rng = np.random.default_rng(24)
        pd_ = make_pd(rng, n=300, kz=3, het=True)
        cons = weak_iv_test(
            pd_, WeightSpec("gmmf"), benchmark="mop", method="conservative"
        )
        pat = weak_iv_test(pd_, WeightSpec("gmmf"), benchmark="mop")
        assert cons.bias_bound == 1.0
        assert cons.radius == pytest.approx(10.0)
        assert cons.cv >= pat.cv - 1e-9

    def test_validation(self):
        rng = np.random.default_rng(25)
        pd_ = make_pd(rng, n=300, kz=2)
        with pytest.raises(InputError, match="tau"):
            weak_iv_test(pd_, WeightSpec("2sls"), tau=0.0)
        with pytest.raises(InputError, match="alpha"):
            weak_iv_test(pd_, WeightSpec("2sls"), alpha=1.0)
        with pytest.raises(InputError, match="1 - alpha rounds to 1"):
            weak_iv_test(pd_, WeightSpec("2sls"), alpha=1e-17)
        with pytest.raises(InputError, match="unknown method"):
            weak_iv_test(pd_, WeightSpec("2sls"), method="exact")
        with pytest.raises(InputError, match="unknown benchmark"):
            weak_iv_test(pd_, WeightSpec("2sls"), benchmark="stock-yogo")

    def test_z_factored_once(self, monkeypatch):
        """From partialling through both tests on one dataset, z is factored
        by a single QR and no SVD runs on an n-row matrix; the results equal
        those on fresh copies of the partialled data, which factor z lazily."""
        from weakiv import PartialledData

        for kc in (0, 2):
            rng = np.random.default_rng(28)
            data = make_dataset(rng, n=300, kz=3, kc=kc, het=True, with_cluster=True)
            factored, decomposed = [], []
            qr, svd = np.linalg.qr, np.linalg.svd

            def counting_qr(a, *args, **kwargs):
                factored.append(a)
                return qr(a, *args, **kwargs)

            def counting_svd(a, *args, **kwargs):
                decomposed.append(np.shape(a))
                return svd(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, "qr", counting_qr)
            monkeypatch.setattr(np.linalg, "svd", counting_svd)
            pd_ = partial_out(data)
            shared = [weak_iv_test(pd_, WeightSpec(kind), flavor="cluster")
                      for kind in ("2sls", "gmmf")]
            monkeypatch.undo()
            assert sum(a is pd_.z for a in factored) == 1
            assert len(factored) == (1 if kc == 0 else 2)
            assert all(shape[0] < data.n for shape in decomposed)
            for got, kind in zip(shared, ("2sls", "gmmf")):
                fresh = PartialledData(y=pd_.y, x=pd_.x, z=pd_.z, cluster=pd_.cluster)
                want = weak_iv_test(fresh, WeightSpec(kind), flavor="cluster")
                for field in ("bias_bound", "radius", "effective_dof", "cv", "reject"):
                    assert getattr(got, field) == getattr(want, field)
                assert got.statistic == want.statistic

    def test_z_factored_once_in_blocks(self, monkeypatch):
        """At a row count the QR factors in blocks, z is still factored once:
        one QR call reads pd.z, as its blocks."""
        from weakiv.data import _QR_BLOCK_ROWS

        for kc in (0, 2):
            rng = np.random.default_rng(29)
            data = make_dataset(rng, n=2 * _QR_BLOCK_ROWS + 17, kz=3, kc=kc,
                                het=True, with_cluster=True)
            factored = []
            qr = np.linalg.qr

            def counting_qr(a, *args, **kwargs):
                factored.append(a)
                return qr(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, "qr", counting_qr)
            pd_ = partial_out(data)
            for kind in ("2sls", "gmmf"):
                weak_iv_test(pd_, WeightSpec(kind), flavor="cluster")
            monkeypatch.undo()
            reads_z = [a for a in factored if np.shares_memory(a, pd_.z)]
            assert len(reads_z) == 1
            assert reads_z[0].shape == (2, _QR_BLOCK_ROWS, 3)
            assert len(factored) == (2 if kc == 0 else 4)

    def test_moment_cov_estimated_once(self, monkeypatch):
        """The 2sls and gmmf tests on one dataset share one clustered moment
        covariance: two cluster sums (one per residual), not four."""
        from weakiv import estimators

        rng = np.random.default_rng(29)
        pd_ = make_pd(rng, n=300, kz=3, het=True, with_cluster=True)
        summed = []
        cluster_sums = estimators._cluster_sums

        def counting_sums(scores, labels):
            summed.append(scores.shape)
            return cluster_sums(scores, labels)

        monkeypatch.setattr(estimators, "_cluster_sums", counting_sums)
        for kind in ("2sls", "gmmf"):
            weak_iv_test(pd_, WeightSpec(kind), flavor="cluster")
        assert len(summed) == 2
        cov = estimate_moment_cov(pd_, flavor="cluster")
        assert estimate_moment_cov(pd_, flavor="cluster") is cov
        assert estimate_moment_cov(pd_, flavor="cluster", dof_correction=True) is not cov

    def test_singular_instruments_numerical_error(self):
        from weakiv import PartialledData

        rng = np.random.default_rng(26)
        n = 100
        col = rng.standard_normal(n)
        z = np.column_stack([col, col])
        pd_ = PartialledData(y=rng.standard_normal(n), x=col + rng.standard_normal(n), z=z)
        with pytest.raises(NumericalError):
            weak_iv_test(pd_, WeightSpec("2sls"))

    def test_mc_method_runs(self, monkeypatch):
        rng = np.random.default_rng(27)
        pd_ = make_pd(rng, n=300, kz=2, het=True)
        monkeypatch.setattr(weak_test, "_MC_DRAWS", 20000)
        res = weak_iv_test(pd_, WeightSpec("2sls"), method="mc", mc_seed=1)
        assert res.method == "mc"
        assert res.cv > 0


class TestConcentration:
    def test_identity_case(self):
        c = np.array([1.0, 2.0, 2.0])
        val = concentration(c, np.eye(3), np.eye(3), np.eye(3))
        assert val == pytest.approx(9.0 / 3.0, rel=1e-12)

    def test_matches_grouped_closed_forms(self):
        design = load_design("a2")
        diag = nagar_bias_grouped(design)
        f = np.full(design.G, 1.0 / design.G)
        c = np.sqrt(design.n) * design.pi
        qzz = np.diag(f)
        w2 = np.diag(f * design.var_v2)
        omega_2sls = np.diag(1.0 / f)
        w2t_2sls = sym_sqrt(omega_2sls) @ w2 @ sym_sqrt(omega_2sls)
        got = concentration(c, qzz, w2t_2sls, omega_2sls)
        assert got == pytest.approx(diag.conc_2sls, rel=1e-10)
        omega_gmmf = np.linalg.inv(w2)
        w2t_gmmf = sym_sqrt(omega_gmmf) @ w2 @ sym_sqrt(omega_gmmf)
        got = concentration(c, qzz, w2t_gmmf, omega_gmmf)
        assert got == pytest.approx(diag.conc_gmmf, rel=1e-10)


class TestNagarBiasGrouped:
    def test_reference_design_values(self):
        diag = nagar_bias_grouped(load_design("a2"))
        assert diag.conc_2sls == pytest.approx(8.45, abs=0.01)
        assert diag.conc_gmmf == pytest.approx(43.09, abs=0.01)
        assert diag.nagar_2sls == pytest.approx(0.022, abs=0.001)
        assert diag.nagar_gmmf == pytest.approx(0.023, abs=0.001)

    def test_requires_structural_covariances(self):
        with pytest.raises(InputError):
            nagar_bias_grouped(load_design("me"))

    def test_zero_coefficients_rejected(self):
        from weakiv import GroupedDesign

        design = GroupedDesign(
            pi0=np.zeros(4),
            var_v2=np.ones(4),
            n=100,
            var_u=np.ones(4),
            cov_uv2=np.full(4, 0.3),
        )
        with pytest.raises(NumericalError, match="zero concentration"):
            nagar_bias_grouped(design)
