"""End-to-end accuracy suite.

Each test pins one headline property of the package at its stated tolerance:
exact algebraic identities, the worst-case bias bound against a dense grid
oracle, distribution accuracy, reference values for the shipped grouped
designs, and the benchmark-coincidence property. Runtime-sensitive suites
also assert their time budget.
"""

import time

import numpy as np
import pytest

from helpers import (
    benchmark_coeffs,
    benchmark_scale,
    make_pd,
    nagar_numerator,
    random_spd,
    z_basis,
)
from weakiv import (
    Benchmark,
    MomentCov,
    NoncentralChiSq,
    ResidualCov,
    RngStream,
    WeightSpec,
    chisq_cdf,
    chisq_quantile,
    critical_value,
    estimate,
    estimate_moment_cov,
    f_generalized,
    generate,
    group_stats,
    load_design,
    nagar_bias_grouped,
    run_sim,
    transform_moment_cov,
    worst_case_bias,
)
from weakiv.grouped_sim import random_design_comparison


@pytest.fixture(scope="module")
def me_summary():
    return run_sim(load_design("me"), 2000, seed=0)


def test_fstat_and_estimator_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for i in range(100):
        kz = (1, 2, 3, 5)[i % 4]
        pd_ = make_pd(rng, n=120, kz=kz, het=(i % 2 == 0))
        cov = estimate_moment_cov(pd_)
        qn_inv = np.linalg.inv(pd_.z.T @ pd_.z / pd_.n)
        # generalized statistic specializes to the effective and robust ones
        # at their textbook weights on the columns of z
        assert f_generalized(pd_, WeightSpec("custom", qn_inv)) == pytest.approx(
            f_generalized(pd_, "2sls"), rel=1e-10
        )
        w2_z = z_basis(pd_, cov.v2v2)
        assert f_generalized(pd_, WeightSpec("custom", np.linalg.inv(w2_z))) == (
            pytest.approx(f_generalized(pd_, "gmmf"), rel=1e-10)
        )
        # estimator dual formulas
        q, _ = np.linalg.qr(pd_.z)
        px = q @ (q.T @ pd_.x)
        want_2sls = float(px @ pd_.y) / float(px @ pd_.x)
        assert estimate(pd_, WeightSpec("2sls")).beta_hat == pytest.approx(
            want_2sls, rel=1e-10
        )
        zx = pd_.z.T @ pd_.x
        t = np.linalg.solve(w2_z, zx)
        want_gmmf = float(t @ (pd_.z.T @ pd_.y)) / float(t @ zx)
        assert estimate(pd_, WeightSpec("gmmf")).beta_hat == pytest.approx(
            want_gmmf, rel=1e-10
        )
        # weight-scale invariance
        omega = random_spd(rng, kz, jitter=0.3)
        a = f_generalized(pd_, WeightSpec("custom", omega))
        b = f_generalized(pd_, WeightSpec("custom", 31.7 * omega))
        assert a == pytest.approx(b, rel=1e-10)
    # grouped decomposition and weight-sum identities
    from weakiv import GroupedDesign

    for seed in range(20):
        rg = np.random.default_rng(1000 + seed)
        g = int(rg.integers(3, 8))
        design = GroupedDesign(
            pi0=rg.uniform(-0.7, 0.7, g),
            var_v2=rg.uniform(0.4, 3.0, g),
            n=400,
            beta=0.2,
            var_u=rg.uniform(0.5, 2.0, g),
            cov_uv2=rg.uniform(-0.2, 0.2, g),
        )
        gs = group_stats(generate(design, rng=seed))
        assert gs.weights_2sls.sum() == pytest.approx(1.0, abs=1e-10)
        assert gs.weights_gmmf.sum() == pytest.approx(1.0, abs=1e-10)
        assert float(np.sum(gs.weights_2sls * gs.beta_per_group)) == (
            pytest.approx(gs.beta_2sls, rel=1e-10)
        )
        assert float(np.sum(gs.weights_gmmf * gs.beta_per_group)) == (
            pytest.approx(gs.beta_gmmf, rel=1e-10)
        )
    assert time.perf_counter() - start < 10.0


def test_bias_bound_cap_and_tail_limit():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    kzs = (2, 3, 5, 10)
    for i in range(200):
        kz = kzs[i % 4]
        w = random_spd(rng, 2 * kz)
        tc = MomentCov(
            v1v1=w[:kz, :kz], v1v2=w[:kz, kz:], v2v2=w[kz:, kz:]
        )
        res = worst_case_bias(tc, Benchmark("mop"))
        assert res.value <= 1.0 + 1e-6
        lam, vecs = np.linalg.eigh(tc.v2v2)
        target = 1.0 - 2.0 * lam[0] / np.trace(tc.v2v2)
        direction = vecs[:, 0]
        for beta in (1e8, -1e8):
            got = abs(nagar_numerator(beta, direction, tc)) / benchmark_scale(
                beta, tc, Benchmark("mop")
            )
            assert got == pytest.approx(target, abs=1e-6)
    assert time.perf_counter() - start < 60.0


def dense_grid_sup(tc, bench, m=2001):
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


def test_bias_bound_matches_dense_grid():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(20):
        w = random_spd(rng, 4)
        tc = MomentCov(v1v1=w[:2, :2], v1v2=w[:2, 2:], v2v2=w[2:, 2:])
        sig = random_spd(rng, 2, jitter=0.3)
        rc = ResidualCov(v1v1=sig[0, 0], v1v2=sig[0, 1], v2v2=sig[1, 1])
        for bench in (Benchmark("mop"), Benchmark("ls", rc)):
            mine = worst_case_bias(tc, bench).value
            oracle = dense_grid_sup(tc, bench)
            assert mine == pytest.approx(oracle, abs=1e-4)
    assert time.perf_counter() - start < 120.0


def test_chi_square_accuracy():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = NoncentralChiSq(float(rng.uniform(0.4, 40)), float(rng.uniform(0, 250)))
        p = float(rng.uniform(1e-3, 1 - 1e-3))
        assert chisq_cdf(d, chisq_quantile(d, p)) == pytest.approx(p, abs=1e-8)
    published = {
        (1.0, 0.95): 3.841459,
        (2.0, 0.95): 5.991465,
        (5.0, 0.95): 11.070498,
        (10.0, 0.95): 18.307038,
        (20.0, 0.95): 31.410433,
    }
    for (df, p), want in published.items():
        assert chisq_quantile(NoncentralChiSq(df), p) == pytest.approx(
            want, abs=1e-3
        )
    # conservative critical value for the robust statistic vs Monte Carlo
    for kz in (2, 5, 10):
        cv = chisq_quantile(NoncentralChiSq(kz, kz / 0.1), 0.95) / kz
        cv_api = critical_value(np.eye(kz), 1.0 / 0.1, 0.05)
        assert cv_api == pytest.approx(cv, rel=1e-10)
        gen = RngStream(123, kz).generator()
        draws = gen.noncentral_chisquare(kz, kz / 0.1, size=200000) / kz
        mc = float(np.quantile(draws, 0.95))
        h = float(np.std(draws)) * 0.1
        dens = float(np.mean(np.abs(draws - mc) < h)) / (2 * h)
        se = np.sqrt(0.95 * 0.05 / draws.size) / dens
        assert abs(cv - mc) < 3 * se


def test_first_stage_f_means(me_summary):
    assert me_summary.means["f_stat"] == pytest.approx(1.411, abs=0.05)
    assert me_summary.means["f_eff"] == pytest.approx(1.411, abs=0.05)
    assert me_summary.means["f_r"] == pytest.approx(80.23, abs=0.6)
    he = run_sim(load_design("he"), 2000, seed=0)
    assert he.means["f_stat"] == pytest.approx(0.993, abs=0.05)
    assert he.means["f_eff"] == pytest.approx(0.993, abs=0.05)
    assert he.means["f_r"] == pytest.approx(80.12, abs=0.6)


def test_dominant_group_f_and_weights(me_summary):
    assert me_summary.group_means["f_per_group"][0] == pytest.approx(789.5, abs=8)
    assert me_summary.group_means["weights_2sls"][0] == pytest.approx(
        0.126, abs=0.01
    )
    assert me_summary.group_means["weights_gmmf"][0] == pytest.approx(
        0.984, abs=0.005
    )


def test_bias_diagnostics_reference_design():
    design = load_design("a2")
    diag = nagar_bias_grouped(design)
    assert diag.conc_gmmf == pytest.approx(43.09, abs=0.01)
    assert diag.conc_2sls == pytest.approx(8.45, abs=0.01)
    assert diag.nagar_2sls == pytest.approx(0.022, abs=0.001)
    assert diag.nagar_gmmf == pytest.approx(0.023, abs=0.001)

    summ = run_sim(design, 2000, seed=0)
    assert summ.means["f_eff"] == pytest.approx(9.49, abs=0.2)
    assert summ.means["f_r"] == pytest.approx(44.24, abs=0.5)
    assert summ.means["cv_eff"] == pytest.approx(15.85, abs=0.1)
    assert summ.means["cv_r"] == pytest.approx(19.47, abs=0.1)
    assert summ.means["beta_2sls"] - design.beta == pytest.approx(0.022, abs=0.01)
    assert summ.means["beta_gmmf"] - design.beta == pytest.approx(0.024, abs=0.015)
    assert summ.rejection_rates["weak_eff"] <= 0.005
    assert summ.rejection_rates["weak_r"] >= 0.995
    assert summ.rejection_rates["wald_2sls"] == pytest.approx(0.062, abs=0.015)
    assert summ.rejection_rates["wald_gmmf"] == pytest.approx(0.049, abs=0.015)


def test_reconstructed_design_qualitative_pattern():
    summ = run_sim(load_design("me_reconstructed"), 2000, seed=0)
    assert summ.rejection_rates["weak_eff"] == 0.0
    assert summ.rejection_rates["weak_r"] == 1.0
    bias_2sls = abs(summ.means["beta_2sls"])
    bias_gmmf = abs(summ.means["beta_gmmf"])
    assert bias_gmmf < 0.1 * bias_2sls
    assert summ.rejection_rates["wald_gmmf"] == pytest.approx(0.05, abs=0.03)


def test_random_design_comparison_fraction():
    comp = random_design_comparison(count=1000, seed=0)
    assert comp.count == 1000
    assert 0.9 <= comp.fraction_2sls_worse <= 1.0


def test_homoskedastic_benchmark_coincidence():
    rng = np.random.default_rng(4)
    for kz in (2, 3, 5, 10):
        sig = random_spd(rng, 2, jitter=0.4)
        q = random_spd(rng, kz, jitter=0.3)
        w = np.kron(sig, q)
        cov = MomentCov(v1v1=w[:kz, :kz], v1v2=w[:kz, kz:], v2v2=w[kz:, kz:])
        omega = random_spd(rng, kz, jitter=0.3)
        tc = transform_moment_cov(cov, omega)
        rc = ResidualCov(v1v1=sig[0, 0], v1v2=sig[0, 1], v2v2=sig[1, 1])
        b_mop = worst_case_bias(tc, Benchmark("mop")).value
        b_ls = worst_case_bias(tc, Benchmark("ls", rc)).value
        cv_mop = critical_value(tc.v2v2, b_mop / 0.1, 0.05)
        cv_ls = critical_value(tc.v2v2, b_ls / 0.1, 0.05)
        assert abs(cv_mop - cv_ls) < 1e-6
