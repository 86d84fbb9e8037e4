import dataclasses
import math
import re
import warnings as warnings_mod
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from weakiv import (
    GroupedDesign,
    RngStream,
    WeightSpec,
    available_designs,
    estimate,
    estimate_moment_cov,
    f_effective,
    f_nonrobust,
    f_robust,
    generate,
    group_stats,
    load_design,
    partial_out,
    run_sim,
    sweep_scale,
    wald_test,
    weak_iv_test,
)
from weakiv.errors import InputError, NumericalError
from weakiv import grouped_sim, weak_test
from weakiv.grouped_sim import _pool_size, _wald_critical_value, random_design_comparison


def small_structural(n=600, g=5, seed=0):
    rng = np.random.default_rng(seed)
    return GroupedDesign(
        pi0=rng.uniform(-0.6, 0.6, g),
        var_v2=rng.uniform(0.5, 3.0, g),
        n=n,
        beta=0.3,
        var_u=rng.uniform(0.5, 2.0, g),
        cov_uv2=rng.uniform(0.1, 0.4, g),
        name="small",
    )


def rare_group_design():
    """A group with share 0.004 of n = 40 rows: often empty (redrawn), often
    a single observation (zero within-group variance)."""
    probs = np.full(4, (1 - 0.004) / 3)
    probs[0] = 0.004
    return GroupedDesign(
        pi0=np.ones(4), var_v2=np.ones(4), n=40, group_probs=probs,
        var_u=1.0, cov_uv2=0.3,
    )


def choice_labels(gen, g, n, p):
    """The labels of the multinomial draw as Generator.choice gives them,
    redrawn while a group is empty: the reference for the label routine."""
    redraws = 0
    for _ in range(grouped_sim._MAX_REDRAWS + 1):
        labels = gen.choice(g, size=n, p=p)
        if np.bincount(labels, minlength=g).min() > 0:
            return labels, redraws
        redraws += 1
    return None, redraws - 1


class TestDesigns:
    def test_shipped_designs_load(self):
        names = available_designs()
        assert "me" in names and "a2" in names
        for name in names:
            design = load_design(name)
            assert design.name == name
            assert design.G == 10
            assert design.n == 10000 or name == "homoskedastic"

    def test_structural_flags(self):
        assert not load_design("me").has_structural
        assert load_design("me_reconstructed").has_structural
        assert load_design("a2").has_structural

    def test_unknown_design_lists_options(self):
        with pytest.raises(InputError, match="not one of the shipped designs"):
            load_design("nope")

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(
            "pi0: [0.5, -0.2, 0.1]\nvar_v2: [1.0, 2.0, 0.5]\nn: 200\n"
        )
        design = load_design(str(path))
        assert design.name == "tiny"
        assert design.G == 3
        assert design.n == 200

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("pi0: [0.5, -0.2]\nvar_v2: [1.0, 2.0]\nrho: 0.3\n")
        with pytest.raises(InputError, match="rho"):
            load_design(str(path))

    def test_every_design_field_loads_from_a_file(self, tmp_path):
        path = tmp_path / "full.yaml"
        path.write_text(
            "name: full\npi0: [0.5, -0.2]\nvar_v2: [1.0, 2.0]\nscale_e: 2.0\n"
            "beta: 0.3\nn: 50\nvar_u: [1.0, 1.0]\ncov_uv2: [0.2, 0.1]\n"
            "group_probs: [0.4, 0.6]\nsizes: fixed\n"
        )
        design = load_design(str(path))
        assert [f.name for f in dataclasses.fields(design)] == [
            "pi0", "var_v2", "scale_e", "beta", "n", "var_u", "cov_uv2",
            "group_probs", "sizes", "name",
        ]
        assert design.name == "full" and design.sizes == "fixed"
        assert (design.scale_e, design.beta, design.n) == (2.0, 0.3, 50)
        assert design.cov_uv2.tolist() == [0.2, 0.1]
        assert design.group_probs.tolist() == [0.4, 0.6]

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("pi0: [0.5, -0.2\n")
        with pytest.raises(InputError):
            load_design(str(path))

    def test_validation(self):
        with pytest.raises(InputError, match="var_v2"):
            GroupedDesign(pi0=np.ones(3), var_v2=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(InputError):
            GroupedDesign(pi0=np.ones(3), var_v2=np.ones(3), n=4)
        with pytest.raises(InputError, match="var_u"):
            GroupedDesign(pi0=np.ones(3), var_v2=np.ones(3), var_u=np.ones(3))
        with pytest.raises(InputError, match="not positive definite"):
            GroupedDesign(
                pi0=np.ones(3),
                var_v2=np.ones(3),
                var_u=np.ones(3),
                cov_uv2=np.array([0.0, 0.0, 1.5]),
            )
        with pytest.raises(InputError, match="group_probs"):
            GroupedDesign(
                pi0=np.ones(3), var_v2=np.ones(3), group_probs=[0.3, 0.3, 0.3]
            )
        with pytest.raises(InputError, match="sizes"):
            GroupedDesign(pi0=np.ones(3), var_v2=np.ones(3), sizes="poisson")

    def test_scalar_broadcast(self):
        design = GroupedDesign(
            pi0=np.ones(4), var_v2=2.0, var_u=1.0, cov_uv2=0.5
        )
        assert design.var_v2.shape == (4,)
        assert design.cov_uv2.tolist() == [0.5] * 4


class TestGenerate:
    def test_shapes_and_one_hot(self):
        design = small_structural()
        data = generate(design, rng=3)
        assert data.n == design.n
        assert data.k_z == design.G
        assert set(np.unique(data.z)) == {0.0, 1.0}
        assert np.allclose(data.z.sum(axis=1), 1.0)
        assert np.array_equal(data.cluster, np.argmax(data.z, axis=1))

    def test_deterministic(self):
        design = small_structural()
        a = generate(design, rng=9)
        b = generate(design, rng=9)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.z, b.z)

    def test_rng_stream_matches_int_seed(self):
        design = small_structural()
        a = generate(design, rng=4)
        b = generate(design, rng=RngStream(4, 0))
        assert np.array_equal(a.x, b.x)

    def test_fixed_sizes_exact(self):
        design = dataclasses.replace(small_structural(), sizes="fixed")
        data = generate(design, rng=0)
        counts = data.z.sum(axis=0)
        assert counts.sum() == design.n
        assert np.all(np.abs(counts - design.n / design.G) <= 1.0)

    def test_negative_seed_refused(self):
        with pytest.raises(InputError, match="seed must be a nonnegative integer, got -1"):
            generate(small_structural(), -1)
        with pytest.raises(InputError, match="stream must be a nonnegative integer, got -3"):
            RngStream(0, -3)

    def test_first_stage_only_design_refused(self):
        with pytest.raises(InputError, match="structural"):
            generate(load_design("me"), rng=0)

    def test_moments_roughly_match(self):
        design = small_structural(n=40000)
        data = generate(design, rng=5)
        labels = data.cluster
        for gi in range(design.G):
            sel = labels == gi
            x = data.x[sel]
            assert x.mean() == pytest.approx(design.pi[gi], abs=0.1)
            assert x.var() == pytest.approx(design.var_v2[gi], rel=0.15)


class TestGroupStats:
    def test_weight_sums_and_decomposition(self):
        design = small_structural()
        data = generate(design, rng=1)
        gs = group_stats(data)
        assert gs.weights_2sls.sum() == pytest.approx(1.0, abs=1e-12)
        assert gs.weights_gmmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert gs.f_r == pytest.approx(gs.f_per_group.mean(), rel=1e-12)
        got = float(np.sum(gs.weights_2sls * gs.beta_per_group))
        assert got == pytest.approx(gs.beta_2sls, rel=1e-10)
        got = float(np.sum(gs.weights_gmmf * gs.beta_per_group))
        assert got == pytest.approx(gs.beta_gmmf, rel=1e-10)

    def test_matches_generic_matrix_pipeline(self):
        design = small_structural()
        data = generate(design, rng=2)
        gs = group_stats(data)
        pd_ = partial_out(data)
        cov = estimate_moment_cov(pd_)
        assert gs.f_stat == pytest.approx(float(f_nonrobust(pd_)), rel=1e-10)
        assert gs.f_r == pytest.approx(float(f_robust(pd_, cov.v2v2)), rel=1e-10)
        assert gs.f_eff == pytest.approx(
            float(f_effective(pd_, cov.v2v2)), rel=1e-10
        )
        assert gs.beta_2sls == pytest.approx(
            estimate(pd_, WeightSpec("2sls")).beta_hat, rel=1e-10
        )
        assert gs.beta_gmmf == pytest.approx(
            estimate(pd_, WeightSpec("gmmf")).beta_hat, rel=1e-10
        )

    def test_wald_variance_matches_sandwich(self):
        """The grouped Wald variance with each estimator's divisor d (1 for
        2SLS, var_x for GMMf) against the dense robust sandwich."""
        design = small_structural()
        data = generate(design, rng=6)
        gs = group_stats(data)
        pd_ = partial_out(data)
        nxb2 = gs.counts * gs.mean_x**2
        for kind, beta, d in (("2sls", gs.beta_2sls, 1.0), ("gmmf", gs.beta_gmmf, gs.var_x)):
            s_u = gs.counts * (
                gs.var_y
                + gs.mean_y**2
                - 2 * beta * (gs.cov_xy + gs.mean_x * gs.mean_y)
                + beta**2 * (gs.var_x + gs.mean_x**2)
            )
            var = float(np.sum((gs.mean_x / d) ** 2 * s_u)) / float(np.sum(nxb2 / d)) ** 2
            res = estimate(pd_, WeightSpec(kind))
            assert np.sqrt(var) == pytest.approx(res.se_robust, rel=1e-10), kind

    def test_labels_recovered_from_indicators(self):
        design = small_structural()
        data = generate(design, rng=7)
        from weakiv import Dataset

        no_labels = Dataset(y=data.y, x=data.x, z=data.z)
        a = group_stats(no_labels)
        b = group_stats(data, labels=data.cluster)
        assert np.allclose(a.f_per_group, b.f_per_group, rtol=1e-12)

    def test_non_indicator_z_rejected(self):
        rng = np.random.default_rng(8)
        from weakiv import Dataset

        data = Dataset(
            y=rng.standard_normal(50),
            x=rng.standard_normal(50),
            z=rng.standard_normal((50, 3)),
        )
        with pytest.raises(InputError, match="one-hot"):
            group_stats(data)


class TestRepEngine:
    def test_single_rep_matches_generic_weak_iv_test(self):
        design = small_structural()
        summ = run_sim(design, 1, seed=11)
        data = generate(design, rng=RngStream(11, 0))
        pd_ = partial_out(data)
        gs = group_stats(data)
        assert summ.means["f_eff"] == pytest.approx(gs.f_eff, rel=1e-12)
        res_eff = weak_iv_test(pd_, WeightSpec("2sls"), benchmark="ls")
        res_r = weak_iv_test(pd_, WeightSpec("gmmf"), benchmark="ls")
        assert summ.means["cv_eff"] == pytest.approx(res_eff.cv, rel=1e-6)
        assert summ.means["cv_r"] == pytest.approx(res_r.cv, rel=1e-6)
        assert summ.means["beta_2sls"] == pytest.approx(
            estimate(pd_, WeightSpec("2sls")).beta_hat, rel=1e-10
        )
        for kind in ("2sls", "gmmf"):
            wald = wald_test(estimate(pd_, WeightSpec(kind)), design.beta)
            assert summ.rejection_rates[f"wald_{kind}"] == float(wald.pvalue < 0.05)

    def test_mop_benchmark_option(self):
        design = small_structural()
        summ = run_sim(design, 1, seed=3, benchmark="mop")
        data = generate(design, rng=RngStream(3, 0))
        pd_ = partial_out(data)
        res = weak_iv_test(pd_, WeightSpec("2sls"), benchmark="mop")
        assert summ.means["cv_eff"] == pytest.approx(res.cv, rel=1e-6)


class TestRunSim:
    def test_deterministic(self):
        design = small_structural()
        a = run_sim(design, 5, seed=2)
        b = run_sim(design, 5, seed=2)
        assert a.means == b.means
        assert a.sds == b.sds
        assert a.rejection_rates == b.rejection_rates

    def test_worker_count_invariance(self):
        design = small_structural()
        a = run_sim(design, 6, seed=4, workers=1)
        b = run_sim(design, 6, seed=4, workers=2)
        assert a.means == b.means
        assert a.rejection_rates == b.rejection_rates
        for key in a.group_means:
            assert np.array_equal(a.group_means[key], b.group_means[key])

    def test_worker_env_var(self, monkeypatch):
        design = small_structural()
        base = run_sim(design, 4, seed=5)
        monkeypatch.setenv("WEAKIV_WORKERS", "2")
        via_env = run_sim(design, 4, seed=5)
        assert base.means == via_env.means
        monkeypatch.setenv("WEAKIV_WORKERS", "zero")
        with pytest.raises(InputError, match="WEAKIV_WORKERS"):
            run_sim(design, 2, seed=5)

    def test_pool_size_bounded_by_jobs_and_cpus(self):
        # arithmetic only: no pool is started here
        assert _pool_size(5000, 40, 2) == 2
        assert _pool_size(5000, 3, 64) == 3
        assert _pool_size(4, 40, 64) == 4
        assert _pool_size(2, 1, 1) == 1

    @pytest.mark.parametrize("alpha", [0.1, 0.05, 0.01, 1e-4, 1e-6])
    def test_wald_critical_value_closed_form(self, alpha):
        """The chi-square(1) quantile from the normal quantile matches scipy,
        and the normal two-sided tail at it is alpha."""
        cv = _wald_critical_value(alpha)
        assert cv == pytest.approx(scipy.stats.chi2.ppf(1.0 - alpha, 1), rel=1e-10)
        assert abs(math.erf(math.sqrt(cv / 2.0)) - (1.0 - alpha)) <= 1e-12

    @pytest.mark.parametrize("alpha, want", [
        (0.9999, 1.570796335020803e-08),
        (0.05, 3.841458820694127),
        (1e-300, 1373.8726312223944),
    ])
    def test_wald_critical_value_bits_kept(self, alpha, want):
        """The Wald critical values are pinned to the bit: the Newton iteration
        on erfc that gives them is shared with the chi-square quantile's
        start, and must keep them."""
        assert _wald_critical_value(alpha) == want

    def test_first_stage_only_summary(self):
        summ = run_sim(load_design("me"), 3, seed=0)
        assert set(summ.means) == {"f_stat", "f_eff", "f_r"}
        assert summ.rejection_rates == {}
        assert summ.failed == 0

    def test_central_robust_f_near_one(self):
        design = GroupedDesign(pi0=np.zeros(5), var_v2=np.ones(5), n=300)
        summ = run_sim(design, 400, seed=1)
        assert summ.means["f_r"] == pytest.approx(1.05, abs=0.12)

    def test_validation(self):
        design = small_structural()
        with pytest.raises(InputError, match="reps"):
            run_sim(design, 0)
        with pytest.raises(InputError, match="benchmark"):
            run_sim(design, 2, benchmark="other")
        with pytest.raises(InputError, match="method"):
            run_sim(design, 2, method="conservative")
        with pytest.raises(InputError, match="workers"):
            run_sim(design, 2, workers=0)
        with pytest.raises(InputError, match="alpha must be in"):
            run_sim(design, 2, alpha=0.0)
        with pytest.raises(InputError, match="1 - alpha rounds to 1"):
            run_sim(design, 2, alpha=1e-17)
        with pytest.raises(InputError, match="seed must be a nonnegative integer, got -1"):
            run_sim(design, 2, seed=-1)

    @pytest.mark.parametrize("seed", [0, 12345678901234567890123])
    def test_seed_zero_and_long_seed_run(self, seed):
        assert run_sim(small_structural(), 2, seed=seed).failed == 0
        assert generate(small_structural(), rng=seed).n == 600

    def test_impossible_group_fails_cleanly(self):
        probs = np.full(4, (1 - 1e-12) / 3)
        probs[0] = 1e-12
        design = GroupedDesign(
            pi0=np.ones(4), var_v2=np.ones(4), n=40, group_probs=probs
        )
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore")
            with pytest.raises(NumericalError, match="every replication failed"):
                run_sim(design, 2, seed=0)

    def test_failures_counted_by_stage(self):
        """A rare group: some replications exhaust their redraws, others
        leave it with one observation and zero variance, or two and a
        singular covariance; the stage counts sum to `failed` and do not
        depend on the worker count. The group has three or more observations
        in about 0.4% of the replications, so a few of 2000 succeed."""
        design = rare_group_design()
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore")
            summ = run_sim(design, 2000, seed=0)
            two = run_sim(design, 2000, seed=0, workers=2)
        assert list(summ.failures) == [
            "draw", "moments", "moment_cov", "bias_bound", "critical_value"
        ]
        assert sum(summ.failures.values()) == summ.failed < summ.reps
        assert min(summ.failures[s] for s in ("draw", "moments", "moment_cov")) > 0
        assert summ.redraws >= 10 * summ.failures["draw"]
        assert (two.failures, two.redraws) == (summ.failures, summ.redraws)
        assert two.means == summ.means

    @pytest.mark.parametrize("tau", [1e-300, 1e-320])
    def test_tau_near_zero_fails_at_critical_value(self, tau):
        """A tau near 0 puts the noncentrality past 2e7 (at 1e-320 the radius
        overflows): every replication fails at its critical value."""
        design = small_structural()
        job = (design, range(4), 0, tau, 0.05, "ls", "patnaik", _wald_critical_value(0.05))
        _, tally = grouped_sim._sim_chunk(job)
        assert {s: tally[s] for s in grouped_sim._FAILURE_STAGES} == {
            "draw": 0, "moments": 0, "moment_cov": 0, "bias_bound": 0, "critical_value": 4,
        }
        with pytest.raises(NumericalError, match="every replication failed"):
            run_sim(design, 4, seed=0, tau=tau)

    def test_failed_quantile_fails_its_replication_only(self, monkeypatch):
        design = small_structural()
        base = run_sim(design, 5, seed=4)
        assert base.failures == dict.fromkeys(base.failures, 0)
        assert base.redraws == 0
        quantile = weak_test.chisq_quantile

        def first_law_fails(d, p, **kwargs):
            q = quantile(d, p, **kwargs)
            if np.ndim(d.df):
                q[0] = np.nan
            return q

        monkeypatch.setattr(weak_test, "chisq_quantile", first_law_fails)
        summ = run_sim(design, 5, seed=4)
        assert summ.failed == 1
        assert summ.failures["critical_value"] == 1

    def test_empty_group_redraw_warns(self):
        probs = np.full(4, (1 - 1e-12) / 3)
        probs[0] = 1e-12
        design = GroupedDesign(
            pi0=np.ones(4), var_v2=np.ones(4), n=40, group_probs=probs
        )
        with pytest.warns(UserWarning, match="empty group"):
            with pytest.raises(NumericalError):
                generate(dataclasses.replace(design, var_u=1.0, cov_uv2=0.0), rng=0)


class TestMomentKernel:
    @pytest.mark.parametrize("g", [2, 3, 7, 10, 23, 40, 255, 256, 257, 300])
    def test_labels_are_generator_choice(self, g):
        """Counting the cut points each uniform reaches gives the labels of
        Generator.choice bit for bit, also next to shares near 1e-6, and
        leaves the stream where choice leaves it (the next draws agree). The
        labels are intp at every G, also past 256 groups, where the count no
        longer fits in one byte."""
        rng = np.random.default_rng(100 + g)
        p = rng.uniform(0.2, 1.8, g)
        p[rng.choice(g, size=max(1, g // 10), replace=False)] = 5e-6 * p.sum()
        p /= p.sum()
        design = GroupedDesign(
            pi0=np.ones(g), var_v2=np.ones(g), n=1_000_000, group_probs=p
        )
        ours, theirs = RngStream(g, 0).generator(), RngStream(g, 0).generator()
        labels, counts = grouped_sim._draw_labels(design, ours)
        want, redraws = choice_labels(theirs, g, design.n, design.group_probs)
        assert redraws == 0
        assert labels.dtype == np.intp
        assert labels.tolist() == want.tolist()
        assert counts.tolist() == np.bincount(want, minlength=g).tolist()
        assert counts.sum() == design.n
        assert ours.random(4).tolist() == theirs.random(4).tolist()

    def test_redrawn_labels_are_generator_choice(self):
        """Streams that needed redraws, or ran out of them, consume the same
        uniforms as redrawing with Generator.choice and count the same
        redraws."""
        design = rare_group_design()
        outcomes = Counter()
        for rep in range(30):
            ours, theirs = RngStream(3, rep).generator(), RngStream(3, rep).generator()
            want, redraws = choice_labels(theirs, 4, design.n, design.group_probs)
            tally = Counter()
            with warnings_mod.catch_warnings():
                warnings_mod.simplefilter("ignore")
                if want is None:
                    with pytest.raises(NumericalError, match="stayed empty"):
                        grouped_sim._draw_labels(design, ours, tally)
                else:
                    labels, _ = grouped_sim._draw_labels(design, ours, tally)
                    assert labels.tolist() == want.tolist()
            assert tally["redraws"] == redraws
            assert ours.random(4).tolist() == theirs.random(4).tolist()
            outcomes["failed" if want is None else "redrawn" if redraws else "first"] += 1
        assert outcomes["failed"] > 0 and outcomes["redrawn"] > 0

    @pytest.mark.parametrize("structural", [False, True])
    def test_f_per_group_mean_closed_form(self, structural):
        """With fixed group sizes n_g, n_g xbar^2 / s^2 is n_g / (n_g - 1)
        times a noncentral F(1, n_g - 1, lam_g) with lam_g = n_g pi_g^2 /
        sigma_g^2, so its mean is n_g (1 + lam_g) / (n_g - 3)."""
        extra = dict(var_u=1.5, cov_uv2=[0.2, -0.5, 0.3, 0.9, -1.2]) if structural else {}
        design = GroupedDesign(
            pi0=[0.0, 0.5, 1.0, 2.0, 3.0], var_v2=[1.0, 0.5, 1.0, 2.0, 1.0],
            n=100, sizes="fixed", **extra,
        )
        n_g = design.n / design.G
        f = grouped_sim._moment_columns(design, 8, range(8000), Counter())["f_per_group"]
        lam = n_g * design.pi**2 / design.var_v2
        want = n_g * (1.0 + lam) / (n_g - 3.0)
        se = f.std(axis=0, ddof=1) / math.sqrt(f.shape[0])
        assert np.all(np.abs(f.mean(axis=0) - want) < 4.0 * se)

    @pytest.mark.parametrize("design", [load_design("me_reconstructed"), rare_group_design()],
                             ids=["me_reconstructed", "rare_group"])
    def test_kernel_columns_match_group_stats_of_generated_data(self, design):
        """Replication r of the kernel has the statistics of the dataset that
        generate draws from the same substream, and fails at the same stage."""
        seed, fields = 0, [
            "mean_x", "mean_y", "var_x", "var_y", "cov_xy", "f_per_group",
            "weights_2sls", "weights_gmmf", "f_stat", "f_eff", "f_r", "beta_ols",
            "beta_2sls", "beta_gmmf",
        ]
        tally, stages, expected = Counter(), Counter(), []
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore")
            cols = grouped_sim._moment_columns(design, seed, range(20), tally)
            for rep in range(20):
                try:
                    data = generate(design, RngStream(seed, rep))
                except NumericalError:
                    stages["draw"] += 1
                    continue
                try:
                    expected.append(group_stats(data))
                except NumericalError:
                    stages["moments"] += 1
        assert (tally["draw"], tally["moments"]) == (stages["draw"], stages["moments"])
        assert cols["f_stat"].shape == (len(expected),)
        for i, gs in enumerate(expected):
            assert cols["counts"][i].tolist() == gs.counts.tolist()
            for name in fields:
                np.testing.assert_allclose(cols[name][i], getattr(gs, name), rtol=1e-10, atol=0)

    def test_failure_stages_of_rare_group_design(self):
        """The stage counts of the rare-group design, as the per-replication
        draw and moments path gave them: single-observation groups fail at
        the moments stage, and two-observation groups, whose 2x2 sample
        covariance is singular, at the moment_cov stage. Here every
        replication fails, so the counts come from the chunk's tally."""
        design = rare_group_design()
        # the smallest group of each replication, from Generator.choice
        smallest = []
        for rep in range(20):
            gen = RngStream(0, rep).generator()
            labels, _ = choice_labels(gen, 4, design.n, design.group_probs)
            smallest.append(0 if labels is None else np.bincount(labels, minlength=4).min())
        job = (design, range(20), 0, 0.1, 0.05, "ls", "patnaik", _wald_critical_value(0.05))
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore")
            cols, tally = grouped_sim._sim_chunk(job)
            with pytest.raises(NumericalError, match=re.escape(
                "every replication failed (draw 4, moments 14, moment_cov 2; "
                "101 redraws)"
            )):
                run_sim(design, 20, seed=0)
        counts = {stage: tally[stage] for stage in grouped_sim._FAILURE_STAGES}
        assert counts == {
            "draw": 4, "moments": 14, "moment_cov": 2, "bias_bound": 0, "critical_value": 0,
        }
        assert [counts[s] for s in ("draw", "moments", "moment_cov")] == [
            smallest.count(0), smallest.count(1), smallest.count(2)
        ]
        assert cols["f_stat"].size == 0
        assert tally["redraws"] == 101


class TestSweepScale:
    def test_rows_and_determinism(self):
        design = small_structural()
        rows = sweep_scale(design, [0.5, 0.5, 2.0], 3, seed=7)
        assert len(rows) == 3
        assert rows[0]["scale"] == 0.5
        assert rows[0] == rows[1]
        assert rows[2]["scale"] == 2.0
        expected = {
            "scale", "mean_f_eff", "mean_f_r", "rel_bias_2sls",
            "rel_bias_gmmf", "rf_weak_eff", "rf_weak_r", "rf_wald_2sls",
            "rf_wald_gmmf",
        }
        assert set(rows[0]) == expected

    def test_requires_structural(self):
        with pytest.raises(InputError, match="structural"):
            sweep_scale(load_design("he"), [1.0], 2)

    def test_stronger_scale_weakens_bias(self):
        design = small_structural()
        rows = sweep_scale(design, [0.2, 5.0], 40, seed=3)
        assert rows[1]["mean_f_eff"] > rows[0]["mean_f_eff"]
        assert rows[1]["rel_bias_2sls"] < rows[0]["rel_bias_2sls"]


class TestRandomDesignComparison:
    def test_deterministic_and_constrained(self):
        a = random_design_comparison(count=60, seed=9)
        b = random_design_comparison(count=60, seed=9)
        assert a.fraction_2sls_worse == b.fraction_2sls_worse
        assert np.array_equal(a.nagar_2sls, b.nagar_2sls)
        assert a.count == 60
        assert 0.0 <= a.fraction_2sls_worse <= 1.0
        g = a.coefs.shape[1]
        mu2_2sls = (a.coefs**2).mean(axis=1) / a.var_v2.sum(axis=1)
        mu2_gmmf = (a.coefs**2 / a.var_v2).mean(axis=1) / g
        assert np.all((mu2_2sls > 5.0) & (mu2_2sls < 10.0))
        assert np.all((mu2_gmmf > 40.0) & (mu2_gmmf < 45.0))
        rho = a.cov_uv2.mean(axis=1) / np.sqrt(
            a.var_u.mean(axis=1) * a.var_v2.mean(axis=1)
        )
        assert np.all(np.abs(rho) > 0.2)

    def test_attempt_cap(self, monkeypatch):
        monkeypatch.setattr(grouped_sim, "_COMPARE_MAX_ATTEMPTS", 100)
        with pytest.raises(NumericalError):
            random_design_comparison(count=100, seed=0)
