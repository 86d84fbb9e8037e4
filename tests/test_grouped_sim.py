import dataclasses
import math
import pickle
import re
import sys
import tracemalloc
import warnings as warnings_mod
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from helpers import chunk_call
from weakiv import (
    GroupedDesign,
    RngStream,
    WeightSpec,
    available_designs,
    critical_value,
    estimate,
    f_generalized,
    f_nonrobust,
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
from weakiv import _settings, grouped_sim, weak_test
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

    def test_directory_does_not_hide_a_shipped_design(self, tmp_path, monkeypatch):
        """A directory named like a shipped design is not a design file."""
        (tmp_path / "me").mkdir()
        monkeypatch.chdir(tmp_path)
        design = load_design("me")
        assert design.name == "me" and design.G == 10

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

    def test_group_count_cap(self):
        assert GroupedDesign(pi0=np.ones(1000), var_v2=1.0).G == 1000
        with pytest.raises(InputError,
                           match=r"^G \(the length of pi0\) must be at most 1000, got 1001$"):
            GroupedDesign(pi0=np.ones(1001), var_v2=1.0, n=5000)

    @pytest.mark.parametrize("field, inside, outside, message", [
        ("scale_e", 1e25 / 1.5, 1.01e25 / 1.5,
         r"scale_e \* pi0 entries must be at most 1e\+25 in magnitude, got 1\.01e\+25"),
        ("beta", -1e25, -1.01e25, r"beta must be at most 1e\+25 in magnitude"),
        ("var_v2", [1e-50, 1e50], [0.99e-50, 1.0], r"var_v2 entries must be from 1e-50 to 1e\+50"),
        ("var_v2", [1e-50, 1e50], [1.0, 1.01e50], r"var_v2 entries must be from 1e-50 to 1e\+50"),
        ("var_u", [1e50, 1.0], [1.01e50, 1.0], r"var_u entries must be at most 1e\+50"),
    ])
    def test_magnitude_bounds(self, field, inside, outside, message):
        """Each bound on the magnitudes of a design, from both sides: at the
        bound the design runs with no RuntimeWarning (tier-1 makes every
        warning an error) and finite summaries; past it the design is
        refused with a message that names the field."""
        base = dict(pi0=[1.5, -0.5], var_v2=[1.0, 2.0], n=200, beta=0.5,
                    var_u=[1e50, 1e50], cov_uv2=[0.3, 0.0])
        summ = run_sim(GroupedDesign(**{**base, field: inside}), 20, seed=1, benchmark="mop")
        assert summ.failed == 0
        assert all(np.isfinite(v) for v in (*summ.means.values(), *summ.sds.values()))
        with pytest.raises(InputError, match=f"^{message}"):
            GroupedDesign(**{**base, field: outside})

    @pytest.mark.parametrize("bench", ["ls", "mop"])
    @pytest.mark.parametrize("beta, var_u", [(0.0, 1e50), (1e25, 1e50), (-1e25, 1e-250)])
    def test_largest_accepted_designs_warn_nowhere(self, beta, var_u, bench):
        """Designs at every bound at once (coefficients 1e25 with group
        variances 1e-50 and 1e50, beta and var_u at theirs) run with no
        RuntimeWarning. They give finite summaries, or fail as a numerical
        error: at moment_cov where y and x are collinear within a group to
        the last digits, and under ls at the critical value, whose
        noncentrality is then past the supported 2e7."""
        var_v2 = np.array([1e-50, 1e50, 1e-50, 1.0])
        design = GroupedDesign(
            pi0=[1e25, -1e25, 1e22, 1.0], var_v2=var_v2, n=4000, beta=beta,
            var_u=var_u, cov_uv2=0.9 * np.sqrt(var_u * var_v2),
        )
        try:
            summ = run_sim(design, 3, seed=2, benchmark=bench)
        except NumericalError as exc:
            stage = "moment_cov" if beta != 0.0 else "critical_value"
            assert re.search(rf"\({stage} 3; 0 redraws\)$", str(exc))
            assert stage == "moment_cov" or bench == "ls"
        else:
            assert beta == 0.0
            assert all(np.isfinite(v) for v in (*summ.means.values(), *summ.sds.values()))

    def test_validation(self):
        with pytest.raises(InputError, match="var_v2"):
            GroupedDesign(pi0=np.ones(3), var_v2=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(InputError, match=r"^scale_e \* pi0 .* got inf$"):
            GroupedDesign(pi0=[1e300, 1.0], var_v2=1.0, scale_e=1e300)
        with pytest.raises(InputError):
            GroupedDesign(pi0=np.ones(3), var_v2=np.ones(3), n=4)
        assert GroupedDesign(pi0=np.ones(3), var_v2=np.ones(3), n=10**7).n == 10**7
        with pytest.raises(InputError, match=r"^n must be at most 10000000, got 10000001$"):
            GroupedDesign(pi0=np.ones(3), var_v2=np.ones(3), n=10**7 + 1)
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

    def test_dataset_past_the_cell_budget_refused(self):
        """The dense n x G instrument matrix is refused before it is
        allocated, naming n and G."""
        design = GroupedDesign(pi0=np.full(1000, 0.1), var_v2=1.0, var_u=1.0,
                               cov_uv2=0.3, n=100_001, sizes="fixed")
        with pytest.raises(InputError, match=r"n = 100001 and G = 1000 give 100001000 "
                                             r"cells, past its budget of 100000000"):
            generate(design, rng=0)

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
        assert gs.f_stat == pytest.approx(f_nonrobust(pd_), rel=1e-10)
        assert gs.f_r == pytest.approx(f_generalized(pd_, "gmmf"), rel=1e-10)
        assert gs.f_eff == pytest.approx(f_generalized(pd_, "2sls"), rel=1e-10)
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

    @pytest.mark.parametrize("bad", ["fraction", "text"])
    def test_non_integer_labels_rejected(self, bad):
        """A label of 0.9 is not read as group 0, and a text label is not a
        bare ValueError: both are refused as labels."""
        data = generate(small_structural(), rng=7)
        labels = data.cluster.astype(float)
        if bad == "fraction":
            labels[labels == 0] = 0.9
        else:
            labels = labels.astype(str)
        with pytest.raises(InputError, match="^labels must be one integer per observation$"):
            group_stats(data, labels=labels)


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
        with pytest.raises(InputError, match=r"^workers must be an integer, got 2\.9$"):
            run_sim(design, 2, workers=2.9)
        with pytest.raises(InputError, match=r"^reps must be an integer, got 2\.7$"):
            run_sim(design, 2.7)
        with pytest.raises(InputError,
                           match=r"^reps must be from 1 to 10000000, got 10000001$"):
            run_sim(design, _settings.MAX_REPS + 1)
        assert run_sim(design, 2.0, workers=1.0).reps == 2
        with pytest.raises(InputError, match="alpha must be in"):
            run_sim(design, 2, alpha=0.0)
        with pytest.raises(InputError, match="1 - alpha rounds to 1"):
            run_sim(design, 2, alpha=1e-17)
        with pytest.raises(InputError, match="seed must be a nonnegative integer, got -1"):
            run_sim(design, 2, seed=-1)

    def test_fixed_apportionment_error_before_any_draw(self, monkeypatch):
        """A fixed design whose apportionment leaves a group empty is an input
        error of run_sim, before any chunk runs; it is not booked as failed
        draws."""
        design = GroupedDesign(
            pi0=[0.5, 0.4, 0.3], var_v2=1.0, var_u=1.0, cov_uv2=0.3, n=100,
            sizes="fixed", group_probs=[0.996, 0.002, 0.002],
        )

        def no_chunk(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(grouped_sim, "_sim_chunk", no_chunk)
        with pytest.raises(InputError, match="^fixed apportionment leaves a group empty"):
            run_sim(design, 5)

    def test_wald_rejections_do_not_depend_on_beta(self):
        """y = beta x + u: the estimate minus beta and its variance do not
        depend on beta, so neither does the Wald test. With a strong first
        stage and beta = 1 the group means of y are large, and a residual sum
        of squares formed from uncentered sums lost every digit (rates 0.11
        and 0.35 for 0.05 and 0.065 at scale 1e8)."""
        design = dataclasses.replace(load_design("me_reconstructed"), scale_e=1e8)
        rates = [
            run_sim(dataclasses.replace(design, beta=beta), 200, seed=3).rejection_rates
            for beta in (0.0, 1.0, -40.0)
        ]
        for key in ("wald_2sls", "wald_gmmf"):
            assert rates[0][key] == rates[1][key] == rates[2][key], key

    def test_collinear_groups_fail_at_moment_cov(self):
        """Where y and x are collinear within the groups to the last digits,
        their 2x2 sample covariance is singular by the scale-free rule of the
        pooled residual covariance, and every replication fails at
        moment_cov instead of dividing by a rounding-noise variance."""
        design = GroupedDesign(pi0=[0.5, 0.4, 0.3], var_v2=1.0, var_u=1e-40,
                               cov_uv2=0.0, beta=1.0, n=300)
        for benchmark in ("ls", "mop"):
            with pytest.raises(NumericalError, match=r"\(moment_cov 20; 0 redraws\)"):
                run_sim(design, 20, benchmark=benchmark)

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
        tally = chunk_call(grouped_sim._sim_chunk, design, range(4), tau=tau)
        assert {s: tally[s] for s in grouped_sim._FAILURE_STAGES} == {
            "draw": 0, "moments": 0, "moment_cov": 0, "bias_bound": 0, "critical_value": 4,
        }
        with pytest.raises(NumericalError, match="every replication failed"):
            run_sim(design, 4, seed=0, tau=tau)

    def test_mc_method_matches_dense_critical_value(self):
        """`method="mc"` on a 2-group design: each critical value is the
        dense `critical_value` on the replication's diagonal W, bit for bit,
        and the failures are the patnaik run's."""
        design = small_structural(g=2)
        summ = run_sim(design, 1, seed=5, benchmark="mop", method="mc")
        patnaik = run_sim(design, 1, seed=5, benchmark="mop")
        assert summ.method == "mc"
        assert (summ.failures, summ.redraws) == (patnaik.failures, patnaik.redraws)
        m = grouped_sim._moment_columns(design, 5, range(1), Counter())
        for _, stat, d in grouped_sim._estimators(m["var_x"]):
            w = m["var_x"] / d
            bias, ok = weak_test._diagonal_worst_case_bias(
                m["var_y"] / d, m["cov_xy"] / d, w, "mop"
            )
            assert ok.all()
            want = critical_value(np.diag(w[0]), bias[0] / 0.1, 0.05, "mc")
            assert summ.means[f"cv_{stat}"] == want

    def test_mc_critical_value_that_overflows_fails(self):
        """At tau 4e-310 the radius is finite but "mc" squares past the
        largest float: the critical value is inf and fails its replication,
        without a floating-point warning."""
        with pytest.raises(NumericalError, match=re.escape("(critical_value 1; 0 redraws)")):
            run_sim(small_structural(g=2), 1, seed=5, benchmark="mop", method="mc", tau=4e-310)

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
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore")
            cols, tally = chunk_call(grouped_sim._chunk_columns, design, range(20))
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


def random_structural_design(rng):
    """A structural design with 2 to 12 groups, n from 20G to 40G, beta away
    from 0, uneven shares and fixed or multinomial sizes."""
    g = int(rng.integers(2, 13))
    var_v2 = rng.uniform(0.2, 5.0, g)
    var_u = rng.uniform(0.2, 5.0, g)
    probs = rng.uniform(0.5, 1.5, g)
    return GroupedDesign(
        pi0=rng.uniform(-1.0, 1.0, g) * np.sqrt(var_v2),
        var_v2=var_v2,
        scale_e=float(rng.choice([0.05, 0.3, 1.0])),
        beta=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)),
        n=int(rng.integers(20 * g, 40 * g + 1)),
        var_u=var_u,
        cov_uv2=rng.uniform(-0.9, 0.9, g) * np.sqrt(var_u * var_v2),
        group_probs=probs / probs.sum(),
        sizes=str(rng.choice(["fixed", "multinomial"])),
    )


class TestKernelAgainstDensePipeline:
    def test_random_designs(self):
        """The independent oracle of the simulation kernel: per replication,
        the kernel's statistics, critical values, estimates and decisions are
        those of the dense pipeline (`weak_iv_test`, `estimate`, `wald_test`)
        on the dataset that `generate` draws from the same substream, over
        random structural designs under both benchmarks."""
        rng = np.random.default_rng(2024)
        alpha, tau, checked = 0.05, 0.1, 0
        for i in range(60):
            design = random_structural_design(rng)
            benchmark = ("ls", "mop")[i % 2]
            for rep in range(3):
                cols, tally = chunk_call(
                    grouped_sim._chunk_columns, design, range(rep, rep + 1), seed=i,
                    tau=tau, alpha=alpha, benchmark=benchmark,
                )
                if cols is None or cols["f_eff"].size == 0:
                    continue  # a group of one or two observations
                pd_ = partial_out(generate(design, RngStream(i, rep)))
                for kind, stat in (("2sls", "eff"), ("gmmf", "r")):
                    res = weak_iv_test(pd_, WeightSpec(kind), benchmark=benchmark,
                                       tau=tau, alpha=alpha)
                    est = estimate(pd_, WeightSpec(kind))
                    wald = wald_test(est, design.beta)
                    want = {f"f_{stat}": res.statistic, f"cv_{stat}": res.cv,
                            f"beta_{kind}": est.beta_hat}
                    for key, value in want.items():
                        assert cols[key][0] == pytest.approx(value, rel=1e-10), (i, rep, key)
                    assert bool(cols[f"weak_{stat}"][0]) == res.reject, (i, rep, stat)
                    assert bool(cols[f"wald_{kind}"][0]) == (wald.pvalue < alpha), (i, rep, kind)
                checked += 1
        assert checked >= 170


def fraction_sum(values):
    return sum(map(Fraction, values), Fraction(0))


def units_value(total, unit=1074):
    """The exact value of an integer sum in units of 2**-unit."""
    assert type(total) is int
    return Fraction(total, 1 << unit)


_MAGNITUDES = np.random.default_rng(7)
EXACT_SUM_CASES = {
    "empty": [],
    "one": [3.5],
    "mixed_signs": [1.0, -1.0, 0.1, -0.3, 2.0**60, -(2.0**60), 1e-5, -7.25],
    "zeros": [0.0, -0.0, 0.0, 0.0],
    "subnormals": [5e-324, -1e-320, 2.2e-308, 1e-310, 3e-320, -2.225e-308],
    # the coefficients, variances and F-statistics of the largest designs
    "largest_designs": [1e50, -1e25, 1e-50, 1.0, 1e103, -1e22, 4e-250, 1e-300],
    "1e-300_to_1e50": (
        _MAGNITUDES.standard_normal(2000) * 10.0 ** _MAGNITUDES.integers(-300, 51, 2000)
    ).tolist(),
    "one_chunk_of_normals": _MAGNITUDES.standard_normal(1024).tolist(),
    # a sigma of 2**m max|x| would overflow: the large values are scaled down
    "one_chunk_of_1e306": [1e306] * 1024,
    "largest_floats": [sys.float_info.max, 5e-324, -sys.float_info.max, 2.0**-1030, 1e-300,
                       sys.float_info.max],
    "one_chunk_past_a_float": (_MAGNITUDES.standard_normal(1024) * 1e307).tolist(),
}


def first_stage_design(n=60, g=4):
    return GroupedDesign(pi0=np.linspace(0.1, 0.5, g), var_v2=1.0, n=n, name="fs")


def sometimes_failing_design():
    """About 4 of 10 replications keep 3 or more rows in the small group
    and succeed; the others fail at the draw, moments or moment_cov stage."""
    probs = np.full(4, (1 - 0.06) / 3)
    probs[0] = 0.06
    return GroupedDesign(
        pi0=np.ones(4), var_v2=np.ones(4), n=40, group_probs=probs, var_u=1.0, cov_uv2=0.3,
    )


class TestExactSummary:
    """`run_sim` sums every column exactly, chunk by chunk: each chunk leaves
    integers, Σx in units of 2**-1074 and Σx² in units of 2**-2148, checked
    here against `fractions.Fraction` sums (with warnings as errors, so no
    step under- or overflows)."""

    @pytest.mark.parametrize("case", EXACT_SUM_CASES)
    def test_extraction_is_exact(self, case):
        x = np.array(EXACT_SUM_CASES[case], dtype=float)
        (total,) = grouped_sim._extract(x)
        assert units_value(total) == fraction_sum(x.tolist())
        # by column, also of columns that run out before the others
        table = np.stack([x, -x[::-1], np.zeros_like(x), x * 1e-300], axis=1)
        totals = grouped_sim._extract(table)
        assert len(totals) == 4
        for j, total in enumerate(totals):
            assert units_value(total) == fraction_sum(table[:, j].tolist())

    @pytest.mark.parametrize("case", EXACT_SUM_CASES)
    def test_squares_are_exact(self, case):
        x = EXACT_SUM_CASES[case]
        want = sum((Fraction(v) ** 2 for v in x), Fraction(0))
        assert units_value(grouped_sim._square_sum(np.array(x, dtype=float)), 2148) == want

    @pytest.mark.parametrize("case", [c for c, x in EXACT_SUM_CASES.items() if len(x) >= 2])
    def test_sd_is_correctly_rounded(self, case):
        x = np.array(EXACT_SUM_CASES[case], dtype=float)
        n = x.size
        (s,) = grouped_sim._extract(x)
        sq = grouped_sim._square_sum(x)
        sd = grouped_sim._sd(n, s, sq)
        var = (n * units_value(sq, 2148) - units_value(s) ** 2) / (n * (n - 1))
        if var > Fraction(sys.float_info.max) ** 2:
            assert sd == math.inf
            return
        below, above = math.nextafter(sd, 0.0), math.nextafter(sd, math.inf)
        assert ((Fraction(below) + Fraction(sd)) / 2) ** 2 <= var
        assert var <= ((Fraction(sd) + Fraction(above)) / 2) ** 2

    @pytest.mark.parametrize("case", [c for c, x in EXACT_SUM_CASES.items() if x])
    def test_mean_is_the_rounded_sum_over_n(self, case):
        """fsum(x) / n, and where the sum is beyond a float, the mean
        correctly rounded."""
        x = EXACT_SUM_CASES[case]
        n = len(x)
        mean = grouped_sim._mean(grouped_sim._extract(np.array(x))[0], n)
        if abs(fraction_sum(x)) <= sys.float_info.max:
            assert mean == math.fsum(x) / n
        else:
            assert mean == float(fraction_sum(x) / n)

    @pytest.mark.parametrize("design, reps", [
        (sometimes_failing_design(), 2100), (first_stage_design(), 2100),
    ], ids=["structural", "first_stage"])
    def test_summary_is_the_exact_sums_of_the_columns(self, design, reps):
        """Means are fsum(column) / n bit for bit, group means per group,
        rejection rates the exact shares, and sds np.std(ddof=1) within
        relative 1e-12; chunks that keep no replication add nothing."""
        chunk = grouped_sim._CHUNK_REPS
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore")  # empty-group redraws
            summ = run_sim(design, reps, seed=1)
            parts = [
                chunk_call(
                    grouped_sim._chunk_columns, design, range(lo, min(lo + chunk, reps)), seed=1
                )[0]
                for lo in range(0, reps, chunk)
            ]
        cols = {k: np.concatenate([p[k] for p in parts if p is not None]) for k in parts[0]}
        n = reps - summ.failed
        assert cols["f_stat"].shape == (n,)
        for k, mean in summ.means.items():
            assert mean == math.fsum(cols[k].tolist()) / n, k
            assert summ.sds[k] == pytest.approx(float(np.std(cols[k], ddof=1)), rel=1e-12), k
        for k, means in summ.group_means.items():
            want = [math.fsum(g) / n for g in cols[k].T.tolist()]
            assert means.tolist() == want, k
        for k, rate in summ.rejection_rates.items():
            assert rate == np.count_nonzero(cols[k]) / n, k

    def test_summary_is_bit_equal_for_any_worker_count(self):
        """Workers 1, 2 and 3 split 24 replications into 1, 8 and 12 chunks,
        some of which keep no replication; every figure is the same."""
        design, reps = sometimes_failing_design(), 24
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore")
            runs = [run_sim(design, reps, seed=2, workers=w) for w in (1, 2, 3)]
            empty = [
                "n" not in chunk_call(grouped_sim._sim_chunk, design, range(lo, lo + 2), seed=2)
                for lo in range(0, reps, 2)
            ]
        assert any(empty) and not all(empty)
        one = runs[0]
        assert 0 < one.failed < reps
        for other in runs[1:]:
            assert (other.failures, other.redraws) == (one.failures, one.redraws)
            assert (other.means, other.sds) == (one.means, one.sds)
            assert other.rejection_rates == one.rejection_rates
            for k, v in one.group_means.items():
                assert other.group_means[k].tolist() == v.tolist()

    def test_chunk_that_keeps_no_replication_leaves_no_partials(self):
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("ignore")
            tally = chunk_call(grouped_sim._sim_chunk, rare_group_design(), range(20))
        assert set(tally) <= {"redraws", *grouped_sim._FAILURE_STAGES}
        assert sum(tally[s] for s in grouped_sim._FAILURE_STAGES) == 20

    @pytest.mark.parametrize("name", ["me", "me_reconstructed"])
    def test_chunk_ships_integers_flat_in_reps(self, name):
        """A chunk sends one Counter of integers, whose pickled size does not
        grow with its replications: a few hundred sums, not its columns."""
        design = load_design(name)
        sizes = []
        for reps in (64, 1024):
            part = chunk_call(grouped_sim._sim_chunk, design, range(reps))
            assert part["n"] == reps
            assert all(type(v) is int for v in part.values())
            sizes.append(len(pickle.dumps(part)))
        assert sizes[1] <= 1.1 * sizes[0], sizes

    def test_sums_past_a_float_give_finite_means(self):
        """Three chunks of 1024 values near the largest float: every partial
        and merged sum is past a float, the means and sds are not (but an sd
        that is, is inf)."""
        big = sys.float_info.max
        cols = {
            "f_stat": np.full(1024, big),
            "f_eff": np.where(np.arange(1024) % 2, -big, big),
            "f_r": np.full(1024, 1e306),
            "f_per_group": np.full((1024, 2), [big, 1.0]),
            "weights_2sls": np.full((1024, 2), 0.5),
            "weights_gmmf": np.full((1024, 2), 0.5),
        }
        chunk, total = grouped_sim._partials(cols), Counter()
        for _ in range(3):
            total.update(chunk)
        means, sds, _, group_means = grouped_sim._summarize(total, 2)
        assert means == {"f_stat": big, "f_eff": 0.0, "f_r": 1e306}
        assert sds["f_stat"] == sds["f_r"] == 0.0
        assert sds["f_eff"] == math.inf
        assert group_means["f_per_group"].tolist() == [big, 1.0]

    def test_infinite_critical_value_fails_its_replication(self, monkeypatch):
        """A critical value that overflows (as "mc" may at a tau near 0)
        fails its replication at the critical_value stage; the others are
        summarized."""
        design = small_structural()
        real = grouped_sim._critical_values

        def first_overflows(lam, radius, alpha, method):
            cv = real(lam, radius, alpha, method)
            cv[0] = np.inf
            return cv

        monkeypatch.setattr(grouped_sim, "_critical_values", first_overflows)
        summ = run_sim(design, 5, seed=4)
        assert summ.failed == 1
        assert summ.failures["critical_value"] == 1
        assert all(math.isfinite(v) for v in summ.means.values())

    def test_non_finite_statistic_is_a_numerical_error(self):
        """A sum of an inf is not exact: it is refused, not summed."""
        cols = {"f_stat": np.array([1.0, np.inf]), "f_eff": np.ones(2), "f_r": np.ones(2)}
        with pytest.raises(NumericalError, match="^a replication's f_stat is not finite$"):
            grouped_sim._partials(cols)

    def test_memory_does_not_grow_with_reps(self):
        """Each chunk's columns end with it: the traced peak of a run of
        16384 replications is within 1.25x of that of 2048. Keeping the
        columns until the summary, about 1 KB per replication, failed this."""
        design = first_stage_design()
        peaks = []
        for reps in (2048, 16384):
            tracemalloc.start()
            try:
                run_sim(design, reps, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks


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

    def test_bad_scale_refused_before_any_draw(self, monkeypatch):
        """A scale past the coefficient bound is refused before the good
        scale ahead of it is simulated."""
        calls = []
        monkeypatch.setattr(grouped_sim, "_sim_chunk", lambda *args: calls.append(args))
        with pytest.raises(InputError, match=r"^scale_e \* pi0 entries must be at most"):
            sweep_scale(load_design("me_reconstructed"), [0.04, 1e30], 2000)
        assert calls == []

    def test_stronger_scale_weakens_bias(self):
        design = small_structural()
        rows = sweep_scale(design, [0.2, 5.0], 40, seed=3)
        assert rows[1]["mean_f_eff"] > rows[0]["mean_f_eff"]
        assert rows[1]["rel_bias_2sls"] < rows[0]["rel_bias_2sls"]


BAD_SETTINGS = {
    "tau": (1.5, r"tau must be in \(0, 1\), got 1\.5"),
    "alpha": (0.0, r"alpha must be in \(0, 1\), got 0\.0"),
    "method": ("exact", r"unknown method 'exact'; use one of patnaik, mc(, conservative)?"),
    "benchmark": ("stock-yogo", r"unknown benchmark 'stock-yogo'; use one of mop, ls"),
}

SETTING_CALLS = {
    "weak_iv_test": lambda **setting: weak_iv_test(
        partial_out(generate(small_structural(), rng=3)), WeightSpec("2sls"), **setting
    ),
    "critical_value": lambda **setting: critical_value(
        np.eye(2), 1.0, **{"alpha": 0.05, **setting}
    ),
    "run_sim": lambda **setting: run_sim(small_structural(), 2, **setting),
    "sweep_scale": lambda **setting: sweep_scale(small_structural(), [0.5, 2.0], 2, **setting),
}


@pytest.mark.parametrize("call, setting", [
    (call, setting) for call in SETTING_CALLS for setting in BAD_SETTINGS
    if call != "critical_value" or setting in ("alpha", "method")
])
def test_each_bad_setting_has_one_message(call, setting, monkeypatch):
    """The test's settings are checked in one place each: a bad tau, alpha,
    method or benchmark gets the same refusal from the dense test, the
    critical value (which takes only alpha and the method) and the
    simulation, before any replication runs."""

    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(grouped_sim, "_sim_chunk", no_chunk)
    value, message = BAD_SETTINGS[setting]
    with pytest.raises(InputError, match=f"^{message}$"):
        SETTING_CALLS[call](**{setting: value})


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

    def test_closed_forms_are_each_estimators_own_formula(self):
        """The divisor loop gives, bit for bit, the concentration and Nagar
        bias written out for 2SLS and for GMMf alone."""
        rng = np.random.default_rng(12)
        for g in (2, 10, 37):
            cf = rng.uniform(0.0, 50.0, (200, g))
            sv2 = 10.0 * (1.0 - rng.random((200, g)))
            suv = rng.uniform(-3.0, 3.0, (200, g))
            forms = grouped_sim._closed_forms(cf, sv2, suv)
            total = cf.sum(axis=1)
            r = cf / sv2
            rtot = r.sum(axis=1)
            want = {
                "conc_2sls": total / sv2.sum(axis=1),
                "conc_gmmf": rtot / g,
                "nagar_2sls": ((1.0 - 2.0 * cf / total[:, None]) * suv).sum(axis=1) / total,
                "nagar_gmmf": ((1.0 - 2.0 * r / rtot[:, None]) * (suv / sv2)).sum(axis=1)
                / rtot,
            }
            assert forms.keys() == want.keys()
            for key, value in want.items():
                np.testing.assert_array_equal(forms[key], value, err_msg=key)
