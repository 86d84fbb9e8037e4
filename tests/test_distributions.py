import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cdf_calls  # noqa: F401  (fixture)
from weakiv import NoncentralChiSq, RngStream, chisq_cdf, chisq_quantile, mvn_sample
from weakiv import distributions
from weakiv.distributions import lower_gamma_regularized
from weakiv.errors import NumericalError


class TestLowerGamma:
    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 2.5, 7.0, 33.0, 120.0])
    def test_matches_scipy(self, a):
        for x in [0.0, 1e-8, 0.1, 0.5 * a, a, a + 1.0, 2 * a, 5 * a, 40 * a]:
            assert lower_gamma_regularized(a, x) == pytest.approx(
                scipy.special.gammainc(a, x), abs=1e-13
            )

    @pytest.mark.parametrize("a", [1e3, 1e5, 1.0032e7])
    def test_large_shape_near_its_mean(self, a):
        """Just below x = a the series needs about sqrt(70 a) terms: 26,500
        at the top of the window of the largest supported noncentrality."""
        for k in [-4.0, -1.0, -0.1, 0.0, 0.1, 1.0]:
            x = a + k * math.sqrt(a)
            assert lower_gamma_regularized(a, x) == pytest.approx(
                scipy.special.gammainc(a, x), abs=1e-12
            )

    def test_bad_args(self):
        with pytest.raises(ValueError):
            lower_gamma_regularized(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_gamma_regularized(1.0, -0.5)

    def test_infinite_shape_is_nan_in_a_batch(self):
        """An infinite shape never converges: NumericalError alone, NaN at its
        element of a batch whose other elements still evaluate."""
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="series did not converge"):
                lower_gamma_regularized(math.inf, 1.0)
            p = lower_gamma_regularized(np.array([2.0, math.inf, 3.0]), 1.0)
        assert np.isnan(p[1])
        assert p[[0, 2]].tolist() == [lower_gamma_regularized(2.0, 1.0),
                                      lower_gamma_regularized(3.0, 1.0)]

    @given(
        a=st.floats(0.05, 150.0),
        x=st.floats(0.0, 600.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_in_unit_interval_and_monotone_tail(self, a, x):
        p = lower_gamma_regularized(a, x)
        assert 0.0 <= p <= 1.0
        assert lower_gamma_regularized(a, x + 1.0) >= p - 1e-12


_BISECTION_CALLS = 44
"""Fewest CDF calls the bracketed bisection took for one quantile on the
`wide_range` and `extreme_p` grids (44 to 247, up to 47 where the quantile is
not tiny): no law there may take more."""


class TestNoncentralChiSq:
    @pytest.mark.parametrize("df", [1.0, 2.0, 2.7, 5.0, 10.0, 24.5])
    @pytest.mark.parametrize("ncp", [0.0, 0.4, 7.0, 80.0, 300.0])
    def test_cdf_matches_scipy(self, df, ncp):
        d = NoncentralChiSq(df, ncp)
        mean = df + ncp
        sd = math.sqrt(2 * df + 4 * ncp)
        for x in [1e-6, 0.3 * mean, mean, mean + 2 * sd, mean + 6 * sd]:
            want = (
                scipy.stats.chi2.cdf(x, df)
                if ncp == 0.0
                else scipy.stats.ncx2.cdf(x, df, ncp)
            )
            assert d.cdf(x) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("df", [1.0, 2.7, 10.0, 24.5])
    @pytest.mark.parametrize("ncp", [1e3, 4200.0, 1e4, 1e5])
    def test_cdf_matches_scipy_large_ncp(self, df, ncp):
        """The windowed series matches scipy from mean - 8 sd to mean + 8 sd
        at the noncentralities of the high-endogeneity designs and beyond."""
        d = NoncentralChiSq(df, ncp)
        mean = df + ncp
        sd = math.sqrt(2 * df + 4 * ncp)
        for k in range(-8, 9):
            x = mean + k * sd
            assert d.cdf(x) == pytest.approx(scipy.stats.ncx2.cdf(x, df, ncp), abs=1e-10)

    @pytest.mark.parametrize("df", [1.0, 2.7, 10.0, 24.5])
    @pytest.mark.parametrize("ncp", [1e3, 1e4, 1e5, 2e5])
    def test_cdf_matches_scipy_large_ncp_to_1e12(self, df, ncp):
        """The same grid to 1e-12. At ncp 1e5, df 2.7, mean - 7 sd the first
        gamma CDF of the window is mid-range, so its prefactor, of size
        a log x, must not cancel; nor may the series terms, of size ncp."""
        d = NoncentralChiSq(df, ncp)
        mean = df + ncp
        sd = math.sqrt(2 * df + 4 * ncp)
        for k in range(-8, 9):
            x = mean + k * sd
            assert d.cdf(x) == pytest.approx(scipy.stats.ncx2.cdf(x, df, ncp), abs=1e-12)

    @pytest.mark.parametrize("df", [0.5, 1.0, 2.7, 10.0, 40.0])
    def test_cdf_upper_tail_to_1e12(self, df):
        """From the mean to the mean + 12 sd at ncp up to 400, where most
        windows start at 0, the series terms carry nearly all of the CDF."""
        for ncp in [0.0, 0.4, 7.0, 30.0, 80.0, 150.0, 200.0, 300.0, 400.0]:
            mean, sd = df + ncp, math.sqrt(2 * df + 4 * ncp)
            x = mean + sd * np.linspace(0.0, 12.0, 25)
            want = (scipy.stats.ncx2.cdf(x, df, ncp) if ncp
                    else scipy.stats.chi2.cdf(x, df))
            got = chisq_cdf(NoncentralChiSq(np.full(x.size, df), ncp), x)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("df", [0.5, 1.0, 2.7, 10.0, 40.0])
    def test_cdf_past_window_top_to_1e12(self, df, monkeypatch):
        """At and past x = 2 (a + e), the top of a law's window, the top term
        W P(a+e, x/2) carries part or all of the CDF; it is computed there."""
        top_terms = []
        lower = distributions._lower_gamma

        def counting(a, x):
            top_terms.append(a.size)
            return lower(a, x)

        monkeypatch.setattr(distributions, "_lower_gamma", counting)
        for ncp in [0.0, 1.0, 20.0, 170.0, 1000.0, 4200.0, 1e4]:
            end = distributions._window(np.array([ncp / 2]))[1][0]
            x = (df + 2.0 * end) * np.array([0.9, 1.0, 1.1, 1.5, 2.0, 4.0])
            want = (scipy.stats.ncx2.cdf(x, df, ncp) if ncp
                    else scipy.stats.chi2.cdf(x, df))
            got = chisq_cdf(NoncentralChiSq(np.full(x.size, df), ncp), x)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert len(top_terms) == 7 and min(top_terms) >= 5

    def test_cdf_edge_values(self):
        d = NoncentralChiSq(3.0, 5.0)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(1e9) == pytest.approx(1.0, abs=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ncp in (0.0, 5.0):
                assert chisq_cdf(NoncentralChiSq(3.0, ncp), np.inf) == 1.0
                batch = NoncentralChiSq(np.array([3.0, 3.0]), ncp)
                assert chisq_cdf(batch, [np.inf, 0.0]).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("df", [1.0, 3.3, 10.0])
    @pytest.mark.parametrize("ncp", [0.0, 2.0, 100.0])
    def test_quantile_matches_scipy(self, df, ncp):
        d = NoncentralChiSq(df, ncp)
        for p in [0.01, 0.2, 0.5, 0.9, 0.95, 0.999]:
            want = (
                scipy.stats.chi2.ppf(p, df)
                if ncp == 0.0
                else scipy.stats.ncx2.ppf(p, df, ncp)
            )
            assert chisq_quantile(d, p) == pytest.approx(want, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("df", [0.3, 0.7, 1.0, 2.5, 10.0, 40.0])
    @pytest.mark.parametrize("ncp", [0.0, 1.0, 20.0, 170.0, 1000.0, 4200.0, 1e4])
    def test_quantile_cdf_oracle_wide_range(self, df, ncp, cdf_calls):
        """scipy's CDF at our quantile is p, from tiny quantiles (df < 1,
        p = 1e-4) up to the noncentralities small tau reaches, within the
        call budget."""
        d = NoncentralChiSq(df, ncp)
        for p in [1e-4, 0.05, 0.5, 0.95, 0.999]:
            cdf_calls.clear()
            q = chisq_quantile(d, p)
            assert abs(scipy.stats.ncx2.cdf(q, df, ncp) - p) <= 1e-9
            assert len(cdf_calls) <= _BISECTION_CALLS

    @pytest.mark.parametrize("df", [0.3, 1.0, 2.5, 10.0])
    @pytest.mark.parametrize("ncp", [0.0, 1.0, 20.0, 170.0, 1000.0, 1e4])
    def test_quantile_cdf_oracle_extreme_p(self, df, ncp, cdf_calls):
        """scipy's CDF at our quantile is p for p = 1e-9 and 1 - 1e-9, within
        the call budget."""
        d = NoncentralChiSq(df, ncp)
        for p in (1e-9, 1.0 - 1e-9):
            cdf_calls.clear()
            q = chisq_quantile(d, p)
            assert abs(scipy.stats.ncx2.cdf(q, df, ncp) - p) <= 1e-9
            assert len(cdf_calls) <= _BISECTION_CALLS

    @pytest.mark.parametrize("df", [1.0, 3.3, 10.0, 24.5, 40.0])
    @pytest.mark.parametrize("ncp", [0.0, 1.0, 35.0, 170.0, 1000.0, 4200.0, 1e4])
    def test_quantile_cdf_oracle_to_1e12(self, df, ncp):
        """At the test level's p = 0.95, scipy's CDF at our quantile is p to
        1e-12: the quantile is the secant root of a bracket 1e-12 wide, not
        any point in it (at ncp 1e4 the CDF moves by about 4e-12 across
        such a bracket)."""
        q = chisq_quantile(NoncentralChiSq(df, ncp), 0.95)
        assert abs(scipy.stats.ncx2.cdf(q, df, ncp) - 0.95) <= 1e-12

    def test_quantile_calls_on_grouped_design_laws(self, cdf_calls):
        """The two batched quantiles of a he_reconstructed run of 100
        replications (df 3.3-3.9 at ncp = 10 df, and df 10 at ncp 3800-4100,
        in three blocks) take at most a third of the 173 calls (44 + 3 x 43)
        that bisecting from [0, mean + 10 sd + 50] took."""
        rng = np.random.default_rng(23)
        keff = rng.uniform(3.3, 3.9, 100)
        ncp = rng.uniform(3800.0, 4100.0, 100)
        q = [chisq_quantile(NoncentralChiSq(keff, 10.0 * keff), 0.95),
             chisq_quantile(NoncentralChiSq(np.full(100, 10.0), ncp), 0.95)]
        assert np.isfinite(q).all()
        assert len(cdf_calls) <= 173 // 3

    @pytest.mark.parametrize("df, p", [(0.01, 0.01), (0.05, 1e-9)])
    def test_quantile_below_smallest_double_fails(self, df, p, cdf_calls):
        """A quantile far below the smallest subnormal (about 1e-400 here)
        has no double within the CDF tolerance. Its bracket shrinks into the
        subnormals with its lower end at 0, where each step must still move
        it: the law stops and fails, alone and next to a law that does not."""
        with pytest.raises(NumericalError, match="quantile did not reach CDF tolerance"):
            chisq_quantile(NoncentralChiSq(df), p)
        q = chisq_quantile(NoncentralChiSq(np.array([df, 3.0]), np.array([0.0, 5.0])), [p, 0.95])
        assert np.isnan(q[0])
        assert q[1] == chisq_quantile(NoncentralChiSq(3.0, 5.0), 0.95)

    @pytest.mark.parametrize("df, ncp", [(2.0, 1e5), (2.0, 2e5)])
    def test_quantile_cdf_oracle_large_ncp(self, df, ncp):
        """scipy's CDF at our quantile is p at noncentralities far past the
        shipped designs."""
        d = NoncentralChiSq(df, ncp)
        for p in [1e-4, 0.05, 0.5, 0.95, 0.999]:
            q = chisq_quantile(d, p)
            assert abs(scipy.stats.ncx2.cdf(q, df, ncp) - p) <= 1e-9

    @pytest.fixture
    def series_built(self, monkeypatch):
        """The arguments of every series table built while the test runs."""
        built = []
        init = distributions._Series.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(distributions._Series, "__init__", counting_init)
        return built

    def test_tail_bounds_need_no_resum(self, series_built):
        """At ncp near 4000 every law reaches its tail bound in its block,
        and a quantile builds one series per block for all its steps."""
        d = NoncentralChiSq(np.full(100, 10.0), np.linspace(3700.0, 4100.0, 100))
        blocks = len(list(distributions._blocks(d)))
        q = chisq_quantile(d, 0.95)
        assert np.isfinite(q).all()
        assert len(series_built) == blocks

    def test_window_tail_bound_is_met(self):
        """Every window leaves out Poisson mass far below the tail tolerance,
        so at any ncp up to 2e7 a law's series reaches its tail bound."""
        lam = np.concatenate([[0.0], np.logspace(-6, 7, 2001)])
        left, right = distributions._poisson_outside(lam, *distributions._window(lam))
        assert np.all(left + right <= 1e-21)

    def test_missed_tail_bound_fails_the_law(self, monkeypatch):
        """A law whose series misses the tail tolerance is NaN in a batch, and
        a scalar law raises."""
        monkeypatch.setattr(distributions, "_TAIL_TOL", 0.0)
        batch = NoncentralChiSq(np.array([3.0, 3.0]), np.array([50.0, 4000.0]))
        assert np.isnan(chisq_cdf(batch, np.array([200.0, 4000.0]))).all()
        with pytest.raises(NumericalError, match="tail bound"):
            chisq_cdf(NoncentralChiSq(3.0, 4000.0), 4000.0)

    def test_noncentrality_past_bound_fails_without_tables(self, cdf_calls):
        """Past ncp 2e7 a scalar law raises before any table is built, and in
        a batch such a law is NaN, stops iterating at once and gets the
        central window, also where its window ends would wrap int64."""
        start, end = distributions._window(np.array([1e19, 1e7]))
        assert (start[0], end[0]) == (0, 1)
        assert end[1] - start[1] < 70_000
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match=r"noncentrality 1e\+300 is above 2e\+07"):
                chisq_cdf(NoncentralChiSq(3.0, 1e300), 10.0)
            with pytest.raises(NumericalError, match="noncentrality"):
                chisq_quantile(NoncentralChiSq(3.0, 2.0000001e7), 0.95)
            batch = NoncentralChiSq(np.array([3.0, 3.0, 3.0]), np.array([1e19, 50.0, 1e300]))
            assert np.isnan(chisq_cdf(batch, 60.0)[[0, 2]]).all()
            q = chisq_quantile(batch, 0.95)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.isnan(q[[0, 2]]).all()
        assert q[1] == chisq_quantile(NoncentralChiSq(3.0, 50.0), 0.95)
        # the failed laws leave at the bracket's two calls; the third is the
        # post-condition
        assert cdf_calls.count(3) <= 3

    def test_largest_supported_noncentrality(self):
        d = NoncentralChiSq(3.0, 2e7)
        q = chisq_quantile(d, 0.95)
        assert abs(scipy.stats.ncx2.cdf(q, 3.0, 2e7) - 0.95) <= 1e-9

    @pytest.mark.filterwarnings("error")
    def test_degrees_of_freedom_past_lgamma_range_fail(self):
        """Above df about 5e305 math.lgamma overflows; such a law fails with
        NumericalError alone and NaN in a batch, without a floating-point
        warning, and never calls lgamma on its window top or on a NaN
        argument."""
        with pytest.raises(NumericalError):
            chisq_cdf(NoncentralChiSq(1e306), 1e306)
        with pytest.raises(NumericalError):
            chisq_quantile(NoncentralChiSq(1e306), 0.95)
        with pytest.raises(NumericalError):
            lower_gamma_regularized(1e306, 1e306)
        q = chisq_quantile(NoncentralChiSq(np.array([3.0, 1e306])), 0.95)
        assert np.isnan(q[1])
        assert q[0] == chisq_quantile(NoncentralChiSq(3.0), 0.95)

    @pytest.mark.parametrize("df", [2e8, 1e9])
    def test_large_df_near_its_mean(self, df):
        """Near x = a the window top's gamma series takes about sqrt(70 a)
        terms, past 65536 from df about 1.2e8: the CDF, the incomplete gamma
        and the quantile still match scipy there."""
        sd = math.sqrt(2.0 * df)
        for k in [-1.0, 0.0, 0.1, 1.0]:
            x = df + k * sd
            assert chisq_cdf(NoncentralChiSq(df), x) == pytest.approx(
                scipy.stats.chi2.cdf(x, df), rel=1e-10
            )
            a = 0.5 * df
            y = a + k * math.sqrt(a)
            assert lower_gamma_regularized(a, y) == pytest.approx(
                scipy.special.gammainc(a, y), rel=1e-10
            )
        assert chisq_quantile(NoncentralChiSq(df), 0.95) == pytest.approx(
            scipy.stats.chi2.ppf(0.95, df), rel=1e-10
        )

    def test_top_term_past_series_cap_named(self):
        """Near its mean a law with df above about 2.3e10 needs more terms of
        the window top's incomplete gamma series than its cap of 900000; the
        error names that series and the df, not the Poisson tail. Away from
        the mean, and below that df, the law still evaluates."""
        with pytest.raises(NumericalError, match=r"incomplete gamma series .* df 4e\+10"):
            chisq_cdf(NoncentralChiSq(4e10), 4e10)
        assert chisq_cdf(NoncentralChiSq(4e10), 3.6e10) == 0.0
        assert chisq_cdf(NoncentralChiSq(4e10), 4.4e10) == 1.0
        assert chisq_cdf(NoncentralChiSq(1.2e8), 1.2e8) == pytest.approx(
            scipy.stats.chi2.cdf(1.2e8, 1.2e8), abs=1e-12
        )

    def test_batch_equals_laws_alone(self):
        """A law's quantile and CDF are bit-equal alone and inside a shuffled
        batch that spans several blocks of series terms."""
        rng = np.random.default_rng(17)
        df = rng.uniform(0.3, 12.0, 48)
        ncp = np.concatenate([[0.0, 1e4], rng.uniform(0.0, 200.0, 30),
                              rng.uniform(200.0, 1e4, 16)])
        p = rng.uniform(0.01, 0.99, 48)
        alone = [chisq_quantile(NoncentralChiSq(a, b), c) for a, b, c in zip(df, ncp, p)]
        cdf_alone = [chisq_cdf(NoncentralChiSq(a, b), q) for a, b, q in zip(df, ncp, alone)]
        perm = rng.permutation(48)
        batch = NoncentralChiSq(df[perm], ncp[perm])
        q = chisq_quantile(batch, p[perm])
        assert q.tolist() == [alone[i] for i in perm]
        assert chisq_cdf(batch, q).tolist() == [cdf_alone[i] for i in perm]

    def test_scalar_calls_return_floats(self):
        d = NoncentralChiSq(3.0, 5.0)
        assert type(chisq_quantile(d, 0.95)) is float
        assert type(chisq_cdf(d, 4.0)) is float
        assert type(d.cdf(-1.0)) is float
        assert type(d.quantile(0.5)) is float
        assert type(chisq_quantile(NoncentralChiSq(np.float64(2.0)), 0.5)) is float
        assert type(lower_gamma_regularized(2.0, 1.0)) is float

    def test_batch_failure_is_per_law(self, monkeypatch):
        """Where the scalar call raises, the batch call marks the law NaN."""
        monkeypatch.setattr(distributions, "_CDF_TOL", -1.0)
        with pytest.raises(NumericalError):
            chisq_quantile(NoncentralChiSq(2.0, 1.0), 0.5)
        q = chisq_quantile(NoncentralChiSq(np.array([2.0, 3.0]), 1.0), 0.5)
        assert np.isnan(q).all()

    def test_published_central_quantiles(self):
        known = {
            (1.0, 0.95): 3.841459,
            (2.0, 0.95): 5.991465,
            (5.0, 0.95): 11.070498,
            (10.0, 0.95): 18.307038,
            (20.0, 0.95): 31.410433,
            (1.0, 0.99): 6.634897,
            (10.0, 0.99): 23.209251,
        }
        for (df, p), want in known.items():
            got = chisq_quantile(NoncentralChiSq(df), p)
            assert got == pytest.approx(want, abs=1e-3)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d = NoncentralChiSq(float(rng.uniform(0.4, 40)), float(rng.uniform(0, 250)))
            p = float(rng.uniform(1e-3, 1 - 1e-3))
            x = chisq_quantile(d, p)
            assert chisq_cdf(d, x) == pytest.approx(p, abs=1e-8)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            NoncentralChiSq(0.0)
        with pytest.raises(ValueError):
            NoncentralChiSq(2.0, -1.0)
        with pytest.raises(ValueError):
            chisq_quantile(NoncentralChiSq(2.0), 0.0)
        with pytest.raises(ValueError):
            chisq_quantile(NoncentralChiSq(2.0), 1.0)

    @given(
        df=st.floats(0.3, 40.0),
        ncp=st.floats(0.0, 150.0),
        x=st.floats(0.01, 400.0),
        dx=st.floats(0.0, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_cdf_monotone(self, df, ncp, x, dx):
        d = NoncentralChiSq(df, ncp)
        assert d.cdf(x + dx) >= d.cdf(x) - 1e-12

    @given(df=st.floats(0.5, 30.0), ncp=st.floats(0.0, 120.0))
    @settings(max_examples=60, deadline=None)
    def test_quantile_monotone_in_p(self, df, ncp):
        d = NoncentralChiSq(df, ncp)
        qs = [chisq_quantile(d, p) for p in (0.1, 0.5, 0.9)]
        assert qs[0] < qs[1] < qs[2]


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(42, 3).generator().standard_normal(8)
        b = RngStream(42, 3).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(8)
        b = RngStream(42, 1).generator().standard_normal(8)
        c = RngStream(43, 0).generator().standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestMvnSample:
    def test_moments(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.0]])
        mean = np.array([1.0, -2.0])
        draws = mvn_sample(mean, cov, RngStream(0, 0), 200000)
        assert draws.shape == (200000, 2)
        assert np.allclose(draws.mean(axis=0), mean, atol=0.02)
        assert np.allclose(np.cov(draws.T), cov, atol=0.03)

    def test_accepts_generator(self):
        gen = np.random.default_rng(9)
        draws = mvn_sample(np.zeros(3), np.eye(3), gen, 10)
        assert draws.shape == (10, 3)

    def test_rejects_non_pd(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalError):
            mvn_sample(np.zeros(2), cov, RngStream(0, 0), 5)
