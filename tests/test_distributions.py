import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_bad_args(self):
        with pytest.raises(ValueError):
            lower_gamma_regularized(0.0, 1.0)
        with pytest.raises(ValueError):
            lower_gamma_regularized(1.0, -0.5)

    @given(
        a=st.floats(0.05, 150.0),
        x=st.floats(0.0, 600.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_in_unit_interval_and_monotone_tail(self, a, x):
        p = lower_gamma_regularized(a, x)
        assert 0.0 <= p <= 1.0
        assert lower_gamma_regularized(a, x + 1.0) >= p - 1e-12


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

    def test_cdf_edge_values(self):
        d = NoncentralChiSq(3.0, 5.0)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(1e9) == pytest.approx(1.0, abs=1e-12)

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
    def test_quantile_cdf_oracle_wide_range(self, df, ncp):
        """scipy's CDF at our quantile is p, from tiny quantiles (df < 1,
        p = 1e-4) up to the noncentralities small tau reaches."""
        d = NoncentralChiSq(df, ncp)
        for p in [1e-4, 0.05, 0.5, 0.95, 0.999]:
            q = chisq_quantile(d, p)
            assert abs(scipy.stats.ncx2.cdf(q, df, ncp) - p) <= 1e-9

    @pytest.mark.parametrize("df", [0.3, 1.0, 2.5, 10.0])
    @pytest.mark.parametrize("ncp", [0.0, 1.0, 20.0, 170.0, 1000.0, 1e4])
    def test_quantile_cdf_oracle_extreme_p(self, df, ncp):
        """scipy's CDF at our quantile is p for p = 1e-9 and 1 - 1e-9."""
        d = NoncentralChiSq(df, ncp)
        for p in (1e-9, 1.0 - 1e-9):
            q = chisq_quantile(d, p)
            assert abs(scipy.stats.ncx2.cdf(q, df, ncp) - p) <= 1e-9

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
        """At ncp near 4000 every law reaches its tail bound in its block:
        a quantile builds one series per block and re-sums no law alone."""
        d = NoncentralChiSq(np.full(100, 10.0), np.linspace(3700.0, 4100.0, 100))
        blocks = len(list(distributions._blocks(d)))
        q = chisq_quantile(d, 0.95)
        assert np.isfinite(q).all()
        assert len(series_built) == blocks

    def test_tiny_tail_tol_resums_from_zero(self, series_built):
        """A tail tolerance below the Chernoff bound of the mass before the
        window re-sums the law from j = 0, and agrees with the default."""
        for df, ncp in [(3.0, 300.0), (3.0, 4000.0), (10.0, 1e4)]:
            for x in (ncp - 100.0, df + ncp, ncp + 200.0):
                series_built.clear()
                tight = NoncentralChiSq(df, ncp).cdf(x, tail_tol=1e-40)
                (start, _), = [args[2] for args in series_built[1:]]
                assert start.tolist() == [0]
                assert tight == pytest.approx(NoncentralChiSq(df, ncp).cdf(x), abs=1e-12)

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

    def test_batch_failure_is_per_law(self):
        """Where the scalar call raises, the batch call marks the law NaN."""
        with pytest.raises(NumericalError):
            chisq_quantile(NoncentralChiSq(2.0, 1.0), 0.5, cdf_tol=-1.0)
        q = chisq_quantile(NoncentralChiSq(np.array([2.0, 3.0]), 1.0), 0.5, cdf_tol=-1.0)
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

    def test_tail_tolerance_stability(self):
        d = NoncentralChiSq(7.0, 90.0)
        for x in (40.0, 97.0, 200.0):
            assert d.cdf(x, tail_tol=1e-13) == pytest.approx(
                d.cdf(x, tail_tol=1e-9), abs=1e-8
            )


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
