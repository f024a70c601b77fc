import numpy as np
import pytest
import scipy.special
import scipy.stats

from barista import (
    BidSample,
    OneStage,
    QqData,
    cdf,
    inverse_cdf,
    kolmogorov_sf,
    ks_one_sample,
    ks_two_sample,
    qq_points,
    reverse_time_ecdf,
    sample_fixed_n,
)
from conftest import random_params


class TestKolmogorovTail:
    def test_matches_scipy(self):
        lams = np.concatenate([np.linspace(0.3, 3.0, 40), [5.0, 8.0]])
        ours = np.array([kolmogorov_sf(l) for l in lams])
        ref = scipy.special.kolmogorov(lams)
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-300)

    def test_edges(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(-1.0) == 1.0
        assert kolmogorov_sf(50.0) == 0.0


class TestOneSampleKs:
    def test_statistic_matches_scipy(self, p_star):
        s = sample_fixed_n(p_star, 500, seed=0)
        res = ks_one_sample(s, p_star)
        ref = scipy.stats.kstest(s.times, lambda t: cdf(p_star, t))
        assert res.d_statistic == pytest.approx(ref.statistic, abs=1e-14)
        assert res.n_effective == 500

    def test_pvalue_asymptotic_regime(self, p_star):
        # at n=2000 the asymptotic tail and scipy's exact one nearly agree
        s = sample_fixed_n(p_star, 2000, seed=1)
        res = ks_one_sample(s, p_star)
        ref = scipy.stats.kstest(s.times, lambda t: cdf(p_star, t))
        assert res.p_value == pytest.approx(ref.pvalue, abs=0.02)

    def test_detects_wrong_model(self, p_star):
        s = sample_fixed_n(p_star, 2000, seed=2)
        wrong = OneStage(alpha=1.0, c=1.0, T=7.0).as_barista()
        assert ks_one_sample(s, wrong).p_value < 1e-6

    def test_accepts_true_model_across_seeds(self, p_star):
        pvals = [ks_one_sample(sample_fixed_n(p_star, 400, seed=k), p_star).p_value
                 for k in range(20)]
        # under the null, p-values are uniform; all 20 below 0.01 is absurd
        assert max(pvals) > 0.05

    def test_horizon_mismatch_rejected(self, p_star):
        s = BidSample(times=np.array([0.1]), T=5.0)
        with pytest.raises(ValueError):
            ks_one_sample(s, p_star)

    def test_hand_case(self):
        # single point at the median: D = 1/2 either way
        flat = OneStage(alpha=1.0, c=1.0, T=1.0).as_barista()
        s = BidSample(times=np.array([0.5]), T=1.0)
        assert ks_one_sample(s, flat).d_statistic == pytest.approx(0.5)


class TestTwoSampleKs:
    def test_matches_scipy(self, p_star):
        a = sample_fixed_n(p_star, 300, seed=3)
        b = sample_fixed_n(p_star, 450, seed=4)
        res = ks_two_sample(a, b)
        ref = scipy.stats.ks_2samp(a.times, b.times, method="asymp")
        assert res.d_statistic == pytest.approx(ref.statistic, abs=1e-14)
        assert res.n_effective == pytest.approx(300 * 450 / 750)

    def test_separates_different_laws(self, p_star):
        a = sample_fixed_n(p_star, 1500, seed=5)
        other = OneStage(alpha=1.0, c=1.0, T=7.0).as_barista()
        b = sample_fixed_n(other, 1500, seed=6)
        assert ks_two_sample(a, b).p_value < 1e-6
        same = sample_fixed_n(p_star, 1500, seed=7)
        assert ks_two_sample(a, same).p_value > 0.01

    def test_horizons_must_match(self):
        a = BidSample(times=np.array([0.1]), T=1.0)
        b = BidSample(times=np.array([0.1]), T=2.0)
        with pytest.raises(ValueError):
            ks_two_sample(a, b)

    def test_symmetric(self, p_star):
        a = sample_fixed_n(p_star, 100, seed=8)
        b = sample_fixed_n(p_star, 170, seed=9)
        r1, r2 = ks_two_sample(a, b), ks_two_sample(b, a)
        assert r1.d_statistic == r2.d_statistic
        assert r1.p_value == r2.p_value


class TestQq:
    def test_against_process_reference(self, p_star):
        s = sample_fixed_n(p_star, 200, seed=10)
        qq = qq_points(s, p_star)
        assert qq.pairs.shape == (200, 2)
        # reference quantiles are the inverse cdf at (i - 1/2)/n
        u = (np.arange(200) + 0.5) / 200
        np.testing.assert_allclose(qq.reference, inverse_cdf(p_star, u), rtol=1e-12)
        np.testing.assert_array_equal(qq.observed, s.times)
        # middle-stage quantiles are noisy at n=200; just rule out gross error
        assert qq.max_abs_deviation() < 0.3 * p_star.T

    def test_against_sample_reference(self, p_star):
        a = sample_fixed_n(p_star, 150, seed=11)
        b = sample_fixed_n(p_star, 300, seed=12)
        qq = qq_points(a, b)
        assert qq.pairs.shape == (150, 2)
        u = (np.arange(150) + 0.5) / 150
        np.testing.assert_allclose(qq.reference, np.quantile(b.times, u), rtol=1e-12)

    def test_perfect_agreement_on_self(self, p_star):
        s = sample_fixed_n(p_star, 64, seed=13)
        qq = qq_points(s, s)
        # quantiles of a sample against itself at midpoint levels interpolate
        # between order statistics; deviation stays below the largest gap
        assert qq.max_abs_deviation() <= np.max(np.diff(s.times))

    def test_pairs_validation(self):
        with pytest.raises(ValueError):
            QqData(pairs=np.zeros((3,)))
        with pytest.raises(ValueError):
            QqData(pairs=np.array([[0.0, 0.0], [1.0, np.nan]]))
        with pytest.raises(ValueError):
            QqData(pairs=np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestReverseTimeEcdf:
    def test_maps_tail_onto_unit_interval(self, p_star):
        s = sample_fixed_n(p_star, 1000, seed=14)
        window = 1.0
        out = reverse_time_ecdf(s, window)
        assert out.T == 1.0
        inside = s.times[s.times > s.T - window]
        assert out.n == inside.size
        # largest reversed point comes from the earliest bid inside the window
        np.testing.assert_allclose(np.sort((s.T - inside) / window), out.times)

    def test_boundary_is_exclusive(self):
        s = BidSample(times=np.array([1.0, 2.0, 2.5]), T=3.0)
        out = reverse_time_ecdf(s, 1.0)
        # the bid exactly at T - window is excluded; reversed times in [0, 1)
        np.testing.assert_allclose(out.times, [0.5])

    def test_window_validated(self, p_star):
        s = sample_fixed_n(p_star, 10, seed=0)
        for w in (0.0, -1.0, 7.5):
            with pytest.raises(ValueError):
                reverse_time_ecdf(s, w)

    def test_self_similar_tail_has_power_law(self, p_star):
        # reversed-time tail of the final stage follows u^alpha3; alpha3 = 1
        # for the reference vector, so the reversed sample is uniform
        s = sample_fixed_n(p_star, 20_000, seed=15)
        out = reverse_time_ecdf(s, p_star.d2)
        flat = OneStage(alpha=1.0, c=1.0, T=1.0).as_barista()
        assert ks_one_sample(out, flat).p_value > 0.01


class TestDiagnosticsOnRandomVectors:
    @pytest.mark.parametrize("seed", range(5))
    def test_true_model_not_rejected(self, seed):
        rng = np.random.default_rng(seed + 100)
        p = random_params(rng)
        s = sample_fixed_n(p, 600, seed=seed)
        assert ks_one_sample(s, p).p_value > 1e-4
        qq = qq_points(s, p)
        assert np.all(np.isfinite(qq.pairs))
