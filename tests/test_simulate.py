import math

import numpy as np
import pytest

from barista import (
    BaristaParams,
    BidderStrategyParams,
    OneStage,
    TwoStage,
    inverse_cdf,
    ks_one_sample,
    mean_count,
    sample_fixed_n,
    sample_geometric_uniform,
    sample_poisson_count,
    simulate_bidder_strategy,
    simulate_single_uniform_bids,
    uniform_rebid_intensity,
)


class TestDirectSampling:
    def test_fixed_n_deterministic(self, p_star):
        a = sample_fixed_n(p_star, 100, seed=42)
        b = sample_fixed_n(p_star, 100, seed=42)
        c = sample_fixed_n(p_star, 100, seed=43)
        np.testing.assert_array_equal(a.times, b.times)
        assert not np.array_equal(a.times, c.times)

    def test_fixed_n_contract(self, p_star):
        s = sample_fixed_n(p_star, 500, seed=0)
        assert s.n == 500
        assert np.all(np.diff(s.times) >= 0)
        assert np.all((s.times >= 0) & (s.times < p_star.T))

    def test_fixed_n_time_at_T_moves_below_T(self):
        # alpha3 < 1: a uniform within rounding of 1 maps to exactly T
        p = BaristaParams(3.0, 0.4, 0.5, 2.5, 5 / 1440, 1.0, 7.0)
        s = sample_fixed_n(p, 100_000, seed=479)
        assert s.times[-1] == np.nextafter(p.T, 0.0)
        assert np.all(s.times < p.T)
        assert inverse_cdf(p, 1.0) == p.T

    def test_fixed_n_law(self, p_star):
        s = sample_fixed_n(p_star, 4000, seed=7)
        assert ks_one_sample(s, p_star).p_value > 0.01

    def test_poisson_count_mean(self, p_star):
        p = p_star.with_c(20.0)
        expected = mean_count(p, p.T)
        counts = [sample_poisson_count(p, seed=k).n for k in range(60)]
        # 60 draws of Poisson(391): sample mean within 4 standard errors
        se = math.sqrt(expected / 60)
        assert abs(np.mean(counts) - expected) < 4 * se

    def test_zero_n(self, p_star):
        assert sample_fixed_n(p_star, 0, seed=1).n == 0

    def test_negative_n_rejected(self, p_star):
        with pytest.raises(ValueError):
            sample_fixed_n(p_star, -1, seed=1)


class TestGeometricUniform:
    @pytest.mark.parametrize("a,b,alpha", [(0.0, 1.0, 0.3), (0.0, 1.0, 1.0), (1.0, 3.0, 0.7)])
    def test_survival_matches_closed_form(self, a, b, alpha):
        x = np.sort(sample_geometric_uniform(a, b, alpha, seed=3, size=40000))
        grid = np.linspace(a, b * (1 - 1e-12), 801)
        empirical = 1.0 - np.searchsorted(x, grid, side="right") / x.size
        exact = (1.0 - (grid - a) / (b - a)) ** alpha
        assert np.max(np.abs(empirical - exact)) < 0.02

    def test_alpha_one_is_single_uniform(self):
        # success on the first try with certainty: one U(a, b) draw
        rng = np.random.default_rng(5)
        direct = rng.uniform(1.0, 3.0, 1000)
        walked = sample_geometric_uniform(1.0, 3.0, 1.0, seed=5, size=1000)
        np.testing.assert_allclose(np.sort(walked), np.sort(direct))

    def test_scalar_mode(self):
        x = sample_geometric_uniform(0.0, 1.0, 0.5, seed=9)
        assert isinstance(x, float)
        assert 0.0 <= x < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_geometric_uniform(1.0, 1.0, 0.5, seed=0)
        with pytest.raises(ValueError):
            sample_geometric_uniform(0.0, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample_geometric_uniform(0.0, 1.0, 1.5, seed=0)


class TestBidderStrategy:
    def test_success_probability(self):
        sp = BidderStrategyParams(rate=10.0, alpha2=0.4, alpha3=1.0, d=0.07, T=7.0)
        expected = 1.0 - 0.01**0.4 * (1.0 - 0.4)
        assert sp.success_probability == pytest.approx(expected, rel=1e-12)
        flat = BidderStrategyParams(rate=10.0, alpha2=0.4, alpha3=1.0, d=0.0, T=7.0)
        assert flat.success_probability == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BidderStrategyParams(rate=0.0, alpha2=0.4, alpha3=1.0, d=0.1, T=7.0)
        with pytest.raises(ValueError):
            BidderStrategyParams(rate=1.0, alpha2=1.2, alpha3=1.0, d=0.1, T=7.0)
        with pytest.raises(ValueError):
            BidderStrategyParams(rate=1.0, alpha2=0.5, alpha3=0.4, d=0.1, T=7.0)
        with pytest.raises(ValueError):
            BidderStrategyParams(rate=1.0, alpha2=0.4, alpha3=1.0, d=7.0, T=7.0)

    def test_deterministic(self):
        sp = BidderStrategyParams(rate=50.0, alpha2=0.4, alpha3=1.0, d=0.07, T=7.0)
        a = simulate_bidder_strategy(sp, seed=2)
        b = simulate_bidder_strategy(sp, seed=2)
        np.testing.assert_array_equal(a.times, b.times)

    def test_pooled_bids_follow_two_stage_law(self):
        sp = BidderStrategyParams(rate=120.0, alpha2=0.4, alpha3=1.0, d=0.07, T=7.0)
        s = simulate_bidder_strategy(sp, seed=11)
        model = TwoStage(alpha2=0.4, alpha3=1.0, d2=0.07, c=1.0, T=7.0).as_barista()
        assert s.n > 400
        assert ks_one_sample(s, model).p_value > 0.01

    def test_no_late_phase_reduces_to_one_stage(self):
        sp = BidderStrategyParams(rate=120.0, alpha2=0.4, alpha3=1.0, d=0.0, T=7.0)
        s = simulate_bidder_strategy(sp, seed=13)
        model = OneStage(alpha=0.4, c=1.0, T=7.0).as_barista()
        assert ks_one_sample(s, model).p_value > 0.01

    def test_times_inside_horizon(self):
        sp = BidderStrategyParams(rate=300.0, alpha2=0.9, alpha3=1.0, d=0.001, T=1.0)
        s = simulate_bidder_strategy(sp, seed=3)
        assert np.all(s.times < 1.0)


class TestSingleUniformBid:
    def test_count_scale(self):
        s = simulate_single_uniform_bids(rate=500.0, T=1.0, seed=21)
        # each arrival bids exactly once, so E[bids] = rate * T = 500
        assert abs(s.n - 500) < 4 * math.sqrt(500)

    def test_deterministic(self):
        a = simulate_single_uniform_bids(rate=100.0, T=2.0, seed=8)
        b = simulate_single_uniform_bids(rate=100.0, T=2.0, seed=8)
        np.testing.assert_array_equal(a.times, b.times)

    def test_density_shape(self):
        s = simulate_single_uniform_bids(rate=2000.0, T=1.0, seed=4)
        counts, edges = np.histogram(s.times, bins=np.linspace(0, 1, 21))
        prim = lambda t: (1 - t) * np.log1p(-t) + t
        expected = 2000.0 * (prim(edges[1:-1]) - prim(edges[:-2]))
        # all but the final (singular) bin within 4 Poisson standard errors
        assert np.all(np.abs(counts[:-1] - expected) < 4 * np.sqrt(expected))

    def test_rebid_intensity_value(self):
        assert uniform_rebid_intensity(2.0, 7.0, 3.5) == pytest.approx(
            2.0 * math.log(2.0), rel=1e-12)

    def test_rebid_intensity_vector_and_domain(self):
        t = np.array([0.0, 0.5])
        np.testing.assert_allclose(
            uniform_rebid_intensity(1.0, 1.0, t), [0.0, math.log(2.0)])
        with pytest.raises(ValueError):
            uniform_rebid_intensity(1.0, 1.0, 1.0)
