"""Exact evaluation of the piecewise process.

Frozen constants below were computed against independent oracles before the
implementation existed: adaptive quadrature of the intensity for the mean
counts, and the closed-form prefactor identity for the density constant.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from barista import (
    BaristaParams,
    OneStage,
    ThreeStage,
    TwoStage,
    cdf,
    intensity,
    inverse_cdf,
    mean_count,
    normalization_constant,
    pdf,
    restrict,
    superpose,
)
from conftest import P_STAR, random_params

# quadrature-frozen values at P_STAR
M_TOTAL = 19.569253856326373
M_AT_3_5 = 6.807221229720528
C_CONST = 0.05110056864414985
LAMBDA_AT_0 = 3.15429544076757


def quad_mean(p: BaristaParams, s: float) -> float:
    """Independent oracle: integrate the intensity directly."""
    val, err = integrate.quad(
        lambda t: intensity(p, t), 0.0, s,
        points=[x for x in (p.d1, p.T - p.d2) if 0.0 < x < s],
        limit=300,
    )
    return val


class TestFrozenValues:
    def test_total_mean(self, p_star):
        assert mean_count(p_star, p_star.T) == pytest.approx(M_TOTAL, rel=1e-12)

    def test_interior_mean(self, p_star):
        assert mean_count(p_star, 3.5) == pytest.approx(M_AT_3_5, rel=1e-12)

    def test_normalization(self, p_star):
        assert normalization_constant(p_star) == pytest.approx(C_CONST, rel=1e-12)

    def test_opening_intensity(self, p_star):
        assert intensity(p_star, 0.0) == pytest.approx(LAMBDA_AT_0, rel=1e-12)


class TestAgainstQuadrature:
    @pytest.mark.parametrize("seed", range(12))
    def test_mean_count_random(self, seed):
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        for frac in (0.3, 0.7, 1.0):
            s = frac * p.T
            assert mean_count(p, s) == pytest.approx(quad_mean(p, s), rel=1e-8)

    def test_pdf_integrates_to_one(self, p_star):
        total, _ = integrate.quad(
            lambda t: pdf(p_star, t), 0.0, p_star.T,
            points=[p_star.d1, p_star.T - p_star.d2], limit=300,
        )
        assert total == pytest.approx(1.0, rel=1e-9)


class TestIdentities:
    @pytest.mark.parametrize("seed", range(8))
    def test_cdf_is_normalized_mean(self, seed):
        rng = np.random.default_rng(100 + seed)
        p = random_params(rng)
        s = np.linspace(0.0, p.T, 57)
        expected = mean_count(p, s) / mean_count(p, p.T)
        np.testing.assert_allclose(cdf(p, s), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_pdf_is_scaled_intensity(self, seed):
        rng = np.random.default_rng(200 + seed)
        p = random_params(rng)
        s = np.linspace(0.0, p.T * (1 - 1e-9), 41)
        ratio = pdf(p, s) / intensity(p, s)
        np.testing.assert_allclose(
            ratio, normalization_constant(p) / p.c, rtol=1e-12)

    def test_normalization_is_scale_free(self, p_star):
        for c in (0.01, 1.0, 250.0):
            assert normalization_constant(p_star.with_c(c)) == pytest.approx(
                C_CONST, rel=1e-13)

    @pytest.mark.parametrize("seed", range(10))
    def test_continuity_at_changepoints(self, seed):
        rng = np.random.default_rng(300 + seed)
        p = random_params(rng)
        for point in (p.d1, p.T - p.d2):
            if not (0.0 < point < p.T):
                continue
            left = intensity(p, np.nextafter(point, 0.0))
            right = intensity(p, point)
            assert right == pytest.approx(left, rel=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_inverse_roundtrip(self, seed):
        rng = np.random.default_rng(400 + seed)
        p = random_params(rng)
        u = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 200)])
        s = inverse_cdf(p, u)
        assert np.all((s >= 0) & (s <= p.T))
        np.testing.assert_allclose(cdf(p, s), u, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("alpha, theta, T", [
        (0.7, 0.5, 1.0), (2.0, 0.25, 1.0), (1.0, 0.9, 1.0), (1.4, 0.6, 2.0), (3.0, 0.5, 7.0),
    ])
    def test_one_stage_tail_is_self_similar(self, alpha, theta, T):
        # shrinking the lookback window t by theta scales the tail mass by
        # theta**alpha, whatever t is: (1 - F(T - theta t)) / (1 - F(T - t))
        p = OneStage(alpha=alpha, c=1.0, T=T).as_barista()
        for t in T * np.array([0.05, 0.15, 0.3, 0.85, 1.0]):
            ratio = (1.0 - cdf(p, T - theta * t)) / (1.0 - cdf(p, T - t))
            assert ratio == pytest.approx(theta ** alpha, rel=1e-9)

    def test_inverse_hits_changepoints(self, p_star):
        for point in (p_star.d1, p_star.T - p_star.d2):
            u = cdf(p_star, point)
            assert inverse_cdf(p_star, u) == pytest.approx(point, abs=1e-9)


class TestDegenerateStages:
    def test_no_final_stage(self):
        p = BaristaParams(2.0, 0.5, 1.0, 1.0, 0.0, 3.0, 4.0)
        assert cdf(p, p.T) == 1.0
        assert np.isfinite(mean_count(p, p.T))
        u = np.linspace(0, 1, 101)
        np.testing.assert_allclose(cdf(p, inverse_cdf(p, u)), u, atol=1e-10)

    def test_no_early_stage(self):
        p = BaristaParams(2.0, 0.5, 1.2, 0.0, 0.5, 3.0, 4.0)
        assert intensity(p, 0.0) == pytest.approx(p.c, rel=1e-12)
        assert mean_count(p, p.T) == pytest.approx(quad_mean(p, p.T), rel=1e-8)

    def test_one_stage_closed_form(self):
        one = OneStage(alpha=0.7, c=2.0, T=3.0)
        p = one.as_barista()
        s = np.linspace(0, 3.0, 31)
        np.testing.assert_allclose(cdf(p, s), 1 - (1 - s / 3.0) ** 0.7, atol=1e-12)
        assert mean_count(p, 3.0) == pytest.approx(3.0 * 2.0 / 0.7, rel=1e-12)


class TestRestrict:
    def test_is_a_time_shift(self, p_star):
        beta = 0.5
        shifted = restrict(p_star, beta)
        assert shifted.T == pytest.approx(3.5)
        s = np.linspace(0, shifted.T * (1 - 1e-9), 33)
        np.testing.assert_allclose(
            intensity(shifted, s), intensity(p_star, beta * p_star.T + s), rtol=1e-12)

    def test_scale_factor(self, p_star):
        shifted = restrict(p_star, 0.5)
        assert shifted.c == pytest.approx(0.5 ** (p_star.alpha2 - 1.0), rel=1e-13)

    def test_beta_zero_is_identity(self, p_star):
        assert restrict(p_star, 0.0) == p_star

    def test_cut_inside_final_stage_rejected(self, p_star):
        with pytest.raises(ValueError):
            restrict(p_star, 1.0 - p_star.d2 / p_star.T / 2)

    def test_early_stage_swallowed(self):
        p = BaristaParams(2.0, 0.5, 1.0, 1.0, 0.1, 3.0, 4.0)
        shifted = restrict(p, 0.5)
        assert shifted.d1 == 0.0
        assert shifted.d2 == pytest.approx(0.1)


class TestSuperpose:
    def test_scales_add(self, p_star):
        combined = superpose([p_star, p_star.with_c(4.0), p_star.with_c(0.5)])
        assert combined.c == pytest.approx(5.5)
        assert combined.with_c(1.0) == p_star.with_c(1.0)

    def test_cdf_unchanged(self, p_star):
        combined = superpose([p_star] * 10)
        s = np.linspace(0, 7.0, 29)
        np.testing.assert_allclose(cdf(combined, s), cdf(p_star, s), atol=1e-14)

    def test_shape_mismatch_named(self, p_star):
        other = BaristaParams(3.0, 0.4, 1.0, 2.6, p_star.d2, 1.0, 7.0)
        with pytest.raises(ValueError, match="d1"):
            superpose([p_star, other])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            superpose([])


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(alpha1=0.0), dict(alpha2=-1.0), dict(alpha3=math.nan),
        dict(c=0.0), dict(T=-2.0), dict(d1=-0.1), dict(d2=-0.1),
        dict(d1=6.999, d2=0.01), dict(d1=7.0), dict(d2=7.0),
    ])
    def test_bad_params_rejected(self, kwargs):
        base = dict(alpha1=3.0, alpha2=0.4, alpha3=1.0, d1=2.5, d2=5 / 1440, c=1.0, T=7.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            BaristaParams(**base)

    @pytest.mark.parametrize("build", [
        lambda: OneStage(alpha=-1.0, c=1.0, T=7.0),
        lambda: TwoStage(0.3, 7.7, 99.0, 1.0, 5.0),  # d2 beyond the horizon
    ], ids=["one-stage", "two-stage"])
    def test_family_checked_at_construction(self, build):
        with pytest.raises(ValueError):
            build()

    def test_domain_checked(self, p_star):
        with pytest.raises(ValueError):
            intensity(p_star, -0.1)
        with pytest.raises(ValueError):
            cdf(p_star, 7.1)
        with pytest.raises(ValueError):
            inverse_cdf(p_star, 1.2)

    def test_family_round_trips(self):
        two = TwoStage(alpha2=0.3, alpha3=7.7, d2=1 / 1440, c=5.0, T=5.0)
        p = two.as_barista()
        assert p.alpha1 == p.alpha2 == 0.3
        assert p.d1 == 0.0
        assert two.tag == "two-stage"
        assert list(two.free_values()) == list(two.free_names)
        assert ThreeStage is BaristaParams and P_STAR.as_barista() is P_STAR
        assert P_STAR.free_names == ("alpha1", "alpha2", "alpha3", "d1", "d2")


@given(
    seed=st.integers(0, 2**32 - 1),
    fracs=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_cdf_monotone_and_bounded(seed, fracs):
    p = random_params(np.random.default_rng(seed))
    s = np.sort(np.asarray(fracs)) * p.T
    f = cdf(p, s)
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert np.all(np.diff(f) >= -1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    us=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_inverse_monotone_and_bounded(seed, us):
    p = random_params(np.random.default_rng(seed))
    u = np.sort(np.asarray(us))
    s = inverse_cdf(p, u)
    assert np.all((s >= 0.0) & (s <= p.T))
    assert np.all(np.diff(s) >= -1e-9 * p.T)
