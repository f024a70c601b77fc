import copy
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
import scipy.optimize

from barista import (
    BaristaParams,
    BidSample,
    EstimationError,
    FitResult,
    GaConfig,
    OneStage,
    QcConfig,
    ThreeStage,
    TwoStage,
    bootstrap_se,
    cdf,
    default_bounds,
    default_qc_config,
    ecdf,
    estimate_c,
    ga_fit,
    loglik,
    loglik_gradient,
    loglik_hessian,
    mean_count,
    mle_nhpp1,
    normalization_constant,
    pdf,
    profile_fit,
    qc_alpha,
    qc_alpha3_survival,
    qc_changepoints,
    qc_fit,
    sample_fixed_n,
)
from barista import estimate
from barista.estimate import _CondLoglik
from conftest import P_STAR, ZERO_SPAN, random_params, zero_span_sample


def perturbed(p: BaristaParams, a1=None, a2=None, a3=None) -> BaristaParams:
    return BaristaParams(
        a1 if a1 is not None else p.alpha1,
        a2 if a2 is not None else p.alpha2,
        a3 if a3 is not None else p.alpha3,
        p.d1, p.d2, p.c, p.T,
    )


def fd_gradient(sample: BidSample, p: BaristaParams, h: float = 1e-6) -> np.ndarray:
    a = np.array([p.alpha1, p.alpha2, p.alpha3])
    out = np.empty(3)
    for j in range(3):
        hj = h * max(1.0, a[j])
        up, dn = a.copy(), a.copy()
        up[j] += hj
        dn[j] -= hj
        out[j] = (loglik(sample, perturbed(p, *up)) - loglik(sample, perturbed(p, *dn))) / (2 * hj)
    return out


def fd_hessian_of_gradient(sample: BidSample, p: BaristaParams, h: float = 1e-6) -> np.ndarray:
    a = np.array([p.alpha1, p.alpha2, p.alpha3])
    out = np.empty((3, 3))
    for j in range(3):
        hj = h * max(1.0, a[j])
        up, dn = a.copy(), a.copy()
        up[j] += hj
        dn[j] -= hj
        g_up = loglik_gradient(sample, perturbed(p, *up))
        g_dn = loglik_gradient(sample, perturbed(p, *dn))
        out[:, j] = (g_up - g_dn) / (2 * hj)
    return out


def _case(seed: int) -> tuple[BidSample, BaristaParams]:
    rng = np.random.default_rng(seed)
    p = random_params(rng)
    n = int(rng.integers(200, 1500))
    return sample_fixed_n(p, n, seed=seed + 10_000), p


class TestEcdf:
    def test_values(self):
        s = BidSample(times=np.array([0.1, 0.4, 0.4, 0.8]), T=1.0)
        assert ecdf(s, 0.05) == 0.0
        assert ecdf(s, 0.4) == 0.75
        assert ecdf(s, 0.9) == 1.0
        np.testing.assert_allclose(ecdf(s, np.array([0.1, 0.5])), [0.25, 0.75])

    def test_empty_rejected(self):
        with pytest.raises(EstimationError):
            ecdf(BidSample(times=np.array([]), T=1.0), 0.5)


class TestQuickCrudeOnExactCdf:
    """With the true CDF supplied, every plug-in formula is exact."""

    def test_alpha_recovery(self, p_star):
        F = lambda t: cdf(p_star, t)
        T = p_star.T
        a1 = qc_alpha(F, T, T - 0.001, T - 1.0)
        a2 = qc_alpha(F, T, T - 3.0, T - 6.9)
        a3 = qc_alpha3_survival(F, T, T - 2.0 / 1440, T - 1.0 / 1440)
        assert a1 == pytest.approx(3.0, rel=1e-9)
        assert a2 == pytest.approx(0.4, rel=1e-9)
        assert a3 == pytest.approx(1.0, rel=1e-9)

    def test_changepoint_recovery(self, p_star):
        F = lambda t: cdf(p_star, t)
        safe = (1.0, 3.0, 6.0, p_star.T - 2.0 / 1440)
        d1, d2 = qc_changepoints(F, (3.0, 0.4, 1.0), safe, p_star.T)
        assert d1 == pytest.approx(2.5, rel=1e-9)
        assert d2 == pytest.approx(5.0 / 1440, rel=1e-9)

    def test_exact_on_random_vectors(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            p = random_params(rng)
            # need genuinely three-stage vectors with distinct exponents
            if p.d1 < 0.05 * p.T or p.d2 < 1e-4 * p.T or p.d2 > 0.2 * p.T:
                continue
            if abs(p.alpha1 - p.alpha2) < 0.1 or abs(p.alpha2 - p.alpha3) < 0.1:
                continue
            F = lambda t: cdf(p, t)
            T, d1, d2 = p.T, p.d1, p.d2
            cut = T - d2
            a1 = qc_alpha(F, T, T - 0.05 * d1, T - 0.9 * d1)
            a2 = qc_alpha(F, T, T - (d1 + 0.05 * (cut - d1)), T - (d1 + 0.9 * (cut - d1)))
            a3 = qc_alpha3_survival(F, T, cut + 0.2 * d2, cut + 0.8 * d2)
            assert a1 == pytest.approx(p.alpha1, rel=1e-7)
            assert a2 == pytest.approx(p.alpha2, rel=1e-7)
            assert a3 == pytest.approx(p.alpha3, rel=1e-7)
            safe = (0.5 * d1, d1 + 0.2 * (cut - d1), d1 + 0.8 * (cut - d1), cut + 0.5 * d2)
            d1_hat, d2_hat = qc_changepoints(F, (a1, a2, a3), safe, T)
            assert d1_hat == pytest.approx(d1, rel=1e-6)
            assert d2_hat == pytest.approx(d2, rel=1e-6)

    def test_flat_cdf_rejected(self):
        with pytest.raises(EstimationError):
            qc_alpha(lambda t: 0.5, 7.0, 6.0, 1.0)
        with pytest.raises(EstimationError):
            qc_alpha3_survival(lambda t: 1.0, 7.0, 6.9, 6.99)

    def test_points_with_no_log_span_rejected(self):
        # T - 1e-17 and T - 2e-17 round to the same 7.0, and offsets four
        # ulps below 30 share one log: no exponent is implied, and the error
        # names both points
        with pytest.raises(EstimationError, match="late points 1e-17 and 2e-17 ") as err:
            qc_alpha3_survival(lambda t: 1e16 * t, 7.0, 1e-17, 2e-17)
        assert err.value.stage == "qc_alpha3"
        t, s = 30.0 - 7.105427357601002e-15, 30.0 - 1.4210854715202004e-14
        assert math.log(t) == math.log(s) and s < math.sqrt(s * t) < t
        with pytest.raises(EstimationError, match=f"window offsets {t} and {s} ") as err:
            qc_alpha(lambda x: 1e13 * x, 30.0, t, s)
        assert err.value.stage == "qc_alpha"

    def test_equal_exponents_rejected(self, p_star):
        F = lambda t: cdf(p_star, t)
        with pytest.raises(EstimationError):
            qc_changepoints(F, (0.4, 0.4, 1.0), (1.0, 3.0, 6.0, 6.99), 7.0)

    @pytest.mark.parametrize("alphas", [(0.4 - 1e-13, 0.4, 1.0), (3.0, 0.4, 0.4 + 1e-13)])
    def test_overflowing_changepoint_power_rejected(self, p_star, alphas):
        # an exponent gap of 1e-13 raises the bracket to a power near 1e13
        F = lambda t: cdf(p_star, t)
        with pytest.raises(EstimationError, match="changepoint formulas overflow") as err:
            qc_changepoints(F, alphas, (1.0, 3.0, 6.0, 6.99), 7.0)
        assert err.value.stage == "qc_changepoints"

    def test_overflowing_window_offsets_rejected(self):
        T = 1e308
        with pytest.raises(EstimationError, match=r"overflow: horizon 1e\+308 is too large") as err:
            qc_alpha(lambda t: min(max(t / T, 0.0), 1.0), T, 0.99 * T, 0.5 * T)
        assert err.value.stage == "qc_alpha"

    def test_point_ordering_validated(self):
        with pytest.raises(ValueError):
            qc_alpha(lambda t: t, 7.0, 1.0, 6.0)  # t < s
        with pytest.raises(ValueError):
            qc_alpha3_survival(lambda t: t / 7, 7.0, 6.9, 6.5)


class TestQcFit:
    def test_recovers_on_large_sample(self, p_star):
        s = sample_fixed_n(p_star, 5000, seed=23)
        fit = qc_fit(s, default_qc_config(p_star.T))
        assert fit.method == "quick-crude"
        assert fit.params["alpha1"] == pytest.approx(3.0, abs=0.5)
        assert fit.params["alpha2"] == pytest.approx(0.4, abs=0.05)
        assert fit.params["d1"] == pytest.approx(2.5, abs=0.4)
        # recovered scale matches the count identity
        assert fit.c_hat == pytest.approx(
            s.n / mean_count(fit.family.as_barista().with_c(1.0), p_star.T), rel=1e-12)

    def test_windows_must_fit_horizon(self, p_star):
        s = sample_fixed_n(p_star, 100, seed=0)
        cfg = default_qc_config(14.0)
        with pytest.raises(ValueError):
            qc_fit(s, cfg)

    def test_too_small_sample_rejected(self, p_star):
        s = sample_fixed_n(p_star, 1, seed=0)
        with pytest.raises(EstimationError):
            qc_fit(s, default_qc_config(7.0))


class TestQcFitScore:
    """qc_fit scores its fit when .loglik is first read, and only then."""

    cfg = default_qc_config(P_STAR.T)

    def test_loglik_builds_one_prefix_on_first_read(self, prefixes):
        fit = qc_fit(sample_fixed_n(P_STAR, 300, seed=1), self.cfg)
        assert (fit.family.tag, fit.method, fit.history) == ("three-stage", "quick-crude", None)
        assert fit.params and fit.c_hat > 0
        assert prefixes == []
        first = fit.loglik
        assert type(first) is float and prefixes == [300]
        assert fit.loglik is first and prefixes == [300]

    def test_refits_that_read_the_parameters_build_no_prefix(self, prefixes):
        s = sample_fixed_n(P_STAR, 5000, seed=1)
        ses, failed = bootstrap_se(s, lambda b: qc_fit(b, self.cfg), 10, seed=1)
        assert set(ses) == {"alpha1", "alpha2", "alpha3", "d1", "d2", "c"} and failed == {}
        assert prefixes == []

    @pytest.mark.parametrize("n", [300, 100_000])
    def test_score_is_the_likelihood_at_the_estimate(self, n):
        s = sample_fixed_n(P_STAR, n, seed=1)
        fit = qc_fit(s, self.cfg)
        want = _CondLoglik(s).value(*fit.family.free_values().values())
        assert fit.loglik.hex() == want.hex()

    def test_comparisons_and_copies_see_the_score(self, prefixes):
        s = sample_fixed_n(P_STAR, 300, seed=1)
        want = qc_fit(s, self.cfg).loglik
        family = qc_fit(s, self.cfg).family
        scored = FitResult(family, want, "quick-crude")
        assert scored == FitResult(family=family, loglik=want, method="quick-crude",
                                   history=None)
        assert qc_fit(s, self.cfg) == scored and scored == qc_fit(s, self.cfg)
        assert hash(qc_fit(s, self.cfg)) == hash(scored)
        assert repr(qc_fit(s, self.cfg)) == repr(scored)
        for copied in (copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))):
            got = copied(qc_fit(s, self.cfg))
            # the copy holds the value, not the score and the sample behind it
            assert "_score" not in vars(got)
            assert got.loglik.hex() == want.hex() and got == scored
        # one prefix per fit read or copied, none for a copy's read
        assert prefixes == [300] * 8

    def test_failures_raise_from_qc_fit(self, prefixes):
        # the count check, and a 300-bid P* sample whose estimated
        # changepoints overlap; three events are the fewest a quick-crude
        # estimate rests on, so a two-event sample fails the count check
        for n in (1, 2):
            with pytest.raises(EstimationError, match="at least 3 events") as err:
                qc_fit(sample_fixed_n(P_STAR, n, seed=0), self.cfg)
            assert err.value.stage == "qc_fit"
        with pytest.raises(EstimationError, match="changepoints overlap") as err:
            qc_fit(sample_fixed_n(P_STAR, 300, seed=28), self.cfg)
        assert err.value.stage == "qc_changepoints"
        assert prefixes == []


class TestQcConfig:
    def test_default_scales_with_horizon(self):
        cfg = default_qc_config(7.0)
        assert cfg.stage1_window == (0.001, 1.0)
        assert cfg.stage2_window == (3.0, 6.9)
        assert cfg.stage3_points == pytest.approx((7.0 - 2.0 / 1440, 7.0 - 1.0 / 1440))
        assert cfg.safe_points == pytest.approx((1.0, 3.0, 6.0, 7.0 - 2.0 / 1440))

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            QcConfig((1.0, 0.5), (3.0, 6.9), (6.99, 6.999), (1.0, 3.0, 6.0, 6.99))
        with pytest.raises(ValueError):
            QcConfig((0.001, 1.0), (3.0, 6.9), (6.99, 6.999), (3.0, 1.0, 6.0, 6.99))


class TestLoglik:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_sum_of_log_densities(self, seed):
        s, p = _case(seed)
        direct = float(np.sum(np.log(pdf(p, s.times))))
        assert loglik(s, p) == pytest.approx(direct, rel=1e-12)

    def test_horizon_mismatch_rejected(self, p_star):
        s = BidSample(times=np.array([0.5]), T=5.0)
        with pytest.raises(ValueError):
            loglik(s, p_star)

    def test_empty_sample(self, p_star):
        assert loglik(BidSample(times=np.array([]), T=7.0), p_star) == 0.0

    def test_boundary_events_counted_consistently(self, p_star):
        # events exactly at the changepoints must not produce NaN or disagree
        # with the density identity
        times = np.sort(np.array([2.5, 2.5, 7.0 - 5.0 / 1440, 3.0, 1.0]))
        s = BidSample(times=times, T=7.0)
        direct = float(np.sum(np.log(pdf(p_star, s.times))))
        assert loglik(s, p_star) == pytest.approx(direct, rel=1e-12)


class TestGradient:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_finite_differences(self, seed):
        s, p = _case(seed)
        g = loglik_gradient(s, p)
        g_fd = fd_gradient(s, p)
        np.testing.assert_allclose(g, g_fd, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(g).max()))

    @pytest.mark.parametrize("seed", range(10))
    def test_normalization_term_richardson(self, seed):
        """The model part of the gradient is n * d(log C); check it against a
        fourth-order difference of log C itself."""
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        n = 100
        s = sample_fixed_n(p, n, seed=seed)
        g = loglik_gradient(s, p)
        # remove the data terms to isolate n * dlogC
        times = s.times
        logrem = np.log1p(-times / p.T)
        n1 = int(np.sum(times <= p.d1))
        n3 = int(np.sum(times > p.T - p.d2))
        S1 = float(np.sum(logrem[times <= p.d1]))
        S3 = float(np.sum(logrem[times > p.T - p.d2]))
        S2 = float(np.sum(logrem)) - S1 - S3
        L1 = math.log(1.0 - p.d1 / p.T)
        L2 = math.log(p.d2 / p.T) if (p.d2 > 0 and n3 > 0) else 0.0
        data = np.array([-n1 * L1 + S1, n1 * L1 + n3 * L2 + S2, -n3 * L2 + S3])
        model_term = g - data

        def logC(a1, a2, a3):
            return math.log(normalization_constant(perturbed(p, a1, a2, a3)))

        a = np.array([p.alpha1, p.alpha2, p.alpha3])
        for j in range(3):
            h = 1e-4 * max(1.0, a[j])
            e = np.zeros(3)
            e[j] = 1.0
            d4 = (8 * (logC(*(a + h * e)) - logC(*(a - h * e)))
                  - (logC(*(a + 2 * h * e)) - logC(*(a - 2 * h * e)))) / (12 * h)
            assert model_term[j] == pytest.approx(n * d4, rel=1e-8, abs=1e-8 * n)

    def test_vanishes_at_embedded_one_stage_mle(self):
        one = OneStage(alpha=0.8, c=3.0, T=2.0).as_barista()
        s = sample_fixed_n(one, 800, seed=5)
        alpha_hat, _ = mle_nhpp1(s)
        at_mle = OneStage(alpha=alpha_hat, c=3.0, T=2.0).as_barista()
        g = loglik_gradient(s, at_mle)
        # moving all three exponents together is the one-stage score
        assert float(np.sum(g)) == pytest.approx(0.0, abs=1e-6 * s.n)


def ref_B_derivatives(p: BaristaParams):
    """B and its derivatives in the exponents at one vector, one scalar at a
    time: the earlier form of estimate._B_derivatives."""
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    q1, q2 = 1.0 - p.d1 / p.T, p.d2 / p.T
    L1 = math.log(q1)
    L2 = math.log(q2) if q2 > 0 else 0.0
    p1 = q1 ** (a2 - a1)
    p2 = q1 ** a2
    p3 = q2 ** a2
    B = a2 * a3 * p1 + a3 * (a1 - a2) * p2 + a1 * (a2 - a3) * p3
    B1 = -a2 * a3 * L1 * p1 + a3 * p2 + (a2 - a3) * p3
    B2 = (a3 * p1 * (1.0 + a2 * L1) + a3 * p2 * ((a1 - a2) * L1 - 1.0)
          + a1 * p3 * (1.0 + (a2 - a3) * L2))
    B3 = a2 * p1 + (a1 - a2) * p2 - a1 * p3
    B11 = a2 * a3 * L1 * L1 * p1
    B12 = -a3 * L1 * p1 * (1.0 + a2 * L1) + a3 * L1 * p2 + p3 * (1.0 + (a2 - a3) * L2)
    B13 = -a2 * L1 * p1 + p2 - p3
    B22 = (a3 * L1 * p1 * (2.0 + a2 * L1) + a3 * L1 * p2 * ((a1 - a2) * L1 - 2.0)
           + a1 * L2 * p3 * (2.0 + (a2 - a3) * L2))
    B23 = (1.0 + a2 * L1) * p1 + ((a1 - a2) * L1 - 1.0) * p2 - a1 * L2 * p3
    return (B, np.array([B1, B2, B3]),
            np.array([[B11, B12, B13], [B12, B22, B23], [B13, B23, 0.0]]))


def ref_gradient_and_hessian(sample: BidSample, p: BaristaParams):
    """loglik_gradient and loglik_hessian in their earlier, scalar form."""
    times = sample.times
    prefix = np.concatenate([[0.0], np.cumsum(np.log1p(-times / p.T))])
    i1 = int(np.searchsorted(times, p.d1, side="right"))
    i2 = int(np.searchsorted(times, p.T - p.d2, side="right"))
    n, n3 = sample.n, sample.n - i2
    S1, S2, S3 = (float(prefix[i1]), float(prefix[i2] - prefix[i1]),
                  float(prefix[n] - prefix[i2]))
    B, Bg, Bh = ref_B_derivatives(p)
    alphas = np.array([p.alpha1, p.alpha2, p.alpha3])
    L1 = math.log(1.0 - p.d1 / p.T)
    L2 = math.log(p.d2 / p.T) if (p.d2 > 0 and n3 > 0) else 0.0
    grad = n * (1.0 / alphas - Bg / B) + np.array(
        [-i1 * L1 + S1, i1 * L1 + n3 * L2 + S2, -n3 * L2 + S3])
    hess = n * (-np.diag(1.0 / alphas ** 2) - Bh / B + np.outer(Bg, Bg) / B ** 2)
    return grad, hess


class TestDerivativesMatchScalarReference:
    """The column form of the derivatives does the scalar form's arithmetic,
    but numpy's pow and log may differ from libm's in the last bit.  So the
    results agree to 1e-12 relative to the larger of their largest entry
    and n, the size of the terms that cancel in a gradient near zero."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_vectors(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            p = random_params(rng)
            s = sample_fixed_n(p, int(rng.integers(50, 800)), seed=int(rng.integers(1 << 31)))
            grad, hess = ref_gradient_and_hessian(s, p)
            for got, want in ((loglik_gradient(s, p), grad), (loglik_hessian(s, p), hess)):
                scale = max(np.max(np.abs(want)), s.n)
                assert np.max(np.abs(got - want)) <= 1e-12 * scale


class TestHessian:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_differenced_gradient(self, seed):
        s, p = _case(seed)
        h = loglik_hessian(s, p)
        h_fd = fd_hessian_of_gradient(s, p)
        np.testing.assert_allclose(h, h_fd, rtol=1e-4, atol=1e-6 * max(1.0, np.abs(h).max()))

    def test_symmetric(self, p_star):
        s = sample_fixed_n(p_star, 300, seed=1)
        h = loglik_hessian(s, p_star)
        np.testing.assert_array_equal(h, h.T)

    def test_degenerate_changepoints_finite(self):
        p = BaristaParams(1.5, 0.7, 2.0, 0.0, 0.0, 1.0, 3.0)
        s = sample_fixed_n(p, 200, seed=2)
        h = loglik_hessian(s, p)
        assert np.all(np.isfinite(h))
        # entries tied to the vanished stages are exactly zero; allow FD noise
        np.testing.assert_allclose(h, fd_hessian_of_gradient(s, p), rtol=1e-4, atol=1e-7)


class TestClosedForms:
    def test_one_stage_mle_example(self):
        s = BidSample(times=np.sort([1 - math.exp(-1), 1 - math.exp(-2)]), T=1.0)
        alpha_hat, c_hat = mle_nhpp1(s)
        assert alpha_hat == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert c_hat == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_one_stage_mle_consistency(self):
        one = OneStage(alpha=1.7, c=5.0, T=4.0).as_barista()
        s = sample_fixed_n(one, 20_000, seed=3)
        alpha_hat, _ = mle_nhpp1(s)
        assert alpha_hat == pytest.approx(1.7, rel=0.05)

    def test_mle_rejects_degenerate(self):
        with pytest.raises(EstimationError):
            mle_nhpp1(BidSample(times=np.array([]), T=1.0))
        with pytest.raises(EstimationError):
            mle_nhpp1(BidSample(times=np.array([0.0, 0.0]), T=1.0))

    def test_estimate_c_flat_process(self):
        # all exponents 1: the intensity is flat, m(T; c=1) = T
        flat = BaristaParams(1.0, 1.0, 1.0, 2.0, 1.0, 123.0, 7.0)
        assert estimate_c(flat, 14) == pytest.approx(2.0, rel=1e-12)

    def test_estimate_c_matches_count(self, p_star):
        c_hat = estimate_c(p_star, 5000)
        assert c_hat * mean_count(p_star.with_c(1.0), p_star.T) == pytest.approx(5000.0)

    def test_estimate_c_needs_events(self, p_star):
        with pytest.raises(ValueError):
            estimate_c(p_star, 0)


class TestGa:
    def test_history_never_decreases(self, p_star):
        s = sample_fixed_n(p_star, 800, seed=8)
        cfg = GaConfig(bounds=default_bounds("three-stage", 7.0), generations=60, seed=0)
        fit = ga_fit(s, "three-stage", cfg)
        hist = np.asarray(fit.history)
        assert hist.size == 61
        assert np.all(np.diff(hist) >= 0)

    def test_deterministic(self, p_star):
        s = sample_fixed_n(p_star, 500, seed=9)
        cfg = GaConfig(bounds=default_bounds("three-stage", 7.0), generations=40, seed=3)
        a = ga_fit(s, "three-stage", cfg)
        b = ga_fit(s, "three-stage", cfg)
        assert a.params == b.params
        assert a.loglik == b.loglik

    def test_one_stage_recovery(self):
        one = OneStage(alpha=0.8, c=3.0, T=2.0).as_barista()
        s = sample_fixed_n(one, 2000, seed=10)
        alpha_hat, _ = mle_nhpp1(s)
        cfg = GaConfig(bounds=((0.1, 15.0),), generations=120, seed=0)
        fit = ga_fit(s, "one-stage", cfg)
        assert fit.params["alpha"] == pytest.approx(alpha_hat, rel=1e-3)
        assert fit.loglik <= loglik(s, OneStage(alpha_hat, 1.0, 2.0).as_barista()) + 1e-9

    def test_pinned_gene(self, p_star):
        s = sample_fixed_n(p_star, 400, seed=11)
        bounds = ((3.0, 3.0), (0.1, 1.0), (0.5, 15.0), (2.5, 2.5), (0.0, 0.01))
        fit = ga_fit(s, "three-stage", GaConfig(bounds=bounds, generations=30, seed=1))
        assert fit.params["alpha1"] == 3.0
        assert fit.params["d1"] == 2.5

    def test_bounds_length_checked(self, p_star):
        s = sample_fixed_n(p_star, 50, seed=0)
        with pytest.raises(ValueError):
            ga_fit(s, "two-stage", GaConfig(bounds=((0.1, 1.0),)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(bounds=((1.0, 0.5),))
        with pytest.raises(ValueError, match=r"bad bound \(0.0, -0.0\)"):
            GaConfig(bounds=((0.1, 1.0), (0.5, 15.0), (0.0, -0.0)))


# the two-stage truth of acceptance criterion 9
C9_TWO = TwoStage(alpha2=0.3, alpha3=7.7, d2=1.0 / 1440, c=1.0, T=5.0).as_barista()


def profile_oracle(sample: BidSample, starts: int = 3, seed: int = 0) -> float:
    """The best two-stage log-likelihood that multi-start L-BFGS-B finds in
    every gap of the default d2 box between reversed event times, or the
    one-stage fit's, if higher."""
    T = sample.T
    (a2_lo, a2_hi), (a3_lo, a3_hi), (d_lo, d_hi) = default_bounds("two-stage", T)
    r = np.sort(T - sample.times)
    edges = np.unique(np.concatenate([[d_lo], r[(r > d_lo) & (r < d_hi)], [d_hi]]))
    rng = np.random.default_rng(seed)
    cache = _CondLoglik(sample)

    def neg(v):
        return -cache.value(v[0], v[0], v[1], 0.0, v[2])

    best = loglik(sample, OneStage(mle_nhpp1(sample)[0], 1.0, T).as_barista())
    for lo, hi in zip(edges[:-1], edges[1:]):
        for _ in range(starts):
            res = scipy.optimize.minimize(
                neg, rng.uniform((a2_lo, a3_lo, lo), (a2_hi, a3_hi, hi)), method="L-BFGS-B",
                bounds=[(a2_lo, a2_hi), (a3_lo, a3_hi), (lo, hi)],
                options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 2000})
            best = max(best, -res.fun)
    return best


def both_fitters(family: str, cases) -> list:
    """Each (id, bounds, match) bad-box case, run through profile_fit under
    its id and through a 5-generation ga_fit under ga-<id>: one rule refuses
    the box in both, with one message."""
    fitters = {"": lambda s, box: profile_fit(s, box, family),
               "ga-": lambda s, box: ga_fit(s, family, GaConfig(bounds=box, generations=5))}
    return [pytest.param(fit, bounds, match, id=prefix + case_id)
            for prefix, fit in fitters.items() for case_id, bounds, match in cases]


class TestProfileFit:
    @pytest.mark.parametrize("truth, seed", [
        (P_STAR, 300), (P_STAR, 301), (C9_TWO, 300), (C9_TWO, 301),
        # the best point of a gap lies inside it, with alpha3 < alpha2, while
        # the fits at both its ends hold alpha3 far above alpha2
        (OneStage(0.6, 1.0, 7.0).as_barista(), 303),
    ])
    def test_reaches_the_oracle(self, truth, seed):
        s = sample_fixed_n(truth, 300, seed=seed)
        assert profile_fit(s).loglik >= profile_oracle(s) - 1e-6

    def test_not_below_the_ga_nor_the_one_stage_fit(self):
        # criterion-2 data, then two 5k samples from each criterion-9 truth
        truths = [OneStage(1.0, 1.0, 7.0).as_barista(), P_STAR, C9_TWO]
        data = [sample_fixed_n(P_STAR, 5000, seed=23)]
        data += [sample_fixed_n(t, 5000, seed=k) for t in truths for k in (1, 2)]
        for s in data:
            fit = profile_fit(s)
            ga = ga_fit(s, "two-stage", GaConfig(bounds=default_bounds("two-stage", s.T)))
            one = loglik(s, OneStage(mle_nhpp1(s)[0], 1.0, s.T).as_barista())
            assert fit.method == "profile"
            assert fit.loglik >= ga.loglik - 1e-9
            assert fit.loglik >= one
            assert fit.loglik == pytest.approx(loglik(s, fit.family.as_barista()), rel=1e-9)

    def test_blocks_of_rows_change_nothing(self, monkeypatch):
        s = sample_fixed_n(C9_TWO, 2000, seed=4)
        whole = profile_fit(s)
        monkeypatch.setattr(estimate, "_ROW_BLOCK", 7)
        blocked = profile_fit(s)
        assert blocked.params == whole.params and blocked.loglik == whole.loglik

    def test_exponent_gradient_vanishes_inside_the_box(self):
        (a2_lo, a2_hi), (a3_lo, a3_hi), _ = default_bounds("two-stage", 7.0)
        inside = 0
        for seed in range(4):
            s = sample_fixed_n(P_STAR, 3000, seed=seed)
            fit = profile_fit(s)
            a2, a3 = fit.params["alpha2"], fit.params["alpha3"]
            if not (a2_lo < a2 < a2_hi and a3_lo < a3 < a3_hi):
                continue
            inside += 1
            # alpha2 fills the alpha1 and alpha2 slots; a Newton step from the
            # fit would gain g.H^-1.g / 2 nats
            J = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
            g = loglik_gradient(s, fit.family.as_barista()) @ J
            H = J.T @ loglik_hessian(s, fit.family.as_barista()) @ J
            assert -0.5 * g @ np.linalg.solve(H, g) < 1e-9
        assert inside > 0

    def test_embedding_wins_when_the_box_cannot_beat_it(self):
        # exponent MLE above the box's alpha2 range and no late events
        s = BidSample(times=np.linspace(0.0, 6.0, 200) ** 0.5 * (6.0 ** 0.5), T=7.0)
        alpha, _ = mle_nhpp1(s)
        fit = profile_fit(s, bounds=((0.1, 0.2), (0.5, 15.0), (0.0, 0.01)))
        assert fit.params["d2"] == 0.0
        assert fit.params["alpha2"] == fit.params["alpha3"] == alpha
        # a box that holds only d2 = 0 leaves the embedding alone, with the
        # one-stage fit's scale and log-likelihood
        fit = profile_fit(s, bounds=((0.1, 1.0), (0.5, 15.0), (0.0, 0.0)))
        assert (fit.params["alpha2"], fit.params["alpha3"], fit.params["d2"]) == (alpha, alpha, 0.0)
        one = estimate._one_stage_fit(s)
        assert (fit.loglik, fit.c_hat, fit.method) == (one.loglik, one.c_hat, "profile")

    def test_box_of_one_point(self):
        # a box holding only the truth, which beats the embedding
        s = sample_fixed_n(C9_TWO, 500, seed=2)
        box = ((0.3, 0.3), (7.7, 7.7), (C9_TWO.d2, C9_TWO.d2))
        fit = profile_fit(s, bounds=box)
        embedded = loglik(s, OneStage(mle_nhpp1(s)[0], 1.0, s.T).as_barista())
        assert loglik(s, C9_TWO) > embedded
        assert (fit.params["alpha2"], fit.params["alpha3"], fit.params["d2"]) == (
            0.3, 7.7, C9_TWO.d2)
        assert fit.loglik == loglik(s, C9_TWO)

    @pytest.mark.parametrize("fit, bounds, match", both_fitters("two-stage", [
        ("two-stage-bounds1-needs 3 bounds", ((0.1, 1.0), (0.5, 15.0)), "needs 3 bounds"),
        ("two-stage-bounds2-positive", ((0.0, 1.0), (0.5, 15.0), (0.0, 0.01)), "positive"),
        ("two-stage-bounds3-d2 bounds", ((0.1, 1.0), (0.5, 15.0), (0.0, 7.0)), "d2 bounds"),
        ("two-stage-bounds4-bad bound", ((0.1, 1.0), (15.0, 0.5), (0.0, 0.01)), "bad bound"),
        # 0.0 <= -0.0, but hi - lo is -0.0, which the GA's draw refuses too
        ("two-stage-signed-zero-bad bound", ((0.1, 1.0), (0.5, 15.0), (0.0, -0.0)),
         r"bad bound \(0.0, -0.0\)"),
        # finite pairs whose width overflows; the exponent rule refuses it
        # before the GA's mutation step or draw would overflow
        ("two-stage-overflowing-width-positive", ((0.1, 1.0), (-1.7e308, 1.7e308), (0.0, 0.01)),
         r"exponent bounds must be positive, got \(\(0.1, 1.0\), \(-1.7e\+308, 1.7e\+308\)\)"),
        ("two-stage-negative-alpha3-positive", ((0.1, 1.0), (-1.0, 15.0), (0.0, 0.01)),
         "exponent bounds must be positive"),
        ("two-stage-d2-past-horizon-d2 bounds", ((0.1, 1.0), (0.5, 15.0), (0.0, 9.0)),
         r"d2 bounds must lie in \[0, T\) with T = 7.0, got \(0.0, 9.0\)"),
        # a bad pair and a wrong count: the pair is named first in both fitters
        ("two-stage-bad-pair-and-count-bad bound", ((0.1, 1.0), (15.0, 0.5)),
         r"bad bound \(15.0, 0.5\)"),
    ]))
    def test_rejects_bad_settings(self, p_star, fit, bounds, match):
        s = sample_fixed_n(p_star, 50, seed=0)
        with pytest.raises(ValueError, match=match):
            fit(s, bounds)

    def test_empty_sample(self):
        with pytest.raises(EstimationError):
            profile_fit(BidSample(times=np.array([]), T=7.0))


class TestBoxNewtonStep:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_a_bounded_optimizer(self, k):
        # random concave quadratics and boxes around 0, some of them nearly
        # singular, against L-BFGS-B on the same bounded problem
        rng = np.random.default_rng(k)
        rows = 80
        A = rng.normal(size=(rows, k, k))
        H = -(A @ A.transpose(0, 2, 1)) - 1e-3 * np.eye(k)
        g = rng.normal(size=(rows, k)) * rng.choice([0.1, 1.0, 10.0], size=(rows, 1))
        lo = -rng.uniform(0.0, 2.0, size=(rows, k))
        hi = rng.uniform(0.0, 2.0, size=(rows, k))
        step, gain = estimate._box_newton_step(g, H, lo, hi)
        assert np.all((lo <= step) & (step <= hi))
        for r in range(rows):
            res = scipy.optimize.minimize(
                lambda p: -(g[r] @ p + 0.5 * p @ H[r] @ p), np.zeros(k),
                jac=lambda p: -(g[r] + H[r] @ p), method="L-BFGS-B",
                bounds=list(zip(lo[r], hi[r])),
                options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000})
            model = g[r] @ step[r] + 0.5 * step[r] @ H[r] @ step[r]
            assert model == pytest.approx(gain[r], rel=1e-9, abs=1e-12)
            assert gain[r] >= -res.fun - 1e-9 * max(1.0, abs(res.fun))


class TestD1Derivatives:
    def test_match_finite_differences(self):
        # second derivatives in the exponents and u = log(1 - d1/T), and in u
        # alone, with the stage counts held: d1 stays inside one gap
        s = sample_fixed_n(P_STAR, 3000, seed=1)
        cache = _CondLoglik(s)
        i = int(np.searchsorted(s.times, 2.4))
        d1 = 0.5 * (s.times[i - 1] + s.times[i])
        h = 1e-3 * min(s.times[i] - d1, d1 - s.times[i - 1]) / d1

        def ll(a, u):
            return cache.value(*a, -7.0 * math.expm1(u), 0.0035)

        a, u = np.array([3.1, 0.4, 1.2]), math.log1p(-d1 / 7.0)
        cross, curve = cache.d1_coupling(*a, d1, 0.0035)
        assert curve[0] == pytest.approx(
            (ll(a, u + h) - 2 * ll(a, u) + ll(a, u - h)) / h ** 2, rel=1e-4)
        for j in range(3):
            e = np.eye(3)[j] * 1e-3
            mixed = (ll(a + e, u + h) - ll(a + e, u - h) - ll(a - e, u + h)
                     + ll(a - e, u - h)) / (4e-3 * h)
            assert cross[0, j] == pytest.approx(mixed, rel=1e-4)


def pair_rows(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Three rows per pair of a d1 gap and a d2 gap, (lo, hi) giving the
    pairs' ends, with the spans they ascend in.  Inside a pair the maxima in
    d2 can lie at both of its ends (where alpha2 < alpha3), so d2 is held at
    each end, and ascends from the middle; d1 ascends from the middle."""
    k = len(lo)
    lo, hi = np.tile(lo, (3, 1)), np.tile(hi, (3, 1))
    lo[2 * k:, 1] = hi[2 * k:, 1]
    hi[k:2 * k, 1] = lo[k:2 * k, 1]
    rows = np.column_stack([np.tile([2.0, 0.5, 1.0], (3 * k, 1)), 0.5 * (lo + hi)])
    return rows, (lo, hi)


def three_stage_oracle(sample: BidSample) -> float:
    """The best three-stage log-likelihood over the default box, found by
    ascending inside every pair of a d1 gap and a d2 gap (pair_rows), or
    the two-stage profile fit's, if higher."""
    box = default_bounds("three-stage", sample.T)
    cache = _CondLoglik(sample)
    e1 = estimate._gap_edges(cache, 3, *box[3])
    e2 = estimate._gap_edges(cache, 4, *box[4])
    g1, g2 = np.meshgrid(np.arange(e1.size - 1), np.arange(e2.size - 1), indexing="ij")
    g1, g2 = g1.ravel(), g2.ravel()
    rows, spans = pair_rows(np.column_stack([e1[g1], e2[g2]]),
                            np.column_stack([e1[g1 + 1], e2[g2 + 1]]))
    _, ll = estimate._ascend(cache, ThreeStage, rows, box, spans)
    return max(float(ll.max()), profile_fit(sample).loglik)


class TestThreeStageProfileFit:
    @pytest.mark.parametrize("truth, seed", [
        (P_STAR, 300), (P_STAR, 302), (C9_TWO, 301), (OneStage(0.6, 1.0, 7.0).as_barista(), 303),
    ])
    def test_reaches_the_oracle(self, truth, seed):
        s = sample_fixed_n(truth, 300, seed=seed)
        fit = profile_fit(s, family="three-stage")
        assert fit.loglik >= three_stage_oracle(s) - 1e-6
        assert fit.loglik == pytest.approx(loglik(s, fit.family.as_barista()), rel=1e-12)

    def test_ascent_inside_a_gap_pair_matches_a_bounded_optimizer(self):
        # the oracle's inner step: the fit's own gap pair and a few others
        s = sample_fixed_n(P_STAR, 300, seed=300)
        T, box = s.T, default_bounds("three-stage", s.T)
        cache = _CondLoglik(s)
        fit = profile_fit(s, family="three-stage").family
        e1 = estimate._gap_edges(cache, 3, *box[3])
        e2 = estimate._gap_edges(cache, 4, *box[4])
        rng = np.random.default_rng(0)
        pairs = [(int(e1.searchsorted(fit.d1, "right")) - 1,
                  max(int(e2.searchsorted(fit.d2, "left")) - 1, 0))]
        pairs += [(int(rng.integers(e1.size - 1)), int(rng.integers(e2.size - 1)))
                  for _ in range(4)]
        for i, j in pairs:
            lo, hi = np.array([[e1[i], e2[j]]]), np.array([[e1[i + 1], e2[j + 1]]])
            rows, spans = pair_rows(lo, hi)
            _, got = estimate._ascend(cache, ThreeStage, rows, box, spans)
            bounds = list(box[:3]) + list(zip(lo[0], hi[0]))
            best = max(-scipy.optimize.minimize(
                lambda v: -cache.value(*v), [rng.uniform(a, b) for a, b in bounds],
                method="L-BFGS-B", bounds=bounds,
                options={"ftol": 1e-15, "gtol": 1e-10, "maxiter": 2000}).fun
                for _ in range(3))
            assert got.max() >= best - 1e-6

    def test_not_below_the_ga_on_criterion_2_data(self):
        data = sample_fixed_n(P_STAR, 5000, seed=23)
        cube = ((1.0, 15.0), (0.1, 1.0), (0.5, 15.0), (1.0, 5.0), (0.0, 0.01))
        fit = profile_fit(data, cube, family="three-stage")
        assert fit.method == "profile" and isinstance(fit.family, BaristaParams)
        for seed in range(10):
            assert fit.loglik >= ga_fit(data, "three-stage", GaConfig(cube, seed=seed)).loglik

    def test_exponent_gradient_vanishes_inside_the_box(self):
        box = default_bounds("three-stage", 7.0)
        inside = 0
        for seed in range(3):
            s = sample_fixed_n(P_STAR, 3000, seed=seed)
            p = profile_fit(s, family="three-stage").family
            if not all(lo < v < hi for (lo, hi), v in zip(box, (p.alpha1, p.alpha2, p.alpha3))):
                continue
            inside += 1
            # with the changepoints held, a Newton step from the fit would
            # gain g.H^-1.g / 2 nats
            g, H = loglik_gradient(s, p), loglik_hessian(s, p)
            assert -0.5 * g @ np.linalg.solve(H, g) < 1e-9
        assert inside > 0

    def test_nests_over_the_two_stage_fit(self):
        # with smaller given, or worked out, the fit is the same
        s = sample_fixed_n(C9_TWO, 2000, seed=4)
        two = profile_fit(s)
        fit = profile_fit(s, family="three-stage")
        assert fit == profile_fit(s, family="three-stage", smaller=two)
        assert fit.loglik >= two.loglik

    @pytest.mark.parametrize("fit, bounds, match", both_fitters("three-stage", [
        ("bounds0-needs 5 bounds", ((1.0, 15.0), (0.1, 1.0), (0.5, 15.0), (1.0, 5.0)),
         "needs 5 bounds"),
        ("bounds1-positive", ((0.0, 15.0), (0.1, 1.0), (0.5, 15.0), (1.0, 5.0), (0.0, 0.01)),
         "positive"),
        ("bounds2-d1 bounds", ((1.0, 15.0), (0.1, 1.0), (0.5, 15.0), (1.0, 7.0), (0.0, 0.01)),
         "d1 bounds"),
        ("bounds3-d2 bounds", ((1.0, 15.0), (0.1, 1.0), (0.5, 15.0), (1.0, 5.0), (-0.1, 0.01)),
         "d2 bounds"),
    ]))
    def test_rejects_bad_settings(self, fit, bounds, match):
        s = sample_fixed_n(P_STAR, 50, seed=0)
        with pytest.raises(ValueError, match=match):
            fit(s, bounds)
        with pytest.raises(ValueError, match="two-stage and three-stage"):
            profile_fit(s, family="one-stage")


GRID_NAMES = {"one-stage": ("alpha",), "two-stage": ("alpha2", "alpha3", "d2"),
              "three-stage": ("alpha1", "alpha2", "alpha3", "d1", "d2")}


def _grid_vectors(family: str, genes: np.ndarray) -> np.ndarray:
    """(alpha1, alpha2, alpha3, d1, d2) columns of a family's genome rows."""
    if family == "one-stage":
        a = genes[:, 0]
        return np.stack([a, a, a, 0 * a, 0 * a])
    if family == "two-stage":
        a2, a3, d2 = genes.T
        return np.stack([a2, a2, a3, 0 * a2, d2])
    return genes.T


@pytest.mark.parametrize("make, family, grid", [
    pytest.param(lambda: sample_fixed_n(OneStage(0.8, 3.0, 2.0).as_barista(), 2000, seed=4),
                 "one-stage", {"alpha": np.linspace(0.5, 1.2, 141)}, id="one-stage-axis"),
    pytest.param(lambda: sample_fixed_n(P_STAR, 3000, seed=6), "three-stage",
                 {"alpha1": [2.0, 3.0, 4.0], "alpha2": [0.3, 0.4, 0.5], "alpha3": [0.7, 1.0, 1.3],
                  "d1": [2.0, 2.5, 3.0], "d2": [2.0 / 1440, 5.0 / 1440, 10.0 / 1440]},
                 id="three-stage-p-star"),
    # d1 = 1.5 with d2 = 1.0 leaves no middle stage: that point scores -inf
    pytest.param(lambda: BidSample(times=np.array([0.5, 1.0]), T=2.0), "three-stage",
                 {"alpha1": [1.0], "alpha2": [1.0], "alpha3": [1.0], "d1": [1.5, 0.5],
                  "d2": [1.0]}, id="three-stage-part-infeasible"),
    # alpha2 == alpha3 == 1: every d2 ties, at -0.0 or 0.0
    pytest.param(lambda: sample_fixed_n(P_STAR, 5000, seed=23), "two-stage",
                 {"alpha2": [1.0, 1.0], "alpha3": [1.0], "d2": [0.0, -0.0]},
                 id="two-stage-ties-zero-first"),
    pytest.param(lambda: sample_fixed_n(P_STAR, 5000, seed=23), "two-stage",
                 {"alpha2": [1.0, 1.0], "alpha3": [1.0], "d2": [-0.0, 0.0]},
                 id="two-stage-ties-negative-zero-first"),
    pytest.param(lambda: sample_fixed_n(OneStage(1.0, 1.0, 7.0).as_barista(), 2000, seed=5),
                 "two-stage", {"alpha2": [0.5, 1.0], "alpha3": [1.0],
                               "d2": np.linspace(0.0, 0.01, 4096 + 7)},
                 id="two-stage-uniform-long-d2"),
    pytest.param(lambda: sample_fixed_n(P_STAR, 5000, seed=23), "three-stage",
                 {"alpha1": [2.5, 3.0, 3.5], "alpha2": [0.35, 0.4, 0.45],
                  "alpha3": [0.8, 1.0, 1.2], "d1": np.linspace(2.0, 3.0, 11),
                  "d2": np.linspace(0.0, 0.01, 21)}, id="three-stage-dense"),
])
def test_exact_fit_beats_every_grid_point(make, family, grid):
    # the exact fit over the grid's hull, or in closed form for one stage,
    # scores at least the best finite point of a cartesian grid
    s = make()
    axes = [np.asarray(grid[name], dtype=float) for name in GRID_NAMES[family]]
    genes = np.array(list(itertools.product(*axes)))
    ll = _CondLoglik(s).values(*_grid_vectors(family, genes))
    best = np.max(ll[np.isfinite(ll)])
    if family == "one-stage":
        fit = estimate._one_stage_fit(s)
    else:
        fit = profile_fit(s, [(min(ax), max(ax)) for ax in axes], family)
    assert fit.loglik >= best


class TestNested:
    """profile_fit keeps its best row only when it is strictly more likely
    than smaller; otherwise smaller embedded, which carries that fit's scale
    and log-likelihood as they are, is the fit."""

    @pytest.mark.parametrize("family", ["two-stage", "three-stage"])
    def test_a_tie_keeps_the_embedding_and_a_more_likely_fit_is_kept(self, family):
        s = sample_fixed_n(P_STAR, 1000, seed=3)
        real = estimate._one_stage_fit(s) if family == "two-stage" else profile_fit(s)
        fit = profile_fit(s, family=family, smaller=real)
        assert fit.loglik > real.loglik
        # the real smaller fit's family with a hand-set scale, which no
        # rescaling would give back, and in turn the fit's own loglik (a
        # tie) and one ulp below it
        shape = dataclasses.replace(real.family, c=123.25)
        if family == "two-stage":
            embedding = TwoStage(shape.alpha, shape.alpha, 0.0, 123.25, s.T)
        else:
            embedding = BaristaParams(shape.alpha2, shape.alpha2, shape.alpha3, 0.0, shape.d2,
                                      123.25, s.T)
        tie = FitResult(shape, fit.loglik, real.method)
        assert profile_fit(s, family=family, smaller=tie) == FitResult(
            embedding, fit.loglik, "profile")
        below = FitResult(shape, math.nextafter(fit.loglik, -math.inf), real.method)
        assert profile_fit(s, family=family, smaller=below) == fit


class TestDefaultBounds:
    def test_cover_reference_regimes(self):
        lo_hi = default_bounds("three-stage", 7.0)
        truth = (3.0, 0.4, 1.0, 2.5, 5.0 / 1440)
        for (lo, hi), v in zip(lo_hi, truth):
            assert lo <= v <= hi
        two = default_bounds("two-stage", 5.0)
        for (lo, hi), v in zip(two, (0.3, 7.7, 1.0 / 1440)):
            assert lo <= v <= hi

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            default_bounds("four-stage", 7.0)


class TestBootstrap:
    def test_deterministic(self):
        one = OneStage(alpha=0.9, c=2.0, T=3.0).as_barista()
        s = sample_fixed_n(one, 400, seed=12)

        def fitter(sample):
            a, c = mle_nhpp1(sample)
            from barista import FitResult

            fam = OneStage(a, c, sample.T)
            return FitResult(fam, loglik(sample, fam.as_barista()), "closed-form")

        se_a, failed = bootstrap_se(s, fitter, 50, seed=7)
        assert bootstrap_se(s, fitter, 50, seed=7) == (se_a, failed)
        assert failed == {}
        assert 0.0 < se_a["alpha"] < 0.5

    def test_matches_asymptotic_scale(self):
        # SE of the one-stage exponent is alpha/sqrt(n) asymptotically
        one = OneStage(alpha=1.2, c=8.0, T=5.0).as_barista()
        s = sample_fixed_n(one, 2500, seed=13)

        def fitter(sample):
            a, c = mle_nhpp1(sample)
            from barista import FitResult

            fam = OneStage(a, c, sample.T)
            return FitResult(fam, 0.0, "closed-form")

        se, _ = bootstrap_se(s, fitter, 200, seed=1)
        assert se["alpha"] == pytest.approx(1.2 / math.sqrt(2500), rel=0.25)

    def test_failure_fraction_enforced(self, p_star):
        s = sample_fixed_n(p_star, 50, seed=0)

        def bad_fitter(sample):
            raise EstimationError("nope")

        with pytest.raises(EstimationError, match="replicates"):
            bootstrap_se(s, bad_fitter, 10, seed=0)

    def test_failure_counts_by_stage(self, p_star):
        s = sample_fixed_n(p_star, 50, seed=0)
        calls = []

        def failing_fitter(sample):
            calls.append(None)
            if len(calls) % 3 == 1:
                raise EstimationError("no alpha", stage="qc_alpha")
            if len(calls) % 3 == 2:
                raise EstimationError("no changepoints", stage="qc_changepoints")
            raise ValueError("not a parameter vector")

        with pytest.raises(EstimationError) as exc:
            bootstrap_se(s, failing_fitter, 10, seed=0)
        assert str(exc.value) == (
            "bootstrap refit failed on 10/10 replicates (100% > 20% allowed); "
            "failures by stage: ValueError 3, qc_alpha 4, qc_changepoints 3")
        assert exc.value.stage == "bootstrap"

    def test_quick_crude_overflow_is_a_tolerated_failure(self, p_star):
        s = sample_fixed_n(p_star, 5000, seed=5)
        cfg = default_qc_config(p_star.T)
        failures = []

        def fitter(sample):
            try:
                return qc_fit(sample, cfg)
            except EstimationError as exc:
                failures.append((exc.stage, str(exc)))
                raise

        se, failed = bootstrap_se(s, fitter, 20, seed=5)
        # two of the 20 refits fail, one of them by overflowing a changepoint
        # power, and both are counted by stage
        assert len(failures) == 2
        assert failed == {"qc_alpha": 1, "qc_changepoints": 1}
        assert any(stage == "qc_changepoints" and "overflow" in message
                   for stage, message in failures)
        assert set(se) == {"alpha1", "alpha2", "alpha3", "d1", "d2", "c"}
        assert all(math.isfinite(v) and v > 0 for v in se.values())

    @pytest.mark.parametrize("stage", ["qc_alpha", "qc_alpha3"])
    def test_quick_crude_zero_span_is_a_counted_failure(self, stage):
        # points with no log span fail every refit in their stage, and the
        # loop reports them instead of stopping
        _, w, _ = ZERO_SPAN[stage]
        cfg = QcConfig(stage1_window=tuple(w["stage1"]), stage2_window=tuple(w["stage2"]),
                       stage3_points=tuple(w["stage3"]), safe_points=tuple(w["safe"]))
        with pytest.raises(EstimationError) as err:
            bootstrap_se(zero_span_sample(stage), lambda r: qc_fit(r, cfg), 5, seed=0)
        assert err.value.stage == "bootstrap"
        assert str(err.value).endswith(f"failures by stage: {stage} 5")

    def test_needs_two_replicates(self, p_star):
        s = sample_fixed_n(p_star, 10, seed=0)
        with pytest.raises(ValueError):
            bootstrap_se(s, lambda x: None, 1, seed=0)
