import json
import math

import numpy as np
import pytest

from barista import (
    BidSample,
    EstimationError,
    FitResult,
    GaConfig,
    OneStage,
    ThreeStage,
    TwoStage,
    chi2_sf_2df,
    default_bounds,
    estimate_c,
    ga_fit,
    loglik,
    lr_statistic,
    lr_test,
    mle_nhpp1,
    profile_fit,
    sample_fixed_n,
    sample_poisson_count,
    select_model,
    write_sample,
)
from barista.cli import main
from barista.process import get_family
from conftest import P_STAR


# the one-, three- and two-stage truths of acceptance criterion 9
CRITERION_9_TRUTHS = (
    OneStage(alpha=1.0, c=143.0, T=7.0).as_barista(),
    P_STAR.with_c(255.5),
    TwoStage(alpha2=0.3, alpha3=7.7, d2=1.0 / 1440, c=128.7, T=5.0).as_barista(),
)


class TestChiSquareTail:
    def test_two_df_closed_form(self):
        # survival of chi^2 with 2 df is exp(-x/2)
        assert chi2_sf_2df(0.0) == 1.0
        assert chi2_sf_2df(2.0 * math.log(20.0)) == pytest.approx(0.05, rel=1e-15)
        assert chi2_sf_2df(10.0) == pytest.approx(math.exp(-5.0), rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chi2_sf_2df(-0.1)


class TestLrStatistic:
    def test_positive_gap(self):
        assert lr_statistic(-105.0, -100.0) == pytest.approx(10.0)

    def test_small_negative_clamped(self):
        t = lr_test(-100.0, -100.0 - 1e-9)
        assert t.statistic == 0.0
        assert t.p_value == 1.0

    def test_df_recorded(self):
        assert lr_test(-10.0, -9.0).df == 2


class TestEmbeddings:
    """A smaller family evaluated through the bigger one's genome must give
    the identical conditional log-likelihood."""

    def test_one_into_two(self):
        one = OneStage(alpha=0.8, c=2.0, T=3.0)
        s = sample_fixed_n(one.as_barista(), 500, seed=0)
        fit = FitResult(one, loglik(s, one.as_barista()), "ga", 2.0)
        genes = get_family("two-stage").embed(fit.family)
        two = TwoStage(alpha2=genes[0], alpha3=genes[1], d2=genes[2], c=2.0, T=3.0)
        assert loglik(s, two.as_barista()) == pytest.approx(fit.loglik, rel=1e-14)

    def test_two_into_three(self):
        two = TwoStage(alpha2=0.5, alpha3=4.0, d2=0.02, c=2.0, T=3.0)
        s = sample_fixed_n(two.as_barista(), 500, seed=1)
        fit = FitResult(two, loglik(s, two.as_barista()), "ga", 2.0)
        genes = get_family("three-stage").embed(fit.family)
        three = ThreeStage(*genes, c=2.0, T=3.0)
        assert three.alpha1 == three.alpha2  # d1 is then arbitrary
        assert loglik(s, three.as_barista()) == pytest.approx(fit.loglik, rel=1e-14)


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestOneStageClosedForm:
    def test_fit_is_the_exact_mle(self, p_star):
        for truth, n, seed in ((OneStage(alpha=1.3, c=1.0, T=7.0).as_barista(), 1000, 3),
                               (p_star, 800, 9)):
            s = sample_fixed_n(truth, n, seed=seed)
            fit = select_model(s, generations=20).fits["one-stage"]
            alpha, _ = mle_nhpp1(s)
            assert fit.method == "closed-form"
            assert isinstance(fit.family, OneStage)
            assert bits(fit.params["alpha"]) == bits(alpha)
            assert bits(fit.loglik) == bits(loglik(s, fit.family.as_barista()))
            assert bits(fit.c_hat) == bits(estimate_c(fit.family.as_barista(), s.n))

    def test_all_times_zero_raises(self, tmp_path, capsys):
        s = BidSample(times=np.zeros(40), T=7.0)
        with pytest.raises(EstimationError) as exc:
            select_model(s, seed=0)
        assert exc.value.stage == "mle_nhpp1"
        path = tmp_path / "zeros.csv"
        write_sample(s, path)
        rc = main(["select", "--input", str(path), "--horizon", "7", "--no-timestamp"])
        err = json.loads(capsys.readouterr().out)["error"]
        assert rc == 1
        assert err["type"] == "EstimationError" and err["stage"] == "mle_nhpp1"


def test_ga_fits_keep_their_default_seeds(p_star):
    # the three-stage fit is the GA search of the default box at the
    # selection seed; the two-stage fit is the profile fit
    s = sample_fixed_n(p_star, 3000, seed=7)
    res = select_model(s, seed=5)
    assert res.chosen.tag == "three-stage"
    cfg = GaConfig(bounds=default_bounds("three-stage", 7.0), seed=5)
    for tag, ref in (("two-stage", profile_fit(s)),
                     ("three-stage", ga_fit(s, "three-stage", cfg))):
        fit = res.fits[tag]
        assert fit.family == ref.family and fit.method == ref.method
        assert bits(list(fit.params.values())) == bits(list(ref.params.values()))
        assert bits(fit.loglik) == bits(ref.loglik)
    assert res.fits["two-stage"].method == "profile"


class TestSelectModel:
    def test_one_stage_data_stops_early(self):
        truth = OneStage(alpha=1.0, c=150.0, T=7.0).as_barista()
        s = sample_fixed_n(truth, 1000, seed=42)
        res = select_model(s, generations=120, seed=0)
        assert res.chosen.tag == "one-stage"
        assert res.lr_one_two is not None and res.lr_one_two.p_value > 0.05
        assert res.lr_two_three is None
        assert set(res.fits) == {"one-stage", "two-stage"}

    def test_three_stage_data_goes_deep(self, p_star):
        s = sample_fixed_n(p_star, 3000, seed=7)
        res = select_model(s, generations=300, seed=1)
        assert res.chosen.tag == "three-stage"
        assert res.lr_one_two.p_value <= 0.05
        assert res.lr_two_three.p_value <= 0.05
        assert set(res.fits) == {"one-stage", "two-stage", "three-stage"}

    def test_nested_fits_never_lose_to_parent(self, p_star):
        # each richer fit is at least the embedding of the smaller one: on
        # fixed-n P* data under a small GA budget, and on criterion-9 samples
        # of each truth with their own selection seeds
        cases = [(sample_fixed_n(p_star, 800, seed=9), 2, 150)]
        for truth in CRITERION_9_TRUTHS:
            cases += [(sample_poisson_count(truth, seed=1000 + run), run, GaConfig.generations)
                      for run in (0, 1, 2)]
        for s, seed, generations in cases:
            res = select_model(s, seed=seed, generations=generations)
            lls = {tag: fit.loglik for tag, fit in res.fits.items()}
            assert lls["two-stage"] >= lls["one-stage"]
            if "three-stage" in lls:
                assert lls["three-stage"] >= lls["two-stage"]

    def test_floor_lifts_a_three_stage_search_that_ends_below_the_two_stage_fit(self):
        # criterion-9 two-stage data, on which 60 generations of the
        # three-stage GA alone end below the profile fit: the three-stage
        # fit is then the embedded two-stage fit, bit for bit, with an empty
        # early stage and an LR statistic of exactly 0
        s = sample_poisson_count(CRITERION_9_TRUTHS[2], seed=1000)
        res = select_model(s, seed=0, generations=60)
        two, three = res.fits["two-stage"], res.fits["three-stage"]
        cfg = GaConfig(bounds=default_bounds("three-stage", s.T), generations=60, seed=0)
        assert ga_fit(s, "three-stage", cfg).loglik < two.loglik
        genes = ThreeStage.embed(two.family)
        embedded = ThreeStage(*genes, c=1.0, T=s.T)
        assert isinstance(three.family, ThreeStage) and three.method == "ga"
        assert bits(list(three.family.free_values().values())) == bits(genes)
        assert bits(three.loglik) == bits(loglik(s, embedded))
        assert bits(three.c_hat) == bits(estimate_c(embedded, s.n))
        assert three.family.d1 == 0.0
        assert res.lr_two_three.statistic == 0.0

    def test_alpha_level_recorded_and_validated(self, p_star):
        s = sample_fixed_n(p_star, 100, seed=3)
        with pytest.raises(ValueError):
            select_model(s, alpha_level=0.0)
        with pytest.raises(ValueError):
            select_model(s, alpha_level=1.0)
        res = select_model(s, generations=40,
                           alpha_level=0.2, seed=4)
        assert res.alpha_level == 0.2

    def test_deterministic_given_seed(self, p_star):
        s = sample_fixed_n(p_star, 400, seed=5)
        a = select_model(s, generations=60, seed=6)
        b = select_model(s, generations=60, seed=6)
        assert a.chosen.tag == b.chosen.tag
        assert {t: f.loglik for t, f in a.fits.items()} == \
               {t: f.loglik for t, f in b.fits.items()}


@pytest.mark.parametrize("data_seed, seed", [(1008, 8), (1014, 14)])
def test_profile_fit_leaves_an_empty_stage_exponent_alone(data_seed, seed):
    # criterion-9 one-stage samples whose exponent MLE lies above the
    # two-stage box, so no point of the box beats the exact one-stage fit
    # and the profile fit is its embedding with d2 = 0; alpha3 then has no
    # stage and must keep the embedded value
    s = sample_poisson_count(OneStage(1.0, 143.0, 7.0).as_barista(), seed=data_seed)
    res = select_model(s, seed=seed)
    one, two = res.fits["one-stage"], res.fits["two-stage"]
    assert one.params["alpha"] > default_bounds("two-stage", 7.0)[0][1]
    assert two.method == "profile"
    assert two.params["d2"] == 0.0
    assert two.params["alpha3"] == two.params["alpha2"] == one.params["alpha"]
    assert bits(two.loglik) == bits(one.loglik)
    assert res.lr_one_two.statistic == 0.0
    assert res.chosen.tag == "one-stage"
