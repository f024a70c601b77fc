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
    selection,
    write_sample,
)
from barista.cli import main
from barista import estimate
from barista.estimate import _one_stage_fit
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
        fit = FitResult(one, loglik(s, one.as_barista()), "ga")
        genes = get_family("two-stage").embed(fit.family)
        two = TwoStage(alpha2=genes[0], alpha3=genes[1], d2=genes[2], c=2.0, T=3.0)
        assert loglik(s, two.as_barista()) == pytest.approx(fit.loglik, rel=1e-14)

    def test_two_into_three(self):
        two = TwoStage(alpha2=0.5, alpha3=4.0, d2=0.02, c=2.0, T=3.0)
        s = sample_fixed_n(two.as_barista(), 500, seed=1)
        fit = FitResult(two, loglik(s, two.as_barista()), "ga")
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
            fit = select_model(s).fits["one-stage"]
            alpha, _ = mle_nhpp1(s)
            assert fit.method == "closed-form"
            assert isinstance(fit.family, OneStage)
            assert bits(fit.params["alpha"]) == bits(alpha)
            assert bits(fit.loglik) == bits(loglik(s, fit.family.as_barista()))
            assert bits(fit.c_hat) == bits(estimate_c(fit.family.as_barista(), s.n))

    def test_all_times_zero_raises(self, tmp_path, capsys):
        s = BidSample(times=np.zeros(40), T=7.0)
        with pytest.raises(EstimationError) as exc:
            select_model(s)
        assert exc.value.stage == "mle_nhpp1"
        path = tmp_path / "zeros.csv"
        write_sample(s, path)
        rc = main(["select", "--input", str(path), "--horizon", "7", "--no-timestamp"])
        err = json.loads(capsys.readouterr().out)["error"]
        assert rc == 1
        assert err["type"] == "EstimationError" and err["stage"] == "mle_nhpp1"


def assert_same_fit(fit: FitResult, ref: FitResult) -> None:
    assert fit.family == ref.family and fit.method == ref.method
    assert bits(list(fit.params.values())) == bits(list(ref.params.values()))
    assert bits(fit.loglik) == bits(ref.loglik)
    assert bits(fit.history) == bits(ref.history)


def test_fits_are_the_public_estimators_fits(p_star):
    # every reported fit is the public estimator's fit, bit for bit: the
    # closed-form one-stage fit, and the two- and three-stage profile fits
    # over the default boxes, each nested over the fit before it; on P* data
    # and on a criterion-9 sample of each truth
    cases = [sample_fixed_n(p_star, 3000, seed=7)]
    cases += [sample_poisson_count(truth, seed=1000 + run)
              for run, truth in enumerate(CRITERION_9_TRUTHS)]
    chosen = []
    for s in cases:
        res = select_model(s)
        chosen.append(res.chosen.tag)
        assert_same_fit(res.fits["one-stage"], _one_stage_fit(s))
        two = profile_fit(s)
        assert_same_fit(res.fits["two-stage"], two)
        assert two.method == "profile"
        if "three-stage" in res.fits:
            three = profile_fit(s, family="three-stage")
            assert_same_fit(res.fits["three-stage"], three)
            # nested over the two-stage fit: more likely, or its embedding
            assert three.loglik > two.loglik or (
                three == embedding(two, "three-stage") and "three-stage" in res.embedded)
    assert chosen == ["three-stage", "one-stage", "three-stage", "two-stage"]


def embedding(small: FitResult, tag: str) -> FitResult:
    """small as a profile fit of the next-larger family tag: the same
    process, with small's scale and log-likelihood."""
    spec = get_family(tag)
    family = spec.build(spec.embed(small.family), small.c_hat, small.family.T)
    return FitResult(family, small.loglik, "profile")


@pytest.mark.parametrize("alpha_level", [0.05, 0.5])
def test_embedded_names_the_fits_whose_family_is_the_embedding(p_star, alpha_level):
    # SelectionResult.embedded against a rule that compares families: a
    # richer fit is marked exactly when its process is the smaller fit's;
    # on the criterion-9 datasets and on P* data
    cases = [sample_fixed_n(p_star, 3000, seed=7)]
    cases += [sample_poisson_count(truth, seed=1000 + run)
              for truth in CRITERION_9_TRUTHS for run in range(20)]
    marked = 0
    for s in cases:
        res = select_model(s, alpha_level)
        fitted = list(res.fits.items())
        by_family = tuple(tag for (_, small), (tag, fit) in zip(fitted, fitted[1:])
                          if fit.family == embedding(small, tag).family)
        assert res.embedded == by_family
        marked += len(by_family)
    assert marked > 0


def test_select_fits_through_the_public_estimators(monkeypatch, p_star):
    # select_model calls the module-level profile_fit binding, which is what
    # a tracer patching barista.selection wraps, and runs no GA
    calls = {"ga_fit": 0, "profile_fit": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(estimate, "ga_fit")
    counting(selection, "profile_fit")
    res = select_model(sample_fixed_n(p_star, 3000, seed=7))
    assert "three-stage" in res.fits
    assert calls == {"ga_fit": 0, "profile_fit": 2}
    calls.update(ga_fit=0, profile_fit=0)
    res = select_model(sample_poisson_count(CRITERION_9_TRUTHS[0], seed=1008))
    assert res.chosen.tag == "one-stage" and "three-stage" not in res.fits
    assert calls == {"ga_fit": 0, "profile_fit": 1}


class TestSelectModel:
    def test_one_stage_data_stops_early(self):
        truth = OneStage(alpha=1.0, c=150.0, T=7.0).as_barista()
        s = sample_fixed_n(truth, 1000, seed=42)
        res = select_model(s)
        assert res.chosen.tag == "one-stage"
        assert res.lr_one_two is not None and res.lr_one_two.p_value > 0.05
        assert res.lr_two_three is None
        assert set(res.fits) == {"one-stage", "two-stage"}

    def test_three_stage_data_goes_deep(self, p_star):
        s = sample_fixed_n(p_star, 3000, seed=7)
        res = select_model(s)
        assert res.chosen.tag == "three-stage"
        assert res.lr_one_two.p_value <= 0.05
        assert res.lr_two_three.p_value <= 0.05
        assert set(res.fits) == {"one-stage", "two-stage", "three-stage"}

    def test_nested_fits_never_lose_to_parent(self, p_star):
        # each richer fit is at least the embedding of the smaller one: on
        # fixed-n P* data, and on criterion-9 samples of each truth
        cases = [sample_fixed_n(p_star, 800, seed=9)]
        for truth in CRITERION_9_TRUTHS:
            cases += [sample_poisson_count(truth, seed=1000 + run) for run in (0, 1, 2)]
        for s in cases:
            res = select_model(s)
            lls = {tag: fit.loglik for tag, fit in res.fits.items()}
            assert lls["two-stage"] >= lls["one-stage"]
            if "three-stage" in lls:
                assert lls["three-stage"] >= lls["two-stage"]

    def test_floor_lifts_a_three_stage_search_that_ends_below_the_two_stage_fit(self):
        # criterion-9 two-stage data, on which nothing in the default
        # three-stage box (alpha1 >= 1) beats the profile fit, and 60
        # generations of the three-stage GA end below it too: the
        # three-stage fit is then the embedded two-stage fit, bit for bit,
        # with an empty early stage and an LR statistic of exactly 0
        s = sample_poisson_count(CRITERION_9_TRUTHS[2], seed=1000)
        res = select_model(s)
        two, three = res.fits["two-stage"], res.fits["three-stage"]
        cfg = GaConfig(bounds=default_bounds("three-stage", s.T), generations=60, seed=0)
        assert ga_fit(s, "three-stage", cfg).loglik < two.loglik
        genes = ThreeStage.embed(two.family)
        embedded = ThreeStage(*genes, c=1.0, T=s.T)
        assert isinstance(three.family, ThreeStage) and three.method == "profile"
        assert bits(list(three.family.free_values().values())) == bits(genes)
        assert bits(three.loglik) == bits(loglik(s, embedded))
        assert bits(three.c_hat) == bits(estimate_c(embedded, s.n))
        assert three.family.d1 == 0.0
        assert res.lr_two_three.statistic == 0.0
        assert res.embedded == ("three-stage",)

    def test_alpha_level_recorded_and_validated(self, p_star):
        s = sample_fixed_n(p_star, 100, seed=3)
        with pytest.raises(ValueError):
            select_model(s, alpha_level=0.0)
        with pytest.raises(ValueError):
            select_model(s, alpha_level=1.0)
        res = select_model(s, alpha_level=0.2)
        assert res.alpha_level == 0.2

    def test_deterministic_given_seed(self, p_star):
        s = sample_fixed_n(p_star, 400, seed=5)
        a = select_model(s)
        b = select_model(s)
        assert a.chosen.tag == b.chosen.tag
        assert {t: f.loglik for t, f in a.fits.items()} == \
               {t: f.loglik for t, f in b.fits.items()}


@pytest.mark.parametrize("data_seed, seed", [(1008, 8), (1014, 14)])
def test_profile_fit_leaves_an_empty_stage_exponent_alone(data_seed, seed, tmp_path, capsys):
    # criterion-9 one-stage samples whose exponent MLE lies above the
    # two-stage box, so no point of the box beats the exact one-stage fit
    # and the profile fit is its embedding with d2 = 0; alpha3 then has no
    # stage and must keep the embedded value.  select's report marks the
    # embedding, whatever --seed (criterion 9's selection seed) it is given
    s = sample_poisson_count(OneStage(1.0, 143.0, 7.0).as_barista(), seed=data_seed)
    res = select_model(s)
    one, two = res.fits["one-stage"], res.fits["two-stage"]
    assert one.params["alpha"] > default_bounds("two-stage", 7.0)[0][1]
    assert two.method == "profile"
    assert two.params["d2"] == 0.0
    assert two.params["alpha3"] == two.params["alpha2"] == one.params["alpha"]
    assert bits(two.loglik) == bits(one.loglik)
    assert res.lr_one_two.statistic == 0.0
    assert res.chosen.tag == "one-stage"
    assert res.embedded == ("two-stage",)
    path = tmp_path / "bids.csv"
    write_sample(s, path)
    rc = main(["select", "--input", str(path), "--horizon", "7", "--seed", str(seed),
               "--no-timestamp"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0 and rep["fits"]["two-stage"]["embedded"] is True
    assert rep["fits"]["two-stage"]["loglik"] == two.loglik
