"""Nested model selection across the one/two/three-stage families.

Each step doubles the stage count's flexibility by freeing two parameters
(an exponent and a changepoint), so the likelihood-ratio statistic is referred
to a chi-squared distribution with 2 degrees of freedom at both steps.
Selection runs forward: stop at the first test whose p-value exceeds the
level, otherwise move to the richer family.

The one-stage and two-stage fits are exact.  The one-stage exponent has a
closed form (mle_nhpp1).  The two-stage family has one changepoint, so its
fit is an exact profile over it within the default box (profile_fit).
Only the three-stage fit is a genetic search (ga_fit), and only it takes a GA budget.

The families nest exactly, and the family classes (process.FAMILIES) give
each richer family's embedding of the next-smaller fit: a one-stage process
is a two-stage process with d2 = 0, and a two-stage process is a three-stage
one with d1 = 0 and the empty early stage's exponent tied to alpha2.  One
rule keeps each statistic nonnegative: a richer family's fit is the better
of its own fit and the embedding of the smaller fit, ties keeping the
embedding (estimate._nested), whose likelihood is the smaller fit's.
profile_fit applies it to the one-stage fit, and select_model to the
three-stage GA fit, whose default box (alpha1 >= 1) does not hold the
two-stage embedding (alpha1 = alpha2 <= 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .estimate import (
    FitResult,
    GaConfig,
    _nested,
    _one_stage_fit,
    default_bounds,
    ga_fit,
    profile_fit,
)
from .process import ModelFamily
from .sample import BidSample

__all__ = [
    "LrTest",
    "SelectionResult",
    "lr_statistic",
    "lr_test",
    "chi2_sf_2df",
    "select_model",
]


@dataclass(frozen=True)
class LrTest:
    """One likelihood-ratio comparison of nested fits."""

    statistic: float
    p_value: float
    df: int = 2


@dataclass(frozen=True)
class SelectionResult:
    chosen: ModelFamily
    fits: dict[str, FitResult]
    lr_one_two: LrTest
    lr_two_three: LrTest | None
    alpha_level: float


def chi2_sf_2df(x: float) -> float:
    """Survival function of chi-squared with 2 df: exp(-x/2)."""
    if x < 0:
        raise ValueError(f"statistic must be >= 0, got {x}")
    return math.exp(-x / 2.0)


def lr_statistic(loglik_small: float, loglik_big: float) -> float:
    """-2 (ll_small - ll_big), floored at zero."""
    return max(0.0, -2.0 * (loglik_small - loglik_big))


def lr_test(loglik_small: float, loglik_big: float) -> LrTest:
    stat = lr_statistic(loglik_small, loglik_big)
    return LrTest(statistic=stat, p_value=chi2_sf_2df(stat))


def select_model(
    sample: BidSample,
    alpha_level: float = 0.05,
    seed: int = 0,
    generations: int = GaConfig.generations,
) -> SelectionResult:
    """Forward stepwise selection: one stage, then two, then three.

    The one-stage fit is the exact closed-form MLE and the two-stage fit the
    exact profile fit.  The three-stage fit is a GA search of its default box
    for `generations` generations at `seed`; where it ends no higher than the
    embedded two-stage fit, that embedding, labelled "ga", is the three-stage
    fit, and the LR statistic is 0.  At each step the richer family is
    adopted only when the LR test rejects at alpha_level.
    """
    if not (0.0 < alpha_level < 1.0):
        raise ValueError(f"alpha_level must lie in (0, 1), got {alpha_level}")
    cfg = GaConfig(bounds=default_bounds("three-stage", sample.T), generations=generations,
                   seed=seed)
    fit1 = _one_stage_fit(sample)
    fit2 = profile_fit(sample)
    test12 = lr_test(fit1.loglik, fit2.loglik)
    fits = {"one-stage": fit1, "two-stage": fit2}
    if test12.p_value > alpha_level:
        return SelectionResult(fit1.family, fits, test12, None, alpha_level)

    fit3 = _nested(ga_fit(sample, "three-stage", cfg), fit2)
    fits["three-stage"] = fit3
    test23 = lr_test(fit2.loglik, fit3.loglik)
    chosen = fit2.family if test23.p_value > alpha_level else fit3.family
    return SelectionResult(chosen, fits, test12, test23, alpha_level)
