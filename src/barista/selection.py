"""Nested model selection across the one/two/three-stage families.

Each step doubles the stage count's flexibility by freeing two parameters
(an exponent and a changepoint), so the likelihood-ratio statistic is referred
to a chi-squared distribution with 2 degrees of freedom at both steps.
Selection runs forward: stop at the first test whose p-value exceeds the
level, otherwise move to the richer family.

No fit draws random numbers, so selection draws nothing.  The one-stage
exponent has a closed form (mle_nhpp1), the two-stage fit is the exact
profile fit over the default box, and the three-stage fit is the profile
search over its box, which can end below the maximum (profile_fit).

The families nest exactly, and the family classes (process.FAMILIES) give
each richer family's embedding of the next-smaller fit: a one-stage process
is a two-stage process with d2 = 0, and a two-stage process is a three-stage
one with d1 = 0 and the empty early stage's exponent tied to alpha2.
profile_fit nests both richer fits over the smaller fit by one rule, stated
there, which keeps each statistic nonnegative.  The default three-stage box
(alpha1 >= 1) does not hold the two-stage embedding (alpha1 = alpha2 <= 1),
so the embedding can win there, and SelectionResult.embedded names the
richer fits that are embeddings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .estimate import FitResult, _one_stage_fit, profile_fit
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
    # the richer fits that are the next-smaller fit embedded (profile_fit)
    embedded: tuple[str, ...] = ()


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


def select_model(sample: BidSample, alpha_level: float = 0.05) -> SelectionResult:
    """Forward stepwise selection: one stage, then two, then three.

    The one-stage fit is the exact closed-form MLE, the two-stage fit the
    exact profile fit and the three-stage fit the profile search over their
    default boxes, each nested over the fit before it by profile_fit's rule,
    so a richer fit is the embedding, with an LR statistic of 0, exactly
    when its loglik equals the smaller fit's.  At each step the richer
    family is adopted only when the LR test rejects at alpha_level.
    """
    if not (0.0 < alpha_level < 1.0):
        raise ValueError(f"alpha_level must lie in (0, 1), got {alpha_level}")
    fits = {"one-stage": _one_stage_fit(sample)}
    fits["two-stage"] = profile_fit(sample, smaller=fits["one-stage"])
    test12 = lr_test(fits["one-stage"].loglik, fits["two-stage"].loglik)
    test23 = None
    chosen = fits["one-stage"]
    if test12.p_value <= alpha_level:
        fits["three-stage"] = profile_fit(sample, family="three-stage", smaller=fits["two-stage"])
        test23 = lr_test(fits["two-stage"].loglik, fits["three-stage"].loglik)
        chosen = fits["two-stage" if test23.p_value > alpha_level else "three-stage"]
    fitted = list(fits.items())
    embedded = tuple(tag for (_, small), (tag, fit) in zip(fitted, fitted[1:])
                     if fit.loglik == small.loglik)
    return SelectionResult(chosen.family, fits, test12, test23, alpha_level, embedded)
