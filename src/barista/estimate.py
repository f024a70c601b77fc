"""Estimation for the three-stage process.

Five routes are implemented, in increasing cost:

* a closed-form maximum-likelihood estimator for the one-stage special case,
* a "quick and crude" method that reads exponents and changepoints off CDF
  differences at hand-picked safe evaluation points,
* an exact profile fit of the two-stage family, whose one changepoint is
  profiled over the gaps between event times, with Newton steps on the
  exponents,
* an exhaustive grid search of the conditional log-likelihood, and
* a real-valued genetic algorithm over the same objective.

The conditional log-likelihood treats the observed count as given, so the
scale c drops out; it is recovered afterwards by matching the expected total
count to n (estimate_c).  Each family's free parameters, their place in the
full parameter vector, its default GA box and how a fitted genome becomes a
family instance all come from the family's class, process.FAMILIES[tag].

Analytic first and second derivatives in the three exponents serve the
profile fit's Newton steps, diagnostics and standard-error work; both are
derived from the normalization constant written as A/B and are checked
against finite differences in the test suite.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Iterable, Mapping, Sequence

import numpy as np

from .process import (
    BaristaParams,
    Family,
    ModelFamily,
    TwoStage,
    _denominator,
    get_family,
    mean_count,
)
from .sample import BidSample

__all__ = [
    "EstimationError",
    "QcConfig",
    "GaConfig",
    "FitResult",
    "default_qc_config",
    "ecdf",
    "qc_alpha",
    "qc_alpha3_survival",
    "qc_changepoints",
    "qc_fit",
    "loglik",
    "loglik_gradient",
    "loglik_hessian",
    "mle_nhpp1",
    "estimate_c",
    "grid_search",
    "ga_fit",
    "default_bounds",
    "profile_fit",
    "bootstrap_se",
]

class EstimationError(RuntimeError):
    """Raised when data do not support the requested estimate.

    The optional stage attribute names the step that failed so callers (and
    the CLI error object) can say where things went wrong.
    """

    def __init__(self, message: str, stage: str | None = None) -> None:
        super().__init__(message)
        self.stage = stage


# ---------------------------------------------------------------------------
# empirical CDF
# ---------------------------------------------------------------------------

def ecdf(sample: BidSample, t):
    """Fraction of sample times <= t; accepts scalars or arrays."""
    if sample.n == 0:
        raise EstimationError("empirical CDF of an empty sample", stage="ecdf")
    arr = np.asarray(t, dtype=float)
    if arr.ndim == 0:
        # counts and n are exact doubles, so this is the array path's quotient
        return int(sample.times.searchsorted(arr, "right")) / sample.n
    return np.searchsorted(sample.times, arr, side="right") / sample.n


# ---------------------------------------------------------------------------
# quick and crude
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QcConfig:
    """Evaluation points for the quick-and-crude route, in forward time.

    stage1_window and stage2_window are (lo, hi) intervals believed to lie
    inside the first and middle stage; stage3_points are two distinct times
    believed inside the final stage; safe_points = (t1, t2a, t2b, t3) are a
    stage-1 point, two stage-2 points and a stage-3 point used for the
    changepoint formulas.
    """

    stage1_window: tuple[float, float]
    stage2_window: tuple[float, float]
    stage3_points: tuple[float, float]
    safe_points: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        for name in ("stage1_window", "stage2_window", "stage3_points"):
            lo, hi = getattr(self, name)
            if not (0 <= lo < hi):
                raise ValueError(f"{name} must be ordered and nonnegative, got ({lo}, {hi})")
        t1, t2a, t2b, t3 = self.safe_points
        if not (0 < t1 and t1 <= t2a < t2b <= t3):
            raise ValueError(f"safe_points must be ordered, got {self.safe_points}")


def default_qc_config(T: float) -> QcConfig:
    """Evaluation points scaled to the horizon.

    The early window hugs the opening, the middle window spans most of the
    auction, and the late points sit one and two ten-thousandths of the
    horizon before the close (1 and 2 minutes on a 7-day auction), where the
    final stage of a hard-close process lives.
    """
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")
    u = T / 7.0
    tick = T / 10080.0
    return QcConfig(
        stage1_window=(0.001 * u, u),
        stage2_window=(3.0 * u, 6.9 * u),
        stage3_points=(T - 2.0 * tick, T - tick),
        safe_points=(u, 3.0 * u, 6.0 * u, T - 2.0 * tick),
    )


def qc_alpha(F: Callable[[float], float], T: float, t: float, s: float) -> float:
    """Stage exponent from CDF differences at three reverse-time offsets.

    t and s are offsets from the horizon (t > s > 0); the evaluation points
    T-t, T-sqrt(s t), T-s must lie inside a single stage, where the CDF is a
    shifted power of the remaining time.  Both differences are negative going
    backward in time; magnitudes are used and a sign agreement is enforced.
    """
    if not (0.0 < s < t <= T):
        raise ValueError(f"need 0 < s < t <= T, got t={t}, s={s}, T={T}")
    mid = math.sqrt(s * t)
    if not math.isfinite(mid):
        raise EstimationError(
            f"window offsets {t} and {s} overflow: horizon {T} is too large", stage="qc_alpha")
    f_lo, f_mid, f_hi = F(T - t), F(T - mid), F(T - s)
    num = f_mid - f_lo
    den = f_hi - f_mid
    if num <= 0.0 or den <= 0.0:
        raise EstimationError(
            f"CDF differences must be positive and share sign, got {num} and {den}",
            stage="qc_alpha",
        )
    est = 2.0 * (math.log(num) - math.log(den)) / (math.log(t) - math.log(s))
    # equal differences give a zero exponent; no power law fits such a window
    if est <= 0.0:
        raise EstimationError(
            f"window differences imply a non-positive exponent ({est})",
            stage="qc_alpha",
        )
    return est


def qc_alpha3_survival(F: Callable[[float], float], T: float, t3: float, t3p: float) -> float:
    """Final-stage exponent from the survival ratio at two late times t3 < t3p."""
    if not (0.0 < t3 < t3p < T):
        raise ValueError(f"need 0 < t3 < t3p < T, got {t3}, {t3p}")
    r3, r3p = 1.0 - F(t3), 1.0 - F(t3p)
    if r3 <= 0.0 or r3p <= 0.0 or r3 <= r3p:
        raise EstimationError(
            f"survival must be positive and decreasing, got {r3} and {r3p}",
            stage="qc_alpha3",
        )
    return math.log(r3 / r3p) / math.log((T - t3) / (T - t3p))


def qc_changepoints(
    F: Callable[[float], float],
    alphas: tuple[float, float, float],
    safe: tuple[float, float, float, float],
    T: float,
) -> tuple[float, float]:
    """Closed-form changepoints given the exponents and safe CDF points.

    Solving the stage-1 and stage-3 CDF branches for the changepoints gives

        1 - d1/T = { (a1/a2) * F(t1)/(F(t2b)-F(t2a))
                     * ((1-t2a/T)^a2 - (1-t2b/T)^a2) / (1-(1-t1/T)^a1) }^(1/(a2-a1))
        d2/T     = { (a3/a2) * (1-F(t3))/(F(t2b)-F(t2a))
                     * ((1-t2a/T)^a2 - (1-t2b/T)^a2) / (1-t3/T)^a3 }^(1/(a2-a3))

    A d1 solution below 0 is clamped to 0 (no early stage).
    """
    a1, a2, a3 = alphas
    t1, t2a, t2b, t3 = safe
    if a1 == a2 or a2 == a3:
        raise EstimationError(
            "changepoint formulas need alpha1 != alpha2 and alpha2 != alpha3",
            stage="qc_changepoints",
        )
    f1 = F(t1)
    df2 = F(t2b) - F(t2a)
    sf3 = 1.0 - F(t3)
    mid_pow = (1.0 - t2a / T) ** a2 - (1.0 - t2b / T) ** a2
    if f1 <= 0.0 or df2 <= 0.0 or sf3 <= 0.0:
        raise EstimationError(
            f"safe-point CDF values must be strictly increasing, got F(t1)={f1}, "
            f"dF2={df2}, 1-F(t3)={sf3}",
            stage="qc_changepoints",
        )
    den1 = 1.0 - (1.0 - t1 / T) ** a1
    den3 = (1.0 - t3 / T) ** a3
    # tiny exponent estimates can underflow these to zero
    if den1 <= 0.0 or den3 <= 0.0:
        raise EstimationError(
            f"degenerate exponents for the changepoint formulas: "
            f"alpha1={a1}, alpha3={a3}",
            stage="qc_changepoints",
        )
    brace1 = (a1 / a2) * (f1 / df2) * mid_pow / den1
    brace2 = (a3 / a2) * (sf3 / df2) * mid_pow / den3
    if brace1 <= 0.0 or brace2 <= 0.0:
        raise EstimationError("bracketed expressions must be positive", stage="qc_changepoints")
    try:
        d1 = T - T * brace1 ** (1.0 / (a2 - a1))
        d2 = T * brace2 ** (1.0 / (a2 - a3))
    except OverflowError:
        raise EstimationError(
            f"changepoint formulas overflow: alpha1={a1}, alpha2={a2}, alpha3={a3}",
            stage="qc_changepoints",
        ) from None
    d1 = max(d1, 0.0)
    if not d1 < T - d2:
        raise EstimationError(
            f"estimated changepoints overlap: d1={d1}, T-d2={T - d2}",
            stage="qc_changepoints",
        )
    return d1, d2


def qc_fit(sample: BidSample, cfg: QcConfig) -> FitResult:
    """Quick-and-crude three-stage fit from empirical CDF differences.

    The estimate is a plug-in, not a maximum.  Its loglik, the conditional
    log-likelihood at the estimate, is worked out when .loglik is first read,
    so a refit or simulation loop that reads only the family or the
    parameters builds no likelihood prefix.  Every check runs here: a fit
    that fails raises from qc_fit.
    """
    if sample.n < 2:
        raise EstimationError("quick-and-crude fit needs at least 2 events", stage="qc_fit")
    T = sample.T
    for name in ("stage1_window", "stage2_window", "stage3_points", "safe_points"):
        if max(getattr(cfg, name)) >= T:
            raise ValueError(f"{name} must lie inside [0, T), horizon is {T}")
    F = functools.partial(ecdf, sample)
    lo, hi = cfg.stage1_window
    a1 = qc_alpha(F, T, T - lo, T - hi)
    lo, hi = cfg.stage2_window
    a2 = qc_alpha(F, T, T - lo, T - hi)
    a3 = qc_alpha3_survival(F, T, *cfg.stage3_points)
    genes = (a1, a2, a3, *qc_changepoints(F, (a1, a2, a3), cfg.safe_points, T))
    try:
        family = _scaled_family("three-stage", genes, sample)
    except ValueError as exc:
        raise EstimationError(f"estimates are not a valid parameter vector: {exc}",
                              stage="qc_fit") from exc
    return FitResult._scored_later(family, functools.partial(loglik, sample, family),
                                   "quick-crude")


# ---------------------------------------------------------------------------
# conditional log-likelihood and derivatives
# ---------------------------------------------------------------------------

class _CondLoglik:
    """Prefix-summed sample so the conditional log-likelihood is O(log n).

    The per-event terms only enter through the branch counts (n1, n3) and the
    branch sums of log(1 - x/T); caching the sorted cumulative sums makes
    repeated evaluation at different parameters (grid, GA, Newton) cheap.
    values() and derivatives() take whole parameter columns, so a GA
    generation, a block of grid points or a set of Newton iterates is
    handled as one array in one call.
    """

    def __init__(self, sample: BidSample) -> None:
        self.T = float(sample.T)
        self.n = sample.n
        self.times = sample.times
        # prefix[k] = sum of log(1 - t/T) over the first k times
        self.prefix = np.empty(self.n + 1)
        self.prefix[0] = 0.0
        tail = self.prefix[1:]
        np.divide(self.times, -self.T, out=tail)
        np.log1p(tail, out=tail)
        np.cumsum(tail, out=tail)

    @staticmethod
    def _columns(cols) -> tuple[np.ndarray, ...]:
        """Equal-length 1-d float arrays are used as given; anything else
        (scalars, lists, other dtypes) is broadcast to 1-d float arrays."""
        if all(type(x) is np.ndarray and x.dtype == np.float64 and x.ndim == 1
               and x.shape == cols[0].shape for x in cols):
            return cols
        return np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=float)) for x in cols))

    def values(self, a1, a2, a3, d1, d2) -> np.ndarray:
        """Vectorized conditional log-likelihood; -inf where invalid."""
        a1, a2, a3, d1, d2 = self._columns((a1, a2, a3, d1, d2))
        T, n, prefix = self.T, self.n, self.prefix
        # rows off the valid set compute garbage (nan, inf, clamped indices)
        # under the silenced errors and are replaced by -inf at the end
        with np.errstate(all="ignore"):
            late = T - d2
            valid = d1 < late
            valid &= np.minimum(np.minimum(a1, a2), a3) > 0
            valid &= np.minimum(d1, d2) >= 0
            q1 = 1.0 - d1 / T
            q2 = d2 / T
            a21 = a2 - a1
            a23 = a2 - a3
            logC = np.log(a1 * a2 * a3 / T) - np.log(_denominator(a1, a2, a3, q1, q2))
            i1 = self.times.searchsorted(d1, side="right")
            i2 = self.times.searchsorted(late, side="right")
            S1 = prefix[i1]
            P2 = prefix[i2]
            # log(1) = 0 stands in for log(0), whose term has no events
            logq2 = np.log(np.where(q2 > 0, q2, 1.0))
            ll = (
                n * logC
                + i1 * a21 * np.log(q1)
                + (n - i2) * a23 * logq2
                + (a1 - 1.0) * S1
                + (a2 - 1.0) * (P2 - S1)
                + (a3 - 1.0) * (prefix[n] - P2)
            )
            valid &= np.isfinite(ll)
        return np.where(valid, ll, -np.inf)

    def value(self, a1: float, a2: float, a3: float, d1: float, d2: float) -> float:
        return float(self.values(a1, a2, a3, d1, d2)[0])

    def derivatives(self, a1, a2, a3, d1, d2) -> tuple[np.ndarray, np.ndarray]:
        """First and second partial derivatives in (alpha1, alpha2, alpha3),
        (k, 3) and (k, 3, 3), one per column of valid parameters.

        With C = A/B and A = a1 a2 a3 / T, d(log C)/d(a_j) = 1/a_j - B_j/B, so
        the j-th gradient component is n (1/a_j - B_j/B) plus the branch data
        terms.  The data terms are linear in the alphas, so the Hessian is n
        times the Hessian of log C: H_jk = n (-delta_jk/a_j^2 - B_jk/B + B_j B_k/B^2).
        """
        a1, a2, a3, d1, d2 = self._columns((a1, a2, a3, d1, d2))
        T, n, prefix = self.T, self.n, self.prefix
        i1 = self.times.searchsorted(d1, side="right")
        i2 = self.times.searchsorted(T - d2, side="right")
        n3 = n - i2
        q1 = 1.0 - d1 / T
        q2 = d2 / T
        B, Bg, Bh = _B_derivatives(a1, a2, a3, q1, q2)
        L1 = np.log(q1)
        L2 = np.where((q2 > 0) & (n3 > 0), np.log(np.where(q2 > 0, q2, 1.0)), 0.0)
        S1 = prefix[i1]
        S2 = prefix[i2] - S1
        S3 = prefix[n] - prefix[i2]
        data = np.stack([-i1 * L1 + S1, i1 * L1 + n3 * L2 + S2, -n3 * L2 + S3], axis=-1)
        alphas = np.stack([a1, a2, a3], axis=-1)
        grad = n * (1.0 / alphas - Bg / B[:, None]) + data
        B = B[:, None, None]
        hess = n * (-(np.eye(3) / alphas[:, None, :] ** 2) - Bh / B
                    + Bg[:, :, None] * Bg[:, None, :] / B ** 2)
        return grad, hess


def _check_horizon(sample: BidSample, p: BaristaParams) -> None:
    if sample.T != p.T:
        raise ValueError(f"sample horizon {sample.T} != parameter horizon {p.T}")


def loglik(sample: BidSample, p: BaristaParams) -> float:
    """Conditional log-likelihood of the event times given the count.

    Equals the sum of log densities; the scale c never enters because the
    normalization constant is c-free.
    """
    _check_horizon(sample, p)
    if sample.n == 0:
        return 0.0
    return _CondLoglik(sample).value(p.alpha1, p.alpha2, p.alpha3, p.d1, p.d2)


def _B_derivatives(a1, a2, a3, q1, q2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B and its first/second derivatives in (alpha1, alpha2, alpha3), per column.

    B is the shape-only denominator with m(T) = T c B/(a1 a2 a3).  Arguments
    are equal-length arrays; the results have shapes (k,), (k, 3) and
    (k, 3, 3).  Terms in q2^a2 * log(q2) vanish as d2 -> 0 and are forced to
    0 there.
    """
    L1 = np.log(q1)
    L2 = np.log(np.where(q2 > 0, q2, 1.0))
    p1 = q1 ** (a2 - a1)
    p2 = q1 ** a2
    p3 = q2 ** a2

    B = _denominator(a1, a2, a3, q1, q2)
    B1 = -a2 * a3 * L1 * p1 + a3 * p2 + (a2 - a3) * p3
    B2 = (
        a3 * p1 * (1.0 + a2 * L1)
        + a3 * p2 * ((a1 - a2) * L1 - 1.0)
        + a1 * p3 * (1.0 + (a2 - a3) * L2)
    )
    B3 = a2 * p1 + (a1 - a2) * p2 - a1 * p3
    B11 = a2 * a3 * L1 * L1 * p1
    B12 = -a3 * L1 * p1 * (1.0 + a2 * L1) + a3 * L1 * p2 + p3 * (1.0 + (a2 - a3) * L2)
    B13 = -a2 * L1 * p1 + p2 - p3
    B22 = (
        a3 * L1 * p1 * (2.0 + a2 * L1)
        + a3 * L1 * p2 * ((a1 - a2) * L1 - 2.0)
        + a1 * L2 * p3 * (2.0 + (a2 - a3) * L2)
    )
    B23 = (1.0 + a2 * L1) * p1 + ((a1 - a2) * L1 - 1.0) * p2 - a1 * L2 * p3
    B33 = np.zeros_like(B)
    grad = np.stack([B1, B2, B3], axis=-1)
    hess = np.stack([B11, B12, B13, B12, B22, B23, B13, B23, B33], axis=-1).reshape(-1, 3, 3)
    return B, grad, hess


def loglik_gradient(sample: BidSample, p: BaristaParams) -> np.ndarray:
    """Partial derivatives of loglik in (alpha1, alpha2, alpha3)."""
    _check_horizon(sample, p)
    return _CondLoglik(sample).derivatives(p.alpha1, p.alpha2, p.alpha3, p.d1, p.d2)[0][0]


def loglik_hessian(sample: BidSample, p: BaristaParams) -> np.ndarray:
    """Second derivatives of loglik in the exponents."""
    _check_horizon(sample, p)
    return _CondLoglik(sample).derivatives(p.alpha1, p.alpha2, p.alpha3, p.d1, p.d2)[1][0]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def mle_nhpp1(sample: BidSample) -> tuple[float, float]:
    """Exact MLE of the one-stage process: alpha then c.

    alpha_hat = -n / sum(log(1 - x_i/T)); c_hat = n alpha_hat / T.
    """
    if sample.n == 0:
        raise EstimationError("MLE needs at least one event", stage="mle_nhpp1")
    s = float(np.sum(np.log1p(-sample.times / sample.T)))
    if s >= 0.0:
        raise EstimationError("all events at time 0; exponent diverges", stage="mle_nhpp1")
    alpha_hat = -sample.n / s
    return alpha_hat, sample.n * alpha_hat / sample.T


def _one_stage_fit(sample: BidSample, cache: _CondLoglik | None = None) -> FitResult:
    """The exact one-stage fit: the closed-form MLE and its likelihood,
    scored on cache, the sample's likelihood prefix, when one is given."""
    alpha, _ = mle_nhpp1(sample)
    ll = (cache or _CondLoglik(sample)).value(alpha, alpha, alpha, 0.0, 0.0)
    return FitResult(_scaled_family("one-stage", (alpha,), sample), ll, "closed-form")


def estimate_c(shape: BaristaParams, n: int) -> float:
    """Scale that makes the expected total count match the observed n.

    Only the shape of the argument matters; its c is ignored.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return n / mean_count(shape.with_c(1.0), shape.T)


# ---------------------------------------------------------------------------
# fit containers and family plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """A fitted family and its conditional log-likelihood.

    What loglik is depends on the method:

    * closed-form: the one-stage maximum, at the closed-form MLE;
    * profile: the two-stage maximum over the box, or the one-stage fit's
      where that is higher;
    * grid: the best value on the grid;
    * ga: the best value the search found, not a proven maximum (history
      holds the best so far per generation);
    * quick-crude: the value at a plug-in estimate, scored, not maximized.
      It is worked out when loglik is first read, so until then the fit
      keeps its sample alive.

    loglik is always a float and is worked out at most once; equality, repr,
    copies and pickles see the scored value.
    """

    family: ModelFamily
    loglik: float
    method: str  # "quick-crude" | "grid" | "ga" | "closed-form" | "profile"
    history: tuple[float, ...] | None = None  # GA best-so-far per generation

    @classmethod
    def _scored_later(cls, family: ModelFamily, score: Callable[[], float],
                      method: str) -> FitResult:
        """A fit whose loglik is score(), called when loglik is first read."""
        fit = cls(family, math.nan, method)
        del fit.__dict__["loglik"]
        fit.__dict__["_score"] = score
        return fit

    def __getattr__(self, name: str):
        # reached only for a name the instance lacks: a deferred loglik is
        # scored and kept, and the score, with the sample it holds, dropped
        state = self.__dict__
        if name == "loglik" and "_score" in state:
            state["loglik"] = state["_score"]()
            del state["_score"]
            return state["loglik"]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __getstate__(self) -> dict:
        # copies and pickles carry the scored value, not the score's sample
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def c_hat(self) -> float:
        """The recovered scale, which the family holds."""
        return self.family.c

    @property
    def params(self) -> dict[str, float]:
        """Estimated free parameters plus the recovered scale."""
        return self.family.params


def _scaled_family(tag: str, genes: Sequence[float], sample: BidSample) -> Family:
    """The family with these genes, its scale c matched to the sample's count.

    Every fit's family is built here, and a FitResult reads its c_hat from
    the family, so a fit's scale is recovered and stored in one place.
    """
    spec = get_family(tag)
    c_hat = estimate_c(spec.build(genes, 1.0, sample.T).as_barista(), sample.n)
    return spec.build(genes, c_hat, sample.T)


def _nested(fit: FitResult, smaller: FitResult) -> FitResult:
    """fit, or smaller embedded in fit's family, whichever is more likely;
    ties keep the embedding.

    smaller is a fit of the next-smaller family, so the families nest and a
    likelihood-ratio statistic of fit against smaller is never negative,
    whatever box or search budget produced fit.
    """
    if fit.loglik > smaller.loglik:
        return fit
    return _embedded(type(fit.family), smaller, fit.method)


def _embedded(spec: type[Family], smaller: FitResult, method: str) -> FitResult:
    """smaller as a fit of spec, the next-larger family: the same process, so
    with smaller's scale and log-likelihood as they are, not worked out again."""
    family = spec.build(spec.embed(smaller.family), smaller.c_hat, smaller.family.T)
    return FitResult(family, smaller.loglik, method)


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

# grid points or profile rows handled per likelihood call; bounds the memory
# of a large grid or sample
_GRID_BLOCK = 4096


def grid_search(sample: BidSample, family: str, grid: Mapping[str, Iterable[float]]) -> FitResult:
    """Best conditional log-likelihood over a cartesian parameter grid.

    grid maps each free parameter of the family to its candidate values; the
    scan runs in lexicographic order over the family's parameter order and
    ties keep the first point found.  Grid points that violate the parameter
    constraints are skipped.  Points are scored _GRID_BLOCK at a time.
    """
    if sample.n == 0:
        raise EstimationError("cannot fit an empty sample", stage="grid_search")
    spec = get_family(family)
    names = spec.free_names
    missing = set(names) - set(grid)
    if missing:
        raise ValueError(f"grid is missing values for {sorted(missing)}")
    axes = [np.asarray(list(grid[name]), dtype=float) for name in names]
    if any(ax.size == 0 for ax in axes):
        raise ValueError("every grid axis needs at least one value")
    cache = _CondLoglik(sample)
    shape = tuple(ax.size for ax in axes)
    total = math.prod(shape)
    best_ll = -np.inf
    best_genes: tuple[float, ...] | None = None
    for start in range(0, total, _GRID_BLOCK):
        flat = np.arange(start, min(start + _GRID_BLOCK, total))
        genes = np.column_stack([ax[i] for ax, i in zip(axes, np.unravel_index(flat, shape))])
        ll = cache.values(*spec.vectors(genes).T)
        j = int(np.argmax(ll))
        if ll[j] > best_ll:
            best_ll, best_genes = float(ll[j]), tuple(genes[j])
    if best_genes is None or not np.isfinite(best_ll):
        raise EstimationError("no feasible grid point", stage="grid_search")
    return FitResult(_scaled_family(family, best_genes, sample), best_ll, "grid")


# ---------------------------------------------------------------------------
# genetic algorithm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaConfig:
    """Settings for the real-valued genetic search.

    bounds is one (lo, hi) box per free parameter, in the family's parameter
    order.  Exponent bounds must stay positive, since a nonpositive exponent
    is outside the model.  The population (100), the elite share (0.10), the
    offspring pairs per generation (50) and the mutation step ((hi - lo)/20
    per coordinate) are fixed.
    """

    population_size: ClassVar[int] = 100
    elite_fraction: ClassVar[float] = 0.10
    offspring_pairs: ClassVar[int] = 50

    bounds: tuple[tuple[float, float], ...]
    generations: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        _check_bounds(self.bounds)


def _check_bounds(bounds: Sequence[tuple[float, float]], family: str | None = None) -> None:
    """Each (lo, hi) must be finite with lo <= hi; given a family, there must
    be one pair per free parameter, which is checked first."""
    if family is not None:
        want = len(get_family(family).free_names)
        if len(bounds) != want:
            raise ValueError(f"{family} needs {want} bounds, got {len(bounds)}")
    for lo, hi in bounds:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"bad bound ({lo}, {hi})")


def default_bounds(family: str, T: float) -> tuple[tuple[float, float], ...]:
    """Search boxes, scaled to the horizon, from the family's class.

    Exponent boxes are fixed; changepoint boxes scale linearly with T.  The
    three-stage box puts the early changepoint in [T/7, 5T/7] and the late one
    within T/700 of the close (about 14 minutes on a 7-day horizon), matching
    the short final stages these processes exhibit.
    """
    return get_family(family).default_bounds(T)


def ga_fit(sample: BidSample, family: str, cfg: GaConfig) -> FitResult:
    """Genetic maximization of the conditional log-likelihood.

    Per generation: rank the population, keep the top elite_fraction, draw
    parent pairs uniformly from the elite, blend each coordinate with a fresh
    U(0,1) weight (each pair yields the blend and its mirror), add Gaussian
    mutation clipped to the bounds, then truncate elite + offspring back to
    population_size by fitness.  The elite always survives, so the best-so-far
    fitness (recorded in FitResult.history) never decreases.  Each generation's
    offspring are mapped to full parameter rows through the family's gene map
    and scored as one array by a single likelihood call.

    Only the elite of each generation breeds, so the truncated population is
    kept as its elite alone: one pool of elite and offspring rows, allocated
    once, is refilled in place every generation.
    """
    if sample.n == 0:
        raise EstimationError("cannot fit an empty sample", stage="ga_fit")
    spec = get_family(family)
    _check_bounds(cfg.bounds, family)
    cache = _CondLoglik(sample)
    lo = np.array([b[0] for b in cfg.bounds])
    hi = np.array([b[1] for b in cfg.bounds])
    scale = (hi - lo) / 20.0
    rng = np.random.default_rng(cfg.seed)
    pop = rng.uniform(lo, hi, size=(cfg.population_size, lo.size))
    fit = cache.values(*spec.vectors(pop).T)
    order = np.argsort(-fit, kind="stable")

    n_elite = max(1, int(cfg.population_size * cfg.elite_fraction))
    pairs = cfg.offspring_pairs
    # rows: elite, then blends, then mirrored blends; the trailing column stays
    # 0, the padding column of the family's gene map
    pool = np.zeros((n_elite + 2 * pairs, lo.size + 1))
    pool_fit = np.empty(n_elite + 2 * pairs)
    genes = pool[:, :-1]
    kids = genes[n_elite:]
    blend, mirror = kids[:pairs], kids[pairs:]
    kid_columns = [pool[n_elite:, j] for j in spec.gene_map]
    genes[:n_elite] = pop[order[:n_elite]]
    pool_fit[:n_elite] = fit[order[:n_elite]]
    history = [float(pool_fit[0])]

    for _ in range(cfg.generations):
        ia = rng.integers(0, n_elite, size=pairs)
        ib = rng.integers(0, n_elite, size=pairs)
        u = rng.random((pairs, lo.size))
        a, b = genes[ia], genes[ib]
        w = 1.0 - u
        np.multiply(u, a, out=blend)
        blend += w * b
        np.multiply(w, a, out=mirror)
        mirror += u * b
        kids += rng.normal(0.0, 1.0, size=kids.shape) * scale
        np.clip(kids, lo, hi, out=kids)
        pool_fit[n_elite:] = cache.values(*kid_columns)
        order = np.argsort(-pool_fit, kind="stable")[:n_elite]
        pool[:n_elite] = pool[order]
        pool_fit[:n_elite] = pool_fit[order]
        history.append(float(pool_fit[0]))

    if not np.isfinite(pool_fit[0]):
        raise EstimationError("no feasible genome found", stage="ga_fit")
    return FitResult(_scaled_family(family, tuple(genes[0]), sample), float(pool_fit[0]),
                     "ga", tuple(history))


# ---------------------------------------------------------------------------
# exact two-stage fit
# ---------------------------------------------------------------------------

# a round of the ascent that gains less than this many nats ends its column
_ASCENT_TOL = 1e-10
_MAX_ROUNDS = 500
_MAX_HALVINGS = 40


def _exponent_jacobian(spec: type[Family]) -> np.ndarray:
    """(3, m) matrix J such that the derivatives of the log-likelihood in a
    family's m exponent genes are those in (alpha1, alpha2, alpha3) times J.

    J[s, j] is 1 where the family's gene map fills exponent slot s with its
    j-th exponent gene, so a gene tied into several slots (the two-stage
    alpha2 fills alpha1 too) sums their derivatives, by the chain rule.
    """
    slots = spec.gene_map[:3]
    return (slots[:, None] == sorted(set(slots.tolist()))).astype(float)


def _box_newton_step(g: np.ndarray, H: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the step p with lo <= p <= hi that maximizes the concave
    quadratic model g.p + p.H.p / 2 in two variables, and the model's gain.

    The maximizer is the Newton step when that lies in the box.  Otherwise
    it lies on a face, where the maximizer along the face clipped to its
    ends is exact, and a corner is such a clipped face maximizer.  So the
    best of the Newton step and the four face candidates is the answer.
    """
    g1, g2 = g[:, 0], g[:, 1]
    h11, h12, h22 = H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]
    with np.errstate(all="ignore"):
        det = h11 * h22 - h12 * h12
        newton = np.stack([(h12 * g2 - h22 * g1) / det, (h12 * g1 - h11 * g2) / det], axis=-1)
        candidates = [np.where(((newton >= lo) & (newton <= hi)).all(axis=-1)[:, None],
                               newton, np.nan)]
        for fixed in (lo, hi):
            free2 = np.clip(-(g2 + h12 * fixed[:, 0]) / h22, lo[:, 1], hi[:, 1])
            candidates.append(np.stack([fixed[:, 0], free2], axis=-1))
            free1 = np.clip(-(g1 + h12 * fixed[:, 1]) / h11, lo[:, 0], hi[:, 0])
            candidates.append(np.stack([free1, fixed[:, 1]], axis=-1))
        p = np.stack(candidates, axis=1)  # (k, 5, 2)
        p1, p2 = p[..., 0], p[..., 1]
        gain = (p1 * g1[:, None] + p2 * g2[:, None]
                + 0.5 * (h11[:, None] * p1 * p1 + 2.0 * h12[:, None] * p1 * p2
                         + h22[:, None] * p2 * p2))
        gain = np.where(np.isfinite(gain), gain, -np.inf)
    best = np.argmax(gain, axis=1)
    rows = np.arange(len(g))
    step = np.where(np.isfinite(gain[rows, best])[:, None], p[rows, best], 0.0)
    return step, np.maximum(gain[rows, best], 0.0)


def _ascend(cache: _CondLoglik, spec: type[Family], genes: np.ndarray,
            box: tuple[tuple[float, float], ...],
            span: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Block coordinate ascent of the two-stage log-likelihood, row by row.

    genes holds (k, 3) rows (alpha2, alpha3, d2) inside box, and each row's
    d2 stays inside its span[0] <= d2 <= span[1], an interval that holds no
    reversed event time T - t inside it, so the late-stage count n3 is fixed
    there.  A round takes one box-constrained Newton step on the exponents,
    backtracking until it does not lose, then moves d2 to the best of its
    current value, the span's ends and the stationary point of the d2 closed
    form,

        (d2/T)^alpha2 = n3 alpha3 / (n alpha2 - n3 (alpha2 - alpha3)),

    a maximum when alpha2 > alpha3 and a minimum otherwise.  For fixed d2
    the log-likelihood is concave in the exponents (an exponential family),
    and for fixed exponents one of those d2 values is the best in the span.
    Every round is an ascent; a row ends when a round gains less than
    _ASCENT_TOL.  Rows go _GRID_BLOCK at a time, which bounds the memory
    of a large sample.  Returns the rows and their log-likelihoods.
    """
    genes = genes.copy()
    J = _exponent_jacobian(spec)
    ex_lo = np.array([b[0] for b in box[:2]])
    ex_hi = np.array([b[1] for b in box[:2]])
    T, n = cache.T, cache.n
    lo, hi = span
    n3 = n - cache.times.searchsorted(T - 0.5 * (lo + hi), side="right")
    ll = np.empty(len(genes))
    for start in range(0, len(genes), _GRID_BLOCK):
        ll[start:start + _GRID_BLOCK] = cache.values(
            *spec.vectors(genes[start:start + _GRID_BLOCK]).T)
    active = np.flatnonzero(np.isfinite(ll))
    for _ in range(_MAX_ROUNDS):
        if active.size == 0:
            break
        ascending = []
        for rows in np.array_split(active, -(-active.size // _GRID_BLOCK)):
            g = genes[rows]
            before = ll[rows]
            full = spec.vectors(g).T
            grad, hess = cache.derivatives(*full)
            grad, hess = grad @ J, J.T @ hess @ J
            x = g[:, :2]
            step, gain = _box_newton_step(grad, hess, ex_lo - x, ex_hi - x)
            # halve each step until it does not lose, or its model gain is noise
            t = np.where(gain >= _ASCENT_TOL, 1.0, 0.0)
            now = before.copy()
            todo = np.flatnonzero(t)
            for _ in range(_MAX_HALVINGS):
                if todo.size == 0:
                    break
                trial = x[todo] + t[todo, None] * step[todo]
                got = cache.values(*spec.vectors(np.column_stack([trial, g[todo, 2]])).T)
                ok = got >= before[todo]
                g[todo[ok], :2] = trial[ok]
                now[todo[ok]] = got[ok]
                todo = todo[~ok]
                t[todo] *= 0.5
                todo = todo[t[todo] * gain[todo] >= _ASCENT_TOL]

            # d2 moves only in rows whose span is an interval
            free = np.flatnonzero(hi[rows] > lo[rows])
            if free.size:
                gf, lo_f, hi_f = g[free], lo[rows[free]], hi[rows[free]]
                a2, a3, m = gf[:, 0], gf[:, 1], n3[rows[free]]
                with np.errstate(all="ignore"):
                    stationary = T * (m * a3 / (n * a2 - m * (a2 - a3))) ** (1.0 / a2)
                d2 = np.column_stack([gf[:, 2], lo_f, hi_f, np.clip(stationary, lo_f, hi_f)])
                k = d2.shape[1]
                tried = np.column_stack([np.repeat(gf[:, :2], k, axis=0), d2.ravel()])
                scores = cache.values(*spec.vectors(tried).T).reshape(-1, k)
                scores[:, 0] = now[free]  # keep the current d2 on ties
                pick = np.argmax(scores, axis=1)
                r = np.arange(free.size)
                g[free, 2] = d2[r, pick]
                now[free] = scores[r, pick]
            genes[rows] = g
            ll[rows] = now
            ascending.append(rows[now - before >= _ASCENT_TOL])
        active = np.concatenate(ascending)
    return genes, ll


def profile_fit(sample: BidSample,
                bounds: Sequence[tuple[float, float]] | None = None) -> FitResult:
    """Exact maximum of the two-stage conditional log-likelihood over a box.

    bounds is one (lo, hi) pair per free parameter (alpha2, alpha3, d2),
    default_bounds by default, the GA's box.  The two-stage family has one
    changepoint, so the fit is a profile over it (Hinkley 1970).  The
    reversed event times T - t inside the d2 box split it into gaps, and in
    each gap the late-stage count and the branch sums are constant.  First
    the exponents are maximized with d2 held at each gap's ends and at
    points inside it, less than a factor 2 apart; every 16th point is fitted
    first, and those fits start the rest.  For fixed exponents with alpha2 <= alpha3, the best
    d2 of a gap is one of its ends, so only the points where alpha2 > alpha3
    then ascend inside their gap, with Newton steps on the exponents
    alternating with the closed-form best d2 (see _ascend).  Each stage runs
    over all its points in one array pass.  Where no point beats the exact
    one-stage fit, that fit embedded as (alpha, alpha, 0), with its scale and
    log-likelihood, is the fit (_nested), so the fit never falls below it;
    it may lie outside the box.  Otherwise the reported log-likelihood is
    that of _CondLoglik.values at the returned genes.
    """
    if sample.n == 0:
        raise EstimationError("cannot fit an empty sample", stage="profile_fit")
    T = sample.T
    spec = TwoStage
    box = spec.default_bounds(T) if bounds is None else tuple(map(tuple, bounds))
    _check_bounds(box, spec.tag)
    (a2_lo, a2_hi), (a3_lo, a3_hi), (d_lo, d_hi) = box
    if a2_lo <= 0 or a3_lo <= 0:
        raise ValueError(f"exponent bounds must be positive, got {box[:2]}")
    if not 0.0 <= d_lo <= d_hi < T:
        raise ValueError(f"d2 bounds must lie in [0, T) with T = {T}, got ({d_lo}, {d_hi})")
    cache = _CondLoglik(sample)
    one = _one_stage_fit(sample, cache)
    # the reversed times of the latest events ascend, and ties give one edge
    late = T - sample.times[sample.times.searchsorted(T - d_hi, side="left"):][::-1]
    inside = late[(late > d_lo) & (late < d_hi)]
    edges = np.concatenate([[d_lo], inside, [d_hi]])
    edges = edges[np.concatenate([[True], np.diff(edges) > 0])]
    lo, hi = edges[:-1], edges[1:]
    # the points the ascent starts from: every gap end but d2 = 0, where
    # alpha3 has no stage, and, inside each gap whose late stage holds
    # events, points spaced geometrically less than a factor 2 apart
    ends = edges[edges > 0]
    off = edges.size - ends.size  # the row of edges[i] is i - off
    gaps = np.arange(lo.size)
    n3 = cache.n - cache.times.searchsorted(T - 0.5 * (lo + hi), side="right")
    with np.errstate(divide="ignore"):
        count = np.where((lo > 0) & (n3 > 0), np.maximum(np.ceil(np.log2(hi / lo)), 1), 0)
    count = count.astype(int)
    inner_gap = np.repeat(gaps, count)
    k = count[inner_gap] + 1
    i = np.arange(inner_gap.size) - np.repeat(np.cumsum(count) - count, count) + 1
    d2 = np.concatenate([ends, lo[inner_gap] * (hi[inner_gap] / lo[inner_gap]) ** (i / k)])
    # the exponents with d2 held at every 16th point in d2 order, started
    # from the one-stage exponent and the late-stage MLE given d2; their
    # fits, interpolated in log d2, start the exponents at every point
    coarse = np.sort(d2)[::16]
    i2 = cache.times.searchsorted(T - coarse, side="right")
    m = cache.n - i2
    with np.errstate(all="ignore"):
        a3 = m / (m * np.log(coarse / T) - (cache.prefix[-1] - cache.prefix[i2]))
    start = np.column_stack([np.full(coarse.size, np.clip(one.family.alpha, a2_lo, a2_hi)),
                             np.clip(np.where(m > 0, a3, a3_hi), a3_lo, a3_hi), coarse])
    fitted, _ = _ascend(cache, spec, start, box, (coarse, coarse))
    genes = np.column_stack([np.interp(np.log(d2), np.log(coarse), fitted[:, j])
                             for j in (0, 1)] + [d2]) if d2.size else start
    genes, ll = _ascend(cache, spec, genes, box, (d2, d2))
    # then each gap from each of its points; from a point where alpha2 <=
    # alpha3 the best d2 in the gap is an end, already scored, so only the
    # other points ascend further
    rows = np.concatenate([gaps - off, gaps + 1 - off, ends.size + np.arange(inner_gap.size)])
    gap = np.concatenate([gaps, gaps, inner_gap])
    keep = np.concatenate([lo > 0, np.ones(lo.size + inner_gap.size, dtype=bool)])
    rows, gap = rows[keep], gap[keep]
    up = genes[rows, 0] > genes[rows, 1]
    inner, inner_ll = _ascend(cache, spec, genes[rows[up]], box, (lo[gap[up]], hi[gap[up]]))

    genes = np.concatenate([genes, inner])
    ll = np.concatenate([ll, inner_ll])
    if not ll.size:
        # a d2 box of {0} holds no candidate: the embedding is the fit
        return _embedded(spec, one, "profile")
    best = int(np.argmax(ll))
    fit = FitResult(_scaled_family(spec.tag, tuple(genes[best]), sample), float(ll[best]),
                    "profile")
    return _nested(fit, one)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

# the largest share of bootstrap replicates whose refit may fail
_MAX_FAILURE_FRACTION = 0.2


def _resample(sample: BidSample, seed: np.random.SeedSequence) -> BidSample:
    """n times drawn from the sample with replacement, in sorted order.

    The times are sorted, so gathering at sorted indices sorts the draw; the
    indices are dropped before the caller refits.
    """
    # below 2**32 numpy draws both widths with the same 32-bit bounded
    # generator, so int32 gives int64's numbers and sorts faster
    dtype = np.int32 if sample.n <= 2**31 else np.int64
    idx = np.random.default_rng(seed).integers(0, sample.n, size=sample.n, dtype=dtype)
    idx.sort()
    return BidSample(times=sample.times[idx], T=sample.T)


def bootstrap_se(
    sample: BidSample,
    fitter: Callable[[BidSample], FitResult],
    n_replicates: int,
    seed: int,
) -> tuple[dict[str, float], dict[str, int]]:
    """Standard errors of a fitter's parameters over resampled event times,
    and the failed refits by stage.

    Each replicate resamples n times with replacement, refits, and the SE of
    each reported parameter is the ddof=1 standard deviation across the
    replicates that succeeded.  Only the refit's .params is read, so a
    qc_fit refit is never scored.  Replicates where the fitter raises are
    tolerated up to 20% of n_replicates and counted per EstimationError
    stage (or error type name), in name order, {} when none failed; beyond
    that an error reports the failure fraction and those counts.
    Deterministic for a given seed.
    """
    if n_replicates < 2:
        raise ValueError("need at least 2 replicates")
    if sample.n == 0:
        raise EstimationError("cannot bootstrap an empty sample", stage="bootstrap")
    children = np.random.SeedSequence(seed).spawn(n_replicates)
    draws: list[dict[str, float]] = []
    failed: Counter[str] = Counter()
    for child in children:
        # the resample lives only as long as its refit
        try:
            draws.append(fitter(_resample(sample, child)).params)
        except (EstimationError, ValueError) as exc:
            failed[getattr(exc, "stage", None) or type(exc).__name__] += 1
    failures = sum(failed.values())
    frac = failures / n_replicates
    by_stage = dict(sorted(failed.items()))
    if frac > _MAX_FAILURE_FRACTION or len(draws) < 2:
        stages = ", ".join(f"{stage} {count}" for stage, count in by_stage.items())
        raise EstimationError(
            f"bootstrap refit failed on {failures}/{n_replicates} replicates "
            f"({frac:.0%} > {_MAX_FAILURE_FRACTION:.0%} allowed); failures by stage: {stages}",
            stage="bootstrap",
        )
    ses = {k: float(np.std([d[k] for d in draws], ddof=1)) for k in draws[0]}
    return ses, by_stage
