"""Estimation for the three-stage process.

Four routes are implemented, in increasing cost:

* a closed-form maximum-likelihood estimator for the one-stage special case,
* a "quick and crude" method that reads exponents and changepoints off CDF
  differences at hand-picked safe evaluation points,
* profile fits of the two- and three-stage families, whose changepoints
  are profiled over the gaps between event times, with Newton steps on the
  exponents; the two-stage fit is exact, the three-stage fit a search that
  can end below the maximum, and
* a real-valued genetic algorithm over the same objective.

The conditional log-likelihood treats the observed count as given, so the
scale c drops out; it is recovered afterwards by matching the expected total
count to n (estimate_c).  Each family's free parameters, their place in the
full parameter vector, its default GA box and how a fitted genome becomes a
family instance all come from the family's class, process.FAMILIES[tag].

Analytic first and second derivatives in the three exponents, and the
second derivatives that couple them to d1, serve the profile fits' Newton
steps, diagnostics and standard-error work; all are derived from the
normalization constant written as A/B and are checked against finite
differences in the test suite.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, Sequence

import numpy as np

from .process import (
    BaristaParams,
    Family,
    ModelFamily,
    ThreeStage,
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
    # offsets a few ulps apart can share one log with sqrt(s t) between them
    span = math.log(t) - math.log(s)
    if span == 0.0:
        raise EstimationError(f"window offsets {t} and {s} have the same log", stage="qc_alpha")
    est = 2.0 * (math.log(num) - math.log(den)) / span
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
    # the log of the remaining times' ratio is 0 exactly when they are equal
    if T - t3 == T - t3p:
        raise EstimationError(f"late points {t3} and {t3p} leave the same remaining time "
                              f"before {T}", stage="qc_alpha3")
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
    # the changepoint formulas need an event at or before t1, one in
    # (t2a, t2b] and one after t3, and t1 <= t2a < t2b <= t3 makes them three
    if sample.n < 3:
        raise EstimationError("quick-and-crude fit needs at least 3 events", stage="qc_fit")
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
    repeated evaluation at different parameters (GA, Newton) cheap.
    values() and derivatives() take whole parameter columns, so a GA
    generation or a set of Newton iterates is handled as one array in one
    call.  values() normalizes its arguments and silences floating-point
    errors around _kernel, which scores columns as given; ga_fit, whose
    gene-major pool holds every generation's columns as contiguous rows,
    calls _kernel directly inside one np.errstate.
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
        """Vectorized conditional log-likelihood; -inf where invalid.

        Takes scalars or any columns numpy broadcasts, as float, and scores
        them with _kernel under silenced floating-point errors.
        """
        with np.errstate(all="ignore"):
            return self._kernel(*self._columns((a1, a2, a3, d1, d2)))

    def _kernel(self, a1, a2, a3, d1, d2) -> np.ndarray:
        """values() on equal-length 1-d float64 columns, used as given.

        Rows off the valid set compute garbage (nan, inf, clamped indices)
        and are replaced by -inf at the end, so the caller silences
        floating-point errors: values() per call, ga_fit once around its
        whole generation loop.
        """
        T, n, prefix = self.T, self.n, self.prefix
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

    def d1_coupling(self, a1, a2, a3, d1, d2) -> tuple[np.ndarray, np.ndarray]:
        """With u = log(1 - d1/T) and the stage counts held, the second
        derivatives in the exponents and u, (k, 3), and in u alone, (k,).

        Only B and the data term i1 (a2 - a1) u depend on u; with E1 =
        q1^(a2-a1) and E2 = q1^a2, B_u = a2 a3 (a1 - a2) (E2 - E1).
        """
        a1, a2, a3, d1, d2 = self._columns((a1, a2, a3, d1, d2))
        i1 = self.times.searchsorted(d1, side="right")
        q1 = 1.0 - d1 / self.T
        B, Bg, _ = _B_derivatives(a1, a2, a3, q1, d2 / self.T)
        u, E1, E2 = np.log(q1), q1 ** (a2 - a1), q1 ** a2
        D = E2 - E1
        Bu = a2 * a3 * (a1 - a2) * D
        Buu = a2 * a3 * (a1 - a2) * (a2 * E2 + (a1 - a2) * E1)
        Bau = np.stack([a2 * a3 * (D + (a1 - a2) * u * E1),
                        a3 * (a1 - 2.0 * a2) * D + a2 * a3 * (a1 - a2) * u * D,
                        a2 * (a1 - a2) * D], axis=-1)
        cross = (-self.n * (Bau / B[:, None] - Bg * (Bu / B ** 2)[:, None])
                 + i1[:, None] * np.array([-1.0, 1.0, 0.0]))
        return cross, -self.n * (Buu / B - (Bu / B) ** 2)


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
    * profile: the two-stage maximum over the box, or the best value the
      three-stage search found, which can fall below the maximum; or the
      next-smaller family's fit embedded, by profile_fit's nesting rule;
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
    method: str  # "quick-crude" | "ga" | "closed-form" | "profile"
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

    Every fit's family but an embedding (profile_fit) is built here, and a
    FitResult reads its c_hat from the family, so a fit's scale is recovered
    and stored in one place.
    """
    spec = get_family(tag)
    c_hat = estimate_c(spec.build(genes, 1.0, sample.T).as_barista(), sample.n)
    return spec.build(genes, c_hat, sample.T)


# ---------------------------------------------------------------------------
# genetic algorithm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaConfig:
    """Settings for the real-valued genetic search.

    bounds is one (lo, hi) box per free parameter, in the family's parameter
    order.  Each pair is checked here on its own; ga_fit checks the whole
    box against the family and the sample's horizon by profile_fit's rule
    (_check_bounds) before it draws anything.  The population (100), the
    elite share (0.10), the offspring pairs per generation (50) and the
    mutation step ((hi - lo)/20 per coordinate) are fixed.
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


def _check_bounds(bounds: Sequence[tuple[float, float]], family: str | None = None,
                  T: float | None = None) -> None:
    """The one rule for a search box, which ga_fit and profile_fit share.

    Each (lo, hi) must be finite with hi - lo neither negative nor -0.0, as
    it is for (0.0, -0.0), a range ga_fit's uniform draw refuses; this is
    checked first, so GaConfig's family-free call runs the first step of the
    same rule and both fitters name the same first fault.  Given a family,
    there must then be one pair per free parameter.  Given the family's
    horizon T too (T comes only with a family), each exponent's lo must be
    positive, since a nonpositive exponent is outside the model, and each
    changepoint pair must lie in [0, T); no width of such a box overflows.
    """
    for lo, hi in bounds:
        if not (math.isfinite(lo) and math.isfinite(hi) and math.copysign(1.0, hi - lo) > 0):
            raise ValueError(f"bad bound ({lo}, {hi})")
    if family is not None:
        spec = get_family(family)
        if len(bounds) != len(spec.free_names):
            raise ValueError(f"{family} needs {len(spec.free_names)} bounds, got {len(bounds)}")
    if T is not None:
        e = _exponent_jacobian(spec).shape[1]
        if min(lo for lo, _ in bounds[:e]) <= 0:
            raise ValueError(f"exponent bounds must be positive, got {bounds[:e]}")
        for name, (lo, hi) in zip(spec.free_names[e:], bounds[e:]):
            if not 0.0 <= lo <= hi < T:
                raise ValueError(f"{name} bounds must lie in [0, T) with T = {T}, got ({lo}, {hi})")


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
    fitness (recorded in FitResult.history) never decreases.

    Only the elite of each generation breeds, so the truncated population is
    kept as its elite alone: one pool of elite and offspring genomes,
    allocated once, is refilled in place every generation.  The pool is gene
    major, one row per gene and one column per genome, so the family's gene
    map picks each generation's five likelihood columns as contiguous rows,
    which _CondLoglik._kernel scores in one call.  Random draws keep their
    genome-major order and are read transposed, so a seed gives the same
    search as a genome-major pool.
    """
    if sample.n == 0:
        raise EstimationError("cannot fit an empty sample", stage="ga_fit")
    spec = get_family(family)
    _check_bounds(cfg.bounds, family, sample.T)
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
    # columns: elite, then blends, then mirrored blends; the trailing row
    # stays 0, the padding row of the family's gene map
    pool = np.zeros((lo.size + 1, n_elite + 2 * pairs))
    pool_fit = np.empty(n_elite + 2 * pairs)
    neg_fit = np.empty_like(pool_fit)
    genes = pool[:-1]
    kids = genes[:, n_elite:]
    blend, mirror = kids[:, :pairs], kids[:, pairs:]
    at_bound = np.empty(kids.shape, dtype=bool)
    kid_columns = [pool[j, n_elite:] for j in spec.gene_map]
    lo, hi, scale = lo[:, None], hi[:, None], scale[:, None]
    genes[:, :n_elite] = pop[order[:n_elite]].T
    pool_fit[:n_elite] = fit[order[:n_elite]]
    history = [float(pool_fit[0])]

    with np.errstate(all="ignore"):
        for _ in range(cfg.generations):
            ia = rng.integers(0, n_elite, size=pairs)
            ib = rng.integers(0, n_elite, size=pairs)
            u = rng.random((pairs, lo.size)).T
            a, b = genes[:, ia], genes[:, ib]
            w = 1.0 - u
            np.multiply(u, a, out=blend)
            blend += w * b
            np.multiply(w, a, out=mirror)
            mirror += u * b
            kids += rng.normal(0.0, 1.0, size=kids.shape[::-1]).T * scale
            # clipped to the box; a gene equal to its bound, 0.0 against -0.0,
            # takes the bound, as in numpy's generic clip loop, where np.clip
            # may keep the gene, depending on the numpy build and the layout
            np.copyto(kids, lo, where=np.less_equal(kids, lo, out=at_bound))
            np.copyto(kids, hi, where=np.greater_equal(kids, hi, out=at_bound))
            pool_fit[n_elite:] = cache._kernel(*kid_columns)
            order = np.argsort(np.negative(pool_fit, out=neg_fit), kind="stable")[:n_elite]
            genes[:, :n_elite] = genes[:, order]
            pool_fit[:n_elite] = pool_fit[order]
            history.append(float(pool_fit[0]))

    if not np.isfinite(pool_fit[0]):
        raise EstimationError("no feasible genome found", stage="ga_fit")
    return FitResult(_scaled_family(family, tuple(genes[:, 0]), sample), float(pool_fit[0]),
                     "ga", tuple(history))


# ---------------------------------------------------------------------------
# profile fits
# ---------------------------------------------------------------------------

# a round of the ascent that gains less than this many nats ends its column
_ASCENT_TOL = 1e-10
_MAX_ROUNDS = 500
_MAX_HALVINGS = 40
# profile rows handled per likelihood or derivative call; bounds the memory
# of a large sample
_ROW_BLOCK = 4096
# bracketed Newton steps to an in-gap root of d1's stationary condition
_ROOT_STEPS = 4
# the three-stage fit holds each changepoint at every 32nd gap end of its
# box (more sparsely in a box of over 2048 ends), then at 32 ends to either
# side of the best
_COARSE = 32


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
    quadratic model g.p + p.H.p / 2 in k <= 3 variables, and the model's gain.

    At the maximizer each coordinate is free, at its lower bound or at its
    upper bound, and the free ones solve the Newton equations with the
    others held.  So each of the 3^k such active sets gives one candidate,
    and the best candidate inside the box is the answer.  The Newton step,
    every coordinate free, is tried first, and only rows where it leaves the
    box try the other sets.
    """
    k = g.shape[1]
    step, gain = _active_set_step(g, H, lo, hi, np.zeros((k, 1), dtype=int))
    out = np.flatnonzero(gain == -np.inf)
    if out.size:
        every = np.array(list(itertools.product((0, 1, 2), repeat=k))).T
        step[out], gain[out] = _active_set_step(g[out], H[out], lo[out], hi[out], every)
    step[gain == -np.inf] = 0.0
    return step, np.maximum(gain, 0.0)


def _active_set_step(g: np.ndarray, H: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                     state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the best of the active sets that are state's columns, each
    coordinate free (0), at its lower bound (1) or at its upper bound (2),
    solved by Cramer's rule, and its model gain: -inf where none lies in the
    box."""
    k = g.shape[1]
    free = state[:, None] == 0
    bound = np.where(state[:, None] == 2, hi.T[..., None], lo.T[..., None])
    # (k + 1, k, k, rows, sets): row i of a set's system is H's where
    # coordinate i is free and else that of p_i = its bound; system j + 1
    # has column j replaced by the right-hand side
    mats = np.repeat(np.where(free[:, None], H.transpose(1, 2, 0)[..., None],
                              np.eye(k)[..., None, None])[None], k + 1, axis=0)
    for j in range(k):
        mats[j + 1, :, j] = np.where(free, -g.T[..., None], bound)
    with np.errstate(all="ignore"):
        det = None
        for perm in itertools.permutations(range(k)):
            term = mats[:, 0, perm[0]]
            for i in range(1, k):
                term = term * mats[:, i, perm[i]]
            odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
            det = term if det is None else det - term if odd else det + term
        p = np.where(free, det[1:] / det[0], bound)
        quad = sum((1.0 if i == j else 2.0) * H[:, i, j, None] * p[i] * p[j]
                   for i in range(k) for j in range(i, k))
        gain = sum(p[i] * g[:, i, None] for i in range(k)) + 0.5 * quad
        inside = ((p >= lo.T[..., None]) & (p <= hi.T[..., None])).all(axis=0)
        gain = np.where(inside & np.isfinite(gain), gain, -np.inf)
    rows = np.arange(len(g))
    best = np.argmax(gain, axis=1)
    return p[:, rows, best].T, gain[rows, best]


def _stage_counts(cache: _CondLoglik, slot: int, d) -> np.ndarray:
    """The events of the early stage when d1 = d (slot 3), or of the late
    stage when d2 = d (slot 4), as _CondLoglik.values counts them."""
    if slot == 3:
        return cache.times.searchsorted(d, side="right")
    return cache.n - cache.times.searchsorted(cache.T - d, side="right")


def _gap_edges(cache: _CondLoglik, slot: int, lo: float, hi: float) -> np.ndarray:
    """lo, the event times (slot 3, d1) or reversed event times T - t (slot
    4, d2) strictly inside (lo, hi), and hi, ascending and each once: the
    ends of the gaps in which the changepoint's stage count is fixed."""
    t = cache.times
    if slot == 4:
        t = cache.T - t[t.searchsorted(cache.T - hi, side="left"):][::-1]
    edges = np.concatenate([[lo], t[(t > lo) & (t < hi)], [hi]])
    return edges[np.concatenate([[True], np.diff(edges) > 0])]


def _gaps(edges: np.ndarray, d: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
    """The ends of the gap between edges that holds each d: on side "right"
    the gap that d opens, as d1's count has it, and on side "left" the one
    that d closes, as d2's has it."""
    i = np.clip(edges.searchsorted(d, side) - 1, 0, max(edges.size - 2, 0))
    return edges[i], edges[np.minimum(i + 1, edges.size - 1)]


def _late_alpha(cache: _CondLoglik, d2: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The late stage's exponent MLE given d2 from its events alone, clipped
    to [lo, hi], and hi where the stage holds none: a start for alpha3."""
    i2 = cache.times.searchsorted(cache.T - d2, side="right")
    m = cache.n - i2
    with np.errstate(all="ignore"):
        a3 = m / (m * np.log(d2 / cache.T) - (cache.prefix[-1] - cache.prefix[i2]))
    return np.clip(np.where(m > 0, a3, hi), lo, hi)


def _stationary(cache: _CondLoglik, slot: int, full, count, lo, hi) -> np.ndarray:
    """Per row, where in [lo, hi] the log-likelihood is stationary in the
    changepoint of slot 3 (d1) or 4 (d2), for full = (alpha1, alpha2,
    alpha3, d1, d2) columns with the other genes and the stage count held.

    With q1 = 1 - d1/T and q2 = d2/T, d2's condition has the closed form

        q2^a2 = n3 a3 (a2 q1^(a2-a1) + (a1-a2) q1^a2) / (a1 (n a2 - n3 (a2-a3))),

    a maximum when alpha2 > alpha3 and a minimum otherwise.  d1's, with
    i1 early events and K = a1 (a2 - a3) q2^a2, is

        (n - i1) a2 a3 q1^(a2-a1) - a3 (n a2 + i1 (a1-a2)) q1^a2 - i1 K = 0.

    When alpha1 > alpha2, as in the default box, its left side falls in
    log q1, so it has at most one root (as Descartes' rule for real
    exponents also shows, Jameson 2006), and that root is d1's maximum.
    Where K = 0 the root is q1^a1 = (n - i1) a2 / (n a2 + i1 (a1 - a2));
    from there bracketed Newton steps in log q1 find it, or the end of
    [lo, hi] that it lies beyond.
    """
    T, n = cache.T, cache.n
    a1, a2, a3, d1, d2 = full
    with np.errstate(all="ignore"):
        if slot == 4:
            q1 = 1.0 - d1 / T
            tie = (a2 * q1 ** (a2 - a1) + (a1 - a2) * q1 ** a2) / a1
            return np.clip(T * (count * a3 * tie / (n * a2 - count * (a2 - a3))) ** (1.0 / a2),
                           lo, hi)
        A = (n - count) * a2 * a3
        B = a3 * (n * a2 + count * (a1 - a2))
        K = count * a1 * (a2 - a3) * (d2 / T) ** a2
        u_lo, u_hi = np.log1p(-hi / T), np.log1p(-lo / T)
        u = np.clip(np.log(A / B) / a1, u_lo, u_hi)
        for _ in range(_ROOT_STEPS):
            f1, f2 = A * np.exp((a2 - a1) * u), B * np.exp(a2 * u)
            up = f1 - f2 > K
            u_lo, u_hi = np.where(up, u, u_lo), np.where(up, u_hi, u)
            u = u - (f1 - f2 - K) / ((a2 - a1) * f1 - a2 * f2)
            u = np.where((u >= u_lo) & (u <= u_hi), u, 0.5 * (u_lo + u_hi))
        return np.clip(-T * np.expm1(u), lo, hi)


def _ascend(cache: _CondLoglik, spec: type[Family], genes: np.ndarray,
            box: tuple[tuple[float, float], ...],
            spans: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Block coordinate ascent of a family's log-likelihood, row by row.

    genes holds (k, m) rows inside box, the family's exponents and then its
    changepoints.  spans = (lo, hi), two (k, c) arrays, holds each row's c
    changepoints in intervals with no event time (d1), or reversed event
    time T - t (d2), inside them, so the stage counts are fixed there.  A
    round takes one box-constrained Newton step on the exponents,
    backtracking until it does not lose, then moves each changepoint in
    turn to the best of its current value, its span's ends and its
    stationary point (_stationary).  Where d1 lies inside its span, d1
    follows the step along the tangent of its stationary point, and the
    step uses the Hessian of the profile over d1, the exponents' Hessian
    less the coupling through d1: d1 and alpha1 are so tightly coupled that
    maximized in turn they converge slowly.  For fixed changepoints the log-likelihood is
    concave in the exponents (an exponential family), and for fixed
    exponents one of those values is a changepoint's best in its span.
    Every round is an ascent; a row ends when a round gains less than
    _ASCENT_TOL.  Rows go _ROW_BLOCK at a time, which bounds the memory of
    a large sample.  Returns the rows and their log-likelihoods.
    """
    genes = genes.copy()
    J = _exponent_jacobian(spec)
    e = J.shape[1]
    ex_lo = np.array([b[0] for b in box[:e]])
    ex_hi = np.array([b[1] for b in box[:e]])
    slots = [spec.gene_map.tolist().index(j) for j in range(e, genes.shape[1])]
    d1 = e + slots.index(3) if 3 in slots else None  # d1's column
    lo, hi = spans
    counts = np.column_stack([_stage_counts(cache, s, 0.5 * (lo[:, c] + hi[:, c]))
                              for c, s in enumerate(slots)])
    ll = np.empty(len(genes))
    for start in range(0, len(genes), _ROW_BLOCK):
        ll[start:start + _ROW_BLOCK] = cache.values(
            *spec.vectors(genes[start:start + _ROW_BLOCK]).T)
    active = np.flatnonzero(np.isfinite(ll))
    for _ in range(_MAX_ROUNDS):
        if active.size == 0:
            break
        ascending = []
        for rows in np.array_split(active, -(-active.size // _ROW_BLOCK)):
            g = genes[rows]
            before = ll[rows]
            full = spec.vectors(g).T
            grad, hess = cache.derivatives(*full)
            grad, hess = grad @ J, J.T @ hess @ J
            # du/dx along d1's stationary point, u = log(1 - d1/T)
            tangent = np.zeros_like(grad)
            inner = np.flatnonzero((lo[rows, d1 - e] < g[:, d1]) & (g[:, d1] < hi[rows, d1 - e])
                                   if d1 is not None else [])
            if inner.size:
                cross, curve = cache.d1_coupling(*full[:, inner])
                inner, cross, curve = inner[curve < 0], cross[curve < 0] @ J, curve[curve < 0]
                tangent[inner] = -cross / curve[:, None]
                hess[inner] += cross[:, :, None] * tangent[inner, None, :]
            x = g[:, :e]
            step, gain = _box_newton_step(grad, hess, ex_lo - x, ex_hi - x)
            # halve each step until it does not lose, or its model gain is noise
            t = np.where(gain >= _ASCENT_TOL, 1.0, 0.0)
            now = before.copy()
            todo = np.flatnonzero(t)
            for _ in range(_MAX_HALVINGS):
                if todo.size == 0:
                    break
                trial = np.column_stack([x[todo] + t[todo, None] * step[todo], g[todo, e:]])
                du = (t[todo, None] * step[todo] * tangent[todo]).sum(axis=1)
                if d1 is not None:
                    moved = -cache.T * np.expm1(np.log1p(-trial[:, d1] / cache.T) + du)
                    trial[:, d1] = np.where(du != 0, np.clip(moved, lo[rows[todo], d1 - e],
                                                             hi[rows[todo], d1 - e]), trial[:, d1])
                got = cache.values(*spec.vectors(trial).T)
                ok = got >= before[todo]
                g[todo[ok]] = trial[ok]
                now[todo[ok]] = got[ok]
                todo = todo[~ok]
                t[todo] *= 0.5
                todo = todo[t[todo] * gain[todo] >= _ASCENT_TOL]

            # a changepoint moves only in rows whose span is an interval
            for c, slot in enumerate(slots):
                free = np.flatnonzero(hi[rows, c] > lo[rows, c])
                if free.size == 0:
                    continue
                j = e + c
                gf, lo_f, hi_f = g[free], lo[rows[free], c], hi[rows[free], c]
                d = np.column_stack([gf[:, j], lo_f, hi_f, _stationary(
                    cache, slot, spec.vectors(gf).T, counts[rows[free], c], lo_f, hi_f)])
                tried = np.repeat(gf, d.shape[1], axis=0)
                tried[:, j] = d.ravel()
                scores = cache.values(*spec.vectors(tried).T).reshape(d.shape)
                scores[:, 0] = now[free]  # keep the current value on ties
                pick = np.argmax(scores, axis=1)
                r = np.arange(free.size)
                g[free, j] = d[r, pick]
                now[free] = scores[r, pick]
            genes[rows] = g
            ll[rows] = now
            ascending.append(rows[now - before >= _ASCENT_TOL])
        active = np.concatenate(ascending)
    return genes, ll


def _scan(cache: _CondLoglik, spec: type[Family], genes: np.ndarray, ll: np.ndarray,
          j: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Each row with its changepoint gene j moved across the gaps between
    edges, to the best, for the row's other genes, of every gap end and
    every gap's stationary point, all scored in one values call per row.  A
    row moves only where that gains at least _ASCENT_TOL.  Returns the rows,
    their log-likelihoods and whether any row moved."""
    slot = spec.gene_map.tolist().index(j)
    lo, hi = edges[:-1], edges[1:]
    count = _stage_counts(cache, slot, 0.5 * (lo + hi))
    genes, ll, moved = genes.copy(), ll.copy(), False
    for r in range(len(genes)):
        # a stationary point at a gap end is that end, already tried
        at = _stationary(cache, slot, spec.vectors(genes[r:r + 1]).T, count, lo, hi)
        at = np.concatenate([edges, at[(lo < at) & (at < hi)]])
        tried = np.repeat(genes[r:r + 1], at.size, axis=0)
        tried[:, j] = at
        scores = cache.values(*spec.vectors(tried).T)
        best = int(np.argmax(scores))
        if np.isfinite(scores[best]) and scores[best] >= ll[r] + _ASCENT_TOL:
            genes[r], ll[r], moved = tried[best], scores[best], True
    return genes, ll, moved


def _two_stage_rows(cache: _CondLoglik, box, one: FitResult) -> tuple[np.ndarray, np.ndarray]:
    """Ascended two-stage rows, whose best is the maximum over box; see
    profile_fit."""
    spec = TwoStage
    (a2_lo, a2_hi), (a3_lo, a3_hi), (d_lo, d_hi) = box
    edges = _gap_edges(cache, 4, d_lo, d_hi)
    lo, hi = edges[:-1], edges[1:]
    # the points the ascent starts from: every gap end but d2 = 0, where
    # alpha3 has no stage, and, inside each gap whose late stage holds
    # events, points spaced geometrically less than a factor 2 apart
    ends = edges[edges > 0]
    off = edges.size - ends.size  # the row of edges[i] is i - off
    gaps = np.arange(lo.size)
    n3 = _stage_counts(cache, 4, 0.5 * (lo + hi))
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
    start = np.column_stack([np.full(coarse.size, np.clip(one.family.alpha, a2_lo, a2_hi)),
                             _late_alpha(cache, coarse, a3_lo, a3_hi), coarse])
    fitted, _ = _ascend(cache, spec, start, box, (coarse[:, None], coarse[:, None]))
    genes = np.column_stack([np.interp(np.log(d2), np.log(coarse), fitted[:, j])
                             for j in (0, 1)] + [d2]) if d2.size else start
    genes, ll = _ascend(cache, spec, genes, box, (genes[:, 2:], genes[:, 2:]))
    # then each gap from each of its points; from a point where alpha2 <=
    # alpha3 the best d2 in the gap is an end, already scored, so only the
    # other points ascend further
    rows = np.concatenate([gaps - off, gaps + 1 - off, ends.size + np.arange(inner_gap.size)])
    gap = np.concatenate([gaps, gaps, inner_gap])
    keep = np.concatenate([lo > 0, np.ones(lo.size + inner_gap.size, dtype=bool)])
    rows, gap = rows[keep], gap[keep]
    up = genes[rows, 0] > genes[rows, 1]
    inner, inner_ll = _ascend(cache, spec, genes[rows[up]], box,
                              (lo[gap[up], None], hi[gap[up], None]))
    return np.concatenate([genes, inner]), np.concatenate([ll, inner_ll])


def _three_stage_rows(sample: BidSample, cache: _CondLoglik, box,
                      two: FitResult) -> tuple[np.ndarray, np.ndarray]:
    """Ascended three-stage rows, whose best is the maximum over box; see
    profile_fit."""
    spec, (lo, hi) = ThreeStage, np.array(box).T
    edges = {j: _gap_edges(cache, j, *box[j]) for j in (3, 4)}
    # d2 = 0 leaves alpha3 without a stage
    ends = {3: edges[3], 4: edges[4][edges[4] > 0]}
    genes = [np.clip(spec.embed(two.family), lo, hi)]
    try:
        genes.append(np.array(list(qc_fit(sample, default_qc_config(cache.T)).params.values())[:5]))
    except (EstimationError, ValueError):
        pass
    genes = np.array([g for g in genes if np.all((lo <= g) & (g <= hi))])
    ll, fitted = np.full(len(genes), -np.inf), {}

    # d1, or d2, is held first at every step-th gap end of its box, then at
    # 2 _COARSE + 1 ends around the row's own, every stride-th: a stride
    # doubles while the best end lies at its window's edge and gains, and
    # halves back to 1 otherwise, so every pass gains or narrows a stride
    step = {j: max(_COARSE, ends[j].size // (2 * _COARSE)) for j in (3, 4)}
    stride = {(k, j): step[j] // _COARSE for k in range(len(genes)) for j in (3, 4)}

    def held(first: bool) -> bool:
        # each row with d1, or d2, held at those ends, the other changepoint
        # held too, and the exponents fitted from the last such fits
        # interpolated; a row moves to the best, and whether a changepoint
        # moved, or a stride is still above 1, is returned
        keys, blocks = [], []
        for k, j in itertools.product(range(len(genes)), (3, 4)):
            i, w = int(ends[j].searchsorted(genes[k, j])), stride[k, j]
            # only the embedded start, whose d1 is the box's lower end, has
            # its changepoints held across the whole box first
            at = ends[j][::step[j]] if first and k == 0 else ends[j][max(i - _COARSE * w, 0):
                                                                     i + _COARSE * w + 1:w]
            if at.size:
                keys.append((k, j))
                blocks.append(np.tile(genes[k], (at.size, 1)))
                blocks[-1][:, j] = at
                if (k, j) in fitted:
                    blocks[-1][:, :3] = np.array([np.interp(at, fitted[k, j][:, j], fitted[k, j][:, c])
                                                  for c in range(3)]).T
                elif j == 4:
                    blocks[-1][:, 2] = _late_alpha(cache, at, *box[2])
        rows = np.concatenate(blocks)
        rows, v = _ascend(cache, spec, rows, box, (rows[:, 3:], rows[:, 3:]))
        moved, start = False, 0
        for (k, j), block in zip(keys, blocks):
            fitted[k, j], w = rows[start:start + len(block)], v[start:start + len(block)]
            start += len(block)
            b = int(np.argmax(w))
            gains = bool(np.isfinite(w[b]) and w[b] >= ll[k] + _ASCENT_TOL)
            if not first:
                edge = b in (0, len(w) - 1) and ends[j][0] < block[b, j] < ends[j][-1]
                stride[k, j] = 2 * stride[k, j] if edge and gains else max(stride[k, j] // 2, 1)
            if gains:
                moved |= bool(np.any(genes[k, 3:] != fitted[k, j][b, 3:]))
                genes[k], ll[k] = fitted[k, j][b], w[b]
        return moved or max(stride.values()) > 1

    held(True)
    for _ in range(_MAX_ROUNDS):
        while held(False):
            pass
        spans = [_gaps(edges[3], genes[:, 3], "right"), _gaps(edges[4], genes[:, 4], "left")]
        genes, ll = _ascend(cache, spec, genes, box, tuple(map(np.column_stack, zip(*spans))))
        genes, ll, moved1 = _scan(cache, spec, genes, ll, 3, edges[3])
        genes, ll, moved2 = _scan(cache, spec, genes, ll, 4, edges[4])
        if not (moved1 or moved2):
            break
    return genes, ll


def profile_fit(sample: BidSample, bounds: Sequence[tuple[float, float]] | None = None,
                family: str = "two-stage", smaller: FitResult | None = None) -> FitResult:
    """Maximum of the two-stage conditional log-likelihood over a box, or a
    search for the three-stage one.

    bounds is one (lo, hi) pair per free parameter of the family,
    default_bounds by default, the GA's box.  The fit is a profile over the
    changepoints (Hinkley 1970).  The event times inside d1's box, and the
    reversed event times T - t inside d2's, split each box into gaps, and
    in each gap the stage counts and the branch sums are constant.

    * Two-stage: the exponents are maximized with d2 held at each gap's
      ends and at points inside it, less than a factor 2 apart; every 16th
      point is fitted first, and those fits start the rest.  For fixed
      exponents with alpha2 <= alpha3, the best d2 of a gap is one of its
      ends, so only the points where alpha2 > alpha3 then ascend inside
      their gap (_ascend).  Each stage runs over all its points in one
      array pass.
    * Three-stage: two starts, the two-stage fit (smaller) embedded and
      clipped to the box, and the quick-crude fit where it succeeds inside
      the box.  The exponents are fitted with d1 held at gap ends, and
      apart with d2 held so, the other changepoint held at the row's, and
      the row moves to the best: for the embedded start first at every
      _COARSE-th end of the box, then, for both, at 2 _COARSE + 1 ends
      around the row's, every stride-th, from the last fits interpolated,
      until the best ends stop moving and every stride is back to 1.  Then,
      until no move gains, the row ascends inside its gaps (_ascend), and
      d1 and then d2 move across gaps to their best over the whole box for
      the row's other genes (_scan).

    The two-stage fit is exact.  The three-stage fit is a search that can
    end below the maximum.  Against an ascent inside every pair of a d1 gap
    and a d2 gap, on 300-bid samples of four truths it ended lower in 19 of
    160 datasets, by up to 0.41 nats, and at n = 1000 in 8 of 60, by up to
    0.19 nats.  Most misses stop one to three d1 gaps from the best at the
    same d2, since a row held at a gap end ascends only into the gap on its
    right (_gaps(..., "right")); a few stop tens of d1 gaps away.

    smaller is the exact fit of the next-smaller family to this sample, the
    closed-form one-stage fit (_one_stage_fit) or the default-box two-stage
    profile fit; it is worked out when not given, and select_model passes
    the fits it has.  The three-stage fit starts from it, and each fit nests
    over it by one rule: the best row is the fit only when its
    log-likelihood (that of _CondLoglik.values at its genes) is strictly
    greater than smaller.loglik.  Otherwise, ties, an empty box (a d2 box of
    {0}) and a best row of nan or -inf included, the fit is smaller
    embedded in this family (Family.embed), the same process, with
    smaller's scale and log-likelihood as they are; it may lie outside the
    box.  So the fit never falls below smaller, a likelihood-ratio statistic
    against it is never negative, and a fit is the embedding exactly when
    its loglik equals smaller.loglik.
    """
    spec = get_family(family)
    if spec not in (TwoStage, ThreeStage):
        raise ValueError(f"profile_fit fits the two-stage and three-stage families, "
                         f"got {family!r}")
    if sample.n == 0:
        raise EstimationError("cannot fit an empty sample", stage="profile_fit")
    T = sample.T
    box = spec.default_bounds(T) if bounds is None else tuple(map(tuple, bounds))
    _check_bounds(box, spec.tag, T)
    cache = _CondLoglik(sample)
    if spec is TwoStage:
        smaller = smaller or _one_stage_fit(sample, cache)
        genes, ll = _two_stage_rows(cache, box, smaller)
    else:
        smaller = smaller or profile_fit(sample)
        genes, ll = _three_stage_rows(sample, cache, box, smaller)
    best = int(np.argmax(ll)) if ll.size else 0
    if ll.size and ll[best] > smaller.loglik:
        return FitResult(_scaled_family(spec.tag, tuple(genes[best]), sample), float(ll[best]),
                         "profile")
    # the same process as smaller, so its scale and loglik are kept as they are
    return FitResult(spec.build(spec.embed(smaller.family), smaller.c_hat, T), smaller.loglik,
                     "profile")


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
