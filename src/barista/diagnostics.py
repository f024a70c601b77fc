"""Goodness-of-fit and shape diagnostics.

Kolmogorov-Smirnov tests (one sample against a fitted process, two samples
against each other) use the asymptotic Kolmogorov tail computed in-house so
the library keeps its single numpy dependency.  QQ data and reverse-time
rescaling support the visual checks: a process whose late-time behavior is a
power law looks self-similar when the clock runs backward from the close,
and reverse_time_ecdf puts windows of different lengths on a common unit
horizon so they can be overlaid or KS-compared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimate import _check_horizon, ecdf
from .process import BaristaParams, cdf, inverse_cdf
from .sample import BidSample

__all__ = [
    "KsResult",
    "QqData",
    "kolmogorov_sf",
    "ks_one_sample",
    "ks_two_sample",
    "qq_points",
    "reverse_time_ecdf",
]

_SERIES_TERMS = 100
# CDF values per block of the KS statistic's running maximum
_KS_BLOCK = 8192


@dataclass(frozen=True)
class KsResult:
    d_statistic: float
    p_value: float
    n_effective: float


@dataclass(frozen=True)
class QqData:
    """Paired quantiles: column 0 reference, column 1 observed.

    Both columns are nondecreasing; rows share a plotting position.
    """

    pairs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"pairs must have shape (n, 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("pairs must be finite")
        if np.any(np.diff(arr[:, 0]) < 0) or np.any(np.diff(arr[:, 1]) < 0):
            raise ValueError("both quantile columns must be nondecreasing")
        object.__setattr__(self, "pairs", arr)

    @property
    def reference(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def observed(self) -> np.ndarray:
        return self.pairs[:, 1]

    def max_abs_deviation(self) -> float:
        """Largest |observed - reference| across the pairs."""
        return float(np.max(np.abs(self.pairs[:, 1] - self.pairs[:, 0]))) if len(self.pairs) else 0.0


def kolmogorov_sf(lam: float) -> float:
    """P(sup-norm statistic > lam) under the asymptotic Kolmogorov law.

    Alternating series 2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2), truncated at 100
    terms and clipped to [0, 1]; below lam ~ 0.03 the clipped value is 1 to
    the accuracy anyone uses a KS p-value for.
    """
    if lam <= 0.0:
        return 1.0
    k = np.arange(1, _SERIES_TERMS + 1)
    terms = np.exp(-2.0 * (k * lam) ** 2)
    s = 2.0 * float(np.sum(terms * np.where(k % 2 == 1, 1.0, -1.0)))
    return float(min(1.0, max(0.0, s)))


def ks_one_sample(sample: BidSample, p: BaristaParams) -> KsResult:
    """KS test of the sample's times against the process's arrival-time CDF."""
    if sample.n == 0:
        raise ValueError("KS test needs a nonempty sample")
    _check_horizon(sample, p)
    n = sample.n
    f = cdf(p, sample.times)
    # D+ = max(j/n - f[j-1]) and D- = max(f[j] - j/n), taken over blocks of
    # f so that no other n-length buffer is made; steps[i] is the integer
    # start + i over n
    d_plus, d_minus = [], []
    for start in range(0, n, _KS_BLOCK):
        block = f[start:start + _KS_BLOCK]
        steps = np.arange(start, start + block.size + 1, dtype=float)
        steps /= n
        diff = np.subtract(steps[1:], block)
        d_plus.append(diff.max())
        np.subtract(block, steps[:-1], out=diff)
        d_minus.append(diff.max())
    d = float(max(np.max(d_plus), np.max(d_minus), 0.0))
    return KsResult(d, kolmogorov_sf(math.sqrt(n) * d), float(n))


def _check_same_horizon(a: BidSample, b: BidSample) -> None:
    if a.T != b.T:
        raise ValueError(f"samples live on different horizons: {a.T} and {b.T}")


def ks_two_sample(a: BidSample, b: BidSample) -> KsResult:
    """Two-sample KS with effective size na*nb/(na+nb)."""
    if a.n == 0 or b.n == 0:
        raise ValueError("KS test needs two nonempty samples")
    _check_same_horizon(a, b)
    pooled = np.concatenate([a.times, b.times])
    d = float(np.max(np.abs(ecdf(a, pooled) - ecdf(b, pooled))))
    n_eff = a.n * b.n / (a.n + b.n)
    return KsResult(d, kolmogorov_sf(math.sqrt(n_eff) * d), n_eff)


def qq_points(sample: BidSample, reference: BaristaParams | BidSample) -> QqData:
    """Quantile pairs of the sample against a process or a second sample.

    Plotting positions are (i - 0.5)/n for the sample's order statistics;
    a process reference contributes its exact quantile function, a sample
    reference its linearly interpolated empirical quantiles.
    """
    if sample.n == 0:
        raise ValueError("QQ needs a nonempty sample")
    probs = (np.arange(1, sample.n + 1) - 0.5) / sample.n
    if isinstance(reference, BaristaParams):
        _check_horizon(sample, reference)
        ref_q = inverse_cdf(reference, probs)
    else:
        if reference.n == 0:
            raise ValueError("QQ needs a nonempty reference sample")
        _check_same_horizon(sample, reference)
        ref_q = np.quantile(reference.times, probs)
    return QqData(np.column_stack([ref_q, sample.times]))


def reverse_time_ecdf(sample: BidSample, window: float) -> BidSample:
    """Bids within `window` of the close, in reverse time on a unit horizon.

    A bid at t in (T - window, T) maps to (T - t)/window; the boundary point
    t = T - window is excluded so the image stays inside [0, 1).  Windows of
    different lengths land on the same scale, which is what the self-similar
    overlays compare.
    """
    if not (0.0 < window <= sample.T):
        raise ValueError(f"window must lie in (0, T], got {window} with T={sample.T}")
    sel = sample.times[sample.times > sample.T - window]
    rescaled = (sample.T - sel) / window
    return BidSample(times=np.sort(rescaled), T=1.0)

