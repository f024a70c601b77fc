"""Exact samplers for the arrival process and generative bidder strategies.

Two layers live here.  The first draws event times directly from the model via
the closed-form quantile function.  The second simulates individual bidders
who place a bid with some probability at each of a shrinking sequence of
uniform retry times; pooled over a Poisson number of bidders those strategies
reproduce the one-, two- and three-stage processes, which is the behavioral
story behind the model.  One retry walk (_walk) serves both the one-phase
sample_geometric_uniform and the two-phase simulate_bidder_strategy.

All randomness flows through numpy's default PCG64 generator; every public
entry point takes an explicit integer seed so runs are reproducible bit for
bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process import BaristaParams, _quantile_runs, mean_count
from .sample import BidSample

__all__ = [
    "BidderStrategyParams",
    "sample_fixed_n",
    "sample_poisson_count",
    "sample_geometric_uniform",
    "simulate_bidder_strategy",
    "simulate_single_uniform_bids",
    "uniform_rebid_intensity",
]

# Guard against alpha -> 0 pathologies in the retry walk.
_MAX_ATTEMPTS = 1_000_000


def _iid_times(p: BaristaParams, rng: np.random.Generator, n: int) -> BidSample:
    """n sorted iid event times by inverting sorted uniforms in place.

    The quantile function is elementwise, so this equals
    np.sort(inverse_cdf(p, u)) for the same draw u; the sorted uniforms fall
    into the branches as three runs, each inverted in place.  Rounding where
    two branches meet can leave the output out of order, so it is sorted
    again only when a neighbouring pair says so.  A uniform within rounding
    of 1 can map to exactly T; such times, a sorted tail, move to the largest
    float below T, as ingest's clamp-epsilon does.
    """
    times = rng.random(n)
    times.sort()
    _quantile_runs(p, times, times)
    if np.any(times[1:] < times[:-1]):
        times.sort()
    times[np.searchsorted(times, p.T):] = np.nextafter(p.T, 0.0)
    return BidSample(times=times, T=p.T)


def sample_fixed_n(p: BaristaParams, n: int, seed: int) -> BidSample:
    """n event times conditioned on the count, i.e. iid draws from the CDF.

    The uniforms are drawn in one call, sorted and inverted in their own
    buffer; the sample is bit-identical to np.sort(inverse_cdf(p, u)) of the
    unsorted draw u, except that a time equal to T becomes the largest float
    below T.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _iid_times(p, np.random.default_rng(seed), n)


def sample_poisson_count(p: BaristaParams, seed: int) -> BidSample:
    """One realization of the process: Poisson(m(T)) count, then iid times."""
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(mean_count(p, p.T)))
    return _iid_times(p, rng, n)


def _walk(rng: np.random.Generator, x: np.ndarray, b: float, cut: float,
          alpha2: float, alpha3: float) -> np.ndarray:
    """The shrinking-uniform retry walk, run in place on the first attempts x.

    Each walker attempts at its entry of x.  An attempt at or before cut
    succeeds with probability alpha2, one after cut with alpha3; after a
    failure the walker tries again at a fresh U(x, b) time.  The first time a
    walker attempts after cut it departs for good with probability
    1 - alpha2/alpha3.  x ends up holding each walker's last attempt; the
    mask of the walkers that bid is returned.  Each round draws, in order,
    the departures, the coins and the redraws, with walkers in index order.
    """
    depart_p = 1.0 - alpha2 / alpha3
    early = np.ones(x.size, dtype=bool)
    bid = np.zeros(x.size, dtype=bool)
    idx = np.arange(x.size)
    for _ in range(_MAX_ATTEMPTS):
        t = x[idx]
        first_late = early[idx] & (t > cut)
        if np.any(first_late):
            early[idx[first_late]] = False
            stay = ~first_late
            stay[first_late] = rng.random(int(first_late.sum())) >= depart_p
            idx, t = idx[stay], t[stay]
        won = rng.random(idx.size) < np.where(t > cut, alpha3, alpha2)
        bid[idx[won]] = True
        idx = idx[~won]
        if idx.size == 0:
            return bid
        x[idx] = rng.uniform(x[idx], b)
    raise RuntimeError(f"retry walk exceeded {_MAX_ATTEMPTS} attempts; alpha={alpha2} too small")


def sample_geometric_uniform(a: float, b: float, alpha: float, seed: int, size: int | None = None):
    """Stopped value of the shrinking-uniform retry walk on (a, b).

    Draws X1 ~ U(a,b), X2 ~ U(X1,b), ... and stops at the first success of a
    per-attempt Bernoulli(alpha) coin (a geometric stopping index, sampled
    attempt by attempt).  Returns a float, or an ndarray of independent draws
    when size is given.
    """
    if not (b > a):
        raise ValueError(f"need b > a, got a={a}, b={b}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(a, b, size=size if size is not None else 1)
    # no attempt is after an infinite cut: one phase, no departure draws
    _walk(rng, x, b, math.inf, alpha, alpha)
    return x if size is not None else float(x[0])


@dataclass(frozen=True)
class BidderStrategyParams:
    """Configuration of the two-phase retry strategy.

    Attributes:
        rate: Poisson arrival rate of bidders on [0, T].
        alpha2: per-attempt bid probability before T - d.
        alpha3: per-attempt bid probability on (T - d, T].
        d: length of the final phase (>= 0; 0 disables it).
        T: horizon.

    Requires 0 < alpha2 <= alpha3 <= 1 so the departure probability
    1 - alpha2/alpha3 at the phase boundary is a probability.
    """

    rate: float
    alpha2: float
    alpha3: float
    d: float
    T: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if not (0.0 < self.alpha2 <= self.alpha3 <= 1.0):
            raise ValueError(
                f"need 0 < alpha2 <= alpha3 <= 1, got alpha2={self.alpha2}, alpha3={self.alpha3}"
            )
        if not (0.0 <= self.d < self.T):
            raise ValueError(f"d must lie in [0, T), got d={self.d}, T={self.T}")

    @property
    def success_probability(self) -> float:
        """Probability that a bidder eventually places a bid."""
        if self.d == 0.0:
            return 1.0
        ratio = self.d / self.T
        return 1.0 - ratio ** self.alpha2 * (1.0 - self.alpha2 / self.alpha3)


def _bids(times: np.ndarray, T: float) -> BidSample:
    """The sorted bid times; one that rounded up to T (a draw from a
    vanishing interval) moves to the largest float below T."""
    times = np.sort(times)
    times[np.searchsorted(times, T):] = np.nextafter(T, 0.0)
    return BidSample(times=times, T=T)


def simulate_bidder_strategy(sp: BidderStrategyParams, seed: int) -> BidSample:
    """Bid times produced by independent bidders playing the retry strategy.

    Each bidder arrives uniformly (Poisson(rate) pooled), attempts a bid at
    the arrival time and, after each failure, retries at a fresh uniform time
    between the last attempt and T.  Attempts before T - d succeed with
    probability alpha2.  On first attempting after T - d the bidder departs
    for good with probability 1 - alpha2/alpha3, otherwise keeps attempting
    with per-attempt probability alpha3.  Pooled bid times then follow the
    two-stage process with exponents (alpha2, alpha3) and changepoint T - d
    (one-stage when d = 0).
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, sp.T, size=int(rng.poisson(sp.rate * sp.T)))
    bid = _walk(rng, x, sp.T, sp.T - sp.d, sp.alpha2, sp.alpha3)
    return _bids(x[bid], sp.T)


def simulate_single_uniform_bids(rate: float, T: float, seed: int) -> BidSample:
    """Bids from bidders who each bid exactly once, uniformly after arrival.

    Bidders arrive as a Poisson(rate) stream on [0, T]; a bidder arriving at s
    bids at a single U(s, T) time.  The pooled bid intensity is
    rate * ln(T / (T - t)), the analytic target of uniform_rebid_intensity.
    """
    if not (rate > 0 and T > 0):
        raise ValueError("rate and T must be > 0")
    rng = np.random.default_rng(seed)
    arrivals = rng.uniform(0.0, T, size=int(rng.poisson(rate * T)))
    return _bids(rng.uniform(arrivals, T), T)


def uniform_rebid_intensity(rate: float, T: float, t):
    """Pooled bid intensity rate * ln(T / (T - t)) of the single-bid strategy."""
    if not (rate > 0 and T > 0):
        raise ValueError("rate and T must be > 0")
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr < 0) or np.any(arr >= T):
        raise ValueError("t must lie in [0, T)")
    out = rate * np.log(T / (T - arr))
    return float(out[0]) if scalar else out
