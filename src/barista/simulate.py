"""Exact samplers for the arrival process and generative bidder strategies.

Two layers live here.  The first draws event times directly from the model via
the closed-form quantile function.  The second simulates individual bidders
who place a bid with some probability at each of a shrinking sequence of
uniform retry times; pooled over a Poisson number of bidders those strategies
reproduce the one-, two- and three-stage processes, which is the behavioral
story behind the model.

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

# Guard against alpha -> 0 pathologies in the retry walks.
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


def _geometric_uniform(rng: np.random.Generator, a: float, b: float, alpha: float, size: int) -> np.ndarray:
    """Vectorized shrinking-uniform walk with per-attempt success alpha.

    Each walker draws X1 ~ U(a, b) and, while a coin with success probability
    alpha keeps failing, redraws X_{k+1} ~ U(X_k, b).  Returns the stopped
    values; the survival function of each is (1 - (s-a)/(b-a))^alpha.
    """
    x = rng.uniform(a, b, size=size)
    active = rng.random(size) >= alpha
    attempts = 1
    while np.any(active):
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise RuntimeError(
                f"retry walk exceeded {_MAX_ATTEMPTS} attempts; alpha={alpha} too small"
            )
        idx = np.nonzero(active)[0]
        x[idx] = rng.uniform(x[idx], b)
        active[idx] = rng.random(idx.size) >= alpha
    return x


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
    out = _geometric_uniform(rng, a, b, alpha, size if size is not None else 1)
    return out if size is not None else float(out[0])


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
    n_bidders = int(rng.poisson(sp.rate * sp.T))
    cut = sp.T - sp.d
    depart_p = 1.0 - sp.alpha2 / sp.alpha3

    cur = rng.uniform(0.0, sp.T, size=n_bidders)
    alive = np.ones(n_bidders, dtype=bool)
    entered_late = np.zeros(n_bidders, dtype=bool)
    bids: list[np.ndarray] = []

    attempts = 0
    while np.any(alive):
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise RuntimeError(f"bidder walk exceeded {_MAX_ATTEMPTS} attempts")
        idx = np.nonzero(alive)[0]
        t = cur[idx]
        late = t > cut
        # one-time departure decision on first entering the late phase
        first_late = late & ~entered_late[idx]
        if np.any(first_late):
            gone = rng.random(int(first_late.sum())) < depart_p
            died = idx[first_late][gone]
            alive[died] = False
            entered_late[idx[first_late]] = True
        idx = np.nonzero(alive)[0]
        t = cur[idx]
        late = t > cut
        p_bid = np.where(late, sp.alpha3, sp.alpha2)
        success = rng.random(idx.size) < p_bid
        if np.any(success):
            bids.append(t[success])
            alive[idx[success]] = False
        retry = idx[~success]
        if retry.size:
            cur[retry] = rng.uniform(cur[retry], sp.T)

    times = np.sort(np.concatenate(bids)) if bids else np.empty(0)
    # a retry drawn from a vanishing interval can round up to exactly T
    times = np.minimum(times, np.nextafter(sp.T, 0.0))
    return BidSample(times=times, T=sp.T)


def simulate_single_uniform_bids(rate: float, T: float, seed: int) -> BidSample:
    """Bids from bidders who each bid exactly once, uniformly after arrival.

    Bidders arrive as a Poisson(rate) stream on [0, T]; a bidder arriving at s
    bids at a single U(s, T) time.  The pooled bid intensity is
    rate * ln(T / (T - t)), the analytic target of uniform_rebid_intensity.
    """
    if not (rate > 0 and T > 0):
        raise ValueError("rate and T must be > 0")
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(rate * T))
    arrivals = rng.uniform(0.0, T, size=n)
    times = rng.uniform(arrivals, T)
    # a draw can land exactly on T in floating point; fold it just inside
    times = np.minimum(times, np.nextafter(T, 0.0))
    return BidSample(times=np.sort(times), T=T)


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
