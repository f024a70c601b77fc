"""Containers for observed bid times."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

__all__ = ["BidSample", "pool"]


@dataclass(frozen=True)
class BidSample:
    """Sorted bid times on a common horizon.

    times are offsets from auction start, each in [0, T); ties are kept in the
    order supplied.  sources, when present, aligns an auction identifier with
    each time so pooled samples stay traceable.
    """

    times: np.ndarray
    T: float
    sources: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1:
            raise ValueError("times must be a 1-d array")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be finite and > 0, got {self.T}")
        # a nan fails every comparison, so it makes a longer array unordered;
        # in a sorted array only the ends can be infinite or out of range
        if t.size and np.all(t[1:] >= t[:-1]):
            if not (math.isfinite(t[0]) and math.isfinite(t[-1])):
                raise ValueError("times must be finite")
            if t[0] < 0 or t[-1] >= self.T:
                raise ValueError("times must lie in [0, T)")
        elif t.size:
            if not np.all(np.isfinite(t)):
                raise ValueError("times must be finite")
            if np.any(t < 0) or np.any(t >= self.T):
                raise ValueError("times must lie in [0, T)")
            raise ValueError("times must be sorted nondecreasing")
        if self.sources is not None:
            # a tuple of str is kept as given: checking the types of its
            # items costs less than copying it
            if not (type(self.sources) is tuple and set(map(type, self.sources)) <= {str}):
                object.__setattr__(self, "sources", tuple(str(s) for s in self.sources))
            if len(self.sources) != t.size:
                raise ValueError("sources must align with times")

    @property
    def n(self) -> int:
        return int(self.times.size)

    def per_source_counts(self) -> dict[str, int]:
        """Bid counts keyed by auction identifier ({'': n} when untagged)."""
        if self.sources is None:
            return {"": self.n}
        return dict(Counter(self.sources))


def _reordered(labels: list[str], order: np.ndarray) -> tuple[str, ...]:
    """labels[order] as a tuple of the very objects of labels, gathered
    through an object array.

    labels is consumed: it is cleared once the array holds its items, and
    the array is dropped once gathered, so at most two sample-sized arrays
    of label pointers are alive at a time.
    """
    gathered = np.array(labels, dtype=object)
    labels.clear()
    gathered = gathered[order]
    return tuple(gathered)


def pool(samples: list[BidSample] | tuple[BidSample, ...]) -> BidSample:
    """Merge samples observed on the same horizon into one sorted sample.

    Horizons must match exactly; differing T values are a modeling error, not
    something to silently rescale.
    """
    if not samples:
        raise ValueError("pool needs at least one sample")
    T = samples[0].T
    for i, s in enumerate(samples):
        if s.T != T:
            raise ValueError(f"sample {i} has horizon {s.T}, expected {T}")
    times = np.concatenate([s.times for s in samples])
    order = np.argsort(times, kind="stable")
    # rebound, so the unsorted times are freed before the labels are gathered
    times = times[order]
    sources = None
    if all(s.sources is not None for s in samples):
        labels = [x for s in samples for x in s.sources]  # type: ignore[union-attr]
        sources = _reordered(labels, order)
    return BidSample(times=times, T=T, sources=sources)
