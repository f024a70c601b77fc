"""A reference kernel that tells how fast the machine runs right now.

The benchmark's machine is a share of a host whose speed swings by up to 2x
for seconds to minutes at a time, and the swings show in CPU time as much as
in wall time.  So every timing the benchmark gates is taken beside samples
of this fixed kernel and scaled by NOMINAL_S / (the kernel's time around
it): a reference second is the time the same work would take while the
kernel runs in NOMINAL_S.  The kernel mixes the two kinds of work barista
does, pure-Python float parsing and formatting (CSV rows, report lines) and
numpy passes over an array (sort, exp, cumulative sum, search), and it never
calls barista, so a change to barista cannot move it.
"""
from __future__ import annotations

from statistics import fmean
from time import perf_counter

import numpy as np

# a sample's typical time on an idle core of the 2-core machine the
# benchmark was written on; it only sets the scale of reference seconds
NOMINAL_S = 0.010

_X = np.random.default_rng(20240601).random(80_000)
_ROWS = [f"a{i % 997:05d},{x!r}" for i, x in enumerate(_X[:5_000].tolist())]


def _kernel() -> float:
    total = 0.0
    for row in _ROWS:
        total += float(row.rsplit(",", 1)[1])
    text = "\n".join(f"{total * i:.17g}" for i in range(2_000))
    y = np.sort(_X)
    z = np.cumsum(np.exp(-y))
    return total + len(text) + float(np.searchsorted(z, z[::5]).sum())


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def scale(seconds: float, samples: list[float]) -> float:
    """`seconds` of work done among `samples`, in reference seconds."""
    return seconds * NOMINAL_S / fmean(samples)
