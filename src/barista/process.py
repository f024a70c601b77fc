"""Three-stage power-law arrival process: parameters and closed-form evaluation.

The process is a nonhomogeneous Poisson process on [0, T] whose intensity is a
power law in the remaining time T - s, with different exponents in an early,
a middle and a late stage and continuous joins at the changepoints d1 and
T - d2:

    lambda(s) = c * (1 - d1/T)^(alpha2 - alpha1) * (1 - s/T)^(alpha1 - 1)   on [0, d1)
    lambda(s) = c * (1 - s/T)^(alpha2 - 1)                                  on [d1, T - d2)
    lambda(s) = c * (d2/T)^(alpha2 - alpha3) * (1 - s/T)^(alpha3 - 1)       on [T - d2, T]

Everything downstream (mean count, CDF, density, quantiles) has a closed form,
implemented here.  The normalized event-time density is f(s) = C * b(s) where
b is the bracketed power term of the intensity and C = c / m(T) depends only on
the shape parameters, not on c.

All evaluation functions accept scalars or numpy arrays and return matching
shapes.  Parameter containers are frozen dataclasses validated at construction,
so an instance that exists is usable.  The nested one-, two- and three-stage
families are one class each, a subclass of Family whose body describes the
family once; the three-stage family is the full parameter vector itself.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Sequence

import numpy as np

__all__ = [
    "BaristaParams",
    "OneStage",
    "TwoStage",
    "ThreeStage",
    "ModelFamily",
    "Family",
    "FAMILIES",
    "get_family",
    "normalization_constant",
    "intensity",
    "mean_count",
    "cdf",
    "pdf",
    "inverse_cdf",
    "restrict",
    "superpose",
]

# Tolerance for declaring two shape-parameter sets equal in superpose().
_SHAPE_MATCH_RTOL = 1e-9

# the fields that may be 0, for an empty outer stage
_CHANGEPOINTS = ("d1", "d2")


class Family:
    """One nested family, described by class attributes of its subclass.

    tag names the family; free_names are its free parameters (genes) in
    order; gene_map names the gene that fills each slot of the full vector
    (alpha1, alpha2, alpha3, d1, d2), the index len(free_names) standing for
    a 0; default_bounds(T) is its GA box on horizon T; and embed(smaller),
    set on all but the smallest family, gives the genes that reproduce a fit
    of the next-smaller family exactly.  A subclass is a frozen dataclass of
    the free parameters, c and T, checked at construction.
    """

    tag: ClassVar[str]
    free_names: ClassVar[tuple[str, ...]]
    gene_map: ClassVar[np.ndarray]
    default_bounds: ClassVar[Callable[[float], tuple[tuple[float, float], ...]]]
    embed: ClassVar[Callable[[Family], tuple[float, ...]]]

    def __post_init__(self) -> None:
        # each field is checked under its own name, exponents, c and T
        # before the changepoints, and then the stage order of the full vector
        values = {**self.free_values(), "c": self.c, "T": self.T}
        for name, v in values.items():
            if name not in _CHANGEPOINTS and not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name in _CHANGEPOINTS:
            v = values.get(name, 0.0)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        p = self.as_barista()
        if not p.d1 < p.T - p.d2:
            raise ValueError(
                f"stages must satisfy d1 < T - d2, got d1={p.d1}, T - d2={p.T - p.d2}"
            )

    @classmethod
    def vectors(cls, genes) -> np.ndarray:
        """(k, 5) rows of (alpha1, alpha2, alpha3, d1, d2) for a (k, m) gene block."""
        block = np.asarray(genes, dtype=float)
        padded = np.zeros((block.shape[0], block.shape[1] + 1))
        padded[:, :-1] = block
        return padded[:, cls.gene_map]

    @classmethod
    def build(cls, genes: Sequence[float], c: float, T: float) -> Family:
        """The family instance with these genes, scale c and horizon T."""
        return cls(*genes, c, T)

    def free_values(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.free_names}

    def as_barista(self) -> BaristaParams:
        genes = tuple(self.free_values().values())
        return BaristaParams(*self.vectors([genes])[0].tolist(), self.c, self.T)


@dataclass(frozen=True)
class BaristaParams(Family):
    """Full parameter vector of the three-stage process, all stages free.

    Attributes:
        alpha1: early-stage exponent (> 0).
        alpha2: mid-stage exponent (> 0).
        alpha3: late-stage exponent (> 0).
        d1: length of the early stage, measured from 0 (>= 0).
        d2: length of the late stage, measured back from T (>= 0).
        c: intensity scale (> 0).
        T: horizon (> 0).  The stages must be ordered: d1 < T - d2 <= T.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    d1: float
    d2: float
    c: float
    T: float

    tag = "three-stage"
    free_names = ("alpha1", "alpha2", "alpha3", "d1", "d2")
    gene_map = np.array([0, 1, 2, 3, 4])

    @staticmethod
    def default_bounds(T: float) -> tuple[tuple[float, float], ...]:
        return ((1.0, 15.0), (0.1, 1.0), (0.5, 15.0), (T / 7.0, 5.0 * T / 7.0), (0.0, T / 700.0))

    @staticmethod
    def embed(two: TwoStage) -> tuple[float, ...]:
        # d1 = 0 empties the early stage, so alpha1 is then arbitrary and
        # the likelihood sums are the two-stage family's own
        return (two.alpha2, two.alpha2, two.alpha3, 0.0, two.d2)

    def as_barista(self) -> BaristaParams:
        return self

    def with_c(self, c: float) -> BaristaParams:
        """Same shape with a different intensity scale."""
        return replace(self, c=c)


@dataclass(frozen=True)
class OneStage(Family):
    """Single power-law stage: lambda(s) = c (1 - s/T)^(alpha - 1) on [0, T]."""

    alpha: float
    c: float
    T: float

    tag = "one-stage"
    free_names = ("alpha",)
    gene_map = np.array([0, 0, 0, 1, 1])

    @staticmethod
    def default_bounds(T: float) -> tuple[tuple[float, float], ...]:
        return ((0.1, 15.0),)


@dataclass(frozen=True)
class TwoStage(Family):
    """Mid and late stage only (no early stage): d1 = 0, alpha1 = alpha2."""

    alpha2: float
    alpha3: float
    d2: float
    c: float
    T: float

    tag = "two-stage"
    free_names = ("alpha2", "alpha3", "d2")
    gene_map = np.array([0, 0, 1, 3, 2])

    @staticmethod
    def default_bounds(T: float) -> tuple[tuple[float, float], ...]:
        return ((0.1, 1.0), (0.5, 15.0), (0.0, T / 700.0))

    @staticmethod
    def embed(one: OneStage) -> tuple[float, ...]:
        # d2 = 0 empties the late stage, so alpha3 is then arbitrary
        return (one.alpha, one.alpha, 0.0)


ThreeStage = BaristaParams
ModelFamily = OneStage | TwoStage | ThreeStage

# The one-stage and two-stage processes are the three-stage process with
# d1 = 0 and/or d2 = 0 and the exponent of each empty stage tied to alpha2;
# this nesting is what makes the likelihood-ratio selection valid.  Entries
# run from the smallest family to the richest.
FAMILIES: dict[str, type[Family]] = {cls.tag: cls for cls in (OneStage, TwoStage, ThreeStage)}


def get_family(tag: str) -> type[Family]:
    """The family class for tag; the one place an unknown tag is reported."""
    try:
        return FAMILIES[tag]
    except KeyError:
        raise ValueError(f"unknown family tag {tag!r}; expected one of {tuple(FAMILIES)}") from None


# ---------------------------------------------------------------------------
# internal pieces
# ---------------------------------------------------------------------------

def _ratios(p: BaristaParams) -> tuple[float, float]:
    """(q1, q2) = (1 - d1/T, d2/T); q1 > 0 always, q2 may be 0."""
    return 1.0 - p.d1 / p.T, p.d2 / p.T


def _denominator(a1, a2, a3, q1, q2):
    """B with m(T) = T c B / (a1 a2 a3), elementwise; positive for valid shapes."""
    return a2 * a3 * q1 ** (a2 - a1) + a3 * (a1 - a2) * q1 ** a2 + a1 * (a2 - a3) * q2 ** a2


def _runs(x: np.ndarray, first: float, last: float | None, side: str) -> tuple[int, int]:
    """(i1, i2) splitting nondecreasing x into the branch runs [0, i1),
    [i1, i2) and [i2, n).

    On side "left" the first run holds x < first and the last run x >= last;
    on side "right", x <= first and x > last.  last None leaves the last run
    empty.  Should the two bounds cross, the last run takes their overlap.
    """
    i2 = x.size if last is None else int(x.searchsorted(last, side=side))
    return min(int(x.searchsorted(first, side=side)), i2), i2


def _time_runs(p: BaristaParams, s: np.ndarray) -> tuple[int, int]:
    # Half-open branches [0, d1), [d1, T-d2), [T-d2, T].  With d2 = 0 the last
    # stage is empty and s = T is evaluated on the middle branch, whose closed
    # form remains the correct limit there.
    return _runs(s, p.d1, p.T - p.d2 if p.d2 > 0 else None, "left")


def _remaining(p: BaristaParams, src: np.ndarray, dst: np.ndarray) -> None:
    """dst <- 1 - src/T, the remaining time every branch starts from."""
    np.divide(src, p.T, out=dst)
    np.subtract(1.0, dst, out=dst)


def _power_runs(p: BaristaParams, scale: float, src: np.ndarray, dst: np.ndarray) -> None:
    """dst <- scale * b(src), b the power term with lambda = c*b and pdf = C*b."""
    q1, q2 = _ratios(p)
    i1, i2 = _time_runs(p, src)
    _remaining(p, src, dst)
    x1, x2, x3 = dst[:i1], dst[i1:i2], dst[i2:]
    with np.errstate(divide="ignore"):
        # 0^0 -> 1 and 0^negative -> inf are the intended limits at s = T.
        x1 **= p.alpha1 - 1.0
        x1 *= q1 ** (p.alpha2 - p.alpha1)
        x2 **= p.alpha2 - 1.0
        if x3.size:
            # the run is nonempty only when d2 > 0, so q2 > 0 here
            x3 **= p.alpha3 - 1.0
            x3 *= q2 ** (p.alpha2 - p.alpha3)
    dst *= scale


def _cumulative_runs(p: BaristaParams, scale: float, top: float | None,
                     src: np.ndarray, dst: np.ndarray) -> None:
    """dst <- scale/T times the integral of b over [0, src].

    scale = T c gives m(s) and scale = T C gives F(s).  The last branch is
    written as top, the value at T (None: the sum of the three stages'
    masses), minus its tail, via r = (1 - s/T)/q2 in [0, 1] to stay finite
    for tiny q2.
    """
    q1, q2 = _ratios(p)
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    K1 = (scale / a1) * q1 ** (a2 - a1)
    at_d1 = K1 * (1.0 - q1 ** a1)
    K3 = (scale / a3) * q2 ** a2
    if top is None:
        top = at_d1 + (scale / a2) * (q1 ** a2 - q2 ** a2) + K3

    i1, i2 = _time_runs(p, src)
    _remaining(p, src, dst)
    x = dst[:i1]
    x **= a1
    np.subtract(1.0, x, out=x)
    x *= K1
    x = dst[i1:i2]
    x **= a2
    np.subtract(q1 ** a2, x, out=x)
    x *= scale / a2
    x += at_d1
    x = dst[i2:]
    x /= q2
    x **= a3
    x *= K3
    np.subtract(top, x, out=x)


def _cdf_runs(p: BaristaParams, src: np.ndarray, dst: np.ndarray) -> None:
    """dst <- F(src), clipped to [0, 1]."""
    at_T = int(src.searchsorted(p.T))
    _cumulative_runs(p, normalization_constant(p) * p.T, 1.0, src, dst)
    # F(T) = 1 exactly; the branch algebra can drift by an ulp
    dst[at_T:] = 1.0
    np.clip(dst, 0.0, 1.0, out=dst)


def _times_from_inner(x: np.ndarray, a: float, T: float) -> None:
    """x <- T (1 - max(x, 0)^(1/a)) in place: the tail every branch shares."""
    np.maximum(x, 0.0, out=x)
    x **= 1.0 / a
    np.subtract(1.0, x, out=x)
    x *= T


def _quantile_runs(p: BaristaParams, src: np.ndarray, dst: np.ndarray) -> None:
    """dst <- F^{-1}(src), clipped to [0, T].

    The branch is chosen by comparing u with F(d1) and F(T - d2); each branch
    of F is a shifted power and inverts in closed form.
    """
    C = normalization_constant(p)
    q1, q2 = _ratios(p)
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    CT = C * p.T
    F1 = cdf(p, p.d1) if p.d1 > 0 else 0.0
    F2 = cdf(p, p.T - p.d2) if p.d2 > 0 else 1.0

    i1, i2 = _runs(src, F1, F2, "right")
    x = np.multiply(src[:i1], a1 / CT, out=dst[:i1])
    x *= q1 ** (a1 - a2)
    np.subtract(1.0, x, out=x)
    _times_from_inner(x, a1, p.T)
    x = np.subtract(src[i1:i2], F1, out=dst[i1:i2])
    x *= a2 / CT
    np.subtract(q1 ** a2, x, out=x)
    _times_from_inner(x, a2, p.T)
    if i2 < src.size:
        # u > F2 happens only when d2 > 0, so q2 > 0 here
        x = np.subtract(1.0, src[i2:], out=dst[i2:])
        x *= a3 / CT
        x *= q2 ** (a3 - a2)
        _times_from_inner(x, a3, p.T)
    np.clip(dst, 0.0, p.T, out=dst)


def _evaluate(x, lo: float, hi: float, what: str,
              kernel: Callable[[np.ndarray, np.ndarray], None]):
    """kernel over x, whose values must lie in [lo, hi]: a float for a
    scalar x, else a fresh array of x's shape.

    kernel(src, dst) writes its function of nondecreasing src into dst and
    may be given dst as src.  Nondecreasing x is passed as it is, so its
    range is checked at its two ends, and the caller's array is never
    written.  Any other order goes through one stable argsort: the kernel
    overwrites the sorted copy, which is then scattered back.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    # a nan fails every comparison, so it makes a longer array unordered
    ordered = bool(np.all(flat[1:] >= flat[:-1]))
    if ordered:
        bad = flat.size and not (lo <= flat[0] and flat[-1] <= hi)
    else:
        bad = np.any(flat < lo) or np.any(flat > hi) or not np.all(np.isfinite(flat))
    if bad:
        raise ValueError(f"{what} must lie in [{lo}, {hi}]")
    if ordered:
        out = np.empty(flat.shape)
        kernel(flat, out)
    else:
        order = np.argsort(flat, kind="stable")
        ranked = flat[order]
        kernel(ranked, ranked)
        out = np.empty(flat.shape)
        out[order] = ranked
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------

def normalization_constant(p: BaristaParams) -> float:
    """C = c / m(T), written so that c cancels.

    Depends only on (alpha1, alpha2, alpha3, d1, d2, T); the event-time density
    is f(s) = C * b(s) with b the intensity power term.
    """
    return (p.alpha1 * p.alpha2 * p.alpha3 / p.T) / _denominator(
        p.alpha1, p.alpha2, p.alpha3, *_ratios(p))


def intensity(p: BaristaParams, s):
    """Arrival intensity lambda(s) for s in [0, T].

    May return inf at s = T when the final exponent is below 1; the
    singularity is integrable.
    """
    return _evaluate(s, 0.0, p.T, "s", functools.partial(_power_runs, p, p.c))


def mean_count(p: BaristaParams, s):
    """Expected number of events in [0, s]: m(s) = integral of the intensity."""
    return _evaluate(s, 0.0, p.T, "s", functools.partial(_cumulative_runs, p, p.T * p.c, None))


def cdf(p: BaristaParams, s):
    """Distribution function of a single event time, F(s) = m(s) / m(T).

    Sorted s is evaluated as it is; any other order costs one argsort.
    """
    return _evaluate(s, 0.0, p.T, "s", functools.partial(_cdf_runs, p))


def pdf(p: BaristaParams, s):
    """Density of a single event time: f(s) = C * b(s) = lambda(s) / m(T)."""
    return _evaluate(s, 0.0, p.T, "s",
                     functools.partial(_power_runs, p, normalization_constant(p)))


def inverse_cdf(p: BaristaParams, u):
    """Quantile function F^{-1}(u) for u in [0, 1], by branch-wise inversion.

    Each branch of F is a shifted power and inverts in closed form, applied
    in place to the run of sorted u it covers.  Sorted u is evaluated as it
    is; any other order costs one argsort, and the values do not depend on
    the order.
    """
    return _evaluate(u, 0.0, 1.0, "u", functools.partial(_quantile_runs, p))


def restrict(p: BaristaParams, beta: float) -> BaristaParams:
    """Parameters of the process observed from time beta*T onward.

    Restarting the clock at beta*T leaves a process of the same family on the
    shorter horizon T' = (1 - beta)T with

        c' = c (1 - beta)^(alpha2 - 1),  d1' = max(d1 - beta T, 0),
        d2' = min(d2, T'),

    and the same exponents; intensity'(s) = intensity(beta*T + s) exactly.
    Requires beta*T < T - d2 (the remaining window must start before the last
    stage), otherwise the mapped vector degenerates to d1' = T' - d2'.
    """
    if not (0.0 <= beta < 1.0):
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if beta * p.T >= p.T - p.d2:
        raise ValueError(
            "restriction must start before the final stage: "
            f"beta*T={beta * p.T} >= T - d2={p.T - p.d2}"
        )
    T_new = (1.0 - beta) * p.T
    return BaristaParams(
        alpha1=p.alpha1,
        alpha2=p.alpha2,
        alpha3=p.alpha3,
        d1=max(p.d1 - beta * p.T, 0.0),
        d2=min(p.d2, T_new),
        c=p.c * (1.0 - beta) ** (p.alpha2 - 1.0),
        T=T_new,
    )


def superpose(components: list[BaristaParams] | tuple[BaristaParams, ...]) -> BaristaParams:
    """Pool independent processes with a common shape: scales add.

    All components must share (alpha1, alpha2, alpha3, d1, d2, T) to relative
    tolerance 1e-9; the result keeps the first component's shape and sums c.
    """
    if not components:
        raise ValueError("superpose needs at least one component")
    ref = components[0]
    fields = ("alpha1", "alpha2", "alpha3", "d1", "d2", "T")
    for i, q in enumerate(components[1:], start=1):
        for name in fields:
            a, b = getattr(ref, name), getattr(q, name)
            if not math.isclose(a, b, rel_tol=_SHAPE_MATCH_RTOL, abs_tol=1e-12 * ref.T):
                raise ValueError(
                    f"component {i} differs from component 0 in {name}: {b} vs {a}"
                )
    return ref.with_c(sum(q.c for q in components))
