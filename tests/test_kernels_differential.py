"""The O(n) kernels of the sample -> fit -> KS loop against frozen references.

cdf, mean_count, pdf, intensity and inverse_cdf apply each branch's closed
form in place to the run of sorted input it covers (other orders pass
through one argsort), the samplers invert their sorted uniforms in place,
ks_one_sample takes its maxima over blocks, the likelihood prefix is written
straight into its array, the conditional log-likelihood takes equal-length
columns as given and skips sanitizing infeasible rows, and the bootstrap
gathers its draw at sorted indices.  The references below are frozen copies
of the earlier code, which built a fresh temporary for every operation,
selected branches by masks and inverted the uniforms as drawn.  The float
operations and their order are unchanged, so every result must be
bit-identical.  TestPeakMemory bounds what the faster kernels allocate,
and what reading and writing CSVs and pooling samples allocate.
"""
from dataclasses import replace

import numpy as np
import pytest

from barista import (
    BaristaParams,
    BidSample,
    FitResult,
    IngestError,
    IngestSpec,
    OneStage,
    bootstrap_se,
    cdf,
    default_qc_config,
    ecdf,
    ingest,
    ingest_summary,
    intensity,
    inverse_cdf,
    ks_one_sample,
    mean_count,
    mle_nhpp1,
    pdf,
    pool,
    qc_fit,
    qq_points,
    sample_fixed_n,
    sample_poisson_count,
    write_qq,
    write_sample,
)
from barista.cli import _fit_once, build_parser
from barista.diagnostics import kolmogorov_sf
from barista.estimate import _CondLoglik
from barista.process import normalization_constant
from barista.simulate import _iid_times
from conftest import P_STAR, traced_peak

# exponents where numpy's power takes its square, sqrt and reciprocal paths
SPECIAL_ALPHAS = (0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# frozen references
# ---------------------------------------------------------------------------

def ref_as_array(s, lo, hi, what):
    arr = np.asarray(s, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size and (np.any(arr < lo) or np.any(arr > hi) or not np.all(np.isfinite(arr))):
        raise ValueError(f"{what} must lie in [{lo}, {hi}]")
    return arr, scalar


def ref_ret(out, scalar):
    return float(out[0]) if scalar else out


def ref_stage_masks(p, s):
    if p.d2 > 0:
        m3 = s >= p.T - p.d2
    else:
        m3 = np.zeros(s.shape, dtype=bool)
    m1 = s < p.d1
    m2 = ~(m1 | m3)
    return m1, m2, m3


def ref_cdf(p, s):
    arr, scalar = ref_as_array(s, 0.0, p.T, "s")
    C = normalization_constant(p)
    q1, q2 = 1.0 - p.d1 / p.T, p.d2 / p.T
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    CT = C * p.T
    F_at_d1 = (CT / a1) * q1 ** (a2 - a1) * (1.0 - q1 ** a1)

    rem = 1.0 - arr / p.T
    m1, m2, m3 = ref_stage_masks(p, arr)
    out = np.empty_like(arr, dtype=float)
    out[m1] = (CT / a1) * q1 ** (a2 - a1) * (1.0 - rem[m1] ** a1)
    out[m2] = F_at_d1 + (CT / a2) * (q1 ** a2 - rem[m2] ** a2)
    if np.any(m3):
        r = rem[m3] / q2
        out[m3] = 1.0 - (CT / a3) * q2 ** a2 * r ** a3
    out[arr == p.T] = 1.0
    return ref_ret(np.clip(out, 0.0, 1.0), scalar)


def ref_mean_count(p, s):
    arr, scalar = ref_as_array(s, 0.0, p.T, "s")
    scale = p.T * p.c
    q1, q2 = 1.0 - p.d1 / p.T, p.d2 / p.T
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    K1 = (scale / a1) * q1 ** (a2 - a1)
    at_d1 = K1 * (1.0 - q1 ** a1)
    K3 = (scale / a3) * q2 ** a2
    top = at_d1 + (scale / a2) * (q1 ** a2 - q2 ** a2) + K3

    rem = 1.0 - arr / p.T
    m1, m2, m3 = ref_stage_masks(p, arr)
    out = np.empty_like(arr, dtype=float)
    out[m1] = K1 * (1.0 - rem[m1] ** a1)
    out[m2] = (q1 ** a2 - rem[m2] ** a2) * (scale / a2) + at_d1
    if np.any(m3):
        out[m3] = top - K3 * (rem[m3] / q2) ** a3
    return ref_ret(out, scalar)


def ref_branch_power(p, arr):
    q1, q2 = 1.0 - p.d1 / p.T, p.d2 / p.T
    rem = 1.0 - arr / p.T
    m1, m2, m3 = ref_stage_masks(p, arr)
    out = np.empty_like(arr, dtype=float)
    with np.errstate(divide="ignore"):
        out[m1] = q1 ** (p.alpha2 - p.alpha1) * rem[m1] ** (p.alpha1 - 1.0)
        out[m2] = rem[m2] ** (p.alpha2 - 1.0)
        if m3.any():
            out[m3] = q2 ** (p.alpha2 - p.alpha3) * rem[m3] ** (p.alpha3 - 1.0)
    return out


def ref_intensity(p, s):
    arr, scalar = ref_as_array(s, 0.0, p.T, "s")
    return ref_ret(p.c * ref_branch_power(p, arr), scalar)


def ref_pdf(p, s):
    arr, scalar = ref_as_array(s, 0.0, p.T, "s")
    return ref_ret(normalization_constant(p) * ref_branch_power(p, arr), scalar)


def ref_inverse_cdf(p, u):
    arr, scalar = ref_as_array(u, 0.0, 1.0, "u")
    C = normalization_constant(p)
    q1, q2 = 1.0 - p.d1 / p.T, p.d2 / p.T
    a1, a2, a3 = p.alpha1, p.alpha2, p.alpha3
    CT = C * p.T
    F1 = ref_cdf(p, p.d1) if p.d1 > 0 else 0.0
    F2 = ref_cdf(p, p.T - p.d2) if p.d2 > 0 else 1.0

    out = np.empty_like(arr, dtype=float)
    m1 = arr <= F1
    m3 = arr > F2
    m2 = ~(m1 | m3)
    if np.any(m1):
        inner = 1.0 - arr[m1] * (a1 / CT) * q1 ** (a1 - a2)
        out[m1] = p.T * (1.0 - np.maximum(inner, 0.0) ** (1.0 / a1))
    if np.any(m2):
        inner = q1 ** a2 - (a2 / CT) * (arr[m2] - F1)
        out[m2] = p.T * (1.0 - np.maximum(inner, 0.0) ** (1.0 / a2))
    if np.any(m3):
        inner = (1.0 - arr[m3]) * (a3 / CT) * q2 ** (a3 - a2)
        out[m3] = p.T * (1.0 - np.maximum(inner, 0.0) ** (1.0 / a3))
    return ref_ret(np.clip(out, 0.0, p.T), scalar)


def ref_sample_fixed_n(p, n, seed):
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    times = np.sort(ref_inverse_cdf(p, u)) if n else np.empty(0)
    return np.atleast_1d(times)


def ref_sample_poisson_count(p, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(mean_count(p, p.T)))
    u = rng.random(n)
    times = np.sort(ref_inverse_cdf(p, u)) if n else np.empty(0)
    return np.atleast_1d(times)


def ref_ks_one_sample(sample, p):
    n = sample.n
    f = ref_cdf(p, sample.times)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = float(max(d_plus, d_minus, 0.0))
    return d, kolmogorov_sf(np.sqrt(n) * d)


def ref_prefix(times, T):
    logrem = np.log1p(-times / T)
    return np.concatenate([[0.0], np.cumsum(logrem)])


def ref_values(cache, a1, a2, a3, d1, d2):
    """_CondLoglik.values as it was: broadcast, sanitize, then evaluate.

    Its floating-point warnings are silenced throughout, which changes no value.
    """
    a1, a2, a3, d1, d2 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (a1, a2, a3, d1, d2))
    )
    T, n = cache.T, cache.n
    valid = (a1 > 0) & (a2 > 0) & (a3 > 0) & (d1 >= 0) & (d2 >= 0) & (d1 < T - d2)
    d1s = np.where(valid, d1, 0.0)
    d2s = np.where(valid, d2, 0.0)
    q1 = 1.0 - d1s / T
    q2 = d2s / T
    with np.errstate(all="ignore"):
        B = (
            a2 * a3 * q1 ** (a2 - a1)
            + a3 * (a1 - a2) * q1 ** a2
            + a1 * (a2 - a3) * q2 ** a2
        )
        logC = np.log(a1 * a2 * a3 / T) - np.log(B)
        i1 = np.searchsorted(cache.times, d1s, side="right")
        i2 = np.searchsorted(cache.times, T - d2s, side="right")
        n1 = i1.astype(float)
        n3 = float(n) - i2.astype(float)
        S1 = cache.prefix[i1]
        S2 = cache.prefix[i2] - cache.prefix[i1]
        S3 = cache.prefix[n] - cache.prefix[i2]
        logq2 = np.where(q2 > 0, np.log(np.where(q2 > 0, q2, 1.0)), 0.0)
        ll = (
            n * logC
            + n1 * (a2 - a1) * np.log(q1)
            + n3 * (a2 - a3) * logq2
            + (a1 - 1.0) * S1
            + (a2 - 1.0) * S2
            + (a3 - 1.0) * S3
        )
    return np.where(valid & np.isfinite(ll), ll, -np.inf)


def ref_resamples(sample, n_replicates, seed):
    out = []
    for child in np.random.SeedSequence(seed).spawn(n_replicates):
        rng = np.random.default_rng(child)
        idx = rng.integers(0, sample.n, size=sample.n)
        out.append(np.sort(sample.times[idx]))
    return out


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def random_vectors(count, seed):
    """Parameter vectors from all three families, with degenerate changepoints."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        T = float(rng.choice([1.0, 7.0, float(rng.uniform(0.3, 20.0))]))
        a1, a2, a3 = (float(v) for v in rng.uniform(0.1, 8.0, size=3))
        if rng.random() < 0.3:
            a1, a2, a3 = (float(rng.choice(SPECIAL_ALPHAS)) for _ in range(3))
        family = k % 3
        if family == 0:
            out.append(BaristaParams(a1, a1, a1, 0.0, 0.0, 1.0, T))
            continue
        d2 = 0.0 if rng.random() < 0.25 else float(rng.choice(
            [rng.uniform(0.0, 0.4), 1e-4, 1e-9])) * T
        if family == 1:
            out.append(BaristaParams(a2, a2, a3, 0.0, d2, 1.0, T))
            continue
        d1 = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 0.55)) * T
        out.append(BaristaParams(a1, a2, a3, d1, d2, 1.0, T))
    return out


VECTORS = random_vectors(300, seed=11) + [P_STAR]


def times_for(p, rng, size):
    """Unsorted times in [0, T] with the endpoints and changepoints mixed in."""
    marks = [0.0, p.T, p.d1, p.T - p.d2, np.nextafter(p.T, 0.0),
             np.nextafter(p.d1, 0.0), np.nextafter(p.d1, p.T), np.nextafter(p.T - p.d2, 0.0)]
    s = np.concatenate([rng.uniform(0.0, p.T, size), p.T * (1.0 - rng.random(size) ** 8), marks])
    return np.clip(s, 0.0, p.T)[rng.permutation(s.size)]


def uniforms_for(p, rng, size):
    """Unsorted u in [0, 1] with 0, 1 and the branch boundaries mixed in."""
    F1 = ref_cdf(p, p.d1)
    F2 = ref_cdf(p, p.T - p.d2)
    marks = [0.0, 1.0, F1, F2, np.nextafter(F1, 1.0), np.nextafter(F2, 1.0),
             np.nextafter(F2, 0.0), np.nextafter(1.0, 0.0)]
    u = np.concatenate([rng.random(size), 1.0 - rng.random(size) ** 12, marks])
    return np.clip(u, 0.0, 1.0)[rng.permutation(u.size)]


def assert_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def frozen(arr):
    """A read-only copy, so a write into the caller's array raises."""
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# cdf and inverse_cdf
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chunk", range(4))
def test_cdf_bit_equal(chunk):
    rng = np.random.default_rng(100 + chunk)
    for p in VECTORS[chunk::4]:
        s = times_for(p, rng, int(rng.integers(1, 300)))
        kept = s.copy()
        assert_bits(cdf(p, s), ref_cdf(p, s))
        assert_bits(s, kept)
        assert_bits(cdf(p, frozen(s)), ref_cdf(p, s))
        s_sorted = np.sort(s)
        assert_bits(cdf(p, s_sorted), ref_cdf(p, s_sorted))


@pytest.mark.parametrize("chunk", range(4))
def test_inverse_cdf_bit_equal(chunk):
    rng = np.random.default_rng(200 + chunk)
    for p in VECTORS[chunk::4]:
        u = uniforms_for(p, rng, int(rng.integers(1, 300)))
        kept = u.copy()
        assert_bits(inverse_cdf(p, u), ref_inverse_cdf(p, u))
        assert_bits(u, kept)
        assert_bits(inverse_cdf(p, frozen(u)), ref_inverse_cdf(p, u))
        u_sorted = np.sort(u)
        assert_bits(inverse_cdf(p, u_sorted), ref_inverse_cdf(p, u_sorted))


@pytest.mark.parametrize("p", VECTORS[:12] + [P_STAR], ids=str)
def test_scalars_empty_and_lists(p):
    for s in (0.0, p.T, p.d1, p.T - p.d2, 0.37 * p.T, 1):
        if s <= p.T:
            got, want = cdf(p, s), ref_cdf(p, s)
            assert isinstance(got, float) and got.hex() == want.hex()
    for u in (0.0, 1.0, 0.5, 1, np.float64(0.25)):
        got, want = inverse_cdf(p, u), ref_inverse_cdf(p, u)
        assert isinstance(got, float) and got.hex() == want.hex()
    assert_bits(cdf(p, np.empty(0)), ref_cdf(p, np.empty(0)))
    assert_bits(inverse_cdf(p, np.empty(0)), ref_inverse_cdf(p, np.empty(0)))
    assert_bits(cdf(p, [0.0, p.T / 2]), ref_cdf(p, [0.0, p.T / 2]))
    assert_bits(inverse_cdf(p, [0.9, 0.1]), ref_inverse_cdf(p, [0.9, 0.1]))
    # a strided view of a larger array, left as it was
    base = np.linspace(0.0, p.T, 41)
    kept = base.copy()
    assert_bits(cdf(p, base[::3]), ref_cdf(p, kept[::3]))
    assert_bits(inverse_cdf(p, base[::3] / p.T), ref_inverse_cdf(p, kept[::3] / p.T))
    assert_bits(base, kept)


TIME_KERNELS = {"cdf": (cdf, ref_cdf), "mean_count": (mean_count, ref_mean_count),
                "pdf": (pdf, ref_pdf), "intensity": (intensity, ref_intensity)}

# an empty early stage, an empty late stage, and both
EDGE_VECTORS = [replace(P_STAR, d1=0.0), replace(P_STAR, d2=0.0), replace(P_STAR, d1=0.0, d2=0.0),
                replace(P_STAR, alpha3=0.5, d1=0.0), replace(P_STAR, alpha1=0.5, alpha3=2.0, d2=0.0)]
EDGE_VECTORS += [p for p in VECTORS if p.d1 == 0.0 or p.d2 == 0.0][:24]


def arrangements(x, rng):
    """x sorted, reversed, shuffled, and with every value repeated, sorted
    and shuffled; then all one value, and a 2-d block."""
    x = np.sort(x)
    tied = np.repeat(x, 3)
    yield x
    yield x[::-1].copy()
    yield x[rng.permutation(x.size)]
    yield tied
    yield tied[rng.permutation(tied.size)]
    yield np.full(7, x[x.size // 2])
    yield x[: x.size // 2 * 2].reshape(2, -1)[:, ::-1]


def check_in_every_order(fn, ref, p, x, rng):
    for arr in arrangements(x, rng):
        kept = arr.copy()
        want = ref(p, arr)
        assert_bits(fn(p, arr), want)
        assert_bits(arr, kept)
        # a write into a read-only caller array raises
        assert_bits(fn(p, frozen(arr)), want)


@pytest.mark.parametrize("name", TIME_KERNELS)
def test_time_kernels_bit_equal_in_every_order(name):
    fn, ref = TIME_KERNELS[name]
    rng = np.random.default_rng(300)
    for p in EDGE_VECTORS + VECTORS[::6]:
        marks = [0.0, p.d1, p.T - p.d2, p.T]
        check_in_every_order(fn, ref, p, np.concatenate([times_for(p, rng, 40), marks]), rng)
        for s in marks:
            got, want = fn(p, s), ref(p, s)
            assert isinstance(got, float) and got.hex() == want.hex()


def test_inverse_cdf_bit_equal_in_every_order():
    rng = np.random.default_rng(301)
    for p in EDGE_VECTORS + VECTORS[::6]:
        marks = [0.0, ref_cdf(p, p.d1), ref_cdf(p, p.T - p.d2), 1.0]
        check_in_every_order(inverse_cdf, ref_inverse_cdf, p,
                             np.concatenate([uniforms_for(p, rng, 40), marks]), rng)
        for u in marks:
            got, want = inverse_cdf(p, u), ref_inverse_cdf(p, u)
            assert isinstance(got, float) and got.hex() == want.hex()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, 1.5])
def test_out_of_range_input_rejected_in_any_order(bad):
    # in sorted input only the ends are checked, and a nan leaves it unsorted
    for fn, hi, what in ((cdf, P_STAR.T, "s"), (inverse_cdf, 1.0, "u")):
        x = np.linspace(0.0, hi, 5)
        for arr in ([bad * hi], np.append(x, bad * hi), np.insert(x, 0, bad * hi),
                    np.insert(x, 2, bad * hi)):
            with pytest.raises(ValueError, match=f"{what} must lie in"):
                fn(P_STAR, arr)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 17, 5000])
def test_sample_fixed_n_bit_equal(n):
    for k, p in enumerate(VECTORS[:60] + [P_STAR]):
        got = sample_fixed_n(p, n, seed=k)
        assert_bits(got.times, ref_sample_fixed_n(p, n, k))
        assert got.T == p.T


def test_sample_fixed_n_bit_equal_at_100k():
    assert_bits(sample_fixed_n(P_STAR, 100_000, seed=421).times,
                ref_sample_fixed_n(P_STAR, 100_000, 421))


class _Draws:
    """Stands in for a generator whose next uniforms are given."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def test_sampler_resorts_where_branches_meet():
    # uniforms a few ulps around F(d1) and F(T - d2): rounding in the two
    # branch formulas can put a later uniform's time before an earlier one's.
    # Boundaries near 1, where a time can round up to T, are the next test's.
    resorted = 0
    for p in random_vectors(600, seed=5):
        u = []
        for F in (ref_cdf(p, p.d1), ref_cdf(p, p.T - p.d2)):
            x = np.nextafter(F, 0.0)
            for _ in range(8 if F < 0.999 else 0):
                u.append(x)
                x = np.nextafter(x, 1.0)
        u = np.clip(np.array(u), 0.0, 1.0)
        u = u[np.random.default_rng(0).permutation(u.size)]
        unsorted = ref_inverse_cdf(p, np.sort(u))
        resorted += bool(np.any(unsorted[1:] < unsorted[:-1]))
        got = _iid_times(p, _Draws(u), u.size)
        assert_bits(got.times, np.sort(ref_inverse_cdf(p, u)))
    assert resorted > 0


def test_sampler_moves_times_at_T_below_T():
    # uniforms just below 1: for some vectors several map to exactly T, and
    # the sampler moves those, and only those, to the largest float below T
    hit = 0
    for p in VECTORS:
        x, u = 1.0, []
        for _ in range(64):
            x = np.nextafter(x, 0.0)
            u.append(x)
        u = np.array(u + [1.0 - 1e-9, 1.0 - 1e-12, 0.5])
        u = u[np.random.default_rng(1).permutation(u.size)]
        want = np.sort(ref_inverse_cdf(p, u))
        hit += int(np.sum(want == p.T))
        want[want == p.T] = np.nextafter(p.T, 0.0)
        got = _iid_times(p, _Draws(u), u.size)
        assert_bits(got.times, want)
        # inverse_cdf itself still returns T there
        assert_bits(inverse_cdf(p, u), ref_inverse_cdf(p, u))
    assert hit > 0


def test_sample_poisson_count_bit_equal():
    for k, p in enumerate(VECTORS[:60] + [P_STAR]):
        # counts from 0 up to a few thousand
        q = p.with_c(float(np.random.default_rng(k).choice([1e-3, 0.5, 30.0, 400.0])))
        assert_bits(sample_poisson_count(q, seed=k).times, ref_sample_poisson_count(q, k))


# ---------------------------------------------------------------------------
# KS, likelihood prefix, bootstrap resample
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 250, 20_000])
def test_ks_one_sample_bit_equal(n):
    for k, p in enumerate(VECTORS[:20] + [P_STAR]):
        sample = sample_fixed_n(p, n, seed=k)
        kept = sample.times.copy()
        got = ks_one_sample(sample, p)
        d, pv = ref_ks_one_sample(sample, p)
        assert got.d_statistic.hex() == d.hex() and got.p_value.hex() == pv.hex()
        assert got.n_effective == float(n)
        assert_bits(sample.times, kept)
        # against parameters the sample was not drawn from
        other = VECTORS[k + 20]
        other = BaristaParams(other.alpha1, other.alpha2, other.alpha3,
                              other.d1 * p.T / other.T, other.d2 * p.T / other.T, 1.0, p.T)
        got = ks_one_sample(sample, other)
        d, pv = ref_ks_one_sample(sample, other)
        assert got.d_statistic.hex() == d.hex() and got.p_value.hex() == pv.hex()


@pytest.mark.parametrize("n", [0, 1, 2, 1000, 100_000])
def test_likelihood_prefix_bit_equal(n):
    times = sample_fixed_n(P_STAR, n, seed=n).times
    if n:
        times[0] = 0.0
    kept = times.copy()
    cache = _CondLoglik(BidSample(times=frozen(times), T=P_STAR.T))
    assert_bits(cache.prefix, ref_prefix(kept, P_STAR.T))
    assert_bits(times, kept)


# exponents and changepoints off the model, or on its edges
ODD_ALPHAS = (0.0, -0.0, -1.0, np.nan, np.inf, 5e-324, 1e-300, 300.0)


def gene_block(rng, sample, k):
    """(5, k) parameter columns: feasible rows and edge cases mixed.

    Rows embed all three families (alpha1 == alpha2 == alpha3 with d1 = d2 = 0,
    alpha1 == alpha2 with d1 = 0), put changepoints on sample times (ties of
    side="right"), at 0, -0.0 and d1 = T - d2, and break the constraints with
    nonpositive, nan and infinite values.
    """
    T = sample.T
    a = rng.uniform(0.05, 15.0, size=(3, k))
    a[:, rng.random(k) < 0.2] = rng.choice([0.5, 1.0, 2.0], size=3)[:, None]
    d1 = rng.uniform(0.0, T, k) * (rng.random(k) < 0.7)
    d2 = T * rng.uniform(0.0, 0.3, k) ** 3 * (rng.random(k) < 0.7)
    if sample.n:
        hit = rng.random(k) < 0.1
        d1[hit] = rng.choice(sample.times, hit.sum())
        hit = rng.random(k) < 0.1
        d2[hit] = T - rng.choice(sample.times, hit.sum())
    fam = rng.integers(0, 3, k)
    a[1, fam == 0] = a[0, fam == 0]
    a[2, fam == 0] = a[0, fam == 0]
    d1[fam == 0] = 0.0
    d2[fam == 0] = 0.0
    a[0, fam == 1] = a[1, fam == 1]
    d1[fam == 1] = 0.0
    marks = np.array([0.0, -0.0, -1e-12, T, np.nan, np.inf, np.nextafter(0.0, 1.0)])
    for col in (d1, d2):
        odd = rng.random(k) < 0.08
        col[odd] = rng.choice(marks, odd.sum())
    edge = rng.random(k) < 0.05
    d1[edge] = T - d2[edge]
    edge = rng.random(k) < 0.03
    d1[edge] = np.nextafter(T - d2[edge], 0.0)
    for row in a:
        odd = rng.random(k) < 0.03
        row[odd] = rng.choice(ODD_ALPHAS, odd.sum())
    return np.vstack([a, d1, d2])


def _values_samples():
    times = np.sort(np.concatenate([sample_fixed_n(P_STAR, 2000, seed=4).times, [0.0, 0.0]]))
    return [BidSample(times=times, T=P_STAR.T),
            BidSample(times=np.array([0.5]), T=1.0),
            BidSample(times=np.empty(0), T=3.0)]


@pytest.mark.parametrize("which", range(3))
def test_likelihood_values_bit_equal(which):
    sample = _values_samples()[which]
    cache = _CondLoglik(sample)
    rng = np.random.default_rng(40 + which)
    for k in (1, 2, 100, 3000):
        cols = gene_block(rng, sample, k)
        kept = cols.copy()
        want = ref_values(cache, *cols)
        assert_bits(cache.values(*cols), want)
        assert_bits(cols, kept)
        # read-only contiguous columns, and strided columns as the GA passes them
        assert_bits(cache.values(*(frozen(c) for c in cols)), want)
        assert_bits(cache.values(*np.ascontiguousarray(cols.T).T), want)
    assert np.isneginf(want).any() and np.isfinite(want).any()


@pytest.mark.parametrize("which", range(3))
def test_likelihood_kernel_is_values(which):
    # the kernel ga_fit calls on its pool's rows, under its errstate
    sample = _values_samples()[which]
    cache = _CondLoglik(sample)
    T = sample.T
    nan = np.nan
    invalid = np.array([
        (3.0, 0.4, 1.0, 0.8 * T, 0.2 * T),  # d1 == T - d2
        (3.0, 0.4, 1.0, 0.9 * T, 0.2 * T),  # d1 > T - d2
        (0.0, 0.4, 1.0, 0.3 * T, 0.001 * T),  # nonpositive exponents
        (3.0, -1.0, 1.0, 0.3 * T, 0.001 * T),
        (3.0, 0.4, -0.0, 0.3 * T, 0.001 * T),
        (3.0, 0.4, 1.0, -1e-12, 0.001 * T),  # negative changepoints
        (3.0, 0.4, 1.0, 0.3 * T, -0.5),
        (nan, 0.4, 1.0, 0.3 * T, 0.001 * T),  # nan genes
        (3.0, 0.4, nan, 0.3 * T, 0.001 * T),
        (3.0, 0.4, 1.0, nan, 0.001 * T),
        (3.0, 0.4, 1.0, 0.3 * T, nan),
    ]).T
    rng = np.random.default_rng(60 + which)
    for k in (1, 2, 100, 3000):
        block = np.ascontiguousarray(np.hstack([invalid, gene_block(rng, sample, k)]))
        want = cache.values(*block)
        with np.errstate(all="ignore"):
            got = cache._kernel(*block)
        assert_bits(got, want)
        assert_bits(want, ref_values(cache, *block))
        assert np.isneginf(want[:invalid.shape[1]]).all()
    # values still takes scalars, lists and integer columns, as float
    a = np.arange(1, 8)
    cols = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in
                                 (a, [0.4] * 7, 1, 0.1 * T, np.array(0.001))))
    with np.errstate(all="ignore"):
        want = cache._kernel(*(np.ascontiguousarray(c) for c in cols))
    assert_bits(cache.values(a, [0.4] * 7, 1, 0.1 * T, np.array(0.001)), want)


@pytest.mark.parametrize("which", range(3))
def test_likelihood_scalars_and_length_one(which):
    sample = _values_samples()[which]
    cache = _CondLoglik(sample)
    T = sample.T
    rows = [(3.0, 0.4, 1.0, 0.3 * T, 0.001 * T), (1.0, 1.0, 1.0, 0.0, 0.0),
            (0.5, 0.5, 2.0, -0.0, -0.0), (2.0, 0.4, 1.0, 0.6 * T, 0.4 * T),
            (0.0, 1.0, 1.0, 0.0, 0.0), (2, 1, 3, 0, 0), (1.0, 2.0, 3.0, np.nan, 0.0)]
    for row in rows:
        want = ref_values(cache, *row)
        assert_bits(cache.values(*row), want)
        assert_bits(cache.values(*(np.array([x], dtype=float) for x in row)), want)
        assert_bits(cache.values(*(np.float64(x) for x in row)), want)
        assert cache.value(*row).hex() == float(want[0]).hex()
    # mixed scalars, lists, integer arrays and 0-d arrays broadcast
    a = np.linspace(0.2, 4.0, 7)
    for args in ((a, 0.4, 1.0, 0.1 * T, 0.0), (a, [0.4] * 7, np.arange(1, 8), 0, np.array(0.001)),
                 (1.5, 1.5, a, 0.0, np.linspace(0.0, 0.5 * T, 7))):
        assert_bits(cache.values(*args), ref_values(cache, *args))


def _recording_fitter(seen):
    def fit(boot):
        seen.append(boot.times.copy())
        alpha, c = mle_nhpp1(boot)
        return FitResult(OneStage(alpha, c, boot.T), 0.0, "closed-form")
    return fit


# the int32 indices must be the int64 reference stream: 65_537 needs more
# than 16 bits, and at 100_000 the bounded 32-bit draw rejects and redraws
# (42 times over these 25 resamples)
@pytest.mark.parametrize("n", [1, 2, 500, 65_537, 100_000])
def test_bootstrap_resample_bit_equal(n):
    sample = BidSample(times=frozen(sample_fixed_n(P_STAR, n, seed=3).times), T=P_STAR.T)
    kept = sample.times.copy()
    seen = []
    got, failed = bootstrap_se(sample, _recording_fitter(seen), 25, seed=8)
    assert failed == {}
    want = ref_resamples(sample, 25, 8)
    assert len(seen) == len(want)
    for a, b in zip(seen, want):
        assert_bits(a, b)
    assert_bits(sample.times, kept)
    fits = [_recording_fitter([])(BidSample(times=t, T=P_STAR.T)).params for t in want]
    ref_se = {k: float(np.std([f[k] for f in fits], ddof=1)) for k in fits[0]}
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in ref_se.items()}


@pytest.mark.parametrize("n", [2, 7, 5000])
def test_ecdf_scalar_bit_equal(n):
    # every scalar (a float, a numpy float, a 0-d array) takes the scalar
    # lookup; a one-element array is the reference
    sample = sample_fixed_n(P_STAR, n, seed=4)
    times = sample.times
    k = int(np.flatnonzero(np.diff(times) > 0)[0])
    between = float(times[k] + (times[k + 1] - times[k]) / 2)
    assert times[k] < between < times[k + 1]
    for t in (-1.0, 0.0, float(times[k]), float(times[-1]), between, sample.T, float("nan")):
        got = ecdf(sample, t)
        assert type(got) is float
        assert got.hex() == float(ecdf(sample, np.array([t]))[0]).hex()
        assert got.hex() == ecdf(sample, np.float64(t)).hex()
        assert got.hex() == ecdf(sample, np.array(t)).hex()


class TestPeakMemory:
    """tracemalloc peaks at n = 100k, in units of one n-length float array."""

    n = 100_000

    def test_sample_fixed_n(self):
        # the sample is the uniforms' own buffer, plus n bools for the order check
        assert traced_peak(lambda: sample_fixed_n(P_STAR, self.n, seed=6), self.n) <= 1.25

    def test_cdf_on_sorted_times(self):
        times = sample_fixed_n(P_STAR, self.n, seed=7).times
        assert traced_peak(lambda: cdf(P_STAR, times), self.n) <= 1.25

    def test_ks_one_sample(self):
        sample = sample_fixed_n(P_STAR, self.n, seed=8)
        assert traced_peak(lambda: ks_one_sample(sample, P_STAR), self.n) <= 1.5

    def test_bootstrap_replicate(self):
        # two replicates, the fewest bootstrap_se runs: a quick-crude refit
        # scores no likelihood unless its loglik is read, so only a resample
        # and its int32 indices are live at once, not the previous resample
        sample = sample_fixed_n(P_STAR, self.n, seed=9)
        cfg = default_qc_config(P_STAR.T)
        assert traced_peak(
            lambda: bootstrap_se(sample, lambda b: qc_fit(b, cfg), 2, seed=1), self.n) <= 1.75

    def test_bootstrap_replicate_without_likelihood(self):
        # fit --method quick-crude --bootstrap refits through the CLI's own
        # fit, which reads only the refit's params: no likelihood prefix, and
        # the resample's indices are int32
        sample = sample_fixed_n(P_STAR, self.n, seed=9)
        args = build_parser().parse_args(["fit", "--method", "quick-crude", "--bootstrap", "2"])
        assert traced_peak(
            lambda: bootstrap_se(sample, lambda b: _fit_once(b, args), 2, seed=1), self.n) <= 1.75

    # CSV reads and writes go in blocks of about 64 KiB, so beyond the
    # sample-sized arrays below they hold one block of text and its fields,
    # well under one unit, however long the file

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """The same 100k bids of 1,000 auctions in the relative and the
        timestamped layout, and four files that fail: the timestamped one
        with the last row's start changed or every bid_timestamp nan, the
        relative one with every bid_time text, and that under a header that
        fits no layout."""
        rng = np.random.default_rng(10)
        ids = rng.permutation(np.arange(self.n) % 1_000)
        s = sample_fixed_n(P_STAR, self.n, seed=10)
        d = tmp_path_factory.mktemp("peak")
        write_sample(BidSample(times=s.times, T=s.T, sources=tuple(f"a{i:05d}" for i in ids)),
                     d / "relative.csv")
        starts = 19_000.0 + np.arange(1_000.0)

        def write(name, header, lines):
            with (d / name).open("w") as fh:
                fh.write(header + "\n")
                fh.writelines(lines)

        def stamped(stamp, last_start_shift=0.0):
            rows = zip(ids, s.times.tolist(), starts[ids].tolist())
            for k, (i, t, start) in enumerate(rows, 1):
                shift = last_start_shift if k == self.n else 0.0
                yield f"a{i:05d},{stamp(start + t)},{start + shift!r}\n"

        header = "auction_id,bid_timestamp,auction_start"
        write("stamped.csv", header, stamped(repr))
        write("stamped_start.csv", header, stamped(repr, 1.0))
        write("stamped_nan.csv", header, stamped(lambda stamp: "nan"))
        write("relative_text.csv", "auction_id,bid_time", (f"a{i:05d},x\n" for i in ids))
        write("bid_tyme.csv", "auction_id,bid_tyme", (f"a{i:05d},x\n" for i in ids))
        return d

    def test_ingest_relative(self, files):
        # four at most: the label list, the parsed times, the sort order and
        # the sorted times, then the sorted times, the sort order and two of
        # the label list, its object array, its gathered copy and the tuple
        spec = IngestSpec(path=files / "relative.csv", horizon=P_STAR.T)
        assert traced_peak(lambda: ingest(spec), self.n) <= 4.5

    def test_ingest_timestamped(self, files):
        # four at most: the label list and the two parsed columns with their
        # difference; a column's blocks go once it is joined, and one start
        # per auction is checked on distinct pairs, not a list of every start
        spec = IngestSpec(path=files / "stamped.csv", horizon=P_STAR.T)
        assert traced_peak(lambda: ingest(spec), self.n) <= 5

    def test_ingest_summary(self, files):
        # the label list, the blocks of times and their concatenation; a
        # read block's text and fields go before the next is read
        spec = IngestSpec(path=files / "relative.csv", horizon=P_STAR.T)
        assert traced_peak(lambda: ingest_summary(spec), self.n) <= 3.25

    def test_ingest_summary_timestamped(self, files):
        spec = IngestSpec(path=files / "stamped.csv", horizon=P_STAR.T)
        assert traced_peak(lambda: ingest_summary(spec), self.n) <= 5

    @pytest.mark.parametrize("name, bound, message", [
        ("stamped_start.csv", 5,
         r"line 100001: auction 'a\d{5}' start changed from (\d+\.0) to (?!\1)\d+\.0"),
        ("stamped_nan.csv", 5, r"line 2: non-finite value 'nan' in column 'bid_timestamp'"),
        ("relative_text.csv", 4.5, r"line 2: cannot parse 'x' in column 'bid_time' as a number"),
        ("bid_tyme.csv", 4.5, r"header \['auction_id', 'bid_tyme'\] matches neither"),
    ], ids=["changed-start", "nan-stamps", "text-times", "no-layout"])
    def test_ingest_failing_file(self, files, name, bound, message):
        # each check finds its own first bad row and keeps one bad field per
        # column, so a file that fails stays within the bound of its layout's
        # clean file
        spec = IngestSpec(path=files / name, horizon=P_STAR.T)

        def fail():
            with pytest.raises(IngestError, match=f"^{message}"):
                ingest(spec)

        assert traced_peak(fail, self.n) <= bound

    def test_pool(self):
        # the joined times, the sort order, the sorted times, then the label
        # list, its object array, the gathered copy and the tuple, two at a time
        rng = np.random.default_rng(13)
        halves = []
        for seed in (13, 14):
            s = sample_fixed_n(P_STAR, self.n // 2, seed=seed)
            labels = tuple(f"a{i:05d}" for i in rng.integers(0, 1_000, s.n))
            halves.append(BidSample(times=s.times, T=s.T, sources=labels))
        assert traced_peak(lambda: pool(halves), self.n) <= 4.5

    def test_write_qq(self, tmp_path):
        qq = qq_points(sample_fixed_n(P_STAR, self.n, seed=11), P_STAR)
        assert traced_peak(lambda: write_qq(qq, tmp_path / "qq.csv"), self.n) <= 2

    def test_write_sample(self, tmp_path):
        # a tagged sample's labels are quoted block by block, so it stays
        # within the untagged bound
        s = sample_fixed_n(P_STAR, self.n, seed=12)
        assert traced_peak(lambda: write_sample(s, tmp_path / "bids.csv"), self.n) <= 1.25
        ids = np.random.default_rng(12).permutation(np.arange(self.n) % 1_000)
        tagged = BidSample(times=s.times, T=s.T, sources=tuple(f"a{i:05d}" for i in ids))
        assert traced_peak(lambda: write_sample(tagged, tmp_path / "tagged.csv"), self.n) <= 1.25
