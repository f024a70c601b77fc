import numpy as np
import pytest

from barista import BidSample, pool


def test_basic_construction():
    s = BidSample(times=np.array([0.0, 0.5, 0.5, 2.9]), T=3.0)
    assert s.n == 4
    assert s.T == 3.0
    assert s.times.dtype == np.float64


def test_sources_tagging():
    s = BidSample(times=np.array([0.1, 0.2, 0.7]), T=1.0, sources=("a", "b", "a"))
    assert s.per_source_counts() == {"a": 2, "b": 1}
    untagged = BidSample(times=np.array([0.1, 0.2]), T=1.0)
    assert untagged.per_source_counts() == {"": 2}


def test_empty_sample_allowed():
    s = BidSample(times=np.array([]), T=1.0)
    assert s.n == 0


@pytest.mark.parametrize("times", [
    [0.5, 0.2],          # unsorted
    [-0.1, 0.2],         # negative
    [0.1, 1.0],          # at horizon
    [0.1, 1.5],          # beyond horizon
    [0.1, np.nan],
    [0.1, np.inf],
])
def test_bad_times_rejected(times):
    with pytest.raises(ValueError):
        BidSample(times=np.array(times), T=1.0)


def test_two_dimensional_rejected():
    with pytest.raises(ValueError):
        BidSample(times=np.zeros((2, 2)), T=1.0)


def test_source_length_mismatch_rejected():
    with pytest.raises(ValueError):
        BidSample(times=np.array([0.1, 0.2]), T=1.0, sources=("a",))


def test_pool_merges_sorted():
    a = BidSample(times=np.array([0.1, 0.6]), T=1.0, sources=("x", "x"))
    b = BidSample(times=np.array([0.3, 0.9]), T=1.0, sources=("y", "y"))
    merged = pool([a, b])
    np.testing.assert_array_equal(merged.times, [0.1, 0.3, 0.6, 0.9])
    assert merged.sources == ("x", "y", "x", "y")
    assert merged.T == 1.0


def test_pool_drops_sources_unless_all_tagged():
    a = BidSample(times=np.array([0.1]), T=1.0, sources=("x",))
    b = BidSample(times=np.array([0.3]), T=1.0)
    assert pool([a, b]).sources is None


def test_pool_rejects_mixed_horizons():
    a = BidSample(times=np.array([0.1]), T=1.0)
    b = BidSample(times=np.array([0.3]), T=2.0)
    with pytest.raises(ValueError):
        pool([a, b])


def test_pool_rejects_empty_list():
    with pytest.raises(ValueError):
        pool([])


def _pool_by_generator(samples):
    """The reference pool: labels taken one at a time in the sort order."""
    times = np.concatenate([s.times for s in samples])
    src = [x for s in samples for x in s.sources]
    order = np.argsort(times, kind="stable")
    return times[order], tuple(src[i] for i in order)


def _counts_by_loop(sources):
    counts = {}
    for s in sources:
        counts[s] = counts.get(s, 0) + 1
    return counts


@pytest.mark.parametrize("seed", range(20))
def test_pool_matches_generator_construction(seed):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(int(rng.integers(1, 5))):
        n = int(rng.integers(0, 40))
        # a coarse grid of times, so ties within and across samples are common
        times = np.sort(rng.integers(0, 8, n) / 8.0)
        labels = tuple(f"s{k}" for k in rng.integers(0, 4, n))
        samples.append(BidSample(times=times, T=1.0, sources=labels))
    merged = pool(samples)
    times, sources = _pool_by_generator(samples)
    np.testing.assert_array_equal(merged.times, times)
    assert merged.sources == sources
    assert all(a is b for a, b in zip(merged.sources, sources))
    counts, want = merged.per_source_counts(), _counts_by_loop(sources)
    assert (counts, list(counts)) == (want, list(want))
