"""The bidder samplers against frozen copies of their earlier loops.

sample_geometric_uniform and simulate_bidder_strategy run one retry walk
(simulate._walk); simulate_bidder_strategy and simulate_single_uniform_bids
fold their bids in one place (simulate._bids).  The references below are
verbatim copies of the earlier code, which wrote the one-phase walk and the
two-phase bidder walk as two loops.  The random draws keep their order, so
every output must be bit-identical for every seed.
"""
import numpy as np
import pytest

from barista import (
    BidderStrategyParams,
    BidSample,
    sample_geometric_uniform,
    simulate,
    simulate_bidder_strategy,
    simulate_single_uniform_bids,
)

_MAX_ATTEMPTS = 1_000_000


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


def reference_geometric_uniform(a, b, alpha, seed, size=None):
    rng = np.random.default_rng(seed)
    out = _geometric_uniform(rng, a, b, alpha, size if size is not None else 1)
    return out if size is not None else float(out[0])


def reference_bidder_strategy(sp: BidderStrategyParams, seed: int) -> BidSample:
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


def reference_single_uniform_bids(rate: float, T: float, seed: int) -> BidSample:
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(rate * T))
    arrivals = rng.uniform(0.0, T, size=n)
    times = rng.uniform(arrivals, T)
    # a draw can land exactly on T in floating point; fold it just inside
    times = np.minimum(times, np.nextafter(T, 0.0))
    return BidSample(times=np.sort(times), T=T)


SEEDS = range(60)


def _settings(seed):
    """Random walk settings for one seed: short walks, some tiny stages."""
    rng = np.random.default_rng(10_000 + seed)
    T = float(rng.uniform(0.5, 10.0))
    alpha2 = float(rng.uniform(0.05, 1.0))
    alpha3 = float(rng.uniform(alpha2, 1.0))
    d = float(rng.choice([0.0, rng.uniform(0.0, T / 50), rng.uniform(0.0, T)]))
    return T, alpha2, alpha3, d, float(rng.uniform(0.5, 40.0))


def _same_sample(new: BidSample, ref: BidSample) -> None:
    assert new.T == ref.T
    assert new.times.dtype == ref.times.dtype
    assert new.times.tobytes() == ref.times.tobytes()


class TestGeometricUniform:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_settings(self, seed):
        T, alpha, _, _, _ = _settings(seed)
        a = -T / 3
        new = sample_geometric_uniform(a, T, alpha, seed=seed, size=200)
        assert new.tobytes() == reference_geometric_uniform(a, T, alpha, seed, size=200).tobytes()
        assert sample_geometric_uniform(a, T, alpha, seed) == reference_geometric_uniform(a, T, alpha, seed)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.02])
    @pytest.mark.parametrize("size", [None, 0, 1, 1000])
    def test_edge_settings(self, alpha, size):
        for seed in range(5):
            new = sample_geometric_uniform(0.0, 1.0, alpha, seed, size)
            ref = reference_geometric_uniform(0.0, 1.0, alpha, seed, size)
            assert type(new) is type(ref)
            assert np.asarray(new).tobytes() == np.asarray(ref).tobytes()


class TestBidderStrategy:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_settings(self, seed):
        T, alpha2, alpha3, d, rate = _settings(seed)
        sp = BidderStrategyParams(rate=rate, alpha2=alpha2, alpha3=alpha3, d=d, T=T)
        _same_sample(simulate_bidder_strategy(sp, seed), reference_bidder_strategy(sp, seed))

    @pytest.mark.parametrize("alpha2, alpha3, d", [
        (1.0, 1.0, 0.0),         # every bidder bids at arrival
        (1.0, 1.0, 0.5),
        (0.4, 0.4, 0.5),         # departure draws at probability 0
        (0.4, 1.0, 0.0),         # no late phase: one-stage bids
        (0.4, 1.0, 0.07),
        (0.05, 0.9, 6.9),        # almost every arrival is late
    ])
    def test_edge_settings(self, alpha2, alpha3, d):
        sp = BidderStrategyParams(rate=30.0, alpha2=alpha2, alpha3=alpha3, d=d, T=7.0)
        for seed in range(10):
            _same_sample(simulate_bidder_strategy(sp, seed), reference_bidder_strategy(sp, seed))

    def test_some_seeds_draw_no_bidders(self):
        sp = BidderStrategyParams(rate=0.3, alpha2=0.4, alpha3=1.0, d=0.5, T=2.0)
        counts = []
        for seed in range(50):
            new = simulate_bidder_strategy(sp, seed)
            _same_sample(new, reference_bidder_strategy(sp, seed))
            counts.append(new.n)
        assert 0 in counts and max(counts) > 0


class TestSingleUniformBids:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_settings(self, seed):
        T, _, _, _, rate = _settings(seed)
        _same_sample(simulate_single_uniform_bids(rate, T, seed),
                     reference_single_uniform_bids(rate, T, seed))

    def test_some_seeds_draw_no_bidders(self):
        counts = []
        for seed in range(50):
            new = simulate_single_uniform_bids(0.3, 2.0, seed)
            _same_sample(new, reference_single_uniform_bids(0.3, 2.0, seed))
            counts.append(new.n)
        assert 0 in counts and max(counts) > 0


class TestAttemptGuard:
    """simulate._MAX_ATTEMPTS caps the rounds of the walk: a walker still
    walking after that many attempts raises, one that bids on the last
    allowed attempt does not."""

    def test_tiny_alpha_raises(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_ATTEMPTS", 3)
        with pytest.raises(RuntimeError, match="exceeded 3 attempts"):
            sample_geometric_uniform(0.0, 1.0, 1e-9, seed=0, size=10)

    def test_tiny_alpha2_raises(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_ATTEMPTS", 3)
        sp = BidderStrategyParams(rate=10.0, alpha2=1e-9, alpha3=1.0, d=0.1, T=7.0)
        with pytest.raises(RuntimeError, match="exceeded 3 attempts"):
            simulate_bidder_strategy(sp, seed=0)

    def test_certain_bid_on_the_only_attempt_returns(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_ATTEMPTS", 1)
        x = sample_geometric_uniform(0.0, 1.0, 1.0, seed=4, size=50)
        assert x.tobytes() == reference_geometric_uniform(0.0, 1.0, 1.0, 4, size=50).tobytes()
        sp = BidderStrategyParams(rate=10.0, alpha2=1.0, alpha3=1.0, d=0.1, T=7.0)
        _same_sample(simulate_bidder_strategy(sp, 4), reference_bidder_strategy(sp, 4))

    @pytest.mark.parametrize("seed", range(5))
    def test_last_walker_bids_on_the_last_allowed_attempt(self, monkeypatch, seed):
        sp = BidderStrategyParams(rate=3.0, alpha2=0.5, alpha3=0.8, d=0.5, T=7.0)
        ref_x = reference_geometric_uniform(0.0, 1.0, 0.5, seed, size=20)
        ref_s = reference_bidder_strategy(sp, seed)
        walks = [lambda: sample_geometric_uniform(0.0, 1.0, 0.5, seed, size=20).tobytes(),
                 lambda: simulate_bidder_strategy(sp, seed).times.tobytes()]
        for walk, ref in zip(walks, [ref_x.tobytes(), ref_s.times.tobytes()]):
            # the fewest attempts that let every walker finish: one fewer raises
            cap = 1
            while True:
                monkeypatch.setattr(simulate, "_MAX_ATTEMPTS", cap)
                try:
                    out = walk()
                    break
                except RuntimeError:
                    cap += 1
            assert cap > 1 and out == ref
            monkeypatch.setattr(simulate, "_MAX_ATTEMPTS", cap - 1)
            with pytest.raises(RuntimeError, match=f"exceeded {cap - 1} attempts"):
                walk()
