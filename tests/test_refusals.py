"""Empty samples and arguments outside their domain are refused with a
named error before any work is done."""
import numpy as np
import pytest

from barista import (
    BidSample,
    EstimationError,
    GaConfig,
    bootstrap_se,
    default_bounds,
    ga_fit,
    ks_one_sample,
    ks_two_sample,
    qq_points,
    restrict,
    simulate_single_uniform_bids,
    uniform_rebid_intensity,
)
from conftest import P_STAR

EMPTY = BidSample(times=np.empty(0), T=7.0)
ONE = BidSample(times=np.array([1.0]), T=7.0)


@pytest.mark.parametrize("call, error, message", [
    # empty samples
    (lambda: ga_fit(EMPTY, "two-stage", GaConfig(bounds=default_bounds("two-stage", 7.0))),
     EstimationError, "cannot fit an empty sample"),
    (lambda: bootstrap_se(EMPTY, lambda s: None, 2, seed=0),
     EstimationError, "cannot bootstrap an empty sample"),
    (lambda: ks_one_sample(EMPTY, P_STAR), ValueError, "KS test needs a nonempty sample"),
    (lambda: ks_two_sample(EMPTY, ONE), ValueError, "KS test needs two nonempty samples"),
    (lambda: ks_two_sample(ONE, EMPTY), ValueError, "KS test needs two nonempty samples"),
    (lambda: qq_points(EMPTY, P_STAR), ValueError, "QQ needs a nonempty sample"),
    (lambda: qq_points(ONE, EMPTY), ValueError, "QQ needs a nonempty reference sample"),
    # arguments outside their domain
    (lambda: restrict(P_STAR, -0.1), ValueError, "beta must lie in [0, 1), got -0.1"),
    (lambda: restrict(P_STAR, 1.0), ValueError, "beta must lie in [0, 1), got 1.0"),
    (lambda: BidSample(times=np.array([1.0]), T=0.0),
     ValueError, "T must be finite and > 0, got 0.0"),
    (lambda: BidSample(times=np.array([1.0]), T=-7.0),
     ValueError, "T must be finite and > 0, got -7.0"),
    (lambda: BidSample(times=np.array([3.0, -1.0]), T=7.0), ValueError, "times must lie in [0, T)"),
    (lambda: BidSample(times=np.array([3.0, 7.0, 1.0]), T=7.0),
     ValueError, "times must lie in [0, T)"),
    (lambda: simulate_single_uniform_bids(0.0, 7.0, seed=0), ValueError, "rate and T must be > 0"),
    (lambda: uniform_rebid_intensity(-1.0, 7.0, 1.0), ValueError, "rate and T must be > 0"),
])
def test_refused(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
