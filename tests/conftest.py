import os

import numpy as np
import pytest

import barista
from barista import BaristaParams, dataio, estimate

# the simulation-study parameter point used throughout: a sharp early rush,
# a calm middle, a uniform final 5 minutes of a 7-day auction
P_STAR = BaristaParams(
    alpha1=3.0, alpha2=0.4, alpha3=1.0,
    d1=2.5, d2=5.0 / 1440.0, c=1.0, T=7.0,
)


@pytest.fixture
def p_star() -> BaristaParams:
    return P_STAR


@pytest.fixture
def csv_records(monkeypatch) -> list[list[str]]:
    """The records dataio's csv readers yield, in order, each read as csv
    reads it; a test clears the list between reads."""
    records: list[list[str]] = []
    real = dataio.csv.reader

    def reader(*args, **kwargs):
        for record in real(*args, **kwargs):
            records.append(record)
            yield record

    monkeypatch.setattr(dataio.csv, "reader", reader)
    return records


@pytest.fixture
def prefixes(monkeypatch) -> list[int]:
    """The sample size of every likelihood prefix estimate builds, in order."""
    built: list[int] = []

    class Spy(estimate._CondLoglik):
        def __init__(self, sample):
            built.append(sample.n)
            super().__init__(sample)

    monkeypatch.setattr(estimate, "_CondLoglik", Spy)
    return built


def random_params(rng: np.random.Generator, scale_hi: float = 40.0) -> BaristaParams:
    """A valid parameter vector with occasional degenerate changepoints.

    d1 + d2 stays below 0.85 T so the middle stage never vanishes; exponents
    stay off the extremes where quadrature oracles lose accuracy.
    """
    T = float(rng.uniform(0.5, 12.0))
    a1, a2, a3 = (float(v) for v in rng.uniform(0.25, 6.0, size=3))
    d1 = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.55)) * T
    d2 = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.3)) * T
    c = float(rng.uniform(0.5, scale_hi))
    return BaristaParams(a1, a2, a3, d1, d2, c, T)


def package_env() -> dict[str, str]:
    """os.environ for a child Python that imports the barista under test.

    A child does not inherit pytest's sys.path, so PYTHONPATH starts with
    the directory holding the imported package, ahead of anything already
    on it.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(barista.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
