"""The array-scored GA against a per-genome reference.

ga_fit maps a whole block of genomes to (alpha1, alpha2, alpha3, d1, d2)
rows in one indexing step and scores them with one likelihood call.  The
reference below is a frozen copy of the earlier code, which embedded one
genome at a time in Python.  Only the gathering differs, so every result
must be bit-identical.
"""
import numpy as np
import pytest

from barista import (
    BaristaParams,
    GaConfig,
    OneStage,
    ThreeStage,
    TwoStage,
    default_bounds,
    estimate_c,
    ga_fit,
    sample_fixed_n,
)
from barista.estimate import _CondLoglik
from conftest import P_STAR

T = P_STAR.T
NAMES = {"one-stage": ("alpha",), "two-stage": ("alpha2", "alpha3", "d2"),
         "three-stage": ("alpha1", "alpha2", "alpha3", "d1", "d2")}
# d1 close to T - d2: about nine in ten uniform draws break d1 < T - d2, so
# -inf ties reach the elite and the stable sort decides their order
CROWDED_BOX = ((1.0, 15.0), (0.1, 1.0), (0.5, 15.0), (T - 0.0012, T - 0.0003), (0.0, T / 700.0))


@pytest.fixture(scope="module")
def data():
    """The criterion-2 sample."""
    return sample_fixed_n(P_STAR, 5000, seed=23)


def _genes_to_vector(tag, genes):
    if tag == "one-stage":
        (a,) = genes
        return a, a, a, 0.0, 0.0
    if tag == "two-stage":
        a2, a3, d2 = genes
        return a2, a2, a3, 0.0, d2
    a1, a2, a3, d1, d2 = genes
    return a1, a2, a3, d1, d2


def _finish(tag, genes, ll, sample):
    vec = _genes_to_vector(tag, genes)
    c_hat = estimate_c(BaristaParams(*vec, 1.0, sample.T), sample.n)
    if tag == "one-stage":
        family = OneStage(genes[0], c_hat, sample.T)
    elif tag == "two-stage":
        family = TwoStage(genes[0], genes[1], genes[2], c_hat, sample.T)
    else:
        family = ThreeStage(*genes, c_hat, sample.T)
    return family, ll, c_hat


def reference_ga(sample, family, cfg):
    """(family, loglik, c_hat, history) of the per-genome GA."""
    lo = np.array([b[0] for b in cfg.bounds])
    hi = np.array([b[1] for b in cfg.bounds])
    scale = (hi - lo) / 20.0
    cache = _CondLoglik(sample)

    def fitness(block):
        vecs = np.array([_genes_to_vector(family, g) for g in block])
        return cache.values(*vecs.T)

    rng = np.random.default_rng(cfg.seed)
    pop = rng.uniform(lo, hi, size=(cfg.population_size, lo.size))
    fit = fitness(pop)
    order = np.argsort(-fit, kind="stable")
    pop, fit = pop[order], fit[order]
    history = [float(fit[0])]
    n_elite = max(1, int(cfg.population_size * cfg.elite_fraction))
    for _ in range(cfg.generations):
        elite, elite_fit = pop[:n_elite], fit[:n_elite]
        ia = rng.integers(0, n_elite, size=cfg.offspring_pairs)
        ib = rng.integers(0, n_elite, size=cfg.offspring_pairs)
        u = rng.random((cfg.offspring_pairs, lo.size))
        kids = np.vstack([
            u * elite[ia] + (1.0 - u) * elite[ib],
            (1.0 - u) * elite[ia] + u * elite[ib],
        ])
        kids += rng.normal(0.0, 1.0, size=kids.shape) * scale
        np.clip(kids, lo, hi, out=kids)
        pool_genes = np.vstack([elite, kids])
        pool_fit = np.concatenate([elite_fit, fitness(kids)])
        order = np.argsort(-pool_fit, kind="stable")[: cfg.population_size]
        pop, fit = pool_genes[order], pool_fit[order]
        history.append(float(fit[0]))
    return (*_finish(family, tuple(pop[0]), float(fit[0]), sample), tuple(history))


def bits(x) -> bytes:
    """Exact float identity, telling -0.0 from 0.0."""
    return np.asarray(x, dtype=float).tobytes()


def assert_same(fit, ref):
    family, ll, c_hat = ref[:3]
    assert fit.family == family
    assert bits(list(fit.family.free_values().values())) == bits(list(family.free_values().values()))
    assert bits(fit.loglik) == bits(ll)
    assert bits(fit.c_hat) == bits(c_hat)


CASES = [
    ("one-stage", default_bounds("one-stage", T)),
    ("two-stage", default_bounds("two-stage", T)),
    ("three-stage", default_bounds("three-stage", T)),
    ("three-stage", CROWDED_BOX),
    # a zero-width gene: its mutation step is 0, and -0.0 where the draw is negative
    ("three-stage", default_bounds("three-stage", T)[:1] + ((0.4, 0.4),)
     + default_bounds("three-stage", T)[2:]),
    # d2 held at 0, the family's smallest late stage
    ("two-stage", default_bounds("two-stage", T)[:2] + ((0.0, 0.0),)),
    # d2 is 0.0 or -0.0 before the clip and -0.0 after it: a clip that keeps a
    # gene equal to its bound, as np.clip may, breaks the reference
    ("two-stage", default_bounds("two-stage", T)[:2] + ((-0.0, -0.0),)),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family, bounds", CASES)
def test_ga_matches_per_genome_reference(data, family, bounds, seed):
    cfg = GaConfig(bounds=bounds, generations=50, seed=seed)
    fit = ga_fit(data, family, cfg)
    ref = reference_ga(data, family, cfg)
    assert_same(fit, ref)
    assert bits(fit.history) == bits(ref[3])


@pytest.mark.parametrize("family", list(NAMES))
def test_full_length_run_matches_per_genome_reference(data, family):
    # the paper's 500 generations at the family's default box, as `fit
    # --method ga` runs them
    cfg = GaConfig(bounds=default_bounds(family, T), seed=11)
    fit = ga_fit(data, family, cfg)
    ref = reference_ga(data, family, cfg)
    assert_same(fit, ref)
    assert bits(fit.history) == bits(ref[3])
    assert len(fit.history) == 501


def test_crowded_box_is_mostly_infeasible(data):
    lo, hi = np.array(CROWDED_BOX).T
    genes = np.random.default_rng(0).uniform(lo, hi, size=(2000, 5))
    ll = _CondLoglik(data).values(*genes.T)
    assert 0.8 < np.mean(np.isneginf(ll)) < 0.98
