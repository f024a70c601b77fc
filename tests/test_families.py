"""The family table: every family fact the package uses comes from one entry.

process.FAMILIES holds, per tag, the free names, the gene map into
(alpha1, alpha2, alpha3, d1, d2), the default GA box, the builder and the
embedding of the next-smaller family.  These tests tie the family classes,
the likelihood and the CLI to that table, and check that no public export
has gone stale.
"""
import importlib
import math

import numpy as np
import pytest

from barista import sample_fixed_n
from barista.cli import build_parser
from barista.estimate import _CondLoglik
from barista.process import FAMILIES
from conftest import P_STAR

T = P_STAR.T
# distinct values, so a gene read into the wrong slot shows
GENES = {
    "one-stage": (0.7,),
    "two-stage": (0.4, 1.3, 0.01),
    "three-stage": (3.0, 0.4, 1.2, 2.5, 0.01),
}
SLOTS = ("alpha1", "alpha2", "alpha3", "d1", "d2")


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.fixture(scope="module")
def data():
    return sample_fixed_n(P_STAR, 2000, seed=11)


def test_table_covers_every_family():
    assert list(FAMILIES) == list(GENES)


@pytest.mark.parametrize("tag", list(GENES))
def test_builder_matches_gene_map(tag):
    spec = FAMILIES[tag]
    fam = spec.build(GENES[tag], 2.0, T)
    assert fam.tag == tag
    assert fam.free_names == spec.free_names
    assert list(fam.free_values()) == list(spec.free_names)
    assert tuple(fam.free_values().values()) == GENES[tag]
    padded = (*GENES[tag], 0.0)
    p = fam.as_barista()
    assert tuple(getattr(p, slot) for slot in SLOTS) == tuple(padded[j] for j in spec.gene_map)
    assert (p.c, p.T) == (2.0, T)
    assert bits(spec.vectors([GENES[tag]])[0]) == bits([getattr(p, slot) for slot in SLOTS])
    assert len(spec.default_bounds(T)) == len(spec.free_names)


@pytest.mark.parametrize("small_tag, tag", list(zip(FAMILIES, list(FAMILIES)[1:])))
def test_embedding_scores_the_smaller_fit(data, small_tag, tag):
    small, spec = FAMILIES[small_tag], FAMILIES[tag]
    genes = spec.embed(small.build(GENES[small_tag], 1.0, T))
    want_vec = small.vectors([GENES[small_tag]])[0]
    got_vec = spec.vectors([genes])[0]
    cache = _CondLoglik(data)
    want = cache.values(*want_vec)[0]
    got = cache.values(*got_vec)[0]
    assert np.isfinite(want)
    if np.array_equal(got_vec, want_vec):
        assert bits(got) == bits(want)
    else:
        # only d1 may move, and only with alpha1 tied to alpha2; splitting
        # the log sum at d1 regroups it, so equality is up to rounding
        moved = [slot for slot, a, b in zip(SLOTS, got_vec, want_vec) if a != b]
        assert moved == ["d1"] and got_vec[0] == got_vec[1]
        assert math.isclose(got, want, rel_tol=1e-14)


def test_family_choices_come_from_the_table():
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    for name in ("simulate", "fit", "diagnose"):
        family = next(a for a in commands[name]._actions if a.dest == "family")
        assert list(family.choices) == list(FAMILIES)


@pytest.mark.parametrize("module", [
    "barista", "barista.process", "barista.sample", "barista.simulate",
    "barista.estimate", "barista.selection", "barista.diagnostics",
    "barista.dataio",
])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)

