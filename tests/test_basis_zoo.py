"""A small-entry basis zoo: the answers that do not depend on a basis are
the same on a datum, on two seeded unimodular transports of it and on a
seeded relabelling of its simple roots.

The sources are the default presets, SU7, SU9, and seven data in no
registry: E6, Spin8 and Spin10 with a diagram flip, SL3 x SL3 with the
factor swap, Spin8 with the whole S3 of diagram automorphisms (two
generators), SU3 x SL2, and SL2 times a rank-2 torus rotated by an
automorphism of order 6 (the golden file's `sl2-rot6.json`).  A transport
moves a datum along a product of elementary matrices whose multipliers are
at most 3 (`test_dual.transport`), cocharacters along the matrix and
characters along its inverse transpose; a relabelling permutes the simple
roots and conjugates each root permutation to match, and moves no vector.

Compared: the groups X_*(T)_I and X^*(s)_I (free rank and invariant
factors) and the orders of W0 on both sides; the folded Cartan matrix up to
a simultaneous permutation of its rows and columns; connected_char0; the
multiset of `branch` summand dimensions on small dominant weights, moved
with the datum; `mv_cell` and `conv_cell` (nonempty, dim) on seeded
classes, drawn as cocharacters and moved with the datum; whether
`run_suite` passes, with its number of checks; the Schubert poset at a
small height (strata per dimension, components, Hasse edges); and the
dominant image (|image|, |cone|, surjectivity).  A
`coord_bound` box depends on the basis, so the poset is compared only where
X_*(T)_I has no invariant central direction, and the dominant image, which
enumerates the base's coweights too, only where the base has no central
direction either.
So the fold depends on the datum alone, never on its coordinates or on a
registry name.  Each case has a time budget.  Large-entry transports, where
Smith normal form entries grow, are not here.
"""

import collections
import functools
import itertools
import random
import time

import pytest

from twisted_satake.abelian import IntMatrix
from twisted_satake.cli import datum_from_dict
from twisted_satake.coweights import (
    _has_invariant_central_direction,
    dominant_image_monoid,
    dominant_representative,
    enumerate_dominant_classes,
)
from twisted_satake.dual import dual_twisted, fixed_group_descriptor
from twisted_satake.galois import DiagramAutomorphism, TwistedRootDatum, coinvariants, split_twisted
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rep import (
    branch_to_fixed_group,
    irreducible_character,
    is_dominant_character,
    total_dimension,
)
from twisted_satake.rootdatum import BasedRootDatum
from twisted_satake.satake import closure_poset, conv_cell, mv_cell
from twisted_satake.suites import run_suite
from twisted_satake.weyl import relative_weyl

from test_cli_golden import FILES
from test_dual import transport
from test_linalg_reference import ref_inverse_unimodular, unimodular
from test_rootdatum import is_simply_connected


def _cartan(k, edges):
    """The simply laced Cartan matrix of the graph on k nodes with edges."""
    c = [[2 * (i == j) for j in range(k)] for i in range(k)]
    for i, j in edges:
        c[i][j] = c[j][i] = -1
    return c


def _simply_connected(cartan):
    k = len(cartan)
    return BasedRootDatum.make(k, [tuple(row[j] for row in cartan) for j in range(k)],
                               [tuple(int(i == j) for i in range(k)) for j in range(k)])


def _twisted(cartan, *perms):
    gens = [DiagramAutomorphism.make(IntMatrix.permutation(p), p) for p in perms]
    return TwistedRootDatum.make(_simply_connected(cartan), gens)


E6 = _cartan(6, [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)])
D4 = _cartan(4, [(0, 1), (1, 2), (1, 3)])
D5 = _cartan(5, [(0, 1), (1, 2), (2, 3), (2, 4)])

BUILT = {
    "E6-flip": lambda: _twisted(E6, (5, 1, 4, 3, 2, 0)),
    "Spin8-flip": lambda: _twisted(D4, (0, 1, 3, 2)),
    "Spin10-flip": lambda: _twisted(D5, (0, 1, 2, 4, 3)),
    "SL3xSL3-swap": lambda: _twisted(_cartan(4, [(0, 1), (2, 3)]), (2, 3, 0, 1)),
    "D4-S3": lambda: _twisted(D4, (2, 1, 3, 0), (0, 1, 3, 2)),
    "SU3xSL2": lambda: _twisted(_cartan(3, [(0, 1)]), (1, 0, 2)),
    "SL2xT2-rot6": lambda: datum_from_dict(FILES["sl2-rot6.json"]),
}
SOURCES = tuple(DEFAULT_PRESET_NAMES) + ("SU7", "SU9") + tuple(BUILT)
VARIANTS = ("transport-0", "transport-1", "relabel")

# `verify all` walks the whole Weyl group, |W(A8)| = 362,880 for SU9 (about
# 4 s), so SU9 runs its branching suite alone.
SUITE = {"SU9": "branching"}
BUDGET_S = {"E6-flip": 6.0}
# The height of the compared Schubert posets and dominant images.
POSET_HEIGHT = 12


@functools.lru_cache(maxsize=None)
def source(name):
    return BUILT[name]() if name in BUILT else preset(name)


def relabel(t, sigma):
    """t with simple root k renamed sigma[k]: simple objects reordered and
    each root permutation conjugated, lattice maps unchanged."""
    inverse = {old: new for new, old in enumerate(sigma)}
    base = BasedRootDatum.make(t.rank, [t.base.simple_roots[i] for i in sigma],
                               [t.base.simple_coroots[i] for i in sigma])
    gens = [DiagramAutomorphism.make(g.lattice_map,
                                     [inverse[g.root_permutation[i]] for i in sigma])
            for g in t.generators]
    return TwistedRootDatum.make(base, gens)


def _unmoved(v):
    return v


@functools.lru_cache(maxsize=None)
def variant(name, kind):
    """(datum, map on characters, map on cocharacters) for one seeded
    variant of the source."""
    t = source(name)
    rng = random.Random(f"zoo:{name}:{kind}")
    if kind == "relabel":
        sigma = list(range(t.base.num_simple))
        rng.shuffle(sigma)
        return relabel(t, sigma), _unmoved, _unmoved
    p = unimodular(rng, t.rank, steps=2 * t.rank, big=3)
    chars = ref_inverse_unimodular(p).transpose()
    return transport(t, p), chars.apply, p.apply


def small_dominant_weights(t, count=2):
    """The first dominant characters among the nonzero 0/1 vectors with at
    most two ones, fewest ones first."""
    candidates = [tuple(int(i in ones) for i in range(t.rank))
                  for size in (1, 2) for ones in itertools.combinations(range(t.rank), size)]
    return [lam for lam in candidates if is_dominant_character(t.base, lam)][:count]


def canonical_cartan(cartan):
    """The least of the matrices P C P^T over permutations P."""
    k = len(cartan)
    return min(tuple(tuple(cartan[i][j] for j in perm) for i in perm)
               for perm in itertools.permutations(range(k)))


def posets(t):
    """The Schubert poset's and the dominant image's counts at
    POSET_HEIGHT, each where no box is needed."""
    out = {}
    if not _has_invariant_central_direction(t):
        poset = closure_poset(t, max_height=POSET_HEIGHT)
        out["schubert"] = (sorted(collections.Counter(s.dim for s in poset.strata).items()),
                           len({s.component for s in poset.strata}), len(poset.covers))
    if not _has_invariant_central_direction(split_twisted(t.base)):
        image = dominant_image_monoid(t, POSET_HEIGHT)
        cone = enumerate_dominant_classes(t, POSET_HEIGHT)
        out["dominant-image"] = (len(image), len(cone), set(image) == set(cone))
    return out


def cells(name, t, move):
    """(nonempty, dim) of `mv_cell` and `conv_cell` on classes of seeded
    cocharacters in -2..2, drawn in the source's coordinates and moved into
    t's: on each seeded pair (mu, lam) and quadruple, with each lam replaced
    by its dominant representative, and with lam the dominant representative
    of mu, which is never empty."""
    rng = random.Random(f"zoo:{name}:cells")
    c = coinvariants(t)

    def draw():
        return c.class_of(move(tuple(rng.randint(-2, 2) for _ in range(t.rank))))

    def top(cls):
        return dominant_representative(t, cls)[0].cls

    found = []
    for _ in range(3):
        mu, lam = draw(), draw()
        found += [mv_cell(t, mu, top(lam)), mv_cell(t, mu, top(mu))]
    for _ in range(2):
        mu, mu2, lam, lam2 = draw(), draw(), draw(), draw()
        found += [conv_cell(t, mu, mu2, top(lam), top(lam2)),
                  conv_cell(t, mu, mu2, top(mu), top(mu2))]
    return [(cell.nonempty, cell.dim) for cell in found]


def basis_free(name, t, weights, move=_unmoved):
    dual = dual_twisted(t)
    desc = fixed_group_descriptor(t)
    folded = desc.folded_cartan
    results = run_suite(t, SUITE.get(name, "all"))
    return {
        **posets(t),
        "X_*(T)_I": coinvariants(t).quotient,
        "X^*(s)_I": coinvariants(dual).quotient,
        "|W0|": (relative_weyl(t).order, relative_weyl(dual).order),
        "folded": folded and canonical_cartan(folded.datum.cartan_matrix()),
        "connected_char0": desc.connected_char0,
        "branch": [sorted(total_dimension(irreducible_character(folded.datum, cls[0]))
                          for cls, m in branch_to_fixed_group(t, lam).summands
                          for _copy in range(m))
                   for lam in weights],
        "cells": cells(name, t, move),
        "suite": (all(r.passed for r in results), len(results)),
    }


@functools.lru_cache(maxsize=None)
def source_answers(name):
    t = source(name)
    return basis_free(name, t, small_dominant_weights(t))


@pytest.mark.parametrize("kind", VARIANTS)
@pytest.mark.parametrize("name", SOURCES)
def test_variant_gives_the_same_answers(name, kind):
    want = source_answers(name)
    start = time.perf_counter()
    t, move_chars, move_cochars = variant(name, kind)
    weights = [move_chars(lam) for lam in small_dominant_weights(source(name))]
    got = basis_free(name, t, weights, move_cochars)
    elapsed = time.perf_counter() - start
    assert got == want
    assert want["folded"] is not None and want["suite"][0]
    assert elapsed < BUDGET_S.get(name, 3.0), f"{name} {kind}: {elapsed:.2f}s"


@pytest.mark.parametrize("name", SOURCES)
def test_split_and_simply_connected_data_have_free_coinvariants(name):
    """I permutes a basis of fundamental weights of a simply connected
    datum (and acts trivially on a split one), so X^*(s)_I is free."""
    for t in [source(name)] + [variant(name, kind)[0] for kind in VARIANTS]:
        if not t.generators or is_simply_connected(t.base):
            assert coinvariants(dual_twisted(t)).quotient.invariant_factors == ()
