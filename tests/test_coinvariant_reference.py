"""Coinvariant class arithmetic against the per-slot code it replaced.

`QuotientPresentation` alone reads, reduces and flattens class coordinates:
class arithmetic is `normal_form` of a vector operation on `coordinates`
(`neg` is the one method left, which the `orbits` suite reads), a lattice
map acts on a class as `normal_form` of its descended matrix
(`weyl._descended`) applied to `coordinates`, and dominance reads
`coordinates` instead of a substrate method.  The reference functions below are the earlier implementations,
slot by slot, kept as oracles.  They are compared on random classes with
negative free entries and unreduced torsion entries (negative, or at least
the invariant factor), on data whose coinvariants carry torsion: no preset
has torsion in X_*(T)_I or in its dual, so only these exercise the
reduction.  A wrongly shaped class raises `DimensionMismatch` everywhere.
"""

import functools
import random

import pytest

from twisted_satake.abelian import DimensionMismatch, IntMatrix, dot, vec_add, vec_scale, vec_sub
from twisted_satake.coweights import class_height, is_dominant_class
from twisted_satake.dual import dual_twisted
from twisted_satake.galois import (
    DiagramAutomorphism,
    TwistedRootDatum,
    coinvariants,
    group_elements,
)
from twisted_satake.presets import preset
from twisted_satake.rootdatum import BasedRootDatum
from twisted_satake.weyl import _descended, relative_weyl

from test_substrate_reference import ref_substrate

# ---------------------------------------------------------------------------
# Reference implementations: one loop per slot kind, as before


def ref_add(c, c1, c2):
    f = vec_add(c1[0], c2[0])
    t = tuple((a + b) % d for (a, b), d in zip(zip(c1[1], c2[1]), c.quotient.invariant_factors))
    return (f, t)


def ref_neg(c, x):
    f = tuple(-a for a in x[0])
    t = tuple((-a) % d for a, d in zip(x[1], c.quotient.invariant_factors))
    return (f, t)


def ref_sub(c, c1, c2):
    return ref_add(c, c1, ref_neg(c, c2))


def ref_scale(c, n, x):
    f = tuple(n * a for a in x[0])
    t = tuple((n * a) % d for a, d in zip(x[1], c.quotient.invariant_factors))
    return (f, t)


def ref_coordinates(t, cls):
    """The substrate's flattening: free then torsion, shape-checked."""
    c = coinvariants(t)
    free, torsion = cls
    if len(free) != c.quotient.free_rank or len(torsion) != len(c.quotient.invariant_factors):
        raise DimensionMismatch("class does not match this presentation")
    return tuple(free) + tuple(torsion)


def ref_descended(t, m):
    c = coinvariants(t)
    cols = []
    for v in c.unit_lifts:
        free, torsion = c.class_of(m.apply(v))
        cols.append(free + torsion)
    return IntMatrix.from_columns(cols, nrows=len(cols))


def ref_descend(t, m, cls):
    c = coinvariants(t)
    free, torsion = cls
    if len(free) != c.quotient.free_rank or len(torsion) != len(c.quotient.invariant_factors):
        raise DimensionMismatch("class does not match this presentation")
    y = ref_descended(t, m).apply(tuple(int(x) for x in free) + tuple(int(x) for x in torsion))
    r = len(free)
    return y[:r], tuple(a % d for a, d in zip(y[r:], c.quotient.invariant_factors))


# ---------------------------------------------------------------------------
# Data with torsion in their coinvariants


def u3_like():
    """Rank-3 A2 lattice with the flip (a,b,c) -> (-c,-b,-a): X_*(T)_I = Z + Z/2."""
    base = BasedRootDatum.make(3, [(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (0, 1, -1)])
    flip = DiagramAutomorphism.make([[0, 0, -1], [0, -1, 0], [-1, 0, 0]], (1, 0))
    return TwistedRootDatum.make(base, (flip,))


def torus(rank, lattice_map):
    return TwistedRootDatum.make(BasedRootDatum.make(rank, [], []),
                                 (DiagramAutomorphism.make(lattice_map, ()),))


DATA = {
    "U3-like": u3_like,                                             # Z + Z/2
    "U3-like-dual": lambda: dual_twisted(u3_like()),                # Z + Z/2
    "torus-inversion": lambda: torus(2, [[-1, 0], [0, -1]]),        # Z/2 + Z/2
    "torus-rotation": lambda: torus(3, [[0, -1, 0], [1, -1, 0], [0, 0, 1]]),  # Z + Z/3
    "SU5": lambda: preset("SU5"),
    "Spin8-triality-dual": lambda: dual_twisted(preset("Spin8-triality")),
}
TORSION = ("U3-like", "U3-like-dual", "torus-inversion", "torus-rotation")


@functools.lru_cache(maxsize=None)
def datum(name):
    return DATA[name]()


def test_torsion_data_have_torsion():
    factors = {name: coinvariants(datum(name)).quotient.invariant_factors for name in TORSION}
    assert factors == {"U3-like": (2,), "U3-like-dual": (2,),
                       "torus-inversion": (2, 2), "torus-rotation": (3,)}


def random_classes(t, rng, count=40):
    """Classes with free entries in [-6, 6] and torsion entries in [-3d, 3d]:
    most of them unreduced."""
    q = coinvariants(t).quotient
    return [
        (tuple(rng.randint(-6, 6) for _ in range(q.free_rank)),
         tuple(rng.randint(-3 * d, 3 * d) for d in q.invariant_factors))
        for _ in range(count)
    ]


def misshapen(t):
    """Classes with one free or one torsion entry too many or too few."""
    q = coinvariants(t).quotient
    r, s = q.free_rank, len(q.invariant_factors)
    shapes = {(r + 1, s), (r, s + 1)} | ({(r - 1, s)} if r else set()) | ({(r, s - 1)} if s else set())
    return [((1,) * a, (1,) * b) for a, b in sorted(shapes)]


def lattice_maps(t):
    """I-commuting lattice maps: the W0 generators, the inertia group
    elements (the group is abelian on every datum here) and -1."""
    maps = [w.matrix for w in relative_weyl(t).generators]
    maps += [m for m, _perm in group_elements(t)]
    maps.append(IntMatrix.from_rows([[-int(i == j) for j in range(t.rank)] for i in range(t.rank)]))
    return maps


# ---------------------------------------------------------------------------
# Comparisons


@pytest.mark.parametrize("name", sorted(DATA))
def test_arithmetic_matches_per_slot_reference(name):
    t = datum(name)
    c = coinvariants(t)
    rng = random.Random(f"arithmetic:{name}")
    classes = random_classes(t, rng)
    zero = c.class_of((0,) * t.rank)
    for a, b in zip(classes, reversed(classes)):
        x, y = c.coordinates(a), c.coordinates(b)
        assert c.normal_form(vec_add(x, y)) == ref_add(c, a, b), (a, b)
        assert c.normal_form(vec_sub(x, y)) == ref_sub(c, a, b), (a, b)
        assert c.neg(a) == ref_neg(c, a), a
        for n in (-3, -1, 0, 2, 5):
            assert c.normal_form(vec_scale(n, x)) == ref_scale(c, n, a), (n, a)
        assert c.normal_form(x) == ref_add(c, a, zero), a


@pytest.mark.parametrize("name", sorted(DATA))
def test_normal_forms_are_reduced_and_agree_with_class_of(name):
    t = datum(name)
    c = coinvariants(t)
    rng = random.Random(f"normal-form:{name}")
    for cls in random_classes(t, rng):
        reduced = c.normal_form(c.coordinates(cls))
        assert all(0 <= x < d for x, d in zip(reduced[1], c.quotient.invariant_factors))
        assert c.class_of(c.lift(cls)) == reduced, cls


@pytest.mark.parametrize("name", sorted(DATA))
def test_coordinates_and_descent_match_reference(name):
    t = datum(name)
    rng = random.Random(f"descent:{name}")
    classes = random_classes(t, rng, count=20)
    sub = ref_substrate(t)
    for cls in classes:
        x = coinvariants(t).coordinates(cls)
        assert x == ref_coordinates(t, cls)
        assert class_height(t, cls) * sub.group_order == dot(sub.heights, ref_coordinates(t, cls))
    c = coinvariants(t)
    for m in lattice_maps(t):
        descended = _descended(t, m)
        assert descended == ref_descended(t, m)
        for cls in classes:
            assert c.normal_form(descended.apply(c.coordinates(cls))) == ref_descend(t, m, cls), cls


@pytest.mark.parametrize("name", sorted(DATA))
def test_misshapen_classes_raise_everywhere(name):
    t = datum(name)
    c = coinvariants(t)
    m = lattice_maps(t)[0]
    for bad in misshapen(t):
        for reference in (lambda: ref_coordinates(t, bad), lambda: ref_descend(t, m, bad)):
            with pytest.raises(DimensionMismatch):
                reference()
        for call in (
            lambda: c.coordinates(bad),
            lambda: c.lift(bad),
            lambda: c.neg(bad),
            lambda: class_height(t, bad),
            lambda: is_dominant_class(t, bad),
        ):
            with pytest.raises(DimensionMismatch):
                call()
