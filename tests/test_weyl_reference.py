"""The descended Weyl and Iwahori-Weyl actions against the code they replaced.

The reference functions below are the earlier implementations, kept as
oracles: the W0 action as lift -> apply -> class_of, the free-coordinate
matrix of the affine action through a Fraction matrix built the same way,
the longest parabolic element by testing every element of the parabolic
for negated simple roots, and the unit-class loops of the dominance
substrate and of the folding recipe.  The sweep covers every fixed preset,
its dual, SU7 and a datum whose coinvariants are Z + Z/2, on classes with
negative free entries and torsion residues outside [0, d).

`ref_dominant_representative` is the W0 scan the chamber walk replaced;
the walk is compared with it on the same sweep plus SU9, and two wrong
reflections (no doubling for an adjacent pair, c_O with the wrong sign) must
be caught rather than loop.

The closure is the oracle for the height-product orders: `len(elements)`
for `RelativeWeylGroup.order`, on the sweep, SU9, SU11 and a split
A1 x A2 x G2 product, and `enumerate_absolute_weyl` for the split order of
every base datum of the sweep and the product.  Both enumerations refuse an order past their
bound without building anything.
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import pytest

from twisted_satake import abelian, coweights, weyl
from twisted_satake._value import fields
from twisted_satake.abelian import DimensionMismatch, InvariantViolation, dot
from twisted_satake.coweights import _substrate, dominant_representative, is_dominant_class
from twisted_satake.dual import dual_twisted, fixed_group_descriptor
from twisted_satake.galois import (
    DiagramAutomorphism,
    TwistedRootDatum,
    coinvariants,
    group_sum,
    relative_simple_roots,
    split_twisted,
)
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rootdatum import BasedRootDatum, full_root_system
from twisted_satake.satake import conv_cell, mv_cell
from twisted_satake.weyl import (
    WEYL_BOUND_DEFAULT,
    EnumerationBoundExceeded,
    IwahoriWeylElement,
    WeylElement,
    _closure,
    _descended,
    enumerate_absolute_weyl,
    iw_affine_action,
    iw_inverse,
    iw_multiply,
    longest_parabolic_element,
    relative_weyl,
    simple_reflection,
)

# ---------------------------------------------------------------------------
# Reference implementations


def ref_act(t, w, cls):
    c = coinvariants(t)
    return c.class_of(w.apply(c.lift(cls)))


@dataclass(frozen=True)
class _FracMatrix:
    rows: int
    cols: int
    entries: tuple

    def apply_frac(self, v):
        if len(v) != self.cols:
            raise DimensionMismatch("point has wrong dimension")
        return tuple(
            sum(
                (self.entries[i * self.cols + j] * Fraction(v[j]) for j in range(self.cols)),
                Fraction(0),
            )
            for i in range(self.rows)
        )


def ref_free_matrix(t, m):
    c = coinvariants(t)
    r = c.quotient.free_rank
    cols = []
    for j in range(r):
        basis_class = (tuple(1 if s == j else 0 for s in range(r)), (0,) * len(c.quotient.invariant_factors))
        img = c.class_of(m.apply(c.lift(basis_class)))
        cols.append(img[0])
    return _FracMatrix(
        rows=r,
        cols=r,
        entries=tuple(Fraction(cols[j][i]) for i in range(r) for j in range(r)),
    )


def _is_negative_root(d, chi):
    system = full_root_system(d)
    for root, _coroot in system.negative:
        if root == chi:
            return True
    return False


def ref_longest_parabolic_element(d, subset):
    subset = tuple(sorted(subset))
    elements = _closure(d.rank, [(i, simple_reflection(d, i)) for i in subset])
    candidates = [
        w
        for w in elements
        if all(_is_negative_root(d, w.apply_char(d.simple_roots[i])) for i in subset)
    ]
    if len(candidates) != 1:
        raise InvariantViolation("parabolic longest element is not unique")
    return candidates[0]


def ref_dominant_representative(t, cls):
    """The unique dominant class in the W0-orbit, with a group element
    carrying the input onto it."""
    w0 = relative_weyl(t)
    hits = []
    for w in w0.elements:
        image = w0.act(w, cls)
        witness = is_dominant_class(t, image)
        if witness is not None:
            hits.append((witness, w))
    if not hits:
        raise InvariantViolation("W0-orbit contains no dominant class")
    distinct = {h[0].cls for h in hits}
    if len(distinct) != 1:
        raise InvariantViolation("W0-orbit contains several dominant classes")
    return hits[0]


def ref_free_sums(t):
    """The unit-class loop of the dominance substrate."""
    c = coinvariants(t)
    r, s = c.quotient.free_rank, len(c.quotient.invariant_factors)

    def basis_sum(free_index, torsion_index):
        free = tuple(int(j == free_index) for j in range(r))
        torsion = tuple(int(k == torsion_index) for k in range(s))
        return group_sum(t, c.lift((free, torsion)))

    for k in range(s):
        if any(basis_sum(None, k)):
            raise InvariantViolation("a torsion class has a nonzero average")
    return tuple(basis_sum(j, None) for j in range(r))


def ref_folded_coroots(s):
    """The kappa rows of the folding recipe, one unit class at a time."""
    chars = coinvariants(dual_twisted(s))
    rel = relative_simple_roots(s)
    r = chars.quotient.free_rank
    out = []
    for orbit, kind in zip(rel.simple_orbit_list, rel.orbit_type):
        multiplier = 2 if kind == "adjacent-pair" else 1
        kappa = [0] * s.rank
        for i in orbit:
            for idx in range(s.rank):
                kappa[idx] += multiplier * s.base.simple_coroots[i][idx]
        row = []
        for j in range(r):
            basis_class = (tuple(1 if q == j else 0 for q in range(r)), ())
            row.append(dot(kappa, chars.lift(basis_class)))
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# The sweep


def u3_like():
    """Rank-3 A2 lattice with the flip (a,b,c) -> (-c,-b,-a): X_*(T)_I = Z + Z/2."""
    base = BasedRootDatum.make(
        3, [(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (0, 1, -1)]
    )
    flip = DiagramAutomorphism.make([[0, 0, -1], [0, -1, 0], [-1, 0, 0]], (1, 0), order=2)
    return TwistedRootDatum.make(base, (flip,))


SWEEP = (
    tuple(DEFAULT_PRESET_NAMES)
    + tuple(f"{name}-dual" for name in DEFAULT_PRESET_NAMES)
    + ("SU7", "U3-like")
)


@functools.lru_cache(maxsize=None)
def datum(name):
    if name == "U3-like":
        return u3_like()
    if name.endswith("-dual"):
        return dual_twisted(preset(name[: -len("-dual")]))
    return preset(name)


def sample_classes(t):
    """Classes with negative free entries and torsion residues outside [0, d)."""
    c = coinvariants(t)
    r = c.quotient.free_rank
    frees = [(0,) * r]
    frees += [tuple(x if k == j else 0 for k in range(r)) for j in range(r) for x in (1, -1)]
    frees += [tuple((-2, 3, -1, 5)[k % 4] for k in range(r))]
    torsions = list(itertools.product(*[(0, -1, d + 1, -2 * d - 1) for d in c.quotient.invariant_factors]))
    return [(f, s) for f in dict.fromkeys(frees) for s in torsions]


def apartment_points(t):
    r = coinvariants(t).quotient.free_rank
    return [
        (0,) * r,
        tuple(Fraction(k + 1, 3) * (-1) ** k for k in range(r)),
        tuple(Fraction(-5, 2) if k == 0 else k for k in range(r)),
    ]


@pytest.mark.parametrize("name", SWEEP)
def test_act_matches_lift_apply_class_of(name):
    t = datum(name)
    w0 = relative_weyl(t)
    for w in w0.elements:
        for cls in sample_classes(t):
            assert w0.act(w, cls) == ref_act(t, w, cls), (w.word, cls)


@pytest.mark.parametrize("name", SWEEP)
def test_iwahori_weyl_matches_reference(name):
    t = datum(name)
    c = coinvariants(t)
    w0 = relative_weyl(t)
    classes = sample_classes(t)
    elements = [
        IwahoriWeylElement(datum=t, finite=w, translation=cls)
        for w in w0.elements
        for cls in classes[:3]
    ]
    for x in elements[:12]:
        for y in elements:
            prod = iw_multiply(x, y)
            assert prod.finite.matrix == x.finite.matrix.mul(y.finite.matrix)
            expected = c.add(ref_act(t, WeylElement(y.finite.inverse_matrix), x.translation),
                             y.translation)
            assert prod.translation == expected
    for x in elements:
        inv = iw_inverse(x)
        assert inv.finite.matrix == x.finite.inverse_matrix
        assert inv.translation == c.neg(ref_act(t, x.finite, x.translation))
        for point in apartment_points(t):
            moved = ref_free_matrix(t, x.finite.inverse_matrix).apply_frac(
                tuple(Fraction(p) for p in point)
            )
            expected = tuple(m - Fraction(f) for m, f in zip(moved, x.translation[0]))
            got = iw_affine_action(x, point)
            assert got == expected
            assert all(type(v) is Fraction for v in got)


@pytest.mark.parametrize("name", SWEEP)
def test_longest_parabolic_elements_match_negative_root_scan(name):
    d = datum(name).base
    k = d.num_simple
    subsets = set(relative_simple_roots(datum(name)).simple_orbit_list)
    for size in range(min(k, 3) + 1):
        subsets.update(itertools.combinations(range(k), size))
    for subset in sorted(subsets):
        got = longest_parabolic_element(d, subset)
        want = ref_longest_parabolic_element(d, subset)
        assert got.matrix == want.matrix, subset
        assert got.word == want.word, subset


@pytest.mark.parametrize("name", SWEEP)
def test_unit_lifts_match_reference_loops(name):
    t = datum(name)
    c = coinvariants(t)
    r, s = c.quotient.free_rank, len(c.quotient.invariant_factors)
    units = [
        (tuple(int(k == j) for k in range(r)), tuple(int(k == j - r) for k in range(s)))
        for j in range(r + s)
    ]
    assert c.unit_lifts == tuple(c.lift(u) for u in units)
    assert _substrate(t).free_sums == ref_free_sums(t)
    folded = fixed_group_descriptor(t).folded_cartan
    if folded is not None:
        assert folded.datum.simple_coroots == ref_folded_coroots(t)


def test_act_rejects_mismatched_class():
    t = u3_like()
    w0 = relative_weyl(t)
    for cls in (((1, 1), ()), ((1,), ()), ((), (1, 1))):
        with pytest.raises(DimensionMismatch, match="class does not match this presentation"):
            w0.act(w0.elements[-1], cls)


def test_warm_action_makes_no_lift_or_class_of_calls(monkeypatch):
    w0 = relative_weyl(preset("SU5"))
    classes = sample_classes(w0.datum)
    for w in w0.elements:
        w0.act(w, classes[-1])
    calls = []
    presentation = abelian.QuotientPresentation
    real_lift, real_class_of = presentation.lift, presentation.class_of

    def counting_lift(self, cls):
        calls.append("lift")
        return real_lift(self, cls)

    def counting_class_of(self, v):
        calls.append("class_of")
        return real_class_of(self, v)

    monkeypatch.setattr(presentation, "lift", counting_lift)
    monkeypatch.setattr(presentation, "class_of", counting_class_of)
    for w in w0.elements:
        for cls in classes:
            w0.act(w, cls)
    assert calls == []


# ---------------------------------------------------------------------------
# The chamber walk against the W0 scan

WALK_SWEEP = SWEEP + ("SU9",)


def walk_classes(t):
    """The sample classes and their images under every element of W0."""
    w0 = relative_weyl(t)
    base = sample_classes(t)
    return list(dict.fromkeys(base + [w0.act(w, cls) for w in w0.elements for cls in base[:4]]))


@pytest.mark.parametrize("name", WALK_SWEEP)
def test_dominant_representative_matches_w0_scan(name):
    t = datum(name)
    w0 = relative_weyl(t)
    matrices = {e.matrix for e in w0.elements}
    for cls in walk_classes(t):
        witness, w = dominant_representative(t, cls)
        ref_witness, _ref_w = ref_dominant_representative(t, cls)
        assert witness == ref_witness, cls
        assert w0.act(w, cls) == witness.cls, cls
        assert w.matrix in matrices, cls


@pytest.mark.parametrize("name", WALK_SWEEP)
def test_reflection_rows_match_descended_generators(name):
    """x - <c_O, x> a_O is the descended matrix of the orbit's generator,
    with torsion entries read modulo their invariant factors."""
    t = datum(name)
    torsion = coinvariants(t).quotient.invariant_factors
    sub = _substrate(t)
    n = len(sub.free_sums) + len(torsion)
    moduli = (0,) * len(sub.free_sums) + tuple(torsion)
    for g, (c, a) in zip(relative_weyl(t).generators, sub.reflections):
        m = _descended(t, g.matrix)
        for j in range(n):
            unit = tuple(int(k == j) for k in range(n))
            got = tuple(u - c[j] * x for u, x in zip(unit, a))
            want = m.column(j)
            assert all(
                (x - y) % d == 0 if d else x == y for x, y, d in zip(got, want, moduli)
            ), (g.word, j)


def _mutated_walk(monkeypatch, mutate):
    """dominant_representative, uncached, reading mutated reflections."""
    real = coweights._substrate

    def substrate(t):
        sub = real(t)
        rel = relative_simple_roots(t)
        reflections = tuple(
            mutate(kind, c, a) for kind, (c, a) in zip(rel.orbit_type, sub.reflections)
        )
        kept = {name: getattr(sub, name) for name in fields(sub)}
        return type(sub)(**kept | {"reflections": reflections})

    monkeypatch.setattr(coweights, "_substrate", substrate)
    return dominant_representative.__wrapped__


def _halve_adjacent(kind, c, a):
    return c, (tuple(x // 2 for x in a) if kind == "adjacent-pair" else a)


def _flip_pairing(kind, c, a):
    return tuple(-x for x in c), a


@pytest.mark.parametrize("mutate", [_halve_adjacent, _flip_pairing])
def test_wrong_reflections_are_caught(monkeypatch, mutate):
    """A wrong reflection raises InvariantViolation or gives a class the W0
    scan disagrees with; the step limit keeps every walk finite."""
    caught = 0
    checked = 0
    for name in ("SU5", "SU7", "SU9", "SU4", "Spin8-triality"):
        t = datum(name)
        classes = walk_classes(t)
        expected = [ref_dominant_representative(t, cls)[0].cls for cls in classes]
        walk = _mutated_walk(monkeypatch, mutate)
        for cls, want in zip(classes, expected):
            checked += 1
            try:
                got = walk(t, cls)[0].cls
            except InvariantViolation:
                caught += 1
                continue
            caught += got != want
        monkeypatch.undo()
    assert caught > 0, checked


def _refuse_closure(*args, **kwargs):
    raise AssertionError("a Weyl group closure was built")


def test_mv_and_conv_build_no_weyl_closure(monkeypatch):
    """mv_cell and conv_cell on SU11 build W0's generators, each the longest
    element of a parabolic by one chamber walk, but build no closure
    (|W0| = 3,840 there)."""
    t = preset("SU11")
    relative_weyl.cache_clear()
    longest_parabolic_element.cache_clear()
    dominant_representative.cache_clear()
    monkeypatch.setattr(weyl, "_closure", _refuse_closure)
    mu, lam = ((-1,) * 5, ()), ((1,) * 5, ())
    cell = mv_cell(t, mu, lam)
    assert cell.nonempty and cell.dim == 0
    conv = conv_cell(t, mu, mu, lam, lam)
    assert conv.nonempty and conv.dim == 0


# ---------------------------------------------------------------------------
# Orders from root heights against the closure


def split_product(*data):
    """The split datum whose base is the direct sum of the given bases."""
    rank = sum(d.rank for d in data)
    roots, coroots, offset = [], [], 0
    for d in data:
        before, after = (0,) * offset, (0,) * (rank - offset - d.rank)
        roots += [before + r + after for r in d.simple_roots]
        coroots += [before + c + after for c in d.simple_coroots]
        offset += d.rank
    return split_twisted(BasedRootDatum.make(rank, roots, coroots))


ORDER_SWEEP = SWEEP + ("SU9", "SU11", "A1xA2xG2")


def order_datum(name):
    if name == "A1xA2xG2":
        return split_product(*(preset(p).base for p in ("SL2", "SL3", "G2")))
    return datum(name)


@pytest.mark.parametrize("name", ORDER_SWEEP)
def test_relative_order_matches_closure(name):
    w0 = relative_weyl(order_datum(name))
    assert w0.order == len(w0.elements)


@pytest.mark.parametrize("name", SWEEP + ("A1xA2xG2",))
def test_absolute_order_matches_enumeration(name):
    d = order_datum(name).base
    assert relative_weyl(split_twisted(d)).order == len(enumerate_absolute_weyl(d))


def test_bounds_refuse_before_building(monkeypatch):
    """An order past the bound is refused with the closure's own message,
    and an order at the bound is still enumerated."""
    d = preset("SU5").base
    enumerate_absolute_weyl.cache_clear()
    monkeypatch.setattr(weyl, "_closure", _refuse_closure)
    with pytest.raises(EnumerationBoundExceeded, match="^Weyl group exceeds bound 119$"):
        enumerate_absolute_weyl(d, 119)
    with pytest.raises(EnumerationBoundExceeded, match=f"^Weyl group exceeds bound {WEYL_BOUND_DEFAULT}$"):
        enumerate_absolute_weyl(preset("SU11").base)
    w0 = relative_weyl(preset("SU17"))
    assert w0.order == 10_321_920
    with pytest.raises(EnumerationBoundExceeded, match="^relative Weyl group exceeds bound$"):
        w0.elements
    monkeypatch.undo()
    assert len(enumerate_absolute_weyl(d, 120)) == 120
