"""The descended Weyl and Iwahori-Weyl actions against the code they replaced.

The reference functions below are the earlier implementations, kept as
oracles: the W0 action as lift -> apply -> class_of, the free-coordinate
matrix of the affine action through a Fraction matrix built the same way,
the longest parabolic element by testing every element of the parabolic
for negated simple roots, and the unit-class loops of the dominance
substrate and of the folding recipe.  The sweep covers every fixed preset,
its dual, SU7 and a datum whose coinvariants are Z + Z/2, on classes with
negative free entries and torsion residues outside [0, d).  The
contragredient action of a Weyl element on characters (`char_matrix`,
`apply_char`), which only tests read, left `WeylElement` for this file;
`test_rep.py`'s alternating-sum oracle reads it too.

W0 acts on classes by reflection rows (`coweights._Substrate.reflections`); every
element of W0, applied along its word, must act as its matrix does through
lift -> apply -> class_of.  `ref_w0_reflections` is the earlier derivation
of the rows in `coweights`, which read c_O from the group-sum dominance
substrate's root pairings (`test_substrate_reference.ref_substrate`) scaled
by |O| / |I|; the rows must equal it on the sweep plus
SU9, SU11, SU13 and their duals.
`ref_dominant_representative` is the W0 scan the chamber walk replaced;
the walk is compared with it on the same sweep plus SU9.  Three wrong
reflection rows (no doubling for an adjacent pair, c_O with the wrong sign
in `coweights._substrate`, a_O's torsion entry moved off its class) must
each be refused by the rows' check against the descended generators before
any walk answers.

The breadth-first matrix closure below is the code `verify` read before it
walked orbits: `_closure`, `enumerate_absolute_weyl` and
`fixed_weyl_subgroup` as they stood in `weyl.py`, and
`RelativeWeylGroup.elements` and `.orbit` as `relative_elements` and
`relative_orbit`.  It is the oracle for the height-product orders:
`len(relative_elements)` for `RelativeWeylGroup.order`, on the sweep, SU9,
SU11 and a split A1 x A2 x G2 product, and `enumerate_absolute_weyl` for the
split order of every base datum of the sweep and the product.  Both
enumerations refuse an order past their bound without building anything.

It is also the oracle for `suites._regular_orbit`, whose (|W|, |W^I|) must
equal the closure's on the sweep and on every folded datum.  Three faults
must each turn a `verify` record to FAIL: a walk that drops one orbit point,
a fixed-point test that ignores one generator's permutation, and a W0
generator's reflection row replaced by the identity.
"""

import functools
import inspect
import itertools
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction

import pytest

from twisted_satake import abelian, coweights, suites, weyl
from twisted_satake.abelian import DimensionMismatch, IntMatrix, InvariantViolation, dot, vec_add
from twisted_satake.coweights import dominant_representative, is_dominant_class
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
from twisted_satake.rootdatum import BasedRootDatum, full_root_system, require_valid
from twisted_satake.satake import conv_cell, mv_cell
from twisted_satake.suites import WEYL_BOUND_DEFAULT, EnumerationBoundExceeded, run_suite
from twisted_satake.weyl import (
    RelativeWeylGroup,
    WeylElement,
    _descended,
    _weyl_order,
    longest_parabolic_element,
    relative_weyl,
    simple_reflection,
)

from test_iwahori_weyl_reference import IwahoriWeylElement, iw_affine_action, iw_inverse, iw_multiply
from test_linalg_reference import ref_inverse_unimodular
from test_orbit_rows_reference import orbit_coroot_classes
from test_substrate_reference import patch_pairings, ref_substrate
from test_value import cold

# ---------------------------------------------------------------------------
# The matrix closure


def _closure(rank, gens, bound=None, message=""):
    """Breadth-first closure of labelled generators (label, WeylElement),
    sorted by (word length, matrix); words are shortest, recorded in the
    labels of the generators applied on the left."""
    ident = WeylElement(matrix=IntMatrix.identity(rank), word=())
    seen = {ident.matrix: ident}
    frontier = [ident]
    while frontier:
        new = []
        for w in frontier:
            for label, g in gens:
                m = g.matrix.mul(w.matrix)
                if m not in seen:
                    elem = WeylElement(matrix=m, word=(label,) + w.word)
                    seen[m] = elem
                    new.append(elem)
                    if bound is not None and len(seen) > bound:
                        raise EnumerationBoundExceeded(message)
        frontier = new
    return tuple(sorted(seen.values(), key=lambda w: (len(w.word), w.matrix.entries)))


@functools.lru_cache(maxsize=None)
def enumerate_absolute_weyl(d: BasedRootDatum, bound: int = WEYL_BOUND_DEFAULT):
    """Breadth-first closure of the simple reflections; words are shortest.
    A group of more than `bound` elements is refused before it is built."""
    require_valid(d)
    message = f"Weyl group exceeds bound {bound}"
    if _weyl_order(d, [(i,) for i in range(d.num_simple)]) > bound:
        raise EnumerationBoundExceeded(message)
    gens = [(i, simple_reflection(d, i)) for i in range(d.num_simple)]
    return _closure(d.rank, gens, bound, message)


def fixed_weyl_subgroup(t: TwistedRootDatum, bound: int = WEYL_BOUND_DEFAULT):
    """Elements of the absolute Weyl group commuting with every inertia
    generator on X_*(T); the brute-force oracle for the folded Weyl group."""
    elems = enumerate_absolute_weyl(t.base, bound)
    gen_mats = [g.lattice_map for g in t.generators]
    return tuple(
        w
        for w in elems
        if all(w.matrix.mul(g) == g.mul(w.matrix) for g in gen_mats)
    )


@functools.lru_cache(maxsize=None)
def relative_elements(self: RelativeWeylGroup):
    """The elements of W0, in closure order."""
    message = "relative Weyl group exceeds bound"
    if self.order > WEYL_BOUND_DEFAULT:
        raise EnumerationBoundExceeded(message)
    return _closure(self.datum.rank, list(enumerate(self.generators)), WEYL_BOUND_DEFAULT,
                    message)


def relative_orbit(self: RelativeWeylGroup, cls):
    return tuple(sorted({ref_act(self.datum, w, cls) for w in relative_elements(self)}))


# ---------------------------------------------------------------------------
# Reference implementations


@functools.lru_cache(maxsize=None)
def char_matrix(w):
    """The contragredient action of the Weyl element w on the character
    lattice: the transpose of its inverse."""
    return ref_inverse_unimodular(w.matrix).transpose()


def apply_char(w, chi):
    return char_matrix(w).apply(chi)


def ref_act(t, w, cls):
    c = coinvariants(t)
    return c.class_of(w.matrix.apply(c.lift(cls)))


def rows_act(t, w, cls):
    """w's action on a class through W0's reflection rows, along its word
    (the last letter acts first)."""
    c = coinvariants(t)
    x = c.coordinates(cls)
    rows = coweights._substrate(t).reflections
    for i in reversed(w.word):
        p, a = rows[i]
        x = tuple(v - dot(p, x) * b for v, b in zip(x, a))
    return c.normal_form(x)


@functools.lru_cache(maxsize=None)
def ref_w0_reflections(t: TwistedRootDatum):
    """W0's generators on class coordinates, one row pair (c_O, a_O) per orbit:
    orbit O's relative simple reflection is x -> x - <c_O, x> a_O, where c_O =
    (|O| / |I|) root_pairings[O[0]] pairs x with the sum of O's simple roots, and
    a_O = m_O [coroot_O] with m_O = 2 for an adjacent pair (alpha_i + alpha_j), else 1.

    Built once per datum, and checked before it is returned: on every unit
    class, each row's map must equal the descended matrix of its W0 generator
    (`weyl._descended`), torsion entries modulo their invariant factors.  Both
    maps are Z-linear and fix the torsion relations, so they then agree on
    every class; a mismatch raises InvariantViolation.
    """
    sub = ref_substrate(t)
    rel = relative_simple_roots(t)
    c = coinvariants(t)
    moduli = (0,) * c.quotient.free_rank + tuple(c.quotient.invariant_factors)
    rows = tuple(
        (tuple(len(orbit) * x // sub.group_order for x in sub.root_pairings[orbit[0]]),
         tuple((2 if kind == "adjacent-pair" else 1) * x for x in free + torsion))
        for orbit, kind, (free, torsion)
        in zip(rel.simple_orbit_list, rel.orbit_type, orbit_coroot_classes(t))
    )
    for o, (g, (pairing, a)) in enumerate(zip(relative_weyl(t).generators, rows)):
        m = _descended(t, g.matrix)
        for j, p in enumerate(pairing):
            image = (int(k == j) - p * x for k, x in enumerate(a))
            if any((x - y) % d if d else x != y for x, y, d in zip(image, m.column(j), moduli)):
                raise InvariantViolation(f"reflection row {o} is not descended W0 generator {o}")
    return rows


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
        if all(_is_negative_root(d, apply_char(w, d.simple_roots[i])) for i in subset)
    ]
    if len(candidates) != 1:
        raise InvariantViolation("parabolic longest element is not unique")
    return candidates[0]


def ref_dominant_representative(t, cls):
    """The unique dominant class in the W0-orbit, with a group element
    carrying the input onto it."""
    w0 = relative_weyl(t)
    hits = []
    for w in relative_elements(w0):
        image = ref_act(t, w, cls)
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
    flip = DiagramAutomorphism.make([[0, 0, -1], [0, -1, 0], [-1, 0, 0]], (1, 0))
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
        return dual_twisted(datum(name[: -len("-dual")]))
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
    """Every element of W0 acts on classes through the reflection rows,
    letter by letter along its word, as its matrix does through lift ->
    apply -> class_of."""
    t = datum(name)
    w0 = relative_weyl(t)
    for w in relative_elements(w0):
        for cls in sample_classes(t):
            assert rows_act(t, w, cls) == ref_act(t, w, cls), (w.word, cls)


@pytest.mark.parametrize("name", SWEEP)
def test_iwahori_weyl_matches_reference(name):
    t = datum(name)
    c = coinvariants(t)
    w0 = relative_weyl(t)
    classes = sample_classes(t)
    elements = [
        IwahoriWeylElement(datum=t, finite=w, translation=cls)
        for w in relative_elements(w0)
        for cls in classes[:3]
    ]
    for x in elements[:12]:
        for y in elements:
            prod = iw_multiply(x, y)
            assert prod.finite.matrix == x.finite.matrix.mul(y.finite.matrix)
            moved = ref_act(t, WeylElement(ref_inverse_unimodular(y.finite.matrix)), x.translation)
            expected = c.normal_form(vec_add(c.coordinates(moved), c.coordinates(y.translation)))
            assert prod.translation == expected
    for x in elements:
        inv = iw_inverse(x)
        assert inv.finite.matrix == ref_inverse_unimodular(x.finite.matrix)
        assert inv.translation == c.neg(ref_act(t, x.finite, x.translation))
        for point in apartment_points(t):
            moved = ref_free_matrix(t, ref_inverse_unimodular(x.finite.matrix)).apply_frac(
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
    assert ref_substrate(t).free_sums == ref_free_sums(t)
    folded = fixed_group_descriptor(t).folded_cartan
    if folded is not None:
        assert folded.datum.simple_coroots == ref_folded_coroots(t)


def test_act_rejects_mismatched_class():
    """The W0 action on classes, in the orbit walk and the chamber walk,
    refuses a class of the wrong shape."""
    t = u3_like()
    for cls in (((1, 1), ()), ((1,), ()), ((), (1, 1))):
        for act in (suites._w0_orbit, dominant_representative):
            with pytest.raises(DimensionMismatch, match="class does not match this presentation"):
                act(t, cls)


def test_warm_action_makes_no_lift_or_class_of_calls(monkeypatch):
    """Once the datum is warm, the orbit walk and the chamber walk act on
    class coordinates alone."""
    t = preset("SU5")
    classes = sample_classes(t)
    suites._w0_orbit(t, classes[-1])
    dominant_representative(t, classes[-1])
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
    for cls in classes:
        suites._w0_orbit(t, cls)
        dominant_representative(t, cls)
    assert calls == []


# ---------------------------------------------------------------------------
# The chamber walk against the W0 scan

WALK_SWEEP = SWEEP + ("SU9",)


def walk_classes(t):
    """The sample classes and their images under every element of W0."""
    w0 = relative_weyl(t)
    base = sample_classes(t)
    return list(dict.fromkeys(base + [ref_act(t, w, cls) for w in relative_elements(w0) for cls in base[:4]]))


@pytest.mark.parametrize("name", WALK_SWEEP)
def test_dominant_representative_matches_w0_scan(name):
    t = datum(name)
    w0 = relative_weyl(t)
    matrices = {e.matrix for e in relative_elements(w0)}
    for cls in walk_classes(t):
        witness, w = dominant_representative(t, cls)
        ref_witness, _ref_w = ref_dominant_representative(t, cls)
        assert witness == ref_witness, cls
        assert ref_act(t, w, cls) == witness.cls, cls
        assert w.matrix in matrices, cls


@pytest.mark.parametrize("name", WALK_SWEEP)
def test_reflection_rows_match_descended_generators(name):
    """x - <c_O, x> a_O is the descended matrix of the orbit's generator,
    with torsion entries read modulo their invariant factors."""
    t = datum(name)
    quotient = coinvariants(t).quotient
    n = quotient.free_rank + len(quotient.invariant_factors)
    moduli = (0,) * quotient.free_rank + tuple(quotient.invariant_factors)
    for g, (c, a) in zip(relative_weyl(t).generators, coweights._substrate(t).reflections):
        m = _descended(t, g.matrix)
        for j in range(n):
            unit = tuple(int(k == j) for k in range(n))
            got = tuple(u - c[j] * x for u, x in zip(unit, a))
            want = m.column(j)
            assert all(
                (x - y) % d == 0 if d else x == y for x, y, d in zip(got, want, moduli)
            ), (g.word, j)


ROWS_SWEEP = WALK_SWEEP + ("SU11", "SU13", "SU9-dual", "SU11-dual", "SU13-dual", "SU7-dual",
                          "U3-like-dual")


@pytest.mark.parametrize("name", ROWS_SWEEP)
def test_reflection_rows_match_reference(name):
    """c_O read as <unit lift, sum of O's simple roots> is the substrate's
    scaled root pairing it replaced, and a_O is unchanged."""
    t = datum(name)
    assert coweights._substrate(t).reflections == ref_w0_reflections(t)


def _negate(rows):
    return tuple(tuple(-x for x in row) for row in rows)


# (how the fault is put into the substrate's rows, the data it changes)
REFLECTION_FAULTS = {
    # a_O is not doubled for an adjacent pair
    "_halve_adjacent": (lambda mp: _member_mutant(
        mp, coweights._Substrate, "reflections", '(2 if kind == "adjacent-pair" else 1) * x', "x"),
        ("SU5", "SU7", "SU9")),
    # c_O pairs with minus the sum of the orbit's simple roots
    "_flip_pairing": (lambda mp: patch_pairings(mp, _negate),
                      ("SU5", "SU7", "SU9", "SU4", "Spin8-triality")),
    # a_O's torsion entries move off their class
    "_shift_torsion": (lambda mp: _member_mutant(
        mp, coweights._Substrate, "reflections",
        "* x for x in b)", "* x + (i >= r) for i, x in enumerate(b))"), ("U3-like",)),
}


@pytest.mark.parametrize("mutate", REFLECTION_FAULTS)
def test_wrong_reflections_are_caught(monkeypatch, mutate):
    """A wrong reflection row is refused by `_Substrate.reflections` with
    InvariantViolation, so the chamber walk and the orbit walk answer
    nothing from it.  Negated orbit rows c_O are put in by a copy of
    `coweights._substrate` with a memo of its own; the records are built
    afresh, on a value-equal copy of each datum with no derived data."""
    put, names = REFLECTION_FAULTS[mutate]
    put(monkeypatch)
    refused = r"^reflection row \d+ is not descended W0 generator \d+$"
    for name in names:
        t = cold(datum(name))
        cls = walk_classes(t)[-1]
        with pytest.raises(InvariantViolation, match=refused):
            coweights._walk(t, coinvariants(t).coordinates(cls))
        with pytest.raises(InvariantViolation, match=refused):
            suites._w0_orbit(t, cls)


def _refuse_closure(*args, **kwargs):
    raise AssertionError("a Weyl group closure was built")


def test_mv_and_conv_build_no_weyl_closure(monkeypatch):
    """mv_cell and conv_cell on SU11 build W0's generators, each the longest
    element of a parabolic by one chamber walk, and walk mu's class by
    `coweights._walk`, but walk no group orbit (|W0| = 3,840 there)."""
    t = cold(preset("SU11"))
    walked, real = [], coweights._walk
    monkeypatch.setattr(coweights, "_walk", lambda t, x: walked.append(x) or real(t, x))
    monkeypatch.setattr(suites, "_regular_orbit", _refuse_closure)
    monkeypatch.setattr(suites, "_w0_orbit", _refuse_closure)
    mu, lam = ((-1,) * 5, ()), ((1,) * 5, ())
    cell = mv_cell(t, mu, lam)
    assert cell.nonempty and cell.dim == 0
    conv = conv_cell(t, mu, mu, lam, lam)
    assert conv.nonempty and conv.dim == 0
    assert walked == [(-1,) * 5]   # mu was walked once


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
    assert w0.order == len(relative_elements(w0))


@pytest.mark.parametrize("name", SWEEP + ("A1xA2xG2",))
def test_absolute_order_matches_enumeration(name):
    d = order_datum(name).base
    assert relative_weyl(split_twisted(d)).order == len(enumerate_absolute_weyl(d))


def test_bounds_refuse_before_building(monkeypatch):
    """An order past the bound is refused with the closure's own message,
    and an order at the bound is still enumerated."""
    d = preset("SU5").base
    enumerate_absolute_weyl.cache_clear()
    monkeypatch.setitem(globals(), "_closure", _refuse_closure)
    with pytest.raises(EnumerationBoundExceeded, match="^Weyl group exceeds bound 119$"):
        enumerate_absolute_weyl(d, 119)
    with pytest.raises(EnumerationBoundExceeded, match=f"^Weyl group exceeds bound {WEYL_BOUND_DEFAULT}$"):
        enumerate_absolute_weyl(preset("SU11").base)
    w0 = relative_weyl(preset("SU17"))
    assert w0.order == 10_321_920
    with pytest.raises(EnumerationBoundExceeded, match="^relative Weyl group exceeds bound$"):
        relative_elements(w0)
    monkeypatch.undo()
    assert len(enumerate_absolute_weyl(d, 120)) == 120


# ---------------------------------------------------------------------------
# The regular-orbit walk of `verify` against the closure


FOLDED_SWEEP = tuple(
    name for name in SWEEP if fixed_group_descriptor(datum(name)).folded_cartan is not None
)


def folded_datum(name):
    return fixed_group_descriptor(datum(name)).folded_cartan.datum


@pytest.mark.parametrize("name", SWEEP)
def test_regular_orbit_matches_closure(name):
    t = datum(name)
    got = suites._regular_orbit(t.base, [g.root_permutation for g in t.generators])
    assert got == (len(enumerate_absolute_weyl(t.base)), len(fixed_weyl_subgroup(t)))


@pytest.mark.parametrize("name", FOLDED_SWEEP)
def test_regular_orbit_matches_closure_on_folded_data(name):
    d = folded_datum(name)
    assert suites._regular_orbit(d) == (len(enumerate_absolute_weyl(d)),) * 2


def test_regular_orbit_refuses_before_walking(monkeypatch):
    """The height product is compared with the bound before the first
    reflection: the walk never reads the Cartan matrix of SU11's base."""
    d = preset("SU11").base
    monkeypatch.setattr(type(d), "cartan_matrix", _refuse_closure)
    with pytest.raises(EnumerationBoundExceeded,
                       match="^Weyl group of order 39916800 exceeds bound 1000000$"):
        suites._regular_orbit(d)
    assert issubclass(EnumerationBoundExceeded, ValueError)


def test_w0_orbit_matches_closure():
    for name in SWEEP:
        t = datum(name)
        w0 = relative_weyl(t)
        c = coinvariants(t)
        for cls in sample_classes(t)[:6]:
            cls = c.normal_form(c.coordinates(cls))
            assert suites._w0_orbit(t, cls) == relative_orbit(w0, cls), (name, cls)


def _mutant(monkeypatch, function, old, new):
    """Rebind `function` in its module to its own source with `old` replaced
    by `new` (unchanged when `old` is empty), compiled in the module's
    namespace (with a cache of its own, if it has one); returns the rebound
    function."""
    module = sys.modules[function.__module__]
    source = textwrap.dedent(inspect.getsource(function))
    assert not old or source.count(old) == 1, old
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    monkeypatch.setattr(module, function.__name__, namespace[function.__name__])
    return namespace[function.__name__]


def _member_mutant(monkeypatch, cls, member, old, new):
    """Rebind cls.member, a `functools.cached_property`, to its own source
    with `old` replaced by `new`, compiled in its module's namespace."""
    module = sys.modules[cls.__module__]
    source = textwrap.dedent(inspect.getsource(vars(cls)[member].func))
    assert source.count(old) == 1, old
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    mutant = namespace[member]
    mutant.__set_name__(cls, member)
    monkeypatch.setattr(cls, member, mutant)


def _failed(t, suite):
    return [r.name for r in run_suite(t, suite) if not r.passed]


# (source, mutated source, the weyl-oracle records that must fail)
WALK_FAULTS = {
    # the count misses one point of the second level
    "drop-one-point": ("size += len(level)", "size += len(level) - (size == 1)",
                       ["folded-cartan-weyl-order"]),
    "ignore-one-permutation": ("for perm in permutations", "for perm in permutations[1:]",
                               ["relative-order-equals-fixed-subgroup",
                                "folded-cartan-weyl-order"]),
}


@pytest.mark.parametrize("fault", WALK_FAULTS)
@pytest.mark.parametrize("name", ["Spin8-triality", "SU5"])
def test_walk_faults_fail_the_weyl_oracle(monkeypatch, name, fault):
    old, new, failing = WALK_FAULTS[fault]
    t = datum(name)
    assert _failed(t, "weyl-oracle") == []
    _mutant(monkeypatch, suites._regular_orbit, old, new)
    assert _failed(t, "weyl-oracle") == failing


@pytest.mark.parametrize("name", ["Spin8-triality", "SU5", "SU3", "SU7"])
def test_identity_generator_fails_the_orbits_suite(monkeypatch, name):
    """With one W0 generator's reflection row replaced by the identity
    (c_O = 0), the orbits of a proper subgroup still hold one dominant class
    each; at a regular class they miss the antidominant chamber."""
    t = datum(name)
    assert _failed(t, "orbits") == []
    sub = coweights._substrate.__wrapped__(t)   # a record of its own
    rows = sub.reflections
    identity = ((0,) * len(rows[0][0]), rows[0][1])
    sub.__dict__["reflections"] = (identity,) + rows[1:]
    monkeypatch.setattr(suites, "_substrate", lambda _t: sub)
    assert _failed(t, "orbits") == ["ball-bijection"]
