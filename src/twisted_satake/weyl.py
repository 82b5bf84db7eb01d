"""Absolute and relative Weyl groups, and the Iwahori-Weyl semidirect product.

Weyl elements are stored as matrices acting on the cocharacter lattice, with
optional words; equality is matrix equality.  The relative simple reflection
attached to an orbit of simple roots is the longest element of the parabolic
subgroup generated by the orbit: it commutes with the inertia generators and
therefore descends to the coinvariant lattice, where it is an involution.

The Iwahori-Weyl group is the semidirect product of the descended finite
group with the coinvariant translations, with multiplication
(w1, l1)(w2, l2) = (w1 w2, w2^{-1} l1 + l2); it acts on the rational
apartment on the right, a translation class mu moving a point p to p - mu.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .abelian import DimensionMismatch, IntMatrix, InvariantViolation
from .galois import TwistedRootDatum, coinvariants, relative_simple_roots
from .rootdatum import BasedRootDatum, full_root_system, require_valid

WEYL_BOUND_DEFAULT = 10**6


class EnumerationBoundExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as its action on the cocharacter lattice."""

    matrix: IntMatrix
    word: tuple = field(default=(), compare=False)

    def apply(self, v):
        return self.matrix.apply(v)

    @functools.cached_property
    def char_matrix(self):
        """The contragredient action on the character lattice."""
        return self.matrix.inverse_unimodular().transpose()

    def apply_char(self, chi):
        return self.char_matrix.apply(chi)

    @functools.cached_property
    def inverse_matrix(self):
        return self.matrix.inverse_unimodular()


def simple_reflection(d: BasedRootDatum, i: int) -> WeylElement:
    """s_i on X_*(T): v -> v - <v, alpha_i> alpha_i^vee."""
    alpha = d.simple_roots[i]
    coroot = d.simple_coroots[i]
    n = d.rank
    cols = []
    for j in range(n):
        col = [int(j == s) - alpha[j] * coroot[s] for s in range(n)]
        cols.append(tuple(col))
    return WeylElement(matrix=IntMatrix.from_columns(cols, nrows=n), word=(i,))


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
    """Breadth-first closure of the simple reflections; words are shortest."""
    require_valid(d)
    gens = [(i, simple_reflection(d, i)) for i in range(d.num_simple)]
    return _closure(d.rank, gens, bound, f"Weyl group exceeds bound {bound}")


def _is_negative_root(d: BasedRootDatum, chi):
    system = full_root_system(d)
    for root, _coroot in system.negative:
        if root == chi:
            return True
    return False


@functools.lru_cache(maxsize=None)
def longest_parabolic_element(d: BasedRootDatum, subset) -> WeylElement:
    """The longest element of the parabolic generated by the given simple
    reflections: the unique element of that subgroup sending every simple
    root of the subset to a negative root."""
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


@dataclass(frozen=True)
class RelativeWeylGroup:
    """W0 with one generator per simple-root orbit, acting on coinvariants."""

    datum: TwistedRootDatum
    generators: tuple   # WeylElement per orbit
    elements: tuple     # enumerated closure

    @property
    def order(self):
        return len(self.elements)

    def act(self, w: WeylElement, cls):
        """The descended action on a coinvariant class."""
        c = coinvariants(self.datum)
        return c.class_of(w.apply(c.lift(cls)))

    def orbit(self, cls):
        return tuple(sorted({self.act(w, cls) for w in self.elements}))


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


@functools.lru_cache(maxsize=None)
def _free_matrix(t: TwistedRootDatum, m: IntMatrix) -> _FracMatrix:
    """The matrix induced on the free coinvariant coordinates by an
    I-commuting lattice map."""
    c = coinvariants(t)
    r = c.free_rank
    cols = []
    for j in range(r):
        basis_class = (tuple(1 if s == j else 0 for s in range(r)), (0,) * len(c.torsion))
        img = c.class_of(m.apply(c.lift(basis_class)))
        cols.append(img[0])
    return _FracMatrix(
        rows=r,
        cols=r,
        entries=tuple(Fraction(cols[j][i]) for i in range(r) for j in range(r)),
    )


@functools.lru_cache(maxsize=None)
def relative_weyl(t: TwistedRootDatum, bound: int = WEYL_BOUND_DEFAULT) -> RelativeWeylGroup:
    """W0, generated by the longest parabolic elements of the orbits."""
    rel = relative_simple_roots(t)
    gens = []
    gen_mats = [g.lattice_map for g in t.generators]
    for orbit in rel.simple_orbit_list:
        w = longest_parabolic_element(t.base, orbit)
        for g in gen_mats:
            if w.matrix.mul(g) != g.mul(w.matrix):
                raise InvariantViolation(
                    "orbit reflection does not commute with the inertia action"
                )
        gens.append(WeylElement(matrix=w.matrix, word=(rel.simple_orbit_list.index(orbit),)))
    elements = _closure(
        t.rank, list(enumerate(gens)), bound, "relative Weyl group exceeds bound"
    )
    return RelativeWeylGroup(datum=t, generators=tuple(gens), elements=elements)


# ---------------------------------------------------------------------------
# Iwahori-Weyl group


@dataclass(frozen=True)
class IwahoriWeylElement:
    """(finite part, translation class) in W_a x| X_*(T)_I."""

    datum: TwistedRootDatum
    finite: WeylElement
    translation: tuple  # coinvariant normal form


def iw_identity(t: TwistedRootDatum) -> IwahoriWeylElement:
    c = coinvariants(t)
    return IwahoriWeylElement(
        datum=t,
        finite=WeylElement(matrix=IntMatrix.identity(t.rank), word=()),
        translation=c.zero(),
    )


def iw_translation(t: TwistedRootDatum, cls) -> IwahoriWeylElement:
    return IwahoriWeylElement(
        datum=t,
        finite=WeylElement(matrix=IntMatrix.identity(t.rank), word=()),
        translation=cls,
    )


def iw_multiply(x: IwahoriWeylElement, y: IwahoriWeylElement) -> IwahoriWeylElement:
    """(w1, l1)(w2, l2) = (w1 w2, w2^{-1} l1 + l2)."""
    if x.datum != y.datum:
        raise DimensionMismatch("elements live over different twisted data")
    t = x.datum
    c = coinvariants(t)
    w2_inv = y.finite.inverse_matrix
    moved = c.class_of(w2_inv.apply(c.lift(x.translation)))
    return IwahoriWeylElement(
        datum=t,
        finite=WeylElement(matrix=x.finite.matrix.mul(y.finite.matrix)),
        translation=c.add(moved, y.translation),
    )


def iw_inverse(x: IwahoriWeylElement) -> IwahoriWeylElement:
    t = x.datum
    c = coinvariants(t)
    w_inv = x.finite.inverse_matrix
    moved = c.class_of(x.finite.matrix.apply(c.lift(x.translation)))
    return IwahoriWeylElement(
        datum=t,
        finite=WeylElement(matrix=w_inv),
        translation=c.neg(moved),
    )


def iw_affine_action(x: IwahoriWeylElement, point):
    """Right action on the rational apartment (free coinvariant coordinates):
    p -> w^{-1}(p) - mu, so a pure translation class mu sends p to p - mu."""
    t = x.datum
    c = coinvariants(t)
    point = tuple(Fraction(p) for p in point)
    if len(point) != c.free_rank:
        raise DimensionMismatch("point has wrong dimension for the apartment")
    moved = _free_matrix(t, x.finite.inverse_matrix).apply_frac(point)
    return tuple(m - Fraction(f) for m, f in zip(moved, x.translation[0]))
