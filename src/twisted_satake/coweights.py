"""Dominance on coinvariant classes: cones, orbits, order, projections.

A coinvariant class is dominant when its rational average pairs
nonnegatively with every absolute simple root; by invariance of the average
this agrees with the pairing against the relative simple roots.  Heights
are the pairing of any lift with the I-invariant 2*rho, an integer on
every class.  Each datum keeps one record on class coordinates, `_Substrate`:
heights, dominance, bounded enumeration and the order read its orbit rows
c_O in integer arithmetic: lam <= mu exactly when they lie in the same
Kottwitz component and A^-1 applied to the pairing difference (<c_O, mu -
lam>)_O is nonnegative, for A[O][O'] = <c_O, b_O'> with b_O' the
coroot-orbit classes.  `leq` gives the certificate and `hasse_covers` the
Hasse edges among a set of labels; this module alone reads the order
coordinates both come from.  The chamber walk to a dominant representative
steps by the record's W0 reflection rows alone.  Each class has one cached
row, `_class_row`: its height, its dominance, and the Kottwitz component
and order coordinates of its dominant representative, walked once when
the class is not dominant itself.  The point queries, `stratum`,
`component_of` and `hasse_covers` all read it.
`enumerate_dominant_classes` is the one enumerator of dominant lattice
points: the dominant coweights of a based datum
(`dominant_coweights_up_to_height`) are its split case.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from ._value import field, frozen, memo
from .abelian import IntMatrix, InvariantViolation, _integer, dot, vec_sub
from .galois import (
    TwistedRootDatum,
    coinvariants,
    pi1_coinvariants_presentation,
    relative_simple_roots,
    split_twisted,
)
from .rootdatum import BasedRootDatum, _dominant_cone, _scaled_inverse, _walk_cone, full_root_system
from .weyl import WeylElement, _descended, dominant_walk, relative_weyl


class NonDominantError(ValueError):
    pass


@frozen
class DominantClass:
    cls: tuple
    certificate: tuple  # <average, alpha_i> over the absolute simple roots


@frozen
class OrderCertificate:
    coefficients: tuple  # one nonnegative integer per simple-coroot orbit


# ---------------------------------------------------------------------------
# The per-datum integer substrate


@frozen
class _Substrate:
    """The integer data of one datum on class coordinates: what heights,
    dominance, the order, the bounded cone and W0's reflections read.

    Classes are read in the coordinates x = (free..., torsion...) that
    `coinvariants(t).coordinates` gives.  c_O pairs each unit class's lift
    with the sum of O's simple roots, an I-invariant character, so for i in
    O, <average, alpha_i> = <c_O, x> / |O|: a class is dominant exactly
    when every <c_O, x> >= 0.  The torsion entries of the rows are zero, as
    torsion classes pair to zero (checked).  2*rho is I-invariant too, so
    `heights` pairs each unit lift with it.  The rest is built on first
    use: `coroot_orbits` (b_O, the basis of the image of (Z Phi^vee)_I in
    X_*(T)_I), W0's `reflections`, the `cone` and the order's rows.

    The order reads the same rows: lam <= mu exactly when lam and mu lie in
    one Kottwitz component and mu - lam = sum n_O b_O with every n_O >= 0.
    The component map is one integer matrix on class coordinates
    (`kottwitz_rows`).  Within one component the exact sequence
    (Z Phi^vee)_I -> X_*(T)_I -> pi_1(G)_I gives integers n_O with p(mu) -
    p(lam) = A n, for p(x) = (<c_O, x>)_O and the matrix A[O][O'] = <c_O,
    b_O'>, invertible over Q.  So the order coordinates are den A^-1 p(x)
    (`order_inverse`), and the certificate is their difference over den.

    Without invariant central directions, y_O = <c_O, x> is an invertible
    map of the free coordinates.  `cone` holds (den, den times the free
    coordinates of each unit y_O, the height of each); it is None with
    central directions.
    """

    pairings: tuple           # c_O per simple-root orbit O, per basis class
    heights: tuple            # <unit lift, 2 rho> per basis class
    datum: TwistedRootDatum = field(compare=False, repr=False)

    def dominant(self, x):
        """Is the class with coordinates x dominant?  Integer dot products
        with the orbit rows."""
        return all([sum(map(operator.mul, row, x)) >= 0 for row in self.pairings])

    @functools.cached_property
    def coroot_orbits(self):
        """The coordinates of b_O, the class of one simple coroot per orbit."""
        t = self.datum
        c = coinvariants(t)
        return tuple(c.coordinates(c.class_of(t.base.simple_coroots[orbit[0]]))
                     for orbit in relative_simple_roots(t).simple_orbit_list)

    @functools.cached_property
    def reflections(self):
        """W0's generators on class coordinates, one row pair (c_O, a_O) per
        orbit: O's relative simple reflection is x -> x - <c_O, x> a_O, with
        a_O = m_O b_O, where m_O = 2 for an adjacent pair, else 1.  Checked
        before they are returned: on every unit class, each row's map must
        equal the descended matrix of its W0 generator (`weyl._descended`),
        torsion entries modulo their invariant factors.  Both maps are
        Z-linear and fix the torsion relations, so they then agree on every
        class; a mismatch raises InvariantViolation."""
        t = self.datum
        rel = relative_simple_roots(t)
        c = coinvariants(t)
        r = c.quotient.free_rank
        moduli = (0,) * r + tuple(c.quotient.invariant_factors)
        rows = tuple(
            (pairing, tuple((2 if kind == "adjacent-pair" else 1) * x for x in b))
            for pairing, kind, b in zip(self.pairings, rel.orbit_type, self.coroot_orbits)
        )
        for o, (g, (pairing, a)) in enumerate(zip(relative_weyl(t).generators, rows)):
            m = _descended(t, g.matrix)
            for j, p in enumerate(pairing):
                image = (int(k == j) - p * x for k, x in enumerate(a))
                if any((x - y) % d if d else x != y for x, y, d in zip(image, m.column(j), moduli)):
                    raise InvariantViolation(f"reflection row {o} is not descended W0 generator {o}")
        return rows

    @functools.cached_property
    def cone(self):
        """The cone of `rootdatum._dominant_cone`, None with central directions."""
        free_rank = coinvariants(self.datum).quotient.free_rank
        return _dominant_cone(free_rank, self.pairings, self.heights)

    @functools.cached_property
    def kottwitz_rows(self):
        """(pi_1(G)_I's presentation, the Kottwitz map's rows on class
        coordinates): column j is the pi_1(G)_I class of unit class j's
        lift.  They act on any representative of a class, since pi_1(G)_I
        divides out the (1 - gamma) span."""
        pres = pi1_coinvariants_presentation(self.datum)
        cols = [pres.coordinates(pres.class_of(u)) for u in coinvariants(self.datum).unit_lifts]
        return pres, tuple(zip(*cols))

    @functools.cached_property
    def order_inverse(self):
        """(den, the rows of den A^-1) for A[O][O'] = <c_O, b_O'>."""
        basis = self.coroot_orbits
        inverse = _scaled_inverse([[dot(row, b) for b in basis] for row in self.pairings])
        if inverse is None:
            raise InvariantViolation("the orbit rows do not separate the coroot-orbit classes")
        den, m = inverse
        return den, tuple(m.row(i) for i in range(m.rows))

    def order_coordinates(self, x):
        """(Kottwitz component, den A^-1 p(x)) of the class with coordinates x."""
        pres, kottwitz = self.kottwitz_rows
        p = [dot(row, x) for row in self.pairings]
        return (pres.normal_form([dot(row, x) for row in kottwitz]),
                tuple([dot(row, p) for row in self.order_inverse[1]]))


@memo
def _substrate(t: TwistedRootDatum) -> _Substrate:
    """Build the substrate once per datum, on first use."""
    c = coinvariants(t)
    lifts, r = c.unit_lifts, c.quotient.free_rank
    pairings = tuple(
        tuple(sum(dot(u, t.base.simple_roots[i]) for i in orbit) for u in lifts)
        for orbit in relative_simple_roots(t).simple_orbit_list
    )
    if any(any(row[r:]) for row in pairings):
        raise InvariantViolation("a c_O row has a nonzero torsion entry")
    two_rho = full_root_system(t.base).two_rho
    return _Substrate(pairings=pairings, heights=tuple(dot(u, two_rho) for u in lifts), datum=t)


def class_height(t: TwistedRootDatum, cls) -> Fraction:
    """<average lift, 2 rho>, an integer on every class (a Fraction with
    denominator 1)."""
    return Fraction(dot(_substrate(t).heights, coinvariants(t).coordinates(cls)))


def is_dominant_class(t: TwistedRootDatum, cls):
    """The DominantClass witness, or None.  The certificate's entry for an
    absolute simple root i in the orbit O is <average, alpha_i> = <c_O, x> / |O|."""
    x = coinvariants(t).coordinates(cls)
    pairings = [dot(row, x) for row in _substrate(t).pairings]
    if any(p < 0 for p in pairings):
        return None
    by_root = {i: Fraction(p, len(orbit)) for orbit, p
               in zip(relative_simple_roots(t).simple_orbit_list, pairings) for i in orbit}
    return DominantClass(cls=cls, certificate=tuple(v for _i, v in sorted(by_root.items())))


def _walk(t: TwistedRootDatum, x):
    """(coordinates of the dominant class in the W0-orbit of the class with
    coordinates x, the chamber walk's word).  The walk steps by W0's
    reflection rows, and the normal form of its end is checked dominant."""
    sub = _substrate(t)
    point, word = dominant_walk(x, sub.reflections, len(full_root_system(t.base).positive))
    free, torsion = coinvariants(t).normal_form(point)
    x = free + torsion
    if not sub.dominant(x):
        raise InvariantViolation("the chamber walk ended outside the dominant cone")
    return x, word


def dominant_representative(t: TwistedRootDatum, cls):
    """The dominant class in the W0-orbit of cls, with the chamber walk's element
    carrying cls onto it (not the first such element in closure order); the
    class is the walk's end, checked dominant.  The witness and the element
    are built on each call."""
    c = coinvariants(t)
    x, word = _walk(t, c.coordinates(cls))
    generators = relative_weyl(t).generators
    w = WeylElement(functools.reduce(IntMatrix.mul, (generators[i].matrix for i in word),
                                     IntMatrix.identity(t.rank)), word=word)
    return is_dominant_class(t, c.normal_form(x)), w


@memo
def _class_row(t: TwistedRootDatum, x):
    """(<average, 2 rho>, dominance, Kottwitz component, order coordinates
    of the dominant representative) of the class with coordinates x, keyed
    on checked class coordinates: a class key would equate 2.0 with 2.  A
    dominant class is its own representative; any other is walked once.
    The component read at the representative is x's own: each reflection
    row moves x by m_O b_O, a coroot-orbit class that the Kottwitz map
    kills."""
    sub = _substrate(t)
    dominant = sub.dominant(x)
    rep = x if dominant else _walk(t, x)[0]
    return (dot(sub.heights, x), dominant) + sub.order_coordinates(rep)


def leq(t: TwistedRootDatum, lam, mu):
    """mu - lam as a nonnegative combination of coroot-orbit classes, or None.

    Reads the Kottwitz component and order coordinates of each class from
    the orbit rows: lam <= mu exactly when the components agree and A^-1
    applied to the pairing difference p(mu) - p(lam) is nonnegative.  The
    certificate (c(mu) - c(lam)) / den is the integer solution of mu - lam
    = sum n_O [coroot_O], unique by the verified injectivity of
    (Z Phi^vee)_I -> X_*(T)_I.
    """
    c, sub = coinvariants(t), _substrate(t)
    x, y = c.coordinates(lam), c.coordinates(mu)
    (component_x, c_x), (component_y, c_y) = sub.order_coordinates(x), sub.order_coordinates(y)
    diff = vec_sub(c_y, c_x)
    if component_x != component_y or any(v < 0 for v in diff):
        return None
    return OrderCertificate(coefficients=tuple(v // sub.order_inverse[0] for v in diff))


def hasse_covers(t: TwistedRootDatum, labels):
    """The Hasse edges (lower, upper) of the order among the labels, sorted.

    The labels are dominant classes, so each one's cached row holds its own
    order coordinates.  Within one Kottwitz component, lam <= mu exactly
    when c(mu) - c(lam) = den A^-1 (p(mu) - p(lam)) >= 0 entrywise, which
    raises the sum.  The covers of u are the maximal elements of its strict
    lower set: in decreasing sum, keep each one below u and below no kept
    one (bitmasks of strict lower sets, over the group sorted by sum).  No
    pair of labels is compared through `leq`.
    """
    c = coinvariants(t)
    groups = {}
    for cls in labels:
        component, coords = _class_row(t, c.coordinates(cls))[2:]
        groups.setdefault(component, []).append((sum(coords), coords, cls))
    covers = []
    for members in groups.values():
        members.sort()
        lower = []
        for i, (_, c_up, up) in enumerate(members):
            mask = 0
            for j in range(i - 1, -1, -1):
                _, c_lo, lo = members[j]
                if not mask >> j & 1 and all(map(operator.ge, c_up, c_lo)):
                    covers.append((lo, up))
                    mask |= lower[j] | 1 << j
            lower.append(mask)
    return tuple(sorted(covers))


def _project(t: TwistedRootDatum, v):
    """The class of a dominant absolute coweight, checked dominant."""
    if any(dot(v, alpha) < 0 for alpha in t.base.simple_roots):
        raise NonDominantError(f"{v} is not a dominant coweight")
    c = coinvariants(t)
    cls = c.class_of(v)
    if not _substrate(t).dominant(c.coordinates(cls)):
        raise InvariantViolation("projection of a dominant coweight must be dominant")
    return cls


# ---------------------------------------------------------------------------
# Bounded enumeration


def _torsion_combinations(c):
    return itertools.product(*[range(d) for d in c.quotient.invariant_factors])


def _has_invariant_central_direction(t: TwistedRootDatum) -> bool:
    """Does a nonzero rational free-coordinate direction pair to zero with
    every simple root?  Such directions make height slabs infinite."""
    return _substrate(t).cone is None


def enumerate_dominant_classes(t: TwistedRootDatum, max_height, coord_bound=None):
    """All dominant classes with <average, 2 rho> <= max_height, sorted.

    Without invariant central directions the free coordinates are a linear
    bijection of y = (<c_O, x>)_O over the simple-root orbits, and height =
    sum_O n_O y_O, so the search walks the simplex y >= 0, sum_O n_O y_O <=
    max_height, keeps the integral points, and pairs each with every torsion
    combination; every class it returns is re-checked.  Data with invariant
    central directions (tori, GL-like lattices) need an explicit
    coord_bound: a free-coordinate box is scanned.
    max_height and coord_bound are integers (an int, or a Fraction with
    denominator 1); a float or a bool is refused with ValueError("not an
    integer entry: ..."), and a negative coord_bound with ValueError too.
    """
    max_height = _integer(max_height)
    if coord_bound is not None:
        coord_bound = _integer(coord_bound)
        if coord_bound < 0:
            raise ValueError(f"coord_bound must be nonnegative: {coord_bound}")
    c = coinvariants(t)
    sub = _substrate(t)
    if sub.cone is None:
        if coord_bound is None:
            raise ValueError("datum has central directions; "
                             "pass coord_bound (--coord-bound on the command line)")
        box = itertools.product(range(-coord_bound, coord_bound + 1), repeat=c.quotient.free_rank)
        return sorted(cls for cls in itertools.product(box, _torsion_combinations(c))
                      if _within(sub, c.coordinates(cls), max_height))
    den, generators, weights = sub.cone
    out = list(itertools.product(
        _walk_cone(den, generators, weights, max_height, c.quotient.free_rank),
        _torsion_combinations(c)))
    for cls in out:
        if not _within(sub, c.coordinates(cls), max_height):
            raise InvariantViolation(f"the cone walk proposed {cls} outside the cone")
    out.sort()
    return out


def dominant_coweights_up_to_height(d: BasedRootDatum, max_height, coord_bound=None):
    """All dominant cocharacters v with <v, 2rho> <= max_height, sorted: the
    split case of `enumerate_dominant_classes`, whose classes are (v, ())
    as the split datum's coinvariants are X_*(T) itself.  Data with central
    directions need an explicit coord_bound, and the bounds are read as
    there."""
    return [v for v, _ in enumerate_dominant_classes(split_twisted(d), max_height, coord_bound)]


def _within(sub, x, bound):
    """Is the class with coordinates x dominant with <average, 2 rho> <= bound?"""
    return sub.dominant(x) and dot(sub.heights, x) <= bound


def dominant_image_monoid(t: TwistedRootDatum, max_height, coord_bound=None):
    """Classes of dominant absolute coweights, within the height bound.

    Projection preserves the 2*rho height, so this is the exact image of the
    bounded dominant cone upstairs in the bounded dominant cone downstairs.
    """
    sources = dominant_coweights_up_to_height(t.base, max_height, coord_bound)
    return sorted({_project(t, v) for v in sources})

