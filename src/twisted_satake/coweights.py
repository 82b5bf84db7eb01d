"""Dominance on coinvariant classes: cones, orbits, order, projections.

A coinvariant class is dominant when its rational average pairs
nonnegatively with every absolute simple root; by invariance of the average
this agrees with the pairing against the relative simple roots.  The partial
order compares classes through the free basis of coroot-orbit classes, with
an explicit nonnegative-integer certificate (`leq`), and gives the Hasse
edges among a set of labels (`hasse_covers`); this module alone reads the
order coordinates both come from.  Heights are measured by the pairing of
the average with 2*rho, an integer on every class.  Heights, dominance and
bounded enumeration read the orbit rows c_O of `weyl._orbit_pairings`, in
integer arithmetic.  The chamber walk to a dominant representative steps
by W0's reflection rows alone (`weyl._w0_reflections`, checked once per
datum against W0's descended generators).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from ._value import frozen
from .abelian import (
    IntMatrix,
    InvariantViolation,
    _integer,
    dot,
    smith_normal_form,
    vec_sub,
)
from .galois import (
    TwistedRootDatum,
    coinvariants,
    orbit_coroot_classes,
    relative_simple_roots,
)
from .rootdatum import (
    _coord_bound,
    _dominant_cone,
    _walk_cone,
    dominant_coweights_up_to_height,
    full_root_system,
)
from .weyl import WeylElement, _orbit_pairings, _w0_reflections, dominant_walk, relative_weyl


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
    """Integer data that heights, dominance, the order and the bounded cone
    read for one datum.

    Classes are read in the coordinates x = (free..., torsion...) that
    `coinvariants(t).coordinates` gives.  Dominance and heights are integer
    dot products with the orbit rows c_O of `weyl._orbit_pairings`: for i
    in the orbit O, <average, alpha_i> = <c_O, x> / |O|, so a class is
    dominant exactly when every <c_O, x> >= 0.  As 2*rho = sum n_i alpha_i
    with n_i = n_O constant on each orbit, <average, 2 rho> = sum_O n_O
    <c_O, x>, an integer on every class.  The torsion entries of the rows
    are zero, as torsion classes pair to zero (checked).

    The order solves mu - lam = sum c_O [coroot_O] on class coordinates,
    with U M V = D the Smith decomposition of M = [orbit coroot classes |
    torsion moduli] (rank k, diagonal d_i, L = lcm d_i).  With w = U x, a
    class's order key is (w_i mod d_i for i < k) + (w_i for i >= k), and its
    order coordinates c are the orbit entries of V z, where z_i =
    w_i L / d_i for i < k and 0 beyond.  By linearity lam <= mu exactly when
    the keys agree and c(mu) - c(lam) >= 0, with certificate
    (c(mu) - c(lam)) / L: the integer solution of the system, read without
    solving it per pair.

    Without invariant central directions, y_O = <c_O, x> is an invertible
    map of the free coordinates, and height = sum_O n_O y_O.  `cone` holds
    (den, den times the free coordinates of each unit y_O, n_O); it is None
    with central directions.
    """

    pairings: tuple           # c_O per simple-root orbit O, per basis class
    heights: tuple            # sum_O n_O c_O: <average of basis class, 2 rho>
    order_rows: tuple         # the rows of U
    order_moduli: tuple       # d_i for i < k
    order_lift: tuple         # per orbit O: V[O][i] * L / d_i for i < k
    order_scale: int          # L
    cone: tuple | None

    def dominant(self, x):
        """Is the class with coordinates x dominant?  Integer dot products
        with the orbit rows."""
        return all([sum(map(operator.mul, row, x)) >= 0 for row in self.pairings])

    def order_coordinates(self, x):
        """(order key, L-scaled orbit coordinates) of the class with coordinates x."""
        w = [dot(row, x) for row in self.order_rows]
        k = len(self.order_moduli)
        key = tuple(a % d for a, d in zip(w, self.order_moduli)) + tuple(w[k:])
        return key, tuple(dot(row, w) for row in self.order_lift)


@functools.lru_cache(maxsize=None)
def _substrate(t: TwistedRootDatum) -> _Substrate:
    """Build the substrate once per datum, on first use."""
    c = coinvariants(t)
    r, factors = c.quotient.free_rank, c.quotient.invariant_factors
    s = len(factors)
    pairings = _orbit_pairings(t)
    if any(any(row[r:]) for row in pairings):
        raise InvariantViolation("a c_O row has a nonzero torsion entry")
    roots = full_root_system(t.base)
    # n_O, the simple coordinate of 2 rho on each orbit O
    n = [sum(roots.simple_coordinates(root)[orbit[0]] for root, _ in roots.positive)
         for orbit in relative_simple_roots(t).simple_orbit_list]
    heights = tuple(sum(n_o * row[j] for n_o, row in zip(n, pairings)) for j in range(r + s))

    # mu - lam = sum c_O [coroot_O] in X_*(T)_I is an integer system on class
    # coordinates once each torsion coordinate may move by its invariant factor.
    orbit_classes = orbit_coroot_classes(t)
    moduli = [
        tuple(d if i == r + k else 0 for i in range(r + s)) for k, d in enumerate(factors)
    ]
    system = smith_normal_form(IntMatrix.from_columns(
        [free + torsion for free, torsion in orbit_classes] + moduli, nrows=r + s
    ))
    diagonal = system.diagonal[: system.rank]
    scale = math.lcm(1, *diagonal)
    order_lift = tuple(
        tuple(system.V[o, i] * (scale // d) for i, d in enumerate(diagonal))
        for o in range(len(orbit_classes))
    )
    return _Substrate(
        pairings=pairings,
        heights=heights,
        order_rows=tuple(system.U.row(i) for i in range(r + s)),
        order_moduli=diagonal,
        order_lift=order_lift,
        order_scale=scale,
        cone=_dominant_cone(r, pairings, heights),
    )


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


# Each per-class cache keeps at most this many entries: a session of distinct
# classes runs in bounded memory.
CLASS_CACHE_SIZE = 2**16


def _walk(t: TwistedRootDatum, x):
    """(coordinates of the dominant class in the W0-orbit of the class with
    coordinates x, the chamber walk's word).  The walk steps by W0's
    reflection rows, and the normal form of its end is checked dominant."""
    point, word = dominant_walk(x, _w0_reflections(t), len(full_root_system(t.base).positive))
    free, torsion = coinvariants(t).normal_form(point)
    x = free + torsion
    if not _substrate(t).dominant(x):
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


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def _attractor_row(t: TwistedRootDatum, x):
    """(<average, 2 rho> of the class with coordinates x, order key,
    L-scaled order coordinates of its dominant representative), keyed on
    checked class coordinates as `_class_row` is."""
    sub = _substrate(t)
    return (dot(sub.heights, x),) + sub.order_coordinates(_walk(t, x)[0])


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def _class_row(t: TwistedRootDatum, x):
    """(<average, 2 rho>, dominance, order key, L-scaled order coordinates)
    of the class with coordinates x, keyed on checked class coordinates: a
    class key would equate 2.0 with 2."""
    sub = _substrate(t)
    return (dot(sub.heights, x), sub.dominant(x)) + sub.order_coordinates(x)


def _attractor(t: TwistedRootDatum, x, key, coords):
    """(<average, 2 rho> of the class with coordinates x, whether its
    dominant representative lies below the class with the given order key
    and coordinates): one cached row and one entrywise comparison."""
    h, rep_key, rep = _attractor_row(t, x)
    return h, rep_key == key and all(map(operator.le, rep, coords))


def _order_gap(t: TwistedRootDatum, x, y):
    """c(y) - c(x), the L-scaled orbit coordinates of the difference, when
    the class with coordinates x lies below the one with y; else None."""
    key_x, c_x = _class_row(t, x)[2:]
    key_y, c_y = _class_row(t, y)[2:]
    diff = vec_sub(c_y, c_x)
    if key_x != key_y or any(v < 0 for v in diff):
        return None
    return diff


def leq(t: TwistedRootDatum, lam, mu):
    """mu - lam as a nonnegative combination of coroot-orbit classes, or None.

    Reads the order key and orbit coordinates of each class, computed once
    per class from the datum's one Smith decomposition of [orbit coroot
    classes | torsion moduli]: the certificate (c(mu) - c(lam)) / L is the
    integer solution of mu - lam = sum c_O [coroot_O], unique in its orbit
    part by the verified injectivity of (Z Phi^vee)_I -> X_*(T)_I.
    """
    c = coinvariants(t)
    diff = _order_gap(t, c.coordinates(lam), c.coordinates(mu))
    if diff is None:
        return None
    scale = _substrate(t).order_scale
    return OrderCertificate(coefficients=tuple(x // scale for x in diff))


def hasse_covers(t: TwistedRootDatum, labels):
    """The Hasse edges (lower, upper) of the order among the labels, sorted.

    Within one order key, lam <= mu exactly when c(mu) - c(lam) >= 0
    entrywise, which raises the sum.  The covers of u are the maximal
    elements of its strict lower set: in decreasing sum, keep each one below
    u and below no kept one (bitmasks of strict lower sets, over the group
    sorted by sum).  No pair of labels is compared through `leq`.
    """
    c = coinvariants(t)
    groups = {}
    for cls in labels:
        key, coords = _class_row(t, c.coordinates(cls))[2:]
        groups.setdefault(key, []).append((sum(coords), coords, cls))
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
    coord_bound = _coord_bound(coord_bound)
    c = coinvariants(t)
    sub = _substrate(t)
    if sub.cone is None:
        if coord_bound is None:
            raise ValueError("datum has invariant central directions; "
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

