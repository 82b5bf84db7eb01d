"""Dominance on coinvariant classes: cones, orbits, order, projections.

A coinvariant class is dominant when its rational average pairs
nonnegatively with every absolute simple root; by invariance of the average
this agrees with the pairing against the relative simple roots.  The partial
order compares classes through the free basis of coroot-orbit classes, with
an explicit nonnegative-integer certificate (`leq`), and gives the Hasse
edges among a set of labels (`hasse_covers`); this module alone reads the
order coordinates both come from.  Heights are measured by the pairing of
the average with 2*rho, an exact rational that the dimension formulas force
to be an integer on dominant classes; bounded enumeration reads them, and
dominance, in integer arithmetic.
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
    dot,
    smith_normal_form,
    vec_sub,
)
from .galois import (
    TwistedRootDatum,
    coinvariants,
    group_order,
    group_sum,
    orbit_coroot_classes,
    relative_simple_roots,
)
from .rootdatum import (
    _dominant_cone,
    _walk_cone,
    dominant_coweights_up_to_height,
    full_root_system,
    rho_data,
)
from .weyl import WeylElement, dominant_walk, relative_weyl


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
    `coinvariants(t).coordinates` gives.  The average
    of a class is linear in them, with |I| times the average of unit class
    j equal to the group sum of the presentation's `unit_lifts[j]`.  So |I|
    times its pairings with the simple roots and with 2*rho are integer dot
    products with fixed rows; the torsion entries of those rows are zero,
    as torsion classes average to zero (checked on their group sums).

    The order solves mu - lam = sum c_O [coroot_O] on class coordinates,
    with U M V = D the Smith decomposition of M = [orbit coroot classes |
    torsion moduli] (rank k, diagonal d_i, L = lcm d_i).  With w = U x, a
    class's order key is (w_i mod d_i for i < k) + (w_i for i >= k), and its
    order coordinates c are the orbit entries of V z, where z_i =
    w_i L / d_i for i < k and 0 beyond.  By linearity lam <= mu exactly when
    the keys agree and c(mu) - c(lam) >= 0, with certificate
    (c(mu) - c(lam)) / L: the integer solution of the system, read without
    solving it per pair.

    Without invariant central directions, y_O = |I| <average, alpha_O> (one
    simple root per orbit) is an invertible map of the free coordinates,
    and |I| * height = sum_O N_O y_O.  `cone` holds (den, den times the free
    coordinates of each unit y_O, N_O); it is None with central directions.

    Orbit O's relative simple reflection is x -> x - <c_O, x> a_O, where c_O =
    (|O| / |I|) root_pairings[O[0]] pairs x with the sum of O's simple roots, and
    a_O = m_O [coroot_O] with m_O = 2 for an adjacent pair (alpha_i + alpha_j), else 1.
    """

    group_order: int          # |I|
    free_sums: tuple          # sum_gamma gamma(lift e_j), per free basis class j
    root_pairings: tuple      # per simple root alpha_i: |I| <average of basis class, alpha_i>
    heights: tuple            # |I| <average of basis class, 2 rho>, per basis class
    order_rows: tuple         # the rows of U
    order_moduli: tuple       # d_i for i < k
    order_lift: tuple         # per orbit O: V[O][i] * L / d_i for i < k
    order_scale: int          # L
    cone: tuple | None
    reflections: tuple        # (c_O, a_O) per orbit

    def scaled_height(self, x):
        """(|I| <average, 2 rho>, whether the class is dominant) for the class
        with coordinates x: integer dot products with the rows."""
        dominant = all([sum(map(operator.mul, row, x)) >= 0 for row in self.root_pairings])
        return dot(self.heights, x), dominant

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
    sums = [group_sum(t, v) for v in c.unit_lifts]
    if any(any(v) for v in sums[r:]):
        raise InvariantViolation("a torsion class has a nonzero average")
    free_sums = tuple(sums[:r])

    def row(chi):
        return tuple(dot(v, chi) for v in free_sums) + (0,) * s

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
    root_pairings = tuple(row(alpha) for alpha in t.base.simple_roots)
    heights = row(rho_data(t.base).two_rho)
    rel = relative_simple_roots(t)
    return _Substrate(
        group_order=group_order(t),
        free_sums=free_sums,
        root_pairings=root_pairings,
        heights=heights,
        order_rows=tuple(system.U.row(i) for i in range(r + s)),
        order_moduli=diagonal,
        order_lift=order_lift,
        order_scale=scale,
        cone=_dominant_cone(
            r, tuple(root_pairings[orbit[0]] for orbit in rel.simple_orbit_list), heights
        ),
        reflections=tuple(
            (tuple(len(orbit) * x // group_order(t) for x in root_pairings[orbit[0]]),
             tuple((2 if kind == "adjacent-pair" else 1) * x for x in free + torsion))
            for orbit, kind, (free, torsion) in zip(rel.simple_orbit_list, rel.orbit_type, orbit_classes)
        ),
    )


def class_height(t: TwistedRootDatum, cls) -> Fraction:
    """<average lift, 2 rho>; integral on dominant classes (tested)."""
    sub = _substrate(t)
    return Fraction(dot(sub.heights, coinvariants(t).coordinates(cls)), sub.group_order)


def is_dominant_class(t: TwistedRootDatum, cls):
    """The DominantClass witness, or None."""
    sub = _substrate(t)
    x = coinvariants(t).coordinates(cls)
    pairings = [dot(row, x) for row in sub.root_pairings]
    if any(p < 0 for p in pairings):
        return None
    return DominantClass(
        cls=cls, certificate=tuple(Fraction(p, sub.group_order) for p in pairings)
    )


def dominant_representative(t: TwistedRootDatum, cls):
    """The dominant class in the W0-orbit of cls, with the chamber walk's element
    carrying cls onto it (not the first such element in closure order); the
    class is read from the descended generators along the walk's word and
    checked dominant."""
    return _dominant_representative(t, coinvariants(t).coordinates(cls))[:2]


@functools.lru_cache(maxsize=None)
def _dominant_representative(t: TwistedRootDatum, x):
    """(witness, w, coordinates of the witness's class), keyed on checked
    class coordinates, as `_order_coordinates` is.  W0's generators,
    descended once per datum, act on x along the walk's word."""
    limit = len(full_root_system(t.base).positive)
    _point, word = dominant_walk(x, _substrate(t).reflections, limit)
    w0 = relative_weyl(t)
    descended = w0.descended_generators
    for i in reversed(word):
        x = descended[i].apply(x)
    c = coinvariants(t)
    witness = is_dominant_class(t, c.normal_form(x))
    if witness is None:
        raise InvariantViolation("the chamber walk ended outside the dominant cone")
    w = WeylElement(functools.reduce(IntMatrix.mul, (w0.generators[i].matrix for i in word),
                                     IntMatrix.identity(t.rank)), word=word)
    return witness, w, c.coordinates(witness.cls)


@functools.lru_cache(maxsize=None)
def _order_coordinates(t: TwistedRootDatum, x):
    """Keyed on checked class coordinates: a class key would equate 2.0 with 2."""
    return _substrate(t).order_coordinates(x)


def _order_gap(t: TwistedRootDatum, x, y):
    """c(y) - c(x), the L-scaled orbit coordinates of the difference, when
    the class with coordinates x lies below the one with y; else None."""
    key_x, c_x = _order_coordinates(t, x)
    key_y, c_y = _order_coordinates(t, y)
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
        key, coords = _order_coordinates(t, c.coordinates(cls))
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
    if not _substrate(t).scaled_height(c.coordinates(cls))[1]:
        raise InvariantViolation("projection of a dominant coweight must be dominant")
    return cls


def project_dominant(t: TwistedRootDatum, v) -> DominantClass:
    """Class of a dominant absolute coweight; dominance is preserved."""
    return is_dominant_class(t, _project(t, v))


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
    bijection of y = (|I| <average, alpha_O>)_O over the simple-root orbits,
    and |I| * height = sum_O N_O y_O, so the search walks the simplex y >= 0,
    sum_O N_O y_O <= |I| * max_height, keeps the integral points, and pairs
    each with every torsion combination; every class it returns is
    re-checked.  Data with invariant central directions (tori, GL-like
    lattices) need an explicit coord_bound: a free-coordinate box is scanned.
    """
    c = coinvariants(t)
    sub = _substrate(t)
    bound = sub.group_order * max_height
    if sub.cone is None:
        if coord_bound is None:
            raise ValueError("datum has invariant central directions; "
                             "pass coord_bound (--coord-bound on the command line)")
        box = itertools.product(range(-coord_bound, coord_bound + 1), repeat=c.quotient.free_rank)
        return sorted(cls for cls in itertools.product(box, _torsion_combinations(c))
                      if _within(sub, c.coordinates(cls), bound))
    den, generators, weights = sub.cone
    out = list(itertools.product(_walk_cone(den, generators, weights, bound),
                                 _torsion_combinations(c)))
    for cls in out:
        if not _within(sub, c.coordinates(cls), bound):
            raise InvariantViolation(f"the cone walk proposed {cls} outside the cone")
    out.sort()
    return out


def _within(sub, x, bound):
    """Is the class with coordinates x dominant with |I| <average, 2 rho> <= bound?"""
    h, dominant = sub.scaled_height(x)
    return h <= bound and dominant


def dominant_image_monoid(t: TwistedRootDatum, max_height, coord_bound=None):
    """Classes of dominant absolute coweights, within the height bound.

    Projection preserves the 2*rho height, so this is the exact image of the
    bounded dominant cone upstairs in the bounded dominant cone downstairs.
    """
    sources = dominant_coweights_up_to_height(t.base, max_height, coord_bound)
    return sorted({_project(t, v) for v in sources})


@frozen
class SurjectivityReport:
    center_is_torus: bool
    surjective_observed: bool
    image_size: int
    cone_size: int


def surjectivity_conditions(t: TwistedRootDatum, max_height=12, coord_bound=None) -> SurjectivityReport:
    """Condition (c) of the dominant-lifting criterion (X_*(T) -> X_*(T_ad)
    surjective) alongside the observed image within a bounded cone; the
    implication runs one way only, and both facts are reported as computed."""
    dec = smith_normal_form(IntMatrix.from_rows(t.base.simple_roots))
    k = t.base.num_simple
    center_is_torus = dec.rank == k and all(d == 1 for d in dec.diagonal[:k])
    image = dominant_image_monoid(t, max_height, coord_bound)
    cone = enumerate_dominant_classes(t, max_height, coord_bound)
    return SurjectivityReport(
        center_is_torus=center_is_torus,
        surjective_observed=set(image) == set(cone),
        image_size=len(image),
        cone_size=len(cone),
    )
