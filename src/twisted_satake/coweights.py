"""Dominance on coinvariant classes: cones, orbits, order, projections.

A coinvariant class is dominant when its rational average pairs
nonnegatively with every absolute simple root; by invariance of the average
this agrees with the pairing against the relative simple roots.  The partial
order compares classes through the free basis of coroot-orbit classes, with
an explicit nonnegative-integer certificate.  Heights are measured by the
pairing of the average with 2*rho, an exact rational that the dimension
formulas force to be an integer on dominant classes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .abelian import (
    DependentBasisError,
    DimensionMismatch,
    IntMatrix,
    InvariantViolation,
    SmithDecomposition,
    dot,
    rational_solve,
    smith_normal_form,
    solve_integer,
    vec_sub,
)
from .galois import (
    TwistedRootDatum,
    average_map,
    average_vector,
    coinvariants,
    group_order,
    group_sum,
    orbit_coroot_classes,
    relative_simple_roots,
)
from .rootdatum import (
    dominant_coweights_up_to_height,
    dot_frac,
    fundamental_coweights_rational,
    pairing_with_roots_matrix,
    rho_data,
)
from .weyl import relative_weyl


class NonDominantError(ValueError):
    pass


@dataclass(frozen=True)
class DominantClass:
    cls: tuple
    certificate: tuple  # <average, alpha_i> over the absolute simple roots


@dataclass(frozen=True)
class OrderCertificate:
    coefficients: tuple  # one nonnegative integer per simple-coroot orbit


# ---------------------------------------------------------------------------
# The per-datum integer substrate


@dataclass(frozen=True)
class _Substrate:
    """Integer data that heights, dominance and the order read for one datum.

    Classes are read in coordinates (free..., torsion...).  The average of
    a class is linear in them, so |I| times its pairings with the simple
    roots and with 2*rho are integer dot products with fixed rows; the
    torsion entries of those rows are zero, as torsion classes average to
    zero.  The order is one integer system on the same coordinates,
    decomposed once.
    """

    group_order: int          # |I|
    torsion_rank: int
    free_sums: tuple          # sum_gamma gamma(lift e_j), per free basis class j
    root_pairings: tuple      # per simple root alpha_i: |I| <average of basis class, alpha_i>
    heights: tuple            # |I| <average of basis class, 2 rho>, per basis class
    num_orbits: int
    order_system: SmithDecomposition  # of [orbit coroot classes | torsion moduli]

    def coordinates(self, cls):
        """Free then torsion coordinates of a class, as one vector."""
        free, torsion = cls
        if len(free) != len(self.free_sums) or len(torsion) != self.torsion_rank:
            raise DimensionMismatch("class does not match this presentation")
        return tuple(free) + tuple(torsion)


@functools.lru_cache(maxsize=None)
def _substrate(t: TwistedRootDatum) -> _Substrate:
    """Build the substrate once per datum, on first use."""
    c = coinvariants(t)
    r, s = c.free_rank, len(c.torsion)

    def basis_sum(free_index, torsion_index):
        free = tuple(int(j == free_index) for j in range(r))
        torsion = tuple(int(k == torsion_index) for k in range(s))
        return group_sum(t, c.lift((free, torsion)))

    for k in range(s):
        if any(basis_sum(None, k)):
            raise InvariantViolation("a torsion class has a nonzero average")
    free_sums = tuple(basis_sum(j, None) for j in range(r))

    def row(chi):
        return tuple(dot(v, chi) for v in free_sums) + (0,) * s

    # mu - lam = sum c_O [coroot_O] in X_*(T)_I is an integer system on class
    # coordinates once each torsion coordinate may move by its invariant factor.
    orbit_classes = orbit_coroot_classes(t)
    moduli = [
        tuple(d if i == r + k else 0 for i in range(r + s)) for k, d in enumerate(c.torsion)
    ]
    system = IntMatrix.from_columns(
        [free + torsion for free, torsion in orbit_classes] + moduli, nrows=r + s
    )
    return _Substrate(
        group_order=group_order(t),
        torsion_rank=s,
        free_sums=free_sums,
        root_pairings=tuple(row(alpha) for alpha in t.base.simple_roots),
        heights=row(rho_data(t.base).two_rho),
        num_orbits=len(orbit_classes),
        order_system=smith_normal_form(system),
    )


def pair_with_character(t: TwistedRootDatum, cls, chi) -> Fraction:
    """<average lift of cls, chi>, exact."""
    return dot_frac(average_map(t, cls), chi)


def class_height(t: TwistedRootDatum, cls) -> Fraction:
    """<average lift, 2 rho>; integral on dominant classes (tested)."""
    sub = _substrate(t)
    return Fraction(dot(sub.heights, sub.coordinates(cls)), sub.group_order)


def is_dominant_class(t: TwistedRootDatum, cls):
    """The DominantClass witness, or None."""
    sub = _substrate(t)
    x = sub.coordinates(cls)
    pairings = [dot(row, x) for row in sub.root_pairings]
    if any(p < 0 for p in pairings):
        return None
    return DominantClass(
        cls=cls, certificate=tuple(Fraction(p, sub.group_order) for p in pairings)
    )


@functools.lru_cache(maxsize=None)
def dominant_representative(t: TwistedRootDatum, cls):
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


@functools.lru_cache(maxsize=None)
def leq(t: TwistedRootDatum, lam, mu):
    """mu - lam as a nonnegative combination of coroot-orbit classes, or None.

    The datum's one Smith decomposition of [orbit coroot classes | torsion
    moduli], built on first use, solves mu - lam = sum c_O [coroot_O] on
    class coordinates; the orbit part of a solution is unique by the
    verified injectivity of (Z Phi^vee)_I -> X_*(T)_I.
    """
    sub = _substrate(t)
    sol = solve_integer(sub.order_system, vec_sub(sub.coordinates(mu), sub.coordinates(lam)))
    if sol is None:
        return None
    coeffs = tuple(sol[: sub.num_orbits])
    if any(x < 0 for x in coeffs):
        return None
    return OrderCertificate(coefficients=coeffs)


def project_dominant(t: TwistedRootDatum, v) -> DominantClass:
    """Class of a dominant absolute coweight; dominance is preserved."""
    if any(sum(a * b for a, b in zip(v, alpha)) < 0 for alpha in t.base.simple_roots):
        raise NonDominantError(f"{v} is not a dominant coweight")
    c = coinvariants(t)
    witness = is_dominant_class(t, c.class_of(v))
    if witness is None:
        raise InvariantViolation("projection of a dominant coweight must be dominant")
    return witness


# ---------------------------------------------------------------------------
# Bounded enumeration


def _torsion_combinations(c):
    factors = [d for _i, d in c.presentation.torsion_slots]
    return itertools.product(*[range(d) for d in factors])


def _has_invariant_central_direction(t: TwistedRootDatum) -> bool:
    """Does a nonzero rational free-coordinate direction pair to zero with
    every simple root?  Such directions make height slabs infinite."""
    sub = _substrate(t)
    if not sub.free_sums:
        return False
    if not sub.root_pairings:
        return True
    # Columns of the pairing map free-coords -> (pairings with roots).
    cols = list(zip(*sub.root_pairings))[: len(sub.free_sums)]
    try:
        rational_solve(cols, (0,) * len(sub.root_pairings))
    except DependentBasisError:
        return True
    return False


def enumerate_dominant_classes(t: TwistedRootDatum, max_height, coord_bound=None):
    """All dominant classes with <average, 2 rho> <= max_height.

    The free-coordinate search box is derived exactly from the averaged
    fundamental-coweight cone; data with invariant central directions (tori,
    GL-like lattices) need an explicit coord_bound.
    """
    c = coinvariants(t)
    r = c.free_rank

    if _has_invariant_central_direction(t):
        if coord_bound is None:
            raise ValueError("datum has invariant central directions; pass coord_bound")
        ranges = [range(-coord_bound, coord_bound + 1)] * r
    else:
        ranges = [range(-b, b + 1) for b in _free_box(t, max_height)]

    out = []
    for free in itertools.product(*ranges):
        for torsion in _torsion_combinations(c):
            cls = (tuple(free), tuple(torsion))
            if class_height(t, cls) > max_height:
                continue
            if is_dominant_class(t, cls) is not None:
                out.append(cls)
    out.sort()
    return out


@functools.lru_cache(maxsize=None)
def _free_box(t: TwistedRootDatum, max_height):
    """Exact per-coordinate bounds covering every dominant class of height
    at most max_height: write the average over the averaged fundamental
    coweights (nonnegative coefficients, height-bounded) and push the cone
    vertices through the inverse of free-coords -> average."""
    sub = _substrate(t)
    if not sub.free_sums:
        return ()
    rel = relative_simple_roots(t)
    omegas = fundamental_coweights_rational(t.base)
    two_rho = rho_data(t.base).two_rho
    orbit_avgs = [average_vector(t, omegas[orbit[0]]) for orbit in rel.simple_orbit_list]
    heights = [dot_frac(v, two_rho) for v in orbit_avgs]
    if any(h <= 0 for h in heights):
        raise InvariantViolation("averaged fundamental coweight with nonpositive height")

    # Free coordinates of each orbit average; free_sums are |I| times the
    # averages of the free basis classes.
    orbit_coords = []
    for v in orbit_avgs:
        coords = rational_solve(sub.free_sums, v)
        if coords is None:
            raise InvariantViolation("orbit average outside the free span")
        orbit_coords.append([x * sub.group_order for x in coords])
    bounds = []
    for i in range(len(sub.free_sums)):
        total = Fraction(0)
        for coords, h in zip(orbit_coords, heights):
            total += abs(coords[i]) * Fraction(max_height) / h
        bounds.append(int(total))
    return tuple(bounds)


def dominant_image_monoid(t: TwistedRootDatum, max_height, coord_bound=None):
    """Classes of dominant absolute coweights, within the height bound.

    Projection preserves the 2*rho height, so this is the exact image of the
    bounded dominant cone upstairs in the bounded dominant cone downstairs.
    """
    sources = dominant_coweights_up_to_height(t.base, max_height, coord_bound)
    return sorted({project_dominant(t, v).cls for v in sources})


@dataclass(frozen=True)
class SurjectivityReport:
    center_is_torus: bool
    surjective_observed: bool
    height_bound: int
    image_size: int
    cone_size: int


def surjectivity_conditions(t: TwistedRootDatum, max_height=12, coord_bound=None) -> SurjectivityReport:
    """Condition (c) of the dominant-lifting criterion (X_*(T) -> X_*(T_ad)
    surjective) alongside the observed image within a bounded cone; the
    implication runs one way only, and both facts are reported as computed."""
    dec = smith_normal_form(pairing_with_roots_matrix(t.base))
    k = t.base.num_simple
    center_is_torus = dec.rank == k and all(d == 1 for d in dec.diagonal[:k])
    image = dominant_image_monoid(t, max_height, coord_bound)
    cone = enumerate_dominant_classes(t, max_height, coord_bound)
    return SurjectivityReport(
        center_is_torus=center_is_torus,
        surjective_observed=set(image) == set(cone),
        height_bound=max_height,
        image_size=len(image),
        cone_size=len(cone),
    )
