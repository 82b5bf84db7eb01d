"""Schubert combinatorics of the twisted affine Grassmannian.

Strata are dominant coinvariant classes graded by the pairing of the
average lift with 2*rho (an integer on every class, read from the orbit
rows of `coweights`, and asserted nonnegative on dominant classes); closures
are computed by the coroot-orbit dominance order (same Kottwitz component,
and A^-1 applied to the pairing difference nonnegative), whose Hasse edges
`coweights.hasse_covers` reads from each label's order coordinates;
components are the Kottwitz class, read from the same cached row.  Cell
dimensions for the attractor intersections and their convolution analogues
are half-pairings, asserted integral exactly where the theory claims
integrality, so the assertion doubles as a defect detector; a `Cell` holds
that answer alone.  The `corr` shift pairs the coweight with one cached
I-invariant character 2*rho - 2*rho_M per (datum, Levi), so it reads no
class.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ._value import frozen
from .abelian import DimensionMismatch, InvariantViolation, _integers, dot, vec_sub
from .coweights import (
    CLASS_CACHE_SIZE,
    NonDominantError,
    _attractor,
    _class_row,
    _substrate,
    enumerate_dominant_classes,
    hasse_covers,
)
from .galois import TwistedRootDatum, coinvariants, orbit_coroot_classes, relative_simple_roots
from .rootdatum import _walk_cone, full_root_system


def _dominant_row(t, x, cls):
    """(<average, 2 rho>, Kottwitz component, order coordinates) of the class cls
    with coordinates x, read from its cached row; NonDominantError when it
    is not dominant."""
    h, dominant, component, coords = _class_row(t, x)
    if not dominant:
        raise NonDominantError(f"{cls} is not a dominant class")
    return h, component, coords


def _integral(num: int, den: int, what: str) -> int:
    """num / den, which the theory makes an integer (asserted)."""
    q, r = divmod(num, den)
    if r:
        raise InvariantViolation(f"{what} is not an integer: {Fraction(num, den)}")
    return q


@frozen
class SchubertStratum:
    label: tuple       # dominant coinvariant class
    dim: int           # <label, 2 rho>
    component: tuple   # class in pi_1(G)_I


def component_of(t: TwistedRootDatum, cls) -> tuple:
    """The Kottwitz component of a coinvariant class, a class of
    pi_1(G)_I; additive.  Read from the class's cached row."""
    return _class_row(t, coinvariants(t).coordinates(cls))[2]


def stratum(t: TwistedRootDatum, cls) -> SchubertStratum:
    """The stratum attached to a dominant class, with its exact dimension
    and component, both read from the class's one cached row."""
    dim, component, _coords = _dominant_row(t, coinvariants(t).coordinates(cls), cls)
    if dim < 0:
        raise InvariantViolation("negative stratum dimension")
    return SchubertStratum(label=cls, dim=dim, component=component)


@frozen
class SchubertPoset:
    """The strata of a closure or height bound and the Hasse edges of their
    order, from `coweights.hasse_covers`."""

    strata: tuple          # SchubertStratum, sorted by (dim, label)
    covers: tuple          # Hasse edges (lower label, upper label), sorted

    @property
    def labels(self):
        return tuple(s.label for s in self.strata)


def strata_below(t: TwistedRootDatum, cls):
    """The dominant classes mu <= cls, sorted: walk the coefficient simplex
    sum k_O <= height/2 over the coroot-orbit classes b_O (each step drops
    the height by exactly 2) and keep the dominant differences.  Each point
    is read on class coordinates, x - sum k_O coordinates(b_O), with one
    normal form."""
    c = coinvariants(t)
    sub = _substrate(t)
    x = c.coordinates(cls)
    h = _dominant_row(t, x, cls)[0]
    basis = [c.coordinates(b) for b in orbit_coroot_classes(t)]
    out = set()
    for point in _walk_cone(1, basis, (1,) * len(basis), h // 2, len(x)):
        free, torsion = c.normal_form(vec_sub(x, point))
        if sub.dominant(free + torsion):
            out.add((free, torsion))
    return sorted(out)


def closure_poset(t: TwistedRootDatum, cls=None, max_height=None, coord_bound=None) -> SchubertPoset:
    """The stratification of a Schubert closure (given its open label), or of
    the union of strata within a height bound.  The bounds are integers, as
    `enumerate_dominant_classes` requires: a float or a bool is refused
    with ValueError("not an integer entry: ..."), a negative coord_bound
    with ValueError too."""
    if (cls is None) == (max_height is None):
        raise ValueError("pass exactly one of cls / max_height")
    if cls is not None:
        labels = strata_below(t, cls)
    else:
        labels = enumerate_dominant_classes(t, max_height, coord_bound)
    strata = tuple(sorted((stratum(t, l) for l in labels), key=lambda s: (s.dim, s.label)))
    poset = SchubertPoset(strata=strata, covers=hasse_covers(t, labels))
    _check_poset(t, poset)
    return poset


def _check_poset(t, poset):
    """Components agree and dimensions strictly rise along every cover.  In
    a finite poset each strict relation is a chain of covers, so this is
    the same check on every strict order relation."""
    strata = {s.label: s for s in poset.strata}
    for lo, up in poset.covers:
        if strata[lo].component != strata[up].component:
            raise InvariantViolation("comparable strata in different components")
        if strata[lo].dim >= strata[up].dim:
            raise InvariantViolation("dimension does not increase along the order")


# ---------------------------------------------------------------------------
# Semi-infinite and convolution cells


@frozen
class Cell:
    """A semi-infinite or convolution cell: whether it is nonempty, and
    then its dimension."""

    nonempty: bool
    dim: int | None


def mv_cell(t: TwistedRootDatum, mu, lam) -> Cell:
    """The attractor-intersection cell: nonempty exactly when the dominant
    representative of mu lies below lam; then of dimension <mu + lam, rho>,
    an integer precisely in that case (asserted).  Each class is read as
    one coordinate vector and answered from one cached row."""
    c = coinvariants(t)
    h_lam, component, top = _dominant_row(t, c.coordinates(lam), lam)
    h_mu, below = _attractor(t, c.coordinates(mu), component, top)
    if not below:
        return Cell(nonempty=False, dim=None)
    return Cell(nonempty=True, dim=_integral(h_lam + h_mu, 2, "cell half-pairing"))


def conv_cell(t: TwistedRootDatum, mu, mu2, lam, lam2) -> Cell:
    """Convolution analogue in the twisted labeling: both dominant
    representatives must sit below their closures; the dimension is the
    half-pairing of the total sum with 2*rho."""
    c = coinvariants(t)
    h_lam, component, top = _dominant_row(t, c.coordinates(lam), lam)
    h_lam2, component2, top2 = _dominant_row(t, c.coordinates(lam2), lam2)
    h_mu, below = _attractor(t, c.coordinates(mu), component, top)
    h_mu2, below2 = _attractor(t, c.coordinates(mu2), component2, top2)
    h = h_lam + h_lam2 + h_mu + h_mu2
    if not (below and below2):
        return Cell(nonempty=False, dim=None)
    return Cell(nonempty=True, dim=_integral(h, 2, "convolution half-pairing"))


# ---------------------------------------------------------------------------
# corr and parity


def corr(t: TwistedRootDatum, levi_orbits, v) -> int:
    """<v, 2 rho - 2 rho_M> for the Levi attached to a union of simple-root
    orbits: the Z-linear normalization shift between constant term
    functors.  The character is I-invariant, so this is its pairing with
    the class of v; it vanishes on the Levi coroots."""
    levi_orbits = tuple(sorted(set(_integers(levi_orbits))))
    if levi_orbits and (levi_orbits[0] < 0
                        or levi_orbits[-1] >= relative_simple_roots(t).relative_rank):
        raise DimensionMismatch("Levi orbit index out of range")
    v = _integers(v)
    if len(v) != t.rank:
        raise DimensionMismatch(f"vector length {len(v)}, ambient rank {t.rank}")
    return dot(_corr_row(t, levi_orbits), v)


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def _corr_row(t: TwistedRootDatum, levi_orbits):
    """The character 2 rho - 2 rho_M for the Levi of the sorted orbit
    indices, in range.  A Levi that is a union of orbits makes it
    I-invariant, so it pairs alike with every lift of a class; checked
    once here: the transpose of every generator's lattice map fixes it."""
    rel = relative_simple_roots(t)
    subset = {i for o in levi_orbits for i in rel.simple_orbit_list[o]}
    system = full_root_system(t.base)
    shift = vec_sub(system.two_rho, system.two_rho_levi(subset))
    if any(g.lattice_map.transpose().apply(shift) != shift for g in t.generators):
        raise InvariantViolation("2 rho - 2 rho_M is not I-invariant")
    return shift


def parity_check(t: TwistedRootDatum, component, max_height=20, coord_bound=None):
    """The parity of <., 2 rho> across the bounded dominant classes of one
    Kottwitz component; inconsistency is an invariant violation, never a
    silent answer.  None when the bound sees no stratum in the component.
    The bounds are integers, as `enumerate_dominant_classes` requires: a
    float or a bool is refused with ValueError("not an integer entry: ..."),
    a negative coord_bound with ValueError too."""
    labels = enumerate_dominant_classes(t, max_height, coord_bound)
    members = [cls for cls in labels if component_of(t, cls) == component]
    return component_parity(t, component, members)


def component_parity(t: TwistedRootDatum, component, classes):
    """The common parity of the stratum dimensions of dominant classes in
    one component; InvariantViolation when they disagree, None when empty."""
    parities = {stratum(t, cls).dim % 2 for cls in classes}
    if not parities:
        return None
    if len(parities) != 1:
        raise InvariantViolation(
            f"parity is not constant on component {component}: {sorted(parities)}"
        )
    return parities.pop()


# ---------------------------------------------------------------------------
# Export


def format_class(cls) -> str:
    free, torsion = cls
    head = ",".join(str(x) for x in free)
    if torsion:
        head = head + ";" + ",".join(str(x) for x in torsion)
    return head or "0"


def poset_document(poset: SchubertPoset) -> dict:
    """The strata and covering relations as JSON-ready nodes and edges."""
    nodes = [
        {"label": format_class(s.label), "dim": s.dim, "component": format_class(s.component)}
        for s in poset.strata
    ]
    edges = [
        {"lower": format_class(lo), "upper": format_class(up)}
        for lo, up in poset.covers
    ]
    return {"nodes": nodes, "edges": edges}


def poset_to_dot(poset: SchubertPoset) -> str:
    lines = ["digraph schubert {"]
    for s in poset.strata:
        lines.append(
            f'  "{format_class(s.label)}" [label="{format_class(s.label)} (dim {s.dim})"];'
        )
    for lo, up in poset.covers:
        lines.append(f'  "{format_class(lo)}" -> "{format_class(up)}";')
    lines.append("}")
    return "\n".join(lines)
