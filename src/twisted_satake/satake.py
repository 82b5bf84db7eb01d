"""Schubert combinatorics of the twisted affine Grassmannian.

Strata are dominant coinvariant classes graded by the pairing of the
average lift with 2*rho (an exact rational which the dimension theorem
forces to be a nonnegative integer, read in integer arithmetic); closures
are computed by the coroot-orbit dominance order, whose Hasse edges come
from each label's order coordinates (all comparable pairs only on demand,
`SchubertPoset.relations`); components by the Kottwitz class.  Cell
dimensions for the attractor intersections and their convolution analogues
are half-pairings, asserted integral exactly where the theory claims
integrality, so the assertion doubles as a defect detector.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction

from ._value import frozen
from .abelian import DimensionMismatch, InvariantViolation, vec_sub
from .coweights import (
    NonDominantError,
    _order_coordinates,
    _scaled_height,
    _substrate,
    dominant_representative,
    enumerate_dominant_classes,
    leq,
    order_relations,
)
from .galois import (
    TwistedRootDatum,
    coinvariants,
    orbit_coroot_classes,
    pi1_coinvariants_presentation,
    relative_simple_roots,
)
from .rootdatum import _walk_cone, rho_data


def _require_dominant(t, cls):
    """|I| <average, 2 rho> of a dominant class, an integer dot product;
    NonDominantError on a class that is not dominant."""
    h, dominant = _scaled_height(t, cls)
    if not dominant:
        raise NonDominantError(f"{cls} is not a dominant class")
    return h


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
    """The Kottwitz component of a coinvariant class; additive."""
    c = coinvariants(t)
    pres = pi1_coinvariants_presentation(t)
    return pres.class_of(c.lift(cls))


def stratum(t: TwistedRootDatum, cls) -> SchubertStratum:
    """The stratum attached to a dominant class, with its exact dimension."""
    dim = _integral(_require_dominant(t, cls), _substrate(t).group_order, "stratum dimension")
    if dim < 0:
        raise InvariantViolation("negative stratum dimension")
    return SchubertStratum(label=cls, dim=dim, component=component_of(t, cls))


@frozen
class SchubertPoset:
    """The strata of a closure or height bound and the Hasse edges of their
    order, computed from order coordinates by `closure_poset`."""

    datum: TwistedRootDatum
    strata: tuple          # SchubertStratum, sorted by (dim, label)
    covers: tuple          # Hasse edges (lower label, upper label), sorted

    @property
    def labels(self):
        return tuple(s.label for s in self.strata)

    @property
    def relations(self):
        """Every (lower, upper, certificate coefficients) with lower <= upper,
        sorted: `order_relations`, built on each read and by no command."""
        return order_relations(self.datum, self.labels)

    def covering_relations(self):
        """Hasse edges: lower < upper with nothing strictly between, sorted."""
        return self.covers


def strata_below(t: TwistedRootDatum, cls):
    """The dominant classes mu <= cls, sorted: walk the coefficient simplex
    sum c_O <= height/2 over the coroot-orbit classes (each step drops the
    height by exactly 2) and keep the dominant differences."""
    h = _integral(_require_dominant(t, cls), _substrate(t).group_order, "stratum dimension")
    c = coinvariants(t)
    basis = orbit_coroot_classes(t)
    unit = [tuple(int(i == j) for j in range(len(basis))) for i in range(len(basis))]
    out = set()
    for coeffs in _walk_cone(1, unit, (1,) * len(basis), h // 2):
        cur = cls
        for x, b in zip(coeffs, basis):
            cur = c.sub(cur, c.scale(x, b))
        if _scaled_height(t, cur)[1]:
            out.add(cur)
    return sorted(out)


def closure_poset(t: TwistedRootDatum, cls=None, max_height=None, coord_bound=None) -> SchubertPoset:
    """The stratification of a Schubert closure (given its open label), or of
    the union of strata within a height bound."""
    if (cls is None) == (max_height is None):
        raise ValueError("pass exactly one of cls / max_height")
    if cls is not None:
        labels = strata_below(t, cls)
    else:
        labels = enumerate_dominant_classes(t, max_height, coord_bound)
    strata = tuple(sorted((stratum(t, l) for l in labels), key=lambda s: (s.dim, s.label)))
    poset = SchubertPoset(datum=t, strata=strata, covers=_covers(t, labels))
    _check_poset(t, poset)
    return poset


def _covers(t, labels):
    """The Hasse edges among the labels, sorted.  Within one order key, lam
    <= mu exactly when c(mu) - c(lam) >= 0 entrywise, which raises the sum.
    The covers of u are the maximal elements of its strict lower set: in
    decreasing sum, keep each one below u and below no kept one (bitmasks
    of strict lower sets, over the group sorted by sum)."""
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
class MvCell:
    mu: tuple
    lam: tuple
    nonempty: bool
    dim: int | None


def mv_cell(t: TwistedRootDatum, mu, lam) -> MvCell:
    """The attractor-intersection cell: nonempty exactly when the dominant
    representative of mu lies below lam; then of dimension <mu + lam, rho>,
    an integer precisely in that case (asserted)."""
    # mu's height is read before the cached chamber walk, whose key would
    # take a non-integer entry such as 2.0 for its integer
    h = _require_dominant(t, lam) + _scaled_height(t, mu)[0]
    rep, _w = dominant_representative(t, mu)
    if leq(t, rep.cls, lam) is None:
        return MvCell(mu=mu, lam=lam, nonempty=False, dim=None)
    return MvCell(mu=mu, lam=lam, nonempty=True,
                  dim=_integral(h, 2 * _substrate(t).group_order, "cell half-pairing"))


@frozen
class ConvCell:
    mu: tuple
    mu2: tuple
    lam: tuple
    lam2: tuple
    nonempty: bool
    dim: int | None


def conv_cell(t: TwistedRootDatum, mu, mu2, lam, lam2) -> ConvCell:
    """Convolution analogue in the twisted labeling: both dominant
    representatives must sit below their closures; the dimension is the
    half-pairing of the total sum with 2*rho."""
    # heights first, as in mv_cell
    h = (_require_dominant(t, lam) + _require_dominant(t, lam2)
         + _scaled_height(t, mu)[0] + _scaled_height(t, mu2)[0])
    rep1, _ = dominant_representative(t, mu)
    rep2, _ = dominant_representative(t, mu2)
    nonempty = (
        leq(t, rep1.cls, lam) is not None and leq(t, rep2.cls, lam2) is not None
    )
    if not nonempty:
        return ConvCell(mu=mu, mu2=mu2, lam=lam, lam2=lam2, nonempty=False, dim=None)
    return ConvCell(
        mu=mu, mu2=mu2, lam=lam, lam2=lam2,
        nonempty=True, dim=_integral(h, 2 * _substrate(t).group_order, "convolution half-pairing"),
    )


# ---------------------------------------------------------------------------
# corr and parity


def corr(t: TwistedRootDatum, levi_orbits, v) -> int:
    """<class of v, 2 rho - 2 rho_M> for the Levi attached to a union of
    simple-root orbits: the Z-linear normalization shift between constant
    term functors.  Vanishes on the Levi coroot classes and is I-invariant."""
    rel = relative_simple_roots(t)
    levi_orbits = tuple(sorted(set(levi_orbits)))
    if any(i < 0 or i >= rel.relative_rank for i in levi_orbits):
        raise DimensionMismatch("Levi orbit index out of range")
    subset = set()
    for i in levi_orbits:
        subset.update(rel.simple_orbit_list[i])
    rd = rho_data(t.base)
    shift = vec_sub(rd.two_rho, rd.two_rho_levi(subset))
    sub, c = _substrate(t), coinvariants(t)
    value = sub.scaled_pairing(c.coordinates(c.class_of(tuple(v))), shift)
    return _integral(value, sub.group_order, "corr value")


def parity_check(t: TwistedRootDatum, component, max_height=20, coord_bound=None):
    """The parity of <., 2 rho> across the bounded dominant classes of one
    Kottwitz component; inconsistency is an invariant violation, never a
    silent answer.  None when the bound sees no stratum in the component."""
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
        for lo, up in poset.covering_relations()
    ]
    return {"nodes": nodes, "edges": edges}


def poset_to_json(poset: SchubertPoset) -> str:
    return json.dumps(poset_document(poset), sort_keys=True)


def poset_to_dot(poset: SchubertPoset) -> str:
    lines = ["digraph schubert {"]
    for s in poset.strata:
        lines.append(
            f'  "{format_class(s.label)}" [label="{format_class(s.label)} (dim {s.dim})"];'
        )
    for lo, up in poset.covering_relations():
        lines.append(f'  "{format_class(lo)}" -> "{format_class(up)}";')
    lines.append("}")
    return "\n".join(lines)
