"""Schubert combinatorics of the twisted affine Grassmannian.

Strata are dominant coinvariant classes graded by the pairing of the
average lift with 2*rho (an exact rational which the dimension theorem
forces to be a nonnegative integer); closures are computed by the
coroot-orbit dominance order; components by the Kottwitz class.  Cell
dimensions for the attractor intersections and their convolution analogues
are half-pairings, asserted integral exactly where the theory claims
integrality, so the assertion doubles as a defect detector.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._value import frozen
from .abelian import DimensionMismatch, InvariantViolation, vec_sub
from .coweights import (
    NonDominantError,
    _substrate,
    class_height,
    dominant_representative,
    enumerate_dominant_classes,
    is_dominant_class,
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
    if is_dominant_class(t, cls) is None:
        raise NonDominantError(f"{cls} is not a dominant class")


def _integral(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise InvariantViolation(f"{what} is not an integer: {x}")
    return int(x)


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
    _require_dominant(t, cls)
    h = class_height(t, cls)
    dim = _integral(h, "stratum dimension")
    if dim < 0:
        raise InvariantViolation("negative stratum dimension")
    return SchubertStratum(label=cls, dim=dim, component=component_of(t, cls))


@frozen
class SchubertPoset:
    datum: TwistedRootDatum
    strata: tuple          # SchubertStratum, sorted by (dim, label)
    relations: tuple       # ((lower label, upper label, certificate coefficients), ...)

    @property
    def labels(self):
        return tuple(s.label for s in self.strata)

    def covering_relations(self):
        """Hasse edges: lower < upper with nothing strictly between, sorted.

        With L(u) the strict lower set of u, the covers of u are L(u) minus
        the union of L(m) over the labels m in L(u).
        """
        labels = set(self.labels)
        lower = {}
        for lo, up, _c in self.relations:
            if lo != up:
                lower.setdefault(up, set()).add(lo)
        covers = []
        for up, below in lower.items():
            between = set().union(*(lower.get(m, ()) for m in below & labels))
            covers.extend((lo, up) for lo in below - between)
        return tuple(sorted(covers))


def strata_below(t: TwistedRootDatum, cls):
    """The dominant classes mu <= cls, sorted: walk the coefficient simplex
    sum c_O <= height/2 over the coroot-orbit classes (each step drops the
    height by exactly 2) and keep the dominant differences."""
    _require_dominant(t, cls)
    c = coinvariants(t)
    basis = orbit_coroot_classes(t)
    h = _integral(class_height(t, cls), "stratum dimension")
    unit = [tuple(int(i == j) for j in range(len(basis))) for i in range(len(basis))]
    out = set()
    for coeffs in _walk_cone(1, unit, (1,) * len(basis), h // 2):
        cur = cls
        for x, b in zip(coeffs, basis):
            cur = c.sub(cur, c.scale(x, b))
        if is_dominant_class(t, cur) is not None:
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
    poset = SchubertPoset(datum=t, strata=strata, relations=order_relations(t, labels))
    _check_poset(t, poset)
    return poset


def _check_poset(t, poset):
    # Dimensions strictly increase along strict order relations within a
    # component (each certificate step has positive height).
    dims = {s.label: s.dim for s in poset.strata}
    comp = {s.label: s.component for s in poset.strata}
    for lo, up, coeffs in poset.relations:
        if lo == up:
            continue
        if comp[lo] != comp[up]:
            raise InvariantViolation("comparable strata in different components")
        if dims[lo] >= dims[up]:
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
    _require_dominant(t, lam)
    rep, _w = dominant_representative(t, mu)
    nonempty = leq(t, rep.cls, lam) is not None
    if not nonempty:
        return MvCell(mu=mu, lam=lam, nonempty=False, dim=None)
    half = (class_height(t, mu) + class_height(t, lam)) / 2
    return MvCell(mu=mu, lam=lam, nonempty=True, dim=_integral(half, "cell half-pairing"))


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
    _require_dominant(t, lam)
    _require_dominant(t, lam2)
    rep1, _ = dominant_representative(t, mu)
    rep2, _ = dominant_representative(t, mu2)
    nonempty = (
        leq(t, rep1.cls, lam) is not None and leq(t, rep2.cls, lam2) is not None
    )
    if not nonempty:
        return ConvCell(mu=mu, mu2=mu2, lam=lam, lam2=lam2, nonempty=False, dim=None)
    total = (
        class_height(t, mu) + class_height(t, mu2)
        + class_height(t, lam) + class_height(t, lam2)
    ) / 2
    return ConvCell(
        mu=mu, mu2=mu2, lam=lam, lam2=lam2,
        nonempty=True, dim=_integral(total, "convolution half-pairing"),
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
    return _integral(Fraction(value, sub.group_order), "corr value")


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
