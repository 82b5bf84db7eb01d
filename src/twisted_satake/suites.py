"""Property suites behind the `verify` command.

Each suite runs the module invariants against one twisted datum at bounded
sizes and reports pass/fail records with counterexample details; failures
are data, not exceptions, so the CLI can dump them and exit with the
property-failure status.  Groups are walked as orbits, never listed.
"""

from __future__ import annotations

import itertools
import random

from ._value import frozen
from .abelian import InvariantViolation, dot
from .coweights import (
    _has_invariant_central_direction,
    _substrate,
    _walk,
    enumerate_dominant_classes,
)
from .dual import CHAR0, dual_twisted, fixed_group_descriptor
from .galois import (
    TwistedRootDatum,
    _matrix_order,
    coinvariants,
    coroot_coinvariants_exact_sequence,
    kottwitz_components,
    pi1_coinvariants_presentation,
    split_twisted,
)
from .rep import branch_to_fixed_group, is_dominant_character
from .rootdatum import dualize
from .satake import component_of, component_parity, format_class
from .weyl import _weyl_order, relative_weyl

WEYL_BOUND_DEFAULT = 10**6

# The suites' fixed sizes: the coordinate box for data with an invariant
# central direction, the height of each enumerated ball, and the seeded
# sample of dominant weights that the branching suite checks.
COORD_BOUND = 4
ORBITS_HEIGHT = 12
PARITY_HEIGHT = 20
BRANCHING_HEIGHT = 16
BRANCHING_SAMPLE = 5
BRANCHING_SEED = 2024


class EnumerationBoundExceeded(ValueError):
    """A Weyl group too large for the orbit oracle: an input error."""


@frozen
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _bounded_kwargs(t):
    return {"coord_bound": COORD_BOUND} if _has_invariant_central_direction(t) else {}


def _regular_orbit(d, permutations=()):
    """(|W|, |W^I|) from the orbit of rho^vee, on which W acts simply
    transitively (Humphreys, Reflection Groups and Coxeter Groups, 1.12).
    A point is held as its pairings p with the simple roots; s_i sends p to
    p - p_i (row i of the Cartan matrix), and where p_i > 0 it lengthens
    the element, so each level holds the points of one length.  rho^vee is
    fixed by each diagram automorphism g, so g(w rho^vee) = (g w g^-1)
    rho^vee, and W^I counts the points with p[s[i]] = p[i] for every
    permutation s.  Groups past WEYL_BOUND_DEFAULT are refused first."""
    order = _weyl_order(d, [(i,) for i in range(d.num_simple)])
    if order > WEYL_BOUND_DEFAULT:
        raise EnumerationBoundExceeded(
            f"Weyl group of order {order} exceeds bound {WEYL_BOUND_DEFAULT}")
    cartan = d.cartan_matrix()
    level = {(1,) * d.num_simple}
    size = fixed = 0
    while level:
        size += len(level)
        fixed += sum(all(p[s] == x for perm in permutations for s, x in zip(perm, p))
                     for p in level)
        level = {
            tuple(x - pi * a for x, a in zip(p, cartan[i]))
            for p in level
            for i, pi in enumerate(p)
            if pi > 0
        }
    return size, fixed


def _w0_orbit(t, cls):
    """The W0-orbit of a class, sorted: its closure under W0's reflection
    rows x -> x - <c_O, x> a_O, checked once per datum."""
    c = coinvariants(t)
    rows = _substrate(t).reflections
    orbit, frontier = {cls}, [cls]
    while frontier:
        x = c.coordinates(frontier.pop())
        new = {c.normal_form(tuple(v - dot(p, x) * b for v, b in zip(x, a)))
               for p, a in rows} - orbit
        orbit |= new
        frontier += new
    return tuple(sorted(orbit))


def _suite_exactness(t):
    out = []
    try:
        data = coroot_coinvariants_exact_sequence(t)
        out.append(CheckResult("exactness", "injectivity", data.injective))
        out.append(CheckResult(
            "exactness",
            "cokernel-is-pi1-coinvariants",
            data.cokernel == data.pi1_coinvariants,
            detail=f"cokernel {data.cokernel}, pi1_I {data.pi1_coinvariants}",
        ))
    except InvariantViolation as e:
        out.append(CheckResult("exactness", "sequence", False, detail=str(e)))
        return out

    # Brute-force coset count when the component group is finite and the
    # ambient rank is small enough for a box scan.
    pi1 = kottwitz_components(t)
    if pi1.is_finite and t.rank <= 3:
        box = range(-4, 5)
        c, pres = coinvariants(t), pi1_coinvariants_presentation(t)
        classes = {pres.class_of(c.lift(c.class_of(v)))
                   for v in itertools.product(box, repeat=t.rank)}
        out.append(CheckResult(
            "exactness",
            "component-coset-count",
            len(classes) == pi1.order(),
            detail=f"box found {len(classes)}, order {pi1.order()}",
        ))
    return out


def _suite_orbits(t):
    out = []
    doms = enumerate_dominant_classes(t, ORBITS_HEIGHT, **_bounded_kwargs(t))
    c = coinvariants(t)
    sub = _substrate(t)
    orbit_of = {d: _w0_orbit(t, d) for d in doms}
    orbits = set(orbit_of.values())
    ok = len(orbits) == len(doms)
    detail = f"{len(doms)} dominant classes, {len(orbits)} orbits"
    # A whole orbit meets the antidominant chamber too (by the longest
    # element); the orbit of a proper subgroup misses it at a regular class.
    for orb in orbits:
        n_dom = sum(sub.dominant(c.coordinates(x)) for x in orb)
        n_anti = sum(sub.dominant(c.coordinates(c.neg(x))) for x in orb)
        if (n_dom, n_anti) != (1, 1):
            ok = False
            detail = f"orbit {orb} holds {n_dom} dominant and {n_anti} antidominant classes"
            break
    out.append(CheckResult("orbits", "ball-bijection", ok, detail=detail))

    idem = all(
        _walk(t, c.coordinates(x))[0] == c.coordinates(d)
        for d in doms[: min(len(doms), 8)]
        for x in orbit_of[d]
    )
    out.append(CheckResult("orbits", "representative-invariance", idem))
    return out


def _suite_parity(t):
    """parity_check on every component the bound sees, from one enumeration."""
    by_component = {}
    for cls in enumerate_dominant_classes(t, PARITY_HEIGHT, **_bounded_kwargs(t)):
        by_component.setdefault(component_of(t, cls), []).append(cls)
    out = []
    for comp in sorted(by_component):
        tag = f"component-{format_class(comp)}"
        try:
            p = component_parity(t, comp, by_component[comp])
            out.append(CheckResult("parity", tag, True, detail=f"parity {p}"))
        except InvariantViolation as e:
            out.append(CheckResult("parity", tag, False, detail=str(e)))
    if not out:
        out.append(CheckResult("parity", "no-strata-in-bound", True))
    return out


def _suite_weyl_oracle(t):
    out = []
    w0 = relative_weyl(t)
    _order, fixed = _regular_orbit(t.base, [g.root_permutation for g in t.generators])
    out.append(CheckResult(
        "weyl-oracle",
        "relative-order-equals-fixed-subgroup",
        w0.order == fixed,
        detail=f"|W0| = {w0.order}, |W^I| = {fixed}",
    ))
    try:
        desc = fixed_group_descriptor(t, CHAR0)
    except InvariantViolation as e:
        out.append(CheckResult("weyl-oracle", "folded-cartan", False, detail=str(e)))
        return out
    if desc.folded_cartan is not None:
        folded_order, _fixed = _regular_orbit(desc.folded_cartan.datum)
        out.append(CheckResult(
            "weyl-oracle",
            "folded-cartan-weyl-order",
            folded_order == fixed,
            detail=f"folded {folded_order}, oracle {fixed}",
        ))
        # Braid spot check: the order of s_i s_j matches the folded Cartan.
        braid_ok = True
        cartan = desc.folded_cartan.datum.cartan_matrix()
        expected = {0: 2, 1: 3, 2: 4, 3: 6}
        for i in range(len(cartan)):
            for j in range(i + 1, len(cartan)):
                prod = w0.generators[i].matrix.mul(w0.generators[j].matrix)
                try:
                    order = _matrix_order(prod)
                except InvariantViolation:
                    braid_ok = False  # no order within the cap
                    continue
                want = expected.get(cartan[i][j] * cartan[j][i])
                if want is not None and order != want:
                    braid_ok = False
        out.append(CheckResult("weyl-oracle", "braid-relations", braid_ok))

        # Dominant-cone geometry: folded dominance agrees with the average
        # pairing dominance on a bounded ball.
        kwargs = _bounded_kwargs(t)
        dual = dual_twisted(t)
        dual_desc = fixed_group_descriptor(dual, CHAR0)
        if dual_desc.folded_cartan is not None:
            cone_ok = True
            for cls in enumerate_dominant_classes(t, 8, **kwargs):
                if not is_dominant_character(dual_desc.folded_cartan.datum, cls[0]):
                    cone_ok = False
            out.append(CheckResult("weyl-oracle", "dominant-cone-geometry", cone_ok))
    return out


def _suite_branching(t):
    out = []
    try:
        desc = fixed_group_descriptor(t, CHAR0)
    except InvariantViolation as e:
        return [CheckResult("branching", "descriptor", False, detail=str(e))]
    if desc.folded_cartan is None:
        return [CheckResult("branching", "skipped-no-folded-data", True)]
    # Dominant characters of t = dominant coweights of the dual base, the
    # classes of its split datum; that datum decides whether a box is needed.
    dual_split = split_twisted(dualize(t.base))
    duals = [v for v, _ in enumerate_dominant_classes(
        dual_split, BRANCHING_HEIGHT, **_bounded_kwargs(dual_split))]
    rng = random.Random(BRANCHING_SEED)
    sample = duals if len(duals) <= BRANCHING_SAMPLE else rng.sample(duals, BRANCHING_SAMPLE)
    ok = True
    detail = f"{len(sample)} weights"
    # branch_to_fixed_group raises unless the summands rebuild V(lam).
    for lam in sample:
        try:
            branch_to_fixed_group(t, lam, CHAR0)
        except InvariantViolation as e:
            ok = False
            detail = f"weight {lam}: {e}"
            break
    out.append(CheckResult("branching", "conservation-and-reconstruction", ok, detail=detail))
    return out


_SUITES = {
    "exactness": _suite_exactness,
    "orbits": _suite_orbits,
    "parity": _suite_parity,
    "weyl-oracle": _suite_weyl_oracle,
    "branching": _suite_branching,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(t: TwistedRootDatum, suite: str):
    if suite == "all":
        return [r for suite_fn in _SUITES.values() for r in suite_fn(t)]
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return _SUITES[suite](t)
