"""Property suites behind the `verify` command.

Each suite runs the module invariants against one twisted datum at bounded
sizes and reports pass/fail records with counterexample details; failures
are data, not exceptions, so the CLI can dump them and exit with the
property-failure status.
"""

from __future__ import annotations

import itertools
import random

from ._value import frozen
from .abelian import InvariantViolation
from .coweights import (
    _has_invariant_central_direction,
    dominant_representative,
    enumerate_dominant_classes,
    is_dominant_class,
)
from .dual import CHAR0, dual_twisted, fixed_group_descriptor
from .galois import (
    TwistedRootDatum,
    _matrix_order,
    coinvariants,
    coroot_coinvariants_exact_sequence,
    kottwitz_components,
)
from .rep import (
    branch_to_fixed_group,
    irreducible_character,
    is_dominant_character,
    total_dimension,
)
from .rootdatum import dominant_coweights_up_to_height, dualize
from .satake import component_of, component_parity, format_class
from .weyl import enumerate_absolute_weyl, fixed_weyl_subgroup, relative_weyl

SUITE_NAMES = ("exactness", "orbits", "parity", "weyl-oracle", "branching")


@frozen
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _bounded_kwargs(t, coord_bound=4):
    return {"coord_bound": coord_bound} if _has_invariant_central_direction(t) else {}


def run_suite(t: TwistedRootDatum, suite: str, seed=2024):
    if suite == "all":
        out = []
        for name in SUITE_NAMES:
            out.extend(run_suite(t, name, seed=seed))
        return out
    if suite == "exactness":
        return _suite_exactness(t)
    if suite == "orbits":
        return _suite_orbits(t)
    if suite == "parity":
        return _suite_parity(t)
    if suite == "weyl-oracle":
        return _suite_weyl_oracle(t)
    if suite == "branching":
        return _suite_branching(t, seed=seed)
    raise ValueError(f"unknown suite {suite!r}")


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
        classes = {component_of(t, coinvariants(t).class_of(v))
                   for v in itertools.product(box, repeat=t.rank)}
        out.append(CheckResult(
            "exactness",
            "component-coset-count",
            len(classes) == pi1.order(),
            detail=f"box found {len(classes)}, order {pi1.order()}",
        ))
    return out


def _suite_orbits(t, max_height=12):
    out = []
    kwargs = _bounded_kwargs(t)
    doms = enumerate_dominant_classes(t, max_height, **kwargs)
    w0 = relative_weyl(t)
    orbits = {w0.orbit(d) for d in doms}
    ok = len(orbits) == len(doms)
    detail = f"{len(doms)} dominant classes, {len(orbits)} orbits"
    for orb in orbits:
        n_dom = sum(1 for c in orb if is_dominant_class(t, c) is not None)
        if n_dom != 1:
            ok = False
            detail = f"orbit {orb} holds {n_dom} dominant classes"
            break
    out.append(CheckResult("orbits", "ball-bijection", ok, detail=detail))

    idem = all(
        dominant_representative(t, w0.act(w, d))[0].cls == d
        for d in doms[: min(len(doms), 8)]
        for w in w0.elements
    )
    out.append(CheckResult("orbits", "representative-invariance", idem))
    return out


def _suite_parity(t, max_height=20):
    """parity_check on every component the bound sees, from one enumeration."""
    kwargs = _bounded_kwargs(t)
    by_component = {}
    for cls in enumerate_dominant_classes(t, max_height, **kwargs):
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
    fixed = fixed_weyl_subgroup(t)
    out.append(CheckResult(
        "weyl-oracle",
        "relative-order-equals-fixed-subgroup",
        w0.order == len(fixed),
        detail=f"|W0| = {w0.order}, |W^I| = {len(fixed)}",
    ))
    try:
        desc = fixed_group_descriptor(t, CHAR0)
    except InvariantViolation as e:
        out.append(CheckResult("weyl-oracle", "folded-cartan", False, detail=str(e)))
        return out
    if desc.folded_cartan is not None:
        folded_order = len(enumerate_absolute_weyl(desc.folded_cartan.datum))
        out.append(CheckResult(
            "weyl-oracle",
            "folded-cartan-weyl-order",
            folded_order == len(fixed),
            detail=f"folded {folded_order}, oracle {len(fixed)}",
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
                if any(cls[1]):
                    continue
                if not is_dominant_character(dual_desc.folded_cartan.datum, cls[0]):
                    cone_ok = False
            out.append(CheckResult("weyl-oracle", "dominant-cone-geometry", cone_ok))
    return out


def _suite_branching(t, seed=2024, count=5, max_height=16):
    out = []
    try:
        desc = fixed_group_descriptor(t, CHAR0)
    except InvariantViolation as e:
        return [CheckResult("branching", "descriptor", False, detail=str(e))]
    if desc.folded_cartan is None:
        return [CheckResult("branching", "skipped-no-folded-data", True)]
    # Dominant characters of t = dominant coweights of the dual base.
    duals = dominant_coweights_up_to_height(
        dualize(t.base), max_height,
        coord_bound=4 if _has_invariant_central_direction(t) else None,
    )
    rng = random.Random(seed)
    sample = duals if len(duals) <= count else rng.sample(duals, count)
    ok = True
    detail = f"{len(sample)} weights"
    for lam in sample:
        try:
            res = branch_to_fixed_group(t, lam, CHAR0)
        except InvariantViolation as e:
            ok = False
            detail = f"weight {lam}: {e}"
            break
        dim_in = total_dimension(irreducible_character(t.base, lam))
        dim_out = sum(
            m * total_dimension(
                irreducible_character(desc.folded_cartan.datum, cls[0])
            )
            for cls, m in res.summands
        )
        if dim_in != dim_out:
            ok = False
            detail = f"weight {lam}: dims {dim_in} vs {dim_out}"
            break
    out.append(CheckResult("branching", "conservation-and-reconstruction", ok, detail=detail))
    return out
