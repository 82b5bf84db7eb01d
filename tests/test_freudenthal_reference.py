"""The integer Freudenthal recursion against the implementation it replaced.

The reference below is the earlier request-path code, kept as the oracle:
the recursion in `Fraction`s with the invariant form as a closure, rho as
half of 2rho, and the depth of each weight from a rational solve of
lam - nu over the simple roots.  The sweep covers every dominant weight up
to height 16 of every fixed preset's base, its dual and its folded datum,
plus SU7, and the 51 smallest-dimension weights of SU5 and Spin8-triality.
"""

import functools
import itertools
import sys
from fractions import Fraction

import pytest

from twisted_satake.abelian import InvariantViolation, dot, rational_solve, vec_sub
from twisted_satake.dual import fixed_group_descriptor
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rep import WeightMultiset, irreducible_character, total_dimension
from twisted_satake.rootdatum import (
    dominant_coweights_up_to_height,
    dualize,
    full_root_system,
    rho_data,
)

# ---------------------------------------------------------------------------
# Reference implementation


def ref_simple_coordinates(d, vector):
    sol = rational_solve(d.simple_roots, vector)
    if sol is None or any(x.denominator != 1 for x in sol):
        raise InvariantViolation("root outside the integral simple-root span")
    return tuple(int(x) for x in sol)


def ref_invariant_form(system):
    coroots = [c for _r, c in system.positive]

    def form(x, y):
        total = Fraction(0)
        for c in coroots:
            total += Fraction(dot(c, x)) * dot(c, y)
        return 2 * total

    return form


def ref_weight_support(d, lam):
    support = {lam}
    frontier = [lam]
    while frontier:
        new = []
        for nu in frontier:
            for alpha, coroot in zip(d.simple_roots, d.simple_coroots):
                p = dot(coroot, nu)
                current = nu
                for _ in range(p):
                    current = vec_sub(current, alpha)
                    if current not in support:
                        support.add(current)
                        new.append(current)
        frontier = new
    return support


def ref_two_rho(d):
    total = (0,) * d.rank
    for root, _c in full_root_system(d).positive:
        total = tuple(a + b for a, b in zip(total, root))
    return total


@functools.lru_cache(maxsize=None)
def ref_irreducible_character(d, lam):
    lam = tuple(int(x) for x in lam)
    if d.num_simple == 0:
        return WeightMultiset.make("absolute", {lam: 1})

    system = full_root_system(d)
    form = ref_invariant_form(system)
    rho = tuple(Fraction(x, 2) for x in ref_two_rho(d))
    support = ref_weight_support(d, lam)

    def depth(nu):
        coords = ref_simple_coordinates(d, vec_sub(lam, nu))
        return sum(coords)

    ordered = sorted(support, key=lambda nu: (depth(nu), nu))
    lam_rho = tuple(Fraction(x) + r for x, r in zip(lam, rho))
    norm_lam = form(lam_rho, lam_rho)
    mult = {lam: 1}
    for nu in ordered:
        if nu == lam:
            continue
        total = Fraction(0)
        for alpha, _coroot in system.positive:
            k = 1
            while True:
                shifted = tuple(x + k * a for x, a in zip(nu, alpha))
                m = mult.get(shifted)
                if m is None:
                    if shifted not in support:
                        break
                    m = 0
                if m:
                    total += m * form(shifted, alpha)
                k += 1
        nu_rho = tuple(Fraction(x) + r for x, r in zip(nu, rho))
        denom = norm_lam - form(nu_rho, nu_rho)
        if denom <= 0:
            raise InvariantViolation("Freudenthal denominator must be positive")
        value = 2 * total / denom
        if value.denominator != 1 or value < 0:
            raise InvariantViolation("Freudenthal produced a non-integer multiplicity")
        if value:
            mult[nu] = int(value)
    return WeightMultiset.make("absolute", mult)


# ---------------------------------------------------------------------------
# The sweep


def sweep_data(name):
    """(label, datum) for a preset's base, its dual and its folded datum."""
    t = preset(name)
    out = [(name, t.base), (name + "^", dualize(t.base))]
    folded = fixed_group_descriptor(t).folded_cartan
    if folded is not None:
        out.append((name + " folded", folded.datum))
    return out


SWEEP = [entry for name in DEFAULT_PRESET_NAMES + ("SU7",) for entry in sweep_data(name)]


def dominant_weights(d, height):
    coord = None if d.num_simple == d.rank else 2
    return dominant_coweights_up_to_height(dualize(d), height, coord_bound=coord)


@pytest.mark.parametrize("label,d", SWEEP, ids=[label for label, _d in SWEEP])
def test_characters_match_fraction_reference(label, d):
    for lam in dominant_weights(d, 16):
        assert irreducible_character(d, lam) == ref_irreducible_character(d, lam), (label, lam)


def weyl_dimension(d, lam):
    two_rho = rho_data(d).two_rho
    num = den = 1
    for _r, c in full_root_system(d).positive:
        num *= dot(c, lam) * 2 + dot(c, two_rho)
        den *= dot(c, two_rho)
    return num // den


def smallest_weights(d, count=51):
    """The nonzero dominant labels in the box 0..4 with the smallest Weyl
    dimension; simply connected data put the labels in the coordinates."""
    weights = [w for w in itertools.product(range(5), repeat=d.rank) if any(w)]
    return sorted(weights, key=lambda w: (weyl_dimension(d, w), w))[:count]


@pytest.mark.parametrize("name", ["SU5", "Spin8-triality"])
def test_smallest_weights_match_fraction_reference(name):
    d = preset(name).base
    for lam in smallest_weights(d):
        char = irreducible_character(d, lam)
        assert char == ref_irreducible_character(d, lam), lam
        assert total_dimension(char) == weyl_dimension(d, lam), lam


def test_warm_datum_miss_makes_no_rational_solve(monkeypatch):
    """Once a datum has answered one character, another character of it
    runs no rational solve at all: depth comes from the support walk."""
    d = preset("SU5").base
    irreducible_character.cache_clear()
    irreducible_character(d, (1, 0, 0, 0))
    calls = []

    def counting(*args):
        calls.append(args)
        return rational_solve(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("twisted_satake") and \
                getattr(module, "rational_solve", None) is rational_solve:
            monkeypatch.setattr(module, "rational_solve", counting)
    char = irreducible_character(d, (2, 1, 1, 3))
    assert irreducible_character.cache_info().misses == 2
    assert total_dimension(char) == weyl_dimension(d, (2, 1, 1, 3))
    assert calls == []
