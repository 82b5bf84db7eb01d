"""The dominant-weight Freudenthal recursion against the implementations it
replaced.

Two earlier request-path versions are kept as oracles.  The first is the
recursion in `Fraction`s with the invariant form as a closure, rho as half
of 2rho, and the depth of each weight from a rational solve of lam - nu over
the simple roots.  The second is the integer recursion over the full
saturated weight set, with depth from the simple-root-string walk that
generates it.  The sweep covers every dominant weight up to height 16 of
every fixed preset's base, its dual and its folded datum, plus SU7, and the
51 smallest-dimension weights of SU5 and Spin8-triality.
"""

import fractions
import functools
import itertools
from fractions import Fraction

import pytest

from twisted_satake.abelian import InvariantViolation, dot, vec_sub
from twisted_satake.coweights import dominant_coweights_up_to_height
from twisted_satake.dual import fixed_group_descriptor
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake import rep
from twisted_satake.rep import (
    WeightMultiset,
    irreducible_character,
    is_dominant_character,
    total_dimension,
)
from twisted_satake.rootdatum import (
    dualize,
    full_root_system,
)

from test_linalg_reference import rational_solve
from test_value import cold

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
        return WeightMultiset.make({lam: 1})

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
    return WeightMultiset.make(mult)


def ref_int_weight_support(d, lam):
    """The saturated weight set of the irreducible with highest weight lam,
    generated downward along simple-root strings, each weight mapped to its
    depth: the sum of the simple-root coordinates of lam - nu.  A step j
    down a string from nu has depth depth(nu) + j."""
    support = {lam: 0}
    frontier = [lam]
    while frontier:
        new = []
        for nu in frontier:
            depth = support[nu]
            for alpha, coroot in zip(d.simple_roots, d.simple_coroots):
                current = nu
                for j in range(1, dot(coroot, nu) + 1):
                    current = vec_sub(current, alpha)
                    if current not in support:
                        support[current] = depth + j
                        new.append(current)
        frontier = new
    return support


@functools.lru_cache(maxsize=None)
def ref_irreducible_character_int(d, lam):
    """The integer recursion over the full weight set, as it ran before the
    dominant-weight scheme."""
    lam = tuple(int(x) for x in lam)
    if d.num_simple == 0:
        return WeightMultiset.make({lam: 1})

    system = full_root_system(d)
    two_rho = system.two_rho
    support = ref_int_weight_support(d, lam)
    ordered = sorted(support, key=lambda nu: (support[nu], nu))
    norm_lam = system.norm(tuple(2 * x + r for x, r in zip(lam, two_rho)))
    mult = {lam: 1}
    for nu in ordered:
        if nu == lam:
            continue
        total = 0
        for (alpha, _coroot), (q, q_alpha) in zip(system.positive, system.form):
            base = dot(q, nu)
            k = 1
            while True:
                shifted = tuple(x + k * a for x, a in zip(nu, alpha))
                m = mult.get(shifted)
                if m is None:
                    if shifted not in support:
                        break
                    m = 0
                if m:
                    total += m * (base + k * q_alpha)
                k += 1
        denom = norm_lam - system.norm(tuple(2 * x + r for x, r in zip(nu, two_rho)))
        if denom <= 0:
            raise InvariantViolation("Freudenthal denominator must be positive")
        value, remainder = divmod(8 * total, denom)
        if remainder or value < 0:
            raise InvariantViolation("Freudenthal produced a non-integer multiplicity")
        if value:
            mult[nu] = value
    return WeightMultiset.make(mult)


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


@pytest.mark.parametrize("label,d", SWEEP, ids=[label for label, _d in SWEEP])
def test_characters_match_integer_reference(label, d):
    for lam in dominant_weights(d, 16):
        assert irreducible_character(d, lam) == ref_irreducible_character_int(d, lam), (label, lam)


def weyl_dimension(d, lam):
    two_rho = full_root_system(d).two_rho
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
        assert char == ref_irreducible_character_int(d, lam), lam
        assert total_dimension(char) == weyl_dimension(d, lam), lam


def test_warm_datum_miss_builds_no_fraction(monkeypatch):
    """Once a datum has answered one character, another character of it
    builds no `Fraction` at all: depth comes from the support walk, and the
    recursion runs in integers."""
    d = cold(preset("SU5").base)
    builds, real = [], rep._dominant_character.__wrapped__
    monkeypatch.setattr(rep._dominant_character, "__wrapped__",
                        lambda d, lam: builds.append(lam) or real(d, lam))
    irreducible_character(d, (1, 0, 0, 0))
    made = []
    real_new = fractions.Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    char = irreducible_character(d, (2, 1, 1, 3))
    monkeypatch.undo()
    assert builds == [(1, 0, 0, 0), (2, 1, 1, 3)]
    assert total_dimension(char) == weyl_dimension(d, (2, 1, 1, 3))
    assert made == []


def test_spin8_triality_4444():
    """95,569 weights, 799 of them dominant, and dimension 5^12 from the
    Weyl formula."""
    d = preset("Spin8-triality").base
    lam = (4, 4, 4, 4)
    char = irreducible_character(d, lam)
    assert len(char.entries) == 95_569
    assert sum(1 for nu, _m in char.entries if is_dominant_character(d, nu)) == 799
    assert weyl_dimension(d, lam) == 5 ** 12
    assert total_dimension(char) == 5 ** 12


@pytest.mark.parametrize("name,lam", [("SU5", (2, 1, 1, 2)), ("Spin8-triality", (1, 1, 1, 1))])
def test_missed_dominant_weight_is_caught(name, lam, monkeypatch):
    """A walk that loses one dominant weight cannot pass silently.  The
    deepest one is read by no other weight's recursion, so only the
    Weyl-dimension total can catch it."""
    d = cold(preset(name).base)
    walk = rep._dominant_support

    def lossy(d, lam):
        support = walk(d, lam)
        deepest = max(support, key=lambda nu: (support[nu], nu))
        del support[deepest]
        return support

    monkeypatch.setattr(rep, "_dominant_support", lossy)
    with pytest.raises(InvariantViolation):
        irreducible_character(d, lam)
