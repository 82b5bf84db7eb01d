"""The per-datum dominance substrate against the implementations it replaced.

The reference functions below are the earlier request-path code, kept as
oracles: `leq` by a fresh Smith normal form of [orbit coroots | (1 - gamma)
columns] per pair, heights and dominance by Fraction averages, the
box scans of dominant coweights and of dominant classes, the central-
direction test by a rational solve, the coefficient box below a stratum,
the all-pairs relation list `order_relations` and the triple-loop Hasse
diagram over it.  The central-direction test and the box bounds read
the group-sum substrate they read then
(`test_substrate_reference.ref_substrate`).  The sweep covers every fixed
preset, SU5, SU7, torus-rank-2 and a datum whose coinvariants carry
torsion, at small bounds.  The absolute enumeration that kept its own cone
walk and box scan before it became the split case of
`enumerate_dominant_classes` is kept verbatim as
`parent_dominant_coweights_up_to_height`.
"""

import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from twisted_satake import abelian, cli, coweights, rootdatum
from twisted_satake.abelian import (
    DependentBasisError,
    IntMatrix,
    InvariantViolation,
    _integer,
    dot,
    smith_normal_form,
    solve_integer,
    vec_scale,
    vec_sub,
)
from twisted_satake.coweights import (
    DominantClass,
    OrderCertificate,
    _has_invariant_central_direction,
    class_height,
    dominant_coweights_up_to_height,
    dominant_image_monoid,
    enumerate_dominant_classes,
    is_dominant_class,
    leq,
)
from twisted_satake.galois import (
    DiagramAutomorphism,
    TwistedRootDatum,
    average_map,
    average_vector,
    coinvariants,
    one_minus_gamma_columns,
    relative_simple_roots,
    split_twisted,
)
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rootdatum import (
    BasedRootDatum,
    _dominant_cone,
    _walk_cone,
    dualize,
    full_root_system,
    require_valid,
)
from twisted_satake.satake import closure_poset, corr, strata_below

from test_linalg_reference import fundamental_coweights_rational, rational_solve
from test_orbit_rows_reference import orbit_coroot_classes
from test_substrate_reference import ref_substrate
from test_value import cold

# ---------------------------------------------------------------------------
# Reference implementations


def dot_frac(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def ref_leq(t, lam, mu):
    c = coinvariants(t)
    rel = relative_simple_roots(t)
    cols = [t.base.simple_coroots[orbit[0]] for orbit in rel.simple_orbit_list]
    m = IntMatrix.from_columns(cols + one_minus_gamma_columns(t), nrows=t.rank)
    diff = c.normal_form(vec_sub(c.coordinates(mu), c.coordinates(lam)))
    sol = solve_integer(smith_normal_form(m), c.lift(diff))
    if sol is None:
        return None
    coeffs = tuple(sol[: len(cols)])
    if any(x < 0 for x in coeffs):
        return None
    return OrderCertificate(coefficients=coeffs)


def ref_class_height(t, cls):
    return dot_frac(average_map(t, cls), full_root_system(t.base).two_rho)


def ref_is_dominant_class(t, cls):
    avg = average_map(t, cls)
    pairings = tuple(dot_frac(avg, alpha) for alpha in t.base.simple_roots)
    if all(p >= 0 for p in pairings):
        return DominantClass(cls=cls, certificate=pairings)
    return None


def ref_corr(t, levi_orbits, v):
    """<Fraction average of the class of v, 2 rho - 2 rho_M>."""
    rel = relative_simple_roots(t)
    subset = {i for o in levi_orbits for i in rel.simple_orbit_list[o]}
    rd = full_root_system(t.base)
    shift = vec_sub(rd.two_rho, rd.two_rho_levi(subset))
    value = dot_frac(average_map(t, coinvariants(t).class_of(tuple(v))), shift)
    assert value.denominator == 1
    return int(value)


def ref_dominant_coweights_up_to_height(d, max_height, coord_bound=None):
    two_rho = full_root_system(d).two_rho
    if d.num_simple == d.rank:
        omegas = fundamental_coweights_rational(d)
        heights = [dot_frac(w, two_rho) for w in omegas]
        bounds = [
            int(sum((abs(w[i]) * max_height / h for w, h in zip(omegas, heights)), 0))
            for i in range(d.rank)
        ]
        ranges = [range(-b, b + 1) for b in bounds]
    else:
        ranges = [range(-coord_bound, coord_bound + 1)] * d.rank
    return sorted(
        v for v in itertools.product(*ranges)
        if all(sum(a * b for a, b in zip(v, alpha)) >= 0 for alpha in d.simple_roots)
        and sum(a * b for a, b in zip(v, two_rho)) <= max_height
    )


def _coord_bound(coord_bound):
    """coord_bound as an int, or None: read as `_integer` reads, and refused
    with ValueError when negative."""
    if coord_bound is None:
        return None
    coord_bound = _integer(coord_bound)
    if coord_bound < 0:
        raise ValueError(f"coord_bound must be nonnegative: {coord_bound}")
    return coord_bound


def parent_dominant_coweights_up_to_height(d: BasedRootDatum, max_height, coord_bound=None):
    """All dominant cocharacters v with <v, 2rho> <= max_height, sorted.

    For semisimple data v = sum c_i omega_i^vee with c_i = <v, alpha_i>, so
    the search walks the cone of c >= 0 with sum c_i <omega_i^vee, 2rho> <=
    max_height and keeps the integral combinations; `_dominant_cone` of the
    simple roots and 2rho gives the omega_i^vee and their heights once per
    datum.  Data with central directions need an explicit coord_bound,
    since their dominant cone is infinite in every height slab; for them a
    coordinate box is scanned.  max_height and coord_bound are integers (an
    int, or a Fraction with denominator 1); a float or a bool is refused
    with ValueError("not an integer entry: ..."), and a negative coord_bound
    with ValueError too.
    """
    max_height = _integer(max_height)
    coord_bound = _coord_bound(coord_bound)
    require_valid(d)
    two_rho = full_root_system(d).two_rho
    if d.num_simple != d.rank:
        if coord_bound is None:
            raise ValueError("datum has central directions; "
                             "pass coord_bound (--coord-bound on the command line)")
        box = itertools.product(range(-coord_bound, coord_bound + 1), repeat=d.rank)
        return sorted(
            v for v in box
            if all(dot(v, a) >= 0 for a in d.simple_roots) and dot(v, two_rho) <= max_height
        )

    den, generators, weights = _dominant_cone(d.rank, d.simple_roots, two_rho)
    return sorted(_walk_cone(den, generators, weights, max_height, d.rank))


def ref_fundamental_cone(d):
    """(den, den * omega_i^vee, den * <omega_i^vee, 2rho>) for a semisimple
    datum, with den the common denominator of the fundamental coweights."""
    omegas = fundamental_coweights_rational(d)
    den = math.lcm(1, *(x.denominator for w in omegas for x in w))
    scaled = tuple(tuple(int(x * den) for x in w) for w in omegas)
    two_rho = full_root_system(d).two_rho
    heights = tuple(dot(w, two_rho) for w in scaled)
    if any(h <= 0 for h in heights):
        raise InvariantViolation("fundamental coweight with nonpositive height")
    return den, scaled, heights


def order_relations(t, labels):
    """Every (lam, mu, certificate coefficients) with lam <= mu among the
    labels, sorted: the triples of `leq`, one call per pair."""
    out = []
    for lam, mu in itertools.product(labels, repeat=2):
        cert = leq(t, lam, mu)
        if cert is not None:
            out.append((lam, mu, cert.coefficients))
    return tuple(sorted(out))


def ref_covering_relations(t, poset):
    relations = order_relations(t, poset.labels)
    strict = {(lo, up) for lo, up, _c in relations if lo != up}
    covers = []
    for lo, up in sorted(strict):
        if not any((lo, mid) in strict and (mid, up) in strict
                   for mid in poset.labels if mid not in (lo, up)):
            covers.append((lo, up))
    return tuple(covers)


def ref_has_invariant_central_direction(t):
    sub = ref_substrate(t)
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


def ref_enumerate_dominant_classes(t, max_height, coord_bound=None):
    c = coinvariants(t)
    r = c.quotient.free_rank

    if ref_has_invariant_central_direction(t):
        if coord_bound is None:
            raise ValueError("datum has invariant central directions; pass coord_bound")
        ranges = [range(-coord_bound, coord_bound + 1)] * r
    else:
        ranges = [range(-b, b + 1) for b in _free_box(t, max_height)]

    out = []
    for free in itertools.product(*ranges):
        for torsion in itertools.product(*[range(d) for d in c.quotient.invariant_factors]):
            cls = (tuple(free), tuple(torsion))
            if class_height(t, cls) > max_height:
                continue
            if is_dominant_class(t, cls) is not None:
                out.append(cls)
    out.sort()
    return out


@functools.lru_cache(maxsize=None)
def _free_box(t, max_height):
    """Exact per-coordinate bounds covering every dominant class of height
    at most max_height: write the average over the averaged fundamental
    coweights (nonnegative coefficients, height-bounded) and push the cone
    vertices through the inverse of free-coords -> average."""
    sub = ref_substrate(t)
    if not sub.free_sums:
        return ()
    rel = relative_simple_roots(t)
    omegas = fundamental_coweights_rational(t.base)
    two_rho = full_root_system(t.base).two_rho
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


def ref_strata_below(t, cls):
    c = coinvariants(t)
    basis = orbit_coroot_classes(t)
    max_steps = int(class_height(t, cls)) // 2
    out = set()
    for coeffs in itertools.product(range(max_steps + 1), repeat=len(basis)):
        if sum(coeffs) > max_steps:
            continue
        cur = cls
        for x, b in zip(coeffs, basis):
            cur = c.normal_form(vec_sub(c.coordinates(cur), vec_scale(x, c.coordinates(b))))
        if is_dominant_class(t, cur) is not None:
            out.add(cur)
    return sorted(out)


# ---------------------------------------------------------------------------
# The sweep


def u3_like():
    """Rank-3 A2 lattice with the flip (a,b,c) -> (-c,-b,-a): X_*(T)_I = Z + Z/2."""
    base = BasedRootDatum.make(
        3, [(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (0, 1, -1)]
    )
    flip = DiagramAutomorphism.make([[0, 0, -1], [0, -1, 0], [-1, 0, 0]], (1, 0))
    return TwistedRootDatum.make(base, (flip,))


SWEEP = tuple(dict.fromkeys(DEFAULT_PRESET_NAMES + ("SU5", "SU7", "torus-rank-2", "U3-like")))


def datum(name):
    return u3_like() if name == "U3-like" else preset(name)


def bounds(t):
    """(height bound, coord_bound) small enough for the reference code."""
    if _has_invariant_central_direction(t):
        return 6, 2
    return (8 if t.rank > 3 else 12), None


def box_classes(t, reach):
    c = coinvariants(t)
    torsion = itertools.product(*[range(d) for d in c.quotient.invariant_factors])
    free = itertools.product(range(-reach, reach + 1), repeat=c.quotient.free_rank)
    return [(f, s) for f, s in itertools.product(free, torsion)]


@pytest.mark.parametrize("name", SWEEP)
def test_heights_and_witnesses_match_fraction_averages(name):
    t = datum(name)
    height, coord = bounds(t)
    classes = box_classes(t, 2) + enumerate_dominant_classes(t, height, coord)
    for cls in classes:
        assert class_height(t, cls) == ref_class_height(t, cls), cls
        assert is_dominant_class(t, cls) == ref_is_dominant_class(t, cls), cls


@pytest.mark.parametrize("name", SWEEP)
def test_corr_matches_fraction_average(name):
    t = datum(name)
    orbits = range(relative_simple_roots(t).relative_rank)
    rng = random.Random(name)
    vectors = [tuple(rng.randint(-4, 4) for _ in range(t.rank)) for _ in range(6)]
    for size in range(len(orbits) + 1):
        for levi in itertools.combinations(orbits, size):
            for v in vectors:
                assert corr(t, levi, v) == ref_corr(t, levi, v), (levi, v)


@pytest.mark.parametrize("name", SWEEP)
def test_leq_certificates_match_fresh_solver(name):
    t = datum(name)
    height, coord = bounds(t)
    for classes in (enumerate_dominant_classes(t, height, coord), box_classes(t, 1)):
        for lam, mu in itertools.product(classes, repeat=2):
            assert leq(t, lam, mu) == ref_leq(t, lam, mu), (lam, mu)


@pytest.mark.parametrize("name", SWEEP)
def test_covering_relations_match_triple_loop(name):
    t = datum(name)
    height, coord = bounds(t)
    poset = closure_poset(t, max_height=height, coord_bound=coord)
    assert poset.covers == ref_covering_relations(t, poset)


@pytest.mark.parametrize("name", SWEEP)
def test_covering_relations_below_each_label_match_triple_loop(name):
    t = datum(name)
    height, coord = bounds(t)
    for cls in enumerate_dominant_classes(t, height, coord):
        poset = closure_poset(t, cls=cls)
        assert poset.covers == ref_covering_relations(t, poset), cls


@pytest.mark.parametrize("name", SWEEP)
def test_cone_walk_matches_box_scan(name):
    t = datum(name)
    height, _coord = bounds(t)
    coord = None if t.base.num_simple == t.rank else 2
    for d in (t.base, dualize(t.base)):
        for h in (-1, 0, 1, height):
            assert dominant_coweights_up_to_height(d, h, coord) == \
                ref_dominant_coweights_up_to_height(d, h, coord), (d, h)


def test_cone_walk_larger_su5():
    d = preset("SU5").base
    assert dominant_coweights_up_to_height(d, 14) == ref_dominant_coweights_up_to_height(d, 14)


def test_smith_forms_do_not_grow_with_labels(monkeypatch):
    """closure_poset builds a constant number of Smith normal forms per
    datum, however many labels (and leq pairs) it compares."""
    calls = []
    real = abelian.smith_normal_form

    def counting(m):
        calls.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(abelian, "smith_normal_form", counting)
    monkeypatch.setattr(rootdatum, "smith_normal_form", counting)
    seen = {}
    for height in (20, 200):
        calls.clear()
        poset = closure_poset(cold(preset("SU3")), max_height=height)
        seen[height] = (len(poset.strata), len(calls))
    assert seen[200][0] > 5 * seen[20][0]
    assert seen[20][1] == seen[200][1] <= 5


def test_the_split_datum_of_a_base_is_built_once(monkeypatch):
    """One split datum per base: a repeated `dominant_image_monoid` reads
    the split datum's coinvariants and cone again and computes no Smith
    normal form after the first call."""
    calls = []
    real = abelian.smith_normal_form

    def counting(m):
        calls.append((m.rows, m.cols))
        return real(m)

    monkeypatch.setattr(abelian, "smith_normal_form", counting)
    monkeypatch.setattr(rootdatum, "smith_normal_form", counting)
    t = cold(preset("SU5"))
    assert split_twisted(t.base) is split_twisted(t.base)
    first = dominant_image_monoid(t, 8)
    assert calls
    calls.clear()
    assert dominant_image_monoid(t, 8) == first and calls == []


@pytest.mark.parametrize("name", SWEEP)
def test_central_direction_test_matches_rational_solve(name):
    t = datum(name)
    assert _has_invariant_central_direction(t) == ref_has_invariant_central_direction(t)


@pytest.mark.parametrize("name", SWEEP)
def test_relative_cone_walk_matches_box_scan(name):
    t = datum(name)
    height, coord = bounds(t)
    for h in (-1, 0, 1, 2, height):
        assert enumerate_dominant_classes(t, h, coord) == \
            ref_enumerate_dominant_classes(t, h, coord), h


def test_relative_cone_walk_su9():
    t = preset("SU9")
    classes = enumerate_dominant_classes(t, 12)
    assert classes == ref_enumerate_dominant_classes(t, 12)
    assert len(classes) == 2


@pytest.mark.parametrize("name", SWEEP)
def test_relations_match_per_pair_solver(name):
    t = datum(name)
    height, coord = bounds(t)
    poset = closure_poset(t, max_height=height, coord_bound=coord)
    expected = []
    for lo, up in itertools.product(poset.labels, repeat=2):
        cert = ref_leq(t, lo, up)
        if cert is not None:
            expected.append((lo, up, cert.coefficients))
    assert order_relations(t, poset.labels) == tuple(sorted(expected))


@pytest.mark.parametrize("name", SWEEP)
def test_strata_below_matches_coefficient_box(name):
    t = datum(name)
    height, coord = bounds(t)
    for cls in enumerate_dominant_classes(t, height, coord):
        assert strata_below(t, cls) == ref_strata_below(t, cls), cls


def test_closure_poset_makes_no_per_pair_solves(monkeypatch):
    """The order is read from per-class coordinates: closure_poset never
    calls the integer solver, however many label pairs it compares."""
    calls = []
    real = abelian.solve_integer

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("twisted_satake") and getattr(module, "solve_integer", None) is real:
            monkeypatch.setattr(module, "solve_integer", counting)
    t = cold(preset("SU3"))
    poset = closure_poset(t, max_height=200)
    assert len(order_relations(t, poset.labels)) > len(poset.strata) > 50
    assert calls == []


def _refuse_everywhere(monkeypatch, *names):
    """Patch each coweights function to raise, in every package module that
    binds it."""
    def refuse(*args):
        raise AssertionError(f"one of {names} was called")

    for attr in names:
        real = getattr(coweights, attr)
        for name, module in list(sys.modules.items()):
            if name.startswith("twisted_satake") and getattr(module, attr, None) is real:
                monkeypatch.setattr(module, attr, refuse)


def test_schubert_builds_no_relation_list(monkeypatch, capsys):
    """Hasse edges come from order coordinates: neither closure_poset nor
    the schubert command compares a pair of labels through `leq`."""
    _refuse_everywhere(monkeypatch, "leq")
    assert len(closure_poset(preset("SU3"), max_height=200).covers) == 100
    assert len(closure_poset(preset("SU4"), cls=((4, 4), ())).covers) > 5
    for fmt in ("table", "json", "dot"):
        assert cli.main(["schubert", "SU5", "--bound", "8", "--format", fmt]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["torus-rank-1", "torus-rank-2", "U3-like"])
def test_bounded_enumeration_builds_no_fraction_height(monkeypatch, name):
    """Box scans and cone walks read integer heights and dominance: with
    the Fraction-valued class_height and is_dominant_class refused, they
    still match the reference scan."""
    t = datum(name)
    cases = [(h, coord) for h in (-1, 0, 1, 2, 6) for coord in (1, 2)]
    expected = [ref_enumerate_dominant_classes(t, h, coord) for h, coord in cases]
    _refuse_everywhere(monkeypatch, "class_height", "is_dominant_class")
    assert [enumerate_dominant_classes(t, h, coord) for h, coord in cases] == expected


CONE_SWEEP = tuple(
    name for name in dict.fromkeys(DEFAULT_PRESET_NAMES + ("SU5", "SU7", "SU9"))
    if not name.startswith("torus")
)


@pytest.mark.parametrize("name", CONE_SWEEP)
def test_dominant_cone_matches_fundamental_coweights(name):
    """The one cone builder, on the simple roots and 2rho, gives the
    fundamental coweights and their heights, and the same bounded cone."""
    base = preset(name).base
    for d in (base, dualize(base)):
        if d.num_simple != d.rank:
            continue
        ref_den, scaled, ref_heights = ref_fundamental_cone(d)
        den, generators, weights = rootdatum._dominant_cone(
            d.rank, d.simple_roots, full_root_system(d).two_rho
        )
        assert [[Fraction(x, den) for x in g] for g in generators] == \
            [[Fraction(x, ref_den) for x in w] for w in scaled]
        assert [n * ref_den for n in weights] == list(ref_heights)
        for h in (-1, 0, 1, 2, 7, 12):
            assert dominant_coweights_up_to_height(d, h) == sorted(
                rootdatum._walk_cone(ref_den, scaled, ref_heights, ref_den * h, d.rank)
            ), h


SPLIT_CASE_SWEEP = tuple(dict.fromkeys(DEFAULT_PRESET_NAMES + ("SU7", "SU9", "SU11")))
SPLIT_CASE_HEIGHTS = (-1, 0, 1, 2, 7, 12, 16)


@pytest.mark.parametrize("name", SPLIT_CASE_SWEEP)
def test_split_case_matches_parent_enumeration(name):
    """The absolute enumeration is the split case of the twisted one: on
    each base and dual base it gives the earlier cone walk's and box scan's
    lists, and the classes of each split datum are those coweights with no
    torsion part.  Data with central directions are asked with boxes 2 and
    3, and both refuse them without a box, with the same message."""
    base = preset(name).base
    for d in (base, dualize(base)):
        central = d.num_simple != d.rank
        for coord in ((2, 3) if central else (None,)):
            for h in SPLIT_CASE_HEIGHTS:
                want = parent_dominant_coweights_up_to_height(d, h, coord)
                assert dominant_coweights_up_to_height(d, h, coord) == want, (d, h, coord)
                split = enumerate_dominant_classes(split_twisted(d), h, coord)
                assert split == [(v, ()) for v in want], (d, h, coord)
        if central:
            messages = []
            for enumerate_ in (parent_dominant_coweights_up_to_height,
                               dominant_coweights_up_to_height):
                with pytest.raises(ValueError) as caught:
                    enumerate_(d, 4)
                messages.append(str(caught.value))
            assert messages[0] == messages[1]
