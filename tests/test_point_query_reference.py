"""The point queries `mv_cell`, `conv_cell` and `corr` against the code they
replaced.

The reference functions below are the earlier request-path code, kept as
oracles: each class is converted to coordinates each time it is read, the
dominant representative is read from the walk's whole Weyl element acting
through lift -> apply -> class_of (one new matrix per class), "rep <= lam"
is an `OrderCertificate` from `leq` on the earlier order key and
coordinates (`test_substrate_reference.ref_leq`), and corr rebuilds 2 rho_M from the
positive roots on every call.  `class_corr` is `corr` as it stood while it
reduced v to its class and paired the free coordinates with a cached row
of unit-lift pairings.  They read the group-sum substrate
(`test_substrate_reference.ref_substrate`) that the code read then.  A seeded table over every default preset and
SU7 compares answers, exception types and messages (corr's with both of its
oracles), and so does a seeded stream of 5,000 distinct SU7 classes.  On
every Levi subset of the 14 presets, SU7, SU9, SU11 and four golden files,
each with its dual, corr equals both oracles on 40 seeded coweights, and a
Levi that takes one root per orbit is refused as not I-invariant.

`ref_walk` is the chamber walk `coweights._walk` as it stood before it
kept its own end point: it dropped the end of the walk by the reflection
rows (read here from `test_orbit_rows_reference._w0_reflections`) and replayed the word through W0's generators, descended to class
coordinates once per datum.  The walk is compared with it on seeded classes
of every default preset, SU7, SU9 and a datum whose coinvariants are
Z + Z/2.  Bounds check that point queries descend no matrix per class, that
a warm walk applies no matrix at all, that long chamber walks build no Weyl
element and no Fraction, and that every keyed memo of the package has
one finite size.
"""

import functools
import importlib
import itertools
import pkgutil
import random
from fractions import Fraction

import pytest

import inspect

import twisted_satake
from twisted_satake import coweights, rep, satake, weyl
from twisted_satake._value import CLASS_CACHE_SIZE
from twisted_satake.abelian import (
    DimensionMismatch,
    IntMatrix,
    InvariantViolation,
    _integers,
    dot,
    vec_sub,
)
from twisted_satake.cli import datum_from_dict
from twisted_satake.coweights import (
    NonDominantError,
    dominant_representative,
    is_dominant_class,
)
from twisted_satake.dual import dual_twisted
from twisted_satake.galois import RelativeRootData, coinvariants, relative_simple_roots
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rootdatum import full_root_system
from twisted_satake.satake import Cell, _integral, conv_cell, corr, mv_cell
from twisted_satake.weyl import WeylElement, _descended, dominant_walk, relative_weyl

from test_cli_golden import FILES
from test_orbit_rows_reference import _w0_reflections
from test_substrate_reference import ref_leq, ref_substrate
from test_value import cold
from test_weyl_reference import ref_act, u3_like

DATA = DEFAULT_PRESET_NAMES + ("SU7",)


def _refuse(*args, **kwargs):
    raise AssertionError("built on the point-query path")


# ---------------------------------------------------------------------------
# The earlier code, with the substrate method and helpers it read


def _scaled_pairing(sub, x, chi):
    """|I| <average of the class with coordinates x, chi>, an integer:
    torsion classes average to zero."""
    return dot(x[: len(sub.free_sums)], [dot(v, chi) for v in sub.free_sums])


def _scaled_height(t, cls):
    """(|I| <average, 2 rho>, whether the class is dominant): integer dot
    products with the substrate rows, building no Fraction."""
    sub = ref_substrate(t)
    x = coinvariants(t).coordinates(cls)
    return dot(sub.heights, x), all(dot(row, x) >= 0 for row in sub.root_pairings)


def _require_dominant(t, cls):
    """|I| <average, 2 rho> of a dominant class, an integer dot product;
    NonDominantError on a class that is not dominant."""
    h, dominant = _scaled_height(t, cls)
    if not dominant:
        raise NonDominantError(f"{cls} is not a dominant class")
    return h


def ref_dominant_representative(t, cls):
    """The chamber walk's element, acting as one matrix per class."""
    x = coinvariants(t).coordinates(cls)
    limit = len(full_root_system(t.base).positive)
    _point, word = dominant_walk(x, _w0_reflections(t), limit)
    w0 = relative_weyl(t)
    w = WeylElement(functools.reduce(IntMatrix.mul, (w0.generators[i].matrix for i in word),
                                     IntMatrix.identity(t.rank)), word=word)
    witness = is_dominant_class(t, ref_act(t, w, coinvariants(t).normal_form(x)))
    if witness is None:
        raise InvariantViolation("the chamber walk ended outside the dominant cone")
    return witness, w


@functools.lru_cache(maxsize=None)
def descended_generators(t):
    """Each W0 generator's integer map on class coordinates, as
    `RelativeWeylGroup.descended_generators` built it once per datum."""
    return tuple(_descended(t, g.matrix) for g in relative_weyl(t).generators)


def ref_walk(t, x):
    """(coordinates of the dominant class in the W0-orbit of the class with
    coordinates x, the chamber walk's word).  W0's generators, descended
    once per datum, act on x along the word, and the end is checked dominant."""
    sub = ref_substrate(t)
    _point, word = dominant_walk(x, _w0_reflections(t), len(full_root_system(t.base).positive))
    descended = descended_generators(t)
    for i in reversed(word):
        x = descended[i].apply(x)
    free, torsion = coinvariants(t).normal_form(x)
    x = free + torsion
    if not sub.scaled_height(x)[1]:
        raise InvariantViolation("the chamber walk ended outside the dominant cone")
    return x, word


def ref_mv_cell(t, mu, lam):
    h = _require_dominant(t, lam) + _scaled_height(t, mu)[0]
    rep, _w = ref_dominant_representative(t, mu)
    if ref_leq(t, rep.cls, lam) is None:
        return Cell(nonempty=False, dim=None)
    return Cell(nonempty=True,
                dim=_integral(h, 2 * ref_substrate(t).group_order, "cell half-pairing"))


def ref_conv_cell(t, mu, mu2, lam, lam2):
    h = (_require_dominant(t, lam) + _require_dominant(t, lam2)
         + _scaled_height(t, mu)[0] + _scaled_height(t, mu2)[0])
    rep1, _ = ref_dominant_representative(t, mu)
    rep2, _ = ref_dominant_representative(t, mu2)
    nonempty = (
        ref_leq(t, rep1.cls, lam) is not None and ref_leq(t, rep2.cls, lam2) is not None
    )
    if not nonempty:
        return Cell(nonempty=False, dim=None)
    return Cell(
        nonempty=True, dim=_integral(h, 2 * ref_substrate(t).group_order, "convolution half-pairing"),
    )


def ref_corr(t, levi_orbits, v):
    rel = relative_simple_roots(t)
    levi_orbits = tuple(sorted(set(levi_orbits)))
    if any(i < 0 or i >= rel.relative_rank for i in levi_orbits):
        raise DimensionMismatch("Levi orbit index out of range")
    subset = set()
    for i in levi_orbits:
        subset.update(rel.simple_orbit_list[i])
    rd = full_root_system(t.base)
    shift = vec_sub(rd.two_rho, rd.two_rho_levi(subset))
    sub, c = ref_substrate(t), coinvariants(t)
    value = _scaled_pairing(sub, c.coordinates(c.class_of(tuple(v))), shift)
    return _integral(value, sub.group_order, "corr value")


def class_corr(t, levi_orbits, v) -> int:
    """<class of v, 2 rho - 2 rho_M> for the Levi attached to a union of
    simple-root orbits: the Z-linear normalization shift between constant
    term functors.  Vanishes on the Levi coroot classes and is I-invariant."""
    levi_orbits = tuple(sorted(set(_integers(levi_orbits))))
    if levi_orbits and (levi_orbits[0] < 0
                        or levi_orbits[-1] >= relative_simple_roots(t).relative_rank):
        raise DimensionMismatch("Levi orbit index out of range")
    free, _torsion = coinvariants(t).class_of(v)
    return dot(_class_corr_row(t, levi_orbits), free)


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def _class_corr_row(t, levi_orbits):
    """<lift of each free unit class, 2 rho - 2 rho_M> for the Levi of the
    sorted orbit indices, in range.  The character is I-invariant, so any
    lift gives the pairing of the average, and torsion classes pair to zero."""
    rel = relative_simple_roots(t)
    subset = {i for o in levi_orbits for i in rel.simple_orbit_list[o]}
    system = full_root_system(t.base)
    shift = vec_sub(system.two_rho, system.two_rho_levi(subset))
    c = coinvariants(t)
    return tuple(dot(v, shift) for v in c.unit_lifts[: c.quotient.free_rank])


# ---------------------------------------------------------------------------
# The seeded table


def _outcome(call):
    try:
        return "ok", call()
    except Exception as e:  # the exception's type and message are the answer
        return "raised", type(e), str(e)


def _random_class(t, rng, box=4):
    return coinvariants(t).class_of(tuple(rng.randint(-box, box) for _ in range(t.rank)))


def _label(t, rng):
    """A class for a lam slot: mostly dominant, sometimes not, sometimes
    malformed, with the bad value at a seeded place."""
    cls = _random_class(t, rng, 3)
    roll = rng.random()
    if roll < 0.7:
        return ref_dominant_representative(t, cls)[0].cls
    if roll < 0.8:
        free, torsion = cls
        return free + (0,), torsion
    if roll < 0.9 and cls[0]:
        free = list(cls[0])
        free[rng.randrange(len(free))] = rng.choice((Fraction(1, 2), 2.0, True))
        return tuple(free), cls[1]
    return cls


def _mu(t, rng):
    """A class for a mu slot: mostly well formed, sometimes malformed."""
    cls = _random_class(t, rng)
    if rng.random() < 0.1:
        return cls[0], cls[1] + (0,)
    return cls


def _cases(name):
    t = preset(name)
    rng = random.Random(f"point-query:{name}")
    n_orbits = relative_simple_roots(t).relative_rank
    cases = []
    for _ in range(40):
        mu, lam = _mu(t, rng), _label(t, rng)
        cases.append(("mv", (t, mu, lam)))
    for _ in range(20):
        lam, lam2 = _label(t, rng), _label(t, rng)
        cases.append(("conv", (t, _mu(t, rng), _mu(t, rng), lam, lam2)))
    for _ in range(40):
        levi = [i for i in range(-1, n_orbits + 1) if rng.random() < 0.4]
        if rng.random() < 0.7:
            levi = [i for i in levi if 0 <= i < n_orbits]
        v = [rng.randint(-4, 4) for _ in range(t.rank + (rng.random() < 0.1))]
        if v and rng.random() < 0.05:
            v[0] = Fraction(1, 3)
        cases.append(("corr", (t, levi, v)))
    return cases


CALLS = {"mv": (mv_cell, ref_mv_cell), "conv": (conv_cell, ref_conv_cell), "corr": (corr, ref_corr)}


@pytest.mark.parametrize("name", DATA)
def test_point_queries_match_the_earlier_code(name):
    answered = raised = 0
    for kind, args in _cases(name):
        new, old = CALLS[kind]
        got, want = _outcome(lambda: new(*args)), _outcome(lambda: old(*args))
        assert got == want, (kind, args[1:])
        if kind == "corr":
            assert got == _outcome(lambda: class_corr(*args)), args[1:]
        answered += got[0] == "ok"
        raised += got[0] == "raised"
    assert answered >= 50 and raised >= 5, (answered, raised)


SWEEP_FILES = ("torsion.json", "e6-flip.json", "d4-s3.json", "sl2-rot6.json")
SWEEP = DEFAULT_PRESET_NAMES + ("SU7", "SU9", "SU11") + SWEEP_FILES


def _sweep_datum(name, dual):
    t = datum_from_dict(FILES[name]) if name in FILES else preset(name)
    return dual_twisted(t) if dual else t


@pytest.mark.parametrize("dual", (False, True), ids=("datum", "dual"))
@pytest.mark.parametrize("name", SWEEP)
def test_corr_is_the_pairing_with_the_class(name, dual):
    """On every Levi subset and 40 seeded coweights with entries in [-9, 9],
    the pairing with v equals the class pairing of `class_corr` and the
    averaged pairing of `ref_corr`, on each datum and its dual (among them
    X_*(T)_I = Z + Z/2 and its dual)."""
    t = _sweep_datum(name, dual)
    rng = random.Random(f"corr-sweep:{name}:{dual}")
    vectors = [tuple(rng.randint(-9, 9) for _ in range(t.rank)) for _ in range(40)]
    orbits = range(relative_simple_roots(t).relative_rank)
    for k in range(len(orbits) + 1):
        for levi in itertools.combinations(orbits, k):
            for v in vectors:
                got = corr(t, levi, v)
                assert got == class_corr(t, levi, v) == ref_corr(t, levi, v), (levi, v)


FAULT_DATA = ("SU3", "SU5", "SU7", "Spin8-triality", "SL2xSL2-swap", "PSU3")


def test_a_levi_that_is_no_union_of_orbits_is_refused(monkeypatch):
    """Planted fault: each orbit gives only its first simple root to the
    Levi.  Then 2 rho - 2 rho_M is not I-invariant whenever a chosen orbit
    has two roots or more, and `_corr_row` refuses all 15 such subsets of
    these data; subsets of one-root orbits still answer."""
    real = relative_simple_roots

    def first_roots(t):
        rel = real(t)
        return RelativeRootData(simple_orbit_list=tuple(o[:1] for o in rel.simple_orbit_list),
                                orbit_type=rel.orbit_type)

    monkeypatch.setattr(satake, "relative_simple_roots", first_roots)
    refused = 0
    for name in FAULT_DATA:
        t = cold(preset(name))
        orbits = real(t).simple_orbit_list
        v = tuple(range(1, t.rank + 1))
        for k in range(len(orbits) + 1):
            for levi in itertools.combinations(range(len(orbits)), k):
                if all(len(orbits[o]) == 1 for o in levi):
                    assert corr(t, levi, v) == ref_corr(t, levi, v)
                    continue
                with pytest.raises(InvariantViolation, match="^2 rho - 2 rho_M is not I-invariant$"):
                    corr(t, levi, v)
                refused += 1
    assert refused == 15


@pytest.mark.parametrize("name", ("SU5", "SU7", "Spin8-triality", "G2"))
def test_table_reaches_both_cell_answers(name):
    """The table is not all empty cells: some mu lies below its lam."""
    cells = [_outcome(lambda: mv_cell(*args)) for kind, args in _cases(name) if kind == "mv"]
    assert {o[1].nonempty for o in cells if o[0] == "ok"} == {True, False}


def test_dominant_representative_keeps_its_element():
    """The public call still returns the walk's element, whose descended
    action carries the class onto its dominant representative."""
    for name in ("SU5", "SU7", "Spin8-triality", "PSU3"):
        t = preset(name)
        rng = random.Random(name)
        for _ in range(30):
            cls = _random_class(t, rng)
            got = dominant_representative(t, cls)
            assert got == ref_dominant_representative(t, cls)
            assert got[1].word == ref_dominant_representative(t, cls)[1].word
            assert ref_act(t, got[1], cls) == got[0].cls


WALK_DATA = {**{name: preset for name in DEFAULT_PRESET_NAMES + ("SU7", "SU9")},
             "u3-like": lambda _name: u3_like()}


@pytest.mark.parametrize("name", WALK_DATA)
def test_walk_matches_the_replayed_walk(name):
    """The walk's own end point, in normal form, is the class the earlier
    code read by replaying the word through the descended generators, on
    seeded coordinates with negative entries and torsion entries outside
    [0, d)."""
    t = WALK_DATA[name](name)
    c = coinvariants(t)
    rng = random.Random(f"walk:{name}")
    n = c.quotient.free_rank + len(c.quotient.invariant_factors)
    for box in (1, 3, 10, 40) * 15:
        x = tuple(rng.randint(-box, box) for _ in range(n))
        assert coweights._walk(t, x) == ref_walk(t, x), x


@pytest.mark.parametrize("name", ("SU7", "Spin8-triality", "u3-like"))
def test_warm_walk_applies_no_matrix(monkeypatch, name):
    """On a warm datum `coweights._walk` calls `IntMatrix.apply` zero times:
    it steps by the reflection rows and reads their end point."""
    t = WALK_DATA[name](name)
    c = coinvariants(t)
    rng = random.Random(f"warm:{name}")
    n = c.quotient.free_rank + len(c.quotient.invariant_factors)
    points = [tuple(rng.randint(-20, 20) for _ in range(n)) for _ in range(200)]
    want = [ref_walk(t, x) for x in points]
    coweights._walk(t, points[0])   # warms the datum's own records
    calls = []
    real_apply = IntMatrix.apply

    def counting_apply(self, v):
        calls.append(v)
        return real_apply(self, v)

    monkeypatch.setattr(IntMatrix, "apply", counting_apply)
    assert [coweights._walk(t, x) for x in points] == want
    assert calls == []


def test_point_queries_descend_no_matrix_per_class(monkeypatch):
    """W0's reflection rows are checked against the descended generators
    once per datum; after the first query, 500 mv queries on new classes
    answer with `weyl._descended` refused."""
    t = preset("SU7")
    rng = random.Random(500)

    def query():
        lam = dominant_representative(t, _random_class(t, rng, 3))[0].cls
        return mv_cell(t, _random_class(t, rng), lam)

    query()
    monkeypatch.setattr(weyl, "_descended", _refuse)
    cells = [query() for _ in range(500)]
    assert any(cell.nonempty for cell in cells) and not all(cell.nonempty for cell in cells)


def _long_walks(t, rng, n, box=60, min_steps=7):
    """n seeded classes with entries in [-box, box] whose chamber walk takes
    at least min_steps reflections."""
    c = coinvariants(t)
    out = []
    while len(out) < n:
        x = tuple(rng.randint(-box, box) for _ in range(c.quotient.free_rank))
        if len(coweights._walk(t, x)[1]) >= min_steps:
            out.append(c.normal_form(x))
    return out


def test_long_walks_build_no_weyl_element_or_fraction(monkeypatch):
    """On SU7 classes with entries up to 60 and walks of 7-9 reflections,
    mv_cell and conv_cell answer as the earlier code does while
    `IntMatrix.mul` and `Fraction` raise: the walk builds no Weyl element and
    no dominance witness."""
    t = preset("SU7")
    rng = random.Random("long-walks")
    mus = _long_walks(t, rng, 40)
    lams = [ref_dominant_representative(t, mu)[0].cls for mu in mus]
    lams = lams[1:] + lams[:1]      # each mu's own label, and its neighbour's
    cases = [("mv", (t, mu, lam)) for mu, lam in zip(mus, lams)]
    cases += [("mv", (t, mu, lams[i - 1])) for i, mu in enumerate(mus)]
    cases += [("conv", (t, mus[i], mus[i + 1], lams[i - 1], lams[i])) for i in range(0, 38, 2)]
    want = [_outcome(lambda: CALLS[kind][1](*args)) for kind, args in cases]
    # A value-equal copy with its datum records warm (by a query on the
    # zero class) and no other class rows.
    walked, real = [], coweights._attractor_row.__wrapped__
    monkeypatch.setattr(coweights._attractor_row, "__wrapped__",
                        lambda t, x: walked.append(x) or real(t, x))
    warm = cold(t)
    zero = coinvariants(warm).normal_form((0,) * coinvariants(warm).quotient.free_rank)
    mv_cell(warm, zero, zero)
    conv_cell(warm, zero, zero, zero, zero)
    walked.clear()
    cases = [(kind, (warm, *args[1:])) for kind, args in cases]
    monkeypatch.setattr(IntMatrix, "mul", _refuse)
    monkeypatch.setattr(Fraction, "__new__", _refuse)
    got = [_outcome(lambda: CALLS[kind][0](*args)) for kind, args in cases]
    monkeypatch.undo()
    assert got == want
    assert len(walked) == len(mus)
    assert {o[1].nonempty for o in got if o[0] == "ok"} == {True, False}


def test_stream_of_distinct_classes_matches_the_earlier_code():
    """A seeded stream of 5,000 distinct SU7 classes, each asked once through
    mv_cell against a few dominant labels and through corr, answers as the
    earlier code does."""
    t = preset("SU7")
    c = coinvariants(t)
    rng = random.Random("stream:SU7")
    labels = [ref_dominant_representative(t, _random_class(t, rng, box))[0].cls
              for box in (2, 5, 10, 20, 40, 60)]
    seen = set()
    while len(seen) < 5_000:
        x = tuple(rng.randint(-60, 60) for _ in range(c.quotient.free_rank))
        if x in seen:
            continue
        seen.add(x)
        mu, lam = c.normal_form(x), rng.choice(labels)
        assert mv_cell(t, mu, lam) == ref_mv_cell(t, mu, lam), (mu, lam)
        v = c.lift(mu)
        levi = [i for i in range(3) if rng.random() < 0.5]
        assert corr(t, levi, v) == ref_corr(t, levi, v), (levi, v)


def test_per_class_caches_are_bounded():
    """Every memo of the package keyed on more than its value (a class, a
    Levi or a weight) holds at most `CLASS_CACHE_SIZE` entries per value,
    in the value's own `lru_cache`."""
    modules = [importlib.import_module(f"twisted_satake.{info.name}")
               for info in pkgutil.iter_modules(twisted_satake.__path__)]
    keyed = {
        f"{module.__name__}.{name}": f
        for module in modules
        for name, f in vars(module).items()
        if hasattr(f, "put") and getattr(f, "__module__", None) == module.__name__
        and len(inspect.signature(f.__wrapped__).parameters) > 1
    }
    assert sorted(keyed) == [
        "twisted_satake.coweights._attractor_row",
        "twisted_satake.coweights._class_row",
        "twisted_satake.rep._dominant_character",
        "twisted_satake.satake._corr_row",
    ]
    t = cold(preset("SU3"))
    coweights._attractor_row(t, (1,))
    coweights._class_row(t, (1,))
    satake._corr_row(t, ())
    rep._dominant_character(t.base, (0, 0))
    caches = {name: vars(t.base if name.endswith("_dominant_character") else t)[name]
              for name in keyed}
    assert {cache.cache_info().maxsize for cache in caches.values()} == {CLASS_CACHE_SIZE}
