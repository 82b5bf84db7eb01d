"""The point queries `mv_cell`, `conv_cell` and `corr` against the code they
replaced.

The reference functions below are the earlier request-path code, kept as
oracles: each class is converted to coordinates each time it is read, the
dominant representative is read from the walk's whole Weyl element
descended by `weyl._descended` (one new matrix per class), "rep <= lam" is
an `OrderCertificate` from `leq`, and corr rebuilds 2 rho_M from the
positive roots on every call.  A seeded table over every default preset and
SU7 compares answers, exception types and messages.  A bound checks that
point queries descend no matrix per class.
"""

import functools
import random
from fractions import Fraction

import pytest

from twisted_satake import weyl
from twisted_satake.abelian import DimensionMismatch, IntMatrix, InvariantViolation, dot, vec_sub
from twisted_satake.coweights import (
    NonDominantError,
    OrderCertificate,
    _order_coordinates,
    _substrate,
    dominant_representative,
    is_dominant_class,
)
from twisted_satake.galois import coinvariants, relative_simple_roots
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rootdatum import full_root_system, rho_data
from twisted_satake.satake import ConvCell, MvCell, _integral, conv_cell, corr, mv_cell
from twisted_satake.weyl import WeylElement, dominant_walk, relative_weyl

DATA = DEFAULT_PRESET_NAMES + ("SU7",)


# ---------------------------------------------------------------------------
# The earlier code, with the substrate method and helpers it read


def _scaled_pairing(sub, x, chi):
    """|I| <average of the class with coordinates x, chi>, an integer:
    torsion classes average to zero."""
    return dot(x[: len(sub.free_sums)], [dot(v, chi) for v in sub.free_sums])


def _scaled_height(t, cls):
    """(|I| <average, 2 rho>, whether the class is dominant): integer dot
    products with the substrate rows, building no Fraction."""
    sub = _substrate(t)
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
    """The chamber walk's element, descended as one matrix per class."""
    x = coinvariants(t).coordinates(cls)
    sub = _substrate(t)
    limit = len(full_root_system(t.base).positive)
    _point, word = dominant_walk(x, sub.reflections, limit)
    w0 = relative_weyl(t)
    w = WeylElement(functools.reduce(IntMatrix.mul, (w0.generators[i].matrix for i in word),
                                     IntMatrix.identity(t.rank)), word=word)
    witness = is_dominant_class(t, w0.act(w, coinvariants(t).normal_form(x)))
    if witness is None:
        raise InvariantViolation("the chamber walk ended outside the dominant cone")
    return witness, w


def ref_leq(t, lam, mu):
    c = coinvariants(t)
    key_lam, c_lam = _order_coordinates(t, c.coordinates(lam))
    key_mu, c_mu = _order_coordinates(t, c.coordinates(mu))
    diff = vec_sub(c_mu, c_lam)
    if key_lam != key_mu or any(x < 0 for x in diff):
        return None
    scale = _substrate(t).order_scale
    return OrderCertificate(coefficients=tuple(x // scale for x in diff))


def ref_mv_cell(t, mu, lam):
    h = _require_dominant(t, lam) + _scaled_height(t, mu)[0]
    rep, _w = ref_dominant_representative(t, mu)
    if ref_leq(t, rep.cls, lam) is None:
        return MvCell(mu=mu, lam=lam, nonempty=False, dim=None)
    return MvCell(mu=mu, lam=lam, nonempty=True,
                  dim=_integral(h, 2 * _substrate(t).group_order, "cell half-pairing"))


def ref_conv_cell(t, mu, mu2, lam, lam2):
    h = (_require_dominant(t, lam) + _require_dominant(t, lam2)
         + _scaled_height(t, mu)[0] + _scaled_height(t, mu2)[0])
    rep1, _ = ref_dominant_representative(t, mu)
    rep2, _ = ref_dominant_representative(t, mu2)
    nonempty = (
        ref_leq(t, rep1.cls, lam) is not None and ref_leq(t, rep2.cls, lam2) is not None
    )
    if not nonempty:
        return ConvCell(mu=mu, mu2=mu2, lam=lam, lam2=lam2, nonempty=False, dim=None)
    return ConvCell(
        mu=mu, mu2=mu2, lam=lam, lam2=lam2,
        nonempty=True, dim=_integral(h, 2 * _substrate(t).group_order, "convolution half-pairing"),
    )


def ref_corr(t, levi_orbits, v):
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
    value = _scaled_pairing(sub, c.coordinates(c.class_of(tuple(v))), shift)
    return _integral(value, sub.group_order, "corr value")


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
        answered += got[0] == "ok"
        raised += got[0] == "raised"
    assert answered >= 50 and raised >= 5, (answered, raised)


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
            assert relative_weyl(t).act(got[1], cls) == got[0].cls


def test_point_queries_descend_no_matrix_per_class():
    """W0's generators are descended once per datum; 500 mv queries on new
    classes leave `weyl._descended` at its size after the first one."""
    t = preset("SU7")
    rng = random.Random(500)

    def query():
        lam = dominant_representative(t, _random_class(t, rng, 3))[0].cls
        return mv_cell(t, _random_class(t, rng), lam)

    query()
    size = weyl._descended.cache_info().currsize
    cells = [query() for _ in range(500)]
    assert weyl._descended.cache_info().currsize == size
    assert any(cell.nonempty for cell in cells) and not all(cell.nonempty for cell in cells)
