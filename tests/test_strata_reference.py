"""`satake.strata_below` against the walk it replaced.

`parent_strata_below` is the earlier code, kept as an oracle: it walks the
coefficient simplex sum k_O <= height/2 over the coroot-orbit classes and
chains one class subtraction per coefficient.  It is verbatim but for the
presentation's `sub` and `scale`, which left the package with it (they are
the module functions `sub` and `scale` below, verbatim too), and for the
height and dominance, which it reads from the group-sum substrate that also
left the package (`test_substrate_reference.ref_substrate`).  The package
now subtracts on class coordinates, with one normal form per simplex point.

A seeded table of dominant classes of height at most 24 compares the two
on every default preset and on SU7; the tori, which have no coroot orbits,
check the empty simplex.
"""

import random

import pytest

from twisted_satake.abelian import vec_scale, vec_sub
from twisted_satake.coweights import _has_invariant_central_direction, enumerate_dominant_classes
from twisted_satake.galois import coinvariants
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rootdatum import _walk_cone
from twisted_satake.satake import _integral, strata_below

from test_orbit_rows_reference import orbit_coroot_classes
from test_substrate_reference import ref_substrate

# ---------------------------------------------------------------------------
# Reference implementation


def sub(c, c1, c2):
    return c.normal_form(vec_sub(c.coordinates(c1), c.coordinates(c2)))


def scale(c, n, cls):
    return c.normal_form(vec_scale(n, c.coordinates(cls)))


def parent_strata_below(t, cls):
    """The dominant classes mu <= cls, sorted: walk the coefficient simplex
    sum c_O <= height/2 over the coroot-orbit classes (each step drops the
    height by exactly 2) and keep the dominant differences."""
    c = coinvariants(t)
    h = _integral(ref_substrate(t).scaled_height(c.coordinates(cls))[0],
                  ref_substrate(t).group_order, "stratum dimension")
    basis = orbit_coroot_classes(t)
    unit = [tuple(int(i == j) for j in range(len(basis))) for i in range(len(basis))]
    out = set()
    for coeffs in _walk_cone(1, unit, (1,) * len(basis), h // 2, len(basis)):
        cur = cls
        for x, b in zip(coeffs, basis):
            cur = sub(c, cur, scale(c, x, b))
        if ref_substrate(t).scaled_height(c.coordinates(cur))[1]:
            out.add(cur)
    return sorted(out)


# ---------------------------------------------------------------------------
# The table

NAMES = DEFAULT_PRESET_NAMES + ("SU7",)
SAMPLE = 6


def table(name):
    """A seeded sample of the dominant classes of one datum, with the last
    class of its sorted ball always in it."""
    t = preset(name)
    bound = {"coord_bound": 3} if _has_invariant_central_direction(t) else {}
    classes = enumerate_dominant_classes(t, 24, **bound)
    rng = random.Random(f"strata-below:{name}")
    return t, rng.sample(classes[:-1], min(SAMPLE, len(classes) - 1)) + classes[-1:]


@pytest.mark.parametrize("name", NAMES)
def test_strata_below_matches_the_parent_walk(name):
    t, classes = table(name)
    assert len(classes) > 1
    for cls in classes:
        assert strata_below(t, cls) == parent_strata_below(t, cls), cls
