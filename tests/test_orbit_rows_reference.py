"""The datum's record on class coordinates against the helpers it replaced.

`coweights._Substrate` holds every integer row of a datum on class
coordinates: c_O and the heights at once, the coroot-orbit classes b_O,
W0's reflection rows and the dominant cone on first use.  Before, c_O was
`weyl._orbit_pairings` (not cached), the rows (c_O, a_O) were the cached
`weyl._w0_reflections`, b_O came from `galois.orbit_coroot_classes` (not
cached), and each height was sum_O n_O c_O with n_O the simple coordinate
of 2*rho on the orbit O, summed over the positive roots.  Those are kept
below verbatim as oracles (`ref_heights` and `ref_cone` are the lines of the
earlier `coweights._substrate` that built the heights and the cone), and
the other reference files read `orbit_coroot_classes` from here.

The record now pairs each unit lift with 2*rho for its heights: the same
number, as 2*rho is I-invariant, so the pairing factors through the
average.  On every default preset, SU7 to SU17, the golden files
`torsion.json`, `e6-flip.json`, `d4-s3.json` and `sl2-rot6.json`, and all
their duals (48 data), `pairings`, `heights`, `coroot_orbits`,
`reflections` and `cone` must equal the oracles.
"""

import functools

import pytest

from twisted_satake.abelian import InvariantViolation, dot
from twisted_satake.cli import datum_from_dict
from twisted_satake.coweights import _substrate
from twisted_satake.dual import dual_twisted
from twisted_satake.galois import TwistedRootDatum, coinvariants, relative_simple_roots
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rootdatum import _dominant_cone, full_root_system
from twisted_satake.weyl import _descended, relative_weyl

from test_cli_golden import FILES

# ---------------------------------------------------------------------------
# The earlier helpers


def orbit_coroot_classes(t: TwistedRootDatum):
    """The classes of one simple coroot per orbit: the basis of the image of
    (Z Phi^vee)_I in X_*(T)_I used by the dominance order."""
    c = coinvariants(t)
    rel = relative_simple_roots(t)
    return tuple(c.class_of(t.base.simple_coroots[orbit[0]]) for orbit in rel.simple_orbit_list)


def _orbit_pairings(t: TwistedRootDatum):
    """c_O per simple-root orbit O: each unit class's lift paired with the
    sum of O's simple roots.  That character is I-invariant, so any lift
    gives the same pairing, and torsion classes pair to zero.  For i in O,
    <average, alpha_i> = <c_O, x> / |O| on the class with coordinates x."""
    lifts = coinvariants(t).unit_lifts
    return tuple(
        tuple(sum(dot(u, t.base.simple_roots[i]) for i in orbit) for u in lifts)
        for orbit in relative_simple_roots(t).simple_orbit_list
    )


@functools.lru_cache(maxsize=None)
def _w0_reflections(t: TwistedRootDatum):
    """W0's generators on class coordinates, one row pair (c_O, a_O) per orbit:
    orbit O's relative simple reflection is x -> x - <c_O, x> a_O, with c_O
    from `_orbit_pairings` and a_O = m_O [coroot_O], where m_O = 2 for an
    adjacent pair (alpha_i + alpha_j), else 1.

    Built once per datum, and checked before it is returned: on every unit
    class, each row's map must equal the descended matrix of its W0 generator
    (`_descended`), torsion entries modulo their invariant factors.  Both
    maps are Z-linear and fix the torsion relations, so they then agree on
    every class; a mismatch raises InvariantViolation.
    """
    rel = relative_simple_roots(t)
    c = coinvariants(t)
    moduli = (0,) * c.quotient.free_rank + tuple(c.quotient.invariant_factors)
    rows = tuple(
        (pairing, tuple((2 if kind == "adjacent-pair" else 1) * x for x in free + torsion))
        for pairing, kind, (free, torsion)
        in zip(_orbit_pairings(t), rel.orbit_type, orbit_coroot_classes(t))
    )
    for o, (g, (pairing, a)) in enumerate(zip(relative_weyl(t).generators, rows)):
        m = _descended(t, g.matrix)
        for j, p in enumerate(pairing):
            image = (int(k == j) - p * x for k, x in enumerate(a))
            if any((x - y) % d if d else x != y for x, y, d in zip(image, m.column(j), moduli)):
                raise InvariantViolation(f"reflection row {o} is not descended W0 generator {o}")
    return rows


def ref_heights(t: TwistedRootDatum):
    """sum_O n_O c_O: <average of each basis class, 2 rho>."""
    c = coinvariants(t)
    r, s = c.quotient.free_rank, len(c.quotient.invariant_factors)
    pairings = _orbit_pairings(t)
    roots = full_root_system(t.base)
    # n_O, the simple coordinate of 2 rho on each orbit O
    n = [sum(roots.simple_coordinates(root)[orbit[0]] for root, _ in roots.positive)
         for orbit in relative_simple_roots(t).simple_orbit_list]
    return tuple(sum(n_o * row[j] for n_o, row in zip(n, pairings)) for j in range(r + s))


def ref_cone(t: TwistedRootDatum):
    """The cone as the earlier substrate built it from c_O and those heights."""
    return _dominant_cone(coinvariants(t).quotient.free_rank, _orbit_pairings(t), ref_heights(t))


# ---------------------------------------------------------------------------
# The sweep

BASES = DEFAULT_PRESET_NAMES + ("SU7", "SU9", "SU11", "SU13", "SU15", "SU17")
FILE_DATA = ("torsion.json", "e6-flip.json", "d4-s3.json", "sl2-rot6.json")
NAMES = tuple(name + suffix for name in BASES + FILE_DATA for suffix in ("", "-dual"))


def datum(name):
    base = name.removesuffix("-dual")
    t = datum_from_dict(FILES[base]) if base in FILES else preset(base)
    return dual_twisted(t) if name.endswith("-dual") else t


@pytest.mark.parametrize("name", NAMES)
def test_record_matches_the_earlier_helpers(name):
    """c_O, the heights, the coroot-orbit coordinates, W0's reflection rows
    and the cone of the record are those of the helpers they replaced; the
    torsion entries of the heights are zero."""
    t = datum(name)
    sub, c = _substrate(t), coinvariants(t)
    assert sub.pairings == _orbit_pairings(t)
    assert sub.heights == ref_heights(t)
    assert not any(sub.heights[c.quotient.free_rank:])
    assert sub.coroot_orbits == tuple(c.coordinates(b) for b in orbit_coroot_classes(t))
    assert sub.reflections == _w0_reflections(t)
    assert sub.cone == ref_cone(t)
