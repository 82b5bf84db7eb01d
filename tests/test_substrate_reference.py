"""The dominance substrate against the group-sum substrate it replaced.

`RefSubstrate` and `ref_substrate` are `coweights._Substrate` and
`coweights._substrate` as they stood when they averaged each unit lift over
the inertia group: |I| times each class's pairings with the absolute simple
roots and with 2*rho, as integer rows built from group sums.  They are
verbatim but for their names; the oracles of the other reference files read
the rows that left the package from here.

The package now reads the orbit rows c_O of `weyl._orbit_pairings`.  On
seeded classes of every default preset, SU7, SU9, SU11 and all their duals,
dominance, heights (|I| scaled in the reference), dominance certificates,
the corr rows and the bounded enumeration must agree with the reference.
Three wrong orbit rows must each be caught: one row scaled by 2 (dominance
is unchanged, the heights differ), one orbit's row dropped (dominance
differs), and a nonzero torsion entry (the substrate refuses it).
"""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from twisted_satake import coweights, satake
from twisted_satake._value import frozen
from twisted_satake.abelian import (
    IntMatrix,
    InvariantViolation,
    dot,
    smith_normal_form,
    vec_sub,
)
from twisted_satake.coweights import (
    _substrate,
    class_height,
    enumerate_dominant_classes,
    is_dominant_class,
)
from twisted_satake.galois import (
    TwistedRootDatum,
    coinvariants,
    group_order,
    group_sum,
    orbit_coroot_classes,
    relative_simple_roots,
)
from twisted_satake.presets import DEFAULT_PRESET_NAMES
from twisted_satake.rootdatum import _dominant_cone, _walk_cone, rho_data

# ---------------------------------------------------------------------------
# The earlier substrate


@frozen
class RefSubstrate:
    """Integer data that heights, dominance, the order and the bounded cone
    read for one datum.

    Classes are read in the coordinates x = (free..., torsion...) that
    `coinvariants(t).coordinates` gives.  The average
    of a class is linear in them, with |I| times the average of unit class
    j equal to the group sum of the presentation's `unit_lifts[j]`.  So |I|
    times its pairings with the simple roots and with 2*rho are integer dot
    products with fixed rows; the torsion entries of those rows are zero,
    as torsion classes average to zero (checked on their group sums).

    The order solves mu - lam = sum c_O [coroot_O] on class coordinates,
    with U M V = D the Smith decomposition of M = [orbit coroot classes |
    torsion moduli] (rank k, diagonal d_i, L = lcm d_i).  With w = U x, a
    class's order key is (w_i mod d_i for i < k) + (w_i for i >= k), and its
    order coordinates c are the orbit entries of V z, where z_i =
    w_i L / d_i for i < k and 0 beyond.  By linearity lam <= mu exactly when
    the keys agree and c(mu) - c(lam) >= 0, with certificate
    (c(mu) - c(lam)) / L: the integer solution of the system, read without
    solving it per pair.

    Without invariant central directions, y_O = |I| <average, alpha_O> (one
    simple root per orbit) is an invertible map of the free coordinates,
    and |I| * height = sum_O N_O y_O.  `cone` holds (den, den times the free
    coordinates of each unit y_O, N_O); it is None with central directions.
    """

    group_order: int          # |I|
    free_sums: tuple          # sum_gamma gamma(lift e_j), per free basis class j
    root_pairings: tuple      # per simple root alpha_i: |I| <average of basis class, alpha_i>
    heights: tuple            # |I| <average of basis class, 2 rho>, per basis class
    order_rows: tuple         # the rows of U
    order_moduli: tuple       # d_i for i < k
    order_lift: tuple         # per orbit O: V[O][i] * L / d_i for i < k
    order_scale: int          # L
    cone: tuple | None

    def scaled_height(self, x):
        """(|I| <average, 2 rho>, whether the class is dominant) for the class
        with coordinates x: integer dot products with the rows."""
        dominant = all([sum(map(operator.mul, row, x)) >= 0 for row in self.root_pairings])
        return dot(self.heights, x), dominant

    def order_coordinates(self, x):
        """(order key, L-scaled orbit coordinates) of the class with coordinates x."""
        w = [dot(row, x) for row in self.order_rows]
        k = len(self.order_moduli)
        key = tuple(a % d for a, d in zip(w, self.order_moduli)) + tuple(w[k:])
        return key, tuple(dot(row, w) for row in self.order_lift)


@functools.lru_cache(maxsize=None)
def ref_substrate(t: TwistedRootDatum) -> RefSubstrate:
    """Build the substrate once per datum, on first use."""
    c = coinvariants(t)
    r, factors = c.quotient.free_rank, c.quotient.invariant_factors
    s = len(factors)
    sums = [group_sum(t, v) for v in c.unit_lifts]
    if any(any(v) for v in sums[r:]):
        raise InvariantViolation("a torsion class has a nonzero average")
    free_sums = tuple(sums[:r])

    def row(chi):
        return tuple(dot(v, chi) for v in free_sums) + (0,) * s

    # mu - lam = sum c_O [coroot_O] in X_*(T)_I is an integer system on class
    # coordinates once each torsion coordinate may move by its invariant factor.
    orbit_classes = orbit_coroot_classes(t)
    moduli = [
        tuple(d if i == r + k else 0 for i in range(r + s)) for k, d in enumerate(factors)
    ]
    system = smith_normal_form(IntMatrix.from_columns(
        [free + torsion for free, torsion in orbit_classes] + moduli, nrows=r + s
    ))
    diagonal = system.diagonal[: system.rank]
    scale = math.lcm(1, *diagonal)
    order_lift = tuple(
        tuple(system.V[o, i] * (scale // d) for i, d in enumerate(diagonal))
        for o in range(len(orbit_classes))
    )
    root_pairings = tuple(row(alpha) for alpha in t.base.simple_roots)
    heights = row(rho_data(t.base).two_rho)
    rel = relative_simple_roots(t)
    return RefSubstrate(
        group_order=group_order(t),
        free_sums=free_sums,
        root_pairings=root_pairings,
        heights=heights,
        order_rows=tuple(system.U.row(i) for i in range(r + s)),
        order_moduli=diagonal,
        order_lift=order_lift,
        order_scale=scale,
        cone=_dominant_cone(
            r, tuple(root_pairings[orbit[0]] for orbit in rel.simple_orbit_list), heights
        ),
    )


def ref_enumerate_dominant_classes(t, max_height, coord_bound=None):
    """`enumerate_dominant_classes` as it read the earlier substrate: the
    simplex of |I|-scaled pairings, bounded by |I| * max_height."""
    c = coinvariants(t)
    sub = ref_substrate(t)
    bound = sub.group_order * max_height
    torsion = list(itertools.product(*[range(d) for d in c.quotient.invariant_factors]))

    def within(cls):
        h, dominant = sub.scaled_height(c.coordinates(cls))
        return h <= bound and dominant

    if sub.cone is None:
        box = itertools.product(range(-coord_bound, coord_bound + 1), repeat=c.quotient.free_rank)
        return sorted(cls for cls in itertools.product(box, torsion) if within(cls))
    den, generators, weights = sub.cone
    walked = _walk_cone(den, generators, weights, bound, c.quotient.free_rank)
    return sorted(cls for cls in itertools.product(walked, torsion) if within(cls))


def ref_corr_row(t, levi_orbits):
    """|I| <average of each free unit class, 2 rho - 2 rho_M>."""
    rel = relative_simple_roots(t)
    subset = {i for o in levi_orbits for i in rel.simple_orbit_list[o]}
    rd = rho_data(t.base)
    shift = vec_sub(rd.two_rho, rd.two_rho_levi(subset))
    return tuple(dot(v, shift) for v in ref_substrate(t).free_sums)


# ---------------------------------------------------------------------------
# The sweep

BASES = DEFAULT_PRESET_NAMES + ("SU7", "SU9", "SU11")
NAMES = BASES + tuple(f"{name}-dual" for name in BASES)
HEIGHT = 8
CLASSES = 100


def datum(name):
    # imported here, as that file reads this one
    from test_weyl_reference import datum as build
    return build(name)


def _bound(t):
    return {"coord_bound": 2} if _substrate(t).cone is None else {}


def _classes(name, t):
    """Seeded classes with unreduced torsion entries, and the dominant
    classes of the bounded enumeration."""
    c = coinvariants(t)
    rng = random.Random(f"substrate:{name}")
    seeded = [
        (tuple(rng.randint(-4, 4) for _ in range(c.quotient.free_rank)),
         tuple(rng.randint(-d, 2 * d) for d in c.quotient.invariant_factors))
        for _ in range(CLASSES)
    ]
    return seeded + ref_enumerate_dominant_classes(t, HEIGHT, **_bound(t))


def _levis(t):
    k = relative_simple_roots(t).relative_rank
    return list(dict.fromkeys([(), *[(o,) for o in range(k)], tuple(range(k))]))


def _clear():
    for cached in (_substrate, coweights._class_row, coweights._attractor_row, satake._corr_row):
        cached.cache_clear()


@pytest.fixture
def fresh():
    """Per-datum and per-class caches empty before and after the test."""
    _clear()
    yield
    _clear()


def mismatches(name, t):
    """The checks on which the package disagrees with the reference."""
    ref, c = ref_substrate(t), coinvariants(t)
    found = set()
    for cls in _classes(name, t):
        x = c.coordinates(cls)
        h, dominant = ref.scaled_height(x)
        witness = is_dominant_class(t, cls)
        if _substrate(t).dominant(x) != dominant or (witness is not None) != dominant:
            found.add("dominance")
        if class_height(t, cls) != Fraction(h, ref.group_order):
            found.add("height")
        if dominant and witness is not None and witness.certificate != tuple(
                Fraction(dot(row, x), ref.group_order) for row in ref.root_pairings):
            found.add("certificate")
    for levi in _levis(t):
        if satake._corr_row(t, levi) != tuple(Fraction(v, ref.group_order)
                                              for v in ref_corr_row(t, levi)):
            found.add("corr")
    try:
        if enumerate_dominant_classes(t, HEIGHT, **_bound(t)) != ref_enumerate_dominant_classes(
                t, HEIGHT, **_bound(t)):
            found.add("enumeration")
    except ValueError:
        found.add("enumeration")
    return found


@pytest.mark.parametrize("name", NAMES)
def test_orbit_rows_match_group_sums(name):
    """Dominance, heights, certificates, corr rows and the bounded
    enumeration read from c_O are those of the group-sum substrate; every
    height is an integer."""
    t = datum(name)
    assert mismatches(name, t) == set()
    assert all(class_height(t, cls).denominator == 1 for cls in _classes(name, t))


def _scale_first(rows):
    return (tuple(2 * x for x in rows[0]),) + rows[1:]


def _drop_first(rows):
    return rows[1:]


# (mutation of the orbit rows, the checks that must fail)
ROW_FAULTS = {
    "scale-one-row": (_scale_first, {"height", "certificate"}),
    "drop-one-row": (_drop_first, {"dominance"}),
}


@pytest.mark.parametrize("fault", ROW_FAULTS)
@pytest.mark.parametrize("name", ["SU3", "SU5", "Spin8-triality", "SU7-dual"])
def test_wrong_orbit_rows_are_caught(monkeypatch, fresh, name, fault):
    """A row scaled by 2 keeps every sign, so dominance agrees and the
    heights catch it; a dropped row admits classes that are not dominant."""
    mutate, caught = ROW_FAULTS[fault]
    real = coweights._orbit_pairings
    monkeypatch.setattr(coweights, "_orbit_pairings", lambda t: mutate(real(t)))
    found = mismatches(name, datum(name))
    assert caught <= found
    if fault == "scale-one-row":
        assert "dominance" not in found


def test_nonzero_torsion_entry_is_refused(monkeypatch, fresh):
    """On a datum whose coinvariants are Z + Z/2, a c_O row with a nonzero
    torsion entry is refused before any class is read."""
    t = datum("U3-like")
    real = coweights._orbit_pairings
    rows = real(t)
    assert len(rows[0]) == 2 and rows[0][1] == 0
    monkeypatch.setattr(coweights, "_orbit_pairings",
                        lambda t: ((rows[0][0], 1),) + real(t)[1:])
    with pytest.raises(InvariantViolation, match="^a c_O row has a nonzero torsion entry$"):
        class_height(t, ((1,), (0,)))
