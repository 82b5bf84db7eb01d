"""The dominance substrate against the group-sum substrate it replaced.

`RefSubstrate` and `ref_substrate` are `coweights._Substrate` and
`coweights._substrate` as they stood when they averaged each unit lift over
the inertia group: |I| times each class's pairings with the absolute simple
roots and with 2*rho, as integer rows built from group sums.  They are
verbatim but for their names; the oracles of the other reference files read
the rows that left the package from here.

The package now reads the orbit rows c_O of `coweights._Substrate`, and
pairs each unit lift with 2*rho for the heights.  On seeded classes of
every default preset, SU7, SU9, SU11 and all their duals, dominance,
heights (|I| scaled in the reference), dominance certificates, corr on
each free unit class and the bounded enumeration must agree with the
reference, and the chamber walk from each class must end at a class that
is dominant and above it in the reference's order (`walk_mismatch`).
Three wrong orbit rows, put in by a copy of `coweights._substrate`
(`patch_pairings`), must each be caught: one row scaled by 2 (dominance
and the heights are unchanged, the certificates differ and W0's
reflection rows refuse it), one orbit's row dropped (dominance differs),
and a nonzero torsion entry (the substrate refuses it).

The order reads the same rows and the Kottwitz component, where the
reference solved the Smith system [orbit coroot classes | torsion moduli]
and the component was found by lifting each class to X_*(T)
(`ref_component_of`, `satake.component_of` as it stood then).  On every
pair of 50 seeded classes of the sweep and of the golden files
`torsion.json`, `sl2-rot6.json`, `e6-flip.json` and `d4-s3.json` with their
duals, `leq` certificates and components must equal the reference's, and
`hasse_covers` and `stratum` must on the dominant classes of height at most
12, and each seeded class must lie below the end of its chamber walk.
One c_O row scaled by 2 (the order and the heights do not differ, the
reflection rows refuse it) and one entry of the order inverse scaled by 2
(the certificates differ) must each be caught.
"""

import functools
import inspect
import itertools
import math
import operator
import random
import sys
import textwrap
from fractions import Fraction

import pytest

from twisted_satake import coweights, satake
from twisted_satake._value import frozen
from twisted_satake.abelian import (
    IntMatrix,
    InvariantViolation,
    dot,
    smith_normal_form,
    vec_add,
    vec_scale,
    vec_sub,
)
from twisted_satake.cli import datum_from_dict
from twisted_satake.coweights import (
    OrderCertificate,
    _substrate,
    class_height,
    enumerate_dominant_classes,
    hasse_covers,
    is_dominant_class,
    leq,
)
from twisted_satake.dual import dual_twisted
from twisted_satake.galois import (
    TwistedRootDatum,
    coinvariants,
    group_order,
    group_sum,
    pi1_coinvariants_presentation,
    relative_simple_roots,
)
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rootdatum import _dominant_cone, _walk_cone, full_root_system
from twisted_satake.satake import SchubertStratum, component_of, stratum

from test_cli_golden import FILES
from test_orbit_rows_reference import orbit_coroot_classes
from test_value import cold

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
    heights = row(full_root_system(t.base).two_rho)
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
    rd = full_root_system(t.base)
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


def patch_pairings(monkeypatch, mutate):
    """Rebind `coweights._substrate`, in every module of the package that
    reads it, to a copy of its source that passes the orbit rows c_O
    through mutate before any check, with a memo of its own (`_mutant`).
    Only a datum with no derived data yet (`test_value.cold`) reads the
    mutant in every record built from it."""
    real = coweights._substrate
    source = textwrap.dedent(inspect.getsource(real)).replace("def _substrate(", "def _mutant(")
    check = "    if any(any(row[r:]) for row in pairings):\n"
    assert source.count(check) == 1
    namespace = dict(vars(coweights), _mutate=mutate)
    exec(compile(source.replace(check, "    pairings = _mutate(pairings)\n" + check),
                 coweights.__file__, "exec"), namespace)
    for name, module in list(sys.modules.items()):
        if name.startswith("twisted_satake") and vars(module).get("_substrate") is real:
            monkeypatch.setattr(module, "_substrate", namespace["_mutant"])


def walk_mismatch(t, cls):
    """Does the chamber walk from cls fail, or end at a class that is not
    dominant in the reference or not above cls in its order?  Every
    W0-conjugate of a dominant class lies below it."""
    ref, c = ref_substrate(t), coinvariants(t)
    try:
        end = coweights._walk(t, c.coordinates(cls))[0]
    except InvariantViolation:
        return True
    return not ref.scaled_height(end)[1] or ref_leq(t, cls, c.normal_form(end)) is None


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
        if walk_mismatch(t, cls):
            found.add("walk")
    lifts = c.unit_lifts[: c.quotient.free_rank]
    for levi in _levis(t):
        if tuple(satake.corr(t, levi, u) for u in lifts) != tuple(
                Fraction(v, ref.group_order) for v in ref_corr_row(t, levi)):
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
    """Dominance, heights, certificates, corr on the unit classes and the bounded
    enumeration read from c_O are those of the group-sum substrate, and the
    chamber walk from each class ends above it; every height is an
    integer."""
    t = datum(name)
    assert mismatches(name, t) == set()
    assert all(class_height(t, cls).denominator == 1 for cls in _classes(name, t))


def _scale_first(rows):
    return (tuple(2 * x for x in rows[0]),) + rows[1:]


def _drop_first(rows):
    return rows[1:]


# (mutation of the orbit rows, the checks that must fail)
ROW_FAULTS = {
    "scale-one-row": (_scale_first, {"certificate", "walk"}),
    "drop-one-row": (_drop_first, {"dominance"}),
}


@pytest.mark.parametrize("fault", ROW_FAULTS)
@pytest.mark.parametrize("name", ["SU3", "SU5", "Spin8-triality", "SU7-dual"])
def test_wrong_orbit_rows_are_caught(monkeypatch, name, fault):
    """A row scaled by 2 keeps every sign, so dominance agrees; the heights
    pair lifts with 2 rho and do not read it, but the certificates do and
    the reflection rows refuse it, so the walk fails.  A dropped row admits
    classes that are not dominant."""
    mutate, caught = ROW_FAULTS[fault]
    patch_pairings(monkeypatch, mutate)
    found = mismatches(name, cold(datum(name)))
    assert caught <= found
    if fault == "scale-one-row":
        assert "dominance" not in found


def test_nonzero_torsion_entry_is_refused(monkeypatch):
    """On a datum whose coinvariants are Z + Z/2, a c_O row with a nonzero
    torsion entry is refused before any class is read."""
    t = cold(datum("U3-like"))
    rows = _substrate(t).pairings
    assert len(rows[0]) == 2 and rows[0][1] == 0
    patch_pairings(monkeypatch, lambda real: ((real[0][0], 1),) + real[1:])
    with pytest.raises(InvariantViolation, match="^a c_O row has a nonzero torsion entry$"):
        class_height(t, ((1,), (0,)))


# ---------------------------------------------------------------------------
# The order and the Kottwitz component


def ref_component_of(t: TwistedRootDatum, cls) -> tuple:
    """The Kottwitz component of a coinvariant class; additive."""
    c = coinvariants(t)
    pres = pi1_coinvariants_presentation(t)
    return pres.class_of(c.lift(cls))


def ref_leq(t, lam, mu):
    """`leq` on the reference's order keys and L-scaled coordinates."""
    sub, c = ref_substrate(t), coinvariants(t)
    key_lam, c_lam = sub.order_coordinates(c.coordinates(lam))
    key_mu, c_mu = sub.order_coordinates(c.coordinates(mu))
    diff = vec_sub(c_mu, c_lam)
    if key_lam != key_mu or any(v < 0 for v in diff):
        return None
    return OrderCertificate(coefficients=tuple(v // sub.order_scale for v in diff))


def ref_hasse_covers(t, labels):
    """`hasse_covers` as it read the reference's order keys and coordinates."""
    c = coinvariants(t)
    groups = {}
    for cls in labels:
        key, coords = ref_substrate(t).order_coordinates(c.coordinates(cls))
        groups.setdefault(key, []).append((sum(coords), coords, cls))
    covers = []
    for members in groups.values():
        members.sort()
        lower = []
        for i, (_, c_up, up) in enumerate(members):
            mask = 0
            for j in range(i - 1, -1, -1):
                _, c_lo, lo = members[j]
                if not mask >> j & 1 and all(map(operator.ge, c_up, c_lo)):
                    covers.append((lo, up))
                    mask |= lower[j] | 1 << j
            lower.append(mask)
    return tuple(sorted(covers))


def ref_stratum(t, cls):
    sub = ref_substrate(t)
    h, dominant = sub.scaled_height(coinvariants(t).coordinates(cls))
    assert dominant
    return SchubertStratum(label=cls, dim=h // sub.group_order, component=ref_component_of(t, cls))


FILE_DATA = ("torsion.json", "sl2-rot6.json", "e6-flip.json", "d4-s3.json")
ORDER_NAMES = tuple(name + suffix for name in BASES + FILE_DATA for suffix in ("", "-dual"))
ORDER_CLASSES = 50
ORDER_HEIGHT = 12


def order_datum(name):
    base = name.removesuffix("-dual")
    t = datum_from_dict(FILES[base]) if base in FILES else preset(base)
    return dual_twisted(t) if name.endswith("-dual") else t


def _order_classes(name, t):
    """Ten seeded anchors, each with four classes that differ from it by
    seeded combinations of the coroot-orbit classes (coefficients in
    [-1, 3]), so that many pairs are comparable; torsion entries are left
    unreduced."""
    c = coinvariants(t)
    basis = [c.coordinates(b) for b in orbit_coroot_classes(t)]
    rng = random.Random(f"order:{name}")
    out = []
    for _ in range(ORDER_CLASSES // 5):
        anchor = (tuple(rng.randint(-4, 4) for _ in range(c.quotient.free_rank))
                  + tuple(rng.randint(-d, 2 * d) for d in c.quotient.invariant_factors))
        for k in range(5):
            x = anchor
            for b in basis:
                x = vec_add(x, vec_scale(rng.randint(-1, 3) if k else 0, b))
            out.append((x[:c.quotient.free_rank], x[c.quotient.free_rank:]))
    return out


def order_mismatches(name, t):
    """The order checks on which the package disagrees with the reference,
    and the number of comparable seeded pairs.  The component is read from
    the class's one row, which walks a class that is not dominant, so a
    walk refused there counts as a failed walk."""
    found, comparable = set(), 0
    classes = _order_classes(name, t)
    for lam in classes:
        try:
            if component_of(t, lam) != ref_component_of(t, lam):
                found.add("component")
        except InvariantViolation:
            found.add("walk")
        if walk_mismatch(t, lam):
            found.add("walk")
        for mu in classes:
            cert = ref_leq(t, lam, mu)
            comparable += cert is not None
            if leq(t, lam, mu) != cert:
                found.add("leq")
    labels = ref_enumerate_dominant_classes(t, ORDER_HEIGHT, **_bound(t))
    if hasse_covers(t, labels) != ref_hasse_covers(t, labels):
        found.add("covers")
    if [stratum(t, cls) for cls in labels] != [ref_stratum(t, cls) for cls in labels]:
        found.add("stratum")
    return found, comparable


@pytest.mark.parametrize("name", ORDER_NAMES)
def test_order_reads_orbit_rows_and_component(name):
    """Certificates, components, covers and strata agree with the Smith
    system and the ambient lift, and each seeded class lies below the end
    of its chamber walk; every seeded class lies below itself, and the
    anchors' shifts make more pairs comparable than that."""
    found, comparable = order_mismatches(name, order_datum(name))
    assert found == set()
    assert comparable > ORDER_CLASSES


def _scale_inverse_entry(real):
    def scaled(rows):
        den, m = real(rows)
        return den, IntMatrix(m.rows, m.cols, (2 * m.entries[0],) + m.entries[1:])
    return scaled


# (how the fault is put in, the checks that must fail)
ORDER_FAULTS = {
    "scale-one-row": (lambda mp: patch_pairings(mp, _scale_first), {"walk"}),
    "scale-one-inverse-entry": (lambda mp: mp.setattr(
        coweights, "_scaled_inverse", _scale_inverse_entry(coweights._scaled_inverse)), {"leq"}),
}


@pytest.mark.parametrize("fault", ORDER_FAULTS)
@pytest.mark.parametrize("name", ["SU3", "SU7-dual", "torsion.json", "d4-s3.json"])
def test_wrong_order_rows_are_caught(monkeypatch, name, fault):
    """A c_O row scaled by 2 scales A's row and p's entry alike, so the
    order is unchanged, and the strata's dimensions pair lifts with 2 rho;
    the reflection rows refuse it, so the chamber walks fail.  An entry of
    den A^-1 scaled by 2 moves the certificates."""
    put, caught = ORDER_FAULTS[fault]
    put(monkeypatch)
    assert caught <= order_mismatches(name, cold(order_datum(name)))[0]
