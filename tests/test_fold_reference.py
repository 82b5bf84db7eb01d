"""The folded datum read from W0's reflection rows, against the recipe and
the checks it replaced.

`ref_fold_recipe` and `ref_check_fold` are the earlier fold, kept verbatim
as oracles: the recipe built each folded coroot from an orbit type (m_O =
2 for an adjacent pair) and the check compared the descended W0 generators
with the folded simple reflections afterwards.  `ref_fold_order_check`, the
check before that, enumerates W0 and the folded absolute Weyl group and
compares their orders.  `dual._fold_recipe` must equal the old recipe on
every fixed preset, its dual, SU5, SU7, SU9, SU11, SU13 and the u3-like
datum (None both ways, for torsion).  The generator check must accept
every fold it returns, and the order check every fold but SU13's, whose
|W0| = 46,080 takes seconds to enumerate.

`ref_fixed_group_descriptor` is the descriptor as it was when only split
data and data equal to a registry preset or its dual were folded, and
connectedness was read from the registry; `ref_connectedness_char0` is
its helper, verbatim.  Its gate reads `ref_registry_known`, which builds
one dual per candidate; the gate as shipped built only the datum's own
dual, kept verbatim as `ref_registry_known_one_dual`, and
`tests/test_dual.py::TestRegistryKnown` checks that the two agree.  On every fixed
preset, SU7, SU9, SU11, SU13 and all their duals, under four profiles,
each field of `fixed_group_descriptor` must have the reference's repr,
except connected_char0 on the eight duals whose X^*(s)_I is free but whose
datum is neither split, simply connected nor a fixed entry: "yes" now,
where the registry said "unknown".

The fold now reads the dual's reflection rows, whose check against W0's
descended longest elements is what certifies it.  So every mutation below
changes an input the rows read (an orbit type, W0's generators, a_O) or
pairs a folded root with another orbit's row, and must be refused with
InvariantViolation through `fixed_group_descriptor` on a cold copy of the
datum, whose fold, dual and rows are built afresh.  An orbit type in
`dual`'s own lookup no longer enters the fold.
"""

import pytest

from twisted_satake import coweights, dual, presets
from twisted_satake.abelian import InvariantViolation, dot
from twisted_satake.dual import (
    CHAR0,
    FoldedCartan,
    FoldedGroupDescriptor,
    _classify_label,
    _fold_recipe,
    dual_twisted,
    fixed_group_descriptor,
    parse_profile,
)
from twisted_satake.galois import TwistedRootDatum, coinvariants, relative_simple_roots
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rootdatum import BasedRootDatum, validate
from twisted_satake.weyl import _descended, relative_weyl, simple_reflection

from test_rootdatum import is_simply_connected
from test_value import cold
from test_weyl_reference import enumerate_absolute_weyl, u3_like

# ---------------------------------------------------------------------------
# Reference implementations


def ref_fold_order_check(weyl, folded):
    folded_order = len(enumerate_absolute_weyl(folded.datum))
    if weyl.order != folded_order:
        raise InvariantViolation(
            f"folded Weyl order {folded_order} disagrees with |W0| = {weyl.order}"
        )


def ref_fold_recipe(s: TwistedRootDatum):
    """The folded root datum of the fixed-point group of s, on the free part
    of X^*(s)_I; None when torsion obstructs a based presentation."""
    dual = dual_twisted(s)
    chars = coinvariants(dual)  # X^*(s)_I
    if chars.quotient.invariant_factors:
        return None
    rel = relative_simple_roots(s)
    r = chars.quotient.free_rank
    folded_roots = []
    folded_coroots = []
    for orbit, kind in zip(rel.simple_orbit_list, rel.orbit_type):
        root_class = chars.class_of(s.base.simple_roots[orbit[0]])
        for i in orbit[1:]:
            if chars.class_of(s.base.simple_roots[i]) != root_class:
                raise InvariantViolation("orbit roots do not share a class")
        folded_roots.append(root_class[0])
        multiplier = 2 if kind == "adjacent-pair" else 1
        kappa = [0] * s.rank
        for i in orbit:
            for idx in range(s.rank):
                kappa[idx] += multiplier * s.base.simple_coroots[i][idx]
        # Express the invariant functional <kappa, -> in free coordinates.
        folded_coroots.append(tuple(dot(kappa, v) for v in chars.unit_lifts))
    folded = BasedRootDatum.make(r, folded_roots, folded_coroots)
    report = validate(folded)
    if not report.valid:
        raise InvariantViolation(f"folded datum invalid: {report.first_violation}")
    return FoldedCartan(type_label=_classify_label(folded), datum=folded)


def ref_check_fold(weyl, folded: FoldedCartan):
    """Each W0 generator, descended to class coordinates of X^*(s)_I, must
    equal the folded simple reflection of its orbit there: the transpose of
    `simple_reflection(folded.datum, O)`, which acts on the cocharacter copy.

    This implies |W(folded)| = |W0| with no enumeration.  Equal generators
    make descended W0 and W(folded) one subgroup of GL(X^*(s)_I), up to the
    transpose, which keeps orders.  W0 lies in W^I, the I-commuting part of
    the dual's Weyl group: its generators are products of simple reflections
    and commute with I (`relative_weyl` checks both).  W^I acts faithfully
    on X_I tensor Q = (X tensor Q)^I: an element acting trivially fixes the
    I-fixed vector 2rho^vee of the dual, which pairs to 2 with every simple
    root and so is regular, and only 1 fixes a regular vector.  So descent
    is injective on W0, and |W0| = |descended W0| = |W(folded)|.  The check
    is strictly stronger than comparing orders: it also fails when the
    folded simple roots or the W0 generators are permuted.
    """
    if len(weyl.generators) != folded.datum.num_simple:
        raise InvariantViolation(
            f"{folded.datum.num_simple} folded simple roots for {len(weyl.generators)} W0 generators"
        )
    for o, w in enumerate(weyl.generators):
        if _descended(weyl.datum, w.matrix) != simple_reflection(folded.datum, o).matrix.transpose():
            raise InvariantViolation(f"descended W0 generator {o} is not folded reflection {o}")


def ref_registry_known(s):
    """The registry check as it was: one dual per candidate."""
    candidates = [entry.twisted for entry in presets._FIXED.values()]
    if s.rank % 2 == 0 and s.rank >= 2:
        candidates.append(presets._special_unitary(s.rank + 1).twisted)
    return any(s == c or s == dual_twisted(c) for c in candidates)


def ref_registry_known_one_dual(s: TwistedRootDatum) -> bool:
    """Whether s equals a registry preset or the dual of one: a fixed entry,
    or SU<k> for odd k (rank k - 1), recognised by rebuilding it.

    s is the dual of c exactly when dual_twisted(s) equals c, since
    dual_twisted is an involution up to equality; so only the dual of s is
    built."""
    candidates = [entry.twisted for entry in presets._FIXED.values()]
    if s.rank % 2 == 0 and s.rank >= 2:
        candidates.append(presets._special_unitary(s.rank + 1).twisted)
    dual = dual_twisted(s)
    return any(c == s or c == dual for c in candidates)


def ref_connectedness_char0(s: TwistedRootDatum) -> str:
    if not s.generators or is_simply_connected(s.base):
        return "yes"  # fixed points in a simply connected group are connected
    if any(s == entry.twisted for entry in presets._FIXED.values()):
        return "yes"  # the fixed entries are checked case by case
    return "unknown"


def ref_fixed_group_descriptor(s: TwistedRootDatum, profile=CHAR0) -> FoldedGroupDescriptor:
    adjacent = any(kind == "adjacent-pair" for kind in relative_simple_roots(s).orbit_type)

    folded = None
    if not s.generators or ref_registry_known(s):
        folded = _fold_recipe(s)
    smooth = profile.is_char0 or profile.ell != 2 or not adjacent
    if not smooth:
        # The fixed group fails smoothness here; its special fiber is the
        # quasi-reductive mechanism, so no reductive root datum is published.
        folded = None

    return FoldedGroupDescriptor(
        folded_cartan=folded,
        smooth_over_Z_ell="yes" if smooth else "no",
        connected_char0=ref_connectedness_char0(s),
        has_adjacent_pair_orbit=adjacent,
    )


# ---------------------------------------------------------------------------
# The sweep

SWEEP = (
    tuple(DEFAULT_PRESET_NAMES)
    + tuple(f"{name}-dual" for name in DEFAULT_PRESET_NAMES)
    + ("SU5", "SU7", "SU9")
)


def datum(name):
    if name == "U3-like":
        return u3_like()
    if name.endswith("-dual"):
        return dual_twisted(preset(name[: -len("-dual")]))
    return preset(name)


@pytest.mark.parametrize("name", SWEEP + ("SU11",))
def test_generator_check_agrees_with_order_check(name):
    """Both earlier checks accept the fold read from the rows."""
    s = datum(name)
    folded = fixed_group_descriptor(s).folded_cartan
    assert folded is not None
    weyl = relative_weyl(dual_twisted(s))
    assert ref_fold_order_check(weyl, folded) is None
    assert ref_check_fold(weyl, folded) is None


@pytest.mark.parametrize("name", SWEEP + ("SU11", "SU13", "U3-like"))
def test_fold_matches_reference_recipe(name):
    s = datum(name)
    folded = _fold_recipe(s)
    assert folded == ref_fold_recipe(s)
    assert (folded is None) == (name == "U3-like")
    if folded is not None:
        assert ref_check_fold(relative_weyl(dual_twisted(s)), folded) is None


# ---------------------------------------------------------------------------
# Mutations


def refold(folded, roots, coroots):
    """A FoldedCartan on the same lattice with other simple roots/coroots."""
    d = BasedRootDatum.make(folded.datum.rank, roots, coroots)
    return FoldedCartan(type_label=folded.type_label, datum=d)


def reorder_simple(folded):
    return refold(folded, folded.datum.simple_roots[::-1], folded.datum.simple_coroots[::-1])


def replace(value, **changes):
    """A copy of a package value with the given fields changed."""
    return type(value)(**{name: getattr(value, name) for name in type(value).__annotations__} | changes)


def permute_generators(w0):
    return replace(w0, generators=w0.generators[::-1])


def swap_kind(kind):
    return "orthogonal" if kind == "adjacent-pair" else "adjacent-pair"


def patched(monkeypatch, module, name, change):
    """Rebind module.name to change applied to its value."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda t: change(real(t)))


def descriptor(s):
    """fixed_group_descriptor(s) on a cold copy of s: the fold and the
    dual's substrate, which holds the reflection rows, are built afresh."""
    return fixed_group_descriptor(cold(s), CHAR0)


def orbit_swaps():
    out = []
    for name in ("SU4", "SU5", "SU7"):
        for o in range(relative_simple_roots(preset(name)).relative_rank):
            out.append((name, o))
    return out


@pytest.mark.parametrize("name,orbit", orbit_swaps())
def test_swapped_orbit_type_is_caught(monkeypatch, name, orbit):
    """A swapped orbit type in the rows' lookup changes a_O, which the rows'
    check refuses."""
    def swapped(rel):
        kinds = list(rel.orbit_type)
        kinds[orbit] = swap_kind(kinds[orbit])
        return replace(rel, orbit_type=tuple(kinds))

    patched(monkeypatch, coweights, "relative_simple_roots", swapped)
    with pytest.raises(InvariantViolation, match="^reflection row"):
        descriptor(preset(name))


@pytest.mark.parametrize("name", ("SU3", "SU5", "SU7"))
def test_orbit_types_in_dual_do_not_enter_the_fold(monkeypatch, name):
    """m_O is read from the checked row: swapping every orbit type in
    `dual`'s own lookup leaves the char0 fold as it was."""
    s = preset(name)
    want = fixed_group_descriptor(s).folded_cartan
    patched(monkeypatch, dual, "relative_simple_roots", lambda rel: replace(
        rel, orbit_type=tuple(swap_kind(kind) for kind in rel.orbit_type)))
    assert descriptor(s).folded_cartan == want


@pytest.mark.parametrize("name", ("SU3", "SU5", "SU7", "Sp4", "G2", "Spin8-triality"))
def test_doubled_folded_root_is_caught(monkeypatch, name):
    """The root a_O that orbit 0's folded reflection moves along, doubled in
    the rows' coroot-orbit coordinates (X^*(s)_I is free here), is refused
    by the rows' check."""
    def doubled(rows):
        return (tuple(2 * x for x in rows[0]), *rows[1:])

    real = vars(coweights._Substrate)["coroot_orbits"].func
    monkeypatch.setattr(coweights._Substrate, "coroot_orbits", property(lambda sub: doubled(real(sub))))
    with pytest.raises(InvariantViolation, match="^reflection row 0 "):
        descriptor(preset(name))


MULTI_ORBIT = ("SL3", "Sp4", "G2", "SU4", "SU5", "Spin8-triality", "SU7", "SU9")


@pytest.mark.parametrize("name", MULTI_ORBIT)
def test_reordered_folded_roots_pass_reference_only(monkeypatch, name):
    """Reordered folded roots keep the Weyl order; the generator check
    refuses them, and so does the fold when its orbits are read in reverse
    against the rows: a root of one orbit is no multiple of another
    orbit's a_O."""
    s = preset(name)
    mutated = reorder_simple(_fold_recipe(s))
    weyl_group = relative_weyl(dual_twisted(s))
    assert ref_fold_order_check(weyl_group, mutated) is None
    with pytest.raises(InvariantViolation):
        ref_check_fold(weyl_group, mutated)
    patched(monkeypatch, dual, "relative_simple_roots", lambda rel: replace(
        rel, simple_orbit_list=rel.simple_orbit_list[::-1], orbit_type=rel.orbit_type[::-1]))
    with pytest.raises(InvariantViolation, match="is no multiple of its folded root$"):
        descriptor(s)


@pytest.mark.parametrize("name", MULTI_ORBIT)
def test_permuted_w0_generators_pass_reference_only(monkeypatch, name):
    """Permuted W0 generators keep the Weyl order; the rows' check against
    the descended generators refuses them."""
    s = preset(name)
    mutated = permute_generators(relative_weyl(dual_twisted(s)))
    folded = _fold_recipe(s)
    assert ref_fold_order_check(mutated, folded) is None
    with pytest.raises(InvariantViolation):
        ref_check_fold(mutated, folded)
    patched(monkeypatch, coweights, "relative_weyl", permute_generators)
    with pytest.raises(InvariantViolation, match="^reflection row"):
        descriptor(s)


# ---------------------------------------------------------------------------
# The descriptor against the registry's

REGISTRY_SWEEP = tuple(
    label for name in DEFAULT_PRESET_NAMES + ("SU7", "SU9", "SU11", "SU13")
    for label in (name, f"{name}-dual")
)
# Free X^*(s)_I, but neither split, simply connected nor a fixed entry.
NOW_CONNECTED = tuple(f"{name}-dual" for name in (
    "SL2xSL2-swap", "SU4", "SU5", "Spin8-triality", "SU7", "SU9", "SU11", "SU13"))


@pytest.mark.parametrize("profile", ["char0", "Fl:2", "Fl:3", "Zl:5"])
@pytest.mark.parametrize("name", REGISTRY_SWEEP)
def test_descriptor_matches_registry_reference(name, profile):
    s = datum(name)
    p = parse_profile(profile)
    got, want = fixed_group_descriptor(s, p), ref_fixed_group_descriptor(s, p)
    for field in type(got).__annotations__:
        if field == "connected_char0" and name in NOW_CONNECTED:
            assert (got.connected_char0, want.connected_char0) == ("yes", "unknown")
        else:
            assert repr(getattr(got, field)) == repr(getattr(want, field)), field
