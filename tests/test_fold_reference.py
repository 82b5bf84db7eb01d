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

The fold now reads the dual's reflection rows, whose check against W0's
descended longest elements is what certifies it.  So every mutation below
changes an input the rows read (an orbit type, W0's generators, a_O) or
pairs a folded root with another orbit's row, and must be refused with
InvariantViolation through `fixed_group_descriptor`, with the rows
uncached.  An orbit type in `dual`'s own lookup no longer enters the fold.
"""

import pytest

from twisted_satake import dual, weyl
from twisted_satake.abelian import InvariantViolation, dot
from twisted_satake.dual import (
    CHAR0,
    FoldedCartan,
    _classify_label,
    _fold_recipe,
    dual_twisted,
    fixed_group_descriptor,
)
from twisted_satake.galois import TwistedRootDatum, coinvariants, relative_simple_roots
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rootdatum import BasedRootDatum, _validity_report
from twisted_satake.weyl import _descended, relative_weyl, simple_reflection

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
    report = _validity_report(folded)
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


def descriptor(monkeypatch, s):
    """fixed_group_descriptor(s), with the descriptor and the reflection
    rows uncached."""
    monkeypatch.setattr(dual, "_w0_reflections", weyl._w0_reflections.__wrapped__)
    return fixed_group_descriptor.__wrapped__(s, CHAR0)


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

    patched(monkeypatch, weyl, "relative_simple_roots", swapped)
    with pytest.raises(InvariantViolation, match="^reflection row"):
        descriptor(monkeypatch, preset(name))


@pytest.mark.parametrize("name", ("SU3", "SU5", "SU7"))
def test_orbit_types_in_dual_do_not_enter_the_fold(monkeypatch, name):
    """m_O is read from the checked row: swapping every orbit type in
    `dual`'s own lookup leaves the char0 fold as it was."""
    s = preset(name)
    want = fixed_group_descriptor(s).folded_cartan
    patched(monkeypatch, dual, "relative_simple_roots", lambda rel: replace(
        rel, orbit_type=tuple(swap_kind(kind) for kind in rel.orbit_type)))
    assert descriptor(monkeypatch, s).folded_cartan == want


@pytest.mark.parametrize("name", ("SU3", "SU5", "SU7", "Sp4", "G2", "Spin8-triality"))
def test_doubled_folded_root_is_caught(monkeypatch, name):
    """The root a_O that orbit 0's folded reflection moves along, doubled in
    the rows' coroot-class lookup, is refused by the rows' check."""
    def doubled(classes):
        free, torsion = classes[0]
        return (tuple(2 * x for x in free), torsion), *classes[1:]

    patched(monkeypatch, weyl, "orbit_coroot_classes", doubled)
    with pytest.raises(InvariantViolation, match="^reflection row 0 "):
        descriptor(monkeypatch, preset(name))


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
        descriptor(monkeypatch, s)


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
    patched(monkeypatch, weyl, "relative_weyl", permute_generators)
    with pytest.raises(InvariantViolation, match="^reflection row"):
        descriptor(monkeypatch, s)
