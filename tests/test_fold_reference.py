"""The fold check on generators against the order comparison it replaced.

`ref_fold_order_check` is the earlier request-path check, kept verbatim as
an oracle: it enumerates W0 and the folded absolute Weyl group and compares
their orders.  `dual._check_fold` compares the descended W0 generators with
the folded simple reflections instead.  Both must accept every fixed
preset, its dual, SU5, SU7 and SU9.  Every mutation below must be caught on
the request path; reordering the folded simple roots or permuting the W0
generators keeps both orders, so the reference passes them, and only the
generator check catches them.
"""

import pytest

from twisted_satake import dual
from twisted_satake.abelian import InvariantViolation
from twisted_satake.dual import (
    CHAR0,
    FoldedCartan,
    _check_fold,
    _fold_recipe,
    dual_twisted,
    fixed_group_descriptor,
)
from twisted_satake.galois import relative_simple_roots
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rootdatum import BasedRootDatum
from twisted_satake.weyl import relative_weyl

from test_weyl_reference import enumerate_absolute_weyl

# ---------------------------------------------------------------------------
# Reference implementation


def ref_fold_order_check(weyl, folded):
    folded_order = len(enumerate_absolute_weyl(folded.datum))
    if weyl.order != folded_order:
        raise InvariantViolation(
            f"folded Weyl order {folded_order} disagrees with |W0| = {weyl.order}"
        )


# ---------------------------------------------------------------------------
# The sweep

SWEEP = (
    tuple(DEFAULT_PRESET_NAMES)
    + tuple(f"{name}-dual" for name in DEFAULT_PRESET_NAMES)
    + ("SU5", "SU7", "SU9")
)


def datum(name):
    if name.endswith("-dual"):
        return dual_twisted(preset(name[: -len("-dual")]))
    return preset(name)


@pytest.mark.parametrize("name", SWEEP)
def test_generator_check_agrees_with_order_check(name):
    s = datum(name)
    folded = fixed_group_descriptor(s).folded_cartan
    assert folded is not None
    weyl = relative_weyl(dual_twisted(s))
    assert ref_fold_order_check(weyl, folded) is None
    assert _check_fold(weyl, folded) is None


# ---------------------------------------------------------------------------
# Mutations


def refold(folded, roots, coroots):
    """A FoldedCartan on the same lattice with other simple roots/coroots."""
    d = BasedRootDatum.make(folded.datum.rank, roots, coroots)
    return FoldedCartan(type_label=folded.type_label, datum=d)


def double_root(folded):
    roots = list(folded.datum.simple_roots)
    roots[0] = tuple(2 * x for x in roots[0])
    return refold(folded, roots, folded.datum.simple_coroots)


def reorder_simple(folded):
    return refold(folded, folded.datum.simple_roots[::-1], folded.datum.simple_coroots[::-1])


def descriptor_with(monkeypatch, s, fold=None, weyl=None):
    """fixed_group_descriptor(s), uncached, with the folded datum or W0
    replaced by a mutated copy."""
    if fold is not None:
        real_fold = dual._fold_recipe
        monkeypatch.setattr(dual, "_fold_recipe", lambda t: fold(real_fold(t)))
    if weyl is not None:
        real_weyl = dual.relative_weyl
        monkeypatch.setattr(dual, "relative_weyl", lambda t: weyl(real_weyl(t)))
    return fixed_group_descriptor.__wrapped__(s, CHAR0)


def replace(value, **changes):
    """A copy of a package value with the given fields changed."""
    return type(value)(**{name: getattr(value, name) for name in type(value).__annotations__} | changes)


def permute_generators(w0):
    return replace(w0, generators=w0.generators[::-1])


def orbit_swaps():
    out = []
    for name in ("SU4", "SU5", "SU7"):
        for o in range(relative_simple_roots(preset(name)).relative_rank):
            out.append((name, o))
    return out


@pytest.mark.parametrize("name,orbit", orbit_swaps())
def test_swapped_orbit_type_is_caught(monkeypatch, name, orbit):
    s = preset(name)
    real = dual.relative_simple_roots

    def swapped(t):
        rel = real(t)
        kinds = list(rel.orbit_type)
        kinds[orbit] = "orthogonal" if kinds[orbit] == "adjacent-pair" else "adjacent-pair"
        return replace(rel, orbit_type=tuple(kinds))

    monkeypatch.setattr(dual, "relative_simple_roots", swapped)
    with pytest.raises(InvariantViolation):
        fixed_group_descriptor.__wrapped__(s, CHAR0)


@pytest.mark.parametrize("name", ("SU3", "SU5", "SU7", "Sp4", "G2", "Spin8-triality"))
def test_doubled_folded_root_is_caught(monkeypatch, name):
    s = preset(name)
    with pytest.raises(InvariantViolation):
        _check_fold(relative_weyl(dual_twisted(s)), double_root(_fold_recipe(s)))
    with pytest.raises(InvariantViolation):
        descriptor_with(monkeypatch, s, fold=double_root)


MULTI_ORBIT = ("SL3", "Sp4", "G2", "SU4", "SU5", "Spin8-triality", "SU7", "SU9")


@pytest.mark.parametrize("name", MULTI_ORBIT)
def test_reordered_folded_roots_pass_reference_only(monkeypatch, name):
    s = preset(name)
    mutated = reorder_simple(_fold_recipe(s))
    weyl = relative_weyl(dual_twisted(s))
    assert ref_fold_order_check(weyl, mutated) is None
    with pytest.raises(InvariantViolation):
        _check_fold(weyl, mutated)
    with pytest.raises(InvariantViolation):
        descriptor_with(monkeypatch, s, fold=reorder_simple)


@pytest.mark.parametrize("name", MULTI_ORBIT)
def test_permuted_w0_generators_pass_reference_only(monkeypatch, name):
    s = preset(name)
    mutated = permute_generators(relative_weyl(dual_twisted(s)))
    folded = _fold_recipe(s)
    assert ref_fold_order_check(mutated, folded) is None
    with pytest.raises(InvariantViolation):
        _check_fold(mutated, folded)
    with pytest.raises(InvariantViolation):
        descriptor_with(monkeypatch, s, weyl=permute_generators)
