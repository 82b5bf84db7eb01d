"""Weyl groups: enumeration, fixed subgroups, descent, Iwahori-Weyl."""

import itertools
from fractions import Fraction

import pytest

from twisted_satake.abelian import IntMatrix
from twisted_satake.galois import coinvariants, group_elements
from twisted_satake.presets import default_presets, preset
from twisted_satake.weyl import (
    EnumerationBoundExceeded,
    IwahoriWeylElement,
    enumerate_absolute_weyl,
    fixed_weyl_subgroup,
    iw_affine_action,
    iw_identity,
    iw_inverse,
    iw_multiply,
    iw_translation,
    longest_parabolic_element,
    relative_weyl,
    simple_reflection,
)

CLASSICAL_ORDERS = {
    "SL2": 2,
    "PGL2": 2,
    "SL3": 6,
    "PGL3": 6,
    "Sp4": 8,
    "G2": 12,
    "SL2xSL2-swap": 4,
    "SU3": 6,
    "PSU3": 6,
    "SU4": 24,
    "SU5": 120,
    "Spin8-triality": 192,
    "torus-rank-1": 1,
    "torus-rank-2": 1,
}


class TestAbsoluteWeyl:
    def test_orders(self):
        for name, order in CLASSICAL_ORDERS.items():
            assert len(enumerate_absolute_weyl(preset(name).base)) == order, name

    def test_closed_under_generators(self):
        d = preset("Sp4").base
        elems = {w.matrix for w in enumerate_absolute_weyl(d)}
        for w in elems:
            for i in range(d.num_simple):
                assert simple_reflection(d, i).matrix.mul(w) in elems

    def test_bound_exceeded(self):
        with pytest.raises(EnumerationBoundExceeded):
            enumerate_absolute_weyl(preset("Spin8-triality").base, bound=10)

    def test_matrices_permute_coroots(self):
        d = preset("SL3").base
        from twisted_satake.rootdatum import full_root_system

        coroots = {c for _r, c in full_root_system(d).all_pairs}
        for w in enumerate_absolute_weyl(d):
            assert {w.apply(c) for c in coroots} == coroots


class TestFixedSubgroup:
    def test_trivial_action_keeps_everything(self):
        t = preset("SL3")
        assert len(fixed_weyl_subgroup(t)) == 6

    def test_a2_flip(self):
        # Brute-force commutation over S3: only e and the longest element.
        t = preset("SU3")
        fixed = fixed_weyl_subgroup(t)
        assert len(fixed) == 2
        longest = longest_parabolic_element(t.base, (0, 1))
        assert {w.matrix for w in fixed} == {IntMatrix.identity(2), longest.matrix}

    def test_a3_flip(self):
        assert len(fixed_weyl_subgroup(preset("SU4"))) == 8

    def test_triality(self):
        assert len(fixed_weyl_subgroup(preset("Spin8-triality"))) == 12


class TestRelativeWeyl:
    def test_su3_negation(self):
        t = preset("SU3")
        w0 = relative_weyl(t)
        assert w0.order == 2
        s = w0.generators[0]
        assert w0.act(s, ((1,), ())) == ((-1,), ())
        assert w0.act(s, ((-7,), ())) == ((7,), ())

    def test_split_a1(self):
        assert relative_weyl(preset("SL2")).order == 2

    def test_su4_order(self):
        assert relative_weyl(preset("SU4")).order == 8

    def test_orders_match_fixed_subgroup(self):
        for name, entry in default_presets():
            t = entry.twisted
            assert relative_weyl(t).order == len(fixed_weyl_subgroup(t)), name

    def test_generators_are_involutions_on_coinvariants(self):
        for name, entry in default_presets():
            t = entry.twisted
            w0 = relative_weyl(t)
            c = coinvariants(t)
            probe = (tuple(range(1, c.quotient.free_rank + 1)), (0,) * len(c.quotient.invariant_factors))
            for s in w0.generators:
                assert w0.act(s, w0.act(s, probe)) == probe, name

    def test_generators_commute_with_inertia(self):
        for name, entry in default_presets():
            t = entry.twisted
            for s in relative_weyl(t).generators:
                for mat, _p in group_elements(t):
                    assert s.matrix.mul(mat) == mat.mul(s.matrix), name

    def test_action_preserves_relation_lattice(self):
        # The descended action is well defined: generators map each
        # (1-gamma) e_j into the relation span.
        from twisted_satake.galois import one_minus_gamma_columns

        for name, entry in default_presets():
            t = entry.twisted
            c = coinvariants(t)
            for s in relative_weyl(t).generators:
                for col in one_minus_gamma_columns(t):
                    assert c.class_of(s.apply(col)) == c.zero_class(), name


class TestIwahoriWeyl:
    def test_translation_subgroup(self):
        t = preset("SU3")
        x = iw_translation(t, ((2,), ()))
        y = iw_translation(t, ((3,), ()))
        z = iw_multiply(x, y)
        assert z.translation == ((5,), ())
        assert z.finite.matrix == IntMatrix.identity(2)

    def test_conjugation_moves_translation(self):
        t = preset("SU3")
        s = relative_weyl(t).generators[0]
        sw = IwahoriWeylElement(t, s, coinvariants(t).zero_class())
        lam = iw_translation(t, ((3,), ()))
        conj = iw_multiply(iw_multiply(sw, lam), iw_inverse(sw))
        assert conj.finite.matrix == IntMatrix.identity(2)
        assert conj.translation == ((-3,), ())

    def test_su3_product(self):
        t = preset("SU3")
        s = relative_weyl(t).generators[0]
        x = IwahoriWeylElement(t, s, ((1,), ()))
        y = IwahoriWeylElement(t, s, ((2,), ()))
        z = iw_multiply(x, y)
        # (s,1)(s,2) = (e, s(1) + 2) = (e, 1)
        assert z.finite.matrix == IntMatrix.identity(2)
        assert z.translation == ((1,), ())

    def test_group_axioms(self):
        t = preset("SU4")
        w0 = relative_weyl(t)
        c = coinvariants(t)
        elems = [
            IwahoriWeylElement(t, w, (free, ()))
            for w in w0.elements[:3]
            for free in [(0, 0), (1, -1), (2, 1)]
        ]
        e = iw_identity(t)
        for x in elems:
            assert iw_multiply(x, e) == x
            assert iw_multiply(e, x) == x
            inv = iw_inverse(x)
            assert iw_multiply(x, inv) == e
            assert iw_multiply(inv, x) == e
        for x, y, z in itertools.islice(itertools.product(elems, repeat=3), 60):
            assert iw_multiply(iw_multiply(x, y), z) == iw_multiply(x, iw_multiply(y, z))

    def test_affine_action_translation(self):
        t = preset("SU3")
        mu = iw_translation(t, ((4,), ()))
        assert iw_affine_action(mu, (Fraction(0),)) == (Fraction(-4),)
        assert iw_affine_action(iw_identity(t), (Fraction(7, 3),)) == (Fraction(7, 3),)

    def test_affine_action_mixed(self):
        t = preset("SU3")
        s = relative_weyl(t).generators[0]
        x = IwahoriWeylElement(t, s, ((1,), ()))
        assert iw_affine_action(x, (Fraction(0),)) == (Fraction(-1),)

    def test_affine_action_is_right_action(self):
        t = preset("SU4")
        w0 = relative_weyl(t)
        xs = [
            IwahoriWeylElement(t, w0.elements[1], ((1, 0), ())),
            IwahoriWeylElement(t, w0.elements[2], ((0, 2), ())),
        ]
        p = (Fraction(1, 2), Fraction(-3))
        lhs = iw_affine_action(iw_multiply(xs[0], xs[1]), p)
        rhs = iw_affine_action(xs[1], iw_affine_action(xs[0], p))
        assert lhs == rhs
