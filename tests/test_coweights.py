"""Dominance: cones, representatives, order certificates, projections."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_satake.abelian import IntMatrix, smith_normal_form
from twisted_satake.coweights import (
    _project,
    class_height,
    dominant_image_monoid,
    dominant_representative,
    enumerate_dominant_classes,
    is_dominant_class,
    leq,
)
from twisted_satake.galois import coinvariants
from twisted_satake.presets import default_presets, preset
from twisted_satake.rootdatum import is_adjoint
from twisted_satake.weyl import relative_weyl

from test_presets import ambient_embedding
from test_weyl_reference import ref_act, relative_elements


def su3_class(n):
    return ((n,), ())


class TestDominance:
    def test_zero_dominant(self):
        for name, entry in default_presets():
            t = entry.twisted
            zero = coinvariants(t).class_of((0,) * t.rank)
            assert is_dominant_class(t, zero) is not None, name

    def test_su3_values(self):
        t = preset("SU3")
        assert is_dominant_class(t, su3_class(1)) is not None
        witness = is_dominant_class(t, su3_class(1))
        assert all(p == Fraction(1, 2) for p in witness.certificate)
        assert is_dominant_class(t, su3_class(-1)) is None

    def test_certificate_nonnegative(self):
        t = preset("SU4")
        for cls in enumerate_dominant_classes(t, 8):
            witness = is_dominant_class(t, cls)
            assert all(p >= 0 for p in witness.certificate)


class TestRepresentative:
    def test_su3_negation(self):
        t = preset("SU3")
        rep, w = dominant_representative(t, su3_class(-5))
        assert rep.cls == su3_class(5)

    def test_dominant_fixed(self):
        t = preset("SU3")
        rep, w = dominant_representative(t, su3_class(4))
        assert rep.cls == su3_class(4)
        assert w.matrix == __import__("twisted_satake.abelian", fromlist=["IntMatrix"]).IntMatrix.identity(2)

    def test_split_a2_reflection(self):
        # The S3-orbit of (-1,1,0) in sum-zero coordinates holds exactly one
        # dominant element: the descending sort (1,0,-1).
        t = preset("SL3")
        emb = ambient_embedding("SU3")  # same internal coordinates
        cls = coinvariants(t).class_of(emb.to_internal((-1, 1, 0)))
        rep, _w = dominant_representative(t, cls)
        assert rep.cls == coinvariants(t).class_of(emb.to_internal((1, 0, -1)))

    def test_invariance_under_orbit(self):
        for name, entry in default_presets():
            t = entry.twisted
            w0 = relative_weyl(t)
            kwargs = {"coord_bound": 2} if name.startswith("torus") else {}
            for cls in enumerate_dominant_classes(t, 6, **kwargs)[:6]:
                for w in relative_elements(w0):
                    moved = ref_act(t, w, cls)
                    assert dominant_representative(t, moved)[0].cls == cls, name


class TestLeq:
    def test_reflexive(self):
        t = preset("SU4")
        for cls in enumerate_dominant_classes(t, 6):
            cert = leq(t, cls, cls)
            assert cert is not None and all(x == 0 for x in cert.coefficients)

    def test_su3_step_two(self):
        t = preset("SU3")
        cert = leq(t, su3_class(1), su3_class(3))
        assert cert.coefficients == (2,)

    def test_pgl2_parity_obstruction(self):
        t = preset("PGL2")
        assert leq(t, ((0,), ()), ((1,), ())) is None
        assert leq(t, ((0,), ()), ((2,), ())) is not None

    def test_antisymmetry(self):
        t = preset("Sp4")
        classes = enumerate_dominant_classes(t, 8)
        for a in classes:
            for b in classes:
                if leq(t, a, b) and leq(t, b, a):
                    assert a == b

    def test_transitivity_with_certificates(self):
        t = preset("SU5")
        classes = enumerate_dominant_classes(t, 8)
        pairs = [(a, b, leq(t, a, b)) for a in classes for b in classes]
        order = {(a, b) for a, b, c in pairs if c is not None}
        for a, b, c1 in pairs:
            if c1 is None:
                continue
            for bb, c, c2 in pairs:
                if bb != b or c2 is None:
                    continue
                cert = leq(t, a, c)
                assert cert is not None
                assert cert.coefficients == tuple(
                    x + y for x, y in zip(c1.coefficients, c2.coefficients)
                )

    @settings(max_examples=50, deadline=None)
    @given(st.integers(-6, 6), st.integers(-6, 6))
    def test_su3_order_is_total_on_pairs_mod_step(self, a, b):
        t = preset("SU3")
        cert = leq(t, su3_class(a), su3_class(b))
        # The coroot-orbit class is 1, so the order is the usual <=.
        assert (cert is not None) == (a <= b)


class TestProjection:
    """`_project`, which `dominant_image_monoid` maps over the dominant
    coweights, sends each to its class and keeps it dominant."""

    def test_su3_sum_zero_values(self):
        t = preset("SU3")
        emb = ambient_embedding("SU3")
        assert _project(t, emb.to_internal((1, 0, -1))) == su3_class(2)
        assert _project(t, emb.to_internal((1, 1, -2))) == su3_class(3)
        assert is_dominant_class(t, su3_class(3)).certificate == (Fraction(3, 2), Fraction(3, 2))

    def test_zero(self):
        t = preset("SU3")
        assert _project(t, (0, 0)) == su3_class(0)

    def test_non_dominant_rejected(self):
        t = preset("SU3")
        emb = ambient_embedding("SU3")
        with pytest.raises(Exception):
            _project(t, emb.to_internal((0, 1, -1)))  # b > a: not dominant

    def test_one_non_dominant_error(self):
        from twisted_satake import coweights, satake

        assert satake.NonDominantError is coweights.NonDominantError
        t = preset("SU3")
        emb = ambient_embedding("SU3")
        with pytest.raises(satake.NonDominantError):
            _project(t, emb.to_internal((0, 1, -1)))


class TestImageMonoid:
    def test_su3_exact_image(self):
        # Exhaustively computed in the sum-zero coordinates: a-c = p+q with
        # p = a-b, q = b-c >= 0 and p = q mod 3, so the image is {0} + Z>=2.
        t = preset("SU3")
        img = [c[0][0] for c in dominant_image_monoid(t, 20)]
        assert img == [0, 2, 3, 4, 5, 6, 7, 8, 9, 10]

    def test_su3_misses_one(self):
        t = preset("SU3")
        img = set(dominant_image_monoid(t, 20))
        assert su3_class(1) not in img
        assert is_dominant_class(t, su3_class(1)) is not None

    def test_split_identity(self):
        t = preset("SL2")
        img = dominant_image_monoid(t, 8)
        cone = enumerate_dominant_classes(t, 8)
        assert img == cone

    def test_psu3_saturates(self):
        t = preset("PSU3")
        assert dominant_image_monoid(t, 8) == enumerate_dominant_classes(t, 8)

    def test_adjoint_presets_saturate(self):
        for name, entry in default_presets():
            t = entry.twisted
            if not is_adjoint(t.base):
                continue
            assert dominant_image_monoid(t, 10) == enumerate_dominant_classes(t, 10), name


def center_is_torus(t):
    """Condition (c) of the dominant-lifting criterion: X_*(T) -> X_*(T_ad),
    v -> (<v, alpha_i>)_i, is onto, so every invariant factor of the
    simple-root rows is 1."""
    dec = smith_normal_form(IntMatrix.from_rows(t.base.simple_roots))
    k = t.base.num_simple
    return dec.rank == k and all(d == 1 for d in dec.diagonal[:k])


def image_is_cone(t, max_height=12, **kwargs):
    """Is the bounded dominant image the whole bounded dominant cone?"""
    image = dominant_image_monoid(t, max_height, **kwargs)
    return set(image) == set(enumerate_dominant_classes(t, max_height, **kwargs))


class TestSurjectivity:
    def test_su3(self):
        t = preset("SU3")
        assert not center_is_torus(t) and not image_is_cone(t)

    def test_psu3(self):
        t = preset("PSU3")
        assert center_is_torus(t) and image_is_cone(t)

    def test_split_sl2_one_directional(self):
        # Condition (c) fails (the center is mu_2) yet the projection is the
        # identity on dominants, so the observed image saturates.
        t = preset("SL2")
        assert not center_is_torus(t) and image_is_cone(t)

    def test_condition_implies_observed(self):
        for name, entry in default_presets():
            t = entry.twisted
            kwargs = {"coord_bound": 3} if name.startswith("torus") else {}
            if center_is_torus(t):
                assert image_is_cone(t, 8, **kwargs), name


class TestHeights:
    def test_su3_heights(self):
        t = preset("SU3")
        assert class_height(t, su3_class(3)) == 6

    def test_integral_on_dominants(self):
        """Heights are integers on the bounded dominant classes, and on
        seeded classes that are not dominant as well."""
        non_dominant = 0
        for name, entry in default_presets():
            t = entry.twisted
            kwargs = {"coord_bound": 3} if name.startswith("torus") else {}
            rng = random.Random(f"heights:{name}")
            seeded = [coinvariants(t).class_of(tuple(rng.randint(-5, 5) for _ in range(t.rank)))
                      for _ in range(40)]
            non_dominant += sum(is_dominant_class(t, cls) is None for cls in seeded)
            for cls in enumerate_dominant_classes(t, 10, **kwargs) + seeded:
                assert class_height(t, cls).denominator == 1, (name, cls)
        assert non_dominant > 100
