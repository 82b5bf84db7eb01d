"""Schubert strata, closure posets, cells, corr, parity, exports."""

import json
import random
import re
from fractions import Fraction

import pytest

from twisted_satake import satake
from twisted_satake.abelian import InvariantViolation
from twisted_satake.coweights import (
    enumerate_dominant_classes,
    is_dominant_class,
    leq,
)
from twisted_satake.galois import coinvariants
from twisted_satake.presets import default_presets, get_preset, preset
from twisted_satake.satake import (
    NonDominantError,
    closure_poset,
    component_of,
    conv_cell,
    corr,
    format_class,
    mv_cell,
    parity_check,
    poset_to_dot,
    poset_to_json,
    strata_below,
    stratum,
)

from test_weyl_reference import relative_elements


def dot_frac(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def su3_class(n):
    return ((n,), ())


class TestStratum:
    def test_base_point(self):
        for name, entry in default_presets():
            t = entry.twisted
            s = stratum(t, coinvariants(t).zero_class())
            assert s.dim == 0, name

    def test_split_sl2_coroot(self):
        t = preset("SL2")
        assert stratum(t, ((1,), ())).dim == 2

    def test_su3_class_one(self):
        t = preset("SU3")
        assert stratum(t, su3_class(1)).dim == 2

    def test_lift_independence_of_dim(self):
        # Two lifts of the same class pair equally with 2rho.
        t = preset("SU3")
        emb = get_preset("SU3").embedding
        c = coinvariants(t)
        lift_a = emb.to_internal((1, -1, 0))
        lift_b = emb.to_internal((0, 1, -1))
        assert c.class_of(lift_a) == c.class_of(lift_b)
        from twisted_satake.galois import average_vector
        from twisted_satake.rootdatum import rho_data

        two_rho = rho_data(t.base).two_rho
        assert dot_frac(average_vector(t, lift_a), two_rho) == dot_frac(
            average_vector(t, lift_b), two_rho
        )

    def test_non_dominant_rejected(self):
        with pytest.raises(NonDominantError):
            stratum(preset("SU3"), su3_class(-1))

    def test_dims_are_even_heights(self):
        t = preset("SU3")
        for n in range(7):
            assert stratum(t, su3_class(n)).dim == 2 * n


class TestClosurePoset:
    def test_su3_chain(self):
        p = closure_poset(preset("SU3"), cls=su3_class(3))
        assert [x[0][0] for x in p.labels] == [0, 1, 2, 3]
        covers = p.covering_relations()
        assert len(covers) == 3

    def test_split_sl2_two_strata(self):
        p = closure_poset(preset("SL2"), cls=((1,), ()))
        assert len(p.labels) == 2

    def test_singleton(self):
        p = closure_poset(preset("SU3"), cls=su3_class(0))
        assert len(p.labels) == 1

    def test_downward_closure_matches_leq(self):
        # Cross-module consistency: strata below lambda = {mu : mu <= lambda}.
        for name in ["SU3", "SU4", "Sp4", "PGL2"]:
            t = entry = preset(name)
            classes = enumerate_dominant_classes(t, 8)
            for lam in classes:
                below = set(strata_below(t, lam))
                oracle = {mu for mu in classes if leq(t, mu, lam) is not None}
                assert below == oracle, (name, lam)

    def test_dims_increase_along_order(self):
        p = closure_poset(preset("SU4"), max_height=8)
        dims = {s.label: s.dim for s in p.strata}
        for lo, up, _c in p.relations:
            if lo != up:
                assert dims[lo] < dims[up]


class TestPosetCheck:
    """Mutations that break one cover of the SU3 chain 0 < 1 < 2 < 3 reach
    each message of the poset check."""

    def test_cover_across_components(self, monkeypatch):
        real = satake.component_of
        monkeypatch.setattr(satake, "component_of", lambda t, cls: (
            ((1,), ()) if cls == su3_class(2) else real(t, cls)))
        with pytest.raises(InvariantViolation, match="^comparable strata in different components$"):
            closure_poset(preset("SU3"), cls=su3_class(3))

    def test_cover_down_in_dimension(self, monkeypatch):
        real = satake.stratum

        def lowered(t, cls):
            s = real(t, cls)
            return satake.SchubertStratum(label=s.label, dim=0 if cls == su3_class(3) else s.dim,
                                          component=s.component)

        monkeypatch.setattr(satake, "stratum", lowered)
        with pytest.raises(InvariantViolation, match="^dimension does not increase along the order$"):
            closure_poset(preset("SU3"), max_height=6)


class TestComponents:
    def test_identity_component(self):
        t = preset("SU3")
        assert component_of(t, su3_class(0)) == component_of(t, su3_class(5))

    def test_pgl2_two_components(self):
        t = preset("PGL2")
        assert component_of(t, ((1,), ())) != component_of(t, ((0,), ()))
        assert component_of(t, ((1,), ())) == component_of(t, ((3,), ()))

    def test_additive(self):
        t = preset("PGL2")
        pres = __import__("twisted_satake.galois", fromlist=["x"]).pi1_coinvariants_presentation(t)
        a, b = ((1,), ()), ((2,), ())
        c = coinvariants(t)
        total = c.add(a, b)
        assert component_of(t, total) == pres.add(component_of(t, a), component_of(t, b))


class TestMvCells:
    def test_open_cell_full_dimension(self):
        t = preset("SU3")
        cell = mv_cell(t, su3_class(2), su3_class(2))
        assert cell.nonempty and cell.dim == stratum(t, su3_class(2)).dim

    def test_su3_opposite(self):
        cell = mv_cell(preset("SU3"), su3_class(-1), su3_class(1))
        assert cell.nonempty and cell.dim == 0

    def test_su3_empty(self):
        cell = mv_cell(preset("SU3"), su3_class(-3), su3_class(1))
        assert not cell.nonempty and cell.dim is None

    def test_nonemptiness_criterion_quantified(self):
        from twisted_satake.coweights import dominant_representative

        t = preset("SU4")
        doms = enumerate_dominant_classes(t, 6)
        from twisted_satake.weyl import relative_weyl

        w0 = relative_weyl(t)
        ball = sorted({w0.act(w, d) for d in doms for w in relative_elements(w0)})
        for mu in ball:
            rep, _ = dominant_representative(t, mu)
            for lam in doms:
                cell = mv_cell(t, mu, lam)
                assert cell.nonempty == (leq(t, rep.cls, lam) is not None)
                if cell.nonempty:
                    assert 0 <= cell.dim <= stratum(t, lam).dim

    def test_weight_rank_nonzero_implies_nonempty(self):
        # Char-0 weight multiplicities live on nonempty cells.
        from twisted_satake.rep import weight_rank

        t = preset("SU3")
        for mu in range(4):
            for nu in range(-4, 5):
                if weight_rank(t, su3_class(mu), su3_class(nu)) > 0:
                    cell = mv_cell(t, su3_class(nu), su3_class(mu))
                    assert cell.nonempty, (mu, nu)


class TestConvCells:
    def test_all_zero(self):
        z = ((0,), ())
        cell = conv_cell(preset("SU3"), z, z, z, z)
        assert cell.nonempty and cell.dim == 0

    def test_su3_example(self):
        cell = conv_cell(preset("SU3"), su3_class(-1), su3_class(1), su3_class(1), su3_class(1))
        assert cell.nonempty and cell.dim == 2

    def test_su3_empty(self):
        cell = conv_cell(preset("SU3"), su3_class(-3), su3_class(0), su3_class(1), su3_class(1))
        assert not cell.nonempty

    def test_dimension_additivity(self):
        # <mu+lam, rho> + <mu'+lam', rho> = <mu+mu'+lam+lam', rho> exactly.
        t = preset("SU4")
        doms = enumerate_dominant_classes(t, 6)
        from twisted_satake.weyl import relative_weyl

        w0 = relative_weyl(t)
        ball = sorted({w0.act(w, d) for d in doms for w in relative_elements(w0)})[:10]
        for mu in ball:
            for mu2 in ball[:5]:
                for lam in doms[:4]:
                    for lam2 in doms[:4]:
                        a = mv_cell(t, mu, lam)
                        b = mv_cell(t, mu2, lam2)
                        c = conv_cell(t, mu, mu2, lam, lam2)
                        assert c.nonempty == (a.nonempty and b.nonempty)
                        if c.nonempty:
                            assert c.dim == a.dim + b.dim


class TestCorr:
    def test_full_levi_vanishes(self):
        t = preset("SU3")
        for v in [(1, 0), (0, 1), (3, -2)]:
            assert corr(t, (0,), v) == 0

    def test_torus_levi_su3(self):
        t = preset("SU3")
        c = coinvariants(t)
        v = c.lift(su3_class(1))
        assert corr(t, (), v) == 2

    def test_split_a2_levi(self):
        # Levi generated by the first simple root in split A2; linearity
        # checked at two points.
        t = preset("SL3")
        v1, v2 = (1, 0), (0, 1)
        a = corr(t, (0,), v1)
        b = corr(t, (0,), v2)
        both = corr(t, (0,), (1, 1))
        assert both == a + b

    def test_vanishes_on_levi_coroot_classes(self):
        for name in ["SL3", "SU4", "Sp4"]:
            t = preset(name)
            from twisted_satake.galois import relative_simple_roots

            rel = relative_simple_roots(t)
            for li in range(rel.relative_rank):
                for orbit_index in rel.simple_orbit_list[li]:
                    coroot = t.base.simple_coroots[orbit_index]
                    assert corr(t, (li,), coroot) == 0, (name, li)

    def test_linearity_quantified(self):
        t = preset("SU4")
        import itertools

        for v, w in itertools.product([(1, 0, 0), (0, 1, 0), (1, 1, -1)], repeat=2):
            total = tuple(a + b for a, b in zip(v, w))
            assert corr(t, (0,), total) == corr(t, (0,), v) + corr(t, (0,), w)


class TestParity:
    def test_identity_components(self):
        for name, entry in default_presets():
            if name.startswith("torus"):
                continue
            t = entry.twisted
            assert parity_check(t, component_of(t, coinvariants(t).zero_class())) == 0, name

    def test_pgl2_odd_component(self):
        # The one-dimensional projective-line component: parity 1.
        t = preset("PGL2")
        assert parity_check(t, component_of(t, ((1,), ()))) == 1

    def test_constant_across_all_components(self):
        for name in ["PGL2", "PGL3", "SU3", "SU4"]:
            t = preset(name)
            comps = {component_of(t, cls) for cls in enumerate_dominant_classes(t, 12)}
            for comp in comps:
                assert parity_check(t, comp, 12) in (0, 1), name


class TestExports:
    def test_json_round_trip(self):
        p = closure_poset(preset("SU3"), cls=su3_class(2))
        doc = json.loads(poset_to_json(p))
        assert [n["label"] for n in doc["nodes"]] == ["0", "1", "2"]
        assert doc["edges"] == [
            {"lower": "0", "upper": "1"},
            {"lower": "1", "upper": "2"},
        ]

    def test_dot_output(self):
        p = closure_poset(preset("SL2"), cls=((2,), ()))
        dot = poset_to_dot(p)
        assert dot.startswith("digraph")
        assert '"0" -> "1"' in dot or '"1" -> "2"' in dot

    def test_deterministic(self):
        p1 = closure_poset(preset("SU4"), max_height=6)
        p2 = closure_poset(preset("SU4"), max_height=6)
        assert poset_to_json(p1) == poset_to_json(p2)

    def test_format_class(self):
        assert format_class(((3,), ())) == "3"
        assert format_class(((1, -2), (1,))) == "1,-2;1"
        assert format_class(((), ())) == "0"


# Classes are integers or refused: each entry point below reads a class (or,
# for class_of, a vector) of SU5 with one bad entry at a seeded position.

BAD_ENTRIES = (Fraction(5, 2), Fraction(1, 2), -1.5, 0.9, 2.0, True, False)
CLASS_ENTRY_POINTS = {
    "class_of": lambda t, cls: coinvariants(t).class_of(cls[0] + cls[0]),
    "is_dominant_class": lambda t, cls: is_dominant_class(t, cls),
    "stratum": lambda t, cls: stratum(t, cls).dim,
    "closure_poset": lambda t, cls: closure_poset(t, cls=cls),
    "leq": lambda t, cls: leq(t, ((0, 0), ()), cls),
    "mv_cell": lambda t, cls: mv_cell(t, cls, ((1, 1), ())),
    "conv_cell": lambda t, cls: conv_cell(t, ((0, 0), ()), cls, ((1, 1), ()), ((1, 1), ())),
}


class TestIntegerClasses:
    @pytest.mark.parametrize("entry", CLASS_ENTRY_POINTS)
    @pytest.mark.parametrize("seed, value", list(enumerate(BAD_ENTRIES)))
    def test_non_integer_entry_is_refused_by_name(self, entry, seed, value):
        rng = random.Random(seed)
        free = [rng.randint(0, 3), rng.randint(0, 3)]
        free[rng.randrange(2)] = value
        with pytest.raises(ValueError, match=f"^not an integer entry: {re.escape(repr(value))}$"):
            CLASS_ENTRY_POINTS[entry](preset("SU5"), (tuple(free), ()))

    def test_inputs_once_answered(self):
        """Each of these once answered for a different input, or raised TypeError."""
        t = preset("SU3")
        for call in (
            lambda: coinvariants(t).class_of((Fraction(1, 2), 0)),
            lambda: coinvariants(t).class_of((0.9, 0)),
            lambda: stratum(t, ((Fraction(5, 2),), ())).dim,
            lambda: closure_poset(t, cls=((Fraction(5, 2),), ())),
            lambda: is_dominant_class(t, ((True,), ())),
            lambda: leq(t, ((0,), ()), ((2.0,), ())),
            lambda: mv_cell(t, ((-1.5,), ()), ((1,), ())),
        ):
            with pytest.raises(ValueError, match="^not an integer entry: "):
                call()

    def test_integral_fraction_is_its_integer(self):
        t = preset("SU5")
        c = coinvariants(t)
        assert c.class_of((Fraction(4, 2), 1, 0, 0)) == c.class_of((2, 1, 0, 0))
        x = c.coordinates(((Fraction(6, 3), 1), ()))
        assert x == (2, 1) and all(type(v) is int for v in x)
        assert stratum(t, ((Fraction(2), 1), ())) == stratum(t, ((2, 1), ()))
