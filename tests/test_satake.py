"""Schubert strata, closure posets, cells, corr, parity, exports."""

import json
import random
import re
from fractions import Fraction

import pytest

from twisted_satake import coweights, satake
from twisted_satake.abelian import DimensionMismatch, InvariantViolation, vec_add
from twisted_satake.coweights import (
    dominant_coweights_up_to_height,
    dominant_image_monoid,
    dominant_representative,
    enumerate_dominant_classes,
    is_dominant_class,
    leq,
)
from twisted_satake.galois import DiagramAutomorphism, coinvariants
from twisted_satake.presets import default_presets, preset
from twisted_satake.rep import WeightMultiset, branch_to_fixed_group
from twisted_satake.rootdatum import BasedRootDatum
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
    poset_document,
    strata_below,
    stratum,
)

from test_dominance_reference import order_relations
from test_presets import ambient_embedding
from test_value import cold
from test_weyl_reference import ref_act, relative_elements


def dot_frac(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def su3_class(n):
    return ((n,), ())


class TestStratum:
    def test_base_point(self):
        for name, entry in default_presets():
            t = entry.twisted
            s = stratum(t, coinvariants(t).class_of((0,) * t.rank))
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
        emb = ambient_embedding("SU3")
        c = coinvariants(t)
        lift_a = emb.to_internal((1, -1, 0))
        lift_b = emb.to_internal((0, 1, -1))
        assert c.class_of(lift_a) == c.class_of(lift_b)
        from twisted_satake.galois import average_vector
        from twisted_satake.rootdatum import full_root_system

        two_rho = full_root_system(t.base).two_rho
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

    def test_one_row_per_label(self, monkeypatch):
        """A stratum reads its dimension and component from the label's one
        cached row: on SU7 up to height 40, `closure_poset` returns the
        strata it returned when `component_of` looked the row up again,
        with one hit fewer per label in SU7's own `_class_row` cache."""
        t = preset("SU7")

        def two_lookups(t, cls):
            dim = satake._dominant_row(t, coinvariants(t).coordinates(cls), cls)[0]
            return satake.SchubertStratum(label=cls, dim=dim, component=component_of(t, cls))

        def hits(build):
            rows = vars(t)["twisted_satake.coweights._class_row"]
            before = rows.cache_info()
            poset = build(t, max_height=40)
            after = rows.cache_info()
            assert after.misses == before.misses
            return poset, after.hits - before.hits

        closure_poset(t, max_height=40)
        poset, one = hits(closure_poset)
        monkeypatch.setattr(satake, "stratum", two_lookups)
        reference, two = hits(closure_poset)
        assert poset == reference and len(poset.strata) == 37
        assert two - one == len(poset.strata)


class TestClosurePoset:
    def test_su3_chain(self):
        p = closure_poset(preset("SU3"), cls=su3_class(3))
        assert [x[0][0] for x in p.labels] == [0, 1, 2, 3]
        assert len(p.covers) == 3

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
        t = preset("SU4")
        p = closure_poset(t, max_height=8)
        dims = {s.label: s.dim for s in p.strata}
        for lo, up, _c in order_relations(t, p.labels):
            if lo != up:
                assert dims[lo] < dims[up]


class TestPosetCheck:
    """Mutations that break one cover of the SU3 chain 0 < 1 < 2 < 3 reach
    each message of the poset check."""

    def test_cover_across_components(self, monkeypatch):
        real = satake.stratum

        def moved(t, cls):
            s = real(t, cls)
            return satake.SchubertStratum(label=s.label, dim=s.dim, component=(
                ((1,), ()) if cls == su3_class(2) else s.component))

        monkeypatch.setattr(satake, "stratum", moved)
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
        total = c.normal_form(vec_add(c.coordinates(a), c.coordinates(b)))
        parts = vec_add(pres.coordinates(component_of(t, a)), pres.coordinates(component_of(t, b)))
        assert component_of(t, total) == pres.normal_form(parts)


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
        ball = sorted({ref_act(t, w, d) for d in doms for w in relative_elements(w0)})
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
        ball = sorted({ref_act(t, w, d) for d in doms for w in relative_elements(w0)})[:10]
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
            assert parity_check(t, component_of(t, coinvariants(t).class_of((0,) * t.rank))) == 0, name

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

    def test_any_representative_names_its_component(self):
        """A component is read through pi_1(G)_I's presentation: ((), (4,))
        is the class ((), (1,)) of Z/3 for PGL3, and each torsion entry
        answers as its residue does."""
        t = preset("PGL3")
        assert parity_check(t, ((), (4,)), 12) == parity_check(t, ((), (1,)), 12) == 0
        for k in range(-4, 8):
            assert parity_check(t, ((), (k,)), 12) == parity_check(t, ((), (k % 3,)), 12), k

    def test_component_of_the_wrong_shape_is_refused(self):
        with pytest.raises(DimensionMismatch, match="^class does not match this presentation$"):
            parity_check(preset("SU3"), ((5,), ()))
        with pytest.raises(DimensionMismatch):
            parity_check(preset("PGL3"), ((), ()), 12)


class TestExports:
    def test_json_round_trip(self):
        p = closure_poset(preset("SU3"), cls=su3_class(2))
        doc = json.loads(json.dumps(poset_document(p), sort_keys=True))
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
        assert json.dumps(poset_document(p1)) == json.dumps(poset_document(p2))

    def test_format_class(self):
        assert format_class(((3,), ())) == "3"
        assert format_class(((1, -2), (1,))) == "1,-2;1"
        assert format_class(((), ())) == "0"


# Classes are integers or refused: each entry point below reads a class of
# SU5 with one bad entry at a seeded position, or a vector, a root row or a
# root permutation made from that class's two free entries.  The cached
# dominant_representative is first asked for the class with its entries
# truncated (2.0 -> 2, True -> 1), so a cache keyed on the class would
# answer the bad one; so is corr, whose Levi indices are the class's free
# entries (reduced into SU9's four orbits) and key a cached row.

BAD_ENTRIES = (Fraction(5, 2), Fraction(1, 2), -1.5, 0.9, 2.0, True, False)
CLASS_ENTRY_POINTS = {
    "class_of": lambda t, cls: coinvariants(t).class_of(cls[0] + cls[0]),
    "is_dominant_class": lambda t, cls: is_dominant_class(t, cls),
    "stratum": lambda t, cls: stratum(t, cls).dim,
    "closure_poset": lambda t, cls: closure_poset(t, cls=cls),
    "leq": lambda t, cls: leq(t, ((0, 0), ()), cls),
    "mv_cell": lambda t, cls: mv_cell(t, cls, ((1, 1), ())),
    "conv_cell": lambda t, cls: conv_cell(t, ((0, 0), ()), cls, ((1, 1), ()), ((1, 1), ())),
    "dominant_representative": lambda t, cls: (
        dominant_representative(t, (tuple(map(int, cls[0])), ())),
        dominant_representative(t, cls),
    ),
    "corr": lambda t, cls: (
        corr(preset("SU9"), tuple(int(x) % 4 for x in cls[0]), (1,) * 8),
        corr(preset("SU9"), cls[0], (1,) * 8),
    ),
    "branch_to_fixed_group": lambda t, cls: branch_to_fixed_group(preset("SU3"), cls[0]),
    "BasedRootDatum.make": lambda t, cls: BasedRootDatum.make(2, [cls[0], (0, 1)], [(1, 0), (0, 1)]),
    "DiagramAutomorphism.make": lambda t, cls: DiagramAutomorphism.make([[1, 0], [0, 1]], cls[0]),
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
            lambda: branch_to_fixed_group(t, (1.7, 0)),
            lambda: BasedRootDatum.make(1, [[2.9]], [[1]]),
            lambda: DiagramAutomorphism.make([[1]], (0.5,)),
            lambda: (dominant_representative(t, ((2,), ())), dominant_representative(t, ((2.0,), ()))),
            lambda: (dominant_representative(t, ((1,), ())), dominant_representative(t, ((True,), ()))),
            lambda: (corr(t, (0,), (1, 0)), corr(t, (0.0,), (1, 0))),
            lambda: (corr(t, (0,), (1, 0)), corr(t, (False,), (1, 0))),
            lambda: corr(t, (0.0,), (1, 0)),
            lambda: enumerate_dominant_classes(t, True),
            lambda: enumerate_dominant_classes(t, 2.5),
            lambda: WeightMultiset.make({(1, 0): 1.5}),
        ):
            with pytest.raises(ValueError, match="^not an integer entry: "):
                call()

    def test_corr_refuses_a_non_integer_index_in_a_fresh_cache(self):
        """The refusal does not depend on which equal integer index was
        asked first: the check runs before any cache lookup."""
        t = cold(preset("SU3"))
        with pytest.raises(ValueError, match=r"^not an integer entry: 0\.0$"):
            corr(t, (0.0,), (1, 0))
        assert corr(t, (0,), (1, 0)) == corr(t, (Fraction(0),), (1, 0))

    def test_integral_fraction_is_its_integer(self):
        t = preset("SU5")
        c = coinvariants(t)
        assert c.class_of((Fraction(4, 2), 1, 0, 0)) == c.class_of((2, 1, 0, 0))
        x = c.coordinates(((Fraction(6, 3), 1), ()))
        assert x == (2, 1) and all(type(v) is int for v in x)
        assert stratum(t, ((Fraction(2), 1), ())) == stratum(t, ((2, 1), ()))


# Height bounds are integers or refused, with the same ValueError as class
# entries: each bounded enumeration is first asked with the bound truncated.
# So are the coordinate-box bounds (`coord_bound`) of data with a central
# direction, asked on torus-rank-1, and a negative box bound is refused.
TORUS = preset("torus-rank-1")
COORD_BOUND_ENTRY_POINTS = {
    "enumerate_dominant_classes coord_bound": lambda _t, b: enumerate_dominant_classes(TORUS, 2, b),
    "dominant_coweights_up_to_height coord_bound":
        lambda _t, b: dominant_coweights_up_to_height(TORUS.base, 2, b),
    "closure_poset coord_bound": lambda _t, b: closure_poset(TORUS, max_height=2, coord_bound=b),
    "dominant_image_monoid coord_bound": lambda _t, b: dominant_image_monoid(TORUS, 2, b),
    "parity_check coord_bound":
        lambda _t, b: parity_check(TORUS, ((0,), ()), max_height=2, coord_bound=b),
}
BOUND_ENTRY_POINTS = {
    "enumerate_dominant_classes": lambda t, b: enumerate_dominant_classes(t, b),
    "dominant_coweights_up_to_height": lambda t, b: dominant_coweights_up_to_height(t.base, b),
    "closure_poset": lambda t, b: closure_poset(t, max_height=b),
    "parity_check": lambda t, b: parity_check(t, ((), ()), max_height=b),
    **COORD_BOUND_ENTRY_POINTS,
}


@pytest.mark.parametrize("entry", BOUND_ENTRY_POINTS)
@pytest.mark.parametrize("value", BAD_ENTRIES)
def test_non_integer_height_bound_is_refused_by_name(entry, value):
    call = BOUND_ENTRY_POINTS[entry]
    call(preset("SU5"), abs(int(value)))
    with pytest.raises(ValueError, match=f"^not an integer entry: {re.escape(repr(value))}$"):
        call(preset("SU5"), value)


@pytest.mark.parametrize("entry", COORD_BOUND_ENTRY_POINTS)
def test_negative_coord_bound_is_refused(entry):
    """A negative box bound once answered as an empty box."""
    with pytest.raises(ValueError, match="^coord_bound must be nonnegative: -1$"):
        COORD_BOUND_ENTRY_POINTS[entry](None, -1)


@pytest.mark.parametrize("entry", BOUND_ENTRY_POINTS)
def test_integral_fraction_bound_is_its_integer(entry):
    call = BOUND_ENTRY_POINTS[entry]
    got = call(preset("SU5"), Fraction(6, 2))
    assert got == call(preset("SU5"), 3)

