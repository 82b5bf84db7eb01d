"""Inertia actions, coinvariant lattices, relative roots, averaging."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_satake.abelian import FgAbelianGroup, IntMatrix, InvariantViolation
from twisted_satake.galois import (
    DiagramAutomorphism,
    TwistedRootDatum,
    average_map,
    average_vector,
    coinvariants,
    coroot_coinvariants_exact_sequence,
    fundamental_coweight_pairing,
    group_elements,
    group_order,
    kottwitz_components,
    relative_simple_roots,
)
from twisted_satake.presets import default_presets, get_preset, preset
from twisted_satake.rootdatum import BasedRootDatum, InvalidDatumError, is_adjoint

from test_linalg_reference import (
    fundamental_coweights_rational,
    invariant_subspace_dimension,
    ref_inverse_unimodular,
)
from test_presets import ambient_embedding


class TestTwistedValidation:
    def test_pinning_violation_detected(self):
        base = preset("SL3").base
        # Identity permutation with the swap matrix breaks the pinning.
        bad = DiagramAutomorphism.make([[0, 1], [1, 0]], (0, 1))
        with pytest.raises(InvalidDatumError):
            TwistedRootDatum.make(base, (bad,))

    def test_wrong_order_detected(self):
        # The order is read from the lattice map: it cannot be declared, and
        # a map of infinite order is refused.
        with pytest.raises(TypeError):
            DiagramAutomorphism.make([[0, 1], [1, 0]], (1, 0), order=4)
        with pytest.raises(InvariantViolation, match="lattice map order exceeds cap"):
            DiagramAutomorphism.make([[1, 1], [0, 1]], ())
        shear = DiagramAutomorphism(IntMatrix.from_rows([[1, 1], [0, 1]]), ())
        with pytest.raises(InvariantViolation, match="lattice map order exceeds cap"):
            TwistedRootDatum.make(BasedRootDatum.make(2, [], []), (shear,))

    def test_group_sizes(self):
        assert group_order(preset("SL2")) == 1
        assert group_order(preset("SU3")) == 2
        assert group_order(preset("Spin8-triality")) == 3


class TestCoinvariants:
    def test_trivial_action(self):
        c = coinvariants(preset("torus-rank-2"))
        assert c.quotient == FgAbelianGroup(2, ())
        assert c.class_of((3, -5)) == ((3, -5), ())

    def test_su3_sum_zero_class_map(self):
        # The flip on the sum-zero lattice: class map (a, b, c) -> a - c.
        entry = get_preset("SU3")
        c = coinvariants(entry.twisted)
        assert c.quotient == FgAbelianGroup(1, ())
        rng = random.Random(42)
        for _ in range(50):
            a, b = rng.randint(-20, 20), rng.randint(-20, 20)
            v = (a, b, -a - b)
            internal = ambient_embedding("SU3").to_internal(v)
            assert c.class_of(internal) == ((a - (-a - b),), ())

    def test_swap_on_z2(self):
        base = BasedRootDatum.make(2, [], [])
        swap = DiagramAutomorphism.make([[0, 1], [1, 0]], ())
        t = TwistedRootDatum.make(base, (swap,))
        c = coinvariants(t)
        assert c.quotient == FgAbelianGroup(1, ())
        # Hand reduction of <(1,-1)>: class is a + b.
        assert c.class_of((3, 1)) == ((4,), ())

    def test_class_map_invariant_under_group(self):
        for _name, entry in default_presets():
            t = entry.twisted
            c = coinvariants(t)
            rng = random.Random(7)
            for _ in range(20):
                v = tuple(rng.randint(-9, 9) for _ in range(t.rank))
                for mat, _perm in group_elements(t):
                    assert c.class_of(mat.apply(v)) == c.class_of(v)

    def test_free_rank_equals_invariant_dimension(self):
        for _name, entry in default_presets():
            t = entry.twisted
            assert coinvariants(t).quotient.free_rank == invariant_subspace_dimension(t)


class TestAverageMap:
    def test_trivial_action_is_lift(self):
        t = preset("SL2")
        assert average_map(t, ((5,), ())) == (Fraction(5),)

    def test_su3_class_one(self):
        entry = get_preset("SU3")
        avg = average_map(entry.twisted, ((1,), ()))
        ambient = tuple(
            sum(Fraction(ambient_embedding("SU3").into_ambient[i, j]) * avg[j] for j in range(2))
            for i in range(3)
        )
        assert ambient == (Fraction(1, 2), Fraction(0), Fraction(-1, 2))

    def test_lift_independence(self):
        entry = get_preset("SU3")
        t = entry.twisted
        # Two lifts of class 1: (1,-1,0) -> internal (1,1)... and (0,1,-1).
        emb = ambient_embedding("SU3")
        lift_a = emb.to_internal((1, -1, 0))
        lift_b = emb.to_internal((0, 1, -1))
        c = coinvariants(t)
        assert c.class_of(lift_a) == c.class_of(lift_b) == ((1,), ())
        assert average_vector(t, lift_a) == average_vector(t, lift_b)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
           st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_lift_independence_random(self, v, w):
        t = preset("Spin8-triality")
        c = coinvariants(t)
        # Perturb v by a relation combination; averages must agree.
        rel_cols = []
        for g in t.generators:
            m = g.lattice_map
            for j in range(4):
                rel_cols.append(tuple((1 if i == j else 0) - m[i, j] for i in range(4)))
        pert = list(v)
        for coeff, col in zip(w, rel_cols):
            for i in range(4):
                pert[i] += coeff * col[i]
        assert c.class_of(tuple(pert)) == c.class_of(tuple(v))
        assert average_vector(t, tuple(pert)) == average_vector(t, tuple(v))

    def test_average_is_invariant(self):
        for _name, entry in default_presets():
            t = entry.twisted
            rng = random.Random(3)
            v = tuple(rng.randint(-5, 5) for _ in range(t.rank))
            avg = average_vector(t, v)
            for mat, _perm in group_elements(t):
                img = tuple(
                    sum(Fraction(mat[i, j]) * avg[j] for j in range(t.rank))
                    for i in range(t.rank)
                )
                assert img == avg


class TestRhoInvariance:
    def test_two_rho_fixed_by_every_generator(self):
        # The contragredient action permutes the positive roots, so it
        # fixes their sum.
        from twisted_satake.rootdatum import rho_data

        for _name, entry in default_presets():
            t = entry.twisted
            two_rho = rho_data(t.base).two_rho
            for g in t.generators:
                contragredient = ref_inverse_unimodular(g.lattice_map).transpose()
                assert contragredient.apply(two_rho) == two_rho


class TestRelativeRoots:
    def test_split_singletons(self):
        rel = relative_simple_roots(preset("SL3"))
        assert rel.simple_orbit_list == ((0,), (1,))
        assert rel.orbit_type == ("orthogonal", "orthogonal")

    def test_su3_adjacent_pair(self):
        rel = relative_simple_roots(preset("SU3"))
        assert rel.simple_orbit_list == ((0, 1),)
        assert rel.orbit_type == ("adjacent-pair",)

    def test_su4_orbits(self):
        rel = relative_simple_roots(preset("SU4"))
        assert rel.simple_orbit_list == ((0, 2), (1,))
        assert rel.orbit_type == ("orthogonal", "orthogonal")

    def test_averages_partition(self):
        for _name, entry in default_presets():
            rel = relative_simple_roots(entry.twisted)
            flat = sorted(i for orbit in rel.simple_orbit_list for i in orbit)
            assert flat == list(range(entry.twisted.base.num_simple))


class TestExactSequence:
    def test_split_sl2(self):
        data = coroot_coinvariants_exact_sequence(preset("SL2"))
        assert data.coroot_coinvariants == FgAbelianGroup(1, ())
        assert data.cokernel == FgAbelianGroup(0, ())
        assert data.verified

    def test_su3(self):
        data = coroot_coinvariants_exact_sequence(preset("SU3"))
        assert data.coroot_coinvariants == FgAbelianGroup(1, ())
        assert data.cokernel == FgAbelianGroup(0, ())
        # The class of the first simple coroot generates: it equals 1.
        c = coinvariants(preset("SU3"))
        assert c.class_of(preset("SU3").base.simple_coroots[0]) == ((1,), ())

    def test_split_pgl2(self):
        data = coroot_coinvariants_exact_sequence(preset("PGL2"))
        assert data.cokernel == FgAbelianGroup(0, (2,))
        assert data.verified

    def test_all_presets_verify(self):
        for _name, entry in default_presets():
            assert coroot_coinvariants_exact_sequence(entry.twisted).verified

    def test_cokernel_by_brute_force_coset_count(self):
        # PGL2: cosets of 2Z in Z counted in a box.
        t = preset("PGL2")
        c = coinvariants(t)
        coroot = t.base.simple_coroots[0]
        classes = set()
        for n in range(-8, 9):
            v = (n,)
            # reduce modulo the coroot class (2)
            cls = c.class_of(v)
            classes.add(cls[0][0] % 2)
        assert len(classes) == kottwitz_components(t).order()


class TestKottwitz:
    def test_values(self):
        assert kottwitz_components(preset("SU3")) == FgAbelianGroup(0, ())
        assert kottwitz_components(preset("PGL2")) == FgAbelianGroup(0, (2,))
        assert kottwitz_components(preset("torus-rank-1")) == FgAbelianGroup(1, ())


class TestFundamentalCoweightPairing:
    def test_split_adjoint_singleton(self):
        t = preset("PGL2")
        assert fundamental_coweight_pairing(t, (0,), 0) == 1

    def test_psu3_pair(self):
        t = preset("PSU3")
        assert fundamental_coweight_pairing(t, (0, 1), 0) == Fraction(1, 2)
        assert fundamental_coweight_pairing(t, (0, 1), 1) == Fraction(1, 2)

    def test_su4_adjoint_off_orbit_vanishes(self):
        from twisted_satake.dual import adjoint_quotient

        t_ad = adjoint_quotient(preset("SU4")).adjoint
        assert fundamental_coweight_pairing(t_ad, (0, 2), 1) == 0
        assert fundamental_coweight_pairing(t_ad, (0, 2), 0) == Fraction(1, 2)
        assert fundamental_coweight_pairing(t_ad, (1,), 1) == 1

    def test_non_adjoint_rejected(self):
        with pytest.raises(InvalidDatumError):
            fundamental_coweight_pairing(preset("SU3"), (0, 1), 0)

    def test_formula_on_all_adjoint_presets(self):
        for _name, entry in default_presets():
            t = entry.twisted
            if not is_adjoint(t.base):
                continue
            rel = relative_simple_roots(t)
            for orbit in rel.simple_orbit_list:
                for beta in range(t.base.num_simple):
                    expected = Fraction(1, len(orbit)) if beta in orbit else Fraction(0)
                    assert fundamental_coweight_pairing(t, orbit, beta) == expected

    def test_matches_rational_coweights(self):
        """Every adjoint preset and the adjoint quotient of every preset:
        the pairing read from the dominant cone equals the one built on the
        rational fundamental coweights."""
        from twisted_satake.dual import adjoint_quotient

        data = []
        for name, entry in default_presets() + [("SU7", get_preset("SU7"))]:
            if is_adjoint(entry.twisted.base):
                data.append(entry.twisted)
            if not name.startswith("torus"):
                data.append(adjoint_quotient(entry.twisted).adjoint)
        count = 0
        for t in data:
            omegas = fundamental_coweights_rational(t.base)
            for orbit in relative_simple_roots(t).simple_orbit_list:
                avg = average_vector(t, omegas[orbit[0]])
                for beta, root in enumerate(t.base.simple_roots):
                    expected = sum((a * b for a, b in zip(avg, root)), Fraction(0))
                    assert fundamental_coweight_pairing(t, orbit, beta) == expected
                    count += 1
        assert count > 50
