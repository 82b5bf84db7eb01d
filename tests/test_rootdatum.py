"""Based root datum validity, duality, root systems, rho, fundamental groups."""

from fractions import Fraction

import pytest

from twisted_satake import presets, rootdatum
from twisted_satake.abelian import DimensionMismatch, FgAbelianGroup, IntMatrix
from twisted_satake.coweights import dominant_coweights_up_to_height
from twisted_satake.galois import kottwitz_components, split_twisted
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rootdatum import (
    BasedRootDatum,
    dualize,
    full_root_system,
    is_adjoint,
    require_valid,
    validate,
)

from test_linalg_reference import fundamental_coweights_rational, rational_solve
from test_presets import ambient_embedding


def is_simply_connected(d):
    """Do the simple coroots form a Z-basis of the cocharacter lattice?"""
    if d.num_simple != d.rank:
        return False
    m = IntMatrix.from_columns(list(d.simple_coroots), nrows=d.rank)
    return m.is_unimodular()


def fundamental_group(d):
    """X_*(T) modulo the coroot lattice: the Kottwitz components of the
    split datum, whose coinvariants are X_*(T) itself."""
    return kottwitz_components(split_twisted(d))


def dot_frac(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def gl3_datum():
    # The rank-3 datum with an A2 root system in sum-zero coordinates:
    # roots and coroots agree, pairing is the dot product.
    return BasedRootDatum.make(
        3,
        [(1, -1, 0), (0, 1, -1)],
        [(1, -1, 0), (0, 1, -1)],
    )


class TestValidate:
    def test_split_a1(self):
        d = BasedRootDatum.make(1, [(2,)], [(1,)])
        assert validate(d).valid

    def test_diagonal_axiom_violation(self):
        d = BasedRootDatum.make(1, [(3,)], [(1,)])
        report = validate(d)
        assert not report.valid
        assert report.first_violation[0] == "pairing-diagonal"

    def test_a2_in_z3(self):
        report = validate(gl3_datum())
        assert report.valid
        # Reflection closure finds all 6 roots.
        assert len(full_root_system(gl3_datum()).roots) == 6

    def test_negative_rank_rejected(self):
        report = validate(BasedRootDatum.make(-1, [], []))
        assert not report.valid
        assert report.first_violation[0] == "shape"

    def test_positive_offdiagonal_rejected(self):
        d = BasedRootDatum.make(2, [(2, 1), (1, 2)], [(1, 0), (0, 1)])
        report = validate(d)
        assert not report.valid
        assert report.first_violation[0] == "cartan-offdiagonal"

    def test_infinite_type_rejected(self):
        # Independent realization of the affine A1 Cartan [[2,-2],[-2,2]]:
        # the reflection closure is infinite.
        d = BasedRootDatum.make(
            3, [(2, -2, 1), (-2, 2, 1)], [(1, 0, 0), (0, 1, 0)]
        )
        report = validate(d)
        assert not report.valid
        assert report.first_violation == ("finite-type", "reflection closure exceeds 5000 roots")

    def test_a_finite_closure_above_the_cap_names_the_cap(self):
        """A72 is finite, with 72 * 73 = 5,256 roots, more than the closure
        cap: the refusal names the cap and does not call it infinite."""
        d = presets._cartan_sc(presets._a_n_cartan(72))
        assert rootdatum.ROOT_CLOSURE_CAP < 72 * 73
        with pytest.raises(rootdatum.InvalidDatumError,
                           match=r"^invalid root datum \(finite-type\): reflection closure exceeds 5000 roots$"):
            require_valid(d)

    def test_require_valid_validates_once(self, monkeypatch):
        calls, real = [], validate.__wrapped__
        monkeypatch.setattr(validate, "__wrapped__", lambda d: calls.append(d) or real(d))
        d = gl3_datum()
        for _ in range(5):
            require_valid(d)
        assert calls == [d]

    def test_require_valid_still_raises_when_cached(self):
        d = BasedRootDatum.make(1, [(3,)], [(1,)])
        for _ in range(2):
            with pytest.raises(rootdatum.InvalidDatumError):
                require_valid(d)


class TestDualize:
    def test_sl2_to_pgl2(self):
        sl2 = preset("SL2").base
        dual = dualize(sl2)
        assert dual.simple_roots == sl2.simple_coroots
        assert dual.simple_coroots == sl2.simple_roots

    def test_involution(self):
        a2 = preset("SL3").base
        dd = dualize(dualize(a2))
        assert (dd.rank, dd.simple_roots, dd.simple_coroots) == (
            a2.rank,
            a2.simple_roots,
            a2.simple_coroots,
        )

    def test_dual_of_sl3_has_z3_on_coroot_side(self):
        dual = dualize(preset("SL3").base)
        assert fundamental_group(dual) == FgAbelianGroup(0, (3,))


class TestFullRootSystem:
    def test_a1(self):
        system = full_root_system(preset("SL2").base)
        assert len(system.positive) == 1
        assert len(system.roots) == 2

    def test_a2_counts(self):
        system = full_root_system(preset("SL3").base)
        assert len(system.roots) == 6
        assert len(system.positive) == 3

    def test_b2_counts(self):
        system = full_root_system(preset("Sp4").base)
        assert len(system.roots) == 8
        assert len(system.positive) == 4

    def test_g2_counts(self):
        system = full_root_system(preset("G2").base)
        assert len(system.roots) == 12

    def test_an_counts(self):
        for name, n in [("SL3", 2), ("SU4", 3), ("SU5", 4)]:
            system = full_root_system(preset(name).base)
            assert len(system.roots) == n * (n + 1)

    def test_stored_coordinates_match_rational_solve(self):
        for name in DEFAULT_PRESET_NAMES:
            base = preset(name).base
            for d in (base, dualize(base)):
                system = full_root_system(d)
                assert set(system.coordinates) == set(system.roots), name
                for root in system.roots:
                    sol = rational_solve(d.simple_roots, root)
                    assert system.simple_coordinates(root) == tuple(sol), (name, d, root)


class TestFundamentalGroup:
    def test_sl2_trivial(self):
        assert fundamental_group(preset("SL2").base) == FgAbelianGroup(0, ())

    def test_pgl2(self):
        assert fundamental_group(preset("PGL2").base) == FgAbelianGroup(0, (2,))

    def test_torus(self):
        assert fundamental_group(preset("torus-rank-2").base) == FgAbelianGroup(2, ())

    def test_adjoint_matches_cartan_transpose_snf(self):
        # Cross-check oracle: for adjoint data the fundamental group is the
        # cokernel of the Cartan transpose (coroots in coweight coordinates).
        from twisted_satake.abelian import IntMatrix, quotient_group

        for name in ["PGL2", "PGL3"]:
            d = preset(name).base
            cartan = d.cartan_matrix()
            k = len(cartan)
            cols = [tuple(cartan[i][j] for j in range(k)) for i in range(k)]
            oracle = quotient_group(k, IntMatrix.from_columns(cols, nrows=k)).quotient
            assert fundamental_group(d) == oracle


class TestRhoData:
    def test_a1(self):
        d = preset("SL2").base
        assert full_root_system(d).two_rho == d.simple_roots[0]

    def test_a2_in_z3(self):
        assert full_root_system(gl3_datum()).two_rho == (2, 0, -2)

    def test_levi_subset(self):
        rd = full_root_system(gl3_datum())
        assert rd.two_rho_levi({0}) == (1, -1, 0)
        assert rd.two_rho_levi(set()) == (0, 0, 0)
        assert rd.two_rho_levi({0, 1}) == rd.two_rho

    def test_pairing_two_on_presets(self):
        from twisted_satake.abelian import dot
        from twisted_satake.presets import default_presets

        for _name, entry in default_presets():
            d = entry.twisted.base
            rd = full_root_system(d)
            for coroot in d.simple_coroots:
                assert dot(coroot, rd.two_rho) == 2


@pytest.mark.parametrize("name", DEFAULT_PRESET_NAMES + ("SU7", "SU9"))
class TestRootSystemRecord:
    """The Levi sums and duality of each default preset base, SU7 and SU9."""

    def test_levi_sums_at_the_ends_and_out_of_range(self, name):
        d = preset(name).base
        system = full_root_system(d)
        assert system.two_rho_levi(()) == (0,) * d.rank
        assert system.two_rho_levi(range(d.num_simple)) == system.two_rho
        for subset in ({d.num_simple}, {-1}, {0, d.num_simple}):
            with pytest.raises(DimensionMismatch, match="Levi subset out of range"):
                system.two_rho_levi(subset)

    def test_dual_positive_pairs_are_the_swapped_pairs(self, name):
        d = preset(name).base
        swapped = {(coroot, root) for root, coroot in full_root_system(d).positive}
        assert set(full_root_system(dualize(d)).positive) == swapped


class TestLatticeFlags:
    def test_simply_connected(self):
        assert is_simply_connected(preset("SL2").base)
        assert is_simply_connected(preset("SL3").base)
        assert not is_simply_connected(preset("PGL2").base)

    def test_adjoint(self):
        assert is_adjoint(preset("PGL2").base)
        assert is_adjoint(preset("PGL3").base)
        assert is_adjoint(preset("PSU3").base)
        assert is_adjoint(preset("G2").base)  # trivial center
        assert not is_adjoint(preset("SL2").base)
        assert not is_adjoint(preset("SL2xSL2-swap").base)

    def test_fundamental_coweights(self):
        d = preset("Sp4").base
        omegas = fundamental_coweights_rational(d)
        for i, w in enumerate(omegas):
            for j, root in enumerate(d.simple_roots):
                assert dot_frac(w, root) == (1 if i == j else 0)


class TestDominantEnumeration:
    def test_sl2(self):
        # <n alpha^vee, 2rho> = 2n, so height 6 gives n in {0,..,3}.
        vs = dominant_coweights_up_to_height(preset("SL2").base, 6)
        assert vs == [(0,), (1,), (2,), (3,)]

    def test_su3_matches_hand_count(self):
        # Dominant (a,b,c), a>=b>=c, a+b+c=0, with a-c <= 3:
        # (0,0,0), (1,0,-1), (2,-1,-1), (1,1,-2), (2,0,-2)=h4... heights 2(a-c) <= 6.
        vs = dominant_coweights_up_to_height(preset("SU3").base, 6)
        emb = ambient_embedding("SU3")
        ambient = sorted(emb.to_ambient(v) for v in vs)
        expected = sorted([(0, 0, 0), (1, 0, -1), (2, -1, -1), (1, 1, -2)])
        assert ambient == expected

    def test_torus_needs_bound(self):
        with pytest.raises(ValueError):
            dominant_coweights_up_to_height(preset("torus-rank-1").base, 4)
        vs = dominant_coweights_up_to_height(preset("torus-rank-1").base, 4, coord_bound=2)
        assert vs == [(-2,), (-1,), (0,), (1,), (2,)]

    @pytest.mark.parametrize("length", [0, 1, 2])
    def test_cone_walk_without_generators_is_the_zero_point(self, length):
        """With no generators the simplex is one point, the zero vector of
        the given length; a negative budget leaves nothing."""
        for den in (1, 3):
            assert rootdatum._walk_cone(den, [], (), 0, length) == [(0,) * length]
            assert rootdatum._walk_cone(den, [], (), 5, length) == [(0,) * length]
            assert rootdatum._walk_cone(den, [], (), -1, length) == []
