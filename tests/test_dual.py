"""Dual transport, fixed-group descriptors, rank-one cases, adjoint quotients."""

import os
import random
import subprocess
import sys
import textwrap
import time

import pytest

import twisted_satake
from twisted_satake.abelian import FgAbelianGroup, IntMatrix, InvariantViolation
from twisted_satake.dual import (
    CHAR0,
    ELL_CAP,
    AdjointQuotient,
    CoefficientProfile,
    _dynkin_types,
    _is_prime,
    adjoint_quotient,
    classify_rank_one,
    dual_twisted,
    fixed_group_descriptor,
    parse_profile,
    verify_adjoint_right_exactness,
)
from twisted_satake.galois import (
    DiagramAutomorphism,
    TwistedRootDatum,
    coinvariants,
    kottwitz_components,
)
from twisted_satake.presets import DEFAULT_PRESET_NAMES, default_presets, preset
from twisted_satake.rootdatum import BasedRootDatum, InvalidDatumError, is_adjoint
from twisted_satake.weyl import relative_weyl

from test_fold_reference import ref_registry_known, ref_registry_known_one_dual
from test_linalg_reference import ref_inverse_unimodular, unimodular
from test_weyl_reference import enumerate_absolute_weyl, fixed_weyl_subgroup

DUAL_SWEEP = (
    tuple(DEFAULT_PRESET_NAMES)
    + tuple(f"{name}-dual" for name in DEFAULT_PRESET_NAMES)
    + ("SU7", "SU9")
)


def dual_sweep_datum(name):
    if name.endswith("-dual"):
        return dual_twisted(preset(name[: -len("-dual")]))
    return preset(name)


def transport(t, p):
    """t moved along the unimodular p: coroots p c, roots p^-T alpha, and
    generators p g p^-1, so every pairing and pinning is kept."""
    p_inv = ref_inverse_unimodular(p)
    base = BasedRootDatum.make(
        t.rank,
        [p_inv.transpose().apply(alpha) for alpha in t.base.simple_roots],
        [p.apply(c) for c in t.base.simple_coroots],
    )
    gens = [DiagramAutomorphism.make(p.mul(g.lattice_map).mul(p_inv), g.root_permutation)
            for g in t.generators]
    return TwistedRootDatum.make(base, gens)


def _cartan(k, bonds):
    """The Cartan matrix on k nodes with bonds (i, j, a_ij, a_ji)."""
    c = [[2 * (i == j) for j in range(k)] for i in range(k)]
    for i, j, a, b in bonds:
        c[i][j], c[j][i] = a, b
    return c


def _chain(k):
    return [(i, i + 1, -1, -1) for i in range(k - 1)]


@pytest.mark.parametrize("k,bonds,types", [
    (3, _chain(3), ["A3"]),
    (3, _chain(2) + [(1, 2, -1, -2)], ["B3"]),      # a_21 = -2: alpha_1 longer, alpha_2 short
    (4, _chain(3) + [(2, 3, -2, -1)], ["C4"]),      # alpha_3 the one long root
    (4, [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)], ["F4"]),
    (5, _chain(4) + [(2, 4, -1, -1)], ["D5"]),
    (7, _chain(6) + [(2, 6, -1, -1)], ["E7"]),
    (8, _chain(7) + [(4, 7, -1, -1)], ["E8"]),
    (6, [(0, 1, -1, -2), (2, 3, -1, -3), (4, 5, -1, -1)], ["B2", "G2", "A2"]),
    (3, [(0, 2, -1, -1)], ["A2", "A1"]),
])
def test_dynkin_types_name_each_component(k, bonds, types):
    assert _dynkin_types(_cartan(k, bonds)) == types


def golden_u3_like():
    """The golden file's u3-like datum, whose X^*(s)_I = Z + Z/2 has torsion."""
    from twisted_satake.cli import datum_from_dict

    from test_cli_golden import FILES

    return datum_from_dict(FILES["torsion.json"])


def _trial_division(n):
    return n >= 2 and all(n % p for p in range(2, int(n ** 0.5) + 1))


class TestPrimeProfiles:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(-3, 10**5) if _is_prime(n)] == \
            [n for n in range(-3, 10**5) if _trial_division(n)]

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to the first k prime bases, k = 1..11,
        # and two Carmichael numbers
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                  341550071728321, 3825123056546413051, 561, 41041):
            assert not _is_prime(n), n

    def test_large_prime_accepted_quickly(self):
        start = time.perf_counter()
        profile = parse_profile("Fl:1000000000000000003")
        assert time.perf_counter() - start < 1
        assert profile.ell == 10**18 + 3 and str(profile) == "Fl:1000000000000000003"
        assert parse_profile(f"Zl:{2**64 - 59}").ell == 2**64 - 59

    @pytest.mark.parametrize("text", ["Fl:x", "Zl:", "Fl: 3x", "char1", "Fl3"])
    def test_unparsable_profile_is_named(self, text):
        with pytest.raises(ValueError, match=f"^cannot parse coefficient profile {text!r}$"):
            parse_profile(text)

    def test_large_composite_refused(self):
        with pytest.raises(ValueError, match="profile needs a prime ell$"):
            parse_profile("Fl:1000000000000000001")

    @pytest.mark.parametrize("ell", [ELL_CAP, ELL_CAP + 13, 318665857834031151167461])
    def test_ell_at_or_above_the_cap_refused(self, ell):
        # the last is a strong pseudoprime to every base 2..37
        assert ELL_CAP == 2**64
        with pytest.raises(ValueError, match="below 2\\^64"):
            CoefficientProfile("F_ell", ell)


class TestDualTwisted:
    def test_su3_transport(self):
        d = dual_twisted(preset("SU3"))
        assert d.base.simple_roots == preset("SU3").base.simple_coroots
        assert d.generators[0].root_permutation == (1, 0)

    def test_involution_on_presets(self):
        for name, entry in default_presets():
            t = entry.twisted
            assert dual_twisted(dual_twisted(t)) == t, name

    def test_dual_of_split_pgl2_is_sl2(self):
        d = dual_twisted(preset("PGL2"))
        assert d.base == preset("SL2").base

    @pytest.mark.parametrize("name", DUAL_SWEEP)
    def test_inverses_match_fraction_gauss_jordan(self, name):
        """Each generator of the dual is the transposed inverse of the
        datum's, by the oracle, and dualizing twice gives the datum back."""
        t = dual_sweep_datum(name)
        d = dual_twisted(t)
        for g, h in zip(t.generators, d.generators):
            assert h.lattice_map == ref_inverse_unimodular(g.lattice_map).transpose()
            assert h.root_permutation == g.root_permutation
        assert dual_twisted(d) == t

    @pytest.mark.parametrize("name", DEFAULT_PRESET_NAMES)
    def test_inverses_of_conjugated_generators(self, name):
        """The same on seeded transports of each preset along unimodular P:
        coroots P c, roots P^-T alpha, generators P g P^-1."""
        t = preset(name)
        rng = random.Random(f"conjugate:{name}")
        for _ in range(4):
            p = unimodular(rng, t.rank, steps=12, big=50)
            moved = transport(t, p)
            d = dual_twisted(moved)
            for g, h in zip(moved.generators, d.generators):
                assert h.lattice_map == ref_inverse_unimodular(g.lattice_map).transpose()
            assert dual_twisted(d) == moved


class TestFixedGroupDescriptor:
    def test_swap_pair_gives_sl2(self):
        t = preset("SL2xSL2-swap")
        assert fixed_group_descriptor(t).folded_cartan.type_label == "SL2"
        assert coinvariants(dual_twisted(t)).quotient == FgAbelianGroup(1, ())
        assert relative_weyl(dual_twisted(t)).order == 2

    def test_su3_gives_pgl2(self):
        desc = fixed_group_descriptor(preset("SU3"))
        assert desc.folded_cartan.type_label == "PGL2"
        assert desc.folded_cartan.datum.simple_roots == ((1,),)
        assert desc.folded_cartan.datum.simple_coroots == ((2,),)

    def test_su3_at_two_flags(self):
        desc = fixed_group_descriptor(preset("SU3"), parse_profile("Fl:2"))
        assert desc.folded_cartan is None
        assert desc.smooth_over_Z_ell == "no"

    def test_su3_at_odd_prime(self):
        desc = fixed_group_descriptor(preset("SU3"), parse_profile("Fl:3"))
        assert desc.folded_cartan is not None
        assert desc.smooth_over_Z_ell == "yes"

    def test_orthogonal_orbits_never_flag(self):
        for name in ["SL2xSL2-swap", "SU4", "Spin8-triality", "SL3"]:
            desc = fixed_group_descriptor(preset(name), parse_profile("Fl:2"))
            assert desc.smooth_over_Z_ell != "no", name

    def test_tannakian_torus_identity(self):
        # The fixed torus of the dual datum's group is X_*(T)_I of the source.
        for name, entry in default_presets():
            s = dual_twisted(entry.twisted)
            chars = coinvariants(dual_twisted(s))  # X^*(s)_I
            assert chars.quotient == coinvariants(entry.twisted).quotient, name

    def test_folded_weyl_matches_oracle(self):
        for name, entry in default_presets():
            t = entry.twisted
            desc = fixed_group_descriptor(t)
            if desc.folded_cartan is None:
                continue
            folded_order = len(enumerate_absolute_weyl(desc.folded_cartan.datum))
            assert folded_order == len(fixed_weyl_subgroup(t)), name

    def test_folded_types(self):
        expected = {
            "SU3": "PGL2",
            "PSU3": "PGL2",
            "SL2xSL2-swap": "SL2",
            "SU4": "B2/C2",
            "SU5": "B2/C2",
            "Spin8-triality": "G2",
            "SL2": "SL2",
            "PGL2": "PGL2",
        }
        for name, label in expected.items():
            assert fixed_group_descriptor(preset(name)).folded_cartan.type_label == label, name

    def test_folded_types_from_rank_three(self):
        """From three folded simple roots on, the label is the Dynkin type:
        SU(2n+1) folds to B_n (SO(2n+1)), E6 with its flip to F4, and
        Spin(2n) with a flip to B_(n-1) (Spin(2n-1))."""
        from test_basis_zoo import source

        expected = {"SU7": "B3", "SU9": "B4", "E6-flip": "F4", "Spin8-flip": "B3",
                    "Spin10-flip": "B4"}
        for name, label in expected.items():
            assert fixed_group_descriptor(source(name)).folded_cartan.type_label == label, name

    def test_dual_of_unitary_hits_adjoint_entry(self):
        # dual_twisted(SU3) is structurally the PSU3 registry entry; its
        # X^*(s)_I is free, so it folds and reads as connected.
        desc = fixed_group_descriptor(dual_twisted(preset("SU3")))
        assert desc.connected_char0 == "yes"
        assert desc.folded_cartan.type_label == "PGL2"

    def test_dominant_cone_accessor(self):
        # The fixed torus's dominance data is that of the dual datum: for
        # the rank-one unitary preset, classes 0..n at height 2n.
        from twisted_satake.coweights import enumerate_dominant_classes, is_dominant_class

        dual = dual_twisted(preset("SU3"))
        cone = enumerate_dominant_classes(dual, 8)
        assert [c[0][0] for c in cone] == [0, 1, 2, 3, 4]
        assert is_dominant_class(dual, ((2,), ())) is not None
        assert is_dominant_class(dual, ((-1,), ())) is None

    def test_unknown_folding_refused_for_user_data(self):
        """User data fold by structure alone: SL3 x SL3 with the factor
        swap, in no registry, folds to A2.  The u3-like datum, whose
        X^*(s)_I = Z + Z/2 has torsion, is still refused: no folded data
        and no claim of connectedness (refusal, never a guess)."""
        base = BasedRootDatum.make(
            4,
            [(2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        )
        swap = DiagramAutomorphism.make(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
            (2, 3, 0, 1),
        )
        desc = fixed_group_descriptor(TwistedRootDatum.make(base, (swap,)))
        assert desc.folded_cartan.type_label == "A2"
        assert desc.folded_cartan.datum.cartan_matrix() == ((2, -1), (-1, 2))
        assert desc.connected_char0 == "yes"
        u3 = golden_u3_like()
        assert coinvariants(dual_twisted(u3)).quotient == FgAbelianGroup(1, (2,))
        desc = fixed_group_descriptor(u3)
        assert desc.folded_cartan is None
        assert desc.connected_char0 == "unknown"

    @pytest.mark.parametrize("name", ["u3-like", "torus-rank-1-inversion"])
    @pytest.mark.parametrize("profile", ["char0", "Fl:2", "Fl:3", "Zl:5"])
    def test_torsion_never_reads_as_connected(self, name, profile):
        """With torsion in X^*(s)_I the fixed group can be disconnected: the
        u3-like group is O(3)-like, and the inversion on the rank-one torus
        fixes {+1, -1}.  Neither reports connected_char0 == "yes"."""
        s = golden_u3_like() if name == "u3-like" else TORUS_KERNELS[name][0]
        assert coinvariants(dual_twisted(s)).quotient.invariant_factors == (2,)
        desc = fixed_group_descriptor(s, parse_profile(profile))
        assert desc.connected_char0 == "unknown"
        assert desc.folded_cartan is None

    A2XA2 = {"rank": 4,
             "simple_roots": [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
             "simple_coroots": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
    # The 4-cycle (0 2 1 3) on the nodes: one orbit of four simple roots.
    FOUR_CYCLE = {"lattice_map": [[0, 0, 0, 1], [0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
                  "root_permutation": [2, 3, 1, 0]}

    def test_unsupported_orbit_is_refused(self, tmp_path, capsys):
        """An orbit that is neither orthogonal nor an adjacent pair has no
        descriptor: the library raises UnsupportedOrbitError (there is no
        "unknown" smoothness), and `describe --file` exits 2 naming it."""
        import json

        from twisted_satake.cli import datum_from_dict, main
        from twisted_satake.galois import UnsupportedOrbitError

        data = {"base": self.A2XA2, "generators": [self.FOUR_CYCLE]}
        with pytest.raises(UnsupportedOrbitError, match=r"^orbit \(0, 1, 2, 3\) is neither"):
            fixed_group_descriptor(datum_from_dict(data))
        path = tmp_path / "four-cycle.json"
        path.write_text(json.dumps(data))
        assert main(["describe", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "input error: orbit (0, 1, 2, 3) is neither orthogonal nor an adjacent A2 pair\n"


class TestRankOne:
    def test_cases(self):
        assert classify_rank_one(preset("SL2xSL2-swap")).case == "A"
        assert classify_rank_one(preset("SL2xSL2-swap")).char0_fixed_group == "SL2"
        assert classify_rank_one(preset("SU3")).case == "B"
        assert classify_rank_one(preset("SU3")).char0_fixed_group == "PGL2"
        assert classify_rank_one(preset("PGL2")).case == "A"
        assert classify_rank_one(preset("PGL2")).char0_fixed_group == "SL2"

    def test_char2_flag(self):
        assert classify_rank_one(preset("SU3")).char2_flag
        assert not classify_rank_one(preset("SL2xSL2-swap")).char2_flag

    def test_wrong_rank_rejected(self):
        with pytest.raises(InvalidDatumError):
            classify_rank_one(preset("SU4"))

    def test_case_matches_descriptor_of_adjoint_dual(self):
        # The classification names the fixed group of the dual of the
        # adjoint form; cross-check against the descriptor of that datum,
        # on the rank-one presets and SL2 x T2 with a rotation of order 6.
        from twisted_satake.cli import datum_from_dict

        from test_cli_golden import FILES

        data = {name: preset(name) for name in ["SL2xSL2-swap", "SU3", "PGL2", "SL2", "PSU3"]}
        data["sl2-rot6.json"] = datum_from_dict(FILES["sl2-rot6.json"])
        for name, t in data.items():
            case = classify_rank_one(t)
            adj = adjoint_quotient(t).adjoint
            desc = fixed_group_descriptor(dual_twisted(adj))
            assert desc.folded_cartan.type_label == case.char0_fixed_group, name


# Tori and a torus factor with an inversion: X_*(T) -> X_*(T_ad) = 0 has
# all of X_*(T) as its kernel, and on SL2 x G_m the kernel is the G_m line.
TORUS_KERNELS = {
    "torus-rank-2": (preset("torus-rank-2"), ((1, 0), (0, 1))),
    "torus-rank-1-inversion": (
        TwistedRootDatum.make(BasedRootDatum.make(1, [], []),
                              (DiagramAutomorphism.make([[-1]], ()),)),
        ((1,),),
    ),
    "SL2xGm-inversion": (
        TwistedRootDatum.make(BasedRootDatum.make(2, [(2, 0)], [(1, 0)]),
                              (DiagramAutomorphism.make([[1, 0], [0, -1]], (0,)),)),
        ((0, 1),),
    ),
}


class TestAdjointQuotient:
    def test_su3_to_psu3(self):
        aq = adjoint_quotient(preset("SU3"))
        assert aq.adjoint == preset("PSU3")
        # Index-3 cokernel of the inclusion of lattices.
        from twisted_satake.abelian import quotient_group

        coker = quotient_group(
            2, IntMatrix.from_columns([aq.to_adjoint.column(j) for j in range(2)])
        ).quotient
        assert coker == FgAbelianGroup(0, (3,))

    def test_corrupted_projection_is_refused(self):
        """The check is the equivariance of the projection: one entry of
        SU3's `to_adjoint` moved breaks it."""
        t = preset("SU3")
        aq = adjoint_quotient(t)
        m = aq.to_adjoint
        bad = AdjointQuotient(adjoint=aq.adjoint, kernel_basis=aq.kernel_basis,
                              to_adjoint=IntMatrix(m.rows, m.cols, (m[0, 0] + 1,) + m.entries[1:]))
        verify_adjoint_right_exactness(t, aq)
        with pytest.raises(InvariantViolation, match="^adjoint projection is not equivariant$"):
            verify_adjoint_right_exactness(t, bad)

    def test_adjoint_input_identity(self):
        aq = adjoint_quotient(preset("PGL3"))
        assert aq.to_adjoint == IntMatrix.identity(2)
        assert aq.adjoint == preset("PGL3")

    def test_sl2_doubles(self):
        aq = adjoint_quotient(preset("SL2"))
        assert aq.to_adjoint.row_list() == [[2]]
        assert aq.adjoint.base == preset("PGL2").base

    def test_adjoint_is_adjoint(self):
        for name, entry in default_presets():
            aq = adjoint_quotient(entry.twisted)
            assert is_adjoint(aq.adjoint.base), name

    def test_adjoint_pi1_finite(self):
        for name, entry in default_presets():
            aq = adjoint_quotient(entry.twisted)
            assert kottwitz_components(aq.adjoint).is_finite, name

    @pytest.mark.parametrize("name", sorted(TORUS_KERNELS))
    def test_kernel_of_data_with_a_torus_factor(self, name):
        t, kernel = TORUS_KERNELS[name]
        aq = adjoint_quotient(t)
        assert aq.kernel_basis == kernel
        assert (aq.to_adjoint.rows, aq.to_adjoint.cols) == (t.base.num_simple, t.rank)

    def test_adjoint_surjectivity_conditions_hold(self):
        from test_coweights import center_is_torus, image_is_cone

        for name in ["SU3", "SU4", "SL2", "SL3", "Spin8-triality"]:
            aq = adjoint_quotient(preset(name))
            assert center_is_torus(aq.adjoint) and image_is_cone(aq.adjoint, 8), name


_ORDER_SCRIPT = textwrap.dedent("""
    from twisted_satake import presets
    from twisted_satake.dual import fixed_group_descriptor

    def fields(desc):
        return {name: getattr(desc, name) for name in type(desc).__annotations__}

    direct = fixed_group_descriptor(presets._special_unitary(7).twisted)
    assert direct.folded_cartan.type_label == "B3", direct.folded_cartan
    fixed_group_descriptor.cache_clear()
    via_preset = fixed_group_descriptor(presets.preset("SU7"))
    assert fields(via_preset) == fields(direct)
    presets.get_preset("SU7")
    fixed_group_descriptor.cache_clear()
    after = fixed_group_descriptor(presets._special_unitary(7).twisted)
    assert fields(after) == fields(direct)
    print("ok")
""")


def run_fresh(script, *args):
    """stdout of script in a fresh interpreter, so no earlier call in this
    test session counts."""
    src = os.path.dirname(os.path.dirname(twisted_satake.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_descriptor_independent_of_preset_lookups():
    assert run_fresh(_ORDER_SCRIPT) == "ok\n"


_EQUAL_DATUM_SCRIPT = textwrap.dedent("""
    import sys
    from twisted_satake import (
        coinvariants, dual_twisted, fixed_group_descriptor, preset, relative_weyl,
    )

    queries = (relative_weyl, fixed_group_descriptor, coinvariants)
    if sys.argv[1] == "dual-first":
        equal = dual_twisted(preset("PGL2"))
        assert equal == preset("SL2")
        for query in queries:
            query(equal)
    print(repr(tuple(query(preset("SL2")) for query in queries)))
""")


def test_cached_answers_independent_of_which_equal_datum_came_first():
    """Per-datum caches key on equality; an answer must not carry anything
    of the equal datum that happened to fill the cache."""
    alone = run_fresh(_EQUAL_DATUM_SCRIPT, "alone")
    assert run_fresh(_EQUAL_DATUM_SCRIPT, "dual-first") == alone


def test_family_lookups_are_memoised():
    from twisted_satake.presets import get_preset

    assert get_preset("SU7") is get_preset("SU7")
    assert get_preset("SU(7)") is get_preset("SU7")
    assert get_preset("torus-rank-3") is get_preset("torus-rank-3")


REGISTRY_DATA = {
    label: t for name in DEFAULT_PRESET_NAMES + ("SU7", "SU9", "SU11")
    for label, t in ((name, preset(name)), (f"{name}-dual", dual_twisted(preset(name))))
}


class TestRegistryKnown:
    """The registry gate of `test_fold_reference.ref_fixed_group_descriptor`:
    the shipped one-dual check against one dual per candidate."""

    @pytest.mark.parametrize("t", list(REGISTRY_DATA.values()), ids=list(REGISTRY_DATA))
    def test_matches_per_candidate_duals(self, t):
        assert ref_registry_known_one_dual(t) == ref_registry_known(t)
        assert ref_registry_known_one_dual(t)

    def test_unregistered_datum(self):
        """A swap datum on A1 x A1 x A1 (rank 3, not a registry shape) is
        known to neither version."""
        base = BasedRootDatum.make(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
                                   [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        swap = DiagramAutomorphism.make([[0, 1, 0], [1, 0, 0], [0, 0, 1]], (1, 0, 2))
        t = TwistedRootDatum.make(base, (swap,))
        assert ref_registry_known_one_dual(t) is ref_registry_known(t) is False
        assert ref_registry_known_one_dual(dual_twisted(t)) is ref_registry_known(dual_twisted(t)) is False

    def test_builds_one_dual(self):
        """Only the dual of the datum itself is built."""
        t = preset("SU9")
        dual_twisted(t)
        before = dual_twisted.cache_info()
        assert ref_registry_known_one_dual(t)
        after = dual_twisted.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 1
