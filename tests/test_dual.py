"""Dual transport, fixed-group descriptors, rank-one cases, adjoint quotients."""

import os
import random
import subprocess
import sys
import textwrap
import time

import pytest

import twisted_satake
from twisted_satake.abelian import FgAbelianGroup, IntMatrix
from twisted_satake import presets
from twisted_satake.dual import (
    CHAR0,
    ELL_CAP,
    CoefficientProfile,
    _is_prime,
    _registry_known,
    adjoint_quotient,
    classify_rank_one,
    dual_twisted,
    fixed_group_descriptor,
    parse_profile,
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

    def test_dual_of_unitary_hits_adjoint_entry(self):
        # dual_twisted(SU3) is structurally the PSU3 registry entry, so its
        # recorded connectedness applies.
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
        # A structurally fine twisted datum that is not in the registry gets
        # no folded data (refusal, never a guess).
        from twisted_satake.galois import DiagramAutomorphism, TwistedRootDatum
        from twisted_satake.rootdatum import BasedRootDatum

        base = BasedRootDatum.make(
            4,
            [(2, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 2, -1), (0, 0, -1, 2)],
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        )
        swap = DiagramAutomorphism.make(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
            (2, 3, 0, 1),
        )
        t = TwistedRootDatum.make(base, (swap,))
        desc = fixed_group_descriptor(t)
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
        # adjoint form; cross-check against the descriptor of that datum.
        for name in ["SL2xSL2-swap", "SU3", "PGL2", "SL2", "PSU3"]:
            case = classify_rank_one(preset(name))
            adj = adjoint_quotient(preset(name)).adjoint
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
    assert direct.folded_cartan.type_label == "rank-3", direct.folded_cartan
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


def ref_registry_known(s):
    """The registry check as it was: one dual per candidate."""
    candidates = [entry.twisted for entry in presets._FIXED.values()]
    if s.rank % 2 == 0 and s.rank >= 2:
        candidates.append(presets._special_unitary(s.rank + 1).twisted)
    return any(s == c or s == dual_twisted(c) for c in candidates)


REGISTRY_DATA = {
    label: t for name in DEFAULT_PRESET_NAMES + ("SU7", "SU9", "SU11")
    for label, t in ((name, preset(name)), (f"{name}-dual", dual_twisted(preset(name))))
}


class TestRegistryKnown:
    @pytest.mark.parametrize("t", list(REGISTRY_DATA.values()), ids=list(REGISTRY_DATA))
    def test_matches_per_candidate_duals(self, t):
        assert _registry_known(t) == ref_registry_known(t)
        assert _registry_known(t)

    def test_unregistered_datum(self):
        """A swap datum on A1 x A1 x A1 (rank 3, not a registry shape) is
        known to neither version."""
        base = BasedRootDatum.make(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
                                   [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        swap = DiagramAutomorphism.make([[0, 1, 0], [1, 0, 0], [0, 0, 1]], (1, 0, 2))
        t = TwistedRootDatum.make(base, (swap,))
        assert _registry_known(t) is ref_registry_known(t) is False
        assert _registry_known(dual_twisted(t)) is ref_registry_known(dual_twisted(t)) is False

    def test_builds_one_dual(self):
        """Only the dual of the datum itself is built."""
        t = preset("SU9")
        dual_twisted(t)
        before = dual_twisted.cache_info()
        assert _registry_known(t)
        after = dual_twisted.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 1
