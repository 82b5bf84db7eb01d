"""Character arithmetic: Freudenthal against the alternating-sum oracle,
restriction, branching, tensor decomposition, weight ranks."""

import random
from fractions import Fraction

import pytest

from twisted_satake.abelian import DimensionMismatch, InvariantViolation, dot
from twisted_satake.coweights import dominant_coweights_up_to_height
from twisted_satake.dual import dual_twisted, fixed_group_descriptor, parse_profile
from twisted_satake import rep
from twisted_satake.presets import preset
from twisted_satake.rep import (
    NonDominantWeightError,
    UnsupportedDecompositionError,
    _restriction,
    branch_to_fixed_group,
    decompose_tensor,
    irreducible_character,
    total_dimension,
    weight_rank,
)
from twisted_satake.rootdatum import dualize, full_root_system

from test_branching_reference import restrict_to_coinvariants
from test_value import cold
from test_weyl_reference import apply_char, enumerate_absolute_weyl


# ---------------------------------------------------------------------------
# Independent oracle: the Weyl character formula as an exact Laurent quotient.
# Works with doubled exponents so rho never leaves the lattice, and divides
# the alternating numerator by the alternating denominator in Z[Z^n] by
# peeling leading terms under a strictly dominant height order.


def _two_rho(d):
    total = (0,) * d.rank
    for root, _c in full_root_system(d).positive:
        total = tuple(a + b for a, b in zip(total, root))
    return total


def _two_rho_check(d):
    total = (0,) * d.rank
    for _r, coroot in full_root_system(d).positive:
        total = tuple(a + b for a, b in zip(total, coroot))
    return total


def weyl_character_oracle(d, lam):
    """Brute-force alternating-sum character, independent of Freudenthal."""
    W = enumerate_absolute_weyl(d)
    two_rho = _two_rho(d)
    height_vec = _two_rho_check(d)

    def alt_sum(shift):
        poly = {}
        for w in W:
            sgn = w.matrix.determinant()
            expo = apply_char(w, shift)
            poly[expo] = poly.get(expo, 0) + sgn
        return {k: v for k, v in poly.items() if v}

    doubled = tuple(2 * x + r for x, r in zip(lam, (0,) * d.rank))
    num = alt_sum(tuple(2 * l + r for l, r in zip(lam, two_rho)))
    den = alt_sum(two_rho)

    def order_key(expo):
        return (dot(height_vec, expo), expo)

    quotient = {}
    work = dict(num)
    lead_den = max(den, key=order_key)
    assert lead_den == two_rho and den[lead_den] == 1
    while work:
        top = max(work, key=order_key)
        coeff = work[top]
        q_expo = tuple(a - b for a, b in zip(top, lead_den))
        quotient[q_expo] = quotient.get(q_expo, 0) + coeff
        for e, c in den.items():
            key = tuple(a + b for a, b in zip(q_expo, e))
            new = work.get(key, 0) - coeff * c
            if new:
                work[key] = new
            else:
                work.pop(key, None)
    out = {}
    for e, c in quotient.items():
        assert all(x % 2 == 0 for x in e), "doubled exponent is odd"
        assert c > 0
        out[tuple(x // 2 for x in e)] = c
    return out


RANK_TWO_PRESETS = ["SL3", "PGL3", "Sp4", "G2"]


class TestIrreducibleCharacter:
    def test_trivial(self):
        for name in ["SL2", "SL3", "G2"]:
            d = preset(name).base
            ch = irreducible_character(d, (0,) * d.rank)
            assert ch.as_dict() == {(0,) * d.rank: 1}

    def test_sl2_string(self):
        # Brute-force Z-string oracle: V(n) has weights n, n-2, ..., -n.
        d = preset("SL2").base
        for n in range(0, 8):
            ch = irreducible_character(d, (n,))
            assert ch.as_dict() == {(n - 2 * k,): 1 for k in range(n + 1)}

    def test_sl3_fundamental(self):
        # Orbit enumeration oracle: the 3 weights of the first fundamental.
        d = preset("SL3").base
        ch = irreducible_character(d, (1, 0))
        assert total_dimension(ch) == 3
        assert set(ch.as_dict().values()) == {1}

    def test_weyl_invariance(self):
        for name in RANK_TWO_PRESETS:
            d = preset(name).base
            ch = irreducible_character(d, (1, 1)).as_dict()
            for w in enumerate_absolute_weyl(d):
                moved = {apply_char(w, k): m for k, m in ch.items()}
                assert moved == ch, name

    def test_highest_weight_multiplicity_one(self):
        d = preset("Sp4").base
        for lam in [(1, 0), (0, 1), (2, 1)]:
            assert irreducible_character(d, lam).as_dict()[lam] == 1

    def test_against_alternating_sum_oracle(self):
        # All rank<=2 presets, highest weights of 2rho-height <= 20.
        for name in ["SL2", "PGL2"] + RANK_TWO_PRESETS:
            d = preset(name).base
            two_rho = _two_rho(d)
            lams = [
                lam for lam in dominant_coweights_up_to_height(dualize(d), 20)
            ]
            for lam in lams:
                assert irreducible_character(d, lam).as_dict() == weyl_character_oracle(d, lam), (
                    name, lam,
                )

    def test_non_dominant_rejected(self):
        with pytest.raises(NonDominantWeightError):
            irreducible_character(preset("SL2").base, (-1,))

    def test_torus(self):
        d = preset("torus-rank-2").base
        assert irreducible_character(d, (3, -1)).as_dict() == {(3, -1): 1}


class TestRestriction:
    """`_restriction(s, lam)` pushes V(lam) along the class map of X^*(s)_I,
    the cocharacter coinvariants of the dual datum."""

    def test_trivial_action_identity_supports(self):
        t = preset("SL2")
        ch = irreducible_character(t.base, (2,))
        res = _restriction(t, (2,))
        assert {k[0] for k, _m in res.entries} == {k for k, _m in ch.entries}

    def test_su3_fundamental_pushes_to_three_classes(self):
        # Weights of the 3-dimensional fundamental are characters of the
        # simply connected datum, i.e. cocharacters of its dual; the three
        # standard-type weights push to 1, 0, -1 along the dual class map.
        res = _restriction(preset("SU3"), (1, 0))
        assert res.as_dict() == {((1,), ()): 1, ((0,), ()): 1, ((-1,), ()): 1}

    def test_mass_conserved(self):
        for name in ["SU3", "SU4", "Spin8-triality"]:
            t = preset(name)
            lam = _pad(tuple(1 for _ in range(t.base.num_simple)), t)
            ch = irreducible_character(t.base, lam)
            res = _restriction(t, lam)
            assert total_dimension(res) == total_dimension(ch), name
            assert res == restrict_to_coinvariants(dual_twisted(t), ch), name

    def test_parity_constant_on_restricted_support(self):
        # The 2rho-pairing parity is constant across the restricted support
        # of one irreducible (single connected component downstream).
        from twisted_satake.coweights import class_height

        t = preset("SU3")
        dual = dual_twisted(t)
        for lam in [(1, 0), (1, 1), (2, 0)]:
            res = _restriction(t, lam)
            parities = {int(2 * class_height(dual, k)) % 2 for k, _m in res.entries}
            assert len(parities) == 1, lam


def _pad(lam, t):
    # Fill a character vector of full rank from simple-root coefficients.
    if len(lam) == t.rank:
        return lam
    return tuple(list(lam) + [0] * (t.rank - len(lam)))


class TestBranch:
    def test_trivial_inertia(self):
        t = preset("SL2")
        res = branch_to_fixed_group(t, (3,))
        assert res.as_dict() == {((3,), ()): 1}

    def test_swap_pair(self):
        # 2x2 = 3 + 1 over the diagonal subgroup.
        res = branch_to_fixed_group(preset("SL2xSL2-swap"), (1, 1))
        assert res.as_dict() == {((2,), ()): 1, ((0,), ()): 1}

    def test_su3_fundamental(self):
        res = branch_to_fixed_group(preset("SU3"), (1, 0))
        assert res.as_dict() == {((1,), ()): 1}
        assert res.restriction.as_dict() == {
            ((1,), ()): 1, ((0,), ()): 1, ((-1,), ()): 1,
        }

    def test_su3_adjoint_splits(self):
        # 8 = 5 + 3 under the fixed rank-one subgroup.
        res = branch_to_fixed_group(preset("SU3"), (1, 1))
        assert res.as_dict() == {((2,), ()): 1, ((1,), ()): 1}

    def test_projected_class_always_present(self):
        from twisted_satake.coweights import _project

        for name in ["SU3", "SU4", "SU5", "Spin8-triality", "SL2xSL2-swap"]:
            t = preset(name)
            lams = dominant_coweights_up_to_height(dualize(t.base), 10)
            for lam in lams[:8]:
                res = branch_to_fixed_group(t, lam)
                top = _project(dual_twisted(t), lam)
                assert res.as_dict().get(top, 0) >= 1, (name, lam)

    def test_dimension_conserved_random(self):
        rng = random.Random(11)
        for name in ["SU3", "SU4", "Spin8-triality"]:
            t = preset(name)
            desc = fixed_group_descriptor(t)
            lams = dominant_coweights_up_to_height(dualize(t.base), 14)
            for lam in rng.sample(lams, min(6, len(lams))):
                res = branch_to_fixed_group(t, lam)
                dim_in = total_dimension(irreducible_character(t.base, lam))
                dim_out = sum(
                    m * total_dimension(
                        irreducible_character(desc.folded_cartan.datum, cls[0])
                    )
                    for cls, m in res.summands
                )
                assert dim_in == dim_out, (name, lam)

    def test_modular_profile_refused_with_restriction(self):
        t = preset("SU3")
        with pytest.raises(UnsupportedDecompositionError) as exc:
            branch_to_fixed_group(t, (1, 0), parse_profile("Fl:2"))
        assert exc.value.restriction is not None
        assert total_dimension(exc.value.restriction) == 3

    def test_split_reductive_with_center_is_identity(self):
        # Central directions ride along untouched: branching over a split
        # reductive datum returns the input weight.
        from twisted_satake.galois import split_twisted
        from twisted_satake.rootdatum import BasedRootDatum

        gl3 = split_twisted(BasedRootDatum.make(
            3, [(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (0, 1, -1)]
        ))
        res = branch_to_fixed_group(gl3, (1, 0, 0))
        assert res.as_dict() == {((1, 0, 0), ()): 1}
        assert total_dimension(res.restriction) == 3
        res = branch_to_fixed_group(gl3, (1, 1, 0))
        assert total_dimension(res.restriction) == 3

    def test_integral_profile_also_refused(self):
        # The decomposition is published for char 0 only; mixed
        # characteristic keeps the restriction multiset.
        with pytest.raises(UnsupportedDecompositionError) as exc:
            branch_to_fixed_group(preset("SU3"), (1, 0), parse_profile("Zl:5"))
        assert exc.value.restriction is not None

    def test_unsupported_folding_refused(self):
        """The u3-like datum's X^*(s)_I = Z + Z/2 has torsion, so it has no
        folded datum and `branch` refuses it."""
        from test_dual import golden_u3_like

        with pytest.raises(UnsupportedDecompositionError, match="^no verified folded root datum"):
            branch_to_fixed_group(golden_u3_like(), (1, 0, 0))


class TestTensor:
    def test_unit(self):
        t = preset("SL2")
        res = decompose_tensor(t, ((0,), ()), ((3,), ()))
        assert res.as_dict() == {((3,), ()): 1}

    def test_sl2_products(self):
        # Brute-force polynomial multiplication oracle values.
        t = preset("SL2")
        res = decompose_tensor(t, ((1,), ()), ((1,), ()))
        assert res.as_dict() == {((2,), ()): 1, ((0,), ()): 1}
        res = decompose_tensor(t, ((2,), ()), ((1,), ()))
        assert res.as_dict() == {((3,), ()): 1, ((1,), ()): 1}

    def test_clebsch_gordan_range(self):
        t = preset("SL2")
        for a in range(4):
            for b in range(4):
                res = decompose_tensor(t, ((a,), ()), ((b,), ()))
                expected = {((c,), ()): 1 for c in range(abs(a - b), a + b + 1, 2)}
                assert res.as_dict() == expected

    def test_folded_tensor_dimensions(self):
        t = preset("SU3")  # folded PGL2
        res = decompose_tensor(t, ((1,), ()), ((1,), ()))
        # 3 x 3 = 5 + 3 + 1 over the folded rank-one group.
        assert res.as_dict() == {((2,), ()): 1, ((1,), ()): 1, ((0,), ()): 1}


class TestWeightRank:
    def test_highest_is_one(self):
        t = preset("SU3")
        assert weight_rank(t, ((2,), ()), ((2,), ())) == 1

    def test_su3_fundamental_zero_weight(self):
        t = preset("SU3")
        assert weight_rank(t, ((1,), ()), ((0,), ())) == 1

    def test_outside_support(self):
        t = preset("SU3")
        assert weight_rank(t, ((1,), ()), ((4,), ())) == 0

    def test_non_dominant_rejected(self):
        t = preset("SU3")
        with pytest.raises(NonDominantWeightError):
            weight_rank(t, ((-1,), ()), ((0,), ()))


def test_character_cache_refuses_what_a_fresh_process_refuses(monkeypatch):
    """The one character cache, the dominant multiplicities, sits behind
    the entry check: after (1, 0), the weight (True, 0) is still refused,
    as in a fresh process, and a repeated call reads the one cached entry
    again to rebuild an equal character."""
    d = cold(preset("SU3").base)
    builds, real = [], rep._dominant_character.__wrapped__
    monkeypatch.setattr(rep._dominant_character, "__wrapped__",
                        lambda d, lam: builds.append(lam) or real(d, lam))
    char = irreducible_character(d, (1, 0))
    with pytest.raises(ValueError, match=r"^not an integer entry: True$"):
        irreducible_character(d, (True, 0))
    assert irreducible_character(d, (1, 0)) == char
    assert builds == [(1, 0)]


def test_rational_class_entries_reach_the_cache_as_ints():
    """`tensor` and `weight_rank` accept a `Fraction` with denominator 1 in
    a class, and the cached dominant multiplicities they leave behind are
    keyed and filled with ints, as in a fresh process."""
    t = cold(preset("SU3"))
    decompose_tensor(t, ((Fraction(1),), ()), ((Fraction(2),), ()))
    weight_rank(t, ((Fraction(3),), ()), ((Fraction(1),), ()))
    for s, lam in ((t, (1,)), (dual_twisted(t), (3,))):
        folded = fixed_group_descriptor(s).folded_cartan.datum
        keys = [x for nu, _m in irreducible_character(folded, lam).entries for x in nu]
        assert {type(x) for x in keys} == {int}, lam


@pytest.mark.parametrize("call", [
    lambda: decompose_tensor(preset("SU3"), ((1,), (1,)), ((1,), ())),
    lambda: weight_rank(preset("SU3"), ((1,), (0,)), ((1,), ())),
], ids=["tensor", "weight_rank"])
def test_torsion_entry_is_refused_as_a_shape_mismatch(call):
    """A datum folds exactly when X^*(s)_I is torsion-free, so a class with
    a torsion entry has the wrong shape and is refused before any weight
    is read."""
    with pytest.raises(DimensionMismatch, match="^class does not match this presentation$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: irreducible_character(preset("SU3").base, (2, 1)),
    lambda: decompose_tensor(preset("SU4"), ((1, 1), ()), ((2, 1), ())),
    lambda: weight_rank(preset("SU4"), ((1, 1), ()), ((0, 0), ())),
], ids=["character", "tensor", "weight_rank"])
def test_every_call_checks_the_weyl_dimension(monkeypatch, call):
    """Warm or cold, each call sums the orbit walk against the Weyl
    dimension: one cached dominant multiplicity raised by 1 is caught on
    the first call and again on a repeated one."""
    call()
    real = rep._dominant_character

    def corrupted(d, lam):
        (top, m), *rest = real(d, lam)
        return ((top, m + 1), *rest)

    monkeypatch.setattr(rep, "_dominant_character", corrupted)
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="do not sum to the Weyl dimension"):
            call()
