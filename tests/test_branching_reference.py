"""Branching and straightening against the pipelines they replaced.

`branch` restricts a character by one orbit walk into class coordinates of
X^*(s)_I, decomposes it by straightening each weight under the dot action
(the Brauer-Klimyk rule), and checks the summands on dominant weights.
Earlier request paths are kept here verbatim as oracles:

- the parent pipeline: the full absolute character, pushed weight by
  weight along the class map (`restrict_to_coinvariants`), straightened,
  and checked by rebuilding every summand's full character
  (`parent_verify_branch`);
- greedy highest-weight extraction, which subtracts the irreducible
  character at a maximal-height dominant weight until nothing remains, and
  a tensor product that multiplies two full characters before extracting.

They must agree on every branching-cli stratum weight of the branch
presets, on the split data G2, Sp4 and torus-rank-2, on small weights of
the basis zoo's sources, SU7 and SU9, and on the tensor candidates.

The mutation tests corrupt one piece of the new path and require the
request path to raise: a non-dominant restricted multiplicity, one
dominant multiplicity of one summand, a dropped summand, one flipped sign
in the straightening, and one multiplicity of the character a tensor
product straightens.
"""

import itertools

import pytest

from twisted_satake import rep
from twisted_satake.abelian import InvariantViolation, dot, vec_add
from twisted_satake.dual import CHAR0, dual_twisted, fixed_group_descriptor
from twisted_satake.galois import coinvariants
from twisted_satake.presets import preset
from twisted_satake.rep import (
    DecompositionResult,
    ResidualError,
    UnsupportedDecompositionError,
    WeightMultiset,
    _folded_context,
    _straighten,
    branch_to_fixed_group,
    decompose_tensor,
    irreducible_character,
    is_dominant_character,
    total_dimension,
)
from twisted_satake.rootdatum import full_root_system

from test_basis_zoo import SOURCES, small_dominant_weights, source

BRANCH_PRESETS = ("SU3", "SU4", "SU5", "SL2xSL2-swap", "Spin8-triality")
SPLIT = ("G2", "Sp4", "torus-rank-2")
STRATUM = 17   # inputs per branching-cli stratum

# ---------------------------------------------------------------------------
# Reference implementation


def _class_to_vector(cls):
    free, torsion = cls
    if any(torsion):
        raise UnsupportedDecompositionError("torsion class outside the folded lattice")
    return free


def ref_height(folded):
    """The sum of the positive coroots: the height functional the greedy
    extraction ordered weights by."""
    height = (0,) * folded.rank
    for _r, c in full_root_system(folded).positive:
        height = vec_add(height, c)
    return height


def ref_extract_irreducibles(folded, mapping):
    """Greedy highest-weight extraction: subtract the irreducible character
    at a maximal-height dominant weight until nothing remains."""
    remaining = dict(mapping)
    height = ref_height(folded)
    summands = {}
    while remaining:
        top = max(remaining, key=lambda v: (dot(height, v), v))
        m = remaining[top]
        if m < 0 or not is_dominant_character(folded, top):
            raise ResidualError(f"extraction stuck at {top} with multiplicity {m}")
        char = irreducible_character(folded, top)
        for key, mult in char.entries:
            new = remaining.get(key, 0) - m * mult
            if new < 0:
                raise ResidualError(f"negative multiplicity at {key}")
            if new:
                remaining[key] = new
            else:
                remaining.pop(key, None)
        summands[top] = summands.get(top, 0) + m
    return summands


def restrict_to_coinvariants(t, w):
    """Push an absolute multiset on X_*(t) along the class map; total
    dimension is conserved (pushforward preserves mass).  The parent's
    `rep.restrict_to_coinvariants`, less its check of the multiset's support
    lattice, a field `WeightMultiset` no longer has."""
    c = coinvariants(t)
    out = {}
    for key, m in w.entries:
        cls = c.class_of(key)
        out[cls] = out.get(cls, 0) + m
    result = WeightMultiset.make(out)
    if total_dimension(result) != total_dimension(w):
        raise InvariantViolation("pushforward lost mass")
    return result


def parent_verify_branch(s, lam, result, restricted, folded):
    rebuilt = {}
    for cls, m in result.summands:
        char = irreducible_character(folded, cls[0])
        for key, mult in char.entries:
            k = (key, ())
            rebuilt[k] = rebuilt.get(k, 0) + m * mult
    if rebuilt != restricted.as_dict():
        raise ResidualError("branch summands do not reconstruct the restriction")
    # The folded coroot kappa_O is m_O times the I-invariant sum of O's
    # coroots, so this is the dominance test of coweights.is_dominant_class.
    top = coinvariants(dual_twisted(s)).class_of(lam)
    if not is_dominant_character(folded, top[0]):
        raise InvariantViolation("projection of a dominant coweight must be dominant")
    if result.as_dict().get(top, 0) < 1:
        raise InvariantViolation("projected highest class missing from the branch")


def parent_branch_to_fixed_group(s, lam, profile=CHAR0):
    lam = tuple(int(x) for x in lam)
    char = irreducible_character(s.base, lam)
    dual = dual_twisted(s)
    restricted = restrict_to_coinvariants(dual, char)
    desc = _folded_context(s, profile, restriction=restricted)
    folded = desc.folded_cartan.datum
    mapping = {_class_to_vector(cls): m for cls, m in restricted.entries}
    result = DecompositionResult(
        summands=_straighten(folded, mapping, (0,) * folded.rank),
        restriction=restricted,
    )
    parent_verify_branch(s, lam, result, restricted, folded)
    return result


def ref_branch_to_fixed_group(s, lam, profile=CHAR0):
    lam = tuple(int(x) for x in lam)
    char = irreducible_character(s.base, lam)
    dual = dual_twisted(s)
    restricted = restrict_to_coinvariants(dual, char)
    desc = _folded_context(s, profile, restriction=restricted)
    folded = desc.folded_cartan.datum
    mapping = {_class_to_vector(cls): m for cls, m in restricted.entries}
    summands = ref_extract_irreducibles(folded, mapping)
    result = DecompositionResult(
        summands=tuple(sorted(((vec, ()), m) for vec, m in summands.items())),
        restriction=restricted,
    )
    parent_verify_branch(s, lam, result, restricted, folded)
    return result


def ref_decompose_tensor(s, lam_cls, mu_cls, profile=CHAR0):
    desc = _folded_context(s, profile, classes=(lam_cls, mu_cls))
    folded = desc.folded_cartan.datum
    a = _class_to_vector(lam_cls)
    b = _class_to_vector(mu_cls)
    char_a = irreducible_character(folded, a)
    char_b = irreducible_character(folded, b)
    product = {}
    for ka, ma in char_a.entries:
        for kb, mb in char_b.entries:
            key = tuple(x + y for x, y in zip(ka, kb))
            product[key] = product.get(key, 0) + ma * mb
    summands = ref_extract_irreducibles(folded, product)
    result = DecompositionResult(
        summands=tuple(sorted(((vec, ()), m) for vec, m in summands.items())),
    )
    dims = total_dimension(char_a) * total_dimension(char_b)
    rebuilt = sum(
        m * total_dimension(irreducible_character(folded, cls[0]))
        for cls, m in result.summands
    )
    if dims != rebuilt:
        raise ResidualError("tensor dimensions do not multiply")
    return result


# ---------------------------------------------------------------------------
# Inputs


def folded_datum(name):
    return fixed_group_descriptor(preset(name), CHAR0).folded_cartan.datum


def stratum_weights(name, count=3 * STRATUM):
    """The branching-cli branch inputs: the nonzero dominant weights of the
    datum in a box (0..8 at rank 2, 0..4 above), the `count` of smallest
    Weyl dimension."""
    d = preset(name).base
    box = range(9) if d.rank == 2 else range(5)
    weights = [w for w in itertools.product(box, repeat=d.rank)
               if any(w) and is_dominant_character(d, w)]
    dim = full_root_system(d).weyl_dimension
    return sorted(weights, key=lambda w: (dim(w), w))[:count]


def dominant_weights(d):
    """The dominant weights of d with coordinates in -2..3."""
    return [w for w in itertools.product(range(-2, 4), repeat=d.rank)
            if is_dominant_character(d, w)]


def tensor_candidates(name, box=8):
    """The branching-cli tensor inputs: the STRATUM unordered pairs of nonzero
    dominant folded weights in a box with the smallest dim V(a) * dim V(b)."""
    folded = folded_datum(name)
    dim = full_root_system(folded).weyl_dimension
    weights = [w for w in itertools.product(range(-box, box + 1), repeat=folded.rank)
               if any(w) and is_dominant_character(folded, w)]
    pairs = sorted(itertools.combinations_with_replacement(sorted(weights), 2),
                   key=lambda ab: (dim(ab[0]) * dim(ab[1]), ab))
    return pairs[:STRATUM]


BRANCH_CASES = [(name, w) for name in BRANCH_PRESETS for w in stratum_weights(name)]
SPLIT_CASES = [(name, w) for name in SPLIT for w in dominant_weights(preset(name).base)]
# The zoo's sources on their first four small weights, and SU7 and SU9 on
# every weight with at most two labels 1 (simply connected: all dominant).
ZOO_CASES = [(name, w) for name in SOURCES
             for w in small_dominant_weights(source(name), None if name in ("SU7", "SU9") else 4)]
TENSOR_CASES = [(name, a, b) for name in BRANCH_PRESETS for a, b in tensor_candidates(name)]
SPLIT_TENSOR_CASES = [
    (name, a, b) for name in SPLIT
    for a, b in itertools.combinations_with_replacement(dominant_weights(folded_datum(name))[:8], 2)
]


def test_inputs_cover_the_strata():
    assert len(BRANCH_CASES) == 5 * 3 * STRATUM
    assert len(TENSOR_CASES) == 5 * STRATUM
    assert {name for name, _w in SPLIT_CASES} == set(SPLIT)
    assert {name for name, _a, _b in SPLIT_TENSOR_CASES} == set(SPLIT)


# ---------------------------------------------------------------------------
# Agreement


@pytest.mark.parametrize("name,weight", BRANCH_CASES + SPLIT_CASES,
                         ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else x)
def test_branch_matches_greedy_extraction(name, weight):
    t = preset(name)
    got = branch_to_fixed_group(t, weight)
    want = ref_branch_to_fixed_group(t, weight)
    assert got == want
    assert got.restriction == want.restriction


@pytest.mark.parametrize("name,weight", BRANCH_CASES + ZOO_CASES,
                         ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else x)
def test_branch_matches_the_parent_pipeline(name, weight):
    t = source(name)
    got = branch_to_fixed_group(t, weight)
    want = parent_branch_to_fixed_group(t, weight)
    assert got == want
    assert got.restriction == want.restriction


@pytest.mark.parametrize("name,a,b", TENSOR_CASES + SPLIT_TENSOR_CASES,
                         ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else x)
def test_tensor_matches_character_product(name, a, b):
    t = preset(name)
    want = ref_decompose_tensor(t, (a, ()), (b, ()))
    assert decompose_tensor(t, (a, ()), (b, ())) == want
    assert decompose_tensor(t, (b, ()), (a, ())) == want


def test_straightening_matches_greedy_on_restrictions():
    for name in BRANCH_PRESETS:
        folded = folded_datum(name)
        zero = (0,) * folded.rank
        for weight in stratum_weights(name, STRATUM):
            restricted = branch_to_fixed_group(preset(name), weight).restriction
            mapping = {cls[0]: m for cls, m in restricted.entries}
            want = ref_extract_irreducibles(folded, mapping)
            assert rep._straighten(folded, mapping, zero) == tuple(
                sorted(((mu, ()), m) for mu, m in want.items()))


# ---------------------------------------------------------------------------
# Mutations


MUTATION_BRANCHES = [("SU3", (2, 1)), ("SU5", (1, 0, 0, 1)), ("SL2xSL2-swap", (1, 2)),
                     ("Spin8-triality", (1, 0, 1, 0))]
# At rank one, no weight of the smaller factor needs straightening, so the
# sign mutation runs on the rank-two cases alone.
MUTATION_TENSORS = [("SU3", (1,), (2,)), ("SU4", (1, 1), (1, 1)), ("SU5", (1, 1), (1, 1)),
                    ("Spin8-triality", (1, 1), (1, 1)), ("G2", (1, 1), (1, 1))]
RANK_TWO_TENSORS = [case for case in MUTATION_TENSORS if len(case[1]) == 2]


@pytest.mark.parametrize("name,weight", MUTATION_BRANCHES)
def test_corrupted_non_dominant_restricted_multiplicity_raises(monkeypatch, name, weight):
    t = preset(name)
    folded = folded_datum(name)
    real = rep._restriction

    def corrupted(s, lam):
        restricted = dict(real(s, lam).entries)
        key = next(k for k in sorted(restricted) if not is_dominant_character(folded, k[0]))
        restricted[key] += 1
        return WeightMultiset.make(restricted)

    monkeypatch.setattr(rep, "_restriction", corrupted)
    with pytest.raises(InvariantViolation):
        branch_to_fixed_group(t, weight)


@pytest.mark.parametrize("name,weight", MUTATION_BRANCHES)
def test_corrupted_summand_dominant_multiplicity_raises(monkeypatch, name, weight):
    """One summand's deepest dominant multiplicity, off by one, is caught by
    the comparison of dominant parts."""
    t = preset(name)
    folded = folded_datum(name)
    top = branch_to_fixed_group(t, weight).summands[0][0][0]
    real = rep._dominant_character

    def corrupted(d, lam):
        pairs = real(d, lam)
        if (d, lam) != (folded, top):
            return pairs
        (nu, m), = pairs[-1:]
        return pairs[:-1] + ((nu, m + 1),)

    monkeypatch.setattr(rep, "_dominant_character", corrupted)
    with pytest.raises(ResidualError, match="do not reconstruct the restriction"):
        branch_to_fixed_group(t, weight)


def _drop_one_summand(monkeypatch):
    real = rep._straighten

    def dropped(*args):
        summands = real(*args)
        assert summands
        return summands[:-1]

    monkeypatch.setattr(rep, "_straighten", dropped)


@pytest.mark.parametrize("name,weight", MUTATION_BRANCHES)
def test_dropped_summand_raises_in_branch(monkeypatch, name, weight):
    _drop_one_summand(monkeypatch)
    with pytest.raises(ResidualError):
        branch_to_fixed_group(preset(name), weight)


@pytest.mark.parametrize("name,a,b", MUTATION_TENSORS)
def test_dropped_summand_raises_in_tensor(monkeypatch, name, a, b):
    _drop_one_summand(monkeypatch)
    with pytest.raises(ResidualError):
        decompose_tensor(preset(name), (a, ()), (b, ()))


def _flip_one_sign(monkeypatch):
    """Lengthen the word of the first walk that ends off the walls after at
    least one step, which flips the sign of that one term."""
    real = rep.dominant_walk
    flipped = []

    def walk(x, simple, limit):
        y, word = real(x, simple, limit)
        if not flipped and word and all(dot(c, y) for c, _a in simple):
            flipped.append(x)
            return y, word + (0,)
        return y, word

    monkeypatch.setattr(rep, "dominant_walk", walk)
    return flipped


@pytest.mark.parametrize("name,weight", MUTATION_BRANCHES)
def test_flipped_sign_raises_in_branch(monkeypatch, name, weight):
    t = preset(name)
    branch_to_fixed_group(t, weight)   # characters cached: only straightening walks
    flipped = _flip_one_sign(monkeypatch)
    with pytest.raises(ResidualError):
        branch_to_fixed_group(t, weight)
    assert flipped


@pytest.mark.parametrize("name,a,b", RANK_TWO_TENSORS)
def test_flipped_sign_raises_in_tensor(monkeypatch, name, a, b):
    t = preset(name)
    decompose_tensor(t, (a, ()), (b, ()))
    flipped = _flip_one_sign(monkeypatch)
    with pytest.raises(ResidualError):
        decompose_tensor(t, (a, ()), (b, ()))
    assert flipped


@pytest.mark.parametrize("name,a,b", MUTATION_TENSORS)
def test_corrupted_character_fails_the_dimension_check(monkeypatch, name, a, b):
    """The character of the smaller factor, as its orbit walk returns it,
    with one multiplicity raised by 1."""
    real = rep._orbit_sum

    def corrupted(d, lam, image):
        char = real(d, lam, image)
        char[lam] += 1
        return char

    monkeypatch.setattr(rep, "_orbit_sum", corrupted)
    with pytest.raises(ResidualError, match="tensor dimensions do not multiply"):
        decompose_tensor(preset(name), (a, ()), (b, ()))
