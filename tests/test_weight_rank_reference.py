"""`weight_rank` against the path it replaced.

`weight_rank(t, mu, nu)` reads one multiplicity of the folded irreducible
with highest class mu off the orbit walk of its dominant weights.  The
parent built the full character once per (datum, mu), cached it, and read
the multiplicity from the frozen multiset; that path is kept here verbatim
as the oracle, with the torsion refusal of its `_class_to_vector`.  Each
answer is also checked against the integer Freudenthal recursion over the
full saturated weight set, which shares no code with the orbit walk.

The table is seeded: for every default preset whose dual folds, plus SU7,
the dominant classes mu of 2rho-height at most HEIGHT, and for each mu the
classes nu of a sample of its character's weights (most of them not
dominant), of random points of a box around 0 (most of them outside the
support), and of mu plus each folded simple root, which is never a weight.
"""

import functools
import random

import pytest

from twisted_satake.abelian import _integer, vec_add
from twisted_satake.coweights import _has_invariant_central_direction, enumerate_dominant_classes
from twisted_satake.dual import CHAR0, dual_twisted, fixed_group_descriptor
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rep import (
    NonDominantWeightError,
    WeightMultiset,
    _folded_context,
    _orbit_sum,
    is_dominant_character,
    weight_rank,
)
from twisted_satake.rootdatum import require_valid

from test_branching_reference import _class_to_vector
from test_freudenthal_reference import ref_irreducible_character_int

HEIGHT = 20
SEED = 36
SAMPLE = 8     # character weights per mu
RANDOM = 4     # box points per mu

# ---------------------------------------------------------------------------
# Reference implementation


def parent_irreducible_character(d, lam):
    require_valid(d)
    return _parent_irreducible_character(d, tuple(map(_integer, lam)))


@functools.lru_cache(maxsize=None)
def _parent_irreducible_character(d, lam):
    return WeightMultiset.make(_orbit_sum(d, lam, lambda x: x))


def parent_weight_rank(t, mu_cls, nu_cls, profile=CHAR0):
    folded = _folded_context(dual_twisted(t), profile, classes=(mu_cls, nu_cls))
    mu_vec = _class_to_vector(mu_cls)
    nu_vec = _class_to_vector(nu_cls)
    if not is_dominant_character(folded, mu_vec):
        raise NonDominantWeightError(f"{mu_cls} is not a dominant class")
    return parent_irreducible_character(folded, mu_vec).as_dict().get(nu_vec, 0)


# ---------------------------------------------------------------------------
# The table


def _folds(name):
    return fixed_group_descriptor(dual_twisted(preset(name))).folded_cartan is not None


TABLE_PRESETS = tuple(name for name in DEFAULT_PRESET_NAMES + ("SU7",) if _folds(name))


def table(name):
    """(mu, nu) class pairs for one datum, seeded by its name."""
    t = preset(name)
    folded = fixed_group_descriptor(dual_twisted(t)).folded_cartan.datum
    kwargs = {"coord_bound": 2} if _has_invariant_central_direction(t) else {}
    rng = random.Random(f"{SEED}-{name}")
    pairs = []
    for mu_cls in enumerate_dominant_classes(t, HEIGHT, **kwargs):
        mu = mu_cls[0]
        weights = sorted(parent_irreducible_character(folded, mu).as_dict())
        nus = rng.sample(weights, min(SAMPLE, len(weights)))
        box = max(map(abs, mu), default=0) + 2
        nus += [tuple(rng.randint(-box, box) for _ in mu) for _ in range(RANDOM)]
        nus += [vec_add(mu, alpha) for alpha in folded.simple_roots]
        pairs += [(mu_cls, (nu, ())) for nu in nus]
    return folded, pairs


@pytest.mark.parametrize("name", TABLE_PRESETS)
def test_weight_rank_matches_the_cached_character_path(name):
    t = preset(name)
    folded, pairs = table(name)
    got = [weight_rank(t, mu, nu) for mu, nu in pairs]
    assert got == [parent_weight_rank(t, mu, nu) for mu, nu in pairs]
    exact = {}
    for (mu, nu), rank in zip(pairs, got):
        if mu not in exact:
            exact[mu] = ref_irreducible_character_int(folded, mu[0]).as_dict()
        assert rank == exact[mu].get(nu[0], 0), (mu, nu)


def test_table_reaches_every_kind_of_weight():
    """The table holds non-dominant weights of positive rank, dominant ones,
    and weights outside the support, on more than a thousand pairs."""
    kinds = set()
    count = 0
    for name in TABLE_PRESETS:
        t = preset(name)
        folded, pairs = table(name)
        count += len(pairs)
        for mu, nu in pairs:
            kinds.add((weight_rank(t, mu, nu) > 0, is_dominant_character(folded, nu[0])))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert count > 1000


@pytest.mark.parametrize("name", ["SU3", "SU7"])
def test_non_dominant_mu_is_refused_by_both_paths(name):
    t = preset(name)
    rank = fixed_group_descriptor(dual_twisted(t)).folded_cartan.datum.rank
    mu = ((-1,) + (0,) * (rank - 1), ())
    nu = ((0,) * rank, ())
    for f in (weight_rank, parent_weight_rank):
        with pytest.raises(NonDominantWeightError):
            f(t, mu, nu)
