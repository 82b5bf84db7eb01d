"""The per-datum record `rootdatum.full_root_system` against the two records
it replaced.

`RhoData` (2rho and its Levi sums) and `_FreudenthalData` (the invariant
form, 2rho again and the Weyl dimension) are kept here verbatim, with the
dominant-weight Freudenthal recursion that read them.  On the base, the
dual and the folded datum of every default preset, SU7 and SU9, the record
gives the same 2rho, the same Levi sum on every subset of simple indices,
the same Weyl dimensions and the same dominant multiplicities.
"""

import functools
import itertools

import pytest

from twisted_satake._value import frozen
from twisted_satake.abelian import (
    DimensionMismatch,
    InvariantViolation,
    dot,
    vec_add,
    vec_scale,
)
from twisted_satake.coweights import dominant_coweights_up_to_height
from twisted_satake.dual import fixed_group_descriptor
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset
from twisted_satake.rep import (
    NonDominantWeightError,
    _dominant_character,
    _dominant_support,
    is_dominant_character,
)
from twisted_satake.rootdatum import BasedRootDatum, dualize, full_root_system
from twisted_satake.weyl import dominant_walk

# ---------------------------------------------------------------------------
# The replaced records, verbatim


@frozen
class RhoData:
    """2*rho and its Levi variants, as exact character vectors."""

    datum: BasedRootDatum
    two_rho: tuple

    def two_rho_levi(self, subset):
        """Sum of the positive roots supported on the given simple indices."""
        subset = frozenset(subset)
        if not subset <= set(range(self.datum.num_simple)):
            raise DimensionMismatch("Levi subset out of range")
        system = full_root_system(self.datum)
        total = (0,) * self.datum.rank
        for root, _coroot in system.positive:
            coords = system.simple_coordinates(root)
            if all(c == 0 or i in subset for i, c in enumerate(coords)):
                total = vec_add(total, root)
        return total


@functools.lru_cache(maxsize=None)
def rho_data(d: BasedRootDatum) -> RhoData:
    system = full_root_system(d)
    total = (0,) * d.rank
    for root, _coroot in system.positive:
        total = vec_add(total, root)
    for coroot in d.simple_coroots:
        if dot(coroot, total) != 2:
            raise InvariantViolation("<alpha^vee, 2rho> != 2")
    return RhoData(datum=d, two_rho=total)


@frozen
class _FreudenthalData:
    """Per-datum integer data for the Freudenthal recursion.

    The form is Q(x, y) = sum over positive coroots of <beta^vee, x><beta^vee,
    y>, W-invariant and integral on integer vectors (half the usual B; the
    factor cancels in the recursion).  For each positive root alpha it holds
    the vector q_alpha with Q(x, alpha) = <q_alpha, x>, and Q(alpha, alpha).
    """

    positive: tuple   # (alpha, q_alpha, Q(alpha, alpha)) per positive root
    coroots: tuple    # the positive coroots
    two_rho: tuple

    def norm(self, x):
        return sum(dot(c, x) ** 2 for c in self.coroots)

    def weyl_dimension(self, lam):
        """prod <beta^vee, 2lam + 2rho> / prod <beta^vee, 2rho> over the
        positive coroots, in integers."""
        num = den = 1
        for c in self.coroots:
            r = dot(c, self.two_rho)
            num *= 2 * dot(c, lam) + r
            den *= r
        value, remainder = divmod(num, den)
        if remainder:
            raise InvariantViolation("Weyl dimension is not an integer")
        return value


@functools.lru_cache(maxsize=None)
def _freudenthal_data(d: BasedRootDatum) -> _FreudenthalData:
    pairs = full_root_system(d).positive
    coroots = tuple(c for _r, c in pairs)
    positive = []
    for alpha, _coroot in pairs:
        q = (0,) * d.rank
        for c in coroots:
            q = vec_add(q, vec_scale(dot(c, alpha), c))
        positive.append((alpha, q, dot(q, alpha)))
    return _FreudenthalData(
        positive=tuple(positive), coroots=coroots, two_rho=rho_data(d).two_rho,
    )


def ref_dominant_character(d: BasedRootDatum, lam: tuple):
    """The dominant-weight recursion as it read `_FreudenthalData`."""
    if len(lam) != d.rank:
        raise DimensionMismatch("weight has wrong rank")
    if not is_dominant_character(d, lam):
        raise NonDominantWeightError(f"{lam} is not dominant")

    data = _freudenthal_data(d)
    two_rho = data.two_rho
    simple = tuple(zip(d.simple_coroots, d.simple_roots))
    conjugates = {}
    support = _dominant_support(d, lam)
    ordered = sorted(support, key=lambda nu: (support[nu], nu))
    norm_lam = data.norm(tuple(2 * x + r for x, r in zip(lam, two_rho)))
    mult = {lam: 1}
    for nu in ordered:
        if nu == lam:
            continue
        total = 0
        for alpha, q, q_alpha in data.positive:
            base = dot(q, nu)
            shifted = nu
            k = 1
            while True:
                shifted = vec_add(shifted, alpha)
                if shifted not in conjugates:
                    conjugates[shifted] = dominant_walk(shifted, simple, len(data.coroots))[0]
                conjugate = conjugates[shifted]
                if conjugate not in support:
                    break
                m = mult.get(conjugate, 0)
                if m:
                    total += m * (base + k * q_alpha)
                k += 1
        denom = norm_lam - data.norm(tuple(2 * x + r for x, r in zip(nu, two_rho)))
        if denom <= 0:
            raise InvariantViolation("Freudenthal denominator must be positive")
        value, remainder = divmod(8 * total, denom)
        if remainder or value < 0:
            raise InvariantViolation("Freudenthal produced a non-integer multiplicity")
        if value:
            mult[nu] = value
    return tuple(mult.items())


# ---------------------------------------------------------------------------
# The sweep


def sweep_data(name):
    """(label, datum) for a preset's base, its dual and its folded datum."""
    t = preset(name)
    out = [(name, t.base), (name + "^", dualize(t.base))]
    folded = fixed_group_descriptor(t).folded_cartan
    if folded is not None:
        out.append((name + " folded", folded.datum))
    return out


SWEEP = [entry for name in DEFAULT_PRESET_NAMES + ("SU7", "SU9") for entry in sweep_data(name)]


def dominant_weights(d):
    """The dominant weights of height <lam, 2rho^vee> at most 24 (1,894 over
    the sweep), in a box of 2 when the datum has central directions."""
    coord = None if d.num_simple == d.rank else 2
    return dominant_coweights_up_to_height(dualize(d), 24, coord_bound=coord)


@pytest.mark.parametrize("label,d", SWEEP, ids=[label for label, _d in SWEEP])
def test_two_rho_and_every_levi_sum_match(label, d):
    system, rd = full_root_system(d), rho_data(d)
    assert system.two_rho == rd.two_rho == _freudenthal_data(d).two_rho, label
    for size in range(d.num_simple + 1):
        for subset in itertools.combinations(range(d.num_simple), size):
            assert system.two_rho_levi(subset) == rd.two_rho_levi(subset), (label, subset)
    with pytest.raises(DimensionMismatch, match="Levi subset out of range"):
        system.two_rho_levi({d.num_simple})


@pytest.mark.parametrize("label,d", SWEEP, ids=[label for label, _d in SWEEP])
def test_weyl_dimensions_and_dominant_characters_match(label, d):
    system, data = full_root_system(d), _freudenthal_data(d)
    assert system.form == tuple((q, q_alpha) for _alpha, q, q_alpha in data.positive), label
    weights = dominant_weights(d)
    assert weights, label
    for lam in weights:
        assert system.weyl_dimension(lam) == data.weyl_dimension(lam), (label, lam)
        assert _dominant_character(d, lam) == ref_dominant_character(d, lam), (label, lam)
