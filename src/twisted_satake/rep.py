"""Characteristic-zero character arithmetic on twisted data.

Irreducible characters are computed by the Freudenthal recursion with the
invariant form built from coroot pairings, all in integers: the recursion
is scaled by 4 and run on 2nu + 2rho.  2rho, the form and the Weyl
dimension are read from the datum's one record, `full_root_system`.  The
recursion runs on the dominant weights only (Moody-Patera), and one walk of
their W-orbits sums the multiplicities into a Z-linear image of the weight
lattice, checked against the exact Weyl dimension.  The identity image gives the character; for a twisted datum s
regarded as the group being restricted, the class map of X^*(s)_I gives the
restriction to the fixed subgroup.  The dominant multiplicities are the one
memoised character, kept on the datum per highest weight; each character,
restriction and tensor product walks their orbits again and checks the
Weyl dimension.  The char-0 decomposition straightens
each weight of the restriction under the dot action of the folded Weyl
group (the Brauer-Klimyk rule) and is checked on dominant weights; a tensor
product straightens one character shifted by the other highest weight.
Positive characteristic profiles return the restriction multiset but
refuse irreducible decomposition: that side of the theory is not
semisimple, and a silently truncated answer would be a defect, not a
result.
"""

from __future__ import annotations

from ._value import field, frozen, memo
from .abelian import DimensionMismatch, InvariantViolation, _integer, dot, vec_add, vec_scale, vec_sub
from .dual import CHAR0, CoefficientProfile, _fold_recipe, dual_twisted
from .galois import TwistedRootDatum, coinvariants
from .rootdatum import BasedRootDatum, full_root_system, require_valid
from .weyl import dominant_walk


class NonDominantWeightError(ValueError):
    pass


class UnsupportedDecompositionError(RuntimeError):
    """Decomposition refused (no folded data, or a modular profile); the
    restriction multiset, when already computed, rides along."""

    def __init__(self, message, restriction=None):
        super().__init__(message)
        self.restriction = restriction


class ResidualError(InvariantViolation):
    """A decomposition with a negative multiplicity, or one that does not
    rebuild its input: invalid folded data, never a recoverable state."""


@frozen
class WeightMultiset:
    """Finitely supported positive multiplicities on a weight lattice: keys
    are character vectors, or coinvariant classes for a restriction."""

    entries: tuple        # sorted ((key, multiplicity), ...) pairs

    @staticmethod
    def make(mapping):
        items = tuple(sorted((k, _integer(m)) for k, m in mapping.items() if m != 0))
        if any(m <= 0 for _k, m in items):
            raise ValueError("multiplicities must be strictly positive")
        return WeightMultiset(entries=items)

    def as_dict(self):
        return dict(self.entries)


def total_dimension(w: WeightMultiset) -> int:
    """Total mass: the rank of the underlying module."""
    return sum(m for _k, m in w.entries)


# ---------------------------------------------------------------------------
# Freudenthal characters


def _dominant_support(d: BasedRootDatum, lam):
    """The dominant weights of the irreducible with highest weight lam, each
    mapped to its depth: the sum of the simple-root coordinates of lam - nu.

    They are the dominant nu <= lam, and Stembridge ("The partial order of
    dominant weights", Adv. Math. 140, 1998) joins each of them to lam by
    a chain of dominant weights whose steps are positive roots, so the walk
    down from lam by positive roots through dominant weights reaches them
    all; a step by alpha adds ht(alpha) to the depth."""
    system = full_root_system(d)
    steps = [(alpha, sum(system.coordinates[alpha])) for alpha, _coroot in system.positive]
    support = {lam: 0}
    frontier = [lam]
    while frontier:
        new = []
        for nu in frontier:
            depth = support[nu]
            for alpha, height in steps:
                lower = vec_sub(nu, alpha)
                if lower not in support and is_dominant_character(d, lower):
                    support[lower] = depth + height
                    new.append(lower)
        frontier = new
    return support


def is_dominant_character(d: BasedRootDatum, lam) -> bool:
    return all(dot(coroot, lam) >= 0 for coroot in d.simple_coroots)


def irreducible_character(d: BasedRootDatum, lam: tuple) -> WeightMultiset:
    """Weight multiplicities of the irreducible with highest weight lam,
    by the Freudenthal recursion in integers; the multiset is frozen.  Only
    the dominant multiplicities are kept (`_dominant_character`): each
    call walks their orbits again and checks the Weyl dimension."""
    require_valid(d)
    return WeightMultiset.make(_orbit_sum(d, tuple(map(_integer, lam)), _identity))


def _identity(x):
    return x


@memo
def _dominant_character(d: BasedRootDatum, lam: tuple):
    """((nu, m(nu)), ...) over the dominant weights nu of the irreducible
    with highest weight lam, in order of depth; the one character memo, keyed
    on checked entries, since a weight key would equate True with 1.

    With Q the invariant form of `RootSystem.form`, the recursion
        (Q(lam+rho) - Q(nu+rho)) m(nu) = 2 sum_{alpha>0, k>=1} m(nu+k alpha) Q(nu+k alpha, alpha)
    is multiplied by 4 and written with 2nu + 2rho, so both sides are integers.
    It runs on the dominant weights only, in order of depth, and reads each
    m(nu + k alpha) at the dominant conjugate of nu + k alpha (Moody and
    Patera, "Fast recursion formula for weight multiplicities", Bull. AMS 7,
    1982).  That conjugate lies strictly less deep than nu, so its
    multiplicity is known; the alpha-string stops at the first conjugate
    outside the dominant support, since weight strings are unbroken.
    """
    if len(lam) != d.rank:
        raise DimensionMismatch("weight has wrong rank")
    if not is_dominant_character(d, lam):
        raise NonDominantWeightError(f"{lam} is not dominant")

    system = full_root_system(d)
    two_rho = system.two_rho
    simple = tuple(zip(d.simple_coroots, d.simple_roots))
    conjugates = {}
    support = _dominant_support(d, lam)
    ordered = sorted(support, key=lambda nu: (support[nu], nu))
    norm_lam = system.norm(tuple(2 * x + r for x, r in zip(lam, two_rho)))
    mult = {lam: 1}
    for nu in ordered:
        if nu == lam:
            continue
        total = 0
        for (alpha, _coroot), (q, q_alpha) in zip(system.positive, system.form):
            base = dot(q, nu)
            shifted = nu
            k = 1
            while True:
                shifted = vec_add(shifted, alpha)
                if shifted not in conjugates:
                    conjugates[shifted] = dominant_walk(shifted, simple, len(system.positive))[0]
                conjugate = conjugates[shifted]
                if conjugate not in support:
                    break
                m = mult.get(conjugate, 0)
                if m:
                    total += m * (base + k * q_alpha)
                k += 1
        denom = norm_lam - system.norm(tuple(2 * x + r for x, r in zip(nu, two_rho)))
        if denom <= 0:
            raise InvariantViolation("Freudenthal denominator must be positive")
        value, remainder = divmod(8 * total, denom)
        if remainder or value < 0:
            raise InvariantViolation("Freudenthal produced a non-integer multiplicity")
        if value:
            mult[nu] = value
    return tuple(mult.items())


def _orbit_sum(d: BasedRootDatum, lam: tuple, image):
    """{image(nu): summed multiplicity} over the weights nu of V(lam), for
    a Z-linear map image to integer vectors.  The orbit of a dominant mu is
    reached by the s_i with p = <alpha_i^vee, x> > 0, which move a point's
    simple-coroot pairings by p times column i of the Cartan matrix and its
    image by p times the image of alpha_i.  Within one orbit the pairings
    determine the point (a root-lattice vector orthogonal to every coroot
    is 0), so they key the visited set; distinct orbits are disjoint."""
    steps = tuple((image(alpha), tuple(dot(c, alpha) for c in d.simple_coroots))
                  for alpha in d.simple_roots)
    sums = {}
    total = 0
    for mu, m in _dominant_character(d, lam):
        start = tuple(dot(c, mu) for c in d.simple_coroots)
        seen = {start}
        stack = [(start, image(mu))]
        while stack:
            pairings, y = stack.pop()
            sums[y] = sums.get(y, 0) + m
            for (a, column), p in zip(steps, pairings):
                if p > 0:
                    moved = tuple(c - p * e for c, e in zip(pairings, column))
                    if moved not in seen:
                        seen.add(moved)
                        stack.append((moved, tuple(v - p * b for v, b in zip(y, a))))
        total += m * len(seen)
    if total != full_root_system(d).weyl_dimension(lam):
        raise InvariantViolation("Freudenthal multiplicities do not sum to the Weyl dimension")
    return sums


def _restriction(s: TwistedRootDatum, lam: tuple) -> WeightMultiset:
    """V(lam) of s on the fixed torus: its weights summed into class
    coordinates of X^*(s)_I, each vector reduced to its class once."""
    chars = coinvariants(dual_twisted(s))
    out = {}
    for y, m in _orbit_sum(s.base, lam, lambda x: chars.coordinates(chars.class_of(x))).items():
        cls = chars.normal_form(y)
        out[cls] = out.get(cls, 0) + m
    return WeightMultiset.make(out)


# ---------------------------------------------------------------------------
# Folded decomposition


@frozen
class DecompositionResult:
    summands: tuple            # sorted ((dominant class, multiplicity), ...)
    restriction: WeightMultiset = field(compare=False, default=None)

    def as_dict(self):
        return dict(self.summands)


def _folded_context(s: TwistedRootDatum, profile: CoefficientProfile, restriction=None, classes=()):
    """The folded datum of the fixed group of s, or the documented refusal;
    then DimensionMismatch unless each of the classes is shaped like X^*(s)_I.
    A char-0 profile is smooth, so the datum's own fold is its folded datum."""
    if not profile.is_char0:
        raise UnsupportedDecompositionError(
            f"profile {profile} is not semisimple; restriction only",
            restriction=restriction,
        )
    folded = _fold_recipe(s)
    if folded is None:
        raise UnsupportedDecompositionError(
            "no verified folded root datum for this input", restriction=restriction
        )
    chars = coinvariants(dual_twisted(s))
    for cls in classes:
        chars.coordinates(cls)
    return folded.datum


def _straighten(folded: BasedRootDatum, mapping, shift):
    """The folded irreducibles in chi (x) V(shift), as sorted summands, for chi
    the W-invariant character {nu: mapping[nu]}: the Brauer-Klimyk rule.

    With A_x the alternating sum of e^{wx} over W, chi * A_{b+rho} is the sum
    of chi(nu) * A_{nu+b+rho} over the weights nu of chi.  A_{nu+b+rho} is 0
    when nu+b+rho lies on a wall, and eps(w) * A_{w(nu+b+rho)} otherwise, so
    dividing by A_rho gives c[w(nu+b+rho) - rho] += eps(w) * chi(nu).  The
    walk runs on 2nu + 2b + 2rho, in integers; eps(w) is its word's parity."""
    system = full_root_system(folded)
    simple = tuple(zip(folded.simple_coroots, folded.simple_roots))
    start = vec_add(system.two_rho, vec_scale(2, shift))
    c = {}
    for nu, m in mapping.items():
        x, word = dominant_walk(vec_add(vec_scale(2, nu), start), simple, len(system.positive))
        if any(dot(coroot, x) == 0 for coroot, _root in simple):
            continue
        doubled = vec_sub(x, system.two_rho)
        if any(v % 2 for v in doubled):
            raise InvariantViolation(f"w(nu + rho) - rho is not integral at {nu}")
        mu = tuple(v // 2 for v in doubled)
        c[mu] = c.get(mu, 0) + (-m if len(word) % 2 else m)
    if any(m < 0 for m in c.values()):
        raise ResidualError("straightening left a negative multiplicity")
    return tuple(sorted(((mu, ()), m) for mu, m in c.items() if m))


def branch_to_fixed_group(
    s: TwistedRootDatum, lam, profile: CoefficientProfile = CHAR0
) -> DecompositionResult:
    """Restrict the irreducible of the datum s with highest weight lam (a
    dominant character of s) to the fixed-point group, and decompose.

    The summand at the projected class of lam always appears (the projected
    class is the folded highest weight of the restriction's top stratum).
    """
    require_valid(s.base)
    lam = tuple(map(_integer, lam))
    restricted = _restriction(s, lam)
    folded = _folded_context(s, profile, restriction=restricted)
    mapping = {cls[0]: m for cls, m in restricted.entries}
    result = DecompositionResult(
        summands=_straighten(folded, mapping, (0,) * folded.rank),
        restriction=restricted,
    )
    _verify_branch(s, lam, result, mapping, folded)
    return result


def _verify_branch(s, lam, result, mapping, folded):
    """Check the summands c_mu against the restriction R = mapping: (i) R
    is invariant under the folded simple reflections, which generate W;
    (ii) at each dominant nu, R(nu) = sum c_mu m_mu(nu), with m_mu read from
    the dominant-weight recursion; (iii) sum c_mu dim V(mu) = dim V(lam).

    (i) and (ii) hold exactly when R equals S = sum c_mu ch V(mu), the
    summands' full characters, which are never built.  S is W-invariant,
    and the orbit walk gives each weight of S the multiplicity of its
    dominant conjugate, the right side of (ii).  Each W-orbit meets the
    dominant chamber once, so W-invariant functions that agree on dominant
    weights are equal: (i) and (ii) give R = S, and R = S gives both.
    (iii) counts dimensions by the Weyl formula alone, and R's total is
    dim V(lam) by its walk.  A multiplicity of R corrupted off the dominant
    chamber fails (i); a dropped or wrongly signed summand fails (ii)."""
    simple = tuple(zip(folded.simple_coroots, folded.simple_roots))
    for nu, m in mapping.items():
        for coroot, root in simple:
            p = dot(coroot, nu)
            if p and mapping.get(tuple(x - p * a for x, a in zip(nu, root))) != m:
                raise ResidualError("restriction is not invariant under the folded Weyl group")
    rebuilt = {}
    for cls, m in result.summands:
        for nu, mult in _dominant_character(folded, cls[0]):
            rebuilt[nu] = rebuilt.get(nu, 0) + m * mult
    if rebuilt != {nu: m for nu, m in mapping.items() if is_dominant_character(folded, nu)}:
        raise ResidualError("branch summands do not reconstruct the restriction")
    dim = full_root_system(folded).weyl_dimension
    total = sum(m * dim(cls[0]) for cls, m in result.summands)
    if total != full_root_system(s.base).weyl_dimension(lam):
        raise ResidualError("branch dimensions do not add up")
    # Summands are dominant by construction, so the projection of lam is too.
    top = coinvariants(dual_twisted(s)).class_of(lam)
    if result.as_dict().get(top, 0) < 1:
        raise InvariantViolation("projected highest class missing from the branch")


def decompose_tensor(
    s: TwistedRootDatum, lam_cls, mu_cls, profile: CoefficientProfile = CHAR0
) -> DecompositionResult:
    """V(lam) (x) V(mu) on the folded datum, by the Brauer-Klimyk rule: the
    character of the smaller factor, shifted by the other highest weight and
    straightened.  The unit object tensors trivially and dimensions multiply."""
    folded = _folded_context(s, profile, classes=(lam_cls, mu_cls))
    a, b = (tuple(map(_integer, cls[0])) for cls in (lam_cls, mu_cls))
    for v in (a, b):
        if not is_dominant_character(folded, v):
            raise NonDominantWeightError(f"{v} is not dominant")
    dim = full_root_system(folded).weyl_dimension
    if dim(a) > dim(b):
        a, b = b, a
    result = DecompositionResult(summands=_straighten(folded, _orbit_sum(folded, a, _identity), b))
    if dim(a) * dim(b) != sum(m * dim(cls[0]) for cls, m in result.summands):
        raise ResidualError("tensor dimensions do not multiply")
    return result


def weight_rank(t: TwistedRootDatum, mu_cls, nu_cls, profile: CoefficientProfile = CHAR0) -> int:
    """The rank of the weight space attached to nu in the folded irreducible
    with highest class mu, both classes living in X_*(t)_I."""
    folded = _folded_context(dual_twisted(t), profile, classes=(mu_cls, nu_cls))
    mu = tuple(map(_integer, mu_cls[0]))
    if not is_dominant_character(folded, mu):
        raise NonDominantWeightError(f"{mu_cls} is not a dominant class")
    return _orbit_sum(folded, mu, _identity).get(nu_cls[0], 0)
