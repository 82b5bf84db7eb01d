"""Based root data: validity, duality, root systems, rho.

A based root datum is modeled on Z^rank twice over: the character copy
carries the simple roots, the cocharacter copy the simple coroots, and the
pairing between them is the standard dot product.  Nonstandard pairings are
encoded by choosing coordinates, never by a pairing matrix, so every
downstream formula stays a dot product.

`full_root_system(d)` is the one record per based datum, built once: the
positive and negative (root, coroot) pairs, simple-root coordinates, 2rho
(checked to pair to 2 with every simple coroot), the Levi sums 2rho_J, the
Weyl dimension, and the invariant form the Freudenthal recursion reads,
built on first use.
"""

from __future__ import annotations

import functools
import math

from ._value import field, frozen, memo
from .abelian import (
    DimensionMismatch,
    IntMatrix,
    InvariantViolation,
    _integer,
    dot,
    smith_normal_form,
    vec_add,
    vec_scale,
)

ROOT_CLOSURE_CAP = 5000


class InvalidDatumError(ValueError):
    """An operation with precondition `datum valid` received an invalid one."""


@frozen
class BasedRootDatum:
    """Simple roots in the character copy of Z^rank, simple coroots in the
    cocharacter copy, paired by the dot product."""

    rank: int
    simple_roots: tuple
    simple_coroots: tuple

    @staticmethod
    def make(rank, simple_roots, simple_coroots):
        return BasedRootDatum(
            rank=rank,
            simple_roots=tuple(tuple(map(_integer, r)) for r in simple_roots),
            simple_coroots=tuple(tuple(map(_integer, r)) for r in simple_coroots),
        )

    @property
    def num_simple(self):
        return len(self.simple_roots)

    def cartan_entry(self, i, j):
        """<alpha_i^vee, alpha_j>."""
        return dot(self.simple_coroots[i], self.simple_roots[j])

    def cartan_matrix(self):
        k = self.num_simple
        return tuple(tuple(self.cartan_entry(i, j) for j in range(k)) for i in range(k))


@frozen
class ValidityReport:
    checks: tuple  # (name, ok, detail) triples, in evaluation order

    @property
    def valid(self):
        return all(ok for _n, ok, _d in self.checks)

    @property
    def first_violation(self):
        for name, ok, detail in self.checks:
            if not ok:
                return (name, detail)
        return None


@memo()
def validate(d: BasedRootDatum) -> ValidityReport:
    """Check the based-root-datum axioms, once per datum; never raises."""
    checks = []

    shapes_ok = (
        d.rank >= 0
        and len(d.simple_roots) == len(d.simple_coroots)
        and all(len(r) == d.rank for r in d.simple_roots)
        and all(len(c) == d.rank for c in d.simple_coroots)
    )
    checks.append(("shape", shapes_ok, "roots/coroots must be paired vectors in Z^rank"))
    if not shapes_ok:
        return ValidityReport(tuple(checks))

    k = d.num_simple
    roots_indep = IntMatrix.from_rows(d.simple_roots).rank() == k
    coroots_indep = IntMatrix.from_rows(d.simple_coroots).rank() == k
    checks.append(("independence", roots_indep and coroots_indep,
                   "simple roots and coroots must be linearly independent over Q"))

    diag_ok = all(d.cartan_entry(i, i) == 2 for i in range(d.num_simple))
    checks.append(("pairing-diagonal", diag_ok, "<alpha_i^vee, alpha_i> must equal 2"))

    off_ok = True
    for i in range(d.num_simple):
        for j in range(d.num_simple):
            if i == j:
                continue
            a, b = d.cartan_entry(i, j), d.cartan_entry(j, i)
            if a > 0 or (a == 0) != (b == 0):
                off_ok = False
    checks.append(("cartan-offdiagonal", off_ok,
                   "off-diagonal Cartan entries must be nonpositive and vanish symmetrically"))

    if diag_ok and off_ok and roots_indep and coroots_indep:
        try:
            system = _reflection_closure(d)
            checks.append(("finite-type", True, f"{len(system)} roots"))
        except InvariantViolation as e:
            checks.append(("finite-type", False, str(e)))
    else:
        checks.append(("finite-type", False, "skipped: earlier axiom failed"))

    return ValidityReport(tuple(checks))


def require_valid(d: BasedRootDatum):
    report = validate(d)
    if not report.valid:
        name, detail = report.first_violation
        raise InvalidDatumError(f"invalid root datum ({name}): {detail}")


@memo()
def _reflection_closure(d: BasedRootDatum):
    """All (root, coroot) pairs generated from the simple ones by simple
    reflections, each mapped to its coordinates over the simple roots;
    raises InvariantViolation when the closure exceeds the cap.

    s_i changes coordinate i of beta by -<alpha_i^vee, beta> and no other,
    so the coordinates stay integers.  They are well defined because the
    simple roots are independent (validate checks this first).
    """
    k = d.num_simple
    pairs = {
        pair: tuple(int(i == j) for j in range(k))
        for i, pair in enumerate(zip(d.simple_roots, d.simple_coroots))
    }
    frontier = list(pairs.items())
    while frontier:
        new = []
        for (beta, beta_v), coords in frontier:
            for i, (alpha, alpha_v) in enumerate(zip(d.simple_roots, d.simple_coroots)):
                n = dot(alpha_v, beta)
                m = dot(beta_v, alpha)
                if n == m == 0:
                    continue  # s_i fixes the pair
                img = (tuple([b - n * a for b, a in zip(beta, alpha)]),
                       tuple([b - m * a for b, a in zip(beta_v, alpha_v)]))
                if img not in pairs:
                    img_coords = coords[:i] + (coords[i] - n,) + coords[i + 1:]
                    pairs[img] = img_coords
                    new.append((img, img_coords))
                    if len(pairs) > ROOT_CLOSURE_CAP:
                        raise InvariantViolation(f"reflection closure exceeds {ROOT_CLOSURE_CAP} roots")
        frontier = new
    return tuple(sorted(pairs.items()))


@frozen
class RootSystem:
    """The full (absolute) root system of a datum, with positivity split:
    the one per-datum record, with 2rho, its Levi sums, the invariant form
    and the Weyl dimension."""

    positive: tuple      # (root, coroot) pairs, deterministic order
    negative: tuple
    two_rho: tuple       # the sum of the positive roots
    coordinates: dict = field(compare=False, repr=False)  # root -> simple-root coordinates
    datum: BasedRootDatum = field(compare=False, repr=False)

    @property
    def all_pairs(self):
        return self.positive + self.negative

    @property
    def roots(self):
        return tuple(r for r, _c in self.all_pairs)

    def simple_coordinates(self, root):
        """Coordinates of a root over the simple roots (integers)."""
        return self.coordinates[root]

    def two_rho_levi(self, subset):
        """Sum of the positive roots supported on the given simple indices."""
        subset = frozenset(subset)
        if not subset <= set(range(self.datum.num_simple)):
            raise DimensionMismatch("Levi subset out of range")
        total = (0,) * self.datum.rank
        for root, _coroot in self.positive:
            if all(c == 0 or i in subset for i, c in enumerate(self.coordinates[root])):
                total = vec_add(total, root)
        return total

    @functools.cached_property
    def form(self):
        """(q_alpha, Q(alpha, alpha)) per positive root alpha, in order, for
        the form Q(x, y) = sum over positive coroots of <beta^vee, x><beta^vee,
        y>: W-invariant and integral on integer vectors (half the usual B;
        the factor cancels in the Freudenthal recursion), with Q(x, alpha) =
        <q_alpha, x>.  Built on first use: only characters read it."""
        out = []
        for alpha, _coroot in self.positive:
            q = (0,) * self.datum.rank
            for _beta, c in self.positive:
                q = vec_add(q, vec_scale(dot(c, alpha), c))
            out.append((q, dot(q, alpha)))
        return tuple(out)

    def norm(self, x):
        """Q(x, x)."""
        return sum(dot(c, x) ** 2 for _r, c in self.positive)

    def weyl_dimension(self, lam):
        """prod <beta^vee, 2lam + 2rho> / prod <beta^vee, 2rho> over the
        positive coroots, in integers."""
        num = den = 1
        for _r, c in self.positive:
            r = dot(c, self.two_rho)
            num *= 2 * dot(c, lam) + r
            den *= r
        value, remainder = divmod(num, den)
        if remainder:
            raise InvariantViolation("Weyl dimension is not an integer")
        return value


@memo()
def full_root_system(d: BasedRootDatum) -> RootSystem:
    """Reflection closure of the simple roots, split into positive and
    negative roots by simple-root coordinates."""
    require_valid(d)
    pos, neg = [], []
    coordinates = {}
    for (beta, beta_v), coords in _reflection_closure(d):
        if all(x >= 0 for x in coords):
            pos.append((beta, beta_v))
        elif all(x <= 0 for x in coords):
            neg.append((beta, beta_v))
        else:
            raise InvariantViolation(f"root {beta} has mixed-sign coordinates")
        coordinates[beta] = coords
    if len(pos) != len(neg):
        raise InvariantViolation("positivity split is not symmetric")
    two_rho = (0,) * d.rank
    for root, _coroot in pos:
        two_rho = vec_add(two_rho, root)
    if any(dot(coroot, two_rho) != 2 for coroot in d.simple_coroots):
        raise InvariantViolation("<alpha^vee, 2rho> != 2")
    return RootSystem(positive=tuple(pos), negative=tuple(neg), two_rho=two_rho,
                      coordinates=coordinates, datum=d)


def adjoint_from_cartan(cartan) -> BasedRootDatum:
    """The adjoint datum of a Cartan matrix: the simple roots on the standard
    basis (so the fundamental coweights are), the coroots the Cartan rows."""
    k = len(cartan)
    roots = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    return BasedRootDatum.make(k, roots, [tuple(row) for row in cartan])


@memo()
def dualize(d: BasedRootDatum) -> BasedRootDatum:
    """Swap the character and cocharacter copies; the dual's dual is d itself."""
    require_valid(d)
    return dualize.put(BasedRootDatum(d.rank, d.simple_coroots, d.simple_roots), d)


def is_adjoint(d: BasedRootDatum) -> bool:
    """Do the fundamental coweights form a Z-basis of the cocharacter
    lattice?  Equivalently, is v -> (<v, alpha_j>)_j a bijection onto Z^k?"""
    if d.num_simple != d.rank:
        return False
    m = IntMatrix.from_rows(list(d.simple_roots))
    return m.is_unimodular()


def _scaled_inverse(rows):
    """(den, den * A^-1) for the square integer matrix A with the given
    rows, or None when A is singular; den is the least common multiple of
    A's Smith diagonal.  With U A V = D, A^-1 = V D^-1 U."""
    dec = smith_normal_form(IntMatrix.from_rows(rows))
    if dec.rank < len(rows):
        return None
    den = math.lcm(*dec.diagonal)
    scaled_u = [[x * (den // d) for x in dec.U.row(i)] for i, d in enumerate(dec.diagonal)]
    return den, dec.V.mul(IntMatrix.from_rows(scaled_u))


def _dominant_cone(free_rank, pairings, heights):
    """(den, den * A^-1 columns, N) for the square map A of free
    coordinates onto their pairings with the given rows, or None when A has
    a kernel (a central direction): the cone is A^-1 (y >= 0), with height
    weights N_O = heights . A^-1 e_O.
    """
    if len(pairings) > free_rank:
        raise InvariantViolation("more pairing rows than free coordinates")
    square = len(pairings) == free_rank and _scaled_inverse([r[:free_rank] for r in pairings])
    if not square:
        return None
    den, inverse = square
    generators = tuple(inverse.column(j) for j in range(free_rank))
    weights = []
    for g in generators:
        n, rem = divmod(dot(heights[:free_rank], g), den)
        if rem or n <= 0:
            raise InvariantViolation("cone weight of 2 rho is not a positive integer")
        weights.append(n)
    return den, generators, tuple(weights)


def _walk_cone(den, generators, weights, budget, length):
    """The integral points sum c_i generators[i] / den over integers c >= 0
    with sum c_i weights[i] <= budget, in walk order; points have the given
    length, so without generators the one point is zero.

    generators are den times the cone's generators, each weight is positive,
    and every c in the simplex is visited once.
    """
    n = len(generators)
    out = []

    def walk(i, acc, budget):
        # acc = sum over j < i of c_j generators[j]; budget = what is left
        if i == n:
            if all(x % den == 0 for x in acc):
                out.append(tuple(x // den for x in acc))
            return
        while budget >= 0:
            walk(i + 1, acc, budget)
            acc = vec_add(acc, generators[i])
            budget -= weights[i]

    if budget >= 0:
        walk(0, (0,) * length, budget)
    return out
