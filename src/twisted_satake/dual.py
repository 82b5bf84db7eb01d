"""Dual twisted data, fixed-point group descriptors, folding, and adjoint
quotients.

`dual_twisted` transports a pinned inertia action to the dual datum (same
permutation of simple objects, contragredient lattice map).  For a twisted
datum s regarded as the group being fixed, the fixed-torus character
lattice X^*(s)_I is `coinvariants(dual_twisted(s))` (the cocharacter
coinvariants of the dual datum) and the descended Weyl group is
`relative_weyl(dual_twisted(s))`.  `fixed_group_descriptor(s, profile)` adds
what those do not say: smoothness, connectedness and the folded root datum.
The fold is the char-0 one and is kept on the datum (`_fold_recipe`), so
every profile and every caller reads one folded datum; the profile decides
only smoothness.  One test decides the fold and connectedness: whether
X^*(s)_I is torsion-free.  The folded datum is W0's reflection rows on
X^*(s)_I (`reflections` of the dual's `coweights._Substrate`, checked once
per datum against W0's descended longest elements): each orbit's folded
simple reflection is its row, so |W(folded)| = |W0| holds by construction,
with no group enumerated (`_fold_recipe` carries the proof).  The |W^I| oracle,
a walk of the orbit of a regular point (`suites._regular_orbit`), runs in
`verify <datum> weyl-oracle`.
"""

from __future__ import annotations

import functools

from ._value import frozen, memo
from .abelian import IntMatrix, InvariantViolation, integer_kernel_basis
from .coweights import _substrate
from .galois import (
    DiagramAutomorphism,
    TwistedRootDatum,
    _matrix_order,
    coinvariants,
    relative_simple_roots,
    validate_twisted,
)
from .rootdatum import (
    BasedRootDatum,
    InvalidDatumError,
    adjoint_from_cartan,
    dualize,
    require_valid,
    validate,
)


# ---------------------------------------------------------------------------
# Coefficient profiles


ELL_CAP = 2**64   # _is_prime is exact below it


@frozen
class CoefficientProfile:
    kind: str          # "char0" | "Z_ell" | "F_ell"
    ell: int | None = None

    def __post_init__(self):
        if self.kind not in ("char0", "Z_ell", "F_ell"):
            raise ValueError(f"unknown coefficient profile {self.kind}")
        if self.kind == "char0":
            if self.ell is not None:
                raise ValueError("char0 takes no prime")
        else:
            if self.ell is not None and self.ell >= ELL_CAP:
                raise ValueError(f"profile needs a prime ell below 2^64, got {self.ell}")
            if self.ell is None or self.ell < 2 or not _is_prime(self.ell):
                raise ValueError("profile needs a prime ell")

    @property
    def is_char0(self):
        return self.kind == "char0"

    def __str__(self):
        if self.kind == "char0":
            return "char0"
        tag = "Zl" if self.kind == "Z_ell" else "Fl"
        return f"{tag}:{self.ell}"


CHAR0 = CoefficientProfile("char0")


def _is_prime(n):
    """Miller-Rabin on the prime bases 2..37: deterministic, and exact below
    2^64 (Jaeschke, "On strong pseudoprimes to several bases", Math. Comp.
    61, 1993).  n - 1 = d * 2^s with d odd."""
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in witnesses):
        return n in witnesses
    s = ((n - 1) & (1 - n)).bit_length() - 1
    for a in witnesses:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << k, n) != n - 1 for k in range(s)):
            return False
    return True


def parse_profile(text: str) -> CoefficientProfile:
    if text == "char0":
        return CHAR0
    for tag, kind in (("Zl:", "Z_ell"), ("Fl:", "F_ell")):
        if text.startswith(tag):
            try:
                ell = int(text[len(tag):])
            except ValueError:
                break
            return CoefficientProfile(kind, ell)
    raise ValueError(f"cannot parse coefficient profile {text!r}")


# ---------------------------------------------------------------------------
# Dual transport


@memo
def dual_twisted(t: TwistedRootDatum) -> TwistedRootDatum:
    """Dualize the base and transport each generator contragrediently.  A
    lattice map g of order k has inverse g^(k-1), from its order walk.  t is
    validated first, so a datum built without `make` is refused as `make`
    refuses it.  An involution: t is kept as the dual of the result."""
    validate_twisted(t)
    base = dualize(t.base)
    gens = tuple(
        DiagramAutomorphism(
            lattice_map=functools.reduce(
                IntMatrix.mul, [g.lattice_map] * (_matrix_order(g.lattice_map) - 1),
                IntMatrix.identity(t.rank),
            ).transpose(),
            root_permutation=g.root_permutation,
        )
        for g in t.generators
    )
    return dual_twisted.put(TwistedRootDatum.make(base, gens), t)


# ---------------------------------------------------------------------------
# Folding recipe


@frozen
class FoldedCartan:
    """Root datum of the fixed-point group on the free part of X^*(s)_I."""

    type_label: str
    datum: BasedRootDatum


def _classify_label(d: BasedRootDatum):
    """Human label for folded data: rank-one lattices are pinned down
    exactly (root 2 / coroot 1 versus root 1 / coroot 2); otherwise each
    connected component of the Dynkin diagram is named by its type, joined
    by "x", and a lone double-bonded pair reads B2/C2."""
    if d.num_simple == 0:
        return f"torus-rank-{d.rank}"
    if d.num_simple == 1 and d.rank == 1:
        root, coroot = d.simple_roots[0][0], d.simple_coroots[0][0]
        if (abs(root), abs(coroot)) == (2, 1):
            return "SL2"
        if (abs(root), abs(coroot)) == (1, 2):
            return "PGL2"
        return "A1"
    types = _dynkin_types(d.cartan_matrix())
    return "B2/C2" if types == ["B2"] else "x".join(types)


def _dynkin_types(cartan):
    """The type of each connected component of a finite-type Cartan matrix
    (A_n, B_n, C_n, D_n, E_6-E_8, F_4, G_2), in order of its first node; a
    double-bonded pair is B2.  With a_ij = <alpha_i^vee, alpha_j>, a_ij = -2
    makes alpha_j the longer root, and B_n has one short simple root, C_n
    one long one."""
    k = len(cartan)
    adjacent = [[j for j in range(k) if j != i and cartan[i][j]] for i in range(k)]

    def side(start, away):
        """The nodes reached from start without passing through away."""
        reached, stack = {start}, [start]
        while stack:
            for j in adjacent[stack.pop()]:
                if j != away and j not in reached:
                    reached.add(j)
                    stack.append(j)
        return reached

    types, seen = [], set()
    for start in range(k):
        if start in seen:
            continue
        nodes = side(start, None)
        seen |= nodes
        n = len(nodes)
        bonds = {cartan[i][j] * cartan[j][i] for i in nodes for j in adjacent[i]}
        branch = [i for i in nodes if len(adjacent[i]) == 3]
        if 3 in bonds:
            types.append("G2")
        elif 2 in bonds:
            short, long = next((i, j) for i in nodes for j in adjacent[i] if cartan[i][j] == -2)
            longer = len(side(long, short))
            types.append("B2" if n == 2 else f"B{n}" if longer == n - 1
                         else f"C{n}" if longer == 1 else "F4")
        elif not branch:
            types.append(f"A{n}")
        else:
            arms = sorted(len(side(j, branch[0])) for j in adjacent[branch[0]])
            types.append(f"D{n}" if arms[:2] == [1, 1] else f"E{n}")
    return types


@memo
def _fold_recipe(s: TwistedRootDatum):
    """The folded root datum of the fixed-point group of s, on the free part
    of X^*(s)_I; None when torsion obstructs a based presentation.  Kept on
    s: it does not depend on the coefficient profile.

    It is read from W0's reflection rows x -> x - <c_O, x> a_O on X^*(s)_I,
    those of the dual datum.  Orbit O's folded root is the class of
    alpha_{O[0]}, which every root of O must share; m_O is the integer with
    a_O = m_O root_O, and the folded coroot is m_O c_O, so the folded simple
    reflection of O is its row.  m_O is read from the checked row, never
    from an orbit type: a wrong type would fold SU3 to the valid datum SL2
    in place of PGL2, which no validity test sees.

    So descended W0 and W(folded) are one subgroup of GL(X^*(s)_I), and
    |W(folded)| = |W0| with no enumeration.  W0 lies in W^I, the
    I-commuting part of the dual's Weyl group: its generators are products
    of simple reflections and commute with I (`relative_weyl` checks both).
    W^I acts faithfully on X_I tensor Q = (X tensor Q)^I: an element acting
    trivially fixes the I-fixed vector 2rho^vee of the dual, which pairs to
    2 with every simple root and so is regular, and only 1 fixes a regular
    vector.  So descent is injective on W0, and |W0| = |descended W0| =
    |W(folded)|.
    """
    dual = dual_twisted(s)
    chars = coinvariants(dual)  # X^*(s)_I
    if chars.quotient.invariant_factors:
        return None
    rows = _substrate(dual).reflections
    folded_roots = []
    folded_coroots = []
    for o, (orbit, (pairing, a)) in enumerate(zip(relative_simple_roots(s).simple_orbit_list, rows)):
        root_class = chars.class_of(s.base.simple_roots[orbit[0]])
        for i in orbit[1:]:
            if chars.class_of(s.base.simple_roots[i]) != root_class:
                raise InvariantViolation("orbit roots do not share a class")
        root = root_class[0]
        m = next((y // x for x, y in zip(root, a) if x), None)
        if m is None or tuple(m * x for x in root) != a:
            raise InvariantViolation(f"reflection row {o} is no multiple of its folded root")
        folded_roots.append(root)
        folded_coroots.append(tuple(m * x for x in pairing))
    folded = BasedRootDatum.make(chars.quotient.free_rank, folded_roots, folded_coroots)
    report = validate(folded)
    if not report.valid:
        raise InvariantViolation(f"folded datum invalid: {report.first_violation}")
    return FoldedCartan(type_label=_classify_label(folded), datum=folded)


@frozen
class FoldedGroupDescriptor:
    """The fixed-point group of s beyond its torus and Weyl group; see
    `fixed_group_descriptor`."""

    folded_cartan: FoldedCartan | None
    smooth_over_Z_ell: str                # "yes" | "no"
    connected_char0: str                  # "yes" | "unknown"
    has_adjacent_pair_orbit: bool


def fixed_group_descriptor(s: TwistedRootDatum, profile: CoefficientProfile = CHAR0) -> FoldedGroupDescriptor:
    """The folded root datum, smoothness and connectedness of the fixed-point
    group of the datum s.

    Its torus X^*(s)_I and its Weyl group, the descended relative group, are
    `coinvariants` and `relative_weyl` of `dual_twisted(s)`; the descriptor
    does not hold them.  One test decides both the fold and connectedness:
    whether X^*(s)_I is torsion-free, which is when `_fold_recipe` returns a
    datum, read from that Weyl group's checked reflection rows.  With
    torsion, folded_cartan is absent and connectedness "unknown", never a
    guess.  The fold is the datum's own, built once whatever the profile;
    the profile's ell decides only smoothness, and a profile that is not
    smooth publishes no fold.

    Connectedness.  Let G carry the datum s and I, a finite group of pinned
    automorphisms, preserve B, T and the pinning.  In characteristic 0,
    every component of G^I meets T^I, that is G^I = (G^I)° T^I (Steinberg,
    "Endomorphisms of linear algebraic groups", Mem. AMS 80, 1968, for one
    automorphism; Haines, "Dualities for root systems with automorphisms
    and applications to non-split groups", Represent. Theory 22, 2018, for
    finite I).  An element g of G^I lies in one Bruhat cell U n_w T U_w,
    whose factors are unique, and I permutes the cells and the pinned
    lifts n_w; so w lies in W^I and each factor is I-fixed.  U^I is
    unipotent, so connected in characteristic 0, and n_w lies in
    (G^I)° T^I, since W^I is the Weyl group of (G^I)° on (T^I)°.  So G^I is
    connected once T^I is, and the diagonalizable T^I is connected exactly
    when its character group X^*(s)_I is torsion-free.  Split data (I trivial) and simply
    connected ones (I permutes the fundamental weights, a basis of X^*(s))
    have free coinvariants, so they are special cases.  With torsion the
    group can be disconnected: on the rank-one torus with inversion it is
    {+1, -1}.
    """
    adjacent = any(kind == "adjacent-pair" for kind in relative_simple_roots(s).orbit_type)

    folded = _fold_recipe(s)
    connected = "unknown" if folded is None else "yes"
    smooth = profile.is_char0 or profile.ell != 2 or not adjacent
    if not smooth:
        # The fixed group fails smoothness here; its special fiber is the
        # quasi-reductive mechanism, so no reductive root datum is published.
        folded = None

    return FoldedGroupDescriptor(
        folded_cartan=folded,
        smooth_over_Z_ell="yes" if smooth else "no",
        connected_char0=connected,
        has_adjacent_pair_orbit=adjacent,
    )


# ---------------------------------------------------------------------------
# Rank-one classification


@frozen
class RankOneCase:
    case: str               # "A" (orthogonal orbits) | "B" (adjacent A2 pair)
    char0_fixed_group: str  # "SL2" | "PGL2"
    char2_flag: bool


def classify_rank_one(t: TwistedRootDatum) -> RankOneCase:
    """The two rank-one possibilities for the char-0 fixed group of the
    dual of the adjoint form, `fixed_group_descriptor(dual_twisted(
    adjoint_quotient(t).adjoint))`, which depends on the orbit type alone:
    orthogonal orbits (fixed group SL2) or an adjacent A2 pair (fixed group
    PGL2 away from characteristic 2, with the 2-adic smoothness failure).
    It is not the fixed group of `dual_twisted(t)`, which on SL2xSL2-swap is
    PGL2."""
    rel = relative_simple_roots(t)
    if rel.relative_rank != 1:
        raise InvalidDatumError(
            f"relative semisimple rank is {rel.relative_rank}, not 1"
        )
    kind = rel.orbit_type[0]
    if kind == "orthogonal":
        return RankOneCase(case="A", char0_fixed_group="SL2", char2_flag=False)
    return RankOneCase(case="B", char0_fixed_group="PGL2", char2_flag=True)


# ---------------------------------------------------------------------------
# Adjoint quotient


@frozen
class AdjointQuotient:
    adjoint: TwistedRootDatum
    to_adjoint: IntMatrix      # X_*(T) -> X_*(T_ad) in fundamental-coweight coordinates
    kernel_basis: tuple        # basis of ker(to_adjoint), the central cocharacters


def adjoint_quotient(t: TwistedRootDatum) -> AdjointQuotient:
    """The adjoint datum on the fundamental-coweight lattice, with the
    transported action and the natural map from X_*(T)."""
    require_valid(t.base)
    gens = tuple(
        DiagramAutomorphism(lattice_map=IntMatrix.permutation(g.root_permutation),
                            root_permutation=g.root_permutation)
        for g in t.generators
    )
    adjoint = TwistedRootDatum.make(adjoint_from_cartan(t.base.cartan_matrix()), gens)
    # num_simple x rank, so a torus maps onto the zero lattice with full kernel.
    roots = t.base.simple_roots
    to_ad = IntMatrix(len(roots), t.rank, tuple(x for alpha in roots for x in alpha))
    kernel = tuple(integer_kernel_basis(to_ad))
    out = AdjointQuotient(adjoint=adjoint, to_adjoint=to_ad, kernel_basis=kernel)
    verify_adjoint_right_exactness(t, out)
    return out


def verify_adjoint_right_exactness(t: TwistedRootDatum, aq: AdjointQuotient):
    """Check that the projection X_*(T) -> X_*(T_ad) of t is equivariant,
    gamma_ad . to_ad = to_ad . gamma for each inertia generator, and raise
    InvariantViolation if not.  This is all it checks: an equivariant map
    induces one on coinvariants, and taking coinvariants is right exact, so
    the cokernel of the induced map is the coinvariants of the cokernel
    with no computation."""
    for g_src, g_ad in zip(t.generators, aq.adjoint.generators):
        lhs = g_ad.lattice_map.mul(aq.to_adjoint)
        rhs = aq.to_adjoint.mul(g_src.lattice_map)
        if lhs != rhs:
            raise InvariantViolation("adjoint projection is not equivariant")
