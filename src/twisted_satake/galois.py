"""Finite pinned automorphism groups acting on root data, and coinvariants.

The inertia group is modeled by its finite image: a finite group of
pinning-preserving automorphisms, enumerated explicitly.  The quotient
X_*(T)_I of the cocharacter lattice by the sublattice generated by
(1 - gamma)v is presented via Smith normal form, with a canonical class map,
an exact section, and rational averaging back into the invariant subspace.
What is derived from a datum is kept on it (`_value.memo`) and freed with it.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import frozen, memo
from .abelian import (
    DimensionMismatch,
    FgAbelianGroup,
    IntMatrix,
    InvariantViolation,
    QuotientPresentation,
    _integer,
    quotient_group,
)
from .rootdatum import (
    BasedRootDatum,
    InvalidDatumError,
    _dominant_cone,
    full_root_system,
    is_adjoint,
    require_valid,
)

GROUP_CLOSURE_CAP = 10000
MATRIX_ORDER_CAP = 64


class UnsupportedOrbitError(ValueError):
    """An orbit of simple roots is neither pairwise orthogonal nor an
    adjacent A2 pair; nothing in scope produces these."""


@frozen
class DiagramAutomorphism:
    """A pinned automorphism: a unimodular map on X_*(T) together with the
    permutation it induces on the simple roots.  Its order is that of the
    lattice map; `make` and `check_pinned` refuse a map of infinite order."""

    lattice_map: IntMatrix
    root_permutation: tuple

    def __post_init__(self):
        _require_square(self.lattice_map)

    @staticmethod
    def make(lattice_map, root_permutation):
        m = lattice_map if isinstance(lattice_map, IntMatrix) else IntMatrix.from_rows(lattice_map)
        perm = tuple(map(_integer, root_permutation))
        _matrix_order(_require_square(m))
        return DiagramAutomorphism(lattice_map=m, root_permutation=perm)


def _require_square(m: IntMatrix):
    if m.rows != m.cols:
        raise DimensionMismatch("lattice map must be square")
    return m


def _matrix_order(m: IntMatrix):
    acc = m
    ident = IntMatrix.identity(m.rows)
    for k in range(1, MATRIX_ORDER_CAP + 1):
        if acc == ident:
            return k
        acc = acc.mul(m)
    raise InvariantViolation("lattice map order exceeds cap; not a finite pinned action")


def check_pinned(base: BasedRootDatum, g: DiagramAutomorphism):
    """Verify the DiagramAutomorphism invariants against a base datum."""
    n = base.rank
    if g.lattice_map.rows != n:
        raise DimensionMismatch("lattice map size does not match datum rank")
    if not g.lattice_map.is_unimodular():
        raise InvalidDatumError("lattice map is not unimodular")
    if sorted(g.root_permutation) != list(range(base.num_simple)):
        raise InvalidDatumError("root_permutation is not a permutation of the simple indices")
    _matrix_order(g.lattice_map)  # a generator built without `make` may have infinite order
    lt = g.lattice_map.transpose()
    for i, (root, coroot) in enumerate(zip(base.simple_roots, base.simple_coroots)):
        j = g.root_permutation[i]
        if g.lattice_map.apply(coroot) != base.simple_coroots[j]:
            raise InvalidDatumError(f"lattice map does not send coroot {i} to coroot {j}")
        # Contragredient action on characters: alpha_i -> alpha_j means
        # transpose pulls alpha_j back to alpha_i.
        if lt.apply(base.simple_roots[j]) != root:
            raise InvalidDatumError(f"contragredient does not send root {i} to root {j}")


@frozen
class TwistedRootDatum:
    """A based, pinned root datum with a finite group of diagram
    automorphisms (the inertia action)."""

    base: BasedRootDatum
    generators: tuple

    @staticmethod
    def make(base, generators):
        t = TwistedRootDatum(base=base, generators=tuple(generators))
        validate_twisted(t)
        return t

    @property
    def rank(self):
        return self.base.rank


@memo
def validate_twisted(t: TwistedRootDatum):
    """Raise unless t is valid; a datum that passes is not checked again."""
    require_valid(t.base)
    for g in t.generators:
        check_pinned(t.base, g)
    group_elements(t)


@memo
def split_twisted(base: BasedRootDatum) -> TwistedRootDatum:
    """The split form: trivial inertia action, one per base."""
    return TwistedRootDatum.make(base, ())


@memo
def group_elements(t: TwistedRootDatum):
    """The enumerated closure of the generated automorphism group, as
    (lattice matrix, root permutation) pairs; deterministic order."""
    n = t.rank
    k = t.base.num_simple
    ident = (IntMatrix.identity(n), tuple(range(k)))
    elems = {ident}
    frontier = [ident]
    gens = [(g.lattice_map, g.root_permutation) for g in t.generators]
    while frontier:
        new = []
        for mat, perm in frontier:
            for gm, gp in gens:
                prod = (gm.mul(mat), tuple(gp[perm[i]] for i in range(k)))
                if prod not in elems:
                    elems.add(prod)
                    new.append(prod)
                    if len(elems) > GROUP_CLOSURE_CAP:
                        raise InvariantViolation("automorphism group is not small/finite")
        frontier = new
    return tuple(sorted(elems, key=lambda e: e[0].entries))


def group_order(t: TwistedRootDatum) -> int:
    return len(group_elements(t))


# ---------------------------------------------------------------------------
# Coinvariants


def one_minus_gamma_columns(t: TwistedRootDatum):
    """Columns (1 - gamma) e_j over the generators; they span the full
    augmentation sublattice (1 - g)X_*(T) over the whole group."""
    n = t.rank
    cols = []
    for g in t.generators:
        m = g.lattice_map
        for j in range(n):
            col = tuple((1 if i == j else 0) - m[i, j] for i in range(n))
            cols.append(col)
    return cols


@memo
def coinvariants(t: TwistedRootDatum) -> QuotientPresentation:
    """X_*(T)_I, presented by Smith normal form of the (1 - gamma) columns;
    its `quotient` is the group."""
    validate_twisted(t)
    relations = IntMatrix.from_columns(one_minus_gamma_columns(t), nrows=t.rank)
    return quotient_group(t.rank, relations)


def average_map(t: TwistedRootDatum, cls):
    """The rational invariant cocharacter (1/|I|) sum_gamma gamma(lift)."""
    return average_vector(t, coinvariants(t).lift(cls))


def group_sum(t: TwistedRootDatum, v):
    """sum_gamma gamma(v) over the enumerated group; integral on integral v."""
    total = [0] * t.rank
    for mat, _perm in group_elements(t):
        for i, x in enumerate(mat.apply(v)):
            total[i] += x
    return tuple(total)


def average_vector(t: TwistedRootDatum, v):
    """(1/|I|) sum_gamma gamma(v), exact; v may be integral or rational."""
    size = group_order(t)
    return tuple(Fraction(x, size) for x in group_sum(t, v))


# ---------------------------------------------------------------------------
# Relative roots


@frozen
class RelativeRootData:
    """I-orbits of simple roots with their type."""

    simple_orbit_list: tuple   # tuple of sorted index tuples
    orbit_type: tuple          # "orthogonal" | "adjacent-pair", per orbit

    @property
    def relative_rank(self):
        return len(self.simple_orbit_list)


@memo
def relative_simple_roots(t: TwistedRootDatum) -> RelativeRootData:
    """Partition the simple roots into I-orbits; the fibers of the
    restriction to relative simple roots, classified by Cartan pairings."""
    validate_twisted(t)
    k = t.base.num_simple
    perms = [perm for _m, perm in group_elements(t)]
    seen = set()
    orbits = []
    for i in range(k):
        if i in seen:
            continue
        orbit = sorted({p[i] for p in perms})
        seen.update(orbit)
        orbits.append(tuple(orbit))
    types = []
    for orbit in orbits:
        pairings = [
            t.base.cartan_entry(i, j)
            for i in orbit
            for j in orbit
            if i != j
        ]
        if all(x == 0 for x in pairings):
            types.append("orthogonal")
        elif len(orbit) == 2 and all(x == -1 for x in pairings):
            types.append("adjacent-pair")
        else:
            raise UnsupportedOrbitError(
                f"orbit {orbit} is neither orthogonal nor an adjacent A2 pair"
            )
    return RelativeRootData(simple_orbit_list=tuple(orbits), orbit_type=tuple(types))


# ---------------------------------------------------------------------------
# The coroot-coinvariants exact sequence and Kottwitz components


@frozen
class ExactSequenceData:
    """(Z Phi^vee)_I -> X_*(T)_I -> pi_1(G)_I with the verification record."""

    coroot_coinvariants: FgAbelianGroup
    cokernel: FgAbelianGroup
    pi1_coinvariants: FgAbelianGroup
    injective: bool

    @property
    def verified(self):
        return self.injective and self.cokernel == self.pi1_coinvariants


def coroot_coinvariants_exact_sequence(t: TwistedRootDatum) -> ExactSequenceData:
    """The coinvariant sequence with its exactness record, by Smith-normal-form
    rank computations: `verified` is whether it is exact, and each part is
    a record `verify` can fail.  (Z Phi^vee)_I off its orbit basis is a
    defect and raises InvariantViolation."""
    rel = relative_simple_roots(t)
    k = t.base.num_simple

    # (Z Phi^vee)_I: coinvariants of the permutation module on simple coroots.
    perm_cols = []
    for g in t.generators:
        for i in range(k):
            col = [0] * k
            col[i] += 1
            col[g.root_permutation[i]] -= 1
            perm_cols.append(tuple(col))
    perm_pres = quotient_group(k, IntMatrix.from_columns(perm_cols, nrows=k))
    coroot_coinv = perm_pres.quotient
    if coroot_coinv.invariant_factors:
        raise InvariantViolation("(Z Phi^vee)_I must be free on the orbit basis")
    if coroot_coinv.free_rank != rel.relative_rank:
        raise InvariantViolation("(Z Phi^vee)_I rank must match the number of orbits")

    # One Smith normal form of [orbit coroots | (1 - gamma)].  The columns
    # of V past the rank span its integer kernel, whose orbit coordinates
    # are the kernel of the induced map into X_*(T)_I; the quotient is
    # X_*(T)_I modulo the orbit classes, against pi_1(G)_I.
    orbit_reps = [orbit[0] for orbit in rel.simple_orbit_list]
    cols = [tuple(t.base.simple_coroots[i]) for i in orbit_reps] + one_minus_gamma_columns(t)
    pres = quotient_group(t.rank, IntMatrix.from_columns(cols, nrows=t.rank))
    V = pres.smith.V
    injective = not any(any(V.column(j)[:len(orbit_reps)]) for j in range(pres.smith.rank, V.cols))
    return ExactSequenceData(
        coroot_coinvariants=coroot_coinv,
        cokernel=pres.quotient,
        pi1_coinvariants=kottwitz_components(t),
        injective=injective,
    )


@memo
def pi1_coinvariants_presentation(t: TwistedRootDatum):
    """Presentation of pi_1(G)_I = X_*(T) / (Z Phi^vee + (1-gamma)X_*(T)),
    with its class map (the Kottwitz component map)."""
    validate_twisted(t)
    cols = [tuple(cr) for cr in t.base.simple_coroots] + one_minus_gamma_columns(t)
    return quotient_group(t.rank, IntMatrix.from_columns(cols, nrows=t.rank))


def kottwitz_components(t: TwistedRootDatum) -> FgAbelianGroup:
    """pi_1(G)_I, the component group of the twisted affine Grassmannian."""
    return pi1_coinvariants_presentation(t).quotient


# ---------------------------------------------------------------------------
# Fundamental coweights on adjoint data


def fundamental_coweight_pairing(t: TwistedRootDatum, orbit, beta_index) -> Fraction:
    """<a_1(averaged fundamental coweight of the orbit), beta>, exactly.

    Requires an adjoint base, where the fundamental coweights are a Z-basis:
    the dominant cone of the simple roots is generated by them with
    denominator 1.
    """
    if not is_adjoint(t.base):
        raise InvalidDatumError("fundamental coweight pairing needs an adjoint base datum")
    rel = relative_simple_roots(t)
    orbit = tuple(sorted(orbit))
    if orbit not in rel.simple_orbit_list:
        raise DimensionMismatch(f"{orbit} is not an I-orbit of simple roots")
    base = t.base
    two_rho = full_root_system(base).two_rho
    den, omegas, _heights = _dominant_cone(base.rank, base.simple_roots, two_rho)
    if den != 1:
        raise InvariantViolation("fundamental coweights of an adjoint datum are not integral")
    avg = average_vector(t, omegas[orbit[0]])
    beta = base.simple_roots[beta_index]
    return sum((a * b for a, b in zip(avg, beta)), Fraction(0))
