"""Exact integer-matrix algebra and finitely generated abelian groups.

Everything downstream (coinvariant lattices, fundamental groups, component
groups) is a quotient of some Z^n by the column span of an integer matrix.
This module provides the substrate: Smith normal form with recorded
unimodular transformations, canonical quotient presentations with decidable
equality of classes, and exact integer solutions of linear systems, which
answer membership in integer spans.  Every system is solved through one
Smith decomposition; no rational elimination runs.

All arithmetic is arbitrary-precision Python int; no floats, no
machine-width overflow anywhere.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator

from ._value import frozen


class DimensionMismatch(ValueError):
    """Raised when vector/matrix dimensions do not line up."""


class DependentBasisError(ValueError):
    """Raised when a claimed basis is linearly dependent over Q."""


class InvariantViolation(AssertionError):
    """An internal theorem-backed invariant failed: a defect, not an input error."""


def _integer(x):
    """x as an int: an int, or a rational such as Fraction with denominator
    1.  Anything else, bool and float included, is refused by name rather
    than truncated."""
    if type(x) is int:
        return x
    if isinstance(x, numbers.Rational) and not isinstance(x, bool) and x.denominator == 1:
        return int(x.numerator)
    raise ValueError(f"not an integer entry: {x!r}")


def _integers(v):
    """The entries of v as a tuple of ints, refused as `_integer` refuses:
    one pass over their types, and `_integer` on each only when one is not
    an int."""
    v = tuple(v)
    return v if {int}.issuperset(map(type, v)) else tuple(map(_integer, v))


# ---------------------------------------------------------------------------
# Integer matrices


@frozen
class IntMatrix:
    """Immutable integer matrix, row-major entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows):
        rows = [tuple(map(_integer, r)) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return IntMatrix(n, m, tuple(x for r in rows for x in r))

    @staticmethod
    def from_columns(cols, nrows=None):
        cols = [tuple(map(_integer, c)) for c in cols]
        if cols:
            n = len(cols[0])
            if any(len(c) != n for c in cols):
                raise DimensionMismatch("ragged columns")
        else:
            if nrows is None:
                raise DimensionMismatch("empty column list needs explicit nrows")
            n = nrows
        m = len(cols)
        return IntMatrix(n, m, tuple(cols[j][i] for i in range(n) for j in range(m)))

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def permutation(perm):
        """The matrix sending basis vector j to basis vector perm[j]."""
        k = len(perm)
        return IntMatrix.from_rows([[int(perm[j] == i) for j in range(k)] for i in range(k)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)),
        )

    def mul(self, other):
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} != {other.rows}")
        columns = [other.entries[j::other.cols] for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for column in columns:
                out.append(sum(map(operator.mul, ri, column)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    @functools.cached_property
    def _rows(self):
        return tuple(self.row(i) for i in range(self.rows))

    def apply(self, v):
        """Matrix times column vector, as a tuple."""
        v = tuple(v)
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)}, expected {self.cols}")
        return tuple([sum(map(operator.mul, r, v)) for r in self._rows])

    def determinant(self):
        """Exact determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of non-square matrix")
        rank, sign, pivot = _bareiss(self.row_list())
        return sign * pivot if rank == self.rows else 0

    def rank(self):
        """Rank over Q, by the same elimination."""
        return _bareiss(self.row_list())[0]

    def is_unimodular(self):
        return self.rows == self.cols and self.determinant() in (1, -1)


def _bareiss(a):
    """Fraction-free row echelon form of the rows a, in place: (rank, sign of
    the row permutation, last pivot).  Each entry below the pivots stays a
    minor of the input, so every division is exact; on a square matrix of
    full rank the last pivot is the determinant up to that sign."""
    n = len(a)
    m = len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for c in range(m):
        piv = next((i for i in range(rank, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        p, row = a[rank][c], a[rank]
        for i in range(rank + 1, n):
            f = a[i][c]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], row)]
        prev = p
        rank += 1
    return rank, sign, prev


def dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"{len(u)} != {len(v)}")
    return sum(map(operator.mul, u, v))


def vec_add(u, v):
    return tuple(map(operator.add, u, v))


def vec_sub(u, v):
    return tuple(map(operator.sub, u, v))


def vec_scale(c, v):
    # not map(c.__mul__, v): int.__mul__ returns NotImplemented for a Fraction
    return tuple([c * a for a in v])


# ---------------------------------------------------------------------------
# Smith normal form


@frozen
class SmithDecomposition:
    """U * original * V = D with U, V unimodular and D in Smith form; U_inverse = U^-1."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    original: IntMatrix
    U_inverse: IntMatrix

    @functools.cached_property
    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return tuple(self.D[i, i] for i in range(n))

    @functools.cached_property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)


# Each row operation E on (a, u) also applies E^-1 on the right of u_inv,
# as a column operation, so u_inv stays the inverse of u.


def _swap_rows(a, u, u_inv, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]
    for row in u_inv:
        row[i], row[j] = row[j], row[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _negate_row(a, u, u_inv, i):
    a[i] = [-x for x in a[i]]
    u[i] = [-x for x in u[i]]
    for row in u_inv:
        row[i] = -row[i]


def _row_op(a, u, u_inv, i, j, q):
    # row_i -= q * row_j; its inverse is col_j += q * col_i
    a[i] = [x - q * y for x, y in zip(a[i], a[j])]
    u[i] = [x - q * y for x, y in zip(u[i], u[j])]
    for row in u_inv:
        row[j] += q * row[i]


def _col_op(a, v, i, j, q):
    # col_i -= q * col_j
    for row in a:
        row[i] -= q * row[j]
    for row in v:
        row[i] -= q * row[j]


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with deterministic pivoting.

    Pivot rule: smallest absolute nonzero entry of the working block, ties
    broken by (row, column) position.  The diagonal of D is nonnegative with
    d_i | d_{i+1}.  Rows of U beyond the rank are sign-normalized (first
    nonzero entry positive) so quotient coordinates are reproducible.
    """
    n, mcols = m.rows, m.cols
    a = m.row_list()
    u = IntMatrix.identity(n).row_list()
    u_inv = IntMatrix.identity(n).row_list()
    v = IntMatrix.identity(mcols).row_list()

    def find_pivot(t):
        best = None
        for i in range(t, n):
            for j in range(t, mcols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(n, mcols):
        pos = find_pivot(t)
        if pos is None:
            break
        _swap_rows(a, u, u_inv, t, pos[0])
        _swap_cols(a, v, t, pos[1])
        if a[t][t] < 0:
            _negate_row(a, u, u_inv, t)
        while True:
            # Reduce the pivot column and row.  A nonzero remainder becomes
            # the new, strictly smaller pivot, so this terminates.
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    _row_op(a, u, u_inv, i, t, q)
                    if a[i][t] != 0:
                        _swap_rows(a, u, u_inv, t, i)
                        if a[t][t] < 0:
                            _negate_row(a, u, u_inv, t)
                        dirty = True
            for j in range(t + 1, mcols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    _col_op(a, v, j, t, q)
                    if a[t][j] != 0:
                        _swap_cols(a, v, t, j)
                        dirty = True
            if dirty:
                continue
            # Pivot must divide every remaining entry for the divisor chain.
            witness = None
            for i in range(t + 1, n):
                for j in range(t + 1, mcols):
                    if a[i][j] % a[t][t] != 0:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            _row_op(a, u, u_inv, t, witness, -1)
        t += 1

    rank = t
    # Sign-normalize the U-rows that define free quotient coordinates; the
    # matching D-rows are zero, so U*original*V = D is untouched.
    for i in range(rank, n):
        lead = next((x for x in u[i] if x != 0), 0)
        if lead < 0:
            u[i] = [-x for x in u[i]]
            for row in u_inv:
                row[i] = -row[i]

    U = IntMatrix.from_rows(u) if n else IntMatrix(0, 0, ())
    U_inv = IntMatrix.from_rows(u_inv) if n else IntMatrix(0, 0, ())
    V = IntMatrix.from_rows(v) if mcols else IntMatrix(0, 0, ())
    D = IntMatrix.from_rows(a) if a else IntMatrix(0, mcols, ())

    dec = SmithDecomposition(U=U, D=D, V=V, original=m, U_inverse=U_inv)
    _check_smith(dec)
    return dec


def _check_smith(dec: SmithDecomposition):
    if not dec.U.is_unimodular() or not dec.V.is_unimodular():
        raise InvariantViolation("Smith transform matrices must be unimodular")
    if dec.U.mul(dec.U_inverse) != IntMatrix.identity(dec.U.rows):
        raise InvariantViolation("U * U_inverse != I")
    if dec.U.mul(dec.original).mul(dec.V) != dec.D:
        raise InvariantViolation("U * A * V != D")
    diag = dec.diagonal
    for i in range(dec.D.rows):
        for j in range(dec.D.cols):
            if i != j and dec.D[i, j] != 0:
                raise InvariantViolation("D is not diagonal")
    for i, d in enumerate(diag):
        if d < 0:
            raise InvariantViolation("negative diagonal entry")
        if i + 1 < len(diag) and d != 0 and diag[i + 1] % d != 0:
            raise InvariantViolation("divisor chain broken")
        if d == 0 and i + 1 < len(diag) and diag[i + 1] != 0:
            raise InvariantViolation("zero before nonzero on diagonal")


# ---------------------------------------------------------------------------
# Finitely generated abelian groups and quotient presentations


@frozen
class FgAbelianGroup:
    """Z^free_rank + Z/d_1 + ... + Z/d_k with 1 < d_1 | d_2 | ... | d_k."""

    free_rank: int
    invariant_factors: tuple

    def __post_init__(self):
        prev = 1
        for d in self.invariant_factors:
            if d <= 1:
                raise ValueError("invariant factors must exceed 1")
            if d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    @property
    def is_finite(self):
        return self.free_rank == 0

    def order(self):
        if not self.is_finite:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"


@frozen
class QuotientPresentation:
    """Z^ambient_rank modulo the column span of `relations`.

    Classes carry a canonical normal form: the coordinates U*v, with torsion
    slots reduced mod their invariant factor and unit slots dropped.  Equality
    of classes is equality of normal forms.  A class (free, torsion) has the
    coordinate vector free + torsion; only this class reads, reduces and
    flattens class coordinates.
    """

    ambient_rank: int
    relations: IntMatrix
    smith: SmithDecomposition
    quotient: FgAbelianGroup

    @functools.cached_property
    def torsion_slots(self):
        """(smith index, invariant factor) pairs for the torsion coordinates."""
        return tuple(
            (i, d) for i, d in enumerate(self.smith.diagonal) if d > 1
        )

    @functools.cached_property
    def free_slots(self):
        return tuple(range(self.smith.rank, self.ambient_rank))

    @functools.cached_property
    def _coordinate_slots(self):
        """The Smith index of each class coordinate: free slots, then torsion slots."""
        return self.free_slots + tuple(i for i, _d in self.torsion_slots)

    @functools.cached_property
    def unit_lifts(self):
        """`lift` of each unit class, in coordinate order."""
        return tuple(self.smith.U_inverse.column(i) for i in self._coordinate_slots)

    @functools.cached_property
    def _kept_rows(self):
        """The rows of U that class coordinates read: one per free slot, and
        (row, invariant factor) per torsion slot; unit slots are dropped."""
        U = self.smith.U
        return (tuple(U.row(i) for i in self.free_slots),
                tuple((U.row(i), d) for i, d in self.torsion_slots))

    def class_of(self, v):
        """Canonical normal form (free coords, torsion coords) of v's class."""
        v = _integers(v)
        if len(v) != self.ambient_rank:
            raise DimensionMismatch(
                f"vector length {len(v)}, ambient rank {self.ambient_rank}"
            )
        free_rows, torsion_rows = self._kept_rows
        return (tuple([sum(map(operator.mul, row, v)) for row in free_rows]),
                tuple([sum(map(operator.mul, row, v)) % d for row, d in torsion_rows]))

    def coordinates(self, cls):
        """The flat coordinate vector free + torsion of a class; a non-integer
        entry is refused (`_integers`)."""
        free, torsion = cls
        if len(free) != len(self.free_slots) or len(torsion) != len(self.torsion_slots):
            raise DimensionMismatch("class does not match this presentation")
        return _integers(tuple(free) + tuple(torsion))

    def normal_form(self, x):
        """The class with coordinates x, torsion entries reduced mod their
        invariant factors."""
        r = len(self.free_slots)
        return tuple(x[:r]), tuple([a % d for a, (_i, d) in zip(x[r:], self.torsion_slots)])

    def lift(self, cls):
        """A representative in Z^ambient_rank of a normal-form class."""
        w = [0] * self.ambient_rank
        for i, x in zip(self._coordinate_slots, self.coordinates(cls)):
            w[i] = x
        return self.smith.U_inverse.apply(w)

    def neg(self, c):
        return self.normal_form(vec_scale(-1, self.coordinates(c)))


def quotient_group(ambient_rank: int, relations: IntMatrix) -> QuotientPresentation:
    """Present Z^ambient_rank / column-span(relations)."""
    if relations.rows != ambient_rank:
        raise DimensionMismatch(
            f"relations have {relations.rows} rows, ambient rank is {ambient_rank}"
        )
    dec = smith_normal_form(relations)
    factors = tuple(d for d in dec.diagonal if d > 1)
    free_rank = ambient_rank - dec.rank
    q = FgAbelianGroup(free_rank=free_rank, invariant_factors=factors)
    return QuotientPresentation(
        ambient_rank=ambient_rank,
        relations=relations,
        smith=dec,
        quotient=q,
    )


# ---------------------------------------------------------------------------
# Integer spans and kernels


def membership_and_coordinates(basis, v):
    """Integer coordinates of v in the integral span of `basis`, or None.

    The basis must be linearly independent over Q; dependent input is
    rejected with DependentBasisError.  Rational entries are scaled by their
    common denominator, which keeps the coordinates; independent columns
    then leave no free variable, so the one Smith solution is the answer.
    """
    if not basis:
        return () if all(x == 0 for x in v) else None
    den = math.lcm(*(x.denominator for x in (*v, *(x for col in basis for x in col))))
    m = IntMatrix.from_columns([[x * den for x in col] for col in basis])
    if len(v) != m.rows:
        raise DimensionMismatch("target length does not match the basis vectors")
    dec = smith_normal_form(m)
    if dec.rank < m.cols:
        raise DependentBasisError("columns are linearly dependent over Q")
    return solve_integer(dec, [x * den for x in v])


def integer_kernel_basis(m: IntMatrix):
    """Basis of the integer kernel lattice of m, as a list of tuples."""
    dec = smith_normal_form(m)
    r = dec.rank
    return [dec.V.column(j) for j in range(r, m.cols)]


def induced_map_kernel(m: IntMatrix, q: QuotientPresentation):
    """Generators of ker(Z^k -> Z^n/relations) for the map v -> class(m*v).

    The kernel is the projection to the first k coordinates of the integer
    kernel of the block matrix [m | relations].
    """
    if m.rows != q.ambient_rank:
        raise DimensionMismatch("map target does not match presentation ambient")
    k = m.cols
    combined = IntMatrix.from_columns(
        [m.column(j) for j in range(k)]
        + [q.relations.column(j) for j in range(q.relations.cols)],
        nrows=m.rows,
    )
    return [vec[:k] for vec in integer_kernel_basis(combined)]


def solve_integer(dec: SmithDecomposition, target):
    """One integer solution x of m x = target, or None, where dec is the
    Smith decomposition of m; one decomposition serves every target.

    With U m V = D and w = U target, the system needs d_i | w_i on the
    diagonal and w_i = 0 beyond the rank.
    """
    m = dec.original
    target = tuple(map(_integer, target))
    if len(target) != m.rows:
        raise DimensionMismatch("target length does not match matrix rows")
    w = dec.U.apply(target)
    y = [0] * m.cols
    diag = dec.diagonal
    for i in range(m.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if w[i] != 0:
                return None
        else:
            if w[i] % d != 0:
                return None
            if i < m.cols:
                y[i] = w[i] // d
    return dec.V.apply(y)
