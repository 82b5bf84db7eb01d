"""Integer linear algebra against the Fraction code it replaced.

The oracles below are earlier package code, kept verbatim (only the
package's own `membership_and_coordinates` is renamed with a `ref_`
prefix, and a function-local import became a module-level one), and
imported by the other reference tests:

- `ref_inverse_unimodular`, the earlier `IntMatrix.inverse_unimodular`
  (Gauss-Jordan over Q), which left the package: `dual_twisted` inverts an
  inertia map g of order k as g^(k-1);
- `ref_independence`, the earlier independence test of
  `rootdatum.validate` (two `rational_solve` calls);
- `rational_solve`, Gauss-Jordan elimination in `Fraction`s, and
  `ref_membership_and_coordinates`, the span membership built on it;
- `fundamental_coweights_rational`, the fundamental coweights by a rational
  solve against the Cartan matrix;
- `invariant_subspace_dimension`, the rank of the invariant subspace by a
  Smith decomposition of the (1 - gamma) columns of its own.

The inverse `dual_twisted` reads from the order walk must agree with it on
seeded finite-order maps of sizes 0-8 with entries above 2^64 (signed
permutations conjugated by seeded unimodular matrices), and a torus datum
whose inertia map the oracle refuses as singular or not unimodular must be
refused by `dual_twisted` as `TwistedRootDatum.make` refuses it; the U^-1
recorded by `smith_normal_form`
must equal the oracle inverse of U, also for shapes with no rows or no
columns; integer rank must decide independence as the oracle does.
`membership_and_coordinates`, one Smith solve, must return what the
rational oracle returns on seeded bases of ranks 1-5, dependent ones and
targets outside the span or off the lattice among them, and raise the same
exception types.
"""

import random
from fractions import Fraction

import pytest

from twisted_satake.abelian import (
    DependentBasisError,
    DimensionMismatch,
    IntMatrix,
    InvariantViolation,
    membership_and_coordinates,
    smith_normal_form,
)
from twisted_satake.dual import dual_twisted
from twisted_satake.galois import DiagramAutomorphism, TwistedRootDatum, one_minus_gamma_columns
from twisted_satake.rootdatum import BasedRootDatum, InvalidDatumError, require_valid, validate

# ---------------------------------------------------------------------------
# Reference implementations


def rational_solve(columns, target):
    """Solve sum_j x_j * columns[j] = target over Q.

    Returns the unique solution when the columns are independent, None when
    the target is outside the span.  Raises DependentBasisError when the
    columns are dependent.
    """
    cols = [tuple(c) for c in columns]
    k = len(cols)
    n = len(target) if not cols else len(cols[0])
    if any(len(c) != n for c in cols) or len(target) != n:
        raise DimensionMismatch("ragged solve input")
    # Augmented row-reduction over Q.
    rows = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if len(pivots) < k:
        raise DependentBasisError("columns are linearly dependent over Q")
    for i in range(r, n):
        if rows[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, c in enumerate(pivots):
        sol[c] = rows[i][k]
    return tuple(sol)


def ref_membership_and_coordinates(basis, v):
    """Integer coordinates of v in the integral span of `basis`, or None.

    The basis must be linearly independent over Q; dependent input is
    rejected with DependentBasisError.
    """
    if not basis:
        return () if all(x == 0 for x in v) else None
    sol = rational_solve(basis, v)
    if sol is None:
        return None
    if any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def fundamental_coweights_rational(d: BasedRootDatum):
    """Rational coweights omega_i^vee in the span of the coroots with
    <omega_i^vee, alpha_j> = delta_ij.  Exists for any valid datum."""
    require_valid(d)
    k = d.num_simple
    out = []
    for i in range(k):
        target = tuple(Fraction(int(i == j)) for j in range(k))
        # omega_i^vee = sum_m c_m alpha_m^vee with <., alpha_j> = delta_ij
        cols = [tuple(Fraction(d.cartan_entry(m, j)) for j in range(k)) for m in range(k)]
        sol = rational_solve(cols, target)
        if sol is None:
            raise InvariantViolation("Cartan matrix is singular on a valid datum")
        w = tuple(
            sum((sol[m] * d.simple_coroots[m][t] for m in range(k)), Fraction(0))
            for t in range(d.rank)
        )
        out.append(w)
    return tuple(out)


def invariant_subspace_dimension(t: TwistedRootDatum) -> int:
    """Dimension over Q of the gamma-invariant subspace of X_*(T) tensor Q."""
    cols = one_minus_gamma_columns(t)
    if not cols:
        return t.rank
    m = IntMatrix.from_columns(cols, nrows=t.rank)
    return t.rank - smith_normal_form(m).rank


def ref_inverse_unimodular(self):
    """Inverse of a unimodular matrix, exact and integral."""
    n = self.rows
    if n != self.cols:
        raise DimensionMismatch("inverse of non-square matrix")
    # Gauss-Jordan over Q; integrality follows from det = +-1.
    a = [[Fraction(x) for x in self.row(i)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    out = []
    for i in range(n):
        for j in range(n):
            q = a[i][n + j]
            if q.denominator != 1:
                raise ValueError("matrix is not unimodular")
            out.append(int(q))
    return IntMatrix(n, n, tuple(out))


def ref_independence(d):
    if d.num_simple:
        try:
            rational_solve(d.simple_roots, (0,) * d.rank)
            roots_indep = True
        except Exception:
            roots_indep = False
        try:
            rational_solve(d.simple_coroots, (0,) * d.rank)
            coroots_indep = True
        except Exception:
            coroots_indep = False
    else:
        roots_indep = coroots_indep = True
    return roots_indep and coroots_indep


# ---------------------------------------------------------------------------
# Seeded inputs


def unimodular(rng, n, steps=40, big=2**40):
    """A product of elementary matrices: row additions with large
    multipliers, swaps and negations."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        move = rng.randrange(4)
        if i != j and move < 2:
            q = rng.randint(-big, big) if move == 0 else rng.randint(-3, 3)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        elif i != j and move == 2:
            a[i], a[j] = a[j], a[i]
        else:
            a[i] = [-x for x in a[i]]
    return IntMatrix.from_rows(a) if n else IntMatrix(0, 0, ())


def singular_or_not_unimodular(rng, n):
    """A matrix with a repeated (scaled) row, or with a row scaled by k > 1."""
    m = unimodular(rng, n, steps=12, big=50)
    rows = m.row_list()
    i = rng.randrange(n)
    if rng.randrange(2) and n > 1:
        j = (i + 1 + rng.randrange(n - 1)) % n
        c = rng.randint(-3, 3)
        rows[i] = [c * x for x in rows[j]]
    else:
        c = rng.randint(2, 5)
        rows[i] = [c * x for x in rows[i]]
    return IntMatrix.from_rows(rows)


def signed_permutation(rng, n):
    """A seeded permutation matrix with seeded signs: finite order."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return IntMatrix(n, n, tuple(signs[j] * (perm[j] == i) for i in range(n) for j in range(n)))


def torus_with(m):
    """The torus datum of rank m.rows with the one inertia map m, built
    without `make`, so nothing has checked m."""
    base = BasedRootDatum(rank=m.rows, simple_roots=(), simple_coroots=())
    return TwistedRootDatum(base=base, generators=(DiagramAutomorphism(m, ()),))


def outcome(fn, m):
    try:
        return ("ok", fn(m))
    except Exception as e:  # noqa: BLE001 - the type and message are compared
        return (type(e), str(e))


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("n", range(9))
def test_inverse_matches_fraction_gauss_jordan(n):
    """The dual's inertia map is the transpose of g^(k-1), k the order of
    g: on P g P^-1 for seeded signed permutations g and unimodular P, it is
    the transposed Fraction Gauss-Jordan inverse."""
    rng = random.Random(9100 + n)
    large = False
    for _ in range(12):
        p = unimodular(rng, n)
        m = p.mul(signed_permutation(rng, n)).mul(ref_inverse_unimodular(p))
        large = large or any(abs(x) > 2**64 for x in m.entries)
        inv = dual_twisted(torus_with(m)).generators[0].lattice_map.transpose()
        assert inv == ref_inverse_unimodular(m)
        assert m.mul(inv) == IntMatrix.identity(n)
    assert large or n < 2


def _refusal(m):
    """What `make` and `dual_twisted` raise for the torus datum with inertia map m."""
    t = torus_with(m)
    got = outcome(dual_twisted, t)
    assert got == outcome(lambda t: TwistedRootDatum.make(t.base, t.generators), t)
    return got


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_refusals_match_fraction_gauss_jordan(n):
    """Where the oracle refuses a map as singular or not unimodular,
    `dual_twisted` refuses a datum holding it, before any inverse."""
    rng = random.Random(9200 + n)
    kinds = set()
    for _ in range(20):
        m = singular_or_not_unimodular(rng, n)
        want = outcome(ref_inverse_unimodular, m)
        assert want[0] is ValueError
        kinds.add(want[1])
        assert _refusal(m) == (InvalidDatumError, "lattice map is not unimodular")
    assert kinds == {"matrix is singular", "matrix is not unimodular"} or n == 1


def test_zero_matrix_refusals():
    for m in (IntMatrix(1, 1, (0,)), IntMatrix(3, 3, (0,) * 9), IntMatrix.from_rows([[2]])):
        assert outcome(ref_inverse_unimodular, m)[0] is ValueError
        assert _refusal(m) == (InvalidDatumError, "lattice map is not unimodular")


SMITH_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 4), (5, 2), (6, 7), (8, 3)]


@pytest.mark.parametrize("rows,cols", SMITH_SHAPES)
def test_recorded_u_inverse_matches_oracle(rows, cols):
    rng = random.Random(9300 + 10 * rows + cols)
    for _ in range(8):
        entries = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.randrange(2):
            entries[-1] = [2 * x for x in entries[0]]
        m = IntMatrix(rows, cols, tuple(x for r in entries for x in r))
        dec = smith_normal_form(m)
        assert dec.U_inverse == ref_inverse_unimodular(dec.U)


def random_datum(rng):
    rank = rng.randint(1, 5)
    k = rng.randint(0, rank + 1)

    def vectors():
        out = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(k)]
        if k > 1 and rng.randrange(3) == 0:
            out[-1] = tuple(a + b for a, b in zip(out[0], out[1]))
        return out

    return BasedRootDatum.make(rank, vectors(), vectors())


def test_independence_matches_rational_solve():
    rng = random.Random(9400)
    seen = set()
    for _ in range(400):
        d = random_datum(rng)
        report = dict((name, ok) for name, ok, _detail in validate(d).checks)
        assert report["independence"] == ref_independence(d)
        seen.add(report["independence"])
    assert seen == {True, False}


def membership_case(rng):
    """(basis, target): k <= n + 1 columns in Z^n, n in 1..5, and a target
    in the lattice, in the rational span but off the lattice (the first
    column doubled after the target is built from it with an odd
    coefficient), or drawn at random.  A quarter of the bases with two or
    more columns are made dependent; one case in five has its basis and its
    target divided by 1, 2 or 3 each, as Fractions; and one case in ten is
    ragged: a column or the target one entry too long."""
    n = rng.randint(1, 5)
    k = rng.randint(1, n + 1)
    basis = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
    if k > 1 and rng.randrange(4) == 0:
        basis[-1] = tuple(2 * a - b for a, b in zip(basis[0], basis[1]))
    coeffs = [rng.randint(-3, 3) for _ in range(k)]
    kind = rng.choice(("lattice", "off-lattice", "random"))
    if kind == "off-lattice":
        coeffs[0] = 2 * coeffs[0] + 1
    target = tuple(sum(c * col[i] for c, col in zip(coeffs, basis)) for i in range(n))
    if kind == "off-lattice":
        basis[0] = tuple(2 * x for x in basis[0])
    elif kind == "random":
        target = tuple(rng.randint(-6, 6) for _ in range(n))
    if rng.randrange(5) == 0:
        d, e = rng.randint(1, 3), rng.randint(1, 3)
        basis = [tuple(Fraction(x, d) for x in col) for col in basis]
        target = tuple(Fraction(x, e) for x in target)
    if rng.randrange(10) == 0:
        if rng.randrange(2):
            target += (1,)
        else:
            basis[rng.randrange(k)] += (1,)
    return basis, target


def membership_outcome(solve, basis, target):
    """The answer, or the type of the exception raised (the messages of
    the rational oracle and the Smith solve differ)."""
    try:
        return solve(basis, target)
    except (DependentBasisError, DimensionMismatch) as e:
        return type(e)


def test_membership_matches_rational_solve():
    rng = random.Random(9500)
    seen = set()
    for _ in range(1500):
        basis, target = membership_case(rng)
        got = membership_outcome(membership_and_coordinates, basis, target)
        assert got == membership_outcome(ref_membership_and_coordinates, basis, target), \
            (basis, target)
        if got is None:
            inside = rational_solve(basis, target) is not None
            seen.add("off-lattice" if inside else "outside-span")
        else:
            seen.add(got if isinstance(got, type) else "member")
    assert seen == {"member", "off-lattice", "outside-span",
                    DependentBasisError, DimensionMismatch}
