"""Integer linear algebra against the Fraction code it replaced.

`ref_inverse_unimodular` is the earlier `IntMatrix.inverse_unimodular`
(Gauss-Jordan over Q) and `ref_independence` the earlier independence test
of `rootdatum.validate` (two `rational_solve` calls), both kept verbatim as
oracles.  The integer inverse must agree on seeded unimodular matrices of
sizes 0-8 with entries above 2^64, and raise the same exception type and
message on singular and non-unimodular ones; the U^-1 recorded by
`smith_normal_form` must equal the oracle inverse of U, also for shapes
with no rows or no columns; integer rank must decide independence as the
oracle does.
"""

import random
from fractions import Fraction

import pytest

from twisted_satake.abelian import DimensionMismatch, IntMatrix, rational_solve, smith_normal_form
from twisted_satake.rootdatum import BasedRootDatum, validate

# ---------------------------------------------------------------------------
# Reference implementations


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


def outcome(fn, m):
    try:
        return ("ok", fn(m))
    except Exception as e:  # noqa: BLE001 - the type and message are compared
        return (type(e), str(e))


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("n", range(9))
def test_inverse_matches_fraction_gauss_jordan(n):
    rng = random.Random(9100 + n)
    large = False
    for _ in range(12):
        m = unimodular(rng, n)
        large = large or any(abs(x) > 2**64 for x in m.entries)
        inv = m.inverse_unimodular()
        assert inv == ref_inverse_unimodular(m)
        assert m.mul(inv) == IntMatrix.identity(n)
    assert large or n < 2


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_refusals_match_fraction_gauss_jordan(n):
    rng = random.Random(9200 + n)
    kinds = set()
    for _ in range(20):
        m = singular_or_not_unimodular(rng, n)
        got = outcome(IntMatrix.inverse_unimodular, m)
        assert got == outcome(ref_inverse_unimodular, m)
        assert got[0] is ValueError
        kinds.add(got[1])
    assert kinds == {"matrix is singular", "matrix is not unimodular"} or n == 1


def test_zero_matrix_refusals():
    for n in (1, 3):
        m = IntMatrix.zero(n, n)
        assert outcome(IntMatrix.inverse_unimodular, m) == outcome(ref_inverse_unimodular, m)
    m = IntMatrix.from_rows([[2]])
    assert outcome(IntMatrix.inverse_unimodular, m) == (ValueError, "matrix is not unimodular")


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
