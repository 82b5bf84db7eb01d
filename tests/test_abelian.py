"""Tests for the integer-matrix and abelian-group substrate.

Expected values marked below were computed by the stated independent
oracles (hand row reduction, brute-force coset counting in bounded boxes,
gcd/determinant arithmetic) before being frozen into assertions.
"""

import itertools
import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_satake.abelian import (
    DependentBasisError,
    DimensionMismatch,
    FgAbelianGroup,
    IntMatrix,
    dot,
    induced_map_kernel,
    integer_kernel_basis,
    membership_and_coordinates,
    quotient_group,
    smith_normal_form,
    solve_integer,
    vec_add,
    vec_scale,
    vec_sub,
)

from test_linalg_reference import rational_solve


def int_matrix(rows):
    return IntMatrix.from_rows(rows)


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


class TestSmithNormalForm:
    def test_identity(self):
        dec = smith_normal_form(IntMatrix.identity(2))
        assert dec.D == IntMatrix.identity(2)

    def test_two_by_two(self):
        # Oracle: d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8, so d2 = 4.
        m = int_matrix([[2, 4], [6, 8]])
        dec = smith_normal_form(m)
        assert dec.diagonal == (2, 4)
        assert gcd(2, gcd(4, gcd(6, 8))) == 2
        assert abs(m.determinant()) == 2 * 4

    def test_zero_matrix(self):
        zero = IntMatrix(3, 2, (0,) * 6)
        dec = smith_normal_form(zero)
        assert dec.D == zero
        assert dec.rank == 0

    def test_empty_matrix(self):
        dec = smith_normal_form(IntMatrix(3, 0, ()))
        assert dec.rank == 0
        assert dec.U == IntMatrix.identity(3)

    @settings(max_examples=120, deadline=None)
    @given(small_matrices)
    def test_invariants_random(self, rows):
        m = int_matrix(rows)
        dec = smith_normal_form(m)
        # _check_smith already ran inside; re-assert the public contract.
        assert dec.U.mul(m).mul(dec.V) == dec.D
        assert dec.U.determinant() in (1, -1)
        assert dec.V.determinant() in (1, -1)
        diag = dec.diagonal
        for i in range(len(diag) - 1):
            if diag[i] != 0:
                assert diag[i + 1] % diag[i] == 0

    @settings(max_examples=40, deadline=None)
    @given(small_matrices)
    def test_deterministic(self, rows):
        m = int_matrix(rows)
        assert smith_normal_form(m) == smith_normal_form(m)


class TestQuotientGroup:
    def test_rank_one_kernel(self):
        # Hand reduction: Z^2/<(1,-1)> is free of rank 1 via a+b.
        q = quotient_group(2, IntMatrix.from_columns([(1, -1)]))
        assert q.quotient == FgAbelianGroup(1, ())

    def test_mod_two(self):
        # Hand reduction; the component group of the rank-one adjoint datum.
        q = quotient_group(1, IntMatrix.from_columns([(2,)]))
        assert q.quotient == FgAbelianGroup(0, (2,))

    def test_no_relations(self):
        q = quotient_group(3, IntMatrix(3, 0, ()))
        assert q.quotient == FgAbelianGroup(3, ())

    def test_row_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quotient_group(3, IntMatrix.from_columns([(1, 2)]))

    def test_rank_plus_torsion_bounded(self):
        q = quotient_group(3, IntMatrix.from_columns([(2, 0, 0), (0, 3, 0)]))
        g = q.quotient
        assert g.free_rank + len(g.invariant_factors) <= 3


class TestClassOf:
    def test_sum_coordinate(self):
        q = quotient_group(2, IntMatrix.from_columns([(1, -1)]))
        # Hand reduction: the class of (a, b) is a + b.
        assert q.class_of((3, 1)) == ((4,), ())

    def test_relation_is_zero(self):
        q = quotient_group(2, IntMatrix.from_columns([(1, -1)]))
        assert q.class_of((1, -1)) == ((0,), ())

    def test_torsion_coordinate(self):
        q = quotient_group(1, IntMatrix.from_columns([(2,)]))
        assert q.class_of((5,)) == ((), (1,))

    def test_dimension_mismatch(self):
        q = quotient_group(2, IntMatrix.from_columns([(1, -1)]))
        with pytest.raises(DimensionMismatch):
            q.class_of((1, 2, 3))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-8, 8), min_size=2, max_size=2),
        st.lists(st.integers(-8, 8), min_size=2, max_size=2),
    )
    def test_additive(self, v, w):
        q = quotient_group(2, IntMatrix.from_columns([(2, 4)]))
        lhs = q.class_of([a + b for a, b in zip(v, w)])
        rhs = q.normal_form(vec_add(q.coordinates(q.class_of(v)), q.coordinates(q.class_of(w))))
        assert lhs == rhs

    def test_lift_section(self):
        q = quotient_group(3, IntMatrix.from_columns([(2, 0, 2), (0, 3, 3)]))
        for v in itertools.product(range(-3, 4), repeat=3):
            c = q.class_of(v)
            assert q.class_of(q.lift(c)) == c

    def test_vanishes_exactly_on_span(self):
        # Brute-force oracle: enumerate the span of the relation columns in a box.
        cols = [(2, 0, 1), (0, 2, -1)]
        q = quotient_group(3, IntMatrix.from_columns(cols))
        span = set()
        for a, b in itertools.product(range(-4, 5), repeat=2):
            span.add(tuple(a * x + b * y for x, y in zip(*cols)))
        for v in itertools.product(range(-3, 4), repeat=3):
            in_span = v in span
            if q.class_of(v) == q.class_of((0, 0, 0)):
                assert in_span, v
            else:
                assert not in_span, v


class TestFgAbelianGroup:
    def test_order_matches_coset_count(self):
        # Brute-force coset count in Z^2 for relations (2,0),(0,3):
        # representatives (a mod 2, b mod 3) -> 6 cosets.
        q = quotient_group(2, IntMatrix.from_columns([(2, 0), (0, 3)]))
        assert q.quotient.order() == 6
        reps = {q.class_of(v) for v in itertools.product(range(-6, 7), repeat=2)}
        assert len(reps) == 6

    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (4, 6))
        with pytest.raises(ValueError):
            FgAbelianGroup(0, (1,))

    def test_str(self):
        assert str(FgAbelianGroup(0, ())) == "0"
        assert str(FgAbelianGroup(1, (2,))) == "Z + Z/2"


class TestMembership:
    def test_simple(self):
        assert membership_and_coordinates([(2, 0), (0, 3)], (4, 3)) == (2, 1)

    def test_zero_vector(self):
        assert membership_and_coordinates([(2, 0), (0, 3)], (0, 0)) == (0, 0)

    def test_parity_obstruction(self):
        assert membership_and_coordinates([(2,)], (1,)) is None

    def test_outside_rational_span(self):
        assert membership_and_coordinates([(1, 0)], (0, 1)) is None

    def test_dependent_rejected(self):
        with pytest.raises(DependentBasisError):
            membership_and_coordinates([(1, 0), (2, 0)], (1, 0))

    def test_empty_basis(self):
        assert membership_and_coordinates([], (0, 0)) == ()
        assert membership_and_coordinates([], (1, 0)) is None


class TestKernels:
    def test_kernel_basis(self):
        m = IntMatrix.from_rows([[1, 1, 1]])
        basis = integer_kernel_basis(m)
        assert len(basis) == 2
        for v in basis:
            assert m.apply(v) == (0,)

    def test_induced_kernel_trivial(self):
        # Z -> Z^2/<(1,-1)>, 1 -> class (1,0): injective.
        q = quotient_group(2, IntMatrix.from_columns([(1, -1)]))
        m = IntMatrix.from_columns([(1, 0)])
        gens = induced_map_kernel(m, q)
        assert all(all(x == 0 for x in g) for g in gens)

    def test_induced_kernel_nontrivial(self):
        # Z -> Z/<2>, 1 -> 1 has kernel 2Z.
        q = quotient_group(1, IntMatrix.from_columns([(2,)]))
        m = IntMatrix.from_columns([(1,)])
        gens = [g for g in induced_map_kernel(m, q) if any(g)]
        assert gens
        assert all(g[0] % 2 == 0 for g in gens)


class TestRationalSolve:
    def test_unique(self):
        assert rational_solve([(1, 0), (1, 1)], (3, 2)) == (1, 2)

    def test_outside_span(self):
        assert rational_solve([(1, 0, 0)], (0, 1, 0)) is None


def triple_loop_product(a, b):
    return [
        [sum(a[i, k] * b[k, j] for k in range(a.cols)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


MUL_SHAPES = [(n, k, m) for n in (0, 1, 3) for k in (0, 2, 4) for m in (0, 1, 5)] + [(8, 8, 8)]


class TestMul:
    @pytest.mark.parametrize("n,k,m", MUL_SHAPES)
    def test_matches_triple_loop(self, n, k, m):
        rng = random.Random(1000 * n + 10 * k + m)
        for _ in range(5):
            a = IntMatrix(n, k, tuple(rng.randint(-9, 9) for _ in range(n * k)))
            b = IntMatrix(k, m, tuple(rng.randint(-9, 9) for _ in range(k * m)))
            product = a.mul(b)
            assert (product.rows, product.cols) == (n, m)
            assert [list(product.row(i)) for i in range(n)] == triple_loop_product(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            IntMatrix(2, 3, (0,) * 6).mul(IntMatrix(2, 3, (0,) * 6))


# Entries are integers or refused: the table below places each bad value at
# a seeded random position of an integer matrix or target.

NON_INTEGERS = (Fraction(3, 2), Fraction(-1, 3), 2.7, 2.0, -0.0, True, False, "1", None, 1j)
ENTRY_POINTS = {
    "from_rows": lambda rows: IntMatrix.from_rows(rows),
    "from_columns": lambda rows: IntMatrix.from_columns(rows),
    "solve_integer": lambda rows: solve_integer(
        smith_normal_form(IntMatrix.identity(len(rows[0]))), rows[0]),
}


def _with_entry(seed, value):
    """A 2 x 3 integer table with `value` at a seeded random position of its
    first row (the target that solve_integer reads)."""
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(2)]
    rows[0][rng.randrange(3)] = value
    return rows


class TestIntegerEntries:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("seed, value", list(enumerate(NON_INTEGERS)))
    def test_non_integer_is_refused_by_name(self, entry, seed, value):
        with pytest.raises(ValueError, match=f"^not an integer entry: {re.escape(repr(value))}$"):
            ENTRY_POINTS[entry](_with_entry(seed, value))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_integral_fraction_is_its_integer(self, entry):
        for seed in range(10):
            rows = _with_entry(seed, Fraction(-6, 3))
            plain = [[int(x) for x in row] for row in rows]
            got, want = ENTRY_POINTS[entry](rows), ENTRY_POINTS[entry](plain)
            assert got == want
            assert all(type(x) is int for x in getattr(got, "entries", got))

    def test_entries_once_truncated(self):
        """int() read these as (1, 2) and as the target 0, with solution (0,)."""
        with pytest.raises(ValueError, match=r"^not an integer entry: Fraction\(3, 2\)$"):
            IntMatrix.from_rows([[Fraction(3, 2), 2.7]])
        with pytest.raises(ValueError, match=r"^not an integer entry: Fraction\(1, 2\)$"):
            solve_integer(smith_normal_form(IntMatrix.from_rows([[1]])), (Fraction(1, 2),))


# The generator-sum kernels the map-based ones replaced, kept verbatim.


def ref_dot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"{len(u)} != {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def ref_vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def ref_vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def ref_vec_scale(c, v):
    return tuple(c * a for a in v)


def ref_apply(m, v):
    v = tuple(v)
    if len(v) != m.cols:
        raise DimensionMismatch(f"vector length {len(v)}, expected {m.cols}")
    return tuple(sum(a * b for a, b in zip(m.row(i), v)) for i in range(m.rows))


def _entry(rng):
    """Small, negative, or past 2**64 in absolute value."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return rng.randint(-10**6, -1)
    return rng.choice((1, -1)) * (2**64 + rng.randint(0, 2**70))


def _vector(rng, n):
    return tuple(_entry(rng) for _ in range(n))


def _same(x, y):
    """Equal, and of the same type entry by entry."""
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same, x, y))
    return type(x) is type(y) and x == y


KERNEL_LENGTHS = (0, 1, 2, 5, 8)


class TestKernelsMatchGeneratorSums:
    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    def test_vector_kernels(self, n):
        rng = random.Random(7000 + n)
        for _ in range(20):
            u, v = _vector(rng, n), _vector(rng, n)
            c = _entry(rng)
            assert _same(dot(u, v), ref_dot(u, v))
            assert _same(vec_add(u, v), ref_vec_add(u, v))
            assert _same(vec_sub(u, v), ref_vec_sub(u, v))
            assert _same(vec_scale(c, v), ref_vec_scale(c, v))

    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    def test_fraction_entries(self, n):
        rng = random.Random(7100 + n)
        for _ in range(20):
            v = _vector(rng, n)
            q = tuple(Fraction(_entry(rng), rng.randint(1, 9)) for _ in range(n))
            c, f = _entry(rng), Fraction(_entry(rng), rng.randint(2, 9))
            assert _same(vec_scale(c, q), ref_vec_scale(c, q))
            assert _same(vec_scale(f, v), ref_vec_scale(f, v))
            assert _same(vec_scale(f, q), ref_vec_scale(f, q))
            assert _same(dot(v, q), ref_dot(v, q))
            assert _same(vec_add(v, q), ref_vec_add(v, q))
            assert _same(vec_sub(q, v), ref_vec_sub(q, v))

    def test_int_times_fraction(self):
        assert vec_scale(2, (Fraction(1, 2), 3)) == (1, 6)
        assert vec_scale(Fraction(1, 2), (2, 3)) == (1, Fraction(3, 2))

    def test_unequal_lengths(self):
        u, v = (1, 2, 3), (4, 5)
        with pytest.raises(DimensionMismatch) as new:
            dot(u, v)
        with pytest.raises(DimensionMismatch) as old:
            ref_dot(u, v)
        assert str(new.value) == str(old.value) == "3 != 2"
        assert vec_add(u, v) == ref_vec_add(u, v)
        assert vec_sub(v, u) == ref_vec_sub(v, u)

    @pytest.mark.parametrize("n,m", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 6), (8, 8)])
    def test_apply(self, n, m):
        rng = random.Random(7200 + 10 * n + m)
        a = IntMatrix(n, m, _vector(rng, n * m))
        for _ in range(10):
            v = _vector(rng, m)
            assert _same(a.apply(v), ref_apply(a, v))
            assert a.apply(iter(v)) == a.apply(list(v)) == ref_apply(a, v)
        for wrong in (m + 1, m - 1):
            if wrong < 0:
                continue
            v = _vector(rng, wrong)
            with pytest.raises(DimensionMismatch) as new:
                a.apply(v)
            with pytest.raises(DimensionMismatch) as old:
                ref_apply(a, v)
            assert str(new.value) == str(old.value)
