"""Smith normal form invariant factors against sympy.

sympy is not a dependency of the package; the module is skipped where it is
not installed.  The inputs are the relation matrices behind `coinvariants`
and `pi1_coinvariants_presentation`, and behind pi_1 itself (X_*(T) modulo
the coroot lattice, which is `kottwitz_components(split_twisted(d))`), for
every fixed preset and its dual, and seeded random integer matrices up to
6 x 6 with entries in [-9, 9], some with zero rows or zero columns.
"""

import random

import pytest

from twisted_satake.abelian import IntMatrix, smith_normal_form
from twisted_satake.dual import dual_twisted
from twisted_satake.galois import coinvariants, pi1_coinvariants_presentation, split_twisted
from twisted_satake.presets import DEFAULT_PRESET_NAMES, preset

sympy = pytest.importorskip("sympy")
from sympy import ZZ, Matrix  # noqa: E402
from sympy.matrices.normalforms import invariant_factors  # noqa: E402


def sympy_factors(m: IntMatrix):
    if m.rows == 0 or m.cols == 0:
        return ()
    return tuple(abs(int(x)) for x in invariant_factors(Matrix(m.row_list()), domain=ZZ))


def check(m: IntMatrix):
    ours = smith_normal_form(m).diagonal
    assert tuple(abs(d) for d in ours) == sympy_factors(m), m


def relation_matrices(t):
    yield coinvariants(t).relations
    yield pi1_coinvariants_presentation(t).relations
    # pi_1: X_*(T) modulo the coroot lattice, the split datum's components.
    yield pi1_coinvariants_presentation(split_twisted(t.base)).relations


@pytest.mark.parametrize("name", DEFAULT_PRESET_NAMES)
def test_preset_relation_matrices(name):
    t = preset(name)
    for u in (t, dual_twisted(t)):
        for m in relation_matrices(u):
            check(m)


def random_matrix(rng):
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    entries = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    shape = rng.random()
    if shape < 0.2:
        entries[rng.randrange(rows)] = [0] * cols
    elif shape < 0.4:
        j = rng.randrange(cols)
        for row in entries:
            row[j] = 0
    elif shape < 0.5:
        # A rank-deficient matrix: one row a combination of two others.
        a, b, c = (rng.randrange(rows) for _ in range(3))
        entries[a] = [2 * x - y for x, y in zip(entries[b], entries[c])]
    return IntMatrix.from_rows(entries)


@pytest.mark.parametrize("seed", range(8))
def test_random_matrices(seed):
    rng = random.Random(seed)
    for _ in range(50):
        check(random_matrix(rng))


def test_all_zero_and_empty_matrices():
    for rows, cols in ((1, 1), (3, 2), (2, 5)):
        check(IntMatrix(rows, cols, (0,) * (rows * cols)))
    check(IntMatrix(3, 0, ()))
