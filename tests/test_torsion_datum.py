"""A non-preset datum whose coinvariants carry torsion.

The rank-3 lattice with the A2 system in sum-zero coordinates and the
pinned flip (a,b,c) -> (-c,-b,-a) acting on the whole of Z^3 (a
unitary-similitude-style action): the coinvariant lattice is Z + Z/2 and
the component group is Z/2, exercising every torsion path: class normal
forms, the order solver, representatives, strata, components, parity.
"""

import pytest

from twisted_satake.abelian import FgAbelianGroup
from twisted_satake.coweights import (
    dominant_representative,
    enumerate_dominant_classes,
    is_dominant_class,
    leq,
)
from twisted_satake.galois import (
    DiagramAutomorphism,
    TwistedRootDatum,
    coinvariants,
    coroot_coinvariants_exact_sequence,
    kottwitz_components,
)
from twisted_satake.rep import UnsupportedDecompositionError, branch_to_fixed_group
from twisted_satake.rootdatum import BasedRootDatum
from twisted_satake.satake import component_of, mv_cell, parity_check, stratum
from twisted_satake.suites import run_suite


@pytest.fixture(scope="module")
def u3_like():
    base = BasedRootDatum.make(
        3, [(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (0, 1, -1)]
    )
    flip = DiagramAutomorphism.make([[0, 0, -1], [0, -1, 0], [-1, 0, 0]], (1, 0))
    return TwistedRootDatum.make(base, (flip,))


def test_coinvariants_have_torsion(u3_like):
    c = coinvariants(u3_like)
    assert c.quotient == FgAbelianGroup(1, (2,))
    # e1 + e3 = (1-gamma)e1 is a relation; e2's class is pure torsion.
    assert c.class_of((1, 0, 1)) == ((0,), (0,))
    assert c.class_of((0, 1, 0)) == ((0,), (1,))
    assert c.class_of((0, 2, 0)) == ((0,), (0,))


def test_exact_sequence_with_torsion(u3_like):
    data = coroot_coinvariants_exact_sequence(u3_like)
    assert data.verified
    assert data.coroot_coinvariants == FgAbelianGroup(1, ())
    assert data.cokernel == FgAbelianGroup(0, (2,))
    assert kottwitz_components(u3_like) == FgAbelianGroup(0, (2,))


def test_order_sees_torsion(u3_like):
    c = coinvariants(u3_like)
    zero = ((0,), (0,))
    coroot_class = c.class_of((1, -1, 0))
    assert coroot_class == ((1,), (1,))
    assert leq(u3_like, zero, coroot_class) is not None
    # Same free part, wrong torsion: incomparable.
    assert leq(u3_like, zero, ((1,), (0,))) is None
    assert leq(u3_like, zero, ((2,), (0,))) is not None


def test_torsion_splits_components(u3_like):
    assert component_of(u3_like, ((1,), (0,))) != component_of(u3_like, ((1,), (1,)))
    assert component_of(u3_like, ((2,), (0,))) == component_of(u3_like, ((0,), (0,)))


def test_strata_and_parity(u3_like):
    doms = enumerate_dominant_classes(u3_like, 8)
    assert len(doms) == 10
    for cls in doms:
        s = stratum(u3_like, cls)
        assert s.dim % 2 == 0
    for comp in {component_of(u3_like, cls) for cls in doms}:
        assert parity_check(u3_like, comp, 8) == 0


def test_representative_keeps_torsion(u3_like):
    c = coinvariants(u3_like)
    rep, _w = dominant_representative(u3_like, c.class_of((0, 0, 1)))
    assert rep.cls == ((1,), (0,))
    rep, _w = dominant_representative(u3_like, ((-3,), (1,)))
    assert rep.cls == ((3,), (1,))


def test_mv_cells_with_torsion(u3_like):
    lam = ((1,), (1,))
    assert is_dominant_class(u3_like, lam) is not None
    cell = mv_cell(u3_like, ((-1,), (1,)), lam)
    assert cell.nonempty and cell.dim == 0
    # A class in the other component can never sit below lam.
    cell = mv_cell(u3_like, ((1,), (0,)), lam)
    assert not cell.nonempty


def test_branching_refused_but_suites_pass(u3_like):
    with pytest.raises(UnsupportedDecompositionError):
        branch_to_fixed_group(u3_like, (1, 0, -1))
    results = run_suite(u3_like, "all")
    assert all(r.passed for r in results), [r for r in results if not r.passed]
