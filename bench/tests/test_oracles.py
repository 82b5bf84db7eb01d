"""Hand values and internal consistency of the benchmark's oracles."""

import random
from fractions import Fraction

import oracles as o
from data import DATA, Datum

A2 = ((2, -1), (-1, 2))


def test_weyl_dimension_hand_values():
    assert o.weyl_dimension(A2, (1, 1)) == 8
    assert o.weyl_dimension(A2, (1, 0)) == 3
    assert o.weyl_dimension(DATA["Spin8-triality"].cartan(), (1, 1, 1, 1)) == 4096
    assert {o.weyl_dimension(DATA["G2"].cartan(), w) for w in ((1, 0), (0, 1))} == {7, 14}


def test_positive_root_counts_and_weyl_orders():
    for name, roots, order in (("SU3", 3, 6), ("Spin8-triality", 12, 192),
                               ("G2", 6, 12), ("Sp4", 4, 8), ("SU5", 10, 120)):
        cartan = DATA[name].cartan()
        assert len(o.positive_roots(cartan)) == roots
        assert o.weyl_order(cartan) == order


def test_relative_data():
    assert o.relative_cartan(DATA["SU5"]) == ((2, -1), (-2, 2))
    assert [o.relative_weyl_order(DATA[n]) for n in ("SU3", "SU5", "SU7", "Spin8-triality")] == [2, 8, 48, 12]
    assert o.average(DATA["SU3"], (1, 0)) == (Fraction(1, 2), Fraction(1, 2))
    assert o.two_rho(DATA["SU3"]) == (2, 2)


def test_invariant_factors():
    assert o.invariant_factors([(2, 0), (0, 6)], 2) == (0, (2, 6))
    assert o.invariant_factors([(2, 4), (4, 2)], 2) == (0, (2, 6))
    assert o.kottwitz_group(DATA["torus-rank-2"]) == (2, ())
    assert o.kottwitz_group(DATA["PSU3"]) == (0, ())
    pgl3 = Datum("PGL3", 2, ((1, 0), (0, 1)), ((2, -1), (-1, 2)), ())
    assert o.kottwitz_group(pgl3) == (0, (3,))


def test_su3_closed_forms():
    assert len(o.su_partitions(1, 10)) == 11
    dims, edges = o.su_poset(1, 10)
    assert sorted(dims.values()) == list(range(0, 21, 2))
    assert edges == {((k,), (k + 1,)) for k in range(10)}
    # (1,1,-2) is dominant and maps to 3; nothing maps to 1
    assert o.su_class((1, 2)) == (3,)
    assert o.su_dominant_image(DATA["SU3"], 10) == {(k,) for k in range(11) if k != 1}


def test_su5_poset_hand_values():
    dims, edges = o.su_poset(2, 6)
    assert dims == {(0, 0): 0, (1, 0): 4, (1, 1): 6, (2, 0): 8, (2, 1): 10, (2, 2): 12, (3, 0): 12}
    assert ((1, 1), (2, 0)) in edges and ((0, 0), (1, 1)) not in edges


def test_chain_forms():
    dims, edges = o.chain_poset(3)
    assert dims == {0: 0, 1: 2, 2: 4, 3: 6}
    assert edges == {(0, 1), (1, 2), (2, 3)}


def test_closed_form_cells_agree_with_averaging():
    rng = random.Random(5)
    for name in ("SU3", "SU5", "SU7"):
        d = DATA[name]
        for _ in range(60):
            lam = o.make_dominant(d, [rng.randint(-3, 3) for _ in range(d.rank)])
            mu = [rng.randint(-3, 3) for _ in range(d.rank)]
            assert o.su_mv_cell(mu, lam) == o.mv_cell(d, mu, lam)


def test_cells_of_conjugates():
    """mu = lam is nonempty of dim ht(lam); a class higher than lam is empty."""
    for d in DATA.values():
        if d.name == "SU9":
            continue
        lam = o.make_dominant(d, (1,) * d.rank)
        assert o.mv_cell(d, lam, lam) == (True, o.height(d, lam))
        if d.num_simple:
            big = tuple(3 * x for x in lam)
            assert o.mv_cell(d, big, lam) == (False, None)


def test_corr_is_linear_and_vanishes_on_levi_coroots():
    rng = random.Random(7)
    for name in ("SU5", "Spin8-triality", "SU4", "G2"):
        d = DATA[name]
        orbits, _kinds = o.simple_orbits(d)
        for levi in ((), (0,), tuple(range(len(orbits)))):
            for _ in range(10):
                x = tuple(rng.randint(-4, 4) for _ in range(d.rank))
                y = tuple(rng.randint(-4, 4) for _ in range(d.rank))
                xy = tuple(a + b for a, b in zip(x, y))
                assert o.corr(d, levi, xy) == o.corr(d, levi, x) + o.corr(d, levi, y)
            for i in (i for orbit in levi for i in orbits[orbit]):
                assert o.corr(d, levi, d.simple_coroots[i]) == 0
        x = (1,) + (0,) * (d.rank - 1)
        assert o.corr(d, (), x) == sum(a * b for a, b in zip(o.average(d, x), o.two_rho(d)))
