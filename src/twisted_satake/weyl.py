"""Absolute and relative Weyl groups: simple reflections and W0.

Weyl elements are stored as matrices acting on the cocharacter lattice, with
optional words; equality is matrix equality.  The relative simple reflection
attached to an orbit J of simple roots is the longest element w_J of the
parabolic subgroup generated by J: the chamber walk from -2rho_J by J's
simple reflections must end at the W_J-regular +2rho_J, which certifies
w_J.  It commutes with the inertia generators and therefore descends to
the coinvariant lattice, where it is an involution.

Orders are counted from root heights, |W| = prod (ht a + 1) / ht a over the
positive roots of a reduced root system (Macdonald, Math. Ann. 199, 1972;
Kostant, Amer. J. Math. 81, 1959).  Groups are counted and walked here,
never enumerated; the orbit oracle behind `verify` lives in `suites.py`.

An I-commuting lattice map reaches the coinvariants as one integer matrix
on class coordinates (free..., torsion...), built by `_descended`.  W0
acts on classes by one reflection row per orbit, held by the datum's
substrate (`coweights._Substrate.reflections`), which checks them once
against the descended longest elements; that is the only reader of
`_descended` and the only derivation of W0 on class coordinates.

`dominant_walk` finds dominant conjugates by simple reflections (Humphreys,
Reflection Groups and Coxeter Groups, 1.6-1.8).

The Iwahori-Weyl product X_*(T)_I x| W0 and its affine action are not part
of the package, since no command reads them; they are kept as a test oracle
in `tests/test_iwahori_weyl_reference.py`.
"""

from __future__ import annotations

from ._value import field, frozen, memo
from .abelian import IntMatrix, InvariantViolation, dot
from .galois import TwistedRootDatum, coinvariants, relative_simple_roots
from .rootdatum import BasedRootDatum, full_root_system

@frozen
class WeylElement:
    """A Weyl group element as its action on the cocharacter lattice."""

    matrix: IntMatrix
    word: tuple = field(default=(), compare=False)


def simple_reflection(d: BasedRootDatum, i: int) -> WeylElement:
    """s_i on X_*(T): v -> v - <v, alpha_i> alpha_i^vee."""
    alpha = d.simple_roots[i]
    coroot = d.simple_coroots[i]
    n = d.rank
    cols = []
    for j in range(n):
        col = [int(j == s) - alpha[j] * coroot[s] for s in range(n)]
        cols.append(tuple(col))
    return WeylElement(matrix=IntMatrix.from_columns(cols, nrows=n), word=(i,))


def dominant_walk(x, simple, limit):
    """(dominant point, word) for x under the reflections y -> y - <c, y> a for
    (c, a) in `simple`: each step applies the first with <c, y> < 0; the word
    lists the indices applied, last first.  No correct walk is longer than the
    number of positive roots, so a walk past `limit` steps raises."""
    word = []
    for _step in range(limit + 1):
        for i, (c, a) in enumerate(simple):
            p = dot(c, x)
            if p < 0:
                x = tuple(v - p * b for v, b in zip(x, a))
                word.append(i)
                break
        else:
            return x, tuple(reversed(word))
    raise InvariantViolation(f"chamber walk exceeded {limit} steps")


def _weyl_order(d: BasedRootDatum, orbits):
    """|W| by the height product over the indivisible roots that d's
    positive roots restrict to, their simple coordinates summed over each
    orbit (nonzero, as the orbits cover every index); the doubles 2a of a
    BC pair are dropped."""
    system = full_root_system(d)
    restricted = {
        tuple(sum(system.simple_coordinates(root)[i] for i in orbit) for orbit in orbits)
        for root, _coroot in system.positive
    }
    doubles = {tuple(2 * x for x in r) for r in restricted}
    num = den = 1
    for r in restricted - doubles:
        num *= sum(r) + 1
        den *= sum(r)
    order, rem = divmod(num, den)
    if rem:
        raise InvariantViolation(f"height product {num}/{den} is not an integer")
    return order


def longest_parabolic_element(d: BasedRootDatum, subset) -> WeylElement:
    """The longest element w_J of the parabolic generated by the simple
    reflections in J = subset, by the chamber walk from -2rho_J on
    characters.  Read from the right, its word takes the least right
    descent at each step, as the closure's shortest words do."""
    subset = tuple(sorted(subset))
    system = full_root_system(d)
    two_rho = system.two_rho_levi(subset)
    simple = [(d.simple_coroots[i], d.simple_roots[i]) for i in subset]
    end, steps = dominant_walk(tuple(-x for x in two_rho), simple, len(system.positive))
    if end != two_rho:
        raise InvariantViolation("parabolic walk from -2rho_J does not end at 2rho_J")
    word = tuple(subset[k] for k in steps)
    matrix = IntMatrix.identity(d.rank)
    for i in word:
        matrix = matrix.mul(simple_reflection(d, i).matrix)
    return WeylElement(matrix=matrix, word=word)


@frozen
class RelativeWeylGroup:
    """W0 with one generator per simple-root orbit."""

    datum: TwistedRootDatum
    generators: tuple   # WeylElement per orbit

    @property
    def order(self):
        return _weyl_order(self.datum.base, relative_simple_roots(self.datum).simple_orbit_list)


def _descended(t: TwistedRootDatum, m: IntMatrix) -> IntMatrix:
    """The integer matrix an I-commuting lattice map m induces on class
    coordinates (free..., torsion...): column j is the normal form of m
    applied to the lift of unit class j.

    Lift and normal form are Z-linear before the torsion reduction, and
    d_i times a torsion unit lifts into the relation span, so the matrix
    acts on any representative of a class.  Torsion classes stay torsion,
    so the torsion-to-free block is zero.
    """
    p = coinvariants(t)
    r = p.quotient.free_rank
    cols = [p.coordinates(p.class_of(m.apply(v))) for v in p.unit_lifts]
    if any(any(col[:r]) for col in cols[r:]):
        raise InvariantViolation("a torsion class left the torsion subgroup")
    return IntMatrix.from_columns(cols, nrows=len(cols))


@memo
def relative_weyl(t: TwistedRootDatum) -> RelativeWeylGroup:
    """W0, generated by the longest parabolic elements of the orbits."""
    rel = relative_simple_roots(t)
    gens = []
    gen_mats = [g.lattice_map for g in t.generators]
    for orbit in rel.simple_orbit_list:
        w = longest_parabolic_element(t.base, orbit)
        for g in gen_mats:
            if w.matrix.mul(g) != g.mul(w.matrix):
                raise InvariantViolation(
                    "orbit reflection does not commute with the inertia action"
                )
        gens.append(WeylElement(matrix=w.matrix, word=(rel.simple_orbit_list.index(orbit),)))
    return RelativeWeylGroup(datum=t, generators=tuple(gens))
