"""The benchmark's own description of the presets it queries.

Each datum is written down here from its textbook definition, in the same
internal coordinates the package documents (simply connected data put the
simple coroots on the standard basis, adjoint data put the simple roots
there), so that every oracle in `oracles.py` works from these numbers and
never from the package's own objects.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Datum:
    name: str
    rank: int
    simple_roots: tuple      # character vectors, one per simple root
    simple_coroots: tuple    # cocharacter vectors, one per simple root
    generators: tuple        # (lattice matrix as row tuples, root permutation)

    @property
    def num_simple(self):
        return len(self.simple_roots)

    def cartan(self):
        """a_ij = <alpha_i^vee, alpha_j>."""
        return tuple(
            tuple(_dot(ci, aj) for aj in self.simple_roots) for ci in self.simple_coroots
        )


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _a_cartan(k):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(k)] for i in range(k)]


def _unit(k, i):
    return tuple(int(i == j) for j in range(k))


def _perm_matrix(perm):
    """The lattice map sending basis vector j to basis vector perm[j]."""
    k = len(perm)
    return tuple(tuple(int(perm[j] == i) for j in range(k)) for i in range(k))


def _simply_connected(name, cartan, perms=()):
    k = len(cartan)
    roots = tuple(tuple(cartan[i][j] for i in range(k)) for j in range(k))
    coroots = tuple(_unit(k, j) for j in range(k))
    gens = tuple((_perm_matrix(p), tuple(p)) for p in perms)
    return Datum(name, k, roots, coroots, gens)


def special_unitary(k_odd):
    """SU_k for odd k: type A_(k-1) with the diagram flip."""
    n = k_odd - 1
    flip = tuple(n - 1 - i for i in range(n))
    return _simply_connected(f"SU{k_odd}", _a_cartan(n), [flip])


def _psu3():
    cartan = _a_cartan(2)
    roots = (_unit(2, 0), _unit(2, 1))
    coroots = tuple(tuple(cartan[j][i] for i in range(2)) for j in range(2))
    return Datum("PSU3", 2, roots, coroots, ((((0, 1), (1, 0)), (1, 0)),))


_D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]

DATA = {
    d.name: d
    for d in (
        special_unitary(3),
        special_unitary(5),
        special_unitary(7),
        special_unitary(9),
        _psu3(),
        Datum("SL2xSL2-swap", 2, ((2, 0), (0, 2)), ((1, 0), (0, 1)),
              ((((0, 1), (1, 0)), (1, 0)),)),
        _simply_connected("SU4", _a_cartan(3), [(2, 1, 0)]),
        _simply_connected("Spin8-triality", _D4, [(2, 1, 3, 0)]),
        _simply_connected("G2", [[2, -3], [-1, 2]]),
        _simply_connected("Sp4", [[2, -2], [-1, 2]]),
        Datum("torus-rank-2", 2, (), (), ()),
    )
}


def su_half_rank(name):
    """n for SU(2n+1), else None."""
    if name.startswith("SU") and name[2:].isdigit() and int(name[2:]) % 2 == 1:
        return (int(name[2:]) - 1) // 2
    return None
