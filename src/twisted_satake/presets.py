"""The preset registry: named twisted root data in internal coordinates.

Simply connected presets put the simple coroots on the standard basis (roots
are then Cartan-matrix columns); adjoint presets put the fundamental
coweights on the standard basis (roots are standard basis vectors, coroots
Cartan-matrix rows).  The unitary family additionally records the embedding
into the familiar sum-zero/quotient coordinates on Z^3 (and its analogues)
so that hand computations in those coordinates can be replayed verbatim.

Parameterized families: ``SU<odd k>`` for the quasi-split special unitary
groups split by a quadratic extension, and ``torus-rank-<n>``.  Their
builders are pure and memoised, so a lookup changes no state that other
code reads.
"""

from __future__ import annotations

import functools
import re

from ._value import frozen
from .abelian import IntMatrix
from .galois import DiagramAutomorphism, TwistedRootDatum, split_twisted
from .rootdatum import BasedRootDatum, adjoint_from_cartan


@frozen
class AmbientEmbedding:
    """Round trip between internal Z^rank coordinates and a familiar ambient
    presentation (for the unitary family: Z^3-style coordinates)."""

    into_ambient: IntMatrix   # internal -> ambient representative
    from_ambient: IntMatrix   # ambient representative -> internal
    description: str = ""

    def to_internal(self, v):
        return self.from_ambient.apply(v)

    def to_ambient(self, v):
        return self.into_ambient.apply(v)


@frozen
class PresetEntry:
    name: str
    twisted: TwistedRootDatum
    embedding: AmbientEmbedding | None = None


class UnknownPresetError(KeyError):
    """A name the registry lacks; str() quotes the name, then says why."""

    def __str__(self):
        name, *why = self.args
        return ": ".join((repr(name), *why))


def _cartan_sc(cartan):
    """Simply connected datum from a Cartan matrix: coroots standard basis,
    roots the Cartan columns."""
    k = len(cartan)
    roots = [tuple(cartan[i][j] for i in range(k)) for j in range(k)]
    coroots = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    return BasedRootDatum.make(k, roots, coroots)


def _a_n_cartan(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


def _flip(n):
    return tuple(n - 1 - i for i in range(n))


def _unitary_embedding(n_ambient):
    """Internal coordinates for the sum-zero lattice in Z^n_ambient with
    basis e_i - e_{i+1}; the section drops the redundant coordinate."""
    k = n_ambient - 1
    into = IntMatrix.from_rows(
        [[1 if j == i else (-1 if j == i - 1 else 0) for j in range(k)] for i in range(n_ambient)]
    )
    # (a_1, ..., a_n) with sum 0 has coordinates x_i = a_1 + ... + a_i.
    back = IntMatrix.from_rows(
        [[1 if j <= i else 0 for j in range(n_ambient)] for i in range(k)]
    )
    return AmbientEmbedding(
        into_ambient=into,
        from_ambient=back,
        description=f"sum-zero sublattice of Z^{n_ambient}, basis e_i - e_(i+1)",
    )


@functools.lru_cache(maxsize=None)
def _special_unitary(k_odd):
    """SU_k for odd k: the A_(k-1) datum with the diagram flip."""
    n = k_odd - 1
    base = _cartan_sc(_a_n_cartan(n))
    flip = _flip(n)
    gen = DiagramAutomorphism.make(IntMatrix.permutation(flip), flip, order=2)
    return PresetEntry(
        name=f"SU{k_odd}",
        twisted=TwistedRootDatum.make(base, (gen,)),
        embedding=_unitary_embedding(k_odd),
    )


@functools.lru_cache(maxsize=None)
def _torus(n):
    base = BasedRootDatum.make(n, [], [])
    return PresetEntry(name=f"torus-rank-{n}", twisted=split_twisted(base))


def _build_fixed_registry():
    entries = {}

    def add(entry):
        entries[entry.name] = entry

    a1 = [[2]]
    add(PresetEntry("SL2", split_twisted(_cartan_sc(a1))))
    add(PresetEntry("PGL2", split_twisted(adjoint_from_cartan(a1))))

    a2 = _a_n_cartan(2)
    add(PresetEntry("SL3", split_twisted(_cartan_sc(a2))))
    add(PresetEntry("PGL3", split_twisted(adjoint_from_cartan(a2))))

    # Sp4 = C2: alpha_1 short, alpha_2 long.
    c2 = [[2, -2], [-1, 2]]
    add(PresetEntry("Sp4", split_twisted(_cartan_sc(c2))))

    g2 = [[2, -3], [-1, 2]]
    add(PresetEntry("G2", split_twisted(_cartan_sc(g2))))

    # SL2 x SL2 with the factor swap.
    sl2sq = BasedRootDatum.make(2, [(2, 0), (0, 2)], [(1, 0), (0, 1)])
    swap = DiagramAutomorphism.make([[0, 1], [1, 0]], (1, 0), order=2)
    add(PresetEntry(
        "SL2xSL2-swap",
        TwistedRootDatum.make(sl2sq, (swap,)),
    ))

    add(_special_unitary(3))
    add(_special_unitary(5))

    # PSU3: the adjoint A2 datum with the flip on the coweight basis.
    psu3_base = adjoint_from_cartan(a2)
    psu3_gen = DiagramAutomorphism.make([[0, 1], [1, 0]], (1, 0), order=2)
    # Coweight-lattice coordinates inside Z^3/(1,1,1): class of (a,b,c)
    # has internal coordinates (a-b, b-c); omega_1 lifts to (1,0,0).
    psu3_embed = AmbientEmbedding(
        into_ambient=IntMatrix.from_rows([[1, 1], [0, 1], [0, 0]]),
        from_ambient=IntMatrix.from_rows([[1, -1, 0], [0, 1, -1]]),
        description="Z^3 modulo the diagonal, representatives with last entry 0",
    )
    add(PresetEntry(
        "PSU3",
        TwistedRootDatum.make(psu3_base, (psu3_gen,)),
        embedding=psu3_embed,
    ))

    # SU4: A3 with the flip exchanging the outer nodes.
    a3 = _a_n_cartan(3)
    su4_base = _cartan_sc(a3)
    su4_perm = (2, 1, 0)
    su4_gen = DiagramAutomorphism.make(IntMatrix.permutation(su4_perm), su4_perm, order=2)
    add(PresetEntry(
        "SU4",
        TwistedRootDatum.make(su4_base, (su4_gen,)),
        embedding=_unitary_embedding(4),
    ))

    # Spin8 with the triality rotation (1 -> 3 -> 4 -> 1, central node fixed).
    d4 = [
        [2, -1, 0, 0],
        [-1, 2, -1, -1],
        [0, -1, 2, 0],
        [0, -1, 0, 2],
    ]
    spin8_base = _cartan_sc(d4)
    tri = (2, 1, 3, 0)  # 0 -> 2 -> 3 -> 0 in zero-based node labels
    spin8_gen = DiagramAutomorphism.make(IntMatrix.permutation(tri), tri, order=3)
    add(PresetEntry(
        "Spin8-triality",
        TwistedRootDatum.make(spin8_base, (spin8_gen,)),
    ))

    add(_torus(1))
    add(_torus(2))

    return entries


_FIXED = _build_fixed_registry()

#: Names quantified over by "every preset" test suites.
DEFAULT_PRESET_NAMES = tuple(sorted(_FIXED))

_SU_RE = re.compile(r"^SU\((\d+)\)$|^SU(\d+)$")
_TORUS_RE = re.compile(r"^torus-rank-(\d+)$")


def get_preset(name: str) -> PresetEntry:
    """Registry lookup; parameterized families come from memoised builders,
    so repeated lookups return the same entry."""
    if name in _FIXED:
        return _FIXED[name]
    m = _SU_RE.match(name)
    if m:
        k = int(m.group(1) or m.group(2))
        if k >= 3 and k % 2 == 1:
            return _special_unitary(k)
        raise UnknownPresetError(
            name, "only odd unitary ranks >= 3 are provided (SU4 is a fixed preset)"
        )
    m = _TORUS_RE.match(name)
    if m:
        return _torus(int(m.group(1)))
    raise UnknownPresetError(name)


def preset(name: str) -> TwistedRootDatum:
    return get_preset(name).twisted


def default_presets():
    return [(n, _FIXED[n]) for n in DEFAULT_PRESET_NAMES]
