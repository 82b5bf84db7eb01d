"""Registry: fixed entries, parameterized families, and the ambient
coordinates that replay hand computations.

The unitary presets and PSU3 have familiar coordinates on Z^3 (and its
analogues): the sum-zero lattice for SU_n, Z^3/(1,1,1) for PSU3.  No
command reads them, so the embeddings live here; the tests that replay
computations in those coordinates import `ambient_embedding`.
"""

import functools

import pytest

from twisted_satake import presets
from twisted_satake._value import frozen
from twisted_satake.abelian import IntMatrix
from twisted_satake.galois import coinvariants, group_order, relative_simple_roots
from twisted_satake.presets import (
    DEFAULT_PRESET_NAMES,
    UnknownPresetError,
    default_presets,
    get_preset,
    preset,
)
from twisted_satake.rootdatum import validate


@frozen
class AmbientEmbedding:
    """Round trip between internal Z^rank coordinates and a familiar ambient
    presentation (for the unitary family: Z^3-style coordinates)."""

    into_ambient: IntMatrix   # internal -> ambient representative
    from_ambient: IntMatrix   # ambient representative -> internal

    def to_internal(self, v):
        return self.from_ambient.apply(v)

    def to_ambient(self, v):
        return self.into_ambient.apply(v)


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
    return AmbientEmbedding(into_ambient=into, from_ambient=back)


# Coweight-lattice coordinates inside Z^3/(1,1,1): class of (a,b,c)
# has internal coordinates (a-b, b-c); omega_1 lifts to (1,0,0).
_PSU3_EMBEDDING = AmbientEmbedding(
    into_ambient=IntMatrix.from_rows([[1, 1], [0, 1], [0, 0]]),
    from_ambient=IntMatrix.from_rows([[1, -1, 0], [0, 1, -1]]),
)


@functools.cache
def ambient_embedding(name):
    """The ambient coordinates of the preset `SU<k>` or `PSU3`."""
    if name == "PSU3":
        return _PSU3_EMBEDDING
    return _unitary_embedding(int(name.removeprefix("SU")))


def test_all_defaults_valid():
    for name, entry in default_presets():
        assert validate(entry.twisted.base).valid, name


def test_registry_keys_present():
    for key in [
        "SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2", "SL2xSL2-swap",
        "SU3", "PSU3", "SU4", "Spin8-triality",
    ]:
        assert key in DEFAULT_PRESET_NAMES


def test_parameterized_unitary_family():
    t7 = preset("SU7")
    assert t7.base.num_simple == 6
    rel = relative_simple_roots(t7)
    assert rel.relative_rank == 3
    assert rel.orbit_type[-1] == "adjacent-pair" or "adjacent-pair" in rel.orbit_type
    assert preset("SU(5)") == preset("SU5")
    with pytest.raises(UnknownPresetError):
        preset("SU6")


def test_su4_is_the_unitary_builder():
    assert get_preset("SU4") is presets._special_unitary(4)


def test_parameterized_torus_family():
    t = preset("torus-rank-5")
    assert t.rank == 5 and group_order(t) == 1
    assert coinvariants(t).quotient.free_rank == 5


def test_unknown_rejected():
    with pytest.raises(UnknownPresetError):
        preset("E8-madeup")


def test_unitary_embeddings_round_trip():
    for name in ["SU3", "SU5", "SU4", "PSU3"]:
        emb = ambient_embedding(name)
        n = preset(name).rank
        for j in range(n):
            v = tuple(1 if i == j else 0 for i in range(n))
            assert emb.to_internal(emb.to_ambient(v)) == v


def test_su5_middle_orbit_flags_at_two():
    from twisted_satake.dual import fixed_group_descriptor, parse_profile

    desc = fixed_group_descriptor(preset("SU5"), parse_profile("Fl:2"))
    assert desc.smooth_over_Z_ell == "no"
