"""Registry: fixed entries, parameterized families, embeddings."""

import pytest

from twisted_satake.galois import coinvariants, group_order, relative_simple_roots
from twisted_satake.presets import (
    DEFAULT_PRESET_NAMES,
    UnknownPresetError,
    default_presets,
    get_preset,
    preset,
)
from twisted_satake.rootdatum import validate


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


def test_parameterized_torus_family():
    t = preset("torus-rank-5")
    assert t.rank == 5 and group_order(t) == 1
    assert coinvariants(t).quotient.free_rank == 5


def test_unknown_rejected():
    with pytest.raises(UnknownPresetError):
        preset("E8-madeup")


def test_unitary_embeddings_round_trip():
    for name in ["SU3", "SU5", "SU4"]:
        entry = get_preset(name)
        emb = entry.embedding
        n = entry.twisted.rank
        for j in range(n):
            v = tuple(1 if i == j else 0 for i in range(n))
            assert emb.to_internal(emb.to_ambient(v)) == v


def test_su5_middle_orbit_flags_at_two():
    from twisted_satake.dual import fixed_group_descriptor, parse_profile

    desc = fixed_group_descriptor(preset("SU5"), parse_profile("Fl:2"))
    assert desc.quasi_reductive_nonreductive_at_2
