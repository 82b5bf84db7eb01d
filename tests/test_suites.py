"""Every preset passes every verification suite within the default bounds."""

import pytest

from twisted_satake.coweights import _has_invariant_central_direction, enumerate_dominant_classes
from twisted_satake.galois import DiagramAutomorphism, TwistedRootDatum, split_twisted
from twisted_satake.presets import default_presets, preset
from twisted_satake.rootdatum import BasedRootDatum, dualize
from twisted_satake.satake import component_of, format_class, parity_check
from twisted_satake.suites import SUITE_NAMES, CheckResult, run_suite


def test_every_preset_passes_all_suites():
    failures = []
    for name, entry in default_presets():
        for result in run_suite(entry.twisted, "all"):
            if not result.passed:
                failures.append((name, result.suite, result.name, result.detail))
    assert not failures, failures


def test_suite_names_cover_cli_choices():
    assert set(SUITE_NAMES) == {"exactness", "orbits", "parity", "weyl-oracle", "branching"}


@pytest.mark.parametrize("name, kwargs", [("SU3", {}), ("torus-rank-2", {"coord_bound": 4})])
def test_parity_suite_equals_per_component_checks(name, kwargs):
    t = preset(name)
    components = sorted({component_of(t, cls) for cls in enumerate_dominant_classes(t, 20, **kwargs)})
    expected = [
        CheckResult("parity", f"component-{format_class(comp)}", True,
                    detail=f"parity {parity_check(t, comp, 20, **kwargs)}")
        for comp in components
    ]
    assert expected
    assert run_suite(t, "parity") == expected


def test_weyl_oracle_suite_passes_on_su7():
    # The brute-force |W^I| oracle left the request path; the suite keeps it.
    records = run_suite(preset("SU7"), "weyl-oracle")
    assert [r for r in records if not r.passed] == []
    oracle = next(r for r in records if r.name == "relative-order-equals-fixed-subgroup")
    assert oracle.detail == "|W0| = 48, |W^I| = 48"


def _rotated(simple_roots, simple_coroots, lattice_map):
    base = BasedRootDatum.make(len(lattice_map), simple_roots, simple_coroots)
    rotation = DiagramAutomorphism.make(lattice_map, tuple(range(len(simple_roots))))
    return TwistedRootDatum.make(base, (rotation,))


# A rank-2 torus rotated by an automorphism of order 6, bare and times SL2:
# X_*(T)_I has no invariant central direction, while the dual base, whose
# dominant coweights the branching suite samples, has central directions.
ROTATED_TORI = {
    "T2-rot6": lambda: _rotated([], [], [[1, -1], [1, 0]]),
    "SL2xT2-rot6": lambda: _rotated([(2, 0, 0)], [(1, 0, 0)],
                                    [[1, 0, 0], [0, 1, -1], [0, 1, 0]]),
}


@pytest.mark.parametrize("name", ROTATED_TORI)
def test_branching_suite_boxes_the_dual_base_it_enumerates(name):
    """The box is decided by the datum enumerated, the dual base's split
    form, not by t."""
    t = ROTATED_TORI[name]()
    assert not _has_invariant_central_direction(t)
    assert _has_invariant_central_direction(split_twisted(dualize(t.base)))
    records = run_suite(t, "branching")
    assert [r.name for r in records] == ["conservation-and-reconstruction"]
    assert all(r.passed for r in records), records
