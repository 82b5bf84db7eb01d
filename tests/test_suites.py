"""Every preset passes every verification suite within the default bounds."""

import pytest

from twisted_satake.coweights import enumerate_dominant_classes
from twisted_satake.presets import default_presets, preset
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
