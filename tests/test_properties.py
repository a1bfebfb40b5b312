import pytest

from coalsim import ValidationError
from coalsim.properties import PROPERTIES, run_property_suite, theorem_matrix


def test_registry_and_manifest_are_in_sync():
    manifest = theorem_matrix()
    assert {e["property"] for e in manifest} == set(PROPERTIES)
    for entry in manifest:
        assert entry["claim"] == PROPERTIES[entry["property"]].statement


def test_unknown_property_is_rejected():
    with pytest.raises(ValidationError, match="unknown property"):
        run_property_suite("nope", 1, 0)


def test_reports_are_reproducible():
    a = run_property_suite("prop-difunctional", 25, 99)
    b = run_property_suite("prop-difunctional", 25, 99)
    assert a.counterexamples == b.counterexamples
    assert a.trials == b.trials == 25


def test_every_asserting_property_passes_a_smoke_run():
    for name, spec in sorted(PROPERTIES.items()):
        report = run_property_suite(name, 25, 2024)
        if spec.asserting:
            assert report.passed, (name, report.counterexamples[:1])


def test_search_property_is_flagged_non_asserting():
    assert not PROPERTIES["open-problem-search"].asserting
