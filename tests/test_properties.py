import os
import pathlib
import subprocess
import sys

import pytest

import coalsim
from coalsim import ValidationError
from coalsim.properties import PROPERTIES, run_property_suite, theorem_matrix

SOURCE = pathlib.Path(coalsim.__file__).parent


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


def _oracle_satisfies_calls(hashseed: str) -> int:
    """`satisfies` calls of the brute-force oracle over a fixed oracle-agreement batch."""
    code = (
        "from coalsim import oracles; from coalsim.properties import run_property_suite\n"
        "calls = 0\n"
        "def counted(*args):\n"
        "    global calls\n"
        "    calls += 1\n"
        "    return satisfies(*args)\n"
        "satisfies, oracles.satisfies = oracles.satisfies, counted\n"
        "for seed in range(4):\n"
        "    assert run_property_suite('oracle-agreement', 10, 1000 * seed).passed\n"
        "print(calls)\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(SOURCE.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return int(out.stdout)


def test_oracle_cost_does_not_depend_on_the_hash_seed():
    """The oracle walks a relation's pairs in carrier order, so its early exit
    makes the same number of `satisfies` calls in every process."""
    calls = {seed: _oracle_satisfies_calls(seed) for seed in ("0", "3")}
    assert calls["0"] == calls["3"] > 0, calls


def test_preorder_property_orders_each_pair_of_values_once(monkeypatch):
    from coalsim import properties

    calls = []

    def counted(t, u, sig):
        calls.append((t, u))
        return lambda_leq(t, u, sig)

    lambda_leq = properties.lambda_leq
    monkeypatch.setattr(properties, "lambda_leq", counted)
    for trial in range(12):
        calls.clear()
        assert properties._prop_preorder(trial, 5) is None
        _, c, d = properties._models(5 + trial, properties.KIND_POOL[trial % 4], max_states=4)
        assert len(calls) == (len(c.carrier) + len(d.carrier)) ** 2, trial


def test_preorder_property_reports_the_broken_law(monkeypatch):
    from coalsim import properties

    seen = {}

    def next_only(t, u, sig):
        """Reflexive, and each value below the next one seen: not transitive on three values."""
        i, j = (seen.setdefault(id(v), len(seen)) for v in (t, u))
        return j - i in (0, 1)

    monkeypatch.setattr(properties, "lambda_leq", next_only)
    found = properties._prop_preorder(0, 5)
    assert len(seen) >= 3 and found["law"] == "transitivity"
    monkeypatch.setattr(properties, "lambda_leq", lambda t, u, sig: t is not u)
    assert properties._prop_preorder(0, 5)["law"] == "reflexivity"
