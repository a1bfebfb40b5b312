import json
import random
import re
from fractions import Fraction

import pytest

import coalsim.modelio as modelio
from coalsim import ValidationError, validate
from coalsim.modelio import (
    coalgebra_from_dict,
    coalgebra_to_dict,
    dump_json,
    relation_from_dict,
    relation_to_dict,
    value_from_json,
)
from coalsim.values import (
    DISTRIBUTION_KIND,
    INF,
    MULTISET_KIND,
    NEIGHBORHOOD_KIND,
    Coalgebra,
    DistValue,
    KripkeValue,
    MultisetValue,
    NbhdValue,
    kripke_kind,
)

from oracle_helpers import coalgebra_from_dict_reference, validate_reference

KRIPKE_DOC = {
    "functor": "kripke",
    "atoms": ["p"],
    "states": ["x", "y"],
    "transition": {
        "x": {"props": ["p"], "succ": ["x", "y"]},
        "y": {"props": [], "succ": []},
    },
}


def test_kripke_round_trip():
    c = coalgebra_from_dict(KRIPKE_DOC)
    assert coalgebra_to_dict(c) == KRIPKE_DOC


def test_multiset_round_trip_with_infinity():
    doc = {
        "functor": "multiset",
        "states": ["u", "v"],
        "transition": {"u": {"u": 2, "v": "inf"}, "v": {}},
    }
    c = coalgebra_from_dict(doc)
    assert dict(c.transition["u"].entries)["v"] == INF
    assert coalgebra_to_dict(c) == doc


def test_distribution_round_trip_exact():
    doc = {
        "functor": "distribution",
        "states": ["a", "b"],
        "transition": {"a": {"a": "1/3", "b": "2/3"}, "b": {"b": "1"}},
    }
    c = coalgebra_from_dict(doc)
    assert dict(c.transition["a"].entries)["a"] == Fraction(1, 3)
    assert coalgebra_to_dict(c)["transition"]["a"] == {"a": "1/3", "b": "2/3"}


def test_distribution_bad_mass_rejected_not_normalized():
    doc = {
        "functor": "distribution",
        "states": ["a"],
        "transition": {"a": {"a": "1/2"}},
    }
    with pytest.raises(ValidationError, match="mass sum"):
        coalgebra_from_dict(doc)


def test_neighborhood_round_trip():
    doc = {
        "functor": "neighborhood",
        "states": ["a", "b"],
        "transition": {"a": {"minimals": [["a"], ["b"]]}, "b": {"minimals": []}},
    }
    c = coalgebra_from_dict(doc)
    assert coalgebra_to_dict(c) == doc


def test_unknown_functor_and_missing_fields():
    with pytest.raises(ValidationError):
        coalgebra_from_dict({"functor": "magic", "states": [], "transition": {}})
    with pytest.raises(ValidationError):
        coalgebra_from_dict({"states": [], "transition": {}})
    with pytest.raises(ValidationError):
        value_from_json("kripke", {"props": [], "succ": [], "extra": 1})


def test_mass_exponents_are_bounded_before_any_fraction_is_built(monkeypatch):
    built = []
    real = modelio.Fraction

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(modelio, "Fraction", spy)
    for raw in ("1e10000000", "1e100000", "1E-4301", "5e+99999999999999999999", "0e4301"):
        with pytest.raises(ValidationError, match=re.escape(f"mass for 'a' is not a rational: {raw!r}")):
            modelio._parse_mass(raw, "a")
    assert built == []
    assert modelio._parse_mass("25e-2", "a") == Fraction(1, 4)
    assert modelio._parse_mass("1E4300", "a") == 10**4300


def test_relation_documents():
    c = coalgebra_from_dict(KRIPKE_DOC)
    rel = relation_from_dict({"pairs": [["x", "y"], ["y", "y"]]}, c, c)
    assert rel.pairs == {("x", "y"), ("y", "y")}
    assert relation_to_dict(rel) == {"pairs": [["x", "y"], ["y", "y"]]}
    with pytest.raises(ValidationError):
        relation_from_dict({"pairs": [["x", "zz"]]}, c, c)
    bare = relation_from_dict({"pairs": [["a", "b"]]})
    assert bare.pairs == {("a", "b")}


def test_dump_json_is_canonical():
    text = dump_json({"b": 1, "a": [2, 1]})
    assert text == '{"a": [2, 1], "b": 1}\n'
    assert json.loads(text) == {"a": [2, 1], "b": 1}


ODD_MASSES = ["1/0", " 1/2", "0.5", "+1/2", "1_0/30", "\u0663/4", "\u00b2/4", "1" * 5000 + "/3",
              "-1/2", "0/3", "2/4", "007/8", "1/00", "x", "", "1/2/3", 1, 0, -1, 0.5, True, None, ["1/2"]]
ODD_WEIGHTS = [0, -1, "inf", "Inf", 2.5, True, "3", None, [1], 10**30]
ODD_LABELS = [7, True, 1.5, ["a"], None, {"a": 1}]


def _document(rng, trial):
    """A model document in JSON types; most trials break it in one or more ways."""
    functor = ("kripke", "multiset", "distribution", "neighborhood")[trial % 4]
    bad = rng.random() < 0.8
    states = [f"s{i}" for i in range(rng.randint(1, 14 if trial % 9 == 0 else 5))]

    def maybe(p):
        return bad and rng.random() < p

    def some(pool):
        return rng.sample(pool, rng.randint(0, len(pool)))

    def value():
        if functor == "kripke":
            props = some(["p", "q"]) + (["zz"] if maybe(0.2) else [])
            succ = some(states) + (["ghost"] if maybe(0.15) else [])
            raw = {"props": props, "succ": succ}
            if maybe(0.05):
                raw["extra"] = 1
            return raw
        if functor == "multiset":
            raw = {s: rng.randint(1, 5) for s in some(states)}
            for s in raw:
                if maybe(0.15):
                    raw[s] = rng.choice(ODD_WEIGHTS)
            if maybe(0.1):
                raw["ghost"] = 1
            return raw
        if functor == "distribution":
            support = some(states) or states[:1]
            den = rng.randint(len(support), max(12, len(support)))
            cuts = sorted(rng.sample(range(1, den), len(support) - 1))
            parts = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
            raw = {s: f"{p}/{den}" for s, p in zip(support, parts)}
            for s in raw:
                if maybe(0.15):
                    raw[s] = rng.choice(ODD_MASSES)
                elif maybe(0.1):
                    raw[s] = f"{rng.randint(0, 9)}/{rng.randint(1, 9)}"  # the sum leaves 1
            if maybe(0.05):
                raw["ghost"] = "0/1"
            return raw
        minimals = [some(states) for _ in range(rng.randint(0, 3))]
        if maybe(0.2) and minimals:
            minimals.append(minimals[0] + [s for s in states if s not in minimals[0]][:1])
        if maybe(0.1):
            minimals.append(["ghost"])
        return {"minimals": minimals}

    doc = {"functor": functor, "states": list(states),
           "transition": {s: value() for s in states}}
    if functor == "kripke":
        doc["atoms"] = ["p", "q"]
    if maybe(0.1):
        doc["states"].append(rng.choice(states))
    if maybe(0.1):
        doc["states"].append(rng.choice(ODD_LABELS))
    if maybe(0.1):
        doc["states"][0] = rng.randint(0, 3)  # an integer label, which no JSON key matches
    if maybe(0.1):
        del doc["transition"][rng.choice(states)]
    if trial % 9 == 0 and maybe(0.5):
        doc["states"] += [f"bare{i}" for i in range(rng.randint(8, 12))]  # over ten problems
    if maybe(0.1):
        doc["transition"]["ghost"] = value()
    if maybe(0.03):
        del doc[rng.choice(["functor", "states", "transition"])]
    if maybe(0.03):
        doc["atoms"] = ["p"] if functor != "kripke" else [1]
    return doc


def _outcome(load, arg):
    try:
        return repr(load(arg))
    except Exception as exc:  # the type, the message and every problem must agree
        return type(exc), str(exc), getattr(exc, "violations", None)


def test_loader_matches_the_first_loader_value_for_value():
    """Same model, or same error, message and problem list, as the loader that
    validated every value with its full problem report."""
    rng = random.Random(83)
    seen = {"loaded": 0, "rejected": 0, "more problems": 0, "not a rational": 0,
            "must be a natural": 0, "mass sum": 0, "antichain": 0, "outside the carrier": 0,
            "unknown atoms": 0, "duplicate": 0, "no transition": 0, "not a string": 0}
    for trial in range(2400):
        doc = _document(rng, trial)
        got = _outcome(coalgebra_from_dict, doc)
        assert got == _outcome(coalgebra_from_dict_reference, doc), doc
        if isinstance(got, str):
            seen["loaded"] += 1
            continue
        seen["rejected"] += 1
        for key in seen:
            seen[key] += key in got[1]
    assert min(seen.values()) >= 20, seen


def test_validate_matches_the_first_validate_on_hand_built_models():
    """Values built without their constructors' checks: wrong types, zeros,
    strays, wrong kinds, empty and duplicate carriers."""
    rng = random.Random(89)
    kinds = [kripke_kind(("p",)), MULTISET_KIND, DISTRIBUTION_KIND, NEIGHBORHOOD_KIND]
    weights = [1, 2, 0, -1, True, 2.0, Fraction(1, 2), INF, float("inf"), -INF, "1"]
    masses = [Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(-1, 2), 0.5, 1, Fraction(1), "1/2"]
    rejected = 0
    for trial in range(1500):
        kind = kinds[trial % 4]
        carrier = [f"s{i}" for i in range(rng.randint(0, 4))] + ["s0"] * (rng.random() < 0.1)
        pool = carrier + ["ghost"] * (rng.random() < 0.2)

        def some():
            return rng.sample(pool, rng.randint(0, len(pool))) if pool else []

        def value():
            which = kind.name if rng.random() < 0.9 else rng.choice(kinds).name
            if rng.random() < 0.03:
                return "not a value"
            if which == "kripke":
                return KripkeValue(frozenset(["p"] * (rng.random() < 0.5) + ["q"] * (rng.random() < 0.1)),
                                   frozenset(some()))
            if which == "multiset":
                return MultisetValue(tuple((s, rng.choice(weights[:2] * 6 + weights)) for s in some()))
            if which == "distribution":
                support = some()
                if rng.random() < 0.6 and support:
                    share = Fraction(1, len(support))
                    return DistValue(tuple((s, share) for s in support))
                return DistValue(tuple((s, rng.choice(masses)) for s in support))
            minimals = [frozenset(some()) for _ in range(rng.randint(0, 3))]
            return NbhdValue(frozenset(minimals))

        transition = {s: value() for s in carrier if rng.random() < 0.95}
        if rng.random() < 0.1:
            transition["ghost"] = value()
        c = Coalgebra(kind, carrier, transition)
        got = _outcome(validate, c)
        assert got == _outcome(validate_reference, c), c
        rejected += got != "None"
    assert 300 < rejected < 1400
