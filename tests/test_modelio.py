import json
from fractions import Fraction

import pytest

from coalsim import ValidationError
from coalsim.modelio import (
    coalgebra_from_dict,
    coalgebra_to_dict,
    dump_json,
    relation_from_dict,
    relation_to_dict,
    value_from_json,
)
from coalsim.values import INF

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
