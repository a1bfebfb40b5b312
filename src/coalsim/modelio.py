"""JSON formats for models, relations, and result artifacts.

Model files look like::

    {"functor": "kripke", "atoms": ["p"], "states": ["x", "y"],
     "transition": {"x": {"props": ["p"], "succ": ["y"]}, ...}}

with per-kind transition values: Kripke ``{"props": [...], "succ": [...]}``,
multiset ``{"state": weight-or-"inf", ...}``, distribution
``{"state": "n/d", ...}``, neighborhood ``{"minimals": [["a"], ["b", "c"]]}``.
Each value is read and written by its class in `coalsim.values`
(`from_json`, `to_json`), which the model loader looks up once per model.
Relation files are ``{"pairs": [["x", "y"], ...]}``.  Distributions whose
masses do not sum to one are rejected, never renormalized.
"""

from __future__ import annotations

import json
from typing import Callable

from .errors import ValidationError, as_text, shown
from .relations import Relation, relation
from .values import (
    KRIPKE,
    Coalgebra,
    FunctorKind,
    FunctorValue,
    VALUE_TYPES,
    check_state,
    coalgebra,
    kripke_kind,
    state_list,
    string_list,
)


def _carrier_key(s):
    # Integers before strings, each in natural order; mixed carriers sort too.
    return (isinstance(s, str), s)


def _value_class(name) -> type:
    """The value class of a functor named in a document."""
    if not (isinstance(name, str) and name in VALUE_TYPES):
        raise ValidationError(f"unknown functor {shown(name)}")
    return VALUE_TYPES[name]


def value_from_json(kind_name: str, raw) -> FunctorValue:
    return _value_class(kind_name).from_json(raw)


def value_to_json(v: FunctorValue, label: Callable = str):
    """Serialize one transition value; `label` renders state names."""
    if not isinstance(v, FunctorValue):
        raise ValidationError(f"not a transition value: {v!r}")
    return v.to_json(label)


def coalgebra_from_dict(doc: dict) -> Coalgebra:
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")
    for field in ("functor", "states", "transition"):
        if field not in doc:
            raise ValidationError(f"model document misses the {field!r} field")
    name = doc["functor"]
    cls = _value_class(name)
    if name == KRIPKE:
        kind = kripke_kind(string_list(doc.get("atoms", []), "atoms"))
    elif "atoms" in doc:
        raise ValidationError(f"functor {shown(name)} takes no atom vocabulary")
    else:
        kind = FunctorKind(name)
    states = state_list(doc["states"], "states")
    transition = doc["transition"]
    if not isinstance(transition, dict):
        raise ValidationError("transition must map states to values")
    values = {s: cls.from_json(raw) for s, raw in transition.items()}
    return coalgebra(kind, states, values)


def coalgebra_to_dict(c: Coalgebra) -> dict:
    """The model document of c: values as `value_to_json` gives them, weighted entries as maps."""
    doc = {"functor": c.kind.name, "states": list(c.carrier)}
    if c.kind.name == KRIPKE:
        doc["atoms"] = list(c.kind.atoms)
    doc["transition"] = {}
    for s in c.carrier:
        raw = value_to_json(c.transition[s], label=lambda z: z)
        doc["transition"][s] = dict(raw["entries"]) if "entries" in raw else raw
    return doc


def _read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
        except ValueError as exc:  # bad syntax, or an integer too long to convert
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc


def load_coalgebra(path: str) -> Coalgebra:
    return coalgebra_from_dict(_read_json(path))


def relation_from_dict(doc: dict, c: Coalgebra = None, d: Coalgebra = None) -> Relation:
    if not isinstance(doc, dict) or not isinstance(doc.get("pairs"), list):
        raise ValidationError("relation document needs a \"pairs\" list")
    pairs = []
    for raw in doc["pairs"]:
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ValidationError(f"relation pair must be a two-element list, got {shown(raw)}")
        check_state(raw[0], "relation pair")
        check_state(raw[1], "relation pair")
        pairs.append((raw[0], raw[1]))
    if c is not None and d is not None:
        return relation(c.carrier, d.carrier, pairs)
    left = sorted({p[0] for p in pairs}, key=_carrier_key)
    right = sorted({p[1] for p in pairs}, key=_carrier_key)
    return relation(left, right, pairs)


def load_relation(path: str, c: Coalgebra = None, d: Coalgebra = None) -> Relation:
    return relation_from_dict(_read_json(path), c, d)


def relation_to_dict(s: Relation) -> dict:
    return {"pairs": [[x, y] for x, y in s.sorted_pairs()]}


def dump_json(doc) -> str:
    """Canonical JSON text: sorted keys, stable separators, trailing newline."""
    return as_text(doc, lambda d: json.dumps(d, sort_keys=True, separators=(", ", ": "))) + "\n"
