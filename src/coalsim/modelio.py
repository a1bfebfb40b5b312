"""JSON formats for models, relations, and result artifacts.

Model files look like::

    {"functor": "kripke", "atoms": ["p"], "states": ["x", "y"],
     "transition": {"x": {"props": ["p"], "succ": ["y"]}, ...}}

with per-kind transition values: Kripke ``{"props": [...], "succ": [...]}``,
multiset ``{"state": weight-or-"inf", ...}``, distribution
``{"state": "n/d", ...}``, neighborhood ``{"minimals": [["a"], ["b", "c"]]}``.
Relation files are ``{"pairs": [["x", "y"], ...]}``.  Distributions whose
masses do not sum to one are rejected, never renormalized.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable

from .errors import ValidationError, as_text, shown
from .relations import Relation, relation
from .values import (
    DISTRIBUTION,
    INF,
    KRIPKE,
    MULTISET,
    NEIGHBORHOOD,
    Coalgebra,
    DistValue,
    FunctorKind,
    FunctorValue,
    KripkeValue,
    MultisetValue,
    NbhdValue,
    VALUE_TYPES,
    canonical_entries,
    coalgebra,
    kripke_kind,
    kripke_value,
    nbhd_value,
    state_key,
)

def _states(raw, where: str) -> list:
    """A JSON list of state labels; a label is a string or a non-bool integer."""
    if not isinstance(raw, list):
        raise ValidationError(f"{where} must be a list of states, got {shown(raw)}")
    for s in raw:
        if type(s) is not str:
            _check_state(s, where)
    return raw


def _check_state(s, where: str) -> None:
    if not isinstance(s, (str, int)) or isinstance(s, bool):
        raise ValidationError(f"{where}: state {shown(s)} is not a string or an integer")


def _strings(raw, where: str) -> list:
    """A JSON list of strings: the atoms of a vocabulary or a state's props."""
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
        raise ValidationError(f"{where} must be a list of strings, got {shown(raw)}")
    return raw


def _carrier_key(s):
    # Integers before strings, each in natural order; mixed carriers sort too.
    return (isinstance(s, str), s)


def _parse_weight(raw, state):
    if raw == "inf":
        return INF
    if isinstance(raw, int) and not isinstance(raw, bool) and raw >= 0:
        return raw
    raise ValidationError(f"weight for {shown(state)} must be a natural or \"inf\", got {shown(raw)}")


def _parse_mass(raw, state):
    if isinstance(raw, str):
        try:
            num, slash, den = raw.partition("/")
            if slash and num.isascii() and num.isdigit() and den.isascii() and den.isdigit():
                den = int(den)
                if den:  # "n/d" in ASCII digits: no parse of the whole string
                    return Fraction(int(num), den)
            _, e, exponent = raw.lower().partition("e")
            if e and abs(int(exponent)) > 4300:  # Python's default digit limit; 10**e is not built
                raise ValueError("exponent too large")
            q = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"mass for {shown(state)} is not a rational: {shown(raw)}") from exc
    elif isinstance(raw, int) and not isinstance(raw, bool):
        q = Fraction(raw)
    else:
        raise ValidationError(f"mass for {shown(state)} must be \"n/d\" or an integer, got {shown(raw)}")
    if q < 0:
        raise ValidationError(f"distribution mass for {shown(state)} is negative")
    return q


def value_from_json(kind_name: str, raw) -> FunctorValue:
    if kind_name == KRIPKE:
        if not isinstance(raw, dict) or set(raw) - {"props", "succ"}:
            raise ValidationError(f"kripke value needs props/succ, got {shown(raw)}")
        props = _strings(raw.get("props", []), "props")
        return kripke_value(props, _states(raw.get("succ", []), "succ"))
    if kind_name == MULTISET:
        if not isinstance(raw, dict):
            raise ValidationError(f"multiset value must be a weight map, got {shown(raw)}")
        return MultisetValue(canonical_entries({s: w for s, a in raw.items() if (w := _parse_weight(a, s))}))
    if kind_name == DISTRIBUTION:
        if not isinstance(raw, dict):
            raise ValidationError(f"distribution value must be a mass map, got {shown(raw)}")
        return DistValue(canonical_entries({s: q for s, a in raw.items() if (q := _parse_mass(a, s))}))
    if kind_name == NEIGHBORHOOD:
        if not isinstance(raw, dict) or set(raw) != {"minimals"}:
            raise ValidationError(f"neighborhood value needs minimals, got {shown(raw)}")
        if not isinstance(raw["minimals"], list):
            raise ValidationError(f"minimals must be a list of state lists, got {shown(raw)}")
        return nbhd_value(_states(m, "minimal set") for m in raw["minimals"])
    raise ValidationError(f"unknown functor {shown(kind_name)}")


def value_to_json(v: FunctorValue, label: Callable = str):
    """Serialize one transition value; `label` renders state names."""
    if isinstance(v, KripkeValue):
        return {
            "props": sorted(v.props),
            "succ": sorted((label(s) for s in v.succ), key=state_key),
        }
    if isinstance(v, MultisetValue):
        return {
            "entries": [
                [label(s), "inf" if w == INF else w] for s, w in v.entries
            ]
        }
    if isinstance(v, DistValue):
        return {"entries": [[label(s), as_text(q)] for s, q in v.entries]}
    if isinstance(v, NbhdValue):
        return {
            "minimals": sorted(
                (sorted((label(s) for s in m), key=state_key) for m in v.minimals),
                key=state_key,
            )
        }
    raise ValidationError(f"not a transition value: {v!r}")


def coalgebra_from_dict(doc: dict) -> Coalgebra:
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")
    for field in ("functor", "states", "transition"):
        if field not in doc:
            raise ValidationError(f"model document misses the {field!r} field")
    name = doc["functor"]
    if not (isinstance(name, str) and name in VALUE_TYPES):
        raise ValidationError(f"unknown functor {shown(name)}")
    if name == KRIPKE:
        kind = kripke_kind(_strings(doc.get("atoms", []), "atoms"))
    elif "atoms" in doc:
        raise ValidationError(f"functor {shown(name)} takes no atom vocabulary")
    else:
        kind = FunctorKind(name)
    states = _states(doc["states"], "states")
    transition = doc["transition"]
    if not isinstance(transition, dict):
        raise ValidationError("transition must map states to values")
    values = {s: value_from_json(name, raw) for s, raw in transition.items()}
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
        _check_state(raw[0], "relation pair")
        _check_state(raw[1], "relation pair")
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
