"""Transition structures for the four supported functor kinds.

A state of a model is mapped to one *transition value*: a Kripke pair
(propositions, successor set), a finitely supported multiset of states with
weights in the naturals extended by infinity, a finitely supported exact
rational probability distribution, or a monotone neighborhood system stored
as the antichain of its minimal sets.  Each kind is one subclass of
`FunctorValue`, which owns the kind's value-level rules; the module
functions (`base`, `relabel`, `values_equal`, `measure`, `integer_weights`,
`validate`) call into it.  All values are immutable and hash-canonical,
except that neighborhood values keep the minimal sets they were built from;
`values_equal` compares the denoted upward-closed families.  Listing every
value over a state set is left to `coalsim.generators`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .errors import KindMismatchError, ValidationError, as_text, shown

INF = float("inf")

KRIPKE = "kripke"
MULTISET = "multiset"
DISTRIBUTION = "distribution"
NEIGHBORHOOD = "neighborhood"


def state_key(x):
    # Deterministic sort key for state labels of any hashable type
    # (strings, ints, pairs); independent of PYTHONHASHSEED.
    return repr(x)


def state_list(raw, where: str) -> list:
    """A JSON list of state labels; a label is a string or a non-bool integer."""
    if not isinstance(raw, list):
        raise ValidationError(f"{where} must be a list of states, got {shown(raw)}")
    for s in raw:
        if type(s) is not str:
            check_state(s, where)
    return raw


def check_state(s, where: str) -> None:
    if not isinstance(s, (str, int)) or isinstance(s, bool):
        raise ValidationError(f"{where}: state {shown(s)} is not a string or an integer")


def string_list(raw, where: str) -> list:
    """A JSON list of strings: the atoms of a vocabulary or a state's props."""
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
        raise ValidationError(f"{where} must be a list of strings, got {shown(raw)}")
    return raw


class FunctorValue:
    """A transition value; its class owns its kind's rules.  Each kind's class
    has its `kind` name, `base()`, `relabel(f)` (KeyError on a state f does
    not map), `equals(u)` for a value of its class, `well_formed(carrier,
    atoms)` (does it pass every check of `validate`) with `problems(atoms)`
    (each failed check in words), and its JSON form, `from_json(raw)` and
    `to_json(label)`."""

    kind: str

    def equals(self, other) -> bool:
        return self == other


@dataclass(frozen=True)
class KripkeValue(FunctorValue):
    kind = KRIPKE
    props: frozenset
    succ: frozenset

    def base(self) -> frozenset:
        return self.succ

    def relabel(self, f) -> KripkeValue:
        return KripkeValue(self.props, frozenset([f[s] for s in self.succ]))

    def well_formed(self, carrier, atoms) -> bool:
        return self.succ <= carrier and self.props <= atoms

    def problems(self, atoms) -> list:
        bad = sorted(self.props - atoms)
        return [f"unknown atoms {shown(bad)}"] if bad else []

    @classmethod
    def from_json(cls, raw) -> KripkeValue:
        if not isinstance(raw, dict) or set(raw) - {"props", "succ"}:
            raise ValidationError(f"kripke value needs props/succ, got {shown(raw)}")
        props = string_list(raw.get("props", []), "props")
        return kripke_value(props, state_list(raw.get("succ", []), "succ"))

    def to_json(self, label: Callable) -> dict:
        return {"props": sorted(self.props), "succ": sorted((label(s) for s in self.succ), key=state_key)}


@dataclass(frozen=True)
class WeightedValue(FunctorValue):
    """Finite-support weight map; entries are (state, weight), each state once
    in `state_key` order, no zeros.  Each kind gives `_plus`, which adds two
    weights, `_zero`, the empty sum, `_json_weight`, one weight as JSON, and
    `_integer_row`, (den, row): the weights as naturals over den, by state in
    entry order, found once and kept on the value."""

    entries: tuple

    def base(self) -> frozenset:
        return frozenset([s for s, _ in self.entries])

    def relabel(self, f) -> WeightedValue:
        """Weights summed over fibres.  Sums of positive weights are positive,
        so the result is built without validating it again."""
        plus, acc = self._plus, {}
        for s, w in self.entries:
            k = f[s]
            acc[k] = plus(acc[k], w) if k in acc else w
        return type(self)(canonical_entries(acc))

    def measure(self, states):
        key, plus, total = frozenset(states), self._plus, self._zero
        for s, w in self.entries:
            if s in key:
                total = plus(total, w)
        return total

    def _order_problems(self) -> list:
        if _canonical(self.entries):
            return []
        states = [z for z, _ in self.entries]
        twice = [z for z in sorted(set(states), key=state_key) if states.count(z) > 1]
        return [f"lists {shown(twice)} more than once" if twice else "entries are not in state_key order"]

    def to_json(self, label: Callable) -> dict:
        return {"entries": [[label(s), self._json_weight(w)] for s, w in self.entries]}


@dataclass(frozen=True)
class MultisetValue(WeightedValue):
    """Weights are positive integers or INF, which absorbs every sum it enters."""

    kind = MULTISET
    _zero = 0

    @staticmethod
    def _plus(a, b):
        return INF if a == INF or b == INF else a + b

    @staticmethod
    def _json_weight(w):
        return "inf" if w == INF else w

    @cached_property
    def _integer_row(self) -> tuple:
        return 1, dict(self.entries)

    def well_formed(self, carrier, atoms) -> bool:
        for z, w in self.entries:
            if z not in carrier or not (type(w) is int and w > 0 or w == INF):
                return False
        return _canonical(self.entries)

    def problems(self, atoms) -> list:
        found = []
        for z, w in self.entries:
            if w == INF:
                continue
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                found.append(f"weight {shown(w)} for {shown(z)} is not a natural or infinity")
            elif w == 0:
                found.append(f"stores an explicit zero weight for {shown(z)}")
        return found + self._order_problems()

    @classmethod
    def from_json(cls, raw) -> MultisetValue:
        if not isinstance(raw, dict):
            raise ValidationError(f"multiset value must be a weight map, got {shown(raw)}")
        return cls(canonical_entries({s: w for s, a in raw.items() if (w := _parse_weight(a, s))}))


@dataclass(frozen=True)
class DistValue(WeightedValue):
    """Masses are positive Fractions summing to 1."""

    kind = DISTRIBUTION
    _zero = Fraction(0)
    _plus = staticmethod(operator.add)
    _json_weight = staticmethod(as_text)

    @cached_property
    def _integer_row(self) -> tuple:
        """The masses as naturals over the least common denominator of the value's own masses."""
        den = lcm(*[q.denominator for _, q in self.entries])
        return den, {z: q.numerator * (den // q.denominator) for z, q in self.entries}

    def well_formed(self, carrier, atoms) -> bool:
        for z, q in self.entries:
            if z not in carrier or type(q) is not Fraction or q.numerator <= 0:
                return False
        den, row = self._integer_row
        return sum(row.values()) == den and _canonical(self.entries)

    def problems(self, atoms) -> list:
        found, total = [], Fraction(0)
        for z, q in self.entries:
            if not isinstance(q, Fraction) or q <= 0:
                found.append(f"mass {shown(q)} for {shown(z)} is not a positive rational")
            else:
                total += q
        if total != 1:
            found.append(f"mass sum {as_text(total)} != 1")
        return found + self._order_problems()

    @classmethod
    def from_json(cls, raw) -> DistValue:
        if not isinstance(raw, dict):
            raise ValidationError(f"distribution value must be a mass map, got {shown(raw)}")
        return cls(canonical_entries({s: q for s, a in raw.items() if (q := _parse_mass(a, s))}))


@dataclass(frozen=True)
class NbhdValue(FunctorValue):
    """Upward-closed family of state sets, stored by its claimed minimal sets."""

    kind = NEIGHBORHOOD
    minimals: frozenset

    def contains(self, states) -> bool:
        a = frozenset(states)
        return any(m <= a for m in self.minimals)

    def base(self) -> frozenset:
        return frozenset().union(*self.minimals)

    def relabel(self, f) -> NbhdValue:
        """The family whose members are exactly the sets with preimage in the
        original: the minimized family of images of the original minimals."""
        return NbhdValue(antichain(frozenset([f[s] for s in m]) for m in self.minimals))

    def equals(self, other) -> bool:
        return antichain(self.minimals) == antichain(other.minimals)

    def well_formed(self, carrier, atoms) -> bool:
        return carrier.issuperset(chain.from_iterable(self.minimals)) and self.minimals == antichain(self.minimals)

    def problems(self, atoms) -> list:
        return [] if self.minimals == antichain(self.minimals) else ["minimal sets are not an antichain"]

    @classmethod
    def from_json(cls, raw) -> NbhdValue:
        if not isinstance(raw, dict) or set(raw) != {"minimals"}:
            raise ValidationError(f"neighborhood value needs minimals, got {shown(raw)}")
        if not isinstance(raw["minimals"], list):
            raise ValidationError(f"minimals must be a list of state lists, got {shown(raw)}")
        return nbhd_value(state_list(m, "minimal set") for m in raw["minimals"])

    def to_json(self, label: Callable) -> dict:
        minimals = (sorted((label(s) for s in m), key=state_key) for m in self.minimals)
        return {"minimals": sorted(minimals, key=state_key)}


# The one table of which value class belongs to which kind.
VALUE_TYPES = MappingProxyType({cls.kind: cls for cls in (KripkeValue, MultisetValue, DistValue, NbhdValue)})


@dataclass(frozen=True)
class FunctorKind:
    """One of the four supported functors; Kripke carries its atom vocabulary."""

    name: str
    atoms: tuple[str, ...] = ()

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name in VALUE_TYPES):
            raise ValidationError(f"unknown functor kind {self.name!r}")
        if self.atoms and self.name != KRIPKE:
            raise ValidationError(f"functor kind {self.name!r} carries no atom vocabulary")


def kripke_kind(atoms: Iterable[str] = ()) -> FunctorKind:
    return FunctorKind(KRIPKE, tuple(atoms))


MULTISET_KIND = FunctorKind(MULTISET)
DISTRIBUTION_KIND = FunctorKind(DISTRIBUTION)
NEIGHBORHOOD_KIND = FunctorKind(NEIGHBORHOOD)


def kripke_value(props: Iterable = (), succ: Iterable = ()) -> KripkeValue:
    return KripkeValue(frozenset(props), frozenset(succ))


def canonical_entries(weights: Mapping) -> tuple:
    """The one builder of canonical weighted entries: a map's items in `state_key` order."""
    return tuple(sorted(weights.items(), key=lambda kv: state_key(kv[0])))


def multiset_value(weights: Mapping) -> MultisetValue:
    cleaned = {}
    for s, w in weights.items():
        if w == INF:
            cleaned[s] = INF
            continue
        if not isinstance(w, int) or isinstance(w, bool):
            raise ValidationError(f"multiset weight for {s!r} must be a natural number or infinity, got {w!r}")
        if w < 0:
            raise ValidationError(f"multiset weight for {s!r} is negative")
        if w > 0:
            cleaned[s] = w
    return MultisetValue(canonical_entries(cleaned))


def dist_value(mass: Mapping) -> DistValue:
    cleaned = {}
    for s, q in mass.items():
        if type(q) is not Fraction:
            q = Fraction(q)
        if q.numerator < 0:  # a Fraction's sign is its numerator's
            raise ValidationError(f"distribution mass for {s!r} is negative")
        if q.numerator:
            cleaned[s] = q
    return DistValue(canonical_entries(cleaned))


def nbhd_value(minimals: Iterable[Iterable]) -> NbhdValue:
    return NbhdValue(frozenset(frozenset(m) for m in minimals))


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


def antichain(sets: Iterable[Iterable]) -> frozenset:
    """Minimal elements of a family of sets; canonical form of a neighborhood value."""
    family = {frozenset(s) for s in sets}
    if len(family) < 2:
        return frozenset(family)
    return frozenset(s for s in family if not any(t < s for t in family))


@dataclass(frozen=True)
class Coalgebra:
    """Finite carrier with a total transition map into values of one kind.

    The carrier keeps its given order; every listed output is reported in
    carrier order, which makes results reproducible byte for byte.  The
    transition map is copied into a read-only mapping, and a model hashes by
    its kind and carrier; equality still compares transitions.
    """

    kind: FunctorKind
    carrier: tuple
    transition: Mapping = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "carrier", tuple(self.carrier))
        object.__setattr__(self, "transition", MappingProxyType(dict(self.transition)))


def coalgebra(kind: FunctorKind, carrier: Iterable, transition: Mapping) -> Coalgebra:
    c = Coalgebra(kind, carrier, transition)
    validate(c)
    return c


def integer_weights(*values) -> tuple:
    """(den, rows): the weights of weighted values of one kind, as integers over den.

    Each row maps one value's states to its weights in entry order: its own
    integer row (multiset weights over 1, INF kept; masses over their own
    least common denominator), rescaled only when its denominator is not
    den, the least common multiple of them all.  So no multiset weight is
    rescaled.  Rows may be shared, so callers never change them.
    """
    own = [t._integer_row for t in values]
    den = lcm(*[d for d, _ in own])
    return den, [row if d == den else {z: w * (den // d) for z, w in row.items()} for d, row in own]


def _canonical(entries) -> bool:
    """Do weighted entries list each state once, in `state_key` order?"""
    last = ""  # below every key: no repr is empty
    for z, _ in entries:
        key = state_key(z)
        if key <= last:
            return False
        last = key
    return True


def _value_problems(c: Coalgebra, s, t, carrier: frozenset, atoms: frozenset) -> list:
    """Every problem of the transition value t of state s, in report order."""
    if not isinstance(t, FunctorValue):
        return [f"state {shown(s)}: transition value has unknown type {type(t).__name__}"]
    if t.kind != c.kind.name:
        return [f"state {shown(s)}: value kind {t.kind} does not match model kind {c.kind.name}"]
    stray = [z for z in sorted(t.base(), key=state_key) if z not in carrier]
    problems = [f"mentions states outside the carrier: {shown(stray)}"] if stray else []
    return [f"state {shown(s)}: {p}" for p in problems + t.problems(atoms)]


def validate(c: Coalgebra) -> None:
    """Check every structural invariant of a model; raise a full report on failure.

    Each transition value must be of the model kind's class and pass its
    `well_formed` check: base and atoms by subset tests, weights by type,
    masses as integers over their common denominator, and weighted entries
    that list each state once, in `state_key` order, which every sum over a
    value relies on.  Only a value that fails it is examined again, by
    `_value_problems`, to word its problems.
    """
    problems = []
    if not c.carrier:
        problems.append("carrier is empty")
    carrier = frozenset(c.carrier)
    if len(carrier) != len(c.carrier):
        seen = set()
        for s in c.carrier:
            if s in seen:
                problems.append(f"duplicate carrier state {shown(s)}")
            seen.add(s)
    for s in c.carrier:
        if s not in c.transition:
            problems.append(f"state {shown(s)} has no transition value")
    for s in c.transition:
        if s not in carrier:
            problems.append(f"transition defined on {shown(s)}, which is not in the carrier")
    cls = VALUE_TYPES[c.kind.name]
    atoms = frozenset(c.kind.atoms)
    for s in c.carrier:
        t = c.transition.get(s)
        if t is not None and not (type(t) is cls and t.well_formed(carrier, atoms)):
            problems += _value_problems(c, s, t, carrier, atoms)
    if problems:
        raise ValidationError(problems)


def _value(t) -> FunctorValue:
    """t itself when it is a transition value; KindMismatchError otherwise."""
    if isinstance(t, FunctorValue):
        return t
    raise KindMismatchError(f"not a transition value: {t!r}")


def base(t: FunctorValue) -> frozenset:
    """States a value can observe: successors, support, or union of minimals.

    Satisfaction of any supported modality depends only on the part of the
    tested set that meets this base, which is what makes all subset
    quantifications in this package finite.
    """
    return _value(t).base()


def predecessors(m: Coalgebra) -> dict:
    """Each state to the states whose values have it in their base, in carrier order."""
    pred = {s: [] for s in m.carrier}
    for s in m.carrier:
        for z in base(m.transition[s]):
            pred[z].append(s)
    return pred


def relabel(t: FunctorValue, f: Mapping) -> FunctorValue:
    """Push a value forward along a total state map (the functorial action).

    A state f does not map raises ValidationError naming every such state.
    """
    try:
        return _value(t).relabel(f)
    except KeyError:
        missing = sorted((s for s in t.base() if s not in f), key=state_key)
        raise ValidationError(f"relabel map is not defined on {shown(missing)}") from None


def values_equal(t: FunctorValue, u: FunctorValue) -> bool:
    """Equality of denoted behaviours; normalizes neighborhood representations."""
    if type(t) is not type(u):
        raise KindMismatchError(f"cannot compare {type(t).__name__} with {type(u).__name__}")
    return _value(t).equals(u)


def measure(t: WeightedValue, states) -> "int | float | Fraction":
    """Total weight or mass a multiset or distribution assigns to a set of states."""
    if not isinstance(t, WeightedValue):
        raise KindMismatchError(f"measure is not defined on {type(t).__name__}")
    return t.measure(states)
