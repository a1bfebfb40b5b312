"""Transition structures for the four supported functor kinds.

A state of a model is mapped to one *transition value*: a Kripke pair
(propositions, successor set), a finitely supported multiset of states with
weights in the naturals extended by infinity, a finitely supported exact
rational probability distribution, or a monotone neighborhood system stored
as the antichain of its minimal sets.  All values are immutable and
hash-canonical, except that neighborhood values keep the minimal sets they
were built from; `values_equal` compares the denoted upward-closed families.
Listing every value over a state set is left to `coalsim.generators`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from types import MappingProxyType
from typing import Iterable, Mapping

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


@dataclass(frozen=True)
class KripkeValue:
    props: frozenset
    succ: frozenset


@dataclass(frozen=True)
class MultisetValue:
    """Finite-support weight map; entries are (state, weight), each state once
    in `state_key` order, no zeros."""

    entries: tuple


@dataclass(frozen=True)
class DistValue:
    """Finite-support probability mass map; entries are (state, Fraction), each
    state once in `state_key` order, no zeros."""

    entries: tuple


@dataclass(frozen=True)
class NbhdValue:
    """Upward-closed family of state sets, stored by its claimed minimal sets."""

    minimals: frozenset

    def contains(self, states) -> bool:
        a = frozenset(states)
        return any(m <= a for m in self.minimals)


FunctorValue = KripkeValue | MultisetValue | DistValue | NbhdValue

# The one table of which value class belongs to which kind.
VALUE_TYPES = MappingProxyType(
    {KRIPKE: KripkeValue, MULTISET: MultisetValue, DISTRIBUTION: DistValue, NEIGHBORHOOD: NbhdValue}
)


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


def _kripke_ok(t, carrier, atoms) -> bool:
    return type(t) is KripkeValue and t.succ <= carrier and t.props <= atoms


def integer_weights(*values) -> tuple:
    """(den, rows): the weights of weighted values of one kind, as integers over den.

    Each row maps one value's states to its weights, in entry order.
    Multiset weights are integers already: den is 1 and a row holds the
    weights as they are, INF kept.  Distribution masses are scaled to
    integers over den, the least common denominator of all the given
    values' masses.  The kind is read once, off the first value, so no
    distribution mass is ever compared with INF.  Each value's own row is
    computed once and kept on the value; a row is rescaled only when its
    denominator is not den.  Rows may be shared, so callers never change
    them.
    """
    if not values or type(values[0]) is MultisetValue:
        return 1, [_integer_row(t)[1] for t in values]
    own = [_integer_row(t) for t in values]
    den = lcm(*[d for d, _ in own])
    return den, [row if d == den else {z: w * (den // d) for z, w in row.items()} for d, row in own]


def _integer_row(t) -> tuple:
    """(den, row) of one weighted value: its weights as they are over 1, or its
    masses as naturals over the least common denominator of its own masses.
    Found once, and kept in the value's `__dict__`, outside its fields."""
    row = t.__dict__.get("_integer_row")
    if row is None:
        if type(t) is MultisetValue:
            row = 1, dict(t.entries)
        else:
            den = lcm(*[q.denominator for _, q in t.entries])
            row = den, {z: q.numerator * (den // q.denominator) for z, q in t.entries}
        t.__dict__["_integer_row"] = row
    return row


def _canonical(entries) -> bool:
    """Do weighted entries list each state once, in `state_key` order?"""
    last = ""  # below every key: no repr is empty
    for z, _ in entries:
        key = state_key(z)
        if key <= last:
            return False
        last = key
    return True


def _multiset_ok(t, carrier, atoms) -> bool:
    if type(t) is not MultisetValue:
        return False
    for z, w in t.entries:
        if z not in carrier or not (type(w) is int and w > 0 or w == INF):
            return False
    return _canonical(t.entries)


def _dist_ok(t, carrier, atoms) -> bool:
    if type(t) is not DistValue:
        return False
    for z, q in t.entries:
        if z not in carrier or type(q) is not Fraction or q.numerator <= 0:
            return False
    den, (row,) = integer_weights(t)
    return sum(row.values()) == den and _canonical(t.entries)


def _nbhd_ok(t, carrier, atoms) -> bool:
    return (
        type(t) is NbhdValue
        and carrier.issuperset(chain.from_iterable(t.minimals))
        and t.minimals == antichain(t.minimals)
    )


# One predicate per kind: does a transition value pass every check of `validate`?
_VALUE_OK = {KRIPKE: _kripke_ok, MULTISET: _multiset_ok, DISTRIBUTION: _dist_ok, NEIGHBORHOOD: _nbhd_ok}


def _value_problems(c: Coalgebra, s, t, carrier: frozenset) -> list:
    """Every problem of the transition value t of state s, in report order."""
    problems = []
    vk = next((k for k, cls in VALUE_TYPES.items() if isinstance(t, cls)), None)
    if vk is None:
        return [f"state {shown(s)}: transition value has unknown type {type(t).__name__}"]
    if vk != c.kind.name:
        return [f"state {shown(s)}: value kind {vk} does not match model kind {c.kind.name}"]
    observed = base(t)
    if not observed <= carrier:
        stray = [z for z in sorted(observed, key=state_key) if z not in carrier]
        problems.append(f"state {shown(s)}: mentions states outside the carrier: {shown(stray)}")
    if isinstance(t, KripkeValue):
        bad = sorted(t.props - set(c.kind.atoms))
        if bad:
            problems.append(f"state {shown(s)}: unknown atoms {shown(bad)}")
    elif isinstance(t, MultisetValue):
        for z, w in t.entries:
            if w == INF:
                continue
            if not isinstance(w, int) or isinstance(w, bool) or w < 0:
                problems.append(f"state {shown(s)}: weight {shown(w)} for {shown(z)} is not a natural or infinity")
            elif w == 0:
                problems.append(f"state {shown(s)}: stores an explicit zero weight for {shown(z)}")
    elif isinstance(t, DistValue):
        total = Fraction(0)
        for z, q in t.entries:
            if not isinstance(q, Fraction) or q <= 0:
                problems.append(f"state {shown(s)}: mass {shown(q)} for {shown(z)} is not a positive rational")
            else:
                total += q
        if total != 1:
            problems.append(f"state {shown(s)}: mass sum {as_text(total)} != 1")
    elif isinstance(t, NbhdValue):
        if t.minimals != antichain(t.minimals):
            problems.append(f"state {shown(s)}: minimal sets are not an antichain")
    if isinstance(t, (MultisetValue, DistValue)) and not _canonical(t.entries):
        states = [z for z, _ in t.entries]
        twice = [z for z in sorted(set(states), key=state_key) if states.count(z) > 1]
        if twice:
            problems.append(f"state {shown(s)}: lists {shown(twice)} more than once")
        else:
            problems.append(f"state {shown(s)}: entries are not in state_key order")
    return problems


def validate(c: Coalgebra) -> None:
    """Check every structural invariant of a model; raise a full report on failure.

    Each transition value passes one predicate of its kind, which checks
    its base and atoms by subset tests, its weights by type, its masses as
    integers over their common denominator (`integer_weights`), and that
    weighted entries list each state once, in `state_key` order, which
    every sum over a value relies on.  Only a value that fails it
    is examined again, by `_value_problems`, to word its problems.
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
    ok = _VALUE_OK[c.kind.name]
    atoms = frozenset(c.kind.atoms)
    for s in c.carrier:
        t = c.transition.get(s)
        if t is not None and not ok(t, carrier, atoms):
            problems += _value_problems(c, s, t, carrier)
    if problems:
        raise ValidationError(problems)


def base(t: FunctorValue) -> frozenset:
    """States a value can observe: successors, support, or union of minimals.

    Satisfaction of any supported modality depends only on the part of the
    tested set that meets this base, which is what makes all subset
    quantifications in this package finite.
    """
    if isinstance(t, KripkeValue):
        return t.succ
    if isinstance(t, (MultisetValue, DistValue)):
        return frozenset(s for s, _ in t.entries)
    if isinstance(t, NbhdValue):
        return frozenset().union(*t.minimals)
    raise KindMismatchError(f"not a transition value: {t!r}")


def predecessors(m: Coalgebra) -> dict:
    """Each state to the states whose values have it in their base, in carrier order."""
    pred = {s: [] for s in m.carrier}
    for s in m.carrier:
        for z in base(m.transition[s]):
            pred[z].append(s)
    return pred


def relabel(t: FunctorValue, f: Mapping) -> FunctorValue:
    """Push a value forward along a total state map (the functorial action).

    Kripke successors take the image, weights and masses are summed over
    fibers (infinity absorbs), and a neighborhood family maps to the family
    whose members are exactly the sets with preimage in the original; its
    antichain is the minimized family of images of the original minimals.
    Sums of a value's positive weights or masses are positive, so the
    weighted results are built without validating them again.
    """
    try:
        if isinstance(t, KripkeValue):
            return KripkeValue(t.props, frozenset([f[s] for s in t.succ]))
        if isinstance(t, MultisetValue):
            acc = {}
            for s, w in t.entries:
                k = f[s]
                prev = acc.get(k, 0)
                acc[k] = INF if (prev == INF or w == INF) else prev + w
            return MultisetValue(canonical_entries(acc))
        if isinstance(t, DistValue):
            acc = {}
            for s, q in t.entries:
                k = f[s]
                acc[k] = acc[k] + q if k in acc else q
            return DistValue(canonical_entries(acc))
        if isinstance(t, NbhdValue):
            return NbhdValue(antichain(frozenset([f[s] for s in m]) for m in t.minimals))
    except KeyError:
        missing = [s for s in base(t) if s not in f]
        raise ValidationError(
            f"relabel map is not defined on {shown(sorted(missing, key=state_key))}"
        ) from None
    raise KindMismatchError(f"not a transition value: {t!r}")


def values_equal(t: FunctorValue, u: FunctorValue) -> bool:
    """Equality of denoted behaviours; normalizes neighborhood representations."""
    if type(t) is not type(u):
        raise KindMismatchError(f"cannot compare {type(t).__name__} with {type(u).__name__}")
    if isinstance(t, NbhdValue):
        return antichain(t.minimals) == antichain(u.minimals)
    return t == u


def measure(t: MultisetValue | DistValue, states) -> "int | float | Fraction":
    """Total weight or mass a value assigns to a set of states."""
    key = frozenset(states)
    if isinstance(t, DistValue):
        return sum((q for s, q in t.entries if s in key), Fraction(0))
    total = 0
    for s, w in t.entries:
        if s in key:
            total = INF if (w == INF or total == INF) else total + w
    return total
