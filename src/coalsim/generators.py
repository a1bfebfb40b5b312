"""Seeded random models, relations, and formulas, and exhaustive value pools.

Every generator is driven by an explicit seed and touches only ordered
containers, so identical configurations reproduce identical artifacts byte
for byte across runs and platforms.  `enumerate_values` lists every value
over a small state set within a budget, for the property suite's exhaustive
checks; the engine never enumerates values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import BudgetError, KindMismatchError, ValidationError
from .formulas import BOT, TOP, And, Formula, Modal, Neg, Or
from .liftings import LambdaSignature, subsets
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
    antichain,
    coalgebra,
    dist_value,
    kripke_value,
    multiset_value,
    nbhd_value,
    state_key,
)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    kind: FunctorKind
    min_states: int = 1
    max_states: int = 5
    max_branching: int = 3
    max_weight: int = 3
    max_denominator: int = 4
    allow_infinite: bool = False

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must fit in 64 unsigned bits")
        if self.min_states < 1 or self.max_states < self.min_states:
            raise ValidationError("state range must be 1 <= min <= max")
        if self.max_branching < 0 or self.max_weight < 1 or self.max_denominator < 1:
            raise ValidationError("caps must be positive")


def generate_coalgebra(cfg: GeneratorConfig) -> Coalgebra:
    """A validated random model; deterministic per configuration."""
    rng = random.Random(cfg.seed)
    n = rng.randint(cfg.min_states, cfg.max_states)
    states = [f"s{i}" for i in range(n)]
    transition = {}
    for s in states:
        transition[s] = _random_value(rng, cfg, states)
    return coalgebra(cfg.kind, states, transition)


def _pick_subset(rng, pool, size):
    return [pool[i] for i in sorted(rng.sample(range(len(pool)), size))]


def _random_value(rng, cfg, states):
    kind = cfg.kind.name
    if kind == KRIPKE:
        props = [p for p in cfg.kind.atoms if rng.random() < 0.5]
        k = rng.randint(0, min(cfg.max_branching, len(states)))
        return kripke_value(props, _pick_subset(rng, states, k))
    if kind == MULTISET:
        k = rng.randint(0, min(cfg.max_branching, len(states)))
        support = _pick_subset(rng, states, k)
        weights = {}
        for s in support:
            if cfg.allow_infinite and rng.random() < 0.15:
                weights[s] = INF
            else:
                weights[s] = rng.randint(1, cfg.max_weight)
        return multiset_value(weights)
    if kind == DISTRIBUTION:
        d = rng.randint(1, cfg.max_denominator)
        k = rng.randint(1, max(1, min(cfg.max_branching, len(states), d)))
        support = _pick_subset(rng, states, k)
        cuts = sorted(rng.sample(range(1, d), k - 1)) if k > 1 else []
        bounds = [0] + cuts + [d]
        parts = [bounds[i + 1] - bounds[i] for i in range(k)]
        return dist_value({s: Fraction(p, d) for s, p in zip(support, parts)})
    if kind == NEIGHBORHOOD:
        count = rng.randint(0, 3)
        sets = []
        for _ in range(count):
            size = rng.randint(0, min(cfg.max_branching, len(states)))
            sets.append(_pick_subset(rng, states, size))
        return nbhd_value(antichain(sets))
    raise ValidationError(f"unknown kind {kind!r}")


def random_relation(rng: random.Random, c: Coalgebra, d: Coalgebra, density: float = 0.4) -> Relation:
    pairs = [
        (x, y) for x in c.carrier for y in d.carrier if rng.random() < density
    ]
    return relation(c.carrier, d.carrier, pairs)


def inflate_coalgebra(rng: random.Random, m: Coalgebra) -> Coalgebra:
    """A model with one to three copies of each state of m, in shuffled order.

    Each copy's value splits its original's along the projection back to m:
    successors and minimal sets go to some copies of each state, and finite
    weights and masses are divided among some copies (an infinite weight is
    infinite on each).  Pushing a copy's value forward along the projection
    gives back the original's, so the projection is a morphism and every
    copy is behaviourally equivalent to its original.
    """
    copies = {s: [f"{s}.{i}" for i in range(rng.randint(1, 3))] for s in m.carrier}

    def some(z):
        return _pick_subset(rng, copies[z], rng.randint(1, len(copies[z])))

    def lift(t):
        if isinstance(t, KripkeValue):
            return kripke_value(t.props, [j for z in sorted(t.succ, key=state_key) for j in some(z)])
        if isinstance(t, MultisetValue):
            out = {}
            for z, w in t.entries:
                chosen = some(z)
                if w == INF:
                    out.update(dict.fromkeys(chosen, INF))
                    continue
                chosen = chosen[:w]
                cuts = [0, *sorted(rng.sample(range(1, w), len(chosen) - 1)), w]
                out.update(zip(chosen, (b - a for a, b in zip(cuts, cuts[1:]))))
            return multiset_value(out)
        if isinstance(t, DistValue):
            out = {}
            for z, q in t.entries:
                chosen = some(z)
                shares = [rng.randint(1, 3) for _ in chosen]
                out.update((j, q * Fraction(k, sum(shares))) for j, k in zip(chosen, shares))
            return dist_value(out)
        minimals = sorted((sorted(a, key=state_key) for a in t.minimals), key=state_key)
        return nbhd_value(antichain([j for z in a for j in some(z)] for a in minimals))

    transition = {j: lift(m.transition[s]) for s in m.carrier for j in copies[s]}
    carrier = list(transition)
    rng.shuffle(carrier)
    return coalgebra(m.kind, carrier, transition)


def random_positive_formula(
    rng: random.Random, sig: LambdaSignature, max_rank: int, fuel: int = 12
) -> Formula:
    """A negation-free formula whose modal nesting depth is at most max_rank."""
    unary = [m for m in sig.modalities if not m.nullary]
    nullary = [m for m in sig.modalities if m.nullary]
    return _positive_formula(rng, unary, nullary, max_rank, fuel)


def _positive_formula(rng, unary: list, nullary: list, max_rank: int, fuel: int) -> Formula:
    """`random_positive_formula` over the signature's unary and nullary modalities."""
    if fuel <= 0:
        return TOP if rng.random() < 0.5 else BOT
    roll = rng.random()
    if max_rank > 0 and roll < 0.5 and (unary or nullary):
        if nullary and (not unary or rng.random() < 0.3):
            return Modal(nullary[rng.randrange(len(nullary))], None)
        m = unary[rng.randrange(len(unary))]
        return Modal(m, _positive_formula(rng, unary, nullary, max_rank - 1, fuel - 1))
    if roll < 0.7:
        return And(
            _positive_formula(rng, unary, nullary, max_rank, fuel - 2),
            _positive_formula(rng, unary, nullary, max_rank, fuel - 2),
        )
    if roll < 0.9:
        return Or(
            _positive_formula(rng, unary, nullary, max_rank, fuel - 2),
            _positive_formula(rng, unary, nullary, max_rank, fuel - 2),
        )
    return TOP if rng.random() < 0.5 else BOT


def random_formula(
    rng: random.Random, sig: LambdaSignature, max_rank: int, fuel: int = 12
) -> Formula:
    """Arbitrary formula (negations allowed) with bounded modal depth."""
    if fuel > 0 and rng.random() < 0.25:
        return Neg(random_formula(rng, sig, max_rank, fuel - 1))
    return random_positive_formula(rng, sig, max_rank, fuel)


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps for exhaustive value enumeration on a fixed state set."""

    max_weight: int = 2
    denominators: tuple = (1, 2, 3, 4)


# Largest state set whose neighborhood values `enumerate_values` lists:
# 7,581 antichains over 5 states, 7,828,354 over 6.
MAX_NEIGHBORHOOD_STATES = 5


def enumerate_values(
    kind: FunctorKind, states: Iterable, budget: EnumerationBudget = EnumerationBudget()
) -> Iterator[FunctorValue]:
    """Yield all values over the given states within the budget.

    Complete for the full value space over the states for Kripke and
    neighborhood kinds; multiset and distribution enumerations are complete
    for the finite sub-universe the budget describes (weight cap, mass
    denominators from the given grid).
    """
    states = list(states)
    if kind.name == KRIPKE:
        for props in subsets(list(kind.atoms)):
            for succ in subsets(states):
                yield KripkeValue(props, succ)
    elif kind.name == MULTISET:
        def rec_weights(i, acc):
            if i == len(states):
                yield multiset_value(acc)
                return
            for w in range(budget.max_weight + 1):
                acc[states[i]] = w
                yield from rec_weights(i + 1, acc)
            del acc[states[i]]

        yield from rec_weights(0, {})
    elif kind.name == DISTRIBUTION:
        seen = set()
        for d in budget.denominators:
            for parts in _compositions(d, len(states)):
                v = dist_value({s: Fraction(p, d) for s, p in zip(states, parts) if p})
                if v not in seen:
                    seen.add(v)
                    yield v
    elif kind.name == NEIGHBORHOOD:
        if len(states) > MAX_NEIGHBORHOOD_STATES:
            raise BudgetError(
                f"neighborhood enumeration over {len(states)} states exceeds the "
                f"cap of {MAX_NEIGHBORHOOD_STATES}"
            )
        sets = list(subsets(states))

        def rec_antichain(i, chosen):
            if i == len(sets):
                yield NbhdValue(frozenset(chosen))
                return
            yield from rec_antichain(i + 1, chosen)
            cand = sets[i]
            if not any(cand <= m or m <= cand for m in chosen):
                chosen.append(cand)
                yield from rec_antichain(i + 1, chosen)
                chosen.pop()

        yield from rec_antichain(0, [])
    else:
        raise KindMismatchError(f"unknown functor kind {kind.name!r}")


def _compositions(total: int, parts: int) -> Iterator[tuple]:
    """All tuples of `parts` naturals summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
