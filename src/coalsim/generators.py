"""Seeded random models, relations, and formulas.

Every generator is driven by an explicit seed and touches only ordered
containers, so identical configurations reproduce identical artifacts byte
for byte across runs and platforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .formulas import BOT, TOP, And, Formula, Modal, Neg, Or
from .liftings import LambdaSignature
from .relations import Relation, relation
from .values import (
    DISTRIBUTION,
    INF,
    KRIPKE,
    MULTISET,
    NEIGHBORHOOD,
    Coalgebra,
    FunctorKind,
    antichain,
    coalgebra,
    dist_value,
    kripke_value,
    multiset_value,
    nbhd_value,
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


def random_positive_formula(
    rng: random.Random, sig: LambdaSignature, max_rank: int, fuel: int = 12
) -> Formula:
    """A negation-free formula whose modal nesting depth is at most max_rank."""
    unary = [m for m in sig.modalities if not m.nullary]
    nullary = [m for m in sig.modalities if m.nullary]
    if fuel <= 0:
        return TOP if rng.random() < 0.5 else BOT
    roll = rng.random()
    if max_rank > 0 and roll < 0.5 and (unary or nullary):
        if nullary and (not unary or rng.random() < 0.3):
            return Modal(nullary[rng.randrange(len(nullary))], None)
        m = unary[rng.randrange(len(unary))]
        return Modal(m, random_positive_formula(rng, sig, max_rank - 1, fuel - 1))
    if roll < 0.7:
        return And(
            random_positive_formula(rng, sig, max_rank, fuel - 2),
            random_positive_formula(rng, sig, max_rank, fuel - 2),
        )
    if roll < 0.9:
        return Or(
            random_positive_formula(rng, sig, max_rank, fuel - 2),
            random_positive_formula(rng, sig, max_rank, fuel - 2),
        )
    return TOP if rng.random() < 0.5 else BOT


def random_formula(
    rng: random.Random, sig: LambdaSignature, max_rank: int, fuel: int = 12
) -> Formula:
    """Arbitrary formula (negations allowed) with bounded modal depth."""
    if fuel > 0 and rng.random() < 0.25:
        return Neg(random_formula(rng, sig, max_rank, fuel - 1))
    return random_positive_formula(rng, sig, max_rank, fuel)
