"""Independent routes the property suite compares the engine against.

The simulation oracle quantifies over every subset of the whole left carrier
with no base restriction and no per-kind shortcut.  It exists solely to
cross-check `is_simulation`; keep it dumb.  `simulation_chain` is the
descending chain on C × D, one-way or both-way, level by level with no
suspect scheme, no quotient and no partition; the quotient route of
`coalsim.simulation` and the signature-keyed refinement of
`coalsim.behaviour` are checked against it.  The pointwise order
`lambda_leq`, the separation witness `distinguishing_pair` and the
homomorphism criterion `is_lambda_homomorphism` work on single values, not
on relations; the suite checks the engine's relational answers against them.
"""

from __future__ import annotations

from itertools import count
from typing import Mapping

from .errors import BudgetError, KindMismatchError, ValidationError, shown
from .liftings import LambdaSignature, exhaustive_base, lifting_check, satisfies, subsets
from .relations import Relation, full_relation
from .values import Coalgebra, FunctorValue, base, relabel, state_key

ORACLE_CARRIER_CAP = 12


def brute_force_simulation_oracle(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> bool:
    """Simulation condition with A ranging over all subsets of the left carrier."""
    if c.kind != d.kind or sig.kind != c.kind:
        raise KindMismatchError("models and signature must share one functor kind")
    if len(c.carrier) > ORACLE_CARRIER_CAP:
        raise BudgetError(
            f"oracle is capped at {ORACLE_CARRIER_CAP} states, got {len(c.carrier)}"
        )
    carrier = list(c.carrier)
    every_set = [
        frozenset(carrier[i] for i in range(len(carrier)) if mask >> i & 1)
        for mask in range(1 << len(carrier))
    ]
    for x, y in s.sorted_pairs():  # carrier order, so the early exit costs the same in every process
        t = c.transition[x]
        u = d.transition[y]
        for m in sig.modalities:
            for a in every_set:
                if satisfies(t, m, a) and not satisfies(u, m, s.image(a)):
                    return False
    return True


def simulation_chain(
    c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n=None, both: bool = False
) -> Relation:
    """Level n of the chain from C × D, or its limit when n is None; the
    both-way chain when `both`.

    Every round re-checks every pair of the level, forward with images under
    the level and, when `both`, backward with its converse images, and drops
    all failures at once.
    """
    ok, ct, dt = lifting_check(sig), c.transition, d.transition
    rel = full_relation(c.carrier, d.carrier)
    for _ in count() if n is None else range(n):
        img, cimg = rel.left_images(), rel.converse().left_images()
        kept = frozenset((x, y) for x, y in rel.pairs
                         if ok(ct[x], dt[y], img) and (not both or ok(dt[y], ct[x], cimg)))
        if kept == rel.pairs:
            break
        rel = Relation(rel.left, rel.right, kept)
    return rel


def lambda_leq(t: FunctorValue, u: FunctorValue, sig: LambdaSignature) -> bool:
    """Pointwise ordering of values: everything t satisfies, u satisfies.

    This is the lifting condition with S the identity, decided by
    `lifting_check`.  Its sets range over base(t) only, which is equivalent
    to ranging over the joint base: t sees only A ∩ base(t), and u, being
    monotone, satisfies at A whatever it satisfies at A ∩ base(t).
    """
    if type(t) is not type(u):
        raise KindMismatchError(f"cannot order {type(t).__name__} against {type(u).__name__}")
    return lifting_check(sig)(t, u, {z: {z} for z in base(t)})


def distinguishing_pair(t: FunctorValue, u: FunctorValue, sig: LambdaSignature):
    """A (modality, state set) satisfied by exactly one of the two values.

    Returns None when no subset of the joint base distinguishes them; for a
    separating signature this certifies the values are equal.  A nullary
    modality observes only the empty set; sets are tried per modality, in
    `subsets` order, behind the `exhaustive_base` gate.
    """
    if type(t) is not type(u):
        raise KindMismatchError(f"cannot compare {type(t).__name__} against {type(u).__name__}")
    items = exhaustive_base(base(t) | base(u), "joint base")
    for m in sig.modalities:
        for a in (frozenset(),) if m.nullary else subsets(items):
            if satisfies(t, m, a) != satisfies(u, m, a):
                return m, a
    return None


def is_lambda_homomorphism(
    f: Mapping, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> bool:
    """Pointwise criterion: the pushed-forward value of x sits below the value of f(x)."""
    missing = [x for x in c.carrier if x not in f]
    if missing:
        raise ValidationError(f"map is not defined on carrier states {shown(missing)}")
    outside = sorted({f[x] for x in c.carrier} - set(d.carrier), key=state_key)
    if outside:
        raise ValidationError(f"map targets states outside the codomain carrier: {shown(outside)}")
    return all(
        lambda_leq(relabel(c.transition[x], f), d.transition[f[x]], sig)
        for x in c.carrier
    )
