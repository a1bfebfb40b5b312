"""Deciding simulations and bisimulations between two finite models.

A relation S is a simulation when every related pair (x, y) meets the
lifting condition of `coalsim.liftings` with images under S: checked one pair
at a time by `lifting_check`, or with its failures listed by
`lifting_violations`.  This module only builds relations, chains and
reports on top of that condition.

Greatest (bi)simulations and their bounded-depth versions are levels of one
descending chain of relations (`_levels`): each level re-examines every
surviving pair against the previous level and drops all failures at once, so
the result does not depend on scan order.  The levels cost up to |C|·|D|
pair checks each, so for signatures that separate the models bisimilarity is
decided instead by the certified partition of `coalsim.behaviour`, which
makes only |C|+|D| pair checks through `is_bisimulation_at`.  `greatest_bisimulation` remains
the route for signatures that do not separate the models and the independent
oracle the property suite compares that partition against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import KindMismatchError, ValidationError
from .liftings import (
    LambdaSignature,
    Modality,
    lifting_check,
    lifting_violations,
    per_kind_exact,
)
from .relations import Relation, difunctional_closure, full_relation
from .values import Coalgebra, _skey

VIOLATION_CAP = 100


@dataclass(frozen=True)
class Violation:
    direction: str
    left: object
    right: object
    modality: Modality
    witness: tuple

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "left": self.left,
            "right": self.right,
            "modality": self.modality.token(),
            "witness": [str(s) for s in sorted(self.witness, key=_skey)],
        }


@dataclass(frozen=True)
class SimulationReport:
    holds: bool
    violations: tuple

    def to_dict(self) -> dict:
        return {"holds": self.holds, "violations": [v.to_dict() for v in self.violations]}


def _check_setup(s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature):
    if c.kind != d.kind:
        raise KindMismatchError(
            f"cannot relate a {c.kind.name} model with a {d.kind.name} model"
        )
    if sig.kind != c.kind:
        raise KindMismatchError(
            f"signature kind {sig.kind.name} does not match the models"
        )
    if tuple(s.left) != tuple(c.carrier) or tuple(s.right) != tuple(d.carrier):
        raise ValidationError("relation carriers do not match the models")


def _check_depth(n: int) -> None:
    if n < 0:
        raise ValidationError(f"depth must be a natural number, got {n}")


def _violations(s: Relation, c, d, sig, witness: Relation, direction: str) -> list:
    """Violations at the pairs of s in carrier order, images under witness; capped.

    Where the per-kind check is exact for sig, each pair is screened by
    `lifting_check` and the violations are listed only at pairs that fail
    it, so the list is the same as listing at every pair.  Elsewhere the
    screen would be the generic search itself, so every pair is listed
    directly.
    """
    ok = lifting_check(sig)
    screen = per_kind_exact(sig)
    img = witness.left_images()
    out = []
    for x, y in s.sorted_pairs():
        room = VIOLATION_CAP - len(out)
        if room <= 0:
            break
        t, u = c.transition[x], d.transition[y]
        if screen and ok(t, u, img):
            continue
        for m, a in lifting_violations(t, u, img, sig, room):
            out.append(Violation(direction, x, y, m, tuple(a)))
    return out


def is_simulation(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> SimulationReport:
    """Check the simulation condition for every pair; collect violations in order."""
    _check_setup(s, c, d, sig)
    violations = _violations(s, c, d, sig, s, "forward")
    return SimulationReport(not violations, tuple(violations))


def _bisimulation_report(s, c, d, sig, witness: Relation) -> SimulationReport:
    """Both directions at the pairs of s, images under witness and its converse."""
    _check_setup(s, c, d, sig)
    violations = _violations(s, c, d, sig, witness, "forward")
    violations += _violations(s.converse(), d, c, sig, witness.converse(), "backward")
    return SimulationReport(not violations, tuple(violations))


def simulation_fast_path_holds(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> bool:
    """Verdict of `lifting_check` at every pair; must agree with is_simulation."""
    _check_setup(s, c, d, sig)
    ok = lifting_check(sig)
    img = s.left_images()
    return all(ok(c.transition[x], d.transition[y], img) for x, y in s.sorted_pairs())


def is_bisimulation(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> SimulationReport:
    """Simulation condition for the relation and its converse, reports merged."""
    return _bisimulation_report(s, c, d, sig, s)


def is_bisimulation_at(
    s: Relation, pairs, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> bool:
    """One non-iterated check of the condition at the given pairs, both directions.

    Images are taken under the whole of s (and its converse for the backward
    direction), so this decides whether s is a bisimulation when `pairs`
    covers s; callers that know more about s may pass fewer pairs.
    """
    _check_setup(s, c, d, sig)
    ok = lifting_check(sig)
    img = s.left_images()
    cimg = s.converse().left_images()
    ct, dt = c.transition, d.transition
    return all(ok(ct[x], dt[y], img) and ok(dt[y], ct[x], cimg) for x, y in pairs)


def _levels(c: Coalgebra, d: Coalgebra, sig: LambdaSignature, both: bool):
    """The descending chain of relations behind every greatest (bi)simulation.

    Level 0 is the full relation; level k+1 keeps the pairs of level k that
    meet the condition with images taken under level k, in one direction or,
    when `both`, in both.  Level k is the greatest depth-k (bi)simulation,
    and the first level that repeats is the greatest (bi)simulation.  Both
    directions take images under the same level: the witness of a
    depth-(k+1) bisimulation must itself be a depth-k bisimulation, and
    independent witness chains would accept relations that do not refine the
    bounded-depth partition.  Pairs stay in carrier order, so the checks run
    in the same order on every run.
    """
    rel = full_relation(c.carrier, d.carrier)
    _check_setup(rel, c, d, sig)
    ok = lifting_check(sig)
    ct, dt = c.transition, d.transition
    pairs = [(x, y) for x in rel.left for y in rel.right]
    while True:
        yield rel
        img = rel.left_images()
        cimg = rel.converse().left_images() if both else None
        pairs = [
            (x, y)
            for x, y in pairs
            if ok(ct[x], dt[y], img) and (not both or ok(dt[y], ct[x], cimg))
        ]
        rel = Relation(rel.left, rel.right, frozenset(pairs))


def _first_repeat(levels) -> Relation:
    prev = next(levels)
    for rel in levels:
        if len(rel) == len(prev):
            return rel
        prev = rel


def _chain(c, d, sig, n: int, both: bool) -> list:
    """Levels 0..n of the descending chain."""
    _check_depth(n)
    return list(islice(_levels(c, d, sig, both), n + 1))


def greatest_simulation(c: Coalgebra, d: Coalgebra, sig: LambdaSignature) -> Relation:
    """Largest relation whose every pair meets the simulation condition.

    Simulations are closed under unions, so the largest one exists; the
    descending chain from the full relation reaches it.
    """
    return _first_repeat(_levels(c, d, sig, both=False))


def greatest_bisimulation(c: Coalgebra, d: Coalgebra, sig: LambdaSignature) -> Relation:
    """Largest relation that is a simulation in both directions."""
    return _first_repeat(_levels(c, d, sig, both=True))


def n_simulation_chain(
    c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n: int
) -> list:
    """Greatest depth-k simulations for k = 0..n, as a descending chain.

    Every depth-k simulation is contained in level k, so membership in the
    chain decides the depth-k property.
    """
    return _chain(c, d, sig, n, both=False)


def is_n_simulation(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n: int
) -> bool:
    """Depth-n simulation test: containment in the greatest depth-n simulation."""
    _check_setup(s, c, d, sig)
    return s.pairs <= n_simulation_chain(c, d, sig, n)[n].pairs


def greatest_n_bisimulation(
    c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n: int
) -> Relation:
    """Largest relation witnessed by a synchronized chain of depth-k bisimulations."""
    return _chain(c, d, sig, n, both=True)[n]


def is_n_bisimulation(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n: int
) -> bool:
    _check_setup(s, c, d, sig)
    return s.pairs <= greatest_n_bisimulation(c, d, sig, n).pairs


def is_bisimulation_up_to_difunctionality(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> SimulationReport:
    """Both-direction simulation condition with images under the difunctional closure.

    Holds exactly when the difunctional closure of the relation is a
    bisimulation, but only the pairs of the relation itself are examined.
    """
    return _bisimulation_report(s, c, d, sig, difunctional_closure(s))
