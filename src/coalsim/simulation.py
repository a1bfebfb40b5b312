"""Deciding simulations and bisimulations between two finite models.

The defining condition for a relation S and a related pair (x, y) is: for
every modality of the signature and every observed set A, if the value of x
satisfies the modality at A then the value of y satisfies it at the image
S[A].  Quantification over A is restricted to subsets of the base of x's
value; this is equivalent to quantifying over all subsets of the carrier
because satisfaction only sees the base and all modalities are monotone (the
brute-force oracle in `coalsim.oracles` re-checks this on every run of the
property suite).

Greatest (bi)simulations are computed by synchronous pair removal from the
full relation: each round re-examines every surviving pair against the
previous round's relation and drops all failures at once, so the result does
not depend on scan order.  The rounds cost up to |C|·|D| pair checks each, so
for signatures that separate the models bisimilarity is decided instead by
the certified partition of `coalsim.behaviour`, which makes only |C|+|D|
pair checks through `is_bisimulation_at`.  `greatest_bisimulation` remains
the route for signatures that do not separate the models and the independent
oracle the property suite compares that partition against.
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import BudgetError, KindMismatchError, ValidationError
from .liftings import LambdaSignature, Modality, max_base_bound, satisfies
from .relations import Relation, difunctional_closure, full_relation
from .values import (
    KRIPKE,
    NEIGHBORHOOD,
    Coalgebra,
    DistValue,
    KripkeValue,
    MultisetValue,
    NbhdValue,
    _skey,
    base,
    measure,
)

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


def image(s: Relation, states) -> frozenset:
    """Relational image of a state set."""
    return s.image(states)


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


def _sorted_base(t) -> list:
    items = sorted(base(t), key=_skey)
    bound = max_base_bound()
    if len(items) > bound:
        raise BudgetError(
            f"value base has {len(items)} states, above the exhaustive bound {bound} "
            f"(override with COALSIM_MAX_BASE)"
        )
    return items


def _subsets_of(items: list):
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def _pair_violations(x, y, c, d, sig, img, cap):
    """Violations of the one-pair simulation condition, image taken under img."""
    t = c.transition[x]
    u = d.transition[y]
    out = []
    items = _sorted_base(t)
    for m in sig.modalities:
        if m.nullary:
            if satisfies(t, m, frozenset()) and not satisfies(u, m, frozenset()):
                out.append((m, frozenset()))
                if len(out) >= cap:
                    return out
            continue
        for a in _subsets_of(items):
            if satisfies(t, m, a):
                sa = frozenset().union(*(img[z] for z in a)) if a else frozenset()
                if not satisfies(u, m, sa):
                    out.append((m, a))
                    if len(out) >= cap:
                        return out
    return out


def _pair_ok_generic(x, y, c, d, sig, img) -> bool:
    return not _pair_violations(x, y, c, d, sig, img, cap=1)


def _pair_ok_fast(x, y, c, d, sig, img) -> bool:
    """Per-kind characterization of the one-pair condition.

    Exact for Kripke and neighborhood signatures.  For multiset and
    distribution kinds it decides the condition for the full family of
    thresholds, which coincides with the signature's verdict whenever the
    grid covers both models (always true for resolved auto grids).
    """
    t = c.transition[x]
    u = d.transition[y]
    if isinstance(t, KripkeValue):
        for m in sig.modalities:
            if m.op == "atom":
                if m.name in t.props and m.name not in u.props:
                    return False
            elif m.op == "diamond":
                for xp in t.succ:
                    if not img[xp] & u.succ:
                        return False
            elif m.op == "box":
                for yp in u.succ:
                    if not any(yp in img[xp] for xp in t.succ):
                        return False
        return True
    if isinstance(t, (MultisetValue, DistValue)):
        if not sig.modalities:
            return True
        for a in _subsets_of(_sorted_base(t)):
            sa = frozenset().union(*(img[z] for z in a)) if a else frozenset()
            if measure(u, sa) < measure(t, a):
                return False
        return True
    if isinstance(t, NbhdValue):
        for m in t.minimals:
            sm = frozenset().union(*(img[z] for z in m)) if m else frozenset()
            if not u.contains(sm):
                return False
        return True
    raise KindMismatchError(f"unsupported value type {type(t).__name__}")


def _pair_check(sig: LambdaSignature):
    """The per-kind characterization when it is exact for sig, else the generic check."""
    if sig.kind.name in (KRIPKE, NEIGHBORHOOD) or sig.full_grid:
        return _pair_ok_fast
    return _pair_ok_generic


def _check_depth(n: int) -> None:
    if n < 0:
        raise ValidationError(f"depth must be a natural number, got {n}")


def is_simulation(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> SimulationReport:
    """Check the simulation condition for every pair; collect violations in order."""
    _check_setup(s, c, d, sig)
    img = s.left_images()
    violations = []
    for x, y in s.sorted_pairs():
        room = VIOLATION_CAP - len(violations)
        if room <= 0:
            break
        for m, a in _pair_violations(x, y, c, d, sig, img, cap=room):
            violations.append(Violation("forward", x, y, m, tuple(a)))
    return SimulationReport(not violations, tuple(violations))


def simulation_fast_path_holds(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> bool:
    """Verdict of the per-kind characterization; must agree with is_simulation."""
    _check_setup(s, c, d, sig)
    img = s.left_images()
    return all(_pair_ok_fast(x, y, c, d, sig, img) for x, y in s.sorted_pairs())


def is_bisimulation(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> SimulationReport:
    """Simulation condition for the relation and its converse, reports merged."""
    forward = is_simulation(s, c, d, sig)
    back = is_simulation(s.converse(), d, c, sig)
    violations = list(forward.violations)
    for v in back.violations:
        if len(violations) >= 2 * VIOLATION_CAP:
            break
        violations.append(Violation("backward", v.left, v.right, v.modality, v.witness))
    return SimulationReport(forward.holds and back.holds, tuple(violations))


def is_bisimulation_at(
    s: Relation, pairs, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> bool:
    """One non-iterated check of the condition at the given pairs, both directions.

    Images are taken under the whole of s (and its converse for the backward
    direction), so this decides whether s is a bisimulation when `pairs`
    covers s; callers that know more about s may pass fewer pairs.
    """
    _check_setup(s, c, d, sig)
    ok = _pair_check(sig)
    img = s.left_images()
    cimg = s.converse().left_images()
    return all(
        ok(x, y, c, d, sig, img) and ok(y, x, d, c, sig, cimg) for x, y in pairs
    )


def _refine(c, d, pairs, condition):
    """Synchronously remove pairs failing `condition` until a fixpoint."""
    current = set(pairs)
    while True:
        rel = Relation(tuple(c.carrier), tuple(d.carrier), frozenset(current))
        img = rel.left_images()
        conv = rel.converse()
        cimg = conv.left_images()
        removed = [p for p in sorted(current, key=_skey) if not condition(p, img, cimg)]
        if not removed:
            return rel
        current.difference_update(removed)


def greatest_simulation(c: Coalgebra, d: Coalgebra, sig: LambdaSignature) -> Relation:
    """Largest relation whose every pair meets the simulation condition.

    Simulations are closed under unions, so the largest one exists; iterated
    synchronous removal from the full relation converges to it.
    """
    ok = _pair_check(sig)

    def condition(p, img, _cimg):
        return ok(p[0], p[1], c, d, sig, img)

    _check_setup(full_relation(c.carrier, d.carrier), c, d, sig)
    return _refine(c, d, full_relation(c.carrier, d.carrier).pairs, condition)


def greatest_bisimulation(c: Coalgebra, d: Coalgebra, sig: LambdaSignature) -> Relation:
    """Largest relation that is a simulation in both directions."""
    ok = _pair_check(sig)

    def condition(p, img, cimg):
        x, y = p
        return ok(x, y, c, d, sig, img) and ok(y, x, d, c, sig, cimg)

    _check_setup(full_relation(c.carrier, d.carrier), c, d, sig)
    return _refine(c, d, full_relation(c.carrier, d.carrier).pairs, condition)


def n_simulation_chain(
    c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n: int
) -> list:
    """Greatest depth-k simulations for k = 0..n, as a descending chain.

    Level 0 is the full relation; level k+1 keeps the pairs of level k whose
    condition holds with images taken under level k.  Every depth-k
    simulation is contained in level k, so membership in the chain decides
    the depth-k property.
    """
    _check_setup(full_relation(c.carrier, d.carrier), c, d, sig)
    _check_depth(n)
    ok = _pair_check(sig)
    chain = [full_relation(c.carrier, d.carrier)]
    for _ in range(n):
        prev = chain[-1]
        img = prev.left_images()
        keep = frozenset(
            (x, y) for x, y in prev.pairs if ok(x, y, c, d, sig, img)
        )
        chain.append(Relation(prev.left, prev.right, keep))
    return chain


def is_n_simulation(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n: int
) -> bool:
    """Depth-n simulation test: containment in the greatest depth-n simulation."""
    _check_setup(s, c, d, sig)
    return s.pairs <= n_simulation_chain(c, d, sig, n)[n].pairs


def n_bisimulation_chain(
    c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n: int
) -> list:
    """Greatest depth-k bisimulations for k = 0..n, as a descending chain.

    Both directions of level k+1 take images under the same level-k relation:
    the witness of a depth-(k+1) bisimulation must itself be a depth-k
    bisimulation.  Running the two directions against independent witness
    chains would accept relations that do not refine the bounded-depth
    partition, so the synchronized chain is the stronger and correct notion.
    """
    _check_setup(full_relation(c.carrier, d.carrier), c, d, sig)
    _check_depth(n)
    ok = _pair_check(sig)
    chain = [full_relation(c.carrier, d.carrier)]
    for _ in range(n):
        prev = chain[-1]
        img = prev.left_images()
        cimg = prev.converse().left_images()
        keep = frozenset(
            (x, y)
            for x, y in prev.pairs
            if ok(x, y, c, d, sig, img) and ok(y, x, d, c, sig, cimg)
        )
        chain.append(Relation(prev.left, prev.right, keep))
    return chain


def greatest_n_bisimulation(
    c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n: int
) -> Relation:
    """Largest relation witnessed by a synchronized chain of depth-k bisimulations."""
    return n_bisimulation_chain(c, d, sig, n)[n]


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
    _check_setup(s, c, d, sig)
    closure = difunctional_closure(s)
    img = closure.left_images()
    cimg = closure.converse().left_images()
    violations = []
    for x, y in s.sorted_pairs():
        room = VIOLATION_CAP - len(violations)
        if room <= 0:
            break
        for m, a in _pair_violations(x, y, c, d, sig, img, cap=room):
            violations.append(Violation("forward", x, y, m, tuple(a)))
    back = s.converse()
    back_violations = []
    for y, x in back.sorted_pairs():
        room = VIOLATION_CAP - len(back_violations)
        if room <= 0:
            break
        for m, a in _pair_violations(y, x, d, c, sig, cimg, cap=room):
            back_violations.append(Violation("backward", y, x, m, tuple(a)))
    violations.extend(back_violations)
    return SimulationReport(not violations, tuple(violations))
