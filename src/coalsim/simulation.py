"""Deciding simulations and bisimulations between two finite models.

A relation S is a simulation when every related pair (x, y) meets the
lifting condition of `coalsim.liftings` with images under S.  Every verdict
here is `lifting_check` at one pair at a time; a report's verdict stops at
the first failing pair, and its failures are listed by `lifting_violations`
only when the report's violations are read.

Greatest and bounded-depth simulations are levels of one descending chain
from the full relation (`_levels`): level 1 is decided once per distinct
pair of values pushed to the one-point carrier (`_level_one`), and each
later level re-checks only the pairs whose bases lost a pair.  Every such
answer runs the chain on the behavioural quotients (`simulation_rows`), as
Bustan and Grumberg do for Kripke structures.  Bisimulations need no
chain: the greatest depth-n and greatest Λ-bisimulations are the cross
relations of the partition that `coalsim.behaviour` refines under the
signature.  The chain on C × D, one-way and both-way, is kept only as the
reference `coalsim.oracles.simulation_chain`.  Answers for the command
line come as rows, never as sorted pair sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Optional

from . import behaviour  # which imports this module: read its names at call time
from .errors import BudgetError, KindMismatchError, ValidationError, shown
from .liftings import (
    LambdaSignature,
    Modality,
    lifting_check,
    lifting_violations,
)
from .relations import Relation, image_rows, rows_relation
from .values import Coalgebra, base, predecessors, relabel, state_key

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
            "witness": [str(s) for s in sorted(self.witness, key=state_key)],
        }


class SimulationReport:
    """A relation check's verdict, with its violations listed on first read.

    Each direction streams the pairs, in carrier order, that fail
    `lifting_check` under its images.  `holds` reads up to the first failing
    pair, and the backward stream only if the forward one has none.
    `violations` continues the same streams and lists up to VIOLATION_CAP
    violations per direction, so no pair is checked twice.
    """

    def __init__(self, sig: LambdaSignature, streams: list):
        self._sig = sig
        self._streams = streams  # (direction, images, failing pairs), forward first
        self.holds = True
        for i, (direction, img, failing) in enumerate(streams):
            first = next(failing, None)
            if first is not None:
                streams[i] = (direction, img, chain((first,), failing))
                self.holds = False
                break

    @cached_property
    def violations(self) -> tuple:
        out = []
        for direction, img, failing in self._streams:
            room = VIOLATION_CAP
            for x, y, t, u in failing:
                found = lifting_violations(t, u, img, self._sig, room)
                out += (Violation(direction, x, y, m, tuple(a)) for m, a in found)
                room -= len(found)
                if room <= 0:
                    break
        return tuple(out)

    def to_dict(self) -> dict:
        return {"holds": self.holds, "violations": [v.to_dict() for v in self.violations]}


def check_kinds(c: Coalgebra, d: Coalgebra, sig: Optional[LambdaSignature] = None, n=None) -> None:
    """The one check of a call's inputs before any work: the depth n, when
    given, is a natural number, and the two models and the signature, when
    given, share one functor kind."""
    if n is not None and n < 0:
        raise ValidationError(f"depth must be a natural number, got {n}")
    if c.kind != d.kind:
        raise KindMismatchError(f"cannot compare a {c.kind.name} model with a {d.kind.name} model")
    if sig is not None and sig.kind != c.kind:
        raise KindMismatchError(f"signature kind {sig.kind.name} does not match the models")


def check_setup(s: Relation, c: Coalgebra, d: Coalgebra, sig: Optional[LambdaSignature] = None) -> None:
    """`check_kinds`, and s is a relation on the models' carriers: the same
    carriers, in the same order, and no pair outside them."""
    check_kinds(c, d, sig)
    if tuple(s.left) != tuple(c.carrier) or tuple(s.right) != tuple(d.carrier):
        raise ValidationError("relation carriers do not match the models")
    s.check_pairs()


def _stream(direction: str, s: Relation, c, d, sig, img: dict) -> tuple:
    """One direction of a report: its images and the failing pairs of s, in carrier order."""
    ok = lifting_check(sig)
    pairs = ((x, y, c.transition[x], d.transition[y]) for x, y in s.sorted_pairs())
    return direction, img, ((x, y, t, u) for x, y, t, u in pairs if not ok(t, u, img))


def is_simulation(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> SimulationReport:
    """Check the simulation condition at the pairs of s."""
    check_setup(s, c, d, sig)
    return SimulationReport(sig, [_stream("forward", s, c, d, sig, s.left_images())])


def bisimulation_report(s, c, d, sig, img: dict, converse_img: dict) -> SimulationReport:
    """Both directions at the pairs of s, images from img and, backward,
    converse_img; its callers check the setup (`check_setup`) first."""
    return SimulationReport(sig, [
        _stream("forward", s, c, d, sig, img),
        _stream("backward", s.converse(), d, c, sig, converse_img),
    ])


def is_bisimulation(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> SimulationReport:
    """Simulation condition for the relation and its converse, reports merged."""
    check_setup(s, c, d, sig)
    return bisimulation_report(s, c, d, sig, s.left_images(), s.converse().left_images())


def _level_one(c: Coalgebra, d: Coalgebra, sig: LambdaSignature) -> dict:
    """Level 1 of the chain as images: each left state to its right states.

    Level 1 keeps (x, y) when the condition holds under the full relation.
    The carriers are not empty, so that relation maps every non-empty set
    onto all of D; by naturality and monotonicity of the liftings, the
    condition under it equals the condition on the values pushed along
    `!: X → 1`, with the one point related to itself.  So it is decided once
    per distinct pair of pushed values, not once per pair of states.
    """
    ok = lifting_check(sig)
    point = {0: frozenset((0,))}

    def classes(m: Coalgebra) -> dict:
        out = {}
        for s in m.carrier:
            t = m.transition[s]
            out.setdefault(relabel(t, dict.fromkeys(base(t), 0)), []).append(s)
        return out

    rights = classes(d)
    img = {}
    for t, xs in classes(c).items():
        ys = frozenset(y for u, group in rights.items() if ok(t, u, point) for y in group)
        img.update(dict.fromkeys(xs, ys))
    return img


def _suspects(lost: dict, pred_c: dict, img: dict, order_c, order_d) -> list:
    """The surviving pairs whose bases meet a dropped pair, as rows in carrier order.

    `lost` maps each left state that lost pairs to the right predecessors of
    the states it lost, united once; they are met, a set at a time, with
    the image of each of its left predecessors.  `order_c` and `order_d`
    give carrier positions, so the order does not depend on hashing.
    """
    found = {}
    for x2, ys in lost.items():
        for x in pred_c[x2]:
            hit = img[x] & ys
            if hit:
                if x in found:
                    found[x] |= hit
                else:
                    found[x] = hit
    return [(x, sorted(found[x], key=order_d)) for x in sorted(found, key=order_c)]


def _levels(c: Coalgebra, d: Coalgebra, sig: LambdaSignature, first_member=None):
    """The descending chain, as images from left states, up to its limit.

    Level 0 is the full relation and level 1 comes from `_level_one`; level
    k+1, the greatest depth-(k+1) simulation, keeps the pairs of level k
    that meet the condition with images taken under level k.

    The verdict at (x, y) reads only the part of the level inside
    base(t_x) × base(u_y), and the condition is monotone in the relation.
    So a pair of level k needs a new check only if a pair there was dropped
    between levels k-1 and k, in the manner of Henzinger, Henzinger and
    Kopke's simulation algorithm.  Each round finds those pairs a set at a
    time (`_suspects`), in an order fixed by the carriers, checks just them
    against level k and drops its failures only after the round.  The
    generator stops after the first level whose round drops nothing, the
    greatest simulation.  The images are updated in place between levels.
    On behavioural quotients, `first_member` maps each left state to the
    first member of its block, and a budget error met at a pair names it.
    """
    yield dict.fromkeys(c.carrier, frozenset(d.carrier))
    ok = lifting_check(sig)
    ct, dt = c.transition, d.transition
    first = _level_one(c, d, sig)
    img = {x: set(ys) for x, ys in first.items()}
    pred_c, pred_d = predecessors(c), predecessors(d)
    order_c = {x: i for i, x in enumerate(c.carrier)}.__getitem__
    order_d = {y: i for i, y in enumerate(d.carrier)}.__getitem__
    # The drops from level 0 to level 1, once per row of level 1: the right
    # predecessors of the states outside it.
    outside = {}
    for ys in first.values():
        if ys not in outside:
            outside[ys] = set().union(*(pred_d[y] for y in d.carrier if y not in ys))
    lost = {x: outside[first[x]] for x in c.carrier if pred_c[x]}
    while True:
        yield img
        dropped = {}
        try:
            for x, ys in _suspects(lost, pred_c, img, order_c, order_d):
                t = ct[x]
                gone = [y for y in ys if not ok(t, dt[y], img)]
                if gone:
                    dropped[x] = gone
        except BudgetError as exc:
            if first_member is None:
                raise
            raise BudgetError(f"quotient value of the block of {shown(first_member[x])}: {exc}") from exc
        if not dropped:
            return
        lost = {}
        for x, gone in dropped.items():
            img[x].difference_update(gone)
            lost[x] = set().union(*map(pred_d.__getitem__, gone))


def _limit(c, d, sig, n=None, first_member=None) -> dict:
    """Level n of the chain, or its limit when n is None, as images."""
    *_, img = islice(_levels(c, d, sig, first_member), None if n is None else n + 1)
    return img


def _quotient(m: Coalgebra, ids: dict, members: dict) -> Coalgebra:
    """The model on block ids: each block's value is its first member's, relabelled by ids."""
    return Coalgebra(m.kind, tuple(members), {
        i: relabel(m.transition[states[0]], ids) for i, states in members.items()
    })


def simulation_rows(c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n=None) -> dict:
    """Level n of the chain, or its limit when n is None, as rows, decided on
    the behavioural quotients.

    Q_C has a state for each block of the stabilized partition with left
    states, Q_D one for each block with right states, and a block's value is
    its first member's value relabelled by block ids; members of a block
    agree on it because the partition is stable.  The quotient maps are
    morphisms, so x and y are related at level n exactly when their blocks
    are, under the same signature.  The chain runs on Q_C × Q_D, and each
    left state gets its block's row, one shared tuple per block.  When no
    block holds two states of one side, Q_C and Q_D are C and D up to
    renaming, so the chain runs on C × D and no quotient is built.  A
    budget error at a quotient pair names the first member of the left
    block, whose quotient value it counted.  The
    depth and the kinds are checked before the partition is refined.  This
    is exact for every monotone signature and depth: quotient maps are
    morphisms, whose graphs are Λ-bisimulations, and Λ-simulations compose.
    """
    check_kinds(c, d, sig, n)
    part, _ = behaviour.stabilized_partition(c, d)
    blocks = part.blocks
    lefts = {i: ls for i, (ls, _) in enumerate(blocks) if ls}
    rights = {i: rs for i, (_, rs) in enumerate(blocks) if rs}
    if len(lefts) == len(c.carrier) and len(rights) == len(d.carrier):
        return image_rows(_limit(c, d, sig, n), d.carrier)  # the quotients are C and D
    qc, qd = _quotient(c, part.left_ids, lefts), _quotient(d, part.right_ids, rights)
    img = _limit(qc, qd, sig, n, {i: ls[0] for i, ls in lefts.items()})
    row = image_rows({i: [y for j in img[i] for y in blocks[j][1]] for i in qc.carrier}, d.carrier)
    return {x: row[i] for x, i in part.left_ids.items()}


def greatest_simulation(c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n=None) -> Relation:
    """Greatest depth-n simulation, or the greatest simulation when n is None:
    the relation of `simulation_rows`.

    Simulations are closed under unions, so the largest one exists, and
    every depth-n simulation is contained in the greatest one, so
    containment decides the depth-n property.
    """
    return rows_relation(c.carrier, d.carrier, simulation_rows(c, d, sig, n))


def greatest_bisimulation(c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n=None) -> Relation:
    """Greatest depth-n bisimulation, or the greatest bisimulation when n is
    None: the cross relation of level n, or of the stable level, of the
    partition refined under sig, which is that level of the both-way chain."""
    if n is None:
        return behaviour.stabilized_partition(c, d, sig)[0].cross_relation()
    return behaviour.n_step_partition(c, d, n, sig).cross_relation()


def is_n_simulation(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n: int
) -> bool:
    """Depth-n simulation test: every pair of s is in its row of the greatest depth-n simulation."""
    check_setup(s, c, d, sig)
    rows = simulation_rows(c, d, sig, n)
    return all(ys.issubset(rows[x]) for x, ys in s.left_images().items())


def is_n_bisimulation(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature, n: int
) -> bool:
    """Depth-n bisimulation test: every pair of s shares a block of level n."""
    check_setup(s, c, d, sig)
    part = behaviour.n_step_partition(c, d, n, sig)
    return all(part.left_ids[x] == part.right_ids[y] for x, y in s.pairs)


def is_bisimulation_up_to_difunctionality(
    s: Relation, c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> SimulationReport:
    """Both-direction simulation condition with images under the difunctional closure.

    Holds exactly when the difunctional closure R of s is a bisimulation,
    but only the pairs of s are examined, with images read from the blocks
    of `components()`, so R's pairs are never built.  The harder half: R is
    difunctional, so R[R⁻¹[R[A]]] = R[A] for every set A, and every modality
    (and every fast path) is monotone and sees only the base.  A path
    x = x₀ s y₀ s⁻¹ x₁ s y₁ … s yₖ = y joins each x R y.  If x's value
    satisfies a modality at A, the forward condition at (x₀, y₀) makes y₀'s
    satisfy it at R[A], the backward one at (y₀, x₁) makes x₁'s satisfy it
    at R⁻¹[R[A]], the forward one at (x₁, y₁) makes y₁'s satisfy it at
    R[R⁻¹[R[A]]] = R[A], and so on to y: the forward condition holds at
    (x, y).  The backward condition at (y, x) runs the path from y's end.
    """
    check_setup(s, c, d, sig)
    return bisimulation_report(s, c, d, sig, *s.components().images())
