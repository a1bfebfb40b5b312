"""Behavioural equivalence: bounded-depth partitions, quotient witnesses,
and coupling-based relational witnesses.

Behavioural equivalence is decided by partition refinement on the disjoint
union of the two carriers: two states share a block at depth k+1 exactly
when they share one at depth k and their transition values, relabeled by
depth-k block ids, are equal.  One refinement core, `_refine`, finds the
levels incrementally; `n_step_partition` reads level n, and
`stabilized_partition` the stable level.  It keys Kripke, multiset and
distribution states by their weights into the current blocks, which each
round moves along the in-edges of the states that changed block, and
neighborhood states by antichains of block ids, so no key relabels a
value.  Under a signature that does not separate the models it merges
Λ-equivalent relabelled values instead.  Under any signature its levels
are the greatest depth-n Λ-bisimulations, which `coalsim.simulation`
reads.  Each level is a `coalsim.relations.Partition` of (left, right)
blocks, the type `Relation.components` builds too.  For a separating
signature the stabilized partition's cross relation is both behavioural
equivalence and Λ-bisimilarity, so `behavioural_equivalence` returns it
after two cheap certificates on the components of the blocks' spanning
pairs, found once (see `certified_partition`): the pairs form a bisimulation
up to difunctionality, and the components give an explicit quotient model
whose projection maps commute with the transition structures.  A failed
certificate raises `InternalCheckError`, so a wrong answer can never be
returned quietly.

Coupling search decides the span-style notion of bisimulation: a relation is
witnessed by giving, for every related pair, a single transition value over
the pairs whose two projections recover the related states' values.  It
reads the relation, or its difunctional closure, as image maps, as the
Λ-checks do, and is exact and polynomial for all four kinds: Kripke and
neighborhood couplings have one canonical candidate that exists exactly when
some coupling does (see `_canonical_coupling`), and weighted kinds reduce to
exact transportation feasibility.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    BudgetError,
    InfiniteWeightError,
    InternalCheckError,
    NotSeparatingError,
    QuotientUndefined,
    shown,
)
from .liftings import LambdaSignature, ensure_separating, lifting_check
from .relations import Partition, Relation
from .simulation import bisimulation_report, check_kinds, check_setup
from .transport import couple
from .values import (
    DISTRIBUTION,
    INF,
    KRIPKE,
    MULTISET,
    NEIGHBORHOOD,
    Coalgebra,
    DistValue,
    FunctorValue,
    KripkeValue,
    MultisetValue,
    NbhdValue,
    antichain,
    base,
    integer_weights,
    relabel,
    state_key,
    values_equal,
)


def _weight_rows(values: list, kind: str) -> tuple:
    """(cap, rows): the weights of multiset or distribution values as naturals.

    Each row maps one value's base states to positive integers: the
    multiset weights, or the masses over the one common denominator of all
    the values (`integer_weights`).  An infinite multiset weight becomes
    `cap`, one more than any value's finite total, so a sum over a set of
    states reaches `cap` exactly when an infinite weight is in it.  A sum
    capped at `cap` is then what the relabelled value says of that set:
    the weight with ∞ absorbing for multisets, the mass for distributions
    (cap den, which no mass exceeds).  Kripke values weigh 1 per successor
    with cap 1, "some or none", and `_key_rule` reads those weights
    straight off the successor sets.
    """
    den, rows = integer_weights(*values)
    if kind == DISTRIBUTION:
        return den, rows
    cap = 1 + max(sum(w for w in row.values() if w != INF) for row in rows)
    return cap, [{z: cap if w == INF else w for z, w in row.items()} for row in rows]


def _weight_key(weights: dict, blocks, cap: int) -> frozenset:
    """A state's key over some blocks: its weight into each, capped at `cap` (see
    `_weight_rows`), block b with capped weight v as the one integer b·(cap+1) + v."""
    get, span = weights.get, cap + 1
    return frozenset([b * span + (w if (w := get(b, 0)) < cap else cap) for b in blocks])


def _shift_weights(moved: list, pred: list, weights: list, cap: int) -> dict:
    """Move the weights of the moved states' in-edges; returns each touched state's key.

    `moved` lists the groups that moved in a round as (states, old block,
    new block).  Each in-edge (p, w) of a moved state moves w from the old
    block to the new one in p's weights, where a weight that falls to 0 is
    dropped, and touches both blocks for p.  A touched state is keyed by
    its weights into the blocks it touched (`_weight_key`).
    """
    touched = {}
    for group, old, new in moved:
        pair = (old, new)
        for j in group:
            for p, w in pred[j]:
                wp = weights[p]
                rest = wp[old] - w
                if rest:
                    wp[old] = rest
                else:
                    del wp[old]
                wp[new] = wp.get(new, 0) + w
                t = touched.get(p)
                if t is None:
                    touched[p] = pair  # shared until a second group touches p
                elif t[-1] != new:
                    if type(t) is tuple:
                        t = touched[p] = list(t)
                    t += pair
    return {p: _weight_key(weights[p], blocks, cap) for p, blocks in touched.items()}


def _antichain_key(minimals: list, block) -> frozenset:
    """A neighborhood state's key: the antichain of its minimal sets' images under `block`."""
    return antichain([block[j] for j in m] for m in minimals)


def _key_rule(c: Coalgebra, d: Coalgebra, block: list, merged: bool) -> tuple:
    """The keys of one `_refine` call on the states of C then D: (level 1, rekey).

    Level 1 maps every state to its key at level 1; `rekey(moved)`, given
    the groups that moved in a round as (states, old block, new block),
    maps each predecessor of a moved state to its new key.  Both read the
    current `block`.  Kripke, multiset and distribution values keep each
    state's weights into the current blocks, which `rekey` moves edge by
    edge (`_shift_weights`); level 1 keys a state by its capped total weight
    and, for Kripke, its props.  Neighborhood values are keyed by antichains
    of block-id sets (`_antichain_key`), and under a signature that does not
    separate the models (`merged`) every value by its relabelling by block
    ids, which `lifting_check` reads.
    """
    values = [m.transition[s] for m in (c, d) for s in m.carrier]
    at = ({s: i for i, s in enumerate(c.carrier)}, {s: i for i, s in enumerate(d.carrier, len(c.carrier))})
    side = [at[0]] * len(c.carrier) + [at[1]] * len(d.carrier)
    pred = [[] for _ in values]  # per state: its in-edges, (predecessor, weight) for weighted keys
    if not merged and c.kind.name == KRIPKE:  # weight 1 per successor, read off the successor sets
        weights, first = [], {}
        for i, t in enumerate(values):
            ids, edge = side[i], (i, 1)
            for z in t.succ:
                pred[ids[z]].append(edge)
            weights.append({0: len(t.succ)} if t.succ else {})
            first[i] = (t.props, 1 if t.succ else 0)
        return first, lambda moved: _shift_weights(moved, pred, weights, 1)
    if not merged and c.kind.name != NEIGHBORHOOD:
        cap, rows = _weight_rows(values, c.kind.name)
        weights, first = [], {}
        for i, row in enumerate(rows):
            ids = side[i]
            for z, w in row.items():
                pred[ids[z]].append((i, w))
            total = sum(row.values())
            weights.append({0: total} if total else {})
            first[i] = total if total < cap else cap
        return first, lambda moved: _shift_weights(moved, pred, weights, cap)
    if merged:
        values = [relabel(t, side[i]) for i, t in enumerate(values)]
        bases = map(base, values)
        key = lambda i: relabel(values[i], block)
        first = {i: key(i) for i in range(len(values))}
    else:
        minimals = [[[side[i][z] for z in m] for m in t.minimals] for i, t in enumerate(values)]
        bases = ({j for m in ms for j in m} for ms in minimals)
        key = lambda i: _antichain_key(minimals[i], block)
        # `_antichain_key` with every state in block 0: {∅} when ∅ is minimal, else {{0}} or none.
        every, point, none = frozenset((frozenset(),)), frozenset((frozenset((0,)),)), frozenset()
        first = {i: every if frozenset() in t.minimals else point if t.minimals else none
                 for i, t in enumerate(values)}
    for i, js in enumerate(bases):
        for j in js:
            pred[j].append(i)

    def rekey(moved):
        return {i: key(i) for i in dict.fromkeys(p for group, _, _ in moved for j in group for p in pred[j])}

    return first, rekey


def _refine(c: Coalgebra, d: Coalgebra, rounds: int, sig: Optional[LambdaSignature] = None) -> tuple:
    """Refine for at most `rounds` rounds; returns (partition, depth).

    Level 0 is a single block.  Two states share a block at level k+1 when
    they share one at level k and their values, relabelled by level-k block
    ids, are equal, or with a signature Λ-equivalent: `lifting_check` holds
    both ways with identity images on block ids, the order of
    `coalsim.oracles.lambda_leq`.  Then level k's cross relation is level k
    of the both-way chain on C × D, by induction: let q map states to their
    level-k blocks and R be level k, so R[A] is the right states whose
    block meets A.  The liftings are monotone, so t_x satisfies λ at A
    exactly when it does at q⁻¹[q[A]], which has the same image, and
    natural, so t_x satisfies λ at q⁻¹[B] exactly when T(q)(t_x) does at B.
    For the sets B of blocks with left states, which hold every set
    T(q)(t_x) reads, R[q⁻¹[B]] = D ∩ q⁻¹[B].  So the forward check at
    (x, y) is T(q)(t_x) ≤ T(q)(t_y) in the lifting order, and the backward
    check is its converse.  A signature that separates the models' values
    separates relabelled ones too, as relabelling realizes no new mass or
    weight, so under it Λ-equivalence is equality.

    The levels are found incrementally, after Paige and Tarjan: a relabelled
    value changes only when a state of its base changed block, so each
    round re-keys only the touched states, the predecessors of the states
    that moved in the round before, and a block regroups only its touched
    members.  Level 1 keys every state by its value pushed forward to one
    point.  `_key_rule` chooses what a key is, once per call:

    - Kripke, multiset and distribution values, without a signature or
      under one that separates the models, are keyed by weights, after
      Valmari and Franceschinis: each state keeps its weights into the
      current blocks (`_weight_rows`), a move from block B to a new block
      moves each in-edge's weight out of B into it, and a touched state is
      keyed by its capped weights into the blocks it touched (`_weight_key`).
      That is exact among block-mates: they agreed on their capped weights
      into the previous level's blocks, and the weight into a block that
      no moved edge left or entered did not change.  A touched state has
      weight in a block created in the last round, which no untouched
      member reaches, so the touched members never keep the untouched
      members' key: they regroup among themselves and leave.  A round
      costs the moved states' in-edges, not their predecessors' values.
    - Neighborhood values are not additive, since the image of a family is
      no sum over blocks: a touched state is keyed by its whole antichain
      of block-id sets (`_antichain_key`), which can equal its old key.
    - A signature that does not separate the models compares whole values
      (`lifting_check`), so its keys are values relabelled by block ids.
      A block groups its touched members by key and merges Λ-equivalent
      keys, comparing each key with one representative per class, as
      Λ-equivalence is an equivalence.

    Each block stores a key that its members' keys agree with.  Members
    not re-keyed kept theirs, and a comparison reads only the two keys, so
    by transitivity the touched members that agree with it stay and the
    other groups leave.  When every member is touched, the largest group
    keeps the block and stores its key.  The depth counts the rounds that
    split a block, and the partition is level `depth`, stable when the
    depth is below `rounds`; fewer than |C|+|D| rounds split one.  The
    blocks are numbered by first member, left carrier before right carrier,
    so neither block ids nor the order of hashed containers shows in them.
    Its callers check the depth and the kinds (`check_kinds`).  The weight
    keys never relabel a value; every `behavioural` answer, and every
    `greatest-bisim` answer under a separating signature, is still checked
    against the functor action itself, as `certified_partition` relabels
    each state's value by its block and compares them (`values_equal`).
    """
    ok = None
    if sig is not None:
        ok = lifting_check(sig)  # compiled first: it validates COALSIM_MAX_BASE
        with suppress(NotSeparatingError, BudgetError):
            ensure_separating(sig, c, d)
            ok = None  # Λ-equivalent keys are equal
    states = c.carrier + d.carrier
    block = [0] * len(states)
    keyed, rekey = _key_rule(c, d, block, ok is not None)
    size, shared = [len(states)], [None]  # per block: members, and the key they all agree with
    one = [frozenset((0,))]  # per block id: the set of itself, its identity image
    depth = 0
    while depth < rounds:
        rekeyed = {}
        for i, k in keyed.items():
            rekeyed.setdefault(block[i], {}).setdefault(k, []).append(i)
        moved = []
        for b, groups in rekeyed.items():
            every = size[b] == sum(map(len, groups.values()))
            if ok is not None:
                classes = {} if every else {shared[b]: []}
                for k, group in groups.items():
                    same = (r for r in classes if ok(k, r, one) and ok(r, k, one))
                    classes.setdefault(k if k in classes else next(same, k), []).extend(group)
                groups = classes
            if every:
                shared[b] = max(groups, key=lambda k: len(groups[k]))
            groups.pop(shared[b], None)
            for k, group in groups.items():
                new = len(size)
                size.append(len(group))
                shared.append(k)
                one.append(frozenset((new,)))
                size[b] -= len(group)
                for i in group:
                    block[i] = new
                moved.append((group, b, new))
        if not moved:
            break
        depth += 1
        keyed = rekey(moved)
    out = {}
    for i, s in enumerate(states):
        out.setdefault(block[i], ([], []))[i >= len(c.carrier)].append(s)
    blocks = tuple((tuple(ls), tuple(rs)) for ls, rs in out.values())
    return Partition(c.carrier, d.carrier, blocks), depth


def n_step_partition(c: Coalgebra, d: Coalgebra, n: int, sig: Optional[LambdaSignature] = None) -> Partition:
    """Depth-n observational partition of the disjoint union of two models.

    Relabeled-value equality matches equality of depth-n behaviours because
    all four functors preserve injections.  With a signature, the cross
    relation is the greatest depth-n Λ-bisimulation (see `_refine`).
    """
    check_kinds(c, d, sig, n)
    return _refine(c, d, n, sig)[0]


def stabilized_partition(c: Coalgebra, d: Coalgebra, sig: Optional[LambdaSignature] = None) -> tuple:
    """Refine until stable; returns (partition, depth at stabilization).

    Fewer than |C|+|D| rounds split a block, so that many rounds reach the
    stable level.  With a signature, the cross relation is Λ-bisimilarity.
    """
    check_kinds(c, d, sig)
    return _refine(c, d, len(c.carrier) + len(d.carrier), sig)


@dataclass(frozen=True)
class QuotientWitness:
    """Explicit joint quotient model certifying behavioural equivalence."""

    partition: Partition  # the blocks; its block ids are the two quotient maps
    structure: dict  # block id -> value over block ids

    @property
    def blocks(self) -> tuple:
        return self.partition.blocks

    def to_dict(self) -> dict:
        kappa_left, kappa_right = self.partition.left_ids, self.partition.right_ids
        return {
            **self.partition.to_dict(),
            "kappa_left": {str(s): f"b{kappa_left[s]}" for s in sorted(kappa_left, key=state_key)},
            "kappa_right": {str(s): f"b{kappa_right[s]}" for s in sorted(kappa_right, key=state_key)},
            "structure": {
                f"b{i}": v.to_json(lambda b: f"b{b}")
                for i, v in sorted(self.structure.items())
            },
        }


def quotient_witness(s: Relation, c: Coalgebra, d: Coalgebra) -> QuotientWitness:
    """Quotient the disjoint union by the equivalence the relation generates.

    Succeeds when every member of each block has the same block-relabeled
    transition value; the common values then form a model on the blocks,
    and both block maps are transition-preserving because every state's
    relabeled value was compared with its block's.  Raises QuotientUndefined
    with the disagreeing pair of values otherwise, which certifies the
    relation does not witness behavioural equivalence.
    """
    # Blocks in the models' carrier order, whatever order s lists its carriers in.
    rel = Relation(c.carrier, d.carrier, s.pairs)
    check_setup(rel, c, d)
    return _quotient_witness(rel.components(), c, d)


def _quotient_witness(part: Partition, c: Coalgebra, d: Coalgebra) -> QuotientWitness:
    """`quotient_witness` on the blocks of a partition of the models' carriers."""
    structure = {}
    for i, blk in enumerate(part.blocks):
        values = [("left", x, relabel(c.transition[x], part.left_ids)) for x in blk[0]]
        values += [("right", y, relabel(d.transition[y], part.right_ids)) for y in blk[1]]
        (side, x, chosen), *rest = values
        for other_side, y, candidate in rest:
            if not values_equal(chosen, candidate):
                raise QuotientUndefined(blk, (side, x), chosen, (other_side, y), candidate)
        structure[i] = chosen
    return QuotientWitness(part, structure)


def certified_partition(
    c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> tuple:
    """The stabilized partition, certified, and its quotient witness.

    For a separating signature the partition's cross relation R is both
    behavioural equivalence and Λ-bisimilarity, and the partition gives
    maximality.  Two certificates guard it, and either failing raises
    InternalCheckError:

    (a) R is a Λ-bisimulation: the partition's spanning pairs, |C|+|D| of
        them instead of |R|, form a bisimulation up to difunctionality
        (images from their components).  That suffices because
        they join every left state of a two-sided block to every right state
        of it by a path, and join nothing else, so their difunctional
        closure is R, the union of each block's left × right states.
    (b) The quotient construction on the same components, found once,
        succeeds.  They are R's: the two-sided blocks, and singletons.

    Returns (Partition, QuotientWitness); the command line prints R from the
    partition's rows.  After the kind checks, a signature that does not
    separate the models raises NotSeparatingError before any other work.
    """
    check_kinds(c, d, sig)
    ensure_separating(sig, c, d)
    part, _ = stabilized_partition(c, d)
    spanning = Relation(c.carrier, d.carrier, frozenset(part.spanning_pairs()))
    components = spanning.components()
    if not bisimulation_report(spanning, c, d, sig, *components.images()).holds:
        raise InternalCheckError("stabilized partition is not a bisimulation")
    try:
        witness = _quotient_witness(components, c, d)
    except QuotientUndefined as exc:
        raise InternalCheckError(f"quotient construction failed: {exc}") from exc
    return part, witness


def behavioural_equivalence(
    c: Coalgebra, d: Coalgebra, sig: LambdaSignature
) -> Relation:
    """All behaviourally equivalent cross pairs, certified (see `certified_partition`)."""
    return certified_partition(c, d, sig)[0].cross_relation()


@dataclass(frozen=True)
class Coupling:
    """Per-pair transition values over related pairs witnessing a relational span."""

    values: tuple  # tuple of ((x, y), FunctorValue over pair states)

    def to_dict(self) -> dict:
        return {
            "couplings": [{"left": p[0], "right": p[1], "value": v.to_json(list)} for p, v in self.values]
        }


def verify_coupling(coupling: Coupling, s: Relation, c: Coalgebra, d: Coalgebra, img=None) -> bool:
    """Is the coupling one value per pair of s, over the allowed cells, with
    projections that recover the endpoint values?

    A cell (x, y) is allowed when y is in `img[x]`: the images under s by
    default, of its difunctional closure for the up-to check.  Each distinct
    cell used is checked once; weighted values by exact sums over their
    integers (`integer_weights`, `_projects_onto`), the others by
    relabelling along both projections.
    """
    check_kinds(c, d)
    img = s.left_images() if img is None else img
    values = coupling.values
    if len(values) != len(s.pairs) or {p for p, _ in values} != s.pairs:
        return False
    if not all(type(v) is type(c.transition[x]) for (x, _), v in values):
        return False
    used = {q for _, v in values for q in base(v)}
    if not all(type(q) is tuple and len(q) == 2 and q[1] in img.get(q[0], ()) for q in used):
        return False
    if c.kind.name in (MULTISET, DISTRIBUTION):
        return all(
            _projects_onto(*integer_weights(v, c.transition[x], d.transition[y])[1]) for (x, y), v in values
        )
    p1, p2 = {q: q[0] for q in used}, {q: q[1] for q in used}
    return all(
        values_equal(relabel(v, p1), c.transition[x]) and values_equal(relabel(v, p2), d.transition[y])
        for (x, y), v in values
    )


def _projects_onto(cells, left_w, right_w) -> bool:
    """Do the integer weights of cells, {(a, b): w}, sum to left_w along the first
    projection and to right_w along the second?

    All three are integers over one common denominator; an infinite
    multiset weight absorbs every sum it enters.
    """
    finite = cells if INF not in cells.values() else {q: w for q, w in cells.items() if w != INF}
    left, right = {}, {}
    for (a, b), w in finite.items():
        left[a] = left.get(a, 0) + w
        right[b] = right.get(b, 0) + w
    if finite is not cells:  # no float sum meets a long integer
        for a, b in cells.keys() - finite.keys():
            left[a] = right[b] = INF
    return left == left_w and right == right_w


def _canonical_coupling(t, u, img, rows, cols) -> FunctorValue:
    """The one Kripke or neighborhood coupling candidate of t and u over the cells.

    The cells are R = {(x, y) : y ∈ img[x]}; `rows` and `cols` map left and
    right states to their cells.  The candidate is a coupling exactly when
    relabelling it along the two projections gives back t and u, and
    otherwise none exists.

    Kripke: the candidate R ∩ (succ t × succ u) is the largest set of cells
    inside both successor sets; every coupling is a subset of it, and
    projections only shrink when cells are dropped.

    Neighborhood: the candidate is the antichain of R ∩ (X×D) for X ∈ min t
    and R ∩ (C×Y) for Y ∈ min u.  `relabel` pushes a family forward by
    taking images of its minimal sets, so its first projection is generated
    by the sets X ∩ dom R and R⁻¹[Y]; that is t exactly when every X ∈ min t
    lies within dom R and every R⁻¹[Y] is in t.  Symmetrically the second
    projection is u exactly when every Y ∈ min u lies within ran R and every
    R[X] is in u.  Those conditions hold whenever any coupling W exists:
    for X ∈ min t some Z ∈ W has π₁[Z] = X, so X ⊆ dom R, and π₂[Z] ⊆ R[X]
    with π₂[Z] ∈ u, so R[X] ∈ u; the argument for u is the same.
    """
    if isinstance(t, KripkeValue):
        return KripkeValue(t.props, frozenset(
            (x, y) for x in t.succ for y in u.succ.intersection(img.get(x, ()))
        ))
    return NbhdValue(antichain(
        [[q for x in m for q in rows.get(x, ())] for m in t.minimals]
        + [[q for y in m for q in cols.get(y, ())] for m in u.minimals]
    ))


def _coupling_check(s: Relation, img: dict, cimg, c, d) -> Optional[Coupling]:
    """Coupling values for the pairs of s over the cells (x, y) with y in img[x], checked, or None.

    Each pair gets one candidate value.  Kripke and neighborhood candidates
    are checked all at once by `verify_coupling`, and a failed check means
    no coupling exists.  Weighted pairs hand img to `couple`, and each plan
    is checked on the integers it was solved in, before it becomes a
    value: its denominator is that of `integer_weights(t, u)`, every cell
    is in img, and its projections are the rows of t and u
    (`_projects_onto`, the sums `verify_coupling` checks).  A plan failing
    that is a bug and raises InternalCheckError; a pair with an infinite
    weight raises InfiniteWeightError when reached.  Neighborhood
    candidates read `cimg`, the converse images, and build each state's
    cells once.
    """
    kind = c.kind.name
    weighted = kind in (MULTISET, DISTRIBUTION)
    rows = cols = None
    if kind == NEIGHBORHOOD:
        rows = {x: [(x, y) for y in ys] for x, ys in img.items()}
        cols = {y: [(x, y) for x in xs] for y, xs in cimg.items()}
    masses = {}  # den -> {amount: Fraction(amount, den)}, shared by the plans of one check
    out = []
    for x, y in sorted(s.pairs, key=state_key):
        t, u = c.transition[x], d.transition[y]
        if not weighted:
            out.append(((x, y), _canonical_coupling(t, u, img, rows, cols)))
            continue
        try:
            # `couple` lists a plan's positive cells in `state_key` order, the canonical entry order.
            found = couple(t, u, img)
        except InfiniteWeightError as exc:
            raise InfiniteWeightError(f"{exc}; pair ({shown(x)}, {shown(y)}) has an infinite weight") from None
        if found is None:
            return None
        den, plan = found
        own, weights = integer_weights(t, u)
        if den != own or not all(b in img.get(a, ()) for a, b in plan) or not _projects_onto(plan, *weights):
            raise InternalCheckError("constructed coupling fails its projection equations")
        if kind == MULTISET:
            v = MultisetValue(tuple(plan.items()))
        else:
            mass = masses.setdefault(den, {})
            v = DistValue(tuple(
                (q, mass[w] if w in mass else mass.setdefault(w, Fraction(w, den))) for q, w in plan.items()
            ))
        out.append(((x, y), v))
    coupling = Coupling(tuple(out))
    return coupling if weighted or verify_coupling(coupling, s, c, d, img) else None


def t_bisimulation_check(
    s: Relation, c: Coalgebra, d: Coalgebra
) -> Optional[Coupling]:
    """Find per-pair coupling values over the relation itself, or None.

    Exact for every kind: Kripke and neighborhood pairs take their one
    canonical candidate, which is a coupling whenever any is (see
    `_canonical_coupling`); weighted kinds use exact transportation.  A
    neighborhood pair has a coupling exactly when every minimal set of its
    left value lies within dom S with its S-image in the right value, and
    every minimal set of the right value lies within ran S with its
    S-preimage in the left value.  Only neighborhoods read converse images.
    """
    check_setup(s, c, d)
    cimg = s.converse().left_images() if c.kind.name == NEIGHBORHOOD else None
    return _coupling_check(s, s.left_images(), cimg, c, d)


def t_bisim_up_to_difunctionality_check(
    s: Relation, c: Coalgebra, d: Coalgebra
) -> Optional[Coupling]:
    """Coupling search over the difunctional closure, whose images are the blocks of `components()`."""
    check_setup(s, c, d)
    return _coupling_check(s, *s.components().images(), c, d)
