"""Independent re-implementations used only as test oracles.

Everything here recomputes a result by a different route than the package
(plain graph recursion, exhaustive enumeration over all relations, classic
partition refinement on Kripke graphs) so that agreement is evidence, not
circularity.
"""

from collections import deque
from itertools import combinations

from coalsim import (
    Relation,
    is_simulation,
    relation,
    satisfies,
)


def all_subsets(items):
    items = list(items)
    return [
        frozenset(c) for r in range(len(items) + 1) for c in combinations(items, r)
    ]


def difunctional_closure_oracle(s):
    """Least difunctional relation containing s, by iterating zig-zags x S y, z S y, z S w."""
    pairs = set(s.pairs)
    while True:
        by_right = {}
        by_left = {}
        for x, y in pairs:
            by_right.setdefault(y, set()).add(x)
            by_left.setdefault(x, set()).add(y)
        added = set()
        for x, y in pairs:
            for z in by_right[y]:
                for w in by_left[z]:
                    if (x, w) not in pairs:
                        added.add((x, w))
        if not added:
            return Relation(s.left, s.right, frozenset(pairs))
        pairs |= added


def is_difunctional_oracle(s):
    """The definition: x S y, z S y and z S w imply x S w."""
    return all(
        (x, w) in s.pairs
        for x, y in s.pairs
        for z, y2 in s.pairs
        if y2 == y
        for z2, w in s.pairs
        if z2 == z
    )


def all_relations(left, right):
    pool = [(x, y) for x in left for y in right]
    for mask in range(1 << len(pool)):
        yield relation(
            left, right, [pool[i] for i in range(len(pool)) if mask >> i & 1]
        )


def rank_oracle(f):
    """Modal nesting depth by plain recursion over the node tuple shape."""
    from coalsim.formulas import And, Bot, Modal, Neg, Or, Top

    if isinstance(f, (Top, Bot)):
        return 0
    if isinstance(f, Neg):
        return rank_oracle(f.child)
    if isinstance(f, (And, Or)):
        return max(rank_oracle(f.left), rank_oracle(f.right))
    if isinstance(f, Modal):
        return 1 + (0 if f.child is None else rank_oracle(f.child))
    raise TypeError(f)


def kripke_eval_oracle(f, c, x):
    """Direct graph-walking evaluation for Kripke models."""
    from coalsim.formulas import And, Bot, Modal, Neg, Or, Top

    t = c.transition[x]
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Neg):
        return not kripke_eval_oracle(f.child, c, x)
    if isinstance(f, And):
        return kripke_eval_oracle(f.left, c, x) and kripke_eval_oracle(f.right, c, x)
    if isinstance(f, Or):
        return kripke_eval_oracle(f.left, c, x) or kripke_eval_oracle(f.right, c, x)
    if isinstance(f, Modal):
        m = f.modality
        if m.op == "atom":
            return m.name in t.props
        if m.op == "diamond":
            return any(kripke_eval_oracle(f.child, c, s) for s in t.succ)
        if m.op == "box":
            return all(kripke_eval_oracle(f.child, c, s) for s in t.succ)
    raise TypeError(f)


def union_of_all_simulations(c, d, sig):
    """Union of every relation passing is_simulation; exponential, tiny inputs only."""
    pairs = set()
    for s in all_relations(c.carrier, d.carrier):
        if is_simulation(s, c, d, sig).holds:
            pairs |= s.pairs
    return relation(c.carrier, d.carrier, pairs)


def refinements_reference(c, d):
    """Partitions of the disjoint union at depth 0, 1, 2, ..., level by level.

    Depth 0 is a single block; each step re-keys every state, grouping the
    states whose transition values agree after replacing every mentioned
    state by its previous-depth block id.  `relabel` returns neighborhood
    values in antichain form, so the relabeled values themselves are
    canonical keys.  Blocks are numbered by first occurrence, left carrier
    before right carrier.
    """
    from coalsim import Partition, relabel

    part = Partition(c.carrier, d.carrier, ((c.carrier, d.carrier),))
    while True:
        yield part
        groups = {}
        for side, m, ids in ((0, c, part.left_ids), (1, d, part.right_ids)):
            for s in m.carrier:
                key = relabel(m.transition[s], ids)
                groups.setdefault(key, ([], []))[side].append(s)
        blocks = tuple((tuple(ls), tuple(rs)) for ls, rs in groups.values())
        part = Partition(c.carrier, d.carrier, blocks)


def n_simulation_sets(c, d, sig, n):
    """All depth-k simulations for k = 0..n by the literal recursive definition."""
    every = list(all_relations(c.carrier, d.carrier))
    levels = [set(s.pairs for s in every)]

    def step_ok(small, witness_pairs):
        witness = Relation(tuple(c.carrier), tuple(d.carrier), frozenset(witness_pairs))
        img = witness.left_images()
        for x, y in small:
            t = c.transition[x]
            u = d.transition[y]
            for m in sig.modalities:
                for a in all_subsets(c.carrier):
                    if satisfies(t, m, a):
                        sa = frozenset().union(*(img[z] for z in a)) if a else frozenset()
                        if not satisfies(u, m, sa):
                            return False
        return True

    for _ in range(n):
        prev = levels[-1]
        current = set()
        for s in every:
            for witness in prev:
                if s.pairs <= witness and step_ok(s.pairs, witness):
                    current.add(s.pairs)
                    break
        levels.append(current)
    return levels


def kripke_bisimilarity_partition(c, d):
    """Classic partition refinement on the disjoint union of two Kripke graphs.

    Splits first on proposition sets, then repeatedly on the set of blocks
    reachable in one step; returns the cross pairs of the stable partition.
    """
    states = [("L", x) for x in c.carrier] + [("R", y) for y in d.carrier]

    def trans(member):
        side, s = member
        return (c if side == "L" else d).transition[s]

    def succs(member):
        side, s = member
        return [(side, z) for z in sorted(trans(member).succ)]

    block = {m: frozenset(trans(m).props) for m in states}
    while True:
        signature = {
            m: (block[m], frozenset(block[z] for z in succs(m))) for m in states
        }
        fresh = {}
        ids = {}
        for m in states:
            key = signature[m]
            if key not in ids:
                ids[key] = len(ids)
            fresh[m] = ids[key]
        if len(set(fresh.values())) == len(set(block.values())) and all(
            (fresh[a] == fresh[b]) == (block[a] == block[b])
            for a in states
            for b in states
        ):
            break
        block = fresh
    pairs = [
        (x, y)
        for x in c.carrier
        for y in d.carrier
        if block[("L", x)] == block[("R", y)]
    ]
    return relation(c.carrier, d.carrier, pairs)


def nbhd_relabel_oracle(t, f, labels):
    """Membership-level pushforward: enumerate every label set and test preimages."""
    out = []
    for b in all_subsets(labels):
        preimage = frozenset(s for s in f if f[s] in b)
        if any(m <= preimage for m in t.minimals):
            out.append(b)
    return out


def _subsets_in_counter_order(items):
    """Every subset of a list, in the order of a binary counter over its positions."""
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def pair_violations_reference(t, u, img, sig, cap):
    """The per-pair violation search as first written, one loop per modality."""
    from coalsim.values import base

    out = []
    items = sorted(base(t), key=repr)
    for m in sig.modalities:
        if m.nullary:
            if satisfies(t, m, frozenset()) and not satisfies(u, m, frozenset()):
                out.append((m, frozenset()))
                if len(out) >= cap:
                    return out
            continue
        for a in _subsets_in_counter_order(items):
            if satisfies(t, m, a):
                sa = frozenset().union(*(img[z] for z in a)) if a else frozenset()
                if not satisfies(u, m, sa):
                    out.append((m, a))
                    if len(out) >= cap:
                        return out
    return out


def lambda_leq_reference(t, u, sig):
    """The pointwise order as first written: every observation of t holds of u."""
    from coalsim.values import base

    joint = sorted(base(t) | base(u), key=repr)
    for m in sig.modalities:
        if m.nullary:
            if satisfies(t, m, frozenset()) and not satisfies(u, m, frozenset()):
                return False
            continue
        for a in _subsets_in_counter_order(joint):
            if satisfies(t, m, a) and not satisfies(u, m, a):
                return False
    return True


def distinguishing_pair_reference(t, u, sig):
    """The first observation, in scan order, on which t and u disagree; or None."""
    from coalsim.values import base

    joint = sorted(base(t) | base(u), key=repr)
    for m in sig.modalities:
        if m.nullary:
            if satisfies(t, m, frozenset()) != satisfies(u, m, frozenset()):
                return m, frozenset()
            continue
        for a in _subsets_in_counter_order(joint):
            if satisfies(t, m, a) != satisfies(u, m, a):
                return m, a
    return None


def prob_grid_reference(models):
    """Every subset mass of every distribution of the models, plus 0 and 1, sorted."""
    from fractions import Fraction

    grid = {Fraction(0), Fraction(1)}
    for c in models:
        for t in c.transition.values():
            for a in all_subsets(range(len(t.entries))):
                grid.add(sum((t.entries[i][1] for i in a), Fraction(0)))
    return tuple(sorted(grid))


def weighted_pair_reference(t, u, img):
    """Hall's condition for a weighted pair, by every subset: u(S[A]) >= t(A) for each A ⊆ base(t)."""
    from coalsim.values import base, measure

    for a in _subsets_in_counter_order(sorted(base(t), key=repr)):
        sa = frozenset().union(*(img[z] for z in a)) if a else frozenset()
        if measure(u, sa) < measure(t, a):
            return False
    return True


def nbhd_coupling_reference(t, u, cells):
    """The neighborhood coupling search as first written: every antichain over the cells.

    Returns the first value, in enumeration order, whose two projections give
    t and u; None when there is none.  More than five cells raise BudgetError.
    """
    from coalsim import NEIGHBORHOOD_KIND, relabel, values_equal
    from coalsim.generators import enumerate_values

    p1 = {q: q[0] for q in cells}
    p2 = {q: q[1] for q in cells}
    for v in enumerate_values(NEIGHBORHOOD_KIND, sorted(cells, key=repr)):
        if values_equal(relabel(v, p1), t) and values_equal(relabel(v, p2), u):
            return v
    return None


def max_flow_reference(n: int, capacity: dict, source: int, sink: int) -> tuple:
    """The maximum flow as first written: Edmonds-Karp on dict residuals.

    Mutates nothing, returns the flows and a minimum cut's source side.
    """
    residual = {}
    adj = {i: set() for i in range(n)}
    for (a, b), cap in capacity.items():
        residual[(a, b)] = residual.get((a, b), 0) + cap
        residual.setdefault((b, a), 0)
        adj[a].add(b)
        adj[b].add(a)
    order = {i: sorted(nbrs) for i, nbrs in adj.items()}
    flow = {edge: 0 for edge in capacity}
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            node = queue.popleft()
            for nxt in order[node]:
                if nxt not in parent and residual[(node, nxt)] > 0:
                    parent[nxt] = node
                    queue.append(nxt)
        if sink not in parent:
            return flow, parent.keys()
        path = []
        node = sink
        while parent[node] is not None:
            path.append((parent[node], node))
            node = parent[node]
        push = min(residual[e] for e in path)
        for e in path:
            residual[e] -= push
            residual[(e[1], e[0])] += push
            if e in flow:
                flow[e] += push
            else:
                flow[(e[1], e[0])] -= push


def flow_network_reference(supply, room, arcs) -> tuple:
    """The network a transport plan once was solved on by maximum flow, as
    (n, capacity, edges).

    Node 0 is the source and node n-1 the sink; sources are numbered from 1
    in the order of `supply`, then sinks in the order of `room`.  Each arc
    gets the whole supply as its capacity, which no flow can fill, and
    `edges` maps its node pair back to the arc, in arc order.
    """
    total = sum(supply.values())
    src_id = {k: 1 + i for i, k in enumerate(supply)}
    dst_id = {k: 1 + len(supply) + i for i, k in enumerate(room)}
    n = 2 + len(supply) + len(room)
    capacity = {(0, i): v for i, v in zip(src_id.values(), supply.values())}
    capacity.update(((dst_id[k], n - 1), v) for k, v in room.items())
    edges = {(src_id[a], dst_id[b]): (a, b) for a, b in arcs}
    capacity.update((e, total) for e in edges)
    return n, capacity, edges


def ship_reference(supply, room, arcs) -> tuple:
    """A transport plan as `ship` (since folded into `transport._solve`)
    gave it before its flow-free path: one maximum flow on every network,
    by `max_flow_reference`."""
    n, capacity, edges = flow_network_reference(supply, room, arcs)
    flow, reached = max_flow_reference(n, capacity, 0, n - 1)
    short = sum(supply.values()) - sum(flow[(0, i)] for i in range(1, 1 + len(supply)))
    if short:
        return None, ([k for i, k in enumerate(supply, 1) if i in reached], short)
    return {arc: flow[e] for e, arc in edges.items()}, None


def hall_violator_reference(t, u, img):
    """`coalsim.liftings.hall_violator` as it was before it decided on block
    totals: infinite weights scanned on both kinds, and one maximum flow on
    every network, by `ship_reference`, run on the weights themselves
    (masses as exact `Fraction`s, never scaled to integers)."""
    from coalsim.values import INF

    unbounded = frozenset(y for y, w in u.entries if w == INF)
    supply = {}
    for x, w in t.entries:
        if img[x] & unbounded:
            continue
        if w == INF:
            return frozenset((x,)), INF, sum(v for y, v in u.entries if y in img[x])
        supply[x] = w
    if not supply:
        return None
    room = {y: w for y, w in u.entries if w != INF}
    _, cut = ship_reference(supply, room, [(x, y) for x in supply for y in room if y in img[x]])
    if cut is None:
        return None
    sources, short = cut  # the cut's capacity is what shipped: u(S[A]) = t(A) - short
    a = sum(map(supply.get, sources))
    if all(w == INF or w.denominator == 1 for _, w in (*t.entries, *u.entries)):
        a, short = int(a), int(short)  # whole weights give whole masses, as ints
    return frozenset(sources), a, a - short


def random_positive_formula_reference(rng, sig, max_rank, fuel=12):
    """`coalsim.generators.random_positive_formula` as first written, splitting
    the modalities again at every node."""
    from coalsim.formulas import BOT, TOP, And, Modal, Or

    unary = [m for m in sig.modalities if not m.nullary]
    nullary = [m for m in sig.modalities if m.nullary]
    if fuel <= 0:
        return TOP if rng.random() < 0.5 else BOT
    roll = rng.random()
    if max_rank > 0 and roll < 0.5 and (unary or nullary):
        if nullary and (not unary or rng.random() < 0.3):
            return Modal(nullary[rng.randrange(len(nullary))], None)
        m = unary[rng.randrange(len(unary))]
        return Modal(m, random_positive_formula_reference(rng, sig, max_rank - 1, fuel - 1))
    if roll < 0.7:
        return And(
            random_positive_formula_reference(rng, sig, max_rank, fuel - 2),
            random_positive_formula_reference(rng, sig, max_rank, fuel - 2),
        )
    if roll < 0.9:
        return Or(
            random_positive_formula_reference(rng, sig, max_rank, fuel - 2),
            random_positive_formula_reference(rng, sig, max_rank, fuel - 2),
        )
    return TOP if rng.random() < 0.5 else BOT


# The model loader as it was before each value was checked by one predicate:
# `coalgebra_from_dict` of `coalsim.modelio` with the helpers it changed, and
# `validate` of `coalsim.values`, copied unchanged but for their names.


def _states_reference(raw, where):
    """A JSON list of state labels; a label is a string or a non-bool integer."""
    from coalsim.errors import ValidationError, shown

    if not isinstance(raw, list):
        raise ValidationError(f"{where} must be a list of states, got {shown(raw)}")
    for s in raw:
        _check_state_reference(s, where)
    return raw


def _check_state_reference(s, where):
    from coalsim.errors import ValidationError, shown

    if not isinstance(s, (str, int)) or isinstance(s, bool):
        raise ValidationError(f"{where}: state {shown(s)} is not a string or an integer")


def _parse_mass_reference(raw, state):
    from fractions import Fraction

    from coalsim.errors import ValidationError, shown

    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"mass for {shown(state)} is not a rational: {shown(raw)}") from exc
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    raise ValidationError(f"mass for {shown(state)} must be \"n/d\" or an integer, got {shown(raw)}")


def _value_from_json_reference(kind_name, raw):
    from coalsim.errors import ValidationError, shown
    from coalsim.values import (
        DISTRIBUTION,
        KRIPKE,
        MULTISET,
        NEIGHBORHOOD,
        _parse_weight,
        dist_value,
        kripke_value,
        multiset_value,
        nbhd_value,
        string_list,
    )

    if kind_name == KRIPKE:
        if not isinstance(raw, dict) or set(raw) - {"props", "succ"}:
            raise ValidationError(f"kripke value needs props/succ, got {shown(raw)}")
        props = string_list(raw.get("props", []), "props")
        return kripke_value(props, _states_reference(raw.get("succ", []), "succ"))
    if kind_name == MULTISET:
        if not isinstance(raw, dict):
            raise ValidationError(f"multiset value must be a weight map, got {shown(raw)}")
        return multiset_value({s: _parse_weight(w, s) for s, w in raw.items()})
    if kind_name == DISTRIBUTION:
        if not isinstance(raw, dict):
            raise ValidationError(f"distribution value must be a mass map, got {shown(raw)}")
        return dist_value({s: _parse_mass_reference(q, s) for s, q in raw.items()})
    if kind_name == NEIGHBORHOOD:
        if not isinstance(raw, dict) or set(raw) != {"minimals"}:
            raise ValidationError(f"neighborhood value needs minimals, got {shown(raw)}")
        if not isinstance(raw["minimals"], list):
            raise ValidationError(f"minimals must be a list of state lists, got {shown(raw)}")
        return nbhd_value(_states_reference(m, "minimal set") for m in raw["minimals"])
    raise ValidationError(f"unknown functor {shown(kind_name)}")


def coalgebra_from_dict_reference(doc):
    from coalsim.errors import ValidationError, shown
    from coalsim.values import DISTRIBUTION, KRIPKE, MULTISET, NEIGHBORHOOD, Coalgebra, FunctorKind, kripke_kind, string_list

    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")
    for field in ("functor", "states", "transition"):
        if field not in doc:
            raise ValidationError(f"model document misses the {field!r} field")
    name = doc["functor"]
    if name == KRIPKE:
        kind = kripke_kind(string_list(doc.get("atoms", []), "atoms"))
    elif name in (MULTISET, DISTRIBUTION, NEIGHBORHOOD):
        if "atoms" in doc:
            raise ValidationError(f"functor {shown(name)} takes no atom vocabulary")
        kind = FunctorKind(name)
    else:
        raise ValidationError(f"unknown functor {shown(name)}")
    states = _states_reference(doc["states"], "states")
    transition = doc["transition"]
    if not isinstance(transition, dict):
        raise ValidationError("transition must map states to values")
    values = {s: _value_from_json_reference(name, raw) for s, raw in transition.items()}
    c = Coalgebra(kind, states, values)
    validate_reference(c)
    return c


def validate_reference(c):
    """Check every structural invariant of a model; raise a full report on failure.

    As first written, plus the check that weighted entries list each state
    once, in `state_key` order, worded after every other problem of the value."""
    from fractions import Fraction

    from coalsim.errors import ValidationError, shown
    from coalsim.values import (
        DISTRIBUTION,
        INF,
        KRIPKE,
        MULTISET,
        NEIGHBORHOOD,
        DistValue,
        KripkeValue,
        MultisetValue,
        NbhdValue,
        antichain,
        base,
        state_key,
    )

    problems = []
    if not c.carrier:
        problems.append("carrier is empty")
    seen = set()
    for s in c.carrier:
        if s in seen:
            problems.append(f"duplicate carrier state {shown(s)}")
        seen.add(s)
    carrier = frozenset(c.carrier)
    missing = [s for s in c.carrier if s not in c.transition]
    for s in missing:
        problems.append(f"state {shown(s)} has no transition value")
    for s in c.transition:
        if s not in carrier:
            problems.append(f"transition defined on {shown(s)}, which is not in the carrier")
    for s in c.carrier:
        t = c.transition.get(s)
        if t is None:
            continue
        if isinstance(t, KripkeValue):
            vk = KRIPKE
        elif isinstance(t, MultisetValue):
            vk = MULTISET
        elif isinstance(t, DistValue):
            vk = DISTRIBUTION
        elif isinstance(t, NbhdValue):
            vk = NEIGHBORHOOD
        else:
            problems.append(f"state {shown(s)}: transition value has unknown type {type(t).__name__}")
            continue
        if vk != c.kind.name:
            problems.append(f"state {shown(s)}: value kind {vk} does not match model kind {c.kind.name}")
            continue
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
                problems.append(f"state {shown(s)}: mass sum {total} != 1")
        elif isinstance(t, NbhdValue):
            if t.minimals != antichain(t.minimals):
                problems.append(f"state {shown(s)}: minimal sets are not an antichain")
        if isinstance(t, (MultisetValue, DistValue)):
            states = [z for z, _ in t.entries]
            twice = sorted({z for z in states if states.count(z) > 1}, key=state_key)
            if twice:
                problems.append(f"state {shown(s)}: lists {shown(twice)} more than once")
            elif states != sorted(states, key=state_key):
                problems.append(f"state {shown(s)}: entries are not in state_key order")
    if problems:
        raise ValidationError(problems)


def weighted_coupling_reference(s, cells, c, d):
    """The weighted coupling search as it was before it read per-state marginals.

    For each pair of s in `state_key` order: the transportation plan as
    first written (marginals scaled per pair, one maximum flow by
    `ship_reference`, cells read row by row), made a value by `dist_value` or
    `multiset_value`.  Returns [((x, y), value), ...], or None at the first
    pair without a plan; an infinite weight raises InfiniteWeightError.
    """
    from fractions import Fraction
    from math import lcm

    from coalsim.errors import InfiniteWeightError
    from coalsim.values import INF, DistValue, dist_value, multiset_value, state_key

    out = []
    for x, y in sorted(s.pairs, key=state_key):
        t, u = c.transition[x], d.transition[y]
        rows, cols = dict(t.entries), dict(u.entries)
        if not isinstance(t, DistValue) and (INF in rows.values() or INF in cols.values()):
            raise InfiniteWeightError(
                f"coupling search needs finite weights; pair ({x!r}, {y!r}) has an "
                f"infinite weight"
            )
        denom = lcm(*(v.denominator for v in rows.values()), *(v.denominator for v in cols.values()))
        supply = {k: rows[k].numerator * (denom // rows[k].denominator) for k in sorted(rows, key=state_key)}
        room = {k: cols[k].numerator * (denom // cols[k].denominator) for k in sorted(cols, key=state_key)}
        if sum(supply.values()) != sum(room.values()):
            return None
        arcs = [(r, k) for r, k in cells if r in supply and k in room]
        shipped, _ = ship_reference(supply, room, arcs)
        if shipped is None:
            return None
        plan = {(r, k): Fraction(shipped[(r, k)], denom) for r in supply for k in room if shipped.get((r, k))}
        if isinstance(t, DistValue):
            out.append(((x, y), dist_value(plan)))
        else:
            out.append(((x, y), multiset_value({cell: int(q) for cell, q in plan.items()})))
    return out


def coupling_reference(s, cells, c, d):
    """The coupling search over an explicit set of cells, as it was before it read images.

    For each pair of s in `state_key` order: Kripke and neighborhood pairs
    take the canonical candidate built from the cells indexed by their left
    and right states, and weighted pairs take the plan of `couple` with each
    left state's allowed right states gathered from the cells.  Returns
    [((x, y), value), ...] when every value's projections give back the
    pair's values, else None; an infinite weight raises InfiniteWeightError.
    """
    from fractions import Fraction

    from coalsim import relabel, values_equal
    from coalsim.transport import couple
    from coalsim.values import DistValue, KripkeValue, MultisetValue, NbhdValue, antichain, base, state_key

    by_left, by_right = {}, {}
    for q in cells:
        by_left.setdefault(q[0], []).append(q)
        by_right.setdefault(q[1], []).append(q)
    out = []
    for x, y in sorted(s.pairs, key=state_key):
        t, u = c.transition[x], d.transition[y]
        if isinstance(t, KripkeValue):
            v = KripkeValue(t.props, frozenset(
                q for z in t.succ for q in by_left.get(z, ()) if q[1] in u.succ
            ))
        elif isinstance(t, NbhdValue):
            v = NbhdValue(antichain(
                [[q for z in m for q in by_left.get(z, ())] for m in t.minimals]
                + [[q for w in m for q in by_right.get(w, ())] for m in u.minimals]
            ))
        else:
            found = couple(t, u, {z: {q[1] for q in qs} for z, qs in by_left.items()})
            if found is None:
                return None
            den, plan = found
            if isinstance(t, DistValue):
                v = DistValue(tuple((q, Fraction(w, den)) for q, w in plan.items()))
            else:
                v = MultisetValue(tuple(plan.items()))
            out.append(((x, y), v))
            continue
        p1, p2 = {q: q[0] for q in base(v)}, {q: q[1] for q in base(v)}
        if not (values_equal(relabel(v, p1), t) and values_equal(relabel(v, p2), u)):
            return None
        out.append(((x, y), v))
    return out
