"""Exact integer transport, for couplings and for one-step pair checks.

It serves two callers.  `feasible_transport` fills a table with given row
and column marginals (the couplings behind t-bisimulations): marginals are
exact rationals (or naturals), scaled to integers by the least common
multiple of their denominators, and converted back only for the cells of
the plan it returns.  `ship` routes integer supplies into sinks of bounded
room along allowed arcs; `feasible_transport` reads its table off that
flow, and `coalsim.liftings` decides the weighted lifting condition at one
pair from whether all of the supply ships and, when it does not, from the
minimum cut that stops it.

The answer is the flow of Edmonds-Karp with breadth-first search visiting
neighbours in node order.  `ship` numbers the nodes in the order of its
supplies and rooms, so the flow and the cut do not depend on the order of
the arcs, and `feasible_transport` sorts its rows and columns, so its plan
does not depend on the order of the cells.  On block-shaped networks (images
read off partition blocks, a planted functional relation, the product C x D)
`ship` writes that flow down by the northwest-corner rule and runs none;
other networks run `_max_flow` on one n*n list of residual capacities.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .values import state_key


def _max_flow(n: int, capacity: dict, source: int, sink: int) -> tuple:
    """Edmonds-Karp on one n*n residual list; returns the flows and a minimum cut's source side.

    `capacity` maps arcs (a, b) to natural capacities and holds no arc in both
    directions, so each arc's flow is read back as its capacity minus its
    residual.  Breadth-first search visits neighbours in node order, which
    fixes the augmenting paths and so the flow.
    """
    residual = [0] * (n * n)
    order = [[] for _ in range(n)]
    for (a, b), cap in capacity.items():
        residual[a * n + b] = cap
        order[a].append(b)
        order[b].append(a)
    for nbrs in order:
        nbrs.sort()
    while True:
        parent = [-1] * n
        parent[source] = source
        queue = [source]
        for node in queue:
            row = node * n
            for nxt in order[node]:
                if parent[nxt] < 0 and residual[row + nxt]:
                    parent[nxt] = node
                    queue.append(nxt)
            if parent[sink] >= 0:
                break
        else:
            flow = {(a, b): cap - residual[a * n + b] for (a, b), cap in capacity.items()}
            return flow, set(queue)
        path = []
        node = sink
        while node != source:
            path.append(parent[node] * n + node)
            node = parent[node]
        push = min(residual[e] for e in path)
        for e in path:
            a, b = divmod(e, n)
            residual[e] -= push
            residual[b * n + a] += push


def _flow_network(supply: Mapping, room: Mapping, arcs) -> tuple:
    """The network `ship` solves by maximum flow, as (n, capacity, edges).

    Node 0 is the source and node n-1 the sink; sources are numbered from 1
    in the order of `supply`, then sinks in the order of `room`.  Each arc
    gets the whole supply as its capacity, which no flow can fill, and
    `edges` maps its node pair back to the arc, in arc order.
    """
    total = sum(supply.values())
    src_id = {k: 1 + i for i, k in enumerate(supply)}
    dst_id = {k: 1 + len(supply) + i for i, k in enumerate(room)}
    n = 2 + len(supply) + len(room)
    capacity = {(0, i): supply[k] for k, i in src_id.items()}
    capacity.update(((i, n - 1), room[k]) for k, i in dst_id.items())
    edges = {(src_id[a], dst_id[b]): (a, b) for a, b in arcs}
    capacity.update((e, total) for e in edges)
    return n, capacity, edges


def _corner(supply: Mapping, room: Mapping, arcs, groups: dict) -> tuple:
    """`ship` on groups of sources whose sink sets are pairwise disjoint.

    Each group and its sinks form a complete bipartite component, filled by
    the northwest-corner rule: sources in supply order, sinks in room order,
    each step shipping as much as both have left.
    """
    shipped = {(a, b): 0 for a, b in arcs}
    short = 0
    stuck = set()
    for sinks, sources in groups.items():
        targets = (y for y in room if y in sinks)
        left = 0
        gap = 0
        for x in sources:
            have = supply[x]
            while have:
                if not left:
                    y = next(targets, None)
                    if y is None:
                        break
                    left = room[y]
                    continue
                push = min(have, left)
                shipped[x, y] += push
                have -= push
                left -= push
            gap += have
        if gap:
            short += gap
            stuck.update(sources)
    if short:
        return None, ([x for x, w in supply.items() if w and x in stuck], short)
    return shipped, None


def ship(supply: Mapping, room: Mapping, arcs) -> tuple:
    """Ship every source's whole supply into the sinks along the arcs.

    `supply` maps sources to natural amounts, `room` maps sinks to natural
    capacities, and `arcs` lists the allowed (source, sink) pairs, of
    unbounded capacity, with both ends among those keys.  Sources and sinks
    are separate nodes even when their labels coincide, numbered in the
    order of the mappings.  Returns (shipped, cut) from one maximum flow:
    ({arc: amount}, None) when all of the supply ships, every arc listed
    once in arc order, otherwise (None, (sources, short)): the sources on a
    minimum cut's source side, in supply order, and the amount left
    unshipped.  No arc is saturated then, so the cut's capacity, the amount
    shipped, is the supply outside it plus the room of the sinks its sources
    reach, and their supply exceeds that room by `short`.

    The sources are grouped by the set of sinks their arcs reach.  When
    those sets are pairwise disjoint, as for images that are unions of
    partition blocks or for the couplings of a product relation, each group
    with its sinks is a complete bipartite component, and no flow runs:
    `_corner` fills it by the northwest-corner rule.  That is the flow
    Edmonds-Karp finds.  Components that share no node never interact, and
    in a complete component the breadth-first search, visiting nodes in
    order, always augments from the first source with supply left to the
    first sink with room left.  A short component's positive-supply sources
    all stay reachable from the source, so they are all on the minimal
    minimum cut; a component that ships everything puts none there.
    Otherwise one maximum flow runs on `_flow_network`.
    """
    reach = {x: set() for x in supply}
    for a, b in arcs:
        reach[a].add(b)
    groups = {}
    for x, sinks in reach.items():
        groups.setdefault(frozenset(sinks), []).append(x)
    if sum(map(len, groups)) == len(frozenset().union(*groups)):
        return _corner(supply, room, arcs, groups)
    n, capacity, edges = _flow_network(supply, room, arcs)
    flow, reached = _max_flow(n, capacity, 0, n - 1)
    short = sum(supply.values()) - sum(flow[(0, i)] for i in range(1, 1 + len(supply)))
    if short:
        return None, ([k for i, k in enumerate(supply, 1) if i in reached], short)
    return {arc: flow[e] for e, arc in edges.items()}, None


def feasible_transport(
    rows: Mapping, cols: Mapping, cells
) -> Optional[dict]:
    """A nonnegative filling of the allowed cells with the given marginals.

    Marginals are exact rationals (ints or Fractions).  Returns {cell:
    amount} using exact rationals (zero-amount cells omitted), or None when
    no filling exists.  Rows and columns with zero marginal are ignored;
    totals must agree, otherwise the problem is trivially infeasible.  The
    plan does not depend on the order of the cells: flow nodes are numbered
    by the sorted rows and columns.
    """
    rows = {k: v for k, v in rows.items() if v}
    cols = {k: v for k, v in cols.items() if v}
    denom = lcm(*(v.denominator for v in rows.values()), *(v.denominator for v in cols.values()))
    supply = {k: rows[k].numerator * (denom // rows[k].denominator) for k in sorted(rows, key=state_key)}
    room = {k: cols[k].numerator * (denom // cols[k].denominator) for k in sorted(cols, key=state_key)}
    if sum(supply.values()) != sum(room.values()):
        return None
    arcs = [(r, c) for r, c in cells if r in supply and c in room]
    shipped, _ = ship(supply, room, arcs)
    if shipped is None:
        return None
    return {
        (r, c): Fraction(shipped[(r, c)], denom)
        for r in supply
        for c in room
        if shipped.get((r, c))
    }
