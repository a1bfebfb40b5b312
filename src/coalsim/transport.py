"""Exact integer transport, for couplings and for one-step pair checks.

It serves two callers.  The coupling search of `coalsim.behaviour` reads
each state's `marginal` once per call, its weights in `state_key` order
scaled to integers by their own common denominator, or None when one weight
is infinite, which no integer transport carries; `couple` moves one
marginal onto another at a pair: both are rescaled to the pair's common
denominator and `ship` fills the table.  `coalsim.liftings` decides the
weighted lifting condition at one pair by `shortfall`: whether all of the
supply ships and, when it does not, the minimum cut that stops it.

`ship` routes integer supplies into sinks of bounded room along allowed
arcs.  Its answer is the flow of Edmonds-Karp with breadth-first search
visiting neighbours in node order.  It numbers the nodes in the order of
its supplies and rooms, so the flow and the cut do not depend on the order
of the arcs, and marginals list their keys in sorted order, so a plan does
not depend on the order of the cells.  On block-shaped networks (images
read off partition blocks, a planted functional relation, the product
C x D), those whose sources' sink sets are pairwise disjoint (`_blocks`,
the one test for that shape), no flow runs: `ship` and `shortfall` read
the cut off the blocks' totals (`_block_cut`), and when all ships `ship`
writes the flow down by the northwest-corner rule.  Each of the two tests
the shape once; other networks go straight to `_flow`, which runs
`_max_flow` on one n*n list of residual capacities.
"""

from __future__ import annotations

from math import lcm
from typing import Mapping, Optional

from .values import INF, state_key


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


def _flow(supply: Mapping, room: Mapping, arcs) -> tuple:
    """`ship`'s (shipped, cut) from one maximum flow on `_flow_network`, for any network."""
    n, capacity, edges = _flow_network(supply, room, arcs)
    flow, reached = _max_flow(n, capacity, 0, n - 1)
    short = sum(supply.values()) - sum(flow[(0, i)] for i in range(1, 1 + len(supply)))
    if short:
        return None, ([k for i, k in enumerate(supply, 1) if i in reached], short)
    return {arc: flow[e] for e, arc in edges.items()}, None


def _blocks(supply: Mapping, reach: Mapping) -> Optional[dict]:
    """The sources grouped by their sink sets, or None unless those are pairwise disjoint.

    `reach` maps each source to the frozenset of sinks it may ship to; the
    groups map each sink set to its sources, in supply order.  This is the
    one test for a block-shaped network, shared by `ship` and `shortfall`.
    """
    groups = {}
    for x in supply:
        groups.setdefault(reach[x], []).append(x)
    if sum(map(len, groups)) == len(frozenset().union(*groups)):
        return groups
    return None


def _block_cut(supply: Mapping, room: Mapping, groups: dict) -> Optional[tuple]:
    """The cut of a block-shaped network, or None when every group ships its supply.

    A group of `_blocks` is short by its supply total minus the room of its
    sinks.  The cut is the positive-supply sources of the short groups, in
    supply order, with the sum of their shortfalls.  That is the cut of the
    flow `_corner` writes down, since the northwest-corner rule fills a
    complete component up to the smaller of its two totals.
    """
    short = 0
    stuck = set()
    for sinks, sources in groups.items():
        gap = sum(map(supply.__getitem__, sources)) - sum(map(room.__getitem__, sinks))
        if gap > 0:
            short += gap
            stuck.update(sources)
    if not short:
        return None
    return [x for x, w in supply.items() if w and x in stuck], short


def _corner(supply: Mapping, room: Mapping, arcs, groups: dict) -> dict:
    """`ship` on groups of sources whose sink sets are pairwise disjoint, none short.

    Each group and its sinks form a complete bipartite component, filled by
    the northwest-corner rule: sources in supply order, sinks in room order,
    each step shipping as much as both have left.
    """
    shipped = {(a, b): 0 for a, b in arcs}
    for sinks, sources in groups.items():
        targets = (y for y in room if y in sinks)
        left = 0
        for x in sources:
            have = supply[x]
            while have:
                if not left:
                    y = next(targets)
                    left = room[y]
                push = min(have, left)
                shipped[x, y] += push
                have -= push
                left -= push
    return shipped


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
    with its sinks is a complete bipartite component, and no flow runs.
    Edmonds-Karp would fill each component by the northwest-corner rule:
    components that share no node never interact, and in a complete
    component the breadth-first search, visiting nodes in order, always
    augments from the first source with supply left to the first sink with
    room left.  A short component's positive-supply sources all stay
    reachable from the source, so they are all on the minimal minimum cut;
    a component that ships everything puts none there.  So the cut is
    `_block_cut`'s, and when there is none `_corner` writes the flow down.
    Otherwise `_flow` runs one maximum flow.
    """
    reach = {x: set() for x in supply}
    for a, b in arcs:
        reach[a].add(b)
    groups = _blocks(supply, {x: frozenset(sinks) for x, sinks in reach.items()})
    if groups is None:
        return _flow(supply, room, arcs)
    cut = _block_cut(supply, room, groups)
    return (None, cut) if cut else (_corner(supply, room, arcs, groups), None)


def shortfall(supply: Mapping, room: Mapping, reach: Mapping) -> Optional[tuple]:
    """The cut of `ship` on the arcs from each source to its `reach`, or None when all ships.

    `reach` maps each source to the frozenset of sinks it may ship to.  On
    a block-shaped network (`_blocks`) no plan is built: the cut is
    `_block_cut`'s, read off the groups' totals.  Other networks run the
    maximum flow of `_flow`, without testing their shape again.
    """
    groups = _blocks(supply, reach)
    if groups is None:
        return _flow(supply, room, [(x, y) for x in supply for y in room if y in reach[x]])[1]
    return _block_cut(supply, room, groups)


def marginal(weights) -> Optional[tuple]:
    """(den, items): the positive weights of (key, weight) pairs, as integers.

    Weights are ints, Fractions or INF; den is the least common multiple of
    their denominators, and items lists (key, weight times den) in
    `state_key` order of the keys.  An infinite weight has no integer
    transport, so a list holding one gives None.
    """
    items = sorted(((k, w) for k, w in weights if w), key=lambda kw: state_key(kw[0]))
    if any(w == INF for _, w in items):
        return None
    den = lcm(*(w.denominator for _, w in items))
    return den, tuple((k, w.numerator * (den // w.denominator)) for k, w in items)


def couple(rows: tuple, cols: tuple, arcs) -> Optional[tuple]:
    """A plan moving one `marginal` onto another along the arcs, or None.

    Both marginals are rescaled to their common denominator den, and the
    arcs between their keys are passed to `ship`.  Returns (den, {arc:
    amount}), every such arc listed once in arc order, or None when the
    totals differ or not all of the rows ship.
    """
    (row_den, row_items), (col_den, col_items) = rows, cols
    den = lcm(row_den, col_den)
    supply = {k: w * (den // row_den) for k, w in row_items}
    room = {k: w * (den // col_den) for k, w in col_items}
    if sum(supply.values()) != sum(room.values()):
        return None
    shipped, _ = ship(supply, room, [(r, c) for r, c in arcs if r in supply and c in room])
    if shipped is None:
        return None
    return den, shipped
