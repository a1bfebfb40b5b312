"""Exact integer maximum flow, for couplings and for one-step pair checks.

It serves two callers.  `feasible_transport` fills a table with given row
and column marginals (the couplings behind t-bisimulations): marginals are
exact rationals (or naturals), denominators are cleared with their least
common multiple, and the integer problem is solved by breadth-first
augmenting paths.  `ship` routes integer supplies into sinks of bounded
room along allowed arcs; `feasible_transport` reads its table off that
flow, and `coalsim.liftings` decides the weighted lifting condition at one
pair from whether all of the supply ships and, when it does not, from the
minimum cut that stops it.
Instances here are tiny (a handful of sources and sinks), so simplicity
beats asymptotics.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional

from .values import state_key


def _max_flow(n: int, capacity: dict, source: int, sink: int) -> tuple:
    """Edmonds-Karp; mutates nothing, returns the flows and a minimum cut's source side."""
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


def ship(supply: Mapping, room: Mapping, arcs) -> tuple:
    """Ship every source's whole supply into the sinks along the arcs.

    `supply` maps sources to natural amounts, `room` maps sinks to natural
    capacities, and `arcs` lists the allowed (source, sink) pairs, of
    unbounded capacity, with both ends among those keys.  Sources and sinks
    are separate nodes even when their labels coincide, numbered in the
    order of the mappings.  Returns (shipped, cut) from one maximum flow:
    ({arc: amount}, None) when all of the supply ships, otherwise (None,
    (sources, short)): the sources on a minimum cut's source side and the
    amount left unshipped.  No arc is saturated then, so the cut's capacity,
    the amount shipped, is the supply outside it plus the room of the sinks
    its sources reach, and their supply exceeds that room by `short`.
    """
    total = sum(supply.values())
    src_id = {k: 1 + i for i, k in enumerate(supply)}
    dst_id = {k: 1 + len(supply) + i for i, k in enumerate(room)}
    n = 2 + len(supply) + len(room)
    source, sink = 0, n - 1
    capacity = {(source, src_id[k]): v for k, v in supply.items()}
    capacity.update(((dst_id[k], sink), v) for k, v in room.items())
    edges = {(src_id[a], dst_id[b]): (a, b) for a, b in arcs}
    capacity.update((e, total) for e in edges)
    flow, reached = _max_flow(n, capacity, source, sink)
    short = total - sum(flow[(source, i)] for i in src_id.values())
    if short:
        return None, ([k for k, i in src_id.items() if i in reached], short)
    return {arc: flow[e] for e, arc in edges.items()}, None


def feasible_transport(
    rows: Mapping, cols: Mapping, cells
) -> Optional[dict]:
    """A nonnegative filling of the allowed cells with the given marginals.

    Returns {cell: amount} using exact rationals (zero-amount cells omitted),
    or None when no filling exists.  Rows and columns with zero marginal are
    ignored; totals must agree, otherwise the problem is trivially infeasible.
    """
    rows = {k: Fraction(v) for k, v in rows.items() if v}
    cols = {k: Fraction(v) for k, v in cols.items() if v}
    if sum(rows.values(), Fraction(0)) != sum(cols.values(), Fraction(0)):
        return None
    denom = lcm(
        *[v.denominator for v in rows.values()],
        *[v.denominator for v in cols.values()],
        1,
    )
    supply = {k: int(rows[k] * denom) for k in sorted(rows, key=state_key)}
    room = {k: int(cols[k] * denom) for k in sorted(cols, key=state_key)}
    arcs = [(r, c) for r, c in sorted(cells, key=state_key) if r in supply and c in room]
    shipped, _ = ship(supply, room, arcs)
    if shipped is None:
        return None
    return {
        (r, c): Fraction(shipped[(r, c)], denom)
        for r in supply
        for c in room
        if shipped.get((r, c))
    }
