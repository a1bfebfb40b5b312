"""Exact integer maximum flow, for couplings and for one-step pair checks.

It serves two callers.  `feasible_transport` fills a table with given row
and column marginals (the couplings behind t-bisimulations): marginals are
exact rationals (or naturals), scaled to integers by the least common
multiple of their denominators, and converted back only for the cells of
the plan it returns.  `ship` routes integer supplies into sinks of bounded
room along allowed arcs; `feasible_transport` reads its table off that
flow, and `coalsim.liftings` decides the weighted lifting condition at one
pair from whether all of the supply ships and, when it does not, from the
minimum cut that stops it.

The flow is Edmonds-Karp on one n*n list of residual capacities, with
breadth-first search visiting neighbours in node order.  `ship` numbers
the nodes in the order of its supplies and rooms, so the flow and the cut do
not depend on the order of the arcs, and `feasible_transport` sorts its rows
and columns, so its plan does not depend on the order of the cells.  Instances here
are small (the supports of two values), so n*n entries are cheap.
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
