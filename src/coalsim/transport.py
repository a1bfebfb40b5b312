"""Exact integer transport, for couplings and for one-step pair checks.

It serves two callers.  The coupling search of `coalsim.behaviour` reads
each state's `marginal` once per call, its weights in `state_key` order
scaled to integers by their own common denominator, or None when one weight
is infinite, which no integer transport carries; `couple` moves one
marginal onto another at a pair: both are rescaled to the pair's common
denominator and the allowed cells of each row bound where its weight may go.
`coalsim.liftings` decides the weighted lifting condition at one pair by
`shortfall`: whether all of the supply ships and, when it does not, the
minimum cut that stops it.

Every network here is bipartite: sources with integer supply, sinks with
integer room, and arcs of unbounded capacity from sources to sinks.  One
core, `_solve`, finds a maximum flow on any of them, for `ship`, `couple`
and `shortfall`.  It keeps the flow per sink and has one augmenting
routine, `_augment`.  The flow has two starts: the greedy fill ships each
source, in supply order, into the sinks of its row, each step as much as
both have left, and the zero start ships nothing.  From either start,
`_augment` pushes flow along one augmenting path at a time, found by
Edmonds-Karp's breadth-first search, until all ships or no path is left;
the sources that the last search reached are the cut.

- `shortfall` always starts from the fill, and each source's row is its
  sink set as it is.  The nodes reachable from the source in the residual
  network are the same for every maximum flow: the source side of the
  minimal minimum cut.  So its answer depends neither on the start nor on
  the order of the rows, and the fill leaves few paths to find.
- `ship` and `couple` return a plan, which must depend on the network
  alone.  Their rows list each source's sinks in room order, and the
  search visits nodes as Edmonds-Karp does: sources in supply order, sinks
  in room order.  On a block-shaped network, where no sink lies in two
  distinct sink sets (images read off partition blocks, a planted
  functional relation, the product C x D), each group of sources with its
  sinks is a complete bipartite component, and the fill is the
  northwest-corner rule in each.  That is the flow Edmonds-Karp finds
  there: components that share no node never interact, and in a complete
  component its search always augments from the first source with supply
  left to the first sink with room left.  So they start from the fill, and
  no augmenting path is left.  On every other network they start from
  zero, and `_augment` replays Edmonds-Karp's augmenting paths one by
  one, so the plan is Edmonds-Karp's flow on the whole network.
"""

from __future__ import annotations

from math import lcm
from typing import Mapping, Optional

from .values import INF, state_key


def _augment(left: list, free: dict, rows: list, into: dict) -> Optional[list]:
    """Push flow along one shortest augmenting path; None when it did, else the sources reached.

    Source i has `left[i]` supply left and may ship to the sinks `rows[i]`;
    sink y has `free[y]` room left, and `into[y]` maps sources to what they
    ship into it.  The search is Edmonds-Karp's breadth-first search on the
    residual network, visiting neighbours in node order: first every source
    with supply left, in supply order; from a source, its sinks in the
    order of its row; from a sink, the sources shipping into it, in supply
    order.  Sinks are found in the order Edmonds-Karp dequeues them, so the
    first one found with room left is the one it reaches its own sink from.
    Edmonds-Karp gives an arc from a source to a sink the whole supply as
    its capacity, which never binds a path, so arcs are unbounded here.
    """
    back = {}  # the sink each source without supply left was reached from, against its flow
    via = {}  # the source each sink was reached from
    queue = [i for i, w in enumerate(left) if w]
    for i in queue:
        for y in rows[i]:
            if y in via:
                continue
            via[y] = i
            if free[y]:
                push, k = free[y], i
                while k in back:
                    push = min(push, into[back[k]][k])
                    k = via[back[k]]
                push = min(push, left[k])
                free[y] -= push
                while True:
                    into[y][i] = into[y].get(i, 0) + push
                    if i not in back:
                        left[i] -= push
                        return None
                    y = back[i]
                    into[y][i] -= push
                    i = via[y]
            flows = into[y]
            for k in sorted(flows):
                if flows[k] and not left[k] and k not in back:
                    back[k] = y
                    queue.append(k)
    return [w > 0 or i in back for i, w in enumerate(left)]


def _solve(supply: Mapping, room: Mapping, reach: Mapping, plan: bool) -> tuple:
    """A maximum flow of the supplies into the rooms along `reach`, as (cut, cells).

    `reach` maps each source to the frozenset of sinks it may ship to, all
    keys of `room`.  With `plan` the flow must be Edmonds-Karp's: sources
    with equal sink sets share one row of sinks in room order, built in
    O(arcs) by bucketing the sinks, and the flow starts from the greedy fill
    only on block-shaped networks (no sink in two distinct sink sets), from
    zero otherwise.  Without it any maximum flow serves: each source's row
    is its sink set as it is, and the flow always starts from the fill.
    `_augment` then runs until all ships or no path is left.  The cut is
    None when all of the supply ships, otherwise (sources, short): the
    sources the last search reached, in supply order, and the amount left
    unshipped.  `cells` is None with a cut, otherwise it lazily yields
    ((source, sink), amount) for the positive amounts, source by source in
    supply order and along each source's row.
    """
    rows = list(map(reach.__getitem__, supply))
    fill = not plan
    if plan:
        lists = {}
        rows = [lists.setdefault(sinks, []) for sinks in rows]
        members = {y: [] for y in room}
        for sinks, row in lists.items():
            for y in sinks:
                members[y].append(row)
        for y, shared in members.items():
            for row in shared:
                row.append(y)
        fill = all(len(shared) < 2 for shared in members.values())
    left, free, into = list(supply.values()), dict(room), {y: {} for y in room}
    if fill:
        for i, row in enumerate(rows):
            have = left[i]
            for y in row:
                if not have:
                    break
                if free[y]:
                    push = have if have < free[y] else free[y]
                    into[y][i] = push
                    free[y] -= push
                    have -= push
            left[i] = have
    while any(left):
        reached = _augment(left, free, rows, into)
        if reached is not None:
            return ([x for x, r in zip(supply, reached) if r], sum(left)), None
    return None, (((x, y), into[y][i]) for i, x in enumerate(supply) for y in rows[i] if into[y].get(i))


def ship(supply: Mapping, room: Mapping, arcs) -> tuple:
    """Ship every source's whole supply into the sinks along the arcs.

    `supply` maps sources to natural amounts, `room` maps sinks to natural
    capacities, and `arcs` lists the allowed (source, sink) pairs, of
    unbounded capacity, with both ends among those keys.  Sources and sinks
    are separate nodes even when their labels coincide, numbered in the
    order of the mappings.  Returns (shipped, cut) from one maximum flow:
    ({arc: amount}, None) when all of the supply ships, every arc listed
    once in arc order, otherwise (None, (sources, short)): the sources on
    the minimal minimum cut's source side, in supply order, and the amount
    left unshipped.  No arc is saturated then, so the cut's capacity, the
    amount shipped, is the supply outside it plus the room of the sinks its
    sources reach, and their supply exceeds that room by `short`.  The flow
    is Edmonds-Karp's, visiting neighbours in node order (module docstring).
    """
    reach = {x: [] for x in supply}
    for a, b in arcs:
        reach[a].append(b)
    cut, cells = _solve(supply, room, {x: frozenset(ys) for x, ys in reach.items()}, True)
    if cut:
        return None, cut
    plan = dict(cells)
    return {arc: plan.get(arc, 0) for arc in arcs}, None


def shortfall(supply: Mapping, room: Mapping, reach: Mapping) -> Optional[tuple]:
    """The cut of `ship` on the arcs from each source to its `reach`, or None when all ships.

    `reach` maps each source to the frozenset of sinks it may ship to.  The
    flow starts from the greedy fill whatever the network's shape, since
    the cut is the same for every maximum flow, and no plan is built.
    """
    return _solve(supply, room, reach, False)[0]


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


def couple(rows: tuple, cols: tuple, allowed: Mapping) -> Optional[tuple]:
    """A plan moving one `marginal` onto another within the allowed cells, or None.

    Both marginals are rescaled to their common denominator den; `allowed`
    maps a row key to the set of column keys it may be paired with, and a
    key it lacks has none.  Returns (den, {(row, column): amount})
    with the positive amounts of `ship`'s plan only, rows in order and each
    row's columns in order, which is the cells' `state_key` order, or None
    when the totals differ or not all of the rows ship.
    """
    (row_den, row_items), (col_den, col_items) = rows, cols
    den = lcm(row_den, col_den)
    supply = {k: w * (den // row_den) for k, w in row_items}
    room = {k: w * (den // col_den) for k, w in col_items}
    if sum(supply.values()) != sum(room.values()):
        return None
    sinks, none = frozenset(room), frozenset()
    cut, cells = _solve(supply, room, {x: sinks & allowed.get(x, none) for x in supply}, True)
    return None if cut else (den, dict(cells))
