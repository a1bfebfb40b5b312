"""Exact integer transport, for couplings and for one-step pair checks.

It serves two callers.  The coupling search of `coalsim.behaviour` asks
`couple` for a plan at each pair: it moves one value's weights onto the
other's, both read as integers over their common denominator by
`coalsim.values.integer_weights`, and each source's image under the
relation bounds where its weight may go.  `coalsim.liftings` decides the weighted lifting
condition at one pair by `shortfall`: whether all of the supply ships and,
when it does not, the minimum cut that stops it.

Every network here is bipartite: sources with integer supply, sinks with
integer room, and arcs of unbounded capacity from sources to sinks.  One
core, `_solve`, finds a maximum flow on any of them, for `couple` and
`shortfall`.  It keeps the flow per sink and has one augmenting
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
- `couple` returns a plan, which must depend on the network alone.  Its
  rows list each source's sinks in room order, and the search visits
  nodes as Edmonds-Karp does: sources in supply order, sinks in room
  order.  On a block-shaped network, where no sink lies in two
  distinct sink sets (images read off partition blocks, a planted
  functional relation, the product C x D), each group of sources with its
  sinks is a complete bipartite component, and the fill is the
  northwest-corner rule in each.  That is the flow Edmonds-Karp finds
  there: components that share no node never interact, and in a complete
  component its search always augments from the first source with supply
  left to the first sink with room left.  So it starts from the fill, and
  no augmenting path is left.  On every other network it starts from
  zero, and `_augment` replays Edmonds-Karp's augmenting paths one by
  one, so the plan is Edmonds-Karp's flow on the whole network.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .errors import InfiniteWeightError
from .values import INF, integer_weights


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


def shortfall(supply: Mapping, room: Mapping, reach: Mapping) -> Optional[tuple]:
    """The minimum cut that stops the supplies shipping into the rooms, or None when all ships.

    `supply` maps sources to natural amounts, `room` maps sinks to natural
    capacities, and `reach` maps each source to the frozenset of sinks it
    may ship to, along arcs of unbounded capacity.  The cut is (sources,
    short): the sources on the minimal minimum cut's source side, in supply
    order, and the amount left unshipped.  No arc is saturated then, so the
    cut's capacity, the amount shipped, is the supply outside it plus the
    room of the sinks its sources reach, and their supply exceeds that room
    by `short`.  The flow starts from the greedy fill whatever the
    network's shape, since the cut is the same for every maximum flow, and
    no plan is built.
    """
    return _solve(supply, room, reach, False)[0]


def couple(t, u, allowed: Mapping) -> Optional[tuple]:
    """A plan moving the weights of t onto those of u within the allowed cells, or None.

    t and u are weighted values of one kind, read as integers over their
    common denominator den (`integer_weights`); `allowed` maps a state of
    t to the set of states of u it may be paired with, its image under a
    relation, and a state it lacks has none.  Returns (den, {(x, y): amount}) with the positive
    amounts of Edmonds-Karp's flow only, x in t's entry order and each x's
    y in u's, which is the cells' `state_key` order, or None when the
    totals differ or not all of t ships.  An infinite weight has no
    integer transport and raises InfiniteWeightError.
    """
    den, (supply, room) = integer_weights(t, u)
    if den == 1 and (INF in supply.values() or INF in room.values()):  # only multisets hold INF
        raise InfiniteWeightError("coupling search needs finite weights")
    if sum(supply.values()) != sum(room.values()):
        return None
    sinks, none = frozenset(room), frozenset()
    cut, cells = _solve(supply, room, {x: sinks & allowed.get(x, none) for x in supply}, True)
    return None if cut else (den, dict(cells))
