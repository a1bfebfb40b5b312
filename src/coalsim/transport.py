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
  the order of the rows, and the fill leaves few paths to find.  It
  lists no cells: the fill records what it ships only for `_augment`.
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
  no augmenting path is left.  When all sources share one sink set (C x
  D, or a pair inside one block of a planted relation) the network is
  one such component: its one row is the sink set in room order, read
  off `room` without the per-sink lists that bucketing needs, and the
  fill walks it once with one pointer.  On every other network it starts
  from zero, and `_augment` replays Edmonds-Karp's augmenting paths one
  by one, so the plan is Edmonds-Karp's flow on the whole network.
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
    keys of `room`.  Without `plan` any maximum flow serves: the greedy
    fill ships each source, in supply order, into the sinks of its set as
    they come, each step as much as both have left.  With `plan` the flow
    must be Edmonds-Karp's, and sources with equal sink sets share one row
    of sinks in room order.  When all sources share one sink set, as on
    C x D or inside one block, that row is read off `room` at once;
    otherwise the rows are built in O(arcs) by bucketing the sinks.  On a
    block-shaped network (no sink in two distinct sink sets, as with one
    shared set) the fill is the northwest-corner rule along each row: a
    row keeps its first sink with room, so no source tests again the sinks
    its row's earlier sources filled.  On any other network the flow
    starts from zero.  `_augment` then runs until all ships or no path is
    left.  The cut is None when all of the supply ships, otherwise
    (sources, short): the sources the last search reached, in supply
    order, and the amount left unshipped.  `cells` is None with a cut or
    without `plan`; otherwise it lists ((source, sink), amount) for the
    positive amounts, source by source in supply order and along each
    source's row.  The fill ships in that order, so when it ships
    everything the cells are the fill's, as recorded; otherwise the flow
    per sink that `_augment` reads is built from them, and the cells are
    read off that flow.
    """
    rows = list(map(reach.__getitem__, supply))
    left, free = list(supply.values()), dict(room)
    shipped = []  # (source, sink, amount) as the fill ships them, in the order `cells` lists them
    if not plan:  # the greedy fill: each source into the sinks of its set, as they come
        for i, have in enumerate(left):
            if not have:
                continue
            for y in rows[i]:
                room_y = free[y]
                if not room_y:
                    continue
                if have <= room_y:
                    free[y] = room_y - have
                    shipped.append((i, y, have))
                    have = 0
                    break
                free[y] = 0
                shipped.append((i, y, room_y))
                have -= room_y
            left[i] = have
    else:
        if not rows or rows.count(rows[0]) == len(rows):
            sinks = rows[0] if rows else frozenset()
            lists = [list(room) if len(sinks) == len(room) else [y for y in room if y in sinks]]
            which = [0] * len(rows)  # each source's row in `lists`
            rows = lists * len(rows)
            corner = True
        else:
            index = {}
            which = [index.setdefault(sinks, len(index)) for sinks in rows]
            lists = [[] for _ in index]
            members = {y: [] for y in room}
            for sinks, r in index.items():
                for y in sinks:
                    members[y].append(lists[r])
            for y, shared in members.items():
                for row in shared:
                    row.append(y)
            corner = all(len(shared) < 2 for shared in members.values())
            rows = [lists[r] for r in which]
        if corner:  # the northwest-corner rule along each row, from its first sink with room
            at = [0] * len(lists)
            for i, r in enumerate(which):
                have, row, k = left[i], lists[r], at[r]
                while have and k < len(row):
                    y = row[k]
                    room_y = free[y]
                    if have < room_y:
                        free[y] = room_y - have
                        shipped.append((i, y, have))
                        have = 0
                        break
                    free[y] = 0
                    k += 1
                    if room_y:
                        shipped.append((i, y, room_y))
                        have -= room_y
                at[r] = k
                left[i] = have
    if not any(left):
        if not plan:
            return None, None
        keys = list(supply)
        return None, [((keys[i], y), w) for i, y, w in shipped]
    into = {y: {} for y in room}
    for i, y, w in shipped:
        into[y][i] = w
    while any(left):
        reached = _augment(left, free, rows, into)
        if reached is not None:
            return ([x for x, r in zip(supply, reached) if r], sum(left)), None
    if not plan:
        return None, None
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
    # A source allowed every sink keeps the one set `sinks`, so equal rows are one object.
    reach = {x: sinks if sinks <= (a := allowed.get(x, none)) else sinks & a for x in supply}
    cut, cells = _solve(supply, room, reach, True)
    return None if cut else (den, dict(cells))
