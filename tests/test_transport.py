"""The flat-array maximum flow against the first implementation, and plans
that do not depend on the order of the cells."""

import random
from fractions import Fraction

import coalsim.transport as transport
from coalsim.transport import feasible_transport, ship

from oracle_helpers import max_flow_reference


def _ship_case(rng, trial):
    """Random supplies, rooms and arcs; every fifth case is one of the edge shapes.

    Shapes by trial: no sources or no sinks; zero supplies; no arcs; sinks no
    arc reaches; one source holding all of the supply.
    """
    sources = [f"x{i}" for i in range(rng.randint(1, 6))]
    sinks = [f"y{j}" for j in range(rng.randint(1, 6))]
    supply = {x: rng.choice((0, rng.randint(1, 9))) for x in sources}
    room = {y: rng.choice((0, rng.randint(1, 9))) for y in sinks}
    p = rng.choice((0.2, 0.5, 0.9))
    arcs = [(x, y) for x in sources for y in sinks if rng.random() < p]
    shape = trial % 25
    if shape == 0:
        supply = {}
    elif shape == 5:
        room = {}
    elif shape == 10:
        supply = dict.fromkeys(supply, 0)
    elif shape == 15:
        arcs = []
    elif shape == 20:
        unreached = set(rng.sample(sinks, rng.randint(1, len(sinks))))
        arcs = [(x, y) for x, y in arcs if y not in unreached]
    if trial % 7 == 3:
        supply = dict.fromkeys(supply, 0)
        supply[sources[0]] = rng.randint(1, 20)
        arcs = [(sources[0], sinks[0])] + arcs
        room[sinks[0]] = rng.randint(supply[sources[0]], 25)
    arcs = [(x, y) for x, y in arcs if x in supply and y in room]
    return supply, room, arcs


def test_max_flow_matches_the_reference_on_ship_networks(monkeypatch):
    real = transport._max_flow
    seen = {"cut": 0, "shipped": 0, "saturated": 0, "no arcs": 0, "empty": 0}

    def both(n, capacity, source, sink):
        flow, reached = real(n, capacity, source, sink)
        expected_flow, expected_reached = max_flow_reference(n, capacity, source, sink)
        assert flow == expected_flow
        assert set(reached) == set(expected_reached)
        inner = [e for e in capacity if e[0] != source and e[1] != sink]
        seen["saturated"] += any(flow[e] == capacity[e] > 0 for e in inner)
        seen["no arcs"] += not inner
        return flow, reached

    monkeypatch.setattr(transport, "_max_flow", both)
    rng = random.Random(47)
    for trial in range(2000):
        supply, room, arcs = _ship_case(rng, trial)
        seen["empty"] += not supply or not room
        shipped, cut = ship(supply, room, arcs)
        seen["cut" if cut else "shipped"] += 1
    assert min(seen.values()) > 50, seen


def test_feasible_transport_plan_ignores_cell_order():
    rng = random.Random(53)
    feasible = 0
    for _ in range(400):
        rows = {f"a{i}": Fraction(rng.randint(0, 6), rng.randint(1, 4)) for i in range(rng.randint(1, 5))}
        total = sum(rows.values())
        cuts = sorted(Fraction(rng.randint(0, 12), 12) * total for _ in range(rng.randint(0, 3)))
        marks = [Fraction(0), *cuts, total]
        cols = {f"b{j}": hi - lo for j, (lo, hi) in enumerate(zip(marks, marks[1:]))}
        cells = [(r, c) for r in rows for c in (*cols, "elsewhere") if rng.random() < 0.7]
        plan = feasible_transport(rows, cols, cells)
        for _ in range(3):
            rng.shuffle(cells)
            assert feasible_transport(rows, cols, cells) == plan
        assert feasible_transport(rows, cols, set(cells)) == plan
        if plan is not None:
            feasible += 1
            assert all(q > 0 for q in plan.values())
            for r, v in rows.items():
                assert sum(q for (x, _), q in plan.items() if x == r) == v
            for c, v in cols.items():
                assert sum(q for (_, y), q in plan.items() if y == c) == v
    assert 100 < feasible < 350
