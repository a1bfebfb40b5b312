"""The flat-array maximum flow and `ship` against their first
implementations, the flow-free path on block-shaped networks, and plans that
do not depend on the order of the cells."""

import random
from fractions import Fraction

import coalsim.transport as transport
from coalsim import (
    DISTRIBUTION_KIND,
    MULTISET_KIND,
    auto_signature,
    coalgebra,
    full_relation,
    t_bisimulation_check,
)
from coalsim.behaviour import certified_partition
from coalsim.generators import GeneratorConfig, generate_coalgebra
from coalsim.transport import couple, marginal, ship, shortfall
from coalsim.values import relabel

from oracle_helpers import max_flow_reference, ship_reference


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


def test_max_flow_matches_the_reference_on_ship_networks():
    seen = {"cut": 0, "shipped": 0, "saturated": 0, "no arcs": 0, "empty": 0}
    rng = random.Random(47)
    for trial in range(2000):
        supply, room, arcs = _ship_case(rng, trial)
        seen["empty"] += not supply or not room
        n, capacity, _ = transport._flow_network(supply, room, arcs)
        source, sink = 0, n - 1
        flow, reached = transport._max_flow(n, capacity, source, sink)
        expected_flow, expected_reached = max_flow_reference(n, capacity, source, sink)
        assert flow == expected_flow
        assert set(reached) == set(expected_reached)
        inner = [e for e in capacity if e[0] != source and e[1] != sink]
        seen["saturated"] += any(flow[e] == capacity[e] > 0 for e in inner)
        seen["no arcs"] += not inner
        short = sum(supply.values()) - sum(flow[e] for e in capacity if e[0] == source)
        seen["cut" if short else "shipped"] += 1
    assert min(seen.values()) > 50, seen


def _block_case(rng):
    """Random supplies, rooms and arcs biased toward block shapes.

    Sinks fall into blocks; most sources reach all of one block, some the
    union of two (so sink sets overlap), some nothing.  Sources and sinks are
    shuffled, so sources with equal sink sets are seldom adjacent in supply
    order; supplies and rooms are often zero; some cases are random arcs.
    """
    sources = [f"x{i}" for i in range(rng.randint(0, 7))]
    sinks = [f"y{j}" for j in range(rng.randint(0, 7))]
    rng.shuffle(sources)
    rng.shuffle(sinks)
    supply = {x: rng.choice((0, rng.randint(1, 9))) for x in sources}
    room = {y: rng.choice((0, rng.randint(1, 9))) for y in sinks}
    if sinks and rng.random() < 0.7:
        blocks = rng.randint(1, 4)
        block = {y: rng.randrange(blocks) for y in sinks}
        arcs = []
        for x in sources:
            if rng.random() < 0.15:
                continue
            chosen = {rng.randrange(blocks) for _ in range(1 if rng.random() < 0.8 else 2)}
            arcs += [(x, y) for y in sinks if block[y] in chosen]
    else:
        p = rng.random()
        arcs = [(x, y) for x in sources for y in sinks if rng.random() < p]
    rng.shuffle(arcs)
    return supply, room, arcs


def _counted(monkeypatch, name):
    """Wrap transport.<name>; returns the list each call appends its arguments to."""
    calls = []
    real = getattr(transport, name)

    def call(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transport, name, call)
    return calls


def test_ship_matches_the_flow_on_every_network(monkeypatch):
    flows = _counted(monkeypatch, "_max_flow")
    seen = dict.fromkeys(("corner", "flow", "corner cut", "flow cut", "apart", "stranded", "unreached"), 0)
    rng = random.Random(61)
    for _ in range(3000):
        supply, room, arcs = _block_case(rng)
        before = len(flows)
        shipped, cut = ship(supply, room, arcs)
        expected_shipped, expected_cut = ship_reference(supply, room, arcs)
        assert cut == expected_cut
        assert shipped == expected_shipped
        if shipped is not None:
            assert list(shipped) == list(expected_shipped)
        path = "corner" if len(flows) == before else "flow"
        seen[path] += 1
        seen[path + " cut"] += cut is not None
        if path == "corner":
            reach = {x: frozenset(y for a, y in arcs if a == x) for x in supply}
            order = list(reach.values())
            seen["apart"] += any(
                order[i] and order[i] != order[i + 1] and order[i] in order[i + 2 :]
                for i in range(len(order) - 1)
            )
            seen["stranded"] += any(supply[x] and not ys for x, ys in reach.items())
            seen["unreached"] += bool(room.keys() - {y for _, y in arcs})
    assert min(seen.values()) >= 50, seen


def test_shortfall_is_the_cut_of_the_flow(monkeypatch):
    """`ship`'s cut, sources in supply order and the amount short, on every
    network; on block-shaped ones without `_flow`, so with no plan and no flow."""
    flows = _counted(monkeypatch, "_flow")
    seen = dict.fromkeys(("block cut", "block ships", "flow cut", "flow ships", "zero supply cut"), 0)
    rng = random.Random(67)
    for _ in range(3000):
        supply, room, arcs = _block_case(rng)
        reach = {x: frozenset(y for a, y in arcs if a == x) for x in supply}
        before = len(flows)
        cut = shortfall(supply, room, reach)
        assert cut == ship_reference(supply, room, arcs)[1]
        path = "block" if len(flows) == before else "flow"
        seen[f"{path} {'cut' if cut else 'ships'}"] += 1
        seen["zero supply cut"] += cut is not None and any(not w for w in supply.values())
    assert min(seen.values()) >= 50, seen


def test_each_call_tests_the_block_shape_once(monkeypatch):
    """`ship` and `shortfall` run `_blocks` once per call, on block-shaped
    networks and on the others, which go straight to the flow; their plans
    and cuts match one maximum flow by `max_flow_reference`."""
    blocks = _counted(monkeypatch, "_blocks")
    flows = _counted(monkeypatch, "_flow")
    rng = random.Random(71)
    for _ in range(1000):
        supply, room, arcs = _block_case(rng)
        reach = {x: frozenset(y for a, y in arcs if a == x) for x in supply}
        expected = ship_reference(supply, room, arcs)
        blocks.clear()
        assert ship(supply, room, arcs) == expected
        assert len(blocks) == 1
        blocks.clear()
        assert shortfall(supply, room, reach) == expected[1]
        assert len(blocks) == 1
    assert len(flows) > 200


def _renamed(c):
    """A copy of c on states d<s>."""
    f = {s: f"d{s}" for s in c.carrier}
    return coalgebra(c.kind, list(f.values()), {f[s]: relabel(t, f) for s, t in c.transition.items()})


def test_block_shaped_networks_run_no_flow(monkeypatch):
    flows = _counted(monkeypatch, "_max_flow")
    corners = _counted(monkeypatch, "_corner")
    for kind in (MULTISET_KIND, DISTRIBUTION_KIND):
        for seed in range(8):
            c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, min_states=3, max_states=6))
            d = _renamed(c)
            part, _ = certified_partition(c, d, auto_signature(c, d))
            assert {(s, f"d{s}") for s in c.carrier} <= part.cross_relation().pairs
            t_bisimulation_check(full_relation(c.carrier, d.carrier), c, d)
    assert flows == []
    assert len(corners) > 100


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
        margins = marginal(rows.items()), marginal(cols.items())
        plan = couple(*margins, cells)
        for _ in range(3):
            rng.shuffle(cells)
            assert couple(*margins, cells) == plan
        assert couple(*margins, set(cells)) == plan
        if plan is not None:
            feasible += 1
            den, shipped = plan
            assert all(w >= 0 for w in shipped.values())
            plan = {q: Fraction(w, den) for q, w in shipped.items()}
            for r, v in rows.items():
                assert sum(q for (x, _), q in plan.items() if x == r) == v
            for c, v in cols.items():
                assert sum(q for (_, y), q in plan.items() if y == c) == v
    assert 100 < feasible < 350
