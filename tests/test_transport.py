"""The one transport core against Edmonds-Karp as first written, the greedy
fill that leaves block-shaped networks no augmenting path, plans that do not
depend on the order of the cells, and a large network solved in little
memory."""

import random
import tracemalloc
from fractions import Fraction

import coalsim.transport as transport
from coalsim import (
    DISTRIBUTION_KIND,
    MULTISET_KIND,
    auto_signature,
    coalgebra,
    dist_value,
    full_relation,
    t_bisimulation_check,
)
from coalsim.behaviour import certified_partition
from coalsim.generators import GeneratorConfig, generate_coalgebra
from coalsim.liftings import hall_violator
from coalsim.transport import couple, shortfall
from coalsim.values import dist_value, relabel, state_key

from oracle_helpers import flow_network_reference, hall_violator_reference, max_flow_reference, ship_reference


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


def _reach(supply, arcs):
    """Each source's frozenset of sinks along the arcs."""
    reach = {x: set() for x in supply}
    for a, b in arcs:
        reach[a].add(b)
    return {x: frozenset(ys) for x, ys in reach.items()}


def _ship(supply, room, arcs):
    """The plan of `_solve` on the arcs, in the form of `ship_reference`:
    ({arc: amount}, None), every arc listed once in arc order, or (None, cut)."""
    cut, cells = transport._solve(supply, room, _reach(supply, arcs), True)
    if cut:
        return None, cut
    plan = dict(cells)
    return {arc: plan.get(arc, 0) for arc in arcs}, None


def _block_shaped(reach):
    """Are the sink sets pairwise equal or disjoint?"""
    sets = set(reach.values())
    return sum(map(len, sets)) == len(frozenset().union(*sets))


def test_max_flow_matches_the_reference_on_ship_networks():
    """`_solve` against Edmonds-Karp on the whole network: the same cut from
    either start, and with `plan` the same flow on every arc, listed source
    by source in supply order and each source's sinks in room order;
    without `plan` no cell is listed."""
    seen = {"cut": 0, "shipped": 0, "saturated": 0, "no arcs": 0, "empty": 0}
    rng = random.Random(47)
    for trial in range(2000):
        supply, room, arcs = _ship_case(rng, trial)
        seen["empty"] += not supply or not room
        n, capacity, edges = flow_network_reference(supply, room, arcs)
        source, sink = 0, n - 1
        flow, reached = max_flow_reference(n, capacity, source, sink)
        short = sum(supply.values()) - sum(flow[e] for e in capacity if e[0] == source)
        expected_cut = ([x for i, x in enumerate(supply, 1) if i in reached], short) if short else None
        rank = {arc: (list(supply).index(arc[0]), list(room).index(arc[1])) for arc in arcs}
        expected_cells = sorted(((arc, flow[e]) for e, arc in edges.items() if flow[e]), key=lambda c: rank[c[0]])
        reach = _reach(supply, arcs)
        for plan in (True, False):
            cut, cells = transport._solve(supply, room, reach, plan)
            assert cut == expected_cut
            if cut is not None or not plan:
                assert cells is None
            else:
                assert list(cells) == expected_cells
        inner = [e for e in capacity if e[0] != source and e[1] != sink]
        seen["saturated"] += any(flow[e] == capacity[e] > 0 for e in inner)
        seen["no arcs"] += not inner
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


def _paths(monkeypatch):
    """Wrap transport._augment; returns the list that each augmenting path it pushes appends to."""
    pushed = []
    real = transport._augment

    def call(*args):
        reached = real(*args)
        if reached is None:
            pushed.append(1)
        return reached

    monkeypatch.setattr(transport, "_augment", call)
    return pushed


def test_ship_matches_the_flow_on_every_network(monkeypatch):
    """Plans in arc order and cuts against one maximum flow on every network;
    block-shaped networks need no augmenting path, and the others, started
    from zero, replay Edmonds-Karp's paths."""
    paths = _paths(monkeypatch)
    seen = dict.fromkeys(
        ("corner", "flow", "corner cut", "flow cut", "apart", "stranded", "unreached", "augmented"), 0
    )
    rng = random.Random(61)
    for _ in range(3000):
        supply, room, arcs = _block_case(rng)
        before = len(paths)
        shipped, cut = _ship(supply, room, arcs)
        expected_shipped, expected_cut = ship_reference(supply, room, arcs)
        assert cut == expected_cut
        assert shipped == expected_shipped
        if shipped is not None:
            assert list(shipped) == list(expected_shipped)
        reach = _reach(supply, arcs)
        path = "corner" if _block_shaped(reach) else "flow"
        seen[path] += 1
        seen[path + " cut"] += cut is not None
        if path == "corner":
            assert len(paths) == before
            order = list(reach.values())
            seen["apart"] += any(
                order[i] and order[i] != order[i + 1] and order[i] in order[i + 2 :]
                for i in range(len(order) - 1)
            )
            seen["stranded"] += any(supply[x] and not ys for x, ys in reach.items())
            seen["unreached"] += bool(room.keys() - {y for _, y in arcs})
        else:
            seen["augmented"] += len(paths) > before
    assert min(seen.values()) >= 50, seen


def test_shortfall_is_the_cut_of_the_flow(monkeypatch):
    """The plan's cut, sources in supply order and the amount short, on every
    network, from the greedy fill; on block-shaped ones the fill is a
    maximum flow, so no augmenting path is left."""
    paths = _paths(monkeypatch)
    seen = dict.fromkeys(("block cut", "block ships", "flow cut", "flow ships", "zero supply cut"), 0)
    augmented = 0
    rng = random.Random(67)
    for _ in range(3000):
        supply, room, arcs = _block_case(rng)
        reach = _reach(supply, arcs)
        before = len(paths)
        cut = shortfall(supply, room, reach)
        assert cut == ship_reference(supply, room, arcs)[1]
        path = "block" if _block_shaped(reach) else "flow"
        if path == "block":
            assert len(paths) == before
        seen[f"{path} {'cut' if cut else 'ships'}"] += 1
        seen["zero supply cut"] += cut is not None and any(not w for w in supply.values())
        augmented += len(paths) > before
    assert min(seen.values()) >= 50, seen
    # Networks the fill left a path in: 19 to 34 over 30 hash seeds, since
    # the fill follows each sink set's iteration order.
    assert augmented >= 10


def test_each_call_solves_one_network(monkeypatch):
    """A plan and `shortfall` solve one network per call, on block-shaped
    networks and on the others, and only the plan asks for Edmonds-Karp's
    flow; their plans and cuts match one maximum flow by
    `max_flow_reference`."""
    solves = _counted(monkeypatch, "_solve")
    paths = _paths(monkeypatch)
    rng = random.Random(71)
    for _ in range(1000):
        supply, room, arcs = _block_case(rng)
        reach = _reach(supply, arcs)
        expected = ship_reference(supply, room, arcs)
        solves.clear()
        assert _ship(supply, room, arcs) == expected
        assert [args[3] for args in solves] == [True]
        solves.clear()
        assert shortfall(supply, room, reach) == expected[1]
        assert [args[3] for args in solves] == [False]
    assert len(paths) > 200


def test_any_hashable_labels_sources_and_sinks():
    """The second path runs back through sink -1 against source 0's flow,
    so no label may double as a marker in the search."""
    for supply, room, arcs in (
        ({0: 1, 1: 1}, {-1: 1, 2: 1}, [(0, -1), (0, 2), (1, -1)]),
        ({None: 2, -1: 1}, {None: 1, -1: 2}, [(None, None), (None, -1), (-1, None)]),
    ):
        expected = ship_reference(supply, room, arcs)
        assert _ship(supply, room, arcs) == expected
        assert shortfall(supply, room, _reach(supply, arcs)) == expected[1]


def _renamed(c):
    """A copy of c on states d<s>."""
    f = {s: f"d{s}" for s in c.carrier}
    return coalgebra(c.kind, list(f.values()), {f[s]: relabel(t, f) for s, t in c.transition.items()})


def test_block_shaped_networks_need_no_augmenting_path(monkeypatch):
    """Certificates on partition blocks and couplings of C x D: the greedy
    fill ships everything or leaves only the cut to find."""
    paths = _paths(monkeypatch)
    solves = _counted(monkeypatch, "_solve")
    for kind in (MULTISET_KIND, DISTRIBUTION_KIND):
        for seed in range(8):
            c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, min_states=3, max_states=6))
            d = _renamed(c)
            part, _ = certified_partition(c, d, auto_signature(c, d))
            assert {(s, f"d{s}") for s in c.carrier} <= part.cross_relation().pairs
            t_bisimulation_check(full_relation(c.carrier, d.carrier), c, d)
    assert paths == []
    assert sum(args[3] for args in solves) > 100


def _allowed(cells):
    """Each row's set of columns, built in the order of the cells."""
    allowed = {}
    for r, c in cells:
        allowed.setdefault(r, set()).add(c)
    return allowed


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
        values = dist_value(rows), dist_value(cols)
        plan = couple(*values, _allowed(cells))
        for _ in range(3):
            rng.shuffle(cells)
            again = couple(*values, _allowed(cells))
            assert again == plan
            assert plan is None or list(again[1]) == list(plan[1])
        assert couple(*values, _allowed(set(cells))) == plan
        if plan is not None:
            feasible += 1
            den, shipped = plan
            assert all(w > 0 for w in shipped.values())
            assert list(shipped) == sorted(shipped, key=state_key)
            assert set(shipped) <= set(cells)
            plan = {q: Fraction(w, den) for q, w in shipped.items()}
            for r, v in rows.items():
                assert sum(q for (x, _), q in plan.items() if x == r) == v
            for c, v in cols.items():
                assert sum(q for (_, y), q in plan.items() if y == c) == v
    assert 100 < feasible < 350


def test_a_thousand_sources_on_overlapping_sink_pairs_fit_in_little_memory():
    """Source i may ship to sinks i and i+1 (mod 1,000) of 1,000 + 1,000
    states, so the network is not block-shaped.  `hall_violator` and a plan
    each stay below 4 MiB of traced memory (an n*n residual list took
    32 MiB).  Their answers match the references and are checked here
    directly as well."""
    n = 1000
    weights = [1] * (n // 2) + [3] * (n // 2)
    t = dist_value({f"x{i}": Fraction(1, n) for i in range(n)})
    u = dist_value({f"y{i}": Fraction(w, sum(weights)) for i, w in enumerate(weights)})
    img = {f"x{i}": frozenset({f"y{i}", f"y{(i + 1) % n}"}) for i in range(n)}
    room = {f"y{i}": w for i, w in enumerate(weights)}
    supply = {f"x{i}": weights[(i + 1) % n] for i in range(n)}
    arcs = [(f"x{i}", f"y{j % n}") for i in range(n) for j in (i, i + 1)]
    tracemalloc.start()
    try:
        cut = hall_violator(t, u, img)
        violator_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        shipped, short = _ship(supply, room, arcs)
        ship_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violator_peak < 4 << 20 and ship_peak < 4 << 20, (violator_peak, ship_peak)
    assert cut == hall_violator_reference(t, u, img)
    assert (shipped, short) == ship_reference(supply, room, arcs)
    a, ta, ub = cut
    masses, mass = dict(t.entries), dict(u.entries)
    assert ta == sum(masses[x] for x in a) > ub == sum(mass[y] for y in frozenset().union(*map(img.get, a)))
    assert short is None and list(shipped) == arcs
    assert all(sum(shipped[x, y] for y in img[x]) == v for x, v in supply.items())
    assert all(shipped[f"x{j}", y] + shipped[f"x{(j - 1) % n}", y] <= room[y] for j, y in enumerate(room))
