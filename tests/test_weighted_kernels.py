"""The one-step kernels against their first implementations and the oracle:
`hall_violator` on integers and block totals, the per-kind `lifting_check`,
and couplings planned pair by pair by `transport.couple`."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

import coalsim.transport as transport
from coalsim import (
    DISTRIBUTION_KIND,
    INF,
    MULTISET_KIND,
    NEIGHBORHOOD_KIND,
    InfiniteWeightError,
    KindMismatchError,
    LambdaSignature,
    auto_signature,
    difunctional_closure,
    dist_value,
    full_relation,
    greatest_bisimulation,
    kripke_kind,
    kripke_value,
    multiset_value,
    nbhd_value,
    resolve_signature,
    t_bisim_up_to_difunctionality_check,
    t_bisimulation_check,
)
from coalsim.generators import GeneratorConfig, generate_coalgebra, random_relation
from coalsim.liftings import hall_violator, lifting_check
from coalsim.oracles import brute_force_simulation_oracle
from coalsim.values import DistValue

from oracle_helpers import hall_violator_reference, weighted_coupling_reference

LABELS = [f"s{i}" for i in range(8)]


def _weights(rng, support, dist):
    """Masses with mixed denominators summing to one, or naturals with some infinities."""
    if dist:
        raw = [Fraction(rng.randint(1, 6), rng.randint(1, 5)) for _ in support]
        return dist_value({s: r / sum(raw) for s, r in zip(support, raw)})
    p = rng.choice((0, 0.2, 0.5))
    return multiset_value({s: INF if rng.random() < p else rng.randint(1, 5) for s in support})


def _blocky_images(rng, sinks):
    """Images that are pairwise equal or disjoint: each state picks one group of a partition."""
    groups = [[] for _ in range(rng.randint(1, 4))]
    for y in sinks:
        groups[rng.randrange(len(groups))].append(y)
    groups.append([])  # some images are empty
    return {x: frozenset(rng.choice(groups)) for x in LABELS}


def _triple(rng, trial):
    """(t, u, img) biased towards infinite weights, mixed denominators, block
    images, overlapping images, empty supports and empty images."""
    dist = trial % 2 == 1
    low = 1 if dist else 0
    t = _weights(rng, rng.sample(LABELS, rng.randint(low, 6)), dist)
    u = _weights(rng, rng.sample(LABELS, rng.randint(low, 6)), dist)
    if rng.random() < 0.5:
        img = _blocky_images(rng, LABELS)
    else:
        p = rng.choice((0.1, 0.3, 0.6))
        img = {x: frozenset(y for y in LABELS if rng.random() < p) for x in LABELS}
    if not dist and trial % 10 == 0:
        # An infinite source whose image meets, or misses, an infinite sink.
        x, y = rng.choice(LABELS), rng.choice(LABELS)
        t = multiset_value({**dict(t.entries), x: INF})
        u = multiset_value({**dict(u.entries), y: INF})
        img[x] = frozenset({y} if rng.random() < 0.5 else set(LABELS) - {y})
    return t, u, img


def _network(t, u, img):
    """The finite sources the flow sees, and each one's finite sinks: the
    sources reaching no infinite sink, when no infinite source lacks one."""
    unbounded = {y for y, w in u.entries if w == INF}
    finite = {y for y, w in u.entries if w != INF}
    reach = {}
    for x, w in t.entries:
        if img[x] & unbounded:
            continue
        if w == INF:
            return None
        reach[x] = img[x] & finite
    return reach


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


def test_hall_violator_matches_the_flow_reference(monkeypatch):
    """Cut and masses, with their types, as the maximum flow found them; on
    blocks the greedy fill leaves no augmenting path."""
    paths = _paths(monkeypatch)
    augmented = 0
    seen = dict.fromkeys((
        "infinite source", "infinite source covered", "no supply", "block holds",
        "block cut", "flow holds", "flow cut", "mixed denominators", "empty image",
    ), 0)
    rng = random.Random(71)
    for trial in range(4000):
        t, u, img = _triple(rng, trial)
        before = len(paths)
        cut = hall_violator(t, u, img)
        expected = hall_violator_reference(t, u, img)
        assert cut == expected, (t, u, img)
        if cut is not None:
            assert [type(v) for v in cut] == [type(v) for v in expected]
        reach = _network(t, u, img)
        if reach is None:
            seen["infinite source"] += 1
            continue
        seen["infinite source covered"] += any(
            w == INF for x, w in t.entries if x not in reach
        )
        if not reach:
            seen["no supply"] += 1
            assert cut is None
            continue
        sinks = list(reach.values())
        block = all(a == b or not a & b for a, b in combinations(sinks, 2))
        if block:
            assert len(paths) == before
        augmented += len(paths) > before
        seen[("block " if block else "flow ") + ("cut" if cut else "holds")] += 1
        seen["mixed denominators"] += isinstance(t, DistValue) and len(
            {q.denominator for _, q in t.entries + u.entries}
        ) > 1
        seen["empty image"] += any(not ys for ys in sinks)
    assert min(seen.values()) >= 50, seen
    assert augmented >= 50, augmented  # pairs the fill left a path in: 133 to 167 over 30 hash seeds


def _shapes():
    """(literal or None, kind, generator options, resolve on a third model?) per signature shape."""
    for r in range(1, 4):
        for parts in combinations(("box", "diamond", "atoms"), r):
            yield "kripke:" + ",".join(parts), kripke_kind(("p", "q")), {}, False
    for kind in (kripke_kind(("p",)), MULTISET_KIND, DISTRIBUTION_KIND, NEIGHBORHOOD_KIND):
        yield None, kind, {}, False
    for literal in ("graded:0..0", "graded:0..1", "graded:0..2", "graded:auto"):
        yield literal, MULTISET_KIND, {"allow_infinite": True}, False
    yield "prob:auto-grid", DISTRIBUTION_KIND, {}, False
    yield "prob:auto-grid", DISTRIBUTION_KIND, {}, True
    yield "nbhd:box", NEIGHBORHOOD_KIND, {}, False


def test_compiled_check_matches_the_oracle_for_every_signature_shape():
    """Each pair's verdict, over a relation's pairs, against every subset of the carrier."""
    rng = random.Random(73)
    shapes = list(_shapes())
    verdicts = {}
    for trial in range(40 * len(shapes)):
        literal, kind, cfg, third = shapes[trial % len(shapes)]
        c, d, e = (
            generate_coalgebra(GeneratorConfig(seed=trial + k, kind=kind, max_states=4, **cfg))
            for k in (0, 5000, 8000)
        )
        sig = (
            LambdaSignature(kind, ()) if literal is None
            else resolve_signature(literal, [e] if third else [c, d])
        )
        s = random_relation(rng, c, d, density=rng.choice((0.3, 0.6, 0.9)))
        ok = lifting_check(sig)
        img = s.left_images()
        holds = all(ok(c.transition[x], d.transition[y], img) for x, y in s.pairs)
        assert holds == brute_force_simulation_oracle(s, c, d, sig), (literal, c, d, s)
        verdicts.setdefault((literal, kind.name, third), set()).add(holds)
    partial = [v for (literal, _, _), v in verdicts.items() if literal is not None]
    assert sum(v == {True, False} for v in partial) >= len(partial) - 1, verdicts


def test_compiled_check_rejects_values_of_another_kind():
    values = {
        "kripke": kripke_value(["p"], ["a"]),
        "multiset": multiset_value({"a": 2}),
        "distribution": dist_value({"a": 1}),
        "neighborhood": nbhd_value([["a"]]),
    }
    img = {"a": frozenset({"a"})}
    kinds = {"kripke": kripke_kind(("p",)), "multiset": MULTISET_KIND,
             "distribution": DISTRIBUTION_KIND, "neighborhood": NEIGHBORHOOD_KIND}
    sigs = {name: auto_signature(generate_coalgebra(GeneratorConfig(seed=0, kind=kind)))
            for name, kind in kinds.items()}
    for name, sig in sigs.items():
        ok = lifting_check(sig)
        own = values[name]
        assert ok(own, own, img) is True
        for other, v in values.items():
            if other == name:
                continue
            for t, u in ((v, own), (own, v), (v, v)):
                with pytest.raises(KindMismatchError):
                    ok(t, u, img)


def test_couplings_match_the_route_through_one_flow_per_pair():
    """Values, entry order and verdicts of the coupling search against per-pair flows."""
    rng = random.Random(79)
    found = {"coupled": 0, "none": 0, "infinite": 0}
    for trial in range(240):
        kind = (MULTISET_KIND, DISTRIBUTION_KIND)[trial % 2]
        c, d = (
            generate_coalgebra(GeneratorConfig(seed=trial + k, kind=kind, max_states=4,
                                               allow_infinite=trial % 6 == 0))
            for k in (0, 3000)
        )
        cases = [
            (full_relation(c.carrier, d.carrier), c, d),
            (random_relation(rng, c, d, density=0.6), c, d),
            (greatest_bisimulation(c, d, auto_signature(c, d)), c, d),
            (greatest_bisimulation(c, c, auto_signature(c, c)), c, c),
        ]
        for s, left, right in cases:
            for check, cells in ((t_bisimulation_check, s.pairs),
                                 (t_bisim_up_to_difunctionality_check, difunctional_closure(s).pairs)):
                try:
                    expected = weighted_coupling_reference(s, cells, left, right)
                except InfiniteWeightError as exc:
                    with pytest.raises(InfiniteWeightError, match=re.escape(str(exc))):
                        check(s, left, right)
                    found["infinite"] += 1
                    continue
                coupling = check(s, left, right)
                if expected is None:
                    assert coupling is None
                    found["none"] += 1
                else:
                    assert list(coupling.values) == expected
                    found["coupled"] += 1
    assert min(found.values()) >= 30, found
