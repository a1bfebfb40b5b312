import random
import tracemalloc
from fractions import Fraction

import pytest

import coalsim.behaviour as behaviour
from coalsim import (
    NEIGHBORHOOD_KIND,
    InfiniteWeightError,
    InternalCheckError,
    KindMismatchError,
    NotSeparatingError,
    Partition,
    QuotientUndefined,
    ValidationError,
    auto_signature,
    behavioural_equivalence,
    greatest_bisimulation,
    identity_relation,
    is_bisimulation,
    is_bisimulation_up_to_difunctionality,
    kripke_kind,
    n_step_partition,
    quotient_witness,
    relation,
    resolve_signature,
    stabilized_partition,
    t_bisim_up_to_difunctionality_check,
    t_bisimulation_check,
    values_equal,
    verify_coupling,
)
from coalsim.behaviour import Coupling
from coalsim.generators import (
    GeneratorConfig,
    generate_coalgebra,
    inflate_coalgebra,
    random_relation,
)
from coalsim.transport import couple
from coalsim.modelio import dump_json
from coalsim.relations import Relation, difunctional_closure
from coalsim.values import (
    INF, DistValue, MultisetValue, antichain, coalgebra, dist_value, integer_weights, kripke_value, multiset_value,
    nbhd_value, relabel,
)

from conftest import dist_model, kripke_model, multiset_model, nbhd_model
from oracle_helpers import all_relations, nbhd_coupling_reference, refinements_reference


def test_zero_step_partition_is_single_block(chain3_vs_chain2):
    c, d = chain3_vs_chain2
    p = n_step_partition(c, d, 0)
    assert len(p.blocks) == 1


def test_terminal_vs_live_split_at_depth_one():
    c = kripke_model({"x": []})
    d = kripke_model({"y": ["y"]})
    p0 = n_step_partition(c, d, 0)
    p1 = n_step_partition(c, d, 1)
    assert p0.left_ids["x"] == p0.right_ids["y"]
    assert p1.left_ids["x"] != p1.right_ids["y"]


def test_three_chain_vs_two_chain_splits_exactly_at_two(chain3_vs_chain2):
    c, d = chain3_vs_chain2
    p1, p2 = n_step_partition(c, d, 1), n_step_partition(c, d, 2)
    assert p1.left_ids["x0"] == p1.right_ids["y0"]
    assert p2.left_ids["x0"] != p2.right_ids["y0"]


def test_stabilized_partition_depth(chain3_vs_chain2):
    c, d = chain3_vs_chain2
    part, depth = stabilized_partition(c, d)
    assert depth <= len(c.carrier) + len(d.carrier)
    again = n_step_partition(c, d, depth)
    assert part.cross_relation().pairs == again.cross_relation().pairs


def test_behavioural_equivalence_contains_identity():
    c = kripke_model({"x": ["y"], "y": []}, atoms=["p"], props={"x": ["p"]})
    sig = auto_signature(c, c)
    assert identity_relation(c.carrier).pairs <= behavioural_equivalence(c, c, sig).pairs


def test_behavioural_equivalence_unfolding_classic():
    cyc = kripke_model(
        {"x0": ["x1"], "x1": ["x0"]}, atoms=["p"], props={"x0": ["p"], "x1": ["p"]}
    )
    loop = kripke_model({"y": ["y"]}, atoms=["p"], props={"y": ["p"]})
    sig = auto_signature(cyc, loop)
    assert behavioural_equivalence(cyc, loop, sig).pairs == {("x0", "y"), ("x1", "y")}


def test_behavioural_equivalence_graded_mass_merge():
    c = multiset_model({"x": {"u": 2}, "u": {}})
    d = multiset_model({"y": {"v": 1, "w": 1}, "v": {}, "w": {}})
    sig = auto_signature(c, d)
    pairs = behavioural_equivalence(c, d, sig).pairs
    assert ("x", "y") in pairs
    assert ("u", "v") in pairs and ("u", "w") in pairs


def test_behavioural_equivalence_requires_separating_signature():
    c = kripke_model({"x": []}, atoms=["p"])
    sig = resolve_signature("kripke:box", [c, c])
    with pytest.raises(NotSeparatingError):
        behavioural_equivalence(c, c, sig)


_KRIPKE = kripke_model({"x": ["x"]})
_MULTISET = multiset_model({"y": {"y": 2}})
_DISTRIBUTION = dist_model({"u": {"u": 1}})


@pytest.mark.parametrize("left,right,literal,sig_model,message", [
    (_MULTISET, _KRIPKE, "graded:auto", _MULTISET, "cannot compare a multiset model with a kripke model"),
    (_DISTRIBUTION, _MULTISET, "prob:auto-grid", _DISTRIBUTION,
     "cannot compare a distribution model with a multiset model"),
    (_KRIPKE, _KRIPKE, "graded:0..1", _MULTISET, "signature kind multiset does not match the models"),
], ids=["multiset-kripke", "distribution-multiset", "signature"])
def test_certified_answers_check_kinds_before_separation(
    monkeypatch, left, right, literal, sig_model, message
):
    """A separation check on models of two kinds read one model's values as the
    other's: an AttributeError, or a NotSeparatingError about a grid."""
    sig = resolve_signature(literal, [sig_model])

    def no_separation(*args):
        raise AssertionError("separation checked before the kinds")

    monkeypatch.setattr(behaviour, "ensure_separating", no_separation)
    for answer in (behavioural_equivalence, behaviour.certified_partition):
        with pytest.raises(KindMismatchError, match=message):
            answer(left, right, sig)


def test_quotient_witness_identity():
    c = kripke_model({"x": ["y"], "y": []})
    w = quotient_witness(identity_relation(c.carrier), c, c)
    assert len(w.blocks) == len(c.carrier)
    kappa_left = w.partition.left_ids
    for x in c.carrier:
        assert values_equal(relabel(c.transition[x], kappa_left), w.structure[kappa_left[x]])


def test_quotient_witness_succeeds_on_behavioural_equivalence():
    for seed in range(12):
        kind = (kripke_kind(("p",)), multiset_model({"u": {}}).kind)[seed % 2]
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=5))
        d = generate_coalgebra(GeneratorConfig(seed=seed + 3, kind=kind, max_states=5))
        sig = auto_signature(c, d)
        rel = behavioural_equivalence(c, d, sig)
        quotient_witness(rel, c, d)


def test_quotient_witness_fails_with_evidence():
    c = kripke_model({"x": []})
    d = kripke_model({"y": ["y"]})
    with pytest.raises(QuotientUndefined) as err:
        quotient_witness(relation(c.carrier, d.carrier, [("x", "y")]), c, d)
    assert err.value.value_a.succ != err.value.value_b.succ


def test_tbisim_kripke_canonical_candidate():
    c = kripke_model({"x": ["a", "b"], "a": [], "b": []})
    d = kripke_model({"y": ["c"], "c": []})
    s = relation(c.carrier, d.carrier, [("x", "y"), ("a", "c"), ("b", "c")])
    coupling = t_bisimulation_check(s, c, d)
    assert coupling is not None
    assert dict(coupling.values)[("x", "y")].succ == {("a", "c"), ("b", "c")}
    assert verify_coupling(coupling, s, c, d)


def test_tbisim_kripke_props_must_match():
    c = kripke_model({"x": []}, atoms=["p"], props={"x": ["p"]})
    d = kripke_model({"y": []}, atoms=["p"])
    s = relation(c.carrier, d.carrier, [("x", "y")])
    assert t_bisimulation_check(s, c, d) is None


def test_tbisim_isomorphism_graph():
    d1 = dist_model({"x": {"x": "1/2", "y": "1/2"}, "y": {"y": 1}})
    d2 = dist_model({"a": {"a": "1/2", "b": "1/2"}, "b": {"b": 1}})
    s = relation(d1.carrier, d2.carrier, [("x", "a"), ("y", "b")])
    coupling = t_bisimulation_check(s, d1, d2)
    assert coupling is not None and verify_coupling(coupling, s, d1, d2)


def test_tbisim_distribution_non_transportable():
    c = dist_model({"x": {"a": "1/2", "b": "1/2"}, "a": {"a": 1}, "b": {"b": 1}})
    d = dist_model({"y": {"c": 1}, "c": {"c": 1}})
    s = relation(c.carrier, d.carrier, [("x", "y"), ("a", "c")])
    assert t_bisimulation_check(s, c, d) is None


def test_tbisim_multiset_integer_flow():
    c = multiset_model({"x": {"u": 2}, "u": {}})
    d = multiset_model({"y": {"v": 1, "w": 1}, "v": {}, "w": {}})
    s = relation(
        c.carrier, d.carrier, [("x", "y"), ("u", "v"), ("u", "w")]
    )
    coupling = t_bisimulation_check(s, c, d)
    assert coupling is not None
    weights = dict(dict(coupling.values)[("x", "y")].entries)
    assert weights.get(("u", "v"), 0) + weights.get(("u", "w"), 0) == 2
    assert verify_coupling(coupling, s, c, d)


def test_tbisim_multiset_rejects_infinite_weights():
    c = multiset_model({"x": {"x": INF}})
    s = identity_relation(c.carrier)
    with pytest.raises(InfiniteWeightError):
        t_bisimulation_check(s, c, c)


def test_tbisim_neighborhood_search_and_budget():
    c = nbhd_model({"x": [["x"]]})
    d = nbhd_model({"y": [["y"]]})
    s = relation(c.carrier, d.carrier, [("x", "y")])
    coupling = t_bisimulation_check(s, c, d)
    assert coupling is not None and verify_coupling(coupling, s, c, d)
    big_c = nbhd_model({f"x{i}": [] for i in range(6)})
    big_d = nbhd_model({f"y{i}": [] for i in range(6)})
    full = relation(
        big_c.carrier, big_d.carrier, [(f"x{i}", f"y{i}") for i in range(6)]
    )
    coupling = t_bisimulation_check(full, big_c, big_d)
    assert coupling is not None and verify_coupling(coupling, full, big_c, big_d)
    # Six cells again, but x0's minimal set holds x6, which no cell relates.
    gap_c = nbhd_model({"x0": [["x6"]], **{f"x{i}": [] for i in range(1, 7)}})
    gap_d = nbhd_model({"y0": [["y6"]], **{f"y{i}": [] for i in range(1, 7)}})
    gap = relation(
        gap_c.carrier, gap_d.carrier, [(f"x{i}", f"y{i}") for i in range(6)]
    )
    assert t_bisimulation_check(gap, gap_c, gap_d) is None


def test_tbisim_neighborhood_decides_large_relations():
    n = 30
    c = nbhd_model({
        f"x{i}": [[f"x{(i + 1) % n}"], [f"x{(i + 2) % n}", f"x{(i + 3) % n}"]]
        for i in range(n)
    })
    d = nbhd_model({
        f"y{i}": [[f"y{(i + 1) % n}"], [f"y{(i + 2) % n}", f"y{(i + 3) % n}"]]
        for i in range(n)
    })
    diagonal = relation(c.carrier, d.carrier, [(f"x{i}", f"y{i}") for i in range(n)])
    coupling = t_bisimulation_check(diagonal, c, d)
    assert coupling is not None and verify_coupling(coupling, diagonal, c, d)

    states = range(10)
    c = nbhd_model({f"x{i}": [[f"x{j}"] for j in states] for i in states})
    d = nbhd_model({f"y{i}": [[f"y{j}"] for j in states] for i in states})
    full = relation(c.carrier, d.carrier, [(x, y) for x in c.carrier for y in d.carrier])
    coupling = t_bisimulation_check(full, c, d)
    assert coupling is not None and verify_coupling(coupling, full, c, d)


def test_canonical_nbhd_coupling_agrees_with_the_reference_search():
    rng = random.Random(61)
    compared = 0
    verdicts = set()
    seed = 0
    while compared < 3000:
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=NEIGHBORHOOD_KIND, max_states=3))
        d = generate_coalgebra(
            GeneratorConfig(seed=seed + 5000, kind=NEIGHBORHOOD_KIND, max_states=3)
        )
        seed += 1
        pool = [(x, y) for x in c.carrier for y in d.carrier]
        s = relation(c.carrier, d.carrier, rng.sample(pool, rng.randint(1, min(4, len(pool)))))
        cells = sorted(s.pairs, key=repr)
        p1 = {q: q[0] for q in cells}
        p2 = {q: q[1] for q in cells}
        img, cimg = s.left_images(), s.converse().left_images()
        rows = {x: [(x, y) for y in ys] for x, ys in img.items()}
        cols = {y: [(x, y) for x in xs] for y, xs in cimg.items()}
        coupled = True
        for x, y in cells:
            t, u = c.transition[x], d.transition[y]
            v = behaviour._canonical_coupling(t, u, img, rows, cols)
            found = values_equal(relabel(v, p1), t) and values_equal(relabel(v, p2), u)
            assert found == (nbhd_coupling_reference(t, u, cells) is not None), (c, d, s)
            verdicts.add(found)
            coupled = coupled and found
            compared += 1
        coupling = t_bisimulation_check(s, c, d)
        assert (coupling is not None) == coupled
        if coupling is not None:
            assert verify_coupling(coupling, s, c, d)
    assert verdicts == {True, False}


def test_nbhd_lambda_bisimulations_fail_coupling_only_on_uncovered_minimals():
    """Point (iii) on neighborhoods, where T does not preserve weak pullbacks.

    A Λ-bisimulation S under `nbhd:box` already has S[X] in u and S⁻¹[Y]
    in t for the minimal sets of each related pair; a coupling exists
    exactly when those minimal sets also lie within dom S and ran S.
    """
    outcomes = set()
    for seed in range(400):
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=NEIGHBORHOOD_KIND, max_states=3))
        d = generate_coalgebra(
            GeneratorConfig(seed=seed + 700, kind=NEIGHBORHOOD_KIND, max_states=3)
        )
        sig = resolve_signature("nbhd:box", [c, d])
        for s in all_relations(c.carrier, d.carrier):
            if not is_bisimulation(s, c, d, sig).holds:
                continue
            dom = {x for x, _ in s.pairs}
            ran = {y for _, y in s.pairs}
            uncovered = any(
                not m <= dom for x, _ in s.pairs for m in c.transition[x].minimals
            ) or any(
                not m <= ran for _, y in s.pairs for m in d.transition[y].minimals
            )
            assert (t_bisimulation_check(s, c, d) is None) == uncovered, (c, d, s)
            outcomes.add(uncovered)
    assert outcomes == {True, False}


def test_up_to_coupling_succeeds_whenever_plain_does():
    rng = random.Random(50)
    for seed in range(30):
        kind = (kripke_kind(("p",)), multiset_model({"u": {}}).kind, dist_model({"u": {"u": 1}}).kind)[seed % 3]
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=4))
        d = generate_coalgebra(GeneratorConfig(seed=seed + 9, kind=kind, max_states=4))
        s = random_relation(rng, c, d, density=0.35)
        plain = t_bisimulation_check(s, c, d)
        if plain is not None:
            assert t_bisim_up_to_difunctionality_check(s, c, d) is not None


def test_up_to_coupling_needs_the_closure_chain():
    c = dist_model(
        {"x": {"a": "3/4", "b": "1/4"}, "a": {"a": 1}, "b": {"b": 1}}
    )
    d = dist_model(
        {"y": {"c1": "1/4", "c2": "3/4"}, "c1": {"c1": 1}, "c2": {"c2": 1}}
    )
    s = relation(
        c.carrier,
        d.carrier,
        [("x", "y"), ("a", "c1"), ("b", "c1"), ("b", "c2")],
    )
    assert t_bisimulation_check(s, c, d) is None
    coupling = t_bisim_up_to_difunctionality_check(s, c, d)
    assert coupling is not None
    value = dict(coupling.values)[("x", "y")]
    assert ("a", "c2") in dict(value.entries)  # mass routed through the closure


def test_coupling_success_implies_lambda_bisimulation():
    rng = random.Random(8)
    for seed in range(40):
        kind = (kripke_kind(("p",)), multiset_model({"u": {}}).kind, dist_model({"u": {"u": 1}}).kind)[seed % 3]
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=4))
        d = generate_coalgebra(GeneratorConfig(seed=seed + 77, kind=kind, max_states=4))
        sig = auto_signature(c, d)
        s = random_relation(rng, c, d, density=0.4)
        if t_bisimulation_check(s, c, d) is not None:
            assert is_bisimulation(s, c, d, sig).holds
        if t_bisim_up_to_difunctionality_check(s, c, d) is not None:
            assert is_bisimulation_up_to_difunctionality(s, c, d, sig).holds


def test_difunctional_bisimulations_admit_couplings():
    for seed in range(30):
        kind = (kripke_kind(("p",)), multiset_model({"u": {}}).kind, dist_model({"u": {"u": 1}}).kind)[seed % 3]
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=5))
        d = generate_coalgebra(GeneratorConfig(seed=seed + 5, kind=kind, max_states=5))
        sig = auto_signature(c, d)
        gb = greatest_bisimulation(c, d, sig)
        assert gb.is_difunctional()
        assert t_bisimulation_check(gb, c, d) is not None


def test_stabilized_partition_relation_is_a_bisimulation():
    for seed in range(16):
        kind = (kripke_kind(("p",)), multiset_model({"u": {}}).kind,
                dist_model({"u": {"u": 1}}).kind, nbhd_model({"u": []}).kind)[seed % 4]
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=5))
        d = generate_coalgebra(GeneratorConfig(seed=seed + 41, kind=kind, max_states=5))
        sig = auto_signature(c, d)
        part, _ = stabilized_partition(c, d)
        assert is_bisimulation(part.cross_relation(), c, d, sig).holds


def _levels_to_stability(c, d):
    """The levels of `refinements_reference` up to the first that equals the next one."""
    levels = refinements_reference(c, d)
    seen = [next(levels)]
    for part in levels:
        if part.blocks == seen[-1].blocks:
            return seen
        seen.append(part)


def test_incremental_refinement_matches_the_level_by_level_partition():
    kinds = (kripke_kind(("p", "q")), multiset_model({"u": {}}).kind,
             dist_model({"u": {"u": 1}}).kind, nbhd_model({"u": []}).kind)
    rng = random.Random(7)
    depths = set()
    for seed in range(80):
        kind = kinds[seed % 4]
        cfg = GeneratorConfig(seed=seed, kind=kind, max_states=rng.choice((3, 6, 10)),
                              allow_infinite=seed % 8 == 1)
        a = generate_coalgebra(cfg)
        b = generate_coalgebra(GeneratorConfig(seed=seed + 57, kind=kind, max_states=cfg.max_states,
                                               allow_infinite=cfg.allow_infinite))
        for c, d in ((a, b), (a, a), (inflate_coalgebra(rng, a), inflate_coalgebra(rng, b))):
            levels = _levels_to_stability(c, d)
            depth = len(levels) - 1
            assert stabilized_partition(c, d) == (levels[-1], depth), (seed, kind.name)
            for n in range(depth + 3):
                assert n_step_partition(c, d, n) == levels[min(n, depth)], (seed, kind.name, n)
            depths.add(depth)
    assert {0, 1, 2, 3} <= depths


def _path_pair(n):
    """A path of n states and a copy of it."""
    c = kripke_model({f"x{i}": [f"x{i + 1}"] if i + 1 < n else [] for i in range(n)})
    d = kripke_model({f"y{i}": [f"y{i + 1}"] if i + 1 < n else [] for i in range(n)})
    return c, d


def _count_rekeying(monkeypatch):
    """Count what the weighted refinement's re-keying does: the in-edges of moved
    states whose weights it moves, the states it re-keys, and the blocks their keys read."""
    counts = {"edges": 0, "keys": 0, "entries": 0}
    shift, weight_key = behaviour._shift_weights, behaviour._weight_key

    def counted_shift(moved, pred, weights, cap):
        counts["edges"] += sum(len(pred[j]) for group, _, _ in moved for j in group)
        return shift(moved, pred, weights, cap)

    def counted_key(weights, blocks, cap):
        counts["keys"] += 1
        counts["entries"] += len(blocks)
        return weight_key(weights, blocks, cap)

    monkeypatch.setattr(behaviour, "_shift_weights", counted_shift)
    monkeypatch.setattr(behaviour, "_weight_key", counted_key)
    monkeypatch.setattr(behaviour, "relabel", None)  # the weighted keys never relabel
    return counts


def test_refinement_of_a_path_rekeys_only_predecessors_of_moved_states(monkeypatch):
    """A path of n states against a copy splits a block in each of n - 1 rounds.  Re-keying
    every state each round would take n * 2n keys; moving the weights of the moved states'
    in-edges and re-keying only their predecessors takes a few of each per state."""
    n = 60
    c, d = _path_pair(n)
    counts = _count_rekeying(monkeypatch)
    part, depth = stabilized_partition(c, d)
    assert depth == n - 1
    assert part.blocks == tuple(((f"x{i}",), (f"y{i}",)) for i in range(n))
    assert counts["edges"] <= 3 * 2 * n
    assert 2 * n + counts["keys"] <= 3 * 2 * n  # level 1 keys every state once


def test_deep_n_step_partition_of_a_path_rekeys_only_predecessors_of_moved_states(monkeypatch):
    """Level n - 1 of the path against its copy is the stable partition, reached with
    the same few edge updates and keys per state, not n - 1 rounds of re-keying every state."""
    n = 60
    c, d = _path_pair(n)
    counts = _count_rekeying(monkeypatch)
    part = n_step_partition(c, d, n - 1)
    assert part.blocks == tuple(((f"x{i}",), (f"y{i}",)) for i in range(n))
    assert counts["edges"] <= 3 * 2 * n
    assert 2 * n + counts["keys"] <= 3 * 2 * n


def _hub_chain(n, prefix):
    """A chain of n states and n hubs, each hub with every chain state as a successor."""
    chain = [f"{prefix}c{i}" for i in range(n)]
    succ = {s: chain[i + 1:i + 2] for i, s in enumerate(chain)}
    succ.update({f"{prefix}h{j}": chain for j in range(n)})
    return kripke_model(succ)


def test_hub_chain_refinement_costs_a_constant_per_edge(monkeypatch):
    """Each round splits one chain state off, and every hub on its side is a predecessor of it.
    A hub's relabelled value has n successors, so relabel keys cost n per hub per round, n³ in
    all; weight keys read only the two blocks a hub's one moved successor left and entered."""
    n = 30
    c, d = _hub_chain(n, "x"), _hub_chain(n, "y")
    edges = 2 * (n * n + n - 1)
    counts = _count_rekeying(monkeypatch)
    part, depth = stabilized_partition(c, d)
    assert depth == n - 1
    hubs = (tuple(f"xh{j}" for j in range(n)), tuple(f"yh{j}" for j in range(n)))
    assert part.blocks == tuple(((f"xc{i}",), (f"yc{i}",)) for i in range(n)) + (hubs,)
    assert counts["edges"] <= 2 * edges
    assert counts["entries"] <= 4 * edges < n ** 3
    assert part == _levels_to_stability(c, d)[-1]


def _random_weighted_value(rng, kind, states):
    """A Kripke, multiset (∞ weights included) or distribution value (denominators 2, 3, 4 or 6)."""
    support = rng.sample(states, rng.randint(0, 3) if kind != "distribution" else rng.randint(1, 3))
    if kind == "kripke":
        return kripke_value(rng.sample(("p", "q"), rng.randint(0, 1)), support)
    if kind == "multiset":
        return multiset_value({z: rng.choice((1, 1, 2, 3, INF)) for z in support})
    den = rng.choice((2, 3, 4, 6))
    cuts = sorted(rng.sample(range(1, den), min(len(support), den) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return dist_value({z: Fraction(w, den) for z, w in zip(support, parts)})


def test_weight_and_antichain_keys_group_values_as_relabelling_does():
    """Two values get equal keys under a block map exactly when their relabelled values are
    equal (`values_equal`): weight keys over every block for Kripke, multiset and distribution
    values, antichains of block-id sets for neighborhood values.  A neighborhood refinement's
    level-1 keys are the antichain keys with every state in block 0."""
    rng = random.Random(23)
    states = list(range(6))
    merged = 0
    for trial in range(300):
        kind = ("kripke", "multiset", "distribution", "neighborhood")[trial % 4]
        block = {z: rng.randrange(3) for z in states}
        if kind == "neighborhood":
            values = [nbhd_value(antichain(rng.sample(states, rng.randint(0, 2)) for _ in range(rng.randint(0, 3))))
                      for _ in range(8)]
            keys = [behaviour._antichain_key([list(m) for m in t.minimals], block) for t in values]
            model = coalgebra(NEIGHBORHOOD_KIND, range(8), dict(enumerate(values)))
            level_one, _ = behaviour._key_rule(model, model, [0] * 16, False)
            zero = dict.fromkeys(states, 0)
            assert list(level_one.values()) == 2 * [
                behaviour._antichain_key([list(m) for m in t.minimals], zero) for t in values
            ]
        else:
            values = [_random_weighted_value(rng, kind, states) for _ in range(8)]
            if kind == "kripke":  # 1 per successor, capped at 1, as `_key_rule` reads them
                cap, rows = 1, [dict.fromkeys(t.succ, 1) for t in values]
            else:
                cap, rows = behaviour._weight_rows(values, kind)
            keys = []
            for t, row in zip(values, rows):
                weights = {}
                for z, w in row.items():
                    weights[block[z]] = weights.get(block[z], 0) + w
                # Level 1 splits Kripke props; later keys compare block-mates, which agree on them.
                keys.append((getattr(t, "props", None), behaviour._weight_key(weights, range(3), cap)))
        for t, k in zip(values, keys):
            for u, m in zip(values, keys):
                same = values_equal(relabel(t, block), relabel(u, block))
                assert (k == m) == same, (kind, t, u, block)
                merged += same and not values_equal(t, u)
    assert merged >= 100  # many pairs are equal only after relabelling


def test_successful_up_to_couplings_are_behaviourally_sound():
    rng = random.Random(31)
    witnessed = 0
    for seed in range(40):
        kind = (kripke_kind(("p",)), multiset_model({"u": {}}).kind,
                dist_model({"u": {"u": 1}}).kind)[seed % 3]
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=4))
        d = generate_coalgebra(GeneratorConfig(seed=seed + 19, kind=kind, max_states=4))
        sig = auto_signature(c, d)
        candidates = [random_relation(rng, c, d, density=0.3)]
        gb = greatest_bisimulation(c, d, sig)
        candidates.append(gb)
        candidates.append(
            relation(c.carrier, d.carrier,
                     [p for p in gb.sorted_pairs() if rng.random() < 0.5])
        )
        for s in candidates:
            if t_bisim_up_to_difunctionality_check(s, c, d) is not None:
                witnessed += 1
                assert s.pairs <= behavioural_equivalence(c, d, sig).pairs
    assert witnessed >= 40  # the check is not vacuous


def test_feasible_transport_exactness():
    t = dist_value({"b": Fraction(1, 4), "a": Fraction(3, 4)})
    u = dist_value({"c": Fraction(1, 2), "d": Fraction(1, 2)})
    assert integer_weights(t, u) == (4, [{"a": 3, "b": 1}, {"c": 2, "d": 2}])
    plan = couple(t, u, {"a": {"c", "d"}, "b": {"d"}})
    assert plan == (4, {("a", "c"): 2, ("a", "d"): 1, ("b", "d"): 1})
    assert list(plan[1]) == [("a", "c"), ("a", "d"), ("b", "d")]
    assert couple(t, u, {"a": {"c", "d", "e"}, "b": {"c", "d"}}) == (4, {("a", "c"): 2, ("a", "d"): 1, ("b", "d"): 1})
    one, other = multiset_value({"a": 1}), multiset_value({"c": 1})
    assert couple(one, other, {}) is None
    assert couple(one, other, {"b": {"c"}}) is None
    assert couple(dist_value({"a": Fraction(1, 2)}), dist_value({"c": 1}), {"a": {"c"}}) is None
    assert couple(multiset_value({}), multiset_value({}), {}) == (1, {})
    assert couple(dist_value({}), dist_value({}), {}) == (1, {})


def test_verify_coupling_rejects_cells_outside_the_relation():
    """A value may only use the allowed cells: here (b, y), which s lacks."""
    c = multiset_model({"a": {"b": 1}, "b": {}})
    d = multiset_model({"x": {"y": 1}, "y": {}})
    s = relation(c.carrier, d.carrier, [("a", "x")])
    assert t_bisimulation_check(s, c, d) is None
    forged = Coupling(((("a", "x"), MultisetValue(((("b", "y"), 1),))),))
    assert not verify_coupling(forged, s, c, d)
    assert verify_coupling(forged, s, c, d, {"a": {"x"}, "b": {"y"}})


def test_verify_coupling_rejects_a_pair_listed_twice():
    """Each pair of s needs exactly one value."""
    c = multiset_model({"a": {"b": 1}, "b": {}})
    d = multiset_model({"x": {"y": 1}, "y": {}})
    s = relation(c.carrier, d.carrier, [("a", "x"), ("b", "y")])
    coupling = t_bisimulation_check(s, c, d)
    assert coupling is not None and verify_coupling(coupling, s, c, d)
    assert not verify_coupling(Coupling(coupling.values + coupling.values[:1]), s, c, d)
    assert not verify_coupling(Coupling(coupling.values[:1]), s, c, d)


def test_up_to_couplings_are_checked_over_the_difunctional_closure():
    """The up-to check couples a over x through (b2, y2), which only the
    closure holds, so it verifies over the closure and not over s."""
    c = multiset_model({"a": {"b2": 1}, "b": {}, "b2": {}})
    d = multiset_model({"x": {"y2": 1}, "y": {}, "y2": {}})
    s = relation(c.carrier, d.carrier, [("a", "x"), ("b", "y"), ("b", "y2"), ("b2", "y")])
    assert t_bisimulation_check(s, c, d) is None
    coupling = t_bisim_up_to_difunctionality_check(s, c, d)
    assert coupling is not None
    assert dict(coupling.values)[("a", "x")] == MultisetValue(((("b2", "y2"), 1),))
    assert verify_coupling(coupling, s, c, d, difunctional_closure(s).left_images())
    assert not verify_coupling(coupling, s, c, d)


def test_up_to_coupling_builds_no_closure_pairs():
    """A zigzag between two 1,000-state cycles has one closure block of a
    million pairs; the up-to search reads that block's images instead, so
    its traced peak stays under 8 MiB (about 100 MiB over the pairs)."""
    n = 1000
    c = kripke_model({f"x{i}": [f"x{(i + 1) % n}"] for i in range(n)})
    d = kripke_model({f"y{i}": [f"y{(i + 1) % n}"] for i in range(n)})
    zigzag = [(f"x{i}", f"y{i}") for i in range(n)] + [(f"x{i + 1}", f"y{i}") for i in range(n - 1)]
    s = relation(c.carrier, d.carrier, zigzag)
    tracemalloc.start()
    try:
        coupling = t_bisim_up_to_difunctionality_check(s, c, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coupling is not None and len(coupling.values) == 2 * n - 1
    assert peak <= 8 * 2**20, peak


def test_weighted_projections_are_exact_sums_with_infinity_absorbing():
    c = multiset_model({"a": {"b": INF}, "b": {}})
    d = multiset_model({"x": {"y": INF, "y2": 1}, "y": {}, "y2": {}})
    s = relation(c.carrier, d.carrier, [("a", "x"), ("b", "y"), ("b", "y2")])
    empty = MultisetValue(())

    def coupled(*cells):
        return Coupling(((("a", "x"), MultisetValue(cells)), (("b", "y"), empty), (("b", "y2"), empty)))

    assert verify_coupling(coupled((("b", "y"), INF), (("b", "y2"), 1)), s, c, d)
    assert not verify_coupling(coupled((("b", "y"), INF), (("b", "y2"), 2)), s, c, d)
    assert not verify_coupling(coupled((("b", "y"), 5), (("b", "y2"), 1)), s, c, d)
    left = dist_model({"a": {"b": "1/3", "c": "2/3"}, "b": {"b": 1}, "c": {"c": 1}})
    right = dist_model({"x": {"y": "1/2", "z": "1/2"}, "y": {"y": 1}, "z": {"z": 1}})
    s = relation(left.carrier, right.carrier, [("a", "x"), ("b", "y"), ("b", "z"), ("c", "y"), ("c", "z")])
    coupling = t_bisimulation_check(s, left, right)
    assert coupling is not None and verify_coupling(coupling, s, left, right)
    pair, rest = ("a", "x"), coupling.values[1:]
    assert coupling.values[0][0] == pair

    def at_a(*cells):
        return Coupling(((pair, DistValue(tuple((q, Fraction(w)) for q, w in cells))), *rest))

    assert verify_coupling(at_a((("b", "y"), "1/3"), (("c", "y"), "1/6"), (("c", "z"), "1/2")), s, left, right)
    assert verify_coupling(at_a((("b", "z"), "1/3"), (("c", "y"), "1/2"), (("c", "z"), "1/6")), s, left, right)
    assert not verify_coupling(at_a((("b", "y"), "1/3"), (("c", "z"), "2/3")), s, left, right)


def test_couple_refuses_infinite_weights():
    """`integer_weights` keeps an infinite multiset weight, and `couple`
    refuses it on either side, whatever the totals and allowed cells."""
    finite, infinite = multiset_value({"b": 2, "a": 0}), multiset_value({"a": 2, "b": INF})
    assert integer_weights(finite, infinite) == (1, [{"b": 2}, {"a": 2, "b": INF}])
    for t, u in ((finite, infinite), (infinite, finite), (infinite, infinite)):
        with pytest.raises(InfiniteWeightError, match="coupling search needs finite weights"):
            couple(t, u, {"a": {"a", "b"}, "b": {"a", "b"}})
    assert couple(finite, finite, {"b": {"b"}}) == (1, {("b", "b"): 2})


def test_a_plan_failing_its_projections_is_a_bug(monkeypatch):
    """A transportation plan passes `verify_coupling` by construction, so a
    plan with one unit moved to another cell raises InternalCheckError."""
    real = behaviour.couple

    def skewed(t, u, allowed):
        den, shipped = real(t, u, allowed)
        source = next(iter(shipped))
        target = next(q for q in shipped if q[1] != source[1])
        return den, {**shipped, source: shipped[source] - 1, target: shipped[target] + 1}

    monkeypatch.setattr(behaviour, "couple", skewed)
    for c in (
        multiset_model({"a": {"a": 1, "b": 1}, "b": {"a": 1, "b": 1}}),
        dist_model({"a": {"a": "1/2", "b": "1/2"}, "b": {"a": "1/2", "b": "1/2"}}),
    ):
        s = relation(c.carrier, c.carrier, [(x, y) for x in c.carrier for y in c.carrier])
        with pytest.raises(InternalCheckError, match="constructed coupling fails its projection equations"):
            t_bisimulation_check(s, c, c)


def test_a_plan_shipping_outside_the_relation_is_a_bug(monkeypatch):
    """Each weighted plan is checked on its integers before it becomes a
    value: a plan whose two cells trade targets keeps both projections but
    ships outside the identity's images, and raises InternalCheckError
    without any call of `verify_coupling`."""
    real = behaviour.couple
    crossed_plans = []

    def crossed(t, u, allowed):
        den, shipped = real(t, u, allowed)
        ((a, b), w), ((p, q), v) = shipped.items()
        assert w == v and q not in allowed[a] and b not in allowed[p]
        crossed_plans.append(shipped)
        return den, {(a, q): w, (p, b): v}

    def unreachable(*args):
        raise AssertionError("weighted plans are checked without verify_coupling")

    monkeypatch.setattr(behaviour, "couple", crossed)
    monkeypatch.setattr(behaviour, "verify_coupling", unreachable)
    for c in (
        multiset_model({"a": {"a": 1, "b": 1}, "b": {"a": 1, "b": 1}}),
        dist_model({"a": {"a": "1/2", "b": "1/2"}, "b": {"a": "1/2", "b": "1/2"}}),
    ):
        s = relation(c.carrier, c.carrier, [(x, x) for x in c.carrier])
        with pytest.raises(InternalCheckError, match="constructed coupling fails its projection equations"):
            t_bisimulation_check(s, c, c)
    assert len(crossed_plans) == 2


def _merged(part, i, j):
    """The partition with blocks i and j merged into one."""
    rest = tuple(b for k, b in enumerate(part.blocks) if k not in (i, j))
    (li, ri), (lj, rj) = part.blocks[i], part.blocks[j]
    return Partition(part.left, part.right, rest + ((li + lj, ri + rj),))


def _random_partition(rng, part):
    k = rng.randint(1, 3)
    groups = [([], []) for _ in range(k)]
    for blk in part.blocks:
        for side, states in enumerate(blk):
            for s in states:
                groups[rng.randrange(k)][side].append(s)
    blocks = tuple((tuple(ls), tuple(rs)) for ls, rs in groups if ls or rs)
    return Partition(part.left, part.right, blocks)


def test_spanning_pairs_decide_the_bisimulation_condition():
    kinds = (kripke_kind(("p",)), multiset_model({"u": {}}).kind,
             dist_model({"u": {"u": 1}}).kind, nbhd_model({"u": []}).kind)
    for kind in kinds:
        rng = random.Random(kind.name)
        verdicts = []
        for seed in range(12):
            c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=5))
            d = generate_coalgebra(GeneratorConfig(seed=seed + 23, kind=kind, max_states=5))
            sig = auto_signature(c, d)
            part, _ = stabilized_partition(c, d)
            candidates = [part, _random_partition(rng, part)]
            if len(part.blocks) >= 2:
                i, j = rng.sample(range(len(part.blocks)), 2)
                candidates.append(_merged(part, i, j))
            for k, cand in enumerate(candidates):
                rel = cand.cross_relation()
                assert len(cand.spanning_pairs()) <= len(c.carrier) + len(d.carrier)
                span = relation(c.carrier, d.carrier, cand.spanning_pairs())
                spanning = is_bisimulation_up_to_difunctionality(span, c, d, sig).holds
                full = is_bisimulation(rel, c, d, sig).holds
                assert spanning == full, (kind.name, seed, k)
                assert full or k > 0
                verdicts.append(full)
        assert False in verdicts, kind.name  # corrupted partitions do get rejected


def test_corrupted_partition_is_caught_by_the_certificate(monkeypatch):
    c = kripke_model({"x": [], "x1": ["x1"]})
    d = kripke_model({"y": ["y"]})
    sig = auto_signature(c, d)
    assert behavioural_equivalence(c, d, sig).pairs == {("x1", "y")}
    true_stabilized = behaviour.stabilized_partition

    def corrupted(c, d):
        part, depth = true_stabilized(c, d)
        i = next(k for k, (lefts, _) in enumerate(part.blocks) if "x" in lefts)
        j = next(k for k, (_, rights) in enumerate(part.blocks) if "y" in rights)
        return _merged(part, i, j), depth

    monkeypatch.setattr(behaviour, "stabilized_partition", corrupted)
    with pytest.raises(InternalCheckError, match="not a bisimulation"):
        behavioural_equivalence(c, d, sig)


def test_certified_partition_reuses_its_quotient_witness():
    c = kripke_model({"x0": ["x1"], "x1": ["x0"]})
    d = kripke_model({"y": ["y"]})
    sig = auto_signature(c, d)
    part, witness = behaviour.certified_partition(c, d, sig)
    rel = part.cross_relation()
    assert rel.pairs == behavioural_equivalence(c, d, sig).pairs
    assert witness.to_dict() == quotient_witness(rel, c, d).to_dict()


def test_quotient_witness_dict_takes_mixed_labels():
    """A library model may mix int and str labels; the witness lists them in `state_key` order."""
    c = coalgebra(kripke_kind(), [1, "a"], {1: kripke_value((), ["a"]), "a": kripke_value((), [1])})
    d = kripke_model({"y": ["y"]})
    _, witness = behaviour.certified_partition(c, d, auto_signature(c, d))
    doc = witness.to_dict()
    assert list(doc["kappa_left"].items()) == [("a", "b0"), ("1", "b0")]
    assert doc["kappa_right"] == {"y": "b0"}
    assert dump_json(doc).startswith('{"blocks": [{"left": [1, "a"], "right": ["y"]}], "kappa_left": {"1": "b0"')


def test_certified_partition_finds_the_spanning_components_once(monkeypatch):
    """Both certificates read one union-find of the spanning pairs, and both still run."""
    calls, reports = [], []
    components = Relation.components
    report = behaviour.bisimulation_report
    monkeypatch.setattr(Relation, "components", lambda s: calls.append(s) or components(s))
    monkeypatch.setattr(behaviour, "bisimulation_report", lambda *a: reports.append(a) or report(*a))
    for kind in (kripke_kind(("p",)), NEIGHBORHOOD_KIND, multiset_model({"u": {}}).kind):
        c = generate_coalgebra(GeneratorConfig(seed=3, kind=kind, max_states=5))
        d = generate_coalgebra(GeneratorConfig(seed=8, kind=kind, max_states=5))
        calls.clear()
        reports.clear()
        part, witness = behaviour.certified_partition(c, d, auto_signature(c, d))
        assert len(calls) == 1 and len(reports) == 1
        assert witness.partition == components(calls[0])


def test_nstep_partition_rejects_negative_depth(chain3_vs_chain2):
    with pytest.raises(ValidationError, match="depth"):
        n_step_partition(*chain3_vs_chain2, -1)


def test_partition_block_lookups_agree_with_blocks():
    c = kripke_model({"x0": ["x1"], "x1": [], "x2": ["x2"]})
    d = kripke_model({"y0": [], "y1": ["y1"]})
    part, _ = stabilized_partition(c, d)
    left_ids = {x: i for i, (lefts, _) in enumerate(part.blocks) for x in lefts}
    right_ids = {y: i for i, (_, rights) in enumerate(part.blocks) for y in rights}
    cross = part.cross_relation().pairs
    for x in c.carrier:
        for y in d.carrier:
            same = left_ids[x] == right_ids[y]
            assert (part.left_ids[x] == part.right_ids[y]) == same
            assert ((x, y) in cross) == same
    img, cimg = part.images()
    assert img == part.cross_relation().left_images()
    assert cimg == part.cross_relation().converse().left_images()


def test_couplings_check_each_pair_once(monkeypatch):
    """A coupled Kripke or neighborhood pair costs one relabel per projection."""
    calls = []

    def counted(v, f):
        calls.append(v)
        return relabel(v, f)

    monkeypatch.setattr(behaviour, "relabel", counted)
    rng = random.Random(67)
    coupled = 0
    for seed in range(40):
        kind = (kripke_kind(("p",)), NEIGHBORHOOD_KIND)[seed % 2]
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=4))
        for s in (identity_relation(c.carrier), random_relation(rng, c, c)):
            for check in (t_bisimulation_check, t_bisim_up_to_difunctionality_check):
                calls.clear()
                if check(s, c, c) is not None:
                    assert len(calls) == 2 * len(s)
                    coupled += 1
    assert coupled > 80
