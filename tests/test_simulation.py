import random

import pytest

from coalsim import (
    DIAMOND,
    auto_signature,
    behavioural_equivalence,
    difunctional_closure,
    evaluate,
    full_relation,
    greatest_bisimulation,
    greatest_simulation,
    identity_relation,
    is_bisimulation,
    is_bisimulation_up_to_difunctionality,
    is_n_bisimulation,
    is_n_simulation,
    is_simulation,
    kripke_kind,
    parse_formula,
    quotient_witness,
    relation,
    resolve_signature,
    t_bisim_up_to_difunctionality_check,
    t_bisimulation_check,
)
from coalsim.relations import Relation
from coalsim.generators import (
    GeneratorConfig,
    generate_coalgebra,
    inflate_coalgebra,
    random_relation,
)
from coalsim.properties import PROPERTIES, run_property_suite
from coalsim import behaviour, simulation
from coalsim.errors import BudgetError, KindMismatchError, ValidationError
from coalsim.liftings import LambdaSignature, at_least, more_than
from coalsim.oracles import simulation_chain
from coalsim.simulation import _level_one
from coalsim.values import DISTRIBUTION_KIND, MULTISET_KIND, NEIGHBORHOOD_KIND

from conftest import dist_model, generic_listing_empty, kripke_model, multiset_model, nbhd_model
from oracle_helpers import (
    all_relations,
    difunctional_closure_oracle,
    is_difunctional_oracle,
    kripke_bisimilarity_partition,
    n_simulation_sets,
    union_of_all_simulations,
)


def test_image_basics():
    s = relation(["a"], ["b", "c"], [])
    assert s.image({"a"}) == frozenset()
    s2 = relation(["a"], ["b", "c"], [("a", "b"), ("a", "c")])
    assert s2.image({"a"}) == {"b", "c"}
    assert relation(["a"], ["b"], [("a", "b")]).image({"a"}) == {"b"}


def test_relation_validation():
    with pytest.raises(ValidationError):
        relation(["a"], ["b"], [("a", "zz")])


def test_difunctional_closure_zigzag():
    s = relation(
        ["x1", "x2"], ["y1", "y2"], [("x1", "y1"), ("x2", "y1"), ("x2", "y2")]
    )
    closed = difunctional_closure(s)
    assert closed.pairs == {("x1", "y1"), ("x2", "y1"), ("x2", "y2"), ("x1", "y2")}
    assert difunctional_closure(closed).pairs == closed.pairs
    empty = relation(["x"], ["y"], [])
    assert difunctional_closure(empty).pairs == frozenset()
    assert closed.is_difunctional()
    assert not s.is_difunctional()


def test_difunctional_closure_matches_zigzag_oracle():
    rng = random.Random(20)
    checked = 0
    for trial in range(300):
        left = [f"x{i}" for i in range(rng.randint(1, 6))]
        # Every other block of trials reuses the left labels on the right.
        right = [f"{'yx'[trial // 4 % 2]}{i}" for i in range(rng.randint(1, 6))]
        density = (0.0, 0.1, 0.25, 0.5)[trial % 4]
        pairs = [(x, y) for x in left for y in right if rng.random() < density]
        s = relation(left, right, pairs)
        closed = difunctional_closure(s)
        assert closed == difunctional_closure_oracle(s)
        assert s.is_difunctional() == is_difunctional_oracle(s)
        assert closed.is_difunctional() and is_difunctional_oracle(closed)
        checked += not pairs
    assert checked > 0


def test_is_simulation_isomorphism_graph():
    c = kripke_model({"x": ["x"]})
    d = kripke_model({"y": ["y"]})
    sig = resolve_signature("kripke:diamond", [c, d])
    s = relation(c.carrier, d.carrier, [("x", "y")])
    assert is_simulation(s, c, d, sig).holds


def test_is_simulation_deadlock_witness():
    c = kripke_model({"x": ["x"]})
    d = kripke_model({"y": []})
    sig = resolve_signature("kripke:diamond", [c, d])
    report = is_simulation(relation(c.carrier, d.carrier, [("x", "y")]), c, d, sig)
    assert not report.holds
    v = report.violations[0]
    assert (v.left, v.right, v.modality, set(v.witness)) == ("x", "y", DIAMOND, {"x"})


def test_is_simulation_branch_merge_holds():
    c = kripke_model({"x": ["a", "b"], "a": [], "b": []})
    d = kripke_model({"y": ["c"], "c": []})
    sig = resolve_signature("kripke:box,diamond", [c, d])
    s = relation(c.carrier, d.carrier, [("x", "y"), ("a", "c"), ("b", "c")])
    assert is_simulation(s, c, d, sig).holds
    assert is_bisimulation(s, c, d, sig).holds


def test_bisimulation_of_morphism_graph_and_empty():
    two = kripke_model({"a": ["b"], "b": ["a"]})
    loop = kripke_model({"z": ["z"]})
    sig = auto_signature(two, loop)
    graph = relation(two.carrier, loop.carrier, [("a", "z"), ("b", "z")])
    assert is_bisimulation(graph, two, loop, sig).holds
    empty = relation(two.carrier, loop.carrier, [])
    assert is_bisimulation(empty, two, loop, sig).holds


def test_bisimulation_fails_on_converse_box_requirement():
    c = kripke_model({"x": ["a"], "a": []})
    d = kripke_model({"y": []})
    sig = resolve_signature("kripke:box", [c, d])
    s = relation(c.carrier, d.carrier, [("x", "y")])
    assert is_simulation(s, c, d, sig).holds
    report = is_bisimulation(s, c, d, sig)
    assert not report.holds
    assert all(v.direction == "backward" for v in report.violations)
    v = report.violations[0]
    assert (v.left, v.right, set(v.witness)) == ("y", "x", set())


def test_fast_paths_agree_with_generic_engine():
    rng = random.Random(42)
    kinds = [
        kripke_kind(("p", "q")),
        multiset_model({"u": {}}).kind,
        dist_model({"u": {"u": 1}}).kind,
        nbhd_model({"u": []}).kind,
    ]
    literal_pool = {
        "kripke": ["kripke:diamond", "kripke:box", "kripke:box,diamond,atoms"],
    }
    for trial in range(160):
        kind = kinds[trial % 4]
        cfg = GeneratorConfig(seed=trial, kind=kind, max_states=4)
        c = generate_coalgebra(cfg)
        d = generate_coalgebra(GeneratorConfig(seed=trial + 5000, kind=kind, max_states=4))
        sigs = [auto_signature(c, d)]
        if kind.name == "kripke":
            sigs = [resolve_signature(l, [c, d]) for l in literal_pool["kripke"]]
        s = random_relation(rng, c, d)
        for sig in sigs:
            assert (
                is_simulation(s, c, d, sig).holds
                == generic_listing_empty(s, c, d, sig)
            )


def test_verdicts_never_list_violations(monkeypatch):
    def listed(*args):
        raise AssertionError("a verdict listed violations")

    monkeypatch.setattr(simulation, "lifting_violations", listed)
    rng = random.Random(8)
    kinds = [kripke_kind(("p",)), multiset_model({"u": {}}).kind,
             dist_model({"u": {"u": 1}}).kind, nbhd_model({"u": []}).kind]
    verdicts = {True: 0, False: 0}
    for trial in range(40):
        kind = kinds[trial % 4]
        c = generate_coalgebra(GeneratorConfig(seed=trial, kind=kind, max_states=4))
        d = generate_coalgebra(GeneratorConfig(seed=trial + 900, kind=kind, max_states=4))
        sigs = [auto_signature(c, d)]
        if kind.name == "multiset":
            sigs.append(resolve_signature("graded:0..0", [c, d]))
        for sig in sigs:
            for s in (random_relation(rng, c, d), greatest_simulation(c, d, sig),
                      greatest_bisimulation(c, d, sig)):
                for check in (is_simulation, is_bisimulation,
                              is_bisimulation_up_to_difunctionality):
                    verdicts[check(s, c, d, sig).holds] += 1
        behavioural_equivalence(c, d, sigs[0])
    assert min(verdicts.values()) > 50
    for name in PROPERTIES:
        run_property_suite(name, 3, 0)


def test_greatest_simulation_contains_identity_and_deadlock_pairs():
    c = kripke_model({"x": ["y"], "y": []})
    sig = resolve_signature("kripke:diamond", [c, c])
    g = greatest_simulation(c, c, sig)
    assert identity_relation(c.carrier).pairs <= g.pairs
    assert ("y", "x") in g.pairs  # deadlock simulated by every state


def test_greatest_simulation_equals_union_oracle_on_tiny_models():
    for seed in range(8):
        for kind in (kripke_kind(()), multiset_model({"u": {}}).kind):
            c = generate_coalgebra(
                GeneratorConfig(seed=seed, kind=kind, max_states=3, max_weight=2)
            )
            d = generate_coalgebra(
                GeneratorConfig(seed=seed + 900, kind=kind, max_states=3, max_weight=2)
            )
            sig = auto_signature(c, d)
            assert (
                greatest_simulation(c, d, sig).pairs
                == union_of_all_simulations(c, d, sig).pairs
            )


def test_greatest_simulation_is_itself_a_simulation():
    for seed in range(12):
        kind = (kripke_kind(("p",)), dist_model({"u": {"u": 1}}).kind)[seed % 2]
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=5))
        d = generate_coalgebra(GeneratorConfig(seed=seed + 33, kind=kind, max_states=5))
        sig = auto_signature(c, d)
        g = greatest_simulation(c, d, sig)
        assert is_simulation(g, c, d, sig).holds


def test_greatest_bisimulation_matches_kripke_partition_refinement():
    for seed in range(25):
        cfg = GeneratorConfig(seed=seed, kind=kripke_kind(("p", "q")), max_states=6)
        c = generate_coalgebra(cfg)
        d = generate_coalgebra(GeneratorConfig(seed=seed + 111, kind=cfg.kind, max_states=6))
        sig = auto_signature(c, d)
        assert (
            greatest_bisimulation(c, d, sig).pairs
            == kripke_bisimilarity_partition(c, d).pairs
        )


def test_diamond_bisimulations_coincide_with_full_kripke_signature():
    # Converse duality: the forth condition on the converse relation is the
    # back condition, so diamond-only bisimulations already coincide with
    # box-and-diamond bisimulations on proposition-free models.
    for seed in range(15):
        cfg = GeneratorConfig(seed=seed, kind=kripke_kind(()), max_states=5)
        c = generate_coalgebra(cfg)
        d = generate_coalgebra(GeneratorConfig(seed=seed + 17, kind=cfg.kind, max_states=5))
        dia = resolve_signature("kripke:diamond", [c, d])
        both = resolve_signature("kripke:box,diamond", [c, d])
        assert greatest_bisimulation(c, d, dia).pairs == greatest_bisimulation(c, d, both).pairs


def test_diamond_greatest_simulation_strictly_larger_than_with_box():
    c = kripke_model({"x": []})
    d = kripke_model({"y": ["z"], "z": []})
    dia = resolve_signature("kripke:diamond", [c, d])
    both = resolve_signature("kripke:box,diamond", [c, d])
    dia_pairs = greatest_simulation(c, d, dia).pairs
    both_pairs = greatest_simulation(c, d, both).pairs
    assert both_pairs < dia_pairs
    assert ("x", "y") in dia_pairs and ("x", "y") not in both_pairs


def test_n_simulation_chain_shape():
    c = kripke_model({"x": ["x"]})
    d = kripke_model({"y": []})
    sig = resolve_signature("kripke:diamond", [c, d])
    chain = [greatest_simulation(c, d, sig, k) for k in range(4)]
    assert len(chain) == 4
    assert chain[0].pairs == full_relation(c.carrier, d.carrier).pairs
    for earlier, later in zip(chain, chain[1:]):
        assert later.pairs <= earlier.pairs


def test_depth_three_distinction_on_four_chain():
    c = kripke_model({"x0": ["x1"], "x1": ["x2"], "x2": ["x3"], "x3": []})
    d = kripke_model({"y0": ["y1"], "y1": ["y2"], "y2": []})
    sig = resolve_signature("kripke:box,diamond", [c, d])
    assert ("x0", "y0") in greatest_simulation(c, d, sig, 2).pairs
    assert ("x0", "y0") not in greatest_simulation(c, d, sig, 3).pairs
    # independent evidence: a rank-3 positive formula separates the states
    probe = parse_formula("<> <> <> true", sig)
    assert evaluate(probe, c, "x0") and not evaluate(probe, d, "y0")
    assert is_n_simulation(relation(c.carrier, d.carrier, [("x0", "y0")]), c, d, sig, 2)
    assert not is_n_simulation(
        relation(c.carrier, d.carrier, [("x0", "y0")]), c, d, sig, 3
    )


def test_any_relation_is_a_0_simulation():
    c = kripke_model({"x": ["x"]})
    d = kripke_model({"y": []})
    sig = auto_signature(c, d)
    assert is_n_simulation(full_relation(c.carrier, d.carrier), c, d, sig, 0)
    g = greatest_simulation(c, d, sig)
    for n in range(4):
        assert is_n_simulation(g, c, d, sig, n)


def test_n_simulation_chain_matches_recursive_definition_on_tiny_models():
    for seed in range(6):
        cfg = GeneratorConfig(seed=seed, kind=kripke_kind(()), max_states=2)
        c = generate_coalgebra(cfg)
        d = generate_coalgebra(GeneratorConfig(seed=seed + 50, kind=cfg.kind, max_states=2))
        sig = resolve_signature("kripke:box,diamond", [c, d])
        levels = n_simulation_sets(c, d, sig, 3)
        for n in range(4):
            greatest = greatest_simulation(c, d, sig, n)
            for s in all_relations(c.carrier, d.carrier):
                assert (s.pairs in levels[n]) == (s.pairs <= greatest.pairs)


def test_up_to_difunctionality_examples():
    c = kripke_model({"x": ["a", "b"], "a": [], "b": []})
    d = kripke_model({"y": ["c"], "c": []})
    sig = resolve_signature("kripke:box,diamond", [c, d])
    bisim = relation(c.carrier, d.carrier, [("x", "y"), ("a", "c"), ("b", "c")])
    assert is_bisimulation_up_to_difunctionality(bisim, c, d, sig).holds
    sub = relation(c.carrier, d.carrier, [("a", "c")])
    assert is_bisimulation_up_to_difunctionality(sub, c, d, sig).holds


def test_up_to_difunctionality_matches_closure_check_randomly():
    rng = random.Random(7)
    kinds = [
        kripke_kind(("p",)),
        multiset_model({"u": {}}).kind,
        dist_model({"u": {"u": 1}}).kind,
        nbhd_model({"u": []}).kind,
    ]
    failures_seen = 0
    for trial in range(120):
        kind = kinds[trial % 4]
        c = generate_coalgebra(GeneratorConfig(seed=trial, kind=kind, max_states=4))
        d = generate_coalgebra(GeneratorConfig(seed=trial + 71, kind=kind, max_states=4))
        sig = auto_signature(c, d)
        s = random_relation(rng, c, d)
        up_to = is_bisimulation_up_to_difunctionality(s, c, d, sig).holds
        closed = is_bisimulation(difunctional_closure(s), c, d, sig).holds
        assert up_to == closed
        failures_seen += not up_to
    assert failures_seen  # the random pool exercises both verdicts


def test_greatest_bisimulation_is_equivalence_on_self():
    for seed in range(10):
        kind = (kripke_kind(("p",)), multiset_model({"u": {}}).kind)[seed % 2]
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=5))
        sig = auto_signature(c)
        g = greatest_bisimulation(c, c, sig)
        pairs = g.pairs
        assert identity_relation(c.carrier).pairs <= pairs
        assert all((y, x) in pairs for x, y in pairs)
        assert all(
            (x, z) in pairs for x, y in pairs for y2, z in pairs if y2 == y
        )


def test_n_bisimulation_synchronized_chain_is_sound():
    for seed in range(10):
        kind = (kripke_kind(("p",)), nbhd_model({"u": []}).kind)[seed % 2]
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=4))
        d = generate_coalgebra(GeneratorConfig(seed=seed + 13, kind=kind, max_states=4))
        sig = auto_signature(c, d)
        g = greatest_bisimulation(c, d, sig)
        for n in range(4):
            assert is_n_bisimulation(g, c, d, sig, n)
            assert greatest_bisimulation(c, d, sig, n + 1).pairs <= greatest_bisimulation(
                c, d, sig, n
            ).pairs


def test_violation_reports_are_capped_but_verdict_exact():
    c = kripke_model({f"x{i}": [f"x{(i+1) % 12}"] for i in range(12)})
    d = kripke_model({f"y{i}": [] for i in range(12)})
    sig = resolve_signature("kripke:diamond", [c, d])
    report = is_simulation(full_relation(c.carrier, d.carrier), c, d, sig)
    assert not report.holds
    assert len(report.violations) == 100


def _fixpoint_instances():
    """Seeded pairs of all four kinds, each with the signatures it is decided under."""
    kinds = [
        kripke_kind(("p",)),
        multiset_model({"u": {}}).kind,
        dist_model({"u": {"u": 1}}).kind,
        nbhd_model({"u": []}).kind,
    ]
    literals = {
        "kripke": ["kripke:box", "kripke:diamond", "kripke:atoms", "kripke:diamond,atoms"],
        "multiset": ["graded:0..0", "graded:0..1"],
    }
    for seed in range(40):
        kind = kinds[seed % 4]
        infinite = kind.name == "multiset" and seed % 8 == 1
        c = generate_coalgebra(
            GeneratorConfig(seed=seed, kind=kind, max_states=6, allow_infinite=infinite)
        )
        d = generate_coalgebra(
            GeneratorConfig(seed=seed + 57, kind=kind, max_states=6, allow_infinite=infinite)
        )
        yield c, d, auto_signature(c, d)
        for literal in literals.get(kind.name, ()):
            yield c, d, resolve_signature(literal, [c, d])


def test_greatest_answers_equal_the_reference_chain():
    """The worklist reaches the limit of the round-by-round chain from the full relation."""
    shrank = 0
    for c, d, sig in _fixpoint_instances():
        for both, greatest in ((False, greatest_simulation), (True, greatest_bisimulation)):
            expected = simulation_chain(c, d, sig, both=both)
            assert greatest(c, d, sig) == expected, (c, d, sig, both)
            shrank += len(expected) < len(c.carrier) * len(d.carrier)
    assert shrank > 100


def test_level_one_on_the_point_equals_the_reference_first_round():
    shrank = 0
    for c, d, sig in _fixpoint_instances():
        first = {both: simulation_chain(c, d, sig, 1, both) for both in (False, True)}
        assert _level_one(c, d, sig) == first[False].left_images(), (c, d, sig)
        shrank += sum(len(rel) < len(c.carrier) * len(d.carrier) for rel in first.values())
        assert greatest_simulation(c, d, sig, 1) == first[False]
        assert greatest_bisimulation(c, d, sig, 1) == first[True]
    assert shrank > 100


def test_path_greatest_simulation_makes_quadratically_many_pair_checks(monkeypatch):
    """A 200+200 path: the round-by-round chain made 2,706,600 pair checks here."""
    n = 200

    def path(prefix):
        states = [f"{prefix}{i}" for i in range(n)]
        return kripke_model({s: states[i + 1 : i + 2] for i, s in enumerate(states)})

    c, d = path("x"), path("y")
    checks = 0
    real = simulation.lifting_check

    def counted(sig):
        ok = real(sig)

        def check(t, u, img):
            nonlocal checks
            checks += 1
            return ok(t, u, img)

        return check

    monkeypatch.setattr(simulation, "lifting_check", counted)
    for literal, expected in (
        ("kripke:box,diamond", {(f"x{i}", f"y{i}") for i in range(n)}),
        ("kripke:diamond", {(f"x{i}", f"y{j}") for i in range(n) for j in range(i + 1)}),
    ):
        checks = 0
        sig = resolve_signature(literal, [c, d])
        assert greatest_simulation(c, d, sig).pairs == expected
        assert checks <= 2 * n * n, (literal, checks)


def test_every_chain_level_equals_the_reference_chain():
    """Levels 0..4 of both depth-n answers, not only level 1 and the limit."""
    shrank = 0
    for c, d, sig in _fixpoint_instances():
        expected = {
            both: [simulation_chain(c, d, sig, k, both) for k in range(5)] for both in (False, True)
        }
        for k, rel in enumerate(expected[False]):
            assert greatest_simulation(c, d, sig, k) == rel, (c, d, sig, k)
        for k, rel in enumerate(expected[True]):
            assert greatest_bisimulation(c, d, sig, k) == rel, (c, d, sig, k)
        shrank += expected[False][2] != expected[False][1]
        shrank += expected[True][2] != expected[True][1]
    assert shrank > 50


def test_path_depth_n_chains_make_quadratically_many_pair_checks(monkeypatch):
    """A 200+200 path: re-checking every surviving pair made millions of pair checks."""
    n = 200

    def path(prefix):
        states = [f"{prefix}{i}" for i in range(n)]
        return kripke_model({s: states[i + 1 : i + 2] for i, s in enumerate(states)})

    c, d = path("x"), path("y")
    sig = resolve_signature("kripke:box,diamond", [c, d])
    checks = 0
    real = simulation.lifting_check

    def counted(sig):
        ok = real(sig)

        def check(t, u, img):
            nonlocal checks
            checks += 1
            return ok(t, u, img)

        return check

    monkeypatch.setattr(simulation, "lifting_check", counted)
    monkeypatch.setattr(behaviour, "lifting_check", counted)
    diagonal = {(f"x{i}", f"y{i}") for i in range(n)}
    assert greatest_simulation(c, d, sig, n // 2).pairs != diagonal
    checks = 0
    assert greatest_simulation(c, d, sig, n).pairs == diagonal
    assert checks <= 2 * n * n, checks
    checks = 0
    assert greatest_bisimulation(c, d, sig, n).pairs == diagonal
    assert checks <= 2 * n * n, checks


def _inflated_instances():
    """Inflated pairs of all four kinds, each under a separating signature and
    one that need not separate: `kripke:diamond`, `graded:0..0`, a hand-built
    probability grid, and neighborhoods under no modality at all."""
    partial = {
        "kripke": lambda c, d: resolve_signature("kripke:diamond", [c, d]),
        "multiset": lambda c, d: resolve_signature("graded:0..0", [c, d]),
        "distribution": lambda c, d: LambdaSignature(
            DISTRIBUTION_KIND, (at_least("1/2"), more_than("1/4"), at_least(1))
        ),
        "neighborhood": lambda c, d: LambdaSignature(NEIGHBORHOOD_KIND, ()),
    }
    kinds = [kripke_kind(("p", "q")), MULTISET_KIND, DISTRIBUTION_KIND, NEIGHBORHOOD_KIND]
    for seed in range(60):
        kind = kinds[seed % 4]
        rng = random.Random(seed)
        cfg = GeneratorConfig(seed=seed, kind=kind, max_states=5, allow_infinite=seed % 8 == 1)
        base_c = generate_coalgebra(cfg)
        base_d = generate_coalgebra(GeneratorConfig(
            seed=seed + 91, kind=kind, max_states=5, allow_infinite=cfg.allow_infinite
        ))
        c = inflate_coalgebra(rng, base_c)
        d = inflate_coalgebra(rng, base_c if seed % 3 else base_d)
        yield c, d, auto_signature(c, d)
        yield c, d, partial[kind.name](c, d)


def test_quotient_simulation_equals_the_direct_chain():
    merged = nontrivial = infinite = 0
    for c, d, sig in _inflated_instances():
        direct = simulation_chain(c, d, sig)
        assert greatest_simulation(c, d, sig) == direct, (c, d, sig)
        blocks = behaviour.stabilized_partition(c, d)[0].blocks
        merged += any(len(ls) > 1 or len(rs) > 1 for ls, rs in blocks)
        nontrivial += 0 < len(direct) < len(c.carrier) * len(d.carrier)
        infinite += any(w == float("inf") for t in c.transition.values()
                        if c.kind == MULTISET_KIND for _, w in t.entries)
    assert merged > 100 and nontrivial > 30 and infinite > 5


def test_quotient_route_builds_quotients_only_when_the_partition_merges(monkeypatch):
    built = []
    quotient = simulation._quotient
    monkeypatch.setattr(simulation, "_quotient", lambda m, *a: built.append(m) or quotient(m, *a))
    c = kripke_model({"x0": ["x1"], "x1": []})
    d = kripke_model({"y0": ["y1"], "y1": ["y2"], "y2": []})
    sig = auto_signature(c, d)
    assert greatest_simulation(c, d, sig) == simulation_chain(c, d, sig)
    assert built == []
    c = kripke_model({"x": ["a", "b"], "a": [], "b": []})
    assert greatest_simulation(c, d, sig) == simulation_chain(c, d, sig)
    assert built == [c, d]


@pytest.mark.parametrize("check", [
    lambda s, c, d, sig: is_simulation(s, c, d, sig),
    lambda s, c, d, sig: is_bisimulation(s, c, d, sig),
    lambda s, c, d, sig: is_bisimulation_up_to_difunctionality(s, c, d, sig),
    lambda s, c, d, sig: is_n_simulation(s, c, d, sig, 1),
    lambda s, c, d, sig: is_n_bisimulation(s, c, d, sig, 1),
    lambda s, c, d, sig: t_bisimulation_check(s, c, d),
    lambda s, c, d, sig: t_bisim_up_to_difunctionality_check(s, c, d),
    lambda s, c, d, sig: quotient_witness(s, c, d),
], ids=["is_simulation", "is_bisimulation", "is_bisimulation_up_to_difunctionality",
        "is_n_simulation", "is_n_bisimulation", "t_bisimulation_check",
        "t_bisim_up_to_difunctionality_check", "quotient_witness"])
@pytest.mark.parametrize("stray", [("x", "ghost"), ("ghost", "y")], ids=["right", "left"])
def test_relation_checks_reject_pairs_outside_the_carriers(check, stray):
    """A hand-built relation naming a state outside its carriers raised KeyError,
    returned False, or reported a misleading QuotientUndefined."""
    c = kripke_model({"x": ["x"]})
    d = kripke_model({"y": ["y"]})
    s = Relation(c.carrier, d.carrier, frozenset({("x", "y"), stray}))
    with pytest.raises(ValidationError, match=r"pairs outside the carriers: \[\(.*ghost"):
        check(s, c, d, auto_signature(c, d))


class _CountedState(str):
    """A state label that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        _CountedState.hashes += 1
        return str.__hash__(self)


def test_a_relation_is_checked_against_its_carriers_once():
    """`relation` checks the pairs; the command's check of the same relation does not scan them again."""
    x, y = _CountedState("x"), _CountedState("y")
    c, d = kripke_model({"x": ["x"]}), kripke_model({"y": ["y"]})
    checked, hand_built = relation([x], [y], [(x, y)]), Relation((x,), (y,), frozenset({(x, y)}))
    for s, scans in ((checked, 0), (hand_built, 4), (hand_built, 0)):
        _CountedState.hashes = 0
        simulation.check_setup(s, c, d)
        assert _CountedState.hashes == scans  # a scan hashes each carrier state and each pair's two
    assert is_simulation(checked, c, d, auto_signature(c, d)).holds


def test_quotient_route_checks_kinds_before_any_partition_work(monkeypatch):
    def no_partition(*args):
        raise AssertionError("partition work before the kind checks")

    monkeypatch.setattr(behaviour, "stabilized_partition", no_partition)
    monkeypatch.setattr(behaviour, "_refine", no_partition)
    c = kripke_model({"x": ["x"]})
    d = multiset_model({"y": {"y": 1}})
    with pytest.raises(KindMismatchError, match="cannot compare a kripke model with a multiset"):
        greatest_simulation(c, d, auto_signature(c))
    with pytest.raises(KindMismatchError, match="signature kind multiset does not match"):
        greatest_simulation(c, c, auto_signature(d))
    with pytest.raises(ValidationError, match="depth must be a natural number, got -1"):
        simulation.simulation_rows(c, c, auto_signature(c), n=-1)
    with pytest.raises(ValidationError, match="depth must be a natural number, got -1"):
        behaviour.n_step_partition(c, c, -1, auto_signature(c))
    monkeypatch.undo()
    with pytest.raises(KindMismatchError, match="cannot compare a kripke model with a multiset"):
        behaviour.stabilized_partition(c, d)
    with pytest.raises(KindMismatchError, match="cannot compare a kripke model with a multiset"):
        greatest_bisimulation(c, d, auto_signature(c))
    with pytest.raises(KindMismatchError, match="signature kind multiset does not match"):
        greatest_bisimulation(c, c, auto_signature(d))


def test_hub_chain_bisimulation_on_the_quotient_makes_few_pair_checks(monkeypatch):
    """A chain x0 -> ... -> x29 with an atom on x29, and 30 hubs that see every
    chain state, on both sides.  `kripke:box,diamond` leaves the atom out, so
    it does not separate, and the greatest bisimulation comes from the
    signature-keyed partition.  Equal keys are never compared, and each
    distinct key is compared with one key per class of its block; the direct
    both-way chain made 54,758 pair checks here."""
    n = 30

    def hub_chain(prefix):
        chain = [f"{prefix}{i}" for i in range(n)]
        succ = {s: chain[i + 1 : i + 2] for i, s in enumerate(chain)}
        succ.update({f"{prefix}h{j}": chain for j in range(n)})
        return kripke_model(succ, atoms=["p"], props={chain[-1]: ["p"]})

    c, d = hub_chain("x"), hub_chain("y")
    sig = resolve_signature("kripke:box,diamond", [c, d])
    expected = simulation_chain(c, d, sig, both=True)
    checks = 0
    real = simulation.lifting_check

    def counted(sig):
        ok = real(sig)

        def check(t, u, img):
            nonlocal checks
            checks += 1
            return ok(t, u, img)

        return check

    monkeypatch.setattr(behaviour, "lifting_check", counted)
    assert greatest_bisimulation(c, d, sig) == expected
    assert checks <= 200, checks


def test_quotient_bases_stay_within_the_exhaustive_bound(monkeypatch):
    """Twenty equivalent successors are one quotient state: under `graded:0..0`
    the direct chain must search the subsets of all twenty and raises
    BudgetError at the default bound, the quotient route answers.  The
    bisimulation partition relabels by blocks, so it answers too."""
    zs = [f"z{i}" for i in range(20)]
    c = multiset_model({"x": dict.fromkeys(zs, 1), "q": {}, **{z: {"q": 1} for z in zs}})
    d = multiset_model({"y": {"w": 1, "v": 1}, "w": {"p": 1}, "v": {}, "p": {}})
    sig = resolve_signature("graded:0..0", [c, d])
    with pytest.raises(BudgetError, match="value base has 20 states"):
        simulation_chain(c, d, sig)
    answer = greatest_simulation(c, d, sig)
    assert ("x", "y") in answer.pairs
    # y's successor v is a deadlock, which no successor of x matches.
    expected = {(z, "w") for z in zs} | {("q", "v"), ("q", "p")}
    assert greatest_bisimulation(c, d, sig).pairs == expected
    monkeypatch.setenv("COALSIM_MAX_BASE", "20")
    assert answer == simulation_chain(c, d, sig)
