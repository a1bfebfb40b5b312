import random
from fractions import Fraction

import pytest

import coalsim.liftings
from coalsim import (
    BOX,
    DIAMOND,
    MULTISET_KIND,
    NBHD_BOX,
    LambdaSignature,
    Modality,
    BudgetError,
    KindMismatchError,
    NotSeparatingError,
    ValidationError,
    at_least,
    atom,
    auto_signature,
    diamond_gt,
    dist_value,
    ensure_separating,
    greatest_bisimulation,
    greatest_simulation,
    is_simulation,
    kripke_kind,
    kripke_value,
    more_than,
    multiset_value,
    nbhd_value,
    relation,
    resolve_signature,
    satisfies,
    values_equal,
)
from coalsim.oracles import brute_force_simulation_oracle, distinguishing_pair, is_lambda_homomorphism, lambda_leq
from coalsim.behaviour import certified_partition
from coalsim.liftings import _separation_gap, graded_bound, lifting_check, lifting_violations, prob_grid
from coalsim.values import DISTRIBUTION_KIND, INF

from conftest import dist_model, generic_listing_empty, kripke_model, multiset_model, nbhd_model


def test_satisfies_box_diamond_atoms():
    t = kripke_value([], ["a", "b"])
    assert satisfies(t, BOX, {"a", "b", "c"})
    assert not satisfies(t, BOX, {"a"})
    assert satisfies(t, DIAMOND, {"b", "z"})
    assert not satisfies(t, DIAMOND, {"z"})
    u = kripke_value(["p"], [])
    assert satisfies(u, atom("p"), frozenset())
    assert not satisfies(u, atom("q"), frozenset())


def test_satisfies_graded_strict_threshold():
    t = multiset_value({"u": 2})
    assert satisfies(t, diamond_gt(1), {"u"})
    assert not satisfies(t, diamond_gt(2), {"u"})
    assert satisfies(multiset_value({"u": INF}), diamond_gt(10**6), {"u"})


def test_satisfies_probability_thresholds():
    t = dist_value({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    assert satisfies(t, at_least(Fraction(1, 2)), {"a"})
    assert not satisfies(t, more_than(Fraction(1, 2)), {"a"})


def test_satisfies_neighborhood_membership():
    t = nbhd_value([["a", "b"]])
    assert not satisfies(t, NBHD_BOX, {"a"})
    assert satisfies(t, NBHD_BOX, {"a", "b", "c"})


def test_satisfies_kind_mismatch():
    with pytest.raises(KindMismatchError):
        satisfies(kripke_value([], []), diamond_gt(0), set())


def test_lambda_leq_reflexive_and_empty_diamond():
    c = kripke_model({"a": []})
    sig = resolve_signature("kripke:diamond", [c])
    bottom = kripke_value([], [])
    assert lambda_leq(bottom, bottom, sig)
    assert lambda_leq(bottom, kripke_value([], ["a"]), sig)


def test_lambda_leq_box_counterexample():
    c = kripke_model({"a": []})
    sig = resolve_signature("kripke:box", [c])
    assert not lambda_leq(kripke_value([], []), kripke_value([], ["a"]), sig)
    # brute-force confirm: box at the empty set separates them
    assert satisfies(kripke_value([], []), BOX, frozenset())
    assert not satisfies(kripke_value([], ["a"]), BOX, frozenset())


def test_lambda_leq_preorder_on_enumerated_values():
    from coalsim.generators import enumerate_values

    c = kripke_model({"a": [], "b": []}, atoms=["p"])
    sig = auto_signature(c)
    pool = list(enumerate_values(kripke_kind(["p"]), ["a", "b"]))
    leq = {
        (t, u): lambda_leq(t, u, sig) for t in pool for u in pool
    }
    for t in pool:
        assert leq[(t, t)]
    for t in pool:
        for u in pool:
            for v in pool:
                if leq[(t, u)] and leq[(u, v)]:
                    assert leq[(t, v)]


def test_lambda_homomorphism_routes_agree():
    rng = random.Random(3)
    c = kripke_model({"x0": ["x1"], "x1": ["x0", "x1"]}, atoms=["p"], props={"x0": ["p"]})
    d = kripke_model({"y": ["y"]}, atoms=["p"], props={"y": ["p"]})
    sig = auto_signature(c, d)
    for _ in range(16):
        f = {x: d.carrier[rng.randrange(len(d.carrier))] for x in c.carrier}
        graph = relation(c.carrier, d.carrier, [(x, f[x]) for x in c.carrier])
        assert is_lambda_homomorphism(f, c, d, sig) == is_simulation(graph, c, d, sig).holds


def test_lambda_homomorphism_identity_and_cycle_collapse():
    c = kripke_model({"x": ["x"]})
    sig = resolve_signature("kripke:box,diamond", [c])
    assert is_lambda_homomorphism({"x": "x"}, c, c, sig)
    two = kripke_model({"a": ["b"], "b": ["a"]})
    loop = kripke_model({"z": ["z"]})
    sig2 = resolve_signature("kripke:diamond", [two, loop])
    assert is_lambda_homomorphism({"a": "z", "b": "z"}, two, loop, sig2)


def test_distinguishing_pair_basics():
    c = kripke_model({"a": []})
    sig = resolve_signature("kripke:diamond", [c])
    t = kripke_value([], ["a"])
    assert distinguishing_pair(t, t, sig) is None
    found = distinguishing_pair(t, kripke_value([], []), sig)
    assert found is not None
    modality, witness = found
    assert modality == DIAMOND and witness == {"a"}


def test_distinguishing_pair_probabilistic_grid_scan():
    d = dist_model({"x": {"a": "1/2", "b": "1/2"}, "a": {"a": 1}, "b": {"b": 1}})
    sig = auto_signature(d)
    t = d.transition["x"]
    u = dist_value({"a": Fraction(1)})
    found = distinguishing_pair(t, u, sig)
    assert found is not None
    modality, witness = found
    assert satisfies(t, modality, witness) != satisfies(u, modality, witness)


def test_separation_witness_for_kripke_box_or_diamond():
    rng = random.Random(9)
    from coalsim.generators import enumerate_values

    pool = list(enumerate_values(kripke_kind(["p"]), ["a", "b"]))
    model = kripke_model({"a": [], "b": []}, atoms=["p"])
    for literal in ("kripke:box,atoms", "kripke:diamond,atoms"):
        sig = resolve_signature(literal, [model])
        for _ in range(80):
            t = pool[rng.randrange(len(pool))]
            u = pool[rng.randrange(len(pool))]
            witness = distinguishing_pair(t, u, sig)
            assert (witness is None) == values_equal(t, u)


def test_monotony_and_naturality_random():
    rng = random.Random(21)
    from coalsim import relabel
    from coalsim.generators import EnumerationBudget, enumerate_values

    states = ["a", "b", "c"]
    labels = ["u", "v"]
    cases = (
        [(v, m) for v in enumerate_values(kripke_kind(["p"]), states)
         for m in (BOX, DIAMOND, atom("p"))]
        + [(v, diamond_gt(1))
           for v in enumerate_values(multiset_model({"a": {}}).kind, states,
                                     EnumerationBudget(max_weight=2))]
        + [(v, at_least(Fraction(1, 2)))
           for v in enumerate_values(dist_model({"a": {"a": 1}}).kind, states,
                                     EnumerationBudget(denominators=(1, 2)))]
        + [(v, NBHD_BOX) for v in enumerate_values(nbhd_model({"a": []}).kind, states)]
    )
    for t, m in cases:
        small = frozenset(s for s in states if rng.random() < 0.5)
        big = small | frozenset(s for s in states if rng.random() < 0.5)
        if satisfies(t, m, small):
            assert satisfies(t, m, big)
        f = {s: labels[rng.randrange(2)] for s in states}
        a = frozenset(l for l in labels if rng.random() < 0.5)
        assert satisfies(relabel(t, f), m, a) == satisfies(
            t, m, frozenset(s for s in f if f[s] in a)
        )


def _separates(literal, model):
    return _separation_gap(resolve_signature(literal, [model]), [model]) is None


def test_signature_literals_and_separation():
    k = kripke_model({"x": []}, atoms=["p"])
    assert _separates("kripke:box,diamond,atoms", k)
    assert not _separates("kripke:box", k)
    plain = kripke_model({"x": []})
    assert _separates("kripke:box", plain)
    m = multiset_model({"u": {"u": 2}})
    sig = resolve_signature("graded:0..5", [m])
    assert _separates("graded:0..5", m)
    assert len(sig.modalities) == 6
    assert not _separates("graded:0..1", m)
    d = dist_model({"x": {"x": 1}})
    auto = resolve_signature("prob:auto-grid", [d])
    assert _separates("prob:auto-grid", d) and at_least(Fraction(1)) in auto.modalities
    n = nbhd_model({"x": []})
    assert resolve_signature("nbhd:box", [n]).modalities == (NBHD_BOX,)
    with pytest.raises(ValidationError):
        resolve_signature("graded:five", [m])
    with pytest.raises(KindMismatchError):
        resolve_signature("nbhd:box", [k])


def test_graded_bound_counts_only_finite_weights():
    model = multiset_model({"u": {"u": 2}, "v": {"u": 1, "v": 3}})
    assert graded_bound([model]) == 4
    inf_model = multiset_model({"u": {"u": INF, "v": 2}, "v": {}})
    assert graded_bound([inf_model]) == 2


def test_prob_grid_contains_all_subset_masses():
    d = dist_model({"x": {"a": "1/3", "b": "2/3"}, "a": {"a": 1}, "b": {"b": 1}})
    grid = prob_grid([d])
    for q in (0, 1, Fraction(1, 3), Fraction(2, 3)):
        assert Fraction(q) in grid


def _dyadic_model(k):
    """One k-state distribution model whose value has masses 1/2, 1/4, ..., 1/2^(k-1) and the rest."""
    states = [f"s{i}" for i in range(k)]
    mass = {z: Fraction(1, 2 ** (i + 1)) for i, z in enumerate(states[:-1])}
    mass[states[-1]] = 1 - sum(mass.values())
    return dist_model({z: mass for z in states})


def test_prob_grid_past_its_limit_raises_budget_error(monkeypatch):
    assert len(prob_grid([_dyadic_model(10)])) == 2**9 + 1
    monkeypatch.setattr(coalsim.liftings, "MAX_PROB_GRID", 2**9 + 1)
    assert len(prob_grid([_dyadic_model(10)])) == 2**9 + 1
    with pytest.raises(BudgetError, match="MAX_PROB_GRID = 513"):
        prob_grid([_dyadic_model(11)])
    thirds = dist_model({"x": {"x": "1/3", "y": "2/3"}, "y": {"y": 1}})
    with pytest.raises(BudgetError, match="MAX_PROB_GRID"):
        prob_grid([_dyadic_model(10), thirds])


def test_separation_gap_clips_the_missing_masses():
    model = _dyadic_model(10)
    foreign = LambdaSignature(model.kind, (at_least(Fraction(1)),))
    gap = _separation_gap(foreign, [model])
    assert gap.startswith("probability grid misses realized masses ['0', '1/512', ")
    assert len(gap) < 240 and gap.endswith(" characters)")
    with pytest.raises(NotSeparatingError) as err:
        ensure_separating(foreign, model)
    assert str(err.value) == gap


def test_ensure_separating_rejects_inadequate_grids():
    m = multiset_model({"u": {"u": 5}})
    with pytest.raises(NotSeparatingError):
        ensure_separating(resolve_signature("graded:0..2", [m]), m, m)
    k = kripke_model({"x": []}, atoms=["p"])
    with pytest.raises(NotSeparatingError):
        ensure_separating(resolve_signature("kripke:box", [k]), k, k)


def test_max_base_bound_env_override(monkeypatch):
    big = kripke_value([], [f"s{i}" for i in range(17)])
    c = kripke_model({"a": []})
    sig = resolve_signature("kripke:diamond", [c])
    with pytest.raises(BudgetError, match="joint base has 17 states, above the exhaustive bound 16"):
        distinguishing_pair(big, big, sig)
    monkeypatch.setenv("COALSIM_MAX_BASE", "17")
    assert distinguishing_pair(big, big, sig) is None


def test_hand_built_grid_claims_no_cover():
    """A grid with a gap that misses the threshold the flow's cut fails is searched."""
    c = multiset_model({"a": {}, "x": {"a": 3}})
    d = multiset_model({"b": {}, "y": {"b": 2}})
    sig = LambdaSignature(MULTISET_KIND, (diamond_gt(0), diamond_gt(5)))
    s = relation(c.carrier, d.carrier, [("a", "b"), ("x", "y")])
    assert is_simulation(s, c, d, sig).holds
    assert brute_force_simulation_oracle(s, c, d, sig)
    assert generic_listing_empty(s, c, d, sig)
    assert s.pairs <= greatest_simulation(c, d, sig).pairs


def test_graded_grid_with_a_gap_is_not_separating():
    c = multiset_model({"a": {"a": 5}, "x": {"a": 2}})
    d = multiset_model({"b": {"b": 5}, "y": {"b": 3}})
    sig = LambdaSignature(MULTISET_KIND, (diamond_gt(0), diamond_gt(5)))
    assert len(greatest_bisimulation(c, d, sig)) == 4
    with pytest.raises(NotSeparatingError, match="misses index 1; weights reach 5"):
        ensure_separating(sig, c, d)
    with pytest.raises(NotSeparatingError):
        certified_partition(c, d, sig)
    ensure_separating(resolve_signature("graded:auto", [c, d]), c, d)


def test_separation_names_the_missing_part():
    k = kripke_model({"x": []}, atoms=["p", "q"])
    kind = k.kind
    for mods, gap in (
        ((atom("p"), atom("q")), "kripke signature needs [] or <>"),
        ((DIAMOND, atom("q")), "kripke signature misses atoms ['p']"),
        ((BOX, DIAMOND), "kripke signature misses atoms ['p', 'q']"),
    ):
        with pytest.raises(NotSeparatingError, match=gap.replace("[", r"\[")):
            ensure_separating(LambdaSignature(kind, mods), k, k)
    ensure_separating(LambdaSignature(kind, (BOX, atom("p"), atom("q"))), k, k)
    n = nbhd_model({"x": []})
    with pytest.raises(NotSeparatingError, match=r"neighborhood signature needs \[m\]"):
        ensure_separating(LambdaSignature(n.kind, ()), n, n)
    ensure_separating(LambdaSignature(n.kind, (NBHD_BOX,)), n, n)


def test_signature_resolved_on_other_models_decides_exactly():
    """A probability grid from other models misses the cut's mass; the pair is searched."""
    sig = auto_signature(dist_model({"p": {"p": "1/2", "q": "1/2"}, "q": {"q": 1}}))
    c = dist_model({"x": {"a": "1/3", "b": "2/3"}, "a": {"a": 1}, "b": {"b": 1}})
    d = dist_model({"y": {"a2": "1/2", "b2": "1/2"}, "a2": {"a2": 1}, "b2": {"b2": 1}})
    s = relation(c.carrier, d.carrier, [("x", "y"), ("a", "a2"), ("b", "b2")])
    report = is_simulation(s, c, d, sig)
    assert report.holds == brute_force_simulation_oracle(s, c, d, sig) is True
    assert report.violations == ()


def test_diamond_only_kripke_signature_does_not_separate():
    c = kripke_model({"x": []}, atoms=["p"], props={"x": ["p"]})
    d = kripke_model({"y": []}, atoms=["p"])
    sig = LambdaSignature(kripke_kind(("p",)), (DIAMOND,))
    with pytest.raises(NotSeparatingError, match=r"misses atoms \['p'\]"):
        ensure_separating(sig, c, d)
    # The greatest-bisim route: the certified partition, or the fixpoint when it refuses.
    try:
        route = certified_partition(c, d, sig)[0].cross_relation()
    except NotSeparatingError:
        route = greatest_bisimulation(c, d, sig)
    assert route.pairs == greatest_bisimulation(c, d, sig).pairs == {("x", "y")}


def test_hand_built_grid_equal_to_the_resolved_one_needs_no_budget():
    support = {f"s{i}": 1 for i in range(20)}
    m = multiset_model({"x": support, **{z: {} for z in support}})
    sig = LambdaSignature(MULTISET_KIND, tuple(diamond_gt(k) for k in range(21)))
    assert sig.modalities == auto_signature(m).modalities
    ident = relation(m.carrier, m.carrier, [(z, z) for z in m.carrier])
    assert is_simulation(ident, m, m, sig).holds


def _random_models(rng, dist, states=5, support=4, den=12):
    """One model over s0.. with seeded weighted values; distribution masses are over den."""
    labels = [f"s{i}" for i in range(states)]
    transitions = {}
    for s in labels:
        base_ = rng.sample(labels, rng.randint(1, min(support, states)))
        if dist:
            cuts = sorted(rng.sample(range(1, den), len(base_) - 1))
            parts = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
            transitions[s] = {z: Fraction(p, den) for z, p in zip(base_, parts)}
        else:
            transitions[s] = {z: rng.randint(1, 4) for z in base_}
    return dist_model(transitions) if dist else multiset_model(transitions)


def test_resolving_a_grid_builds_no_modality_and_no_sum(monkeypatch):
    rng = random.Random(0)
    counts = {"Modality": 0, "prob_grid": 0, "_subset_sums": 0}
    real_post_init = coalsim.liftings.Modality.__post_init__

    def counted_post_init(m):
        counts["Modality"] += 1
        real_post_init(m)

    def counted(name):
        real = getattr(coalsim.liftings, name)

        def call(models):
            counts[name] += 1
            return real(models)

        return call

    monkeypatch.setattr(coalsim.liftings.Modality, "__post_init__", counted_post_init)
    for name in ("prob_grid", "_subset_sums"):
        monkeypatch.setattr(coalsim.liftings, name, counted(name))
    for literal, dist in (("prob:auto-grid", True), ("graded:auto", False), ("graded:0..7", False)):
        models = [_random_models(rng, dist) for _ in range(2)]
        sig = resolve_signature(literal, models)
        ensure_separating(sig, *models)
        assert sig.modalities and counts == {"Modality": 0, "prob_grid": 0, "_subset_sums": 0}, literal
        len(sig.modalities)
        assert counts["Modality"] == 0 and counts["_subset_sums"] == int(dist)
        list(sig.modalities)
        assert counts["Modality"] == len(sig.modalities) > 0
        counts.update(dict.fromkeys(counts, 0))


def test_grid_iterates_as_the_listed_grid():
    from oracle_helpers import prob_grid_reference

    rng = random.Random(1)
    for trial in range(20):
        models = [_random_models(rng, True, den=rng.choice((6, 10, 12, 30))) for _ in range(2)]
        grid = resolve_signature("prob:auto-grid", models).modalities
        listed = tuple(map(at_least, prob_grid_reference(models)))
        assert tuple(grid) == listed and len(grid) == len(listed)
        assert grid == listed and listed == grid and hash(grid) == hash(listed)
        assert list(grid) == sorted(listed, key=lambda m: m.bound) and at_least(1) in grid
        models = [_random_models(rng, False) for _ in range(2)]
        top = graded_bound(models)
        for literal in ("graded:auto", f"graded:0..{top}"):
            grid = resolve_signature(literal, models).modalities
            assert tuple(grid) == tuple(map(diamond_gt, range(top + 1))) and len(grid) == top + 1
            assert grid == resolve_signature("graded:auto", models).modalities


def test_grid_membership_is_exact_for_values_outside_its_models():
    from oracle_helpers import pair_violations_reference, prob_grid_reference

    rng = random.Random(2)
    for trial in range(20):
        own = _random_models(rng, True, den=rng.choice((6, 12)))
        foreign = _random_models(rng, True, den=rng.choice((5, 8, 12, 30)))
        grid = resolve_signature("prob:auto-grid", [own]).modalities
        realized = set(prob_grid_reference([own]))
        for q in sorted(set(prob_grid_reference([foreign])) | {Fraction(1, 7), Fraction(5, 6)}):
            assert (at_least(q) in grid) == (q in realized)
            assert more_than(q) not in grid and Modality("at_least", bound=q, name="x") not in grid
        assert diamond_gt(0) not in grid and "L(1)" not in grid
        # The pair check on foreign values asks the grid exactly, as the listed grid and the search do.
        listed = LambdaSignature(own.kind, tuple(grid))
        sig = resolve_signature("prob:auto-grid", [own])
        assert tuple(listed.modalities) == tuple(map(at_least, prob_grid_reference([own])))
        for x in foreign.carrier:
            for y in foreign.carrier:
                img = {z: frozenset(rng.sample(foreign.carrier, rng.randint(0, 2))) for z in foreign.carrier}
                t, u = foreign.transition[x], foreign.transition[y]
                ok = lifting_check(sig)(t, u, img)
                assert ok == lifting_check(listed)(t, u, img)
                assert ok == (not pair_violations_reference(t, u, img, listed, 1))
    grid = resolve_signature("graded:0..3", [multiset_model({"u": {"u": 9}})]).modalities
    assert [k for k in range(6) if diamond_gt(k) in grid] == [0, 1, 2, 3]


def test_ensure_separating_on_foreign_models_reports_the_missing_masses():
    from oracle_helpers import prob_grid_reference

    thirds = dist_model({"x": {"x": "1/3", "y": "2/3"}, "y": {"y": 1}})
    quarters = dist_model({"a": {"a": "1/4", "b": "3/4"}, "b": {"b": 1}})
    sig = resolve_signature("prob:auto-grid", [thirds])
    assert _separation_gap(sig, [thirds]) is None
    listed = LambdaSignature(sig.kind, tuple(sig.modalities))
    gap = _separation_gap(sig, [thirds, quarters])
    assert gap == _separation_gap(listed, [thirds, quarters])
    assert gap == "probability grid misses realized masses ['1/4', '3/4']"
    missing = sorted(set(prob_grid_reference([thirds, quarters])) - set(prob_grid_reference([thirds])))
    assert missing == [Fraction(1, 4), Fraction(3, 4)]
    with pytest.raises(NotSeparatingError, match=r"misses realized masses \['1/4', '3/4'\]"):
        ensure_separating(sig, quarters)
    small = multiset_model({"u": {"u": 2}})
    big = multiset_model({"v": {"v": 5}})
    sig = resolve_signature("graded:auto", [small])
    assert _separation_gap(sig, [small]) is None
    assert _separation_gap(sig, [small, big]) == "graded grid misses index 3; weights reach 5"
    gap = _separation_gap(sig, [big])
    assert gap == _separation_gap(LambdaSignature(sig.kind, tuple(sig.modalities)), [big])
    assert gap == "graded grid misses index 3; weights reach 5"


@pytest.mark.parametrize("max_base", [None, "4"])
@pytest.mark.parametrize("dist", [False, True], ids=["multiset", "distribution"])
def test_grid_listing_equals_the_listed_grid_on_failing_pairs(monkeypatch, max_base, dist):
    """Seeded failing pairs with supports up to 12, within and past the exhaustive
    bound; up to support 8, within the bound, also against the subset search."""
    from oracle_helpers import pair_violations_reference

    if max_base:
        monkeypatch.setenv("COALSIM_MAX_BASE", max_base)
    rng = random.Random(3)
    failing = searched = 0
    for support in range(1, 13):
        for trial in range(3 if support <= 8 else 1):
            c = _random_models(rng, dist, states=12, support=support, den=24)
            d = _random_models(rng, dist, states=12, support=12, den=24)
            sig = resolve_signature("graded:auto" if dist is False else "prob:auto-grid", [c, d])
            listed = LambdaSignature(sig.kind, tuple(sig.modalities))
            x = max(c.carrier, key=lambda s: len(c.transition[s].entries))
            t = c.transition[x]
            img = {z: frozenset(rng.sample(d.carrier, rng.randint(0, 3))) for z in c.carrier}
            for y in d.carrier[:3]:
                u = d.transition[y]
                try:
                    want = lifting_violations(t, u, img, listed, 10**6)
                except BudgetError:
                    with pytest.raises(BudgetError):
                        lifting_violations(t, u, img, sig, 10**6)
                    continue
                assert lifting_violations(t, u, img, sig, 10**6) == want
                assert lifting_violations(t, u, img, sig, 100) == want[:100]
                if len(t.entries) <= min(8, int(max_base or 16)):
                    assert want == pair_violations_reference(t, u, img, listed, 10**6)
                    searched += 1
                failing += bool(want)
    assert failing >= 20 and searched >= 20


def test_grid_listing_rejects_values_of_another_kind_as_the_listed_grid_does():
    m = multiset_model({"a": {"a": 2, "b": 1}, "b": {}})
    d = dist_model({"a": {"a": "1/2", "b": "1/2"}, "b": {"b": 1}})
    img = {"a": frozenset(), "b": frozenset()}
    for sig, other in ((resolve_signature("prob:auto-grid", [d]), m), (resolve_signature("graded:auto", [m]), d)):
        t, u = other.transition["a"], other.transition["b"]
        with pytest.raises(KindMismatchError) as listed:
            lifting_violations(t, u, img, LambdaSignature(sig.kind, tuple(sig.modalities)), 5)
        with pytest.raises(KindMismatchError) as grid:
            lifting_violations(t, u, img, sig, 5)
        assert str(grid.value) == str(listed.value)
        first = next(iter(sig.modalities)).token()
        assert str(grid.value) == f"modality {first!r} is not interpretable over {type(t).__name__}"


def _ascending(mods):
    """The distinct modalities by threshold, `L(p)` before `M(p)`: the order a hand-built grid lists."""
    return tuple(sorted(set(mods), key=lambda m: (m.index if m.bound is None else m.bound, m.op == "more_than")))


def test_hand_built_weighted_listing_equals_the_reference_on_its_ascending_thresholds():
    """Shuffled tuples with duplicates, `L` and `M` at equal bounds, and the empty tuple."""
    from types import SimpleNamespace

    from oracle_helpers import pair_violations_reference

    rng = random.Random(5)
    failing = 0
    for trial in range(60):
        dist = trial % 2 == 1
        c = _random_models(rng, dist, states=6, support=5, den=12)
        d = _random_models(rng, dist, states=6, support=6, den=12)
        if trial % 10 == 0:
            mods = ()
        elif dist:
            bounds = [Fraction(rng.randint(0, 12), 12) for _ in range(rng.randint(1, 4))]
            mods = [at_least(q) for q in bounds] + [more_than(q) for q in bounds[: rng.randint(0, 2)]]
        else:
            mods = [diamond_gt(rng.randint(0, 8)) for _ in range(rng.randint(1, 4))]
        mods = mods + mods[: rng.randint(0, 2)]
        rng.shuffle(mods)
        sig = LambdaSignature(c.kind, tuple(mods))
        reference = SimpleNamespace(modalities=_ascending(mods))
        assert tuple(sig.modalities) == reference.modalities and len(sig.modalities) == len(reference.modalities)
        assert bool(sig.modalities) == bool(mods)
        img = {z: frozenset(rng.sample(d.carrier, rng.randint(0, 3))) for z in c.carrier}
        for x in c.carrier:
            for y in d.carrier[:3]:
                t, u = c.transition[x], d.transition[y]
                want = pair_violations_reference(t, u, img, reference, 10**6)
                assert lifting_violations(t, u, img, sig, 10**6) == want
                assert lifting_check(sig)(t, u, img) == (not want)
                failing += bool(want)
    assert failing >= 50


def test_hand_built_threshold_inside_the_cut_decides_with_no_search(monkeypatch):
    """The flow's cut A = {a} has t(A) = 7 and u(S[A]) = 2; `<5>` lies strictly
    between, so it fails there, and the pair is decided with no mass table."""
    def no_table(*args):
        raise AssertionError("the pair was searched")

    monkeypatch.setattr(coalsim.liftings, "_deficits", no_table)
    t, u, img = multiset_value({"a": 7}), multiset_value({"b": 2}), {"a": frozenset({"b"})}
    assert not lifting_check(LambdaSignature(MULTISET_KIND, (diamond_gt(5),)))(t, u, img)
    # The cut is A = {a, c} with masses 1 and 1/4; M(1/3) lies between.
    t = dist_value({"a": Fraction(1, 2), "c": Fraction(1, 2)})
    u = dist_value({"b": Fraction(1, 4), "e": Fraction(3, 4)})
    img = {"a": frozenset({"b"}), "c": frozenset({"b"})}
    assert not lifting_check(LambdaSignature(DISTRIBUTION_KIND, (more_than(Fraction(1, 3)),)))(t, u, img)


def test_hand_built_weighted_separation_reads_the_grid():
    """The messages of tuple signatures are kept, and an `M(q)` bound holds the mass q."""
    halves = dist_model({"x": {"x": "1/2", "y": "1/2"}, "y": {"y": 1}})
    for mods, gap in (
        ((at_least(0), more_than("1/2"), at_least(1)), None),
        ((at_least(1), at_least(0), at_least("1/2"), at_least(0)), None),
        ((at_least(0), at_least(1)), "probability grid misses realized masses ['1/2']"),
        ((more_than(1), more_than("1/2")), "probability grid misses realized masses ['0']"),
        ((), "probability grid misses realized masses ['0', '1/2', '1']"),
    ):
        assert _separation_gap(LambdaSignature(DISTRIBUTION_KIND, mods), [halves]) == gap, mods
    pair = multiset_model({"u": {"u": 2}})
    for mods, gap in (
        ((diamond_gt(2), diamond_gt(0), diamond_gt(1)), None),
        ((diamond_gt(0), diamond_gt(2), diamond_gt(0)), "graded grid misses index 1; weights reach 2"),
        ((diamond_gt(1), diamond_gt(2)), "graded grid misses index 0; weights reach 2"),
        ((), "graded grid misses index 0; weights reach 2"),
    ):
        assert _separation_gap(LambdaSignature(MULTISET_KIND, mods), [pair]) == gap, mods


def test_hand_built_weighted_signatures_are_equal_in_any_order():
    for kind, first, second in (
        (MULTISET_KIND, diamond_gt(3), diamond_gt(1)),
        (DISTRIBUTION_KIND, more_than("1/2"), at_least("1/2")),
    ):
        one, other = LambdaSignature(kind, (first, second)), LambdaSignature(kind, (second, first, second))
        assert one == other and hash(one) == hash(other)
        assert tuple(one.modalities) == (second, first) and first in one.modalities
        assert one != LambdaSignature(kind, (first,))
