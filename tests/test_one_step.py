"""The lifting condition against its first, loop-per-function implementations."""

import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

import coalsim.liftings
import coalsim.simulation
import coalsim.values
from coalsim import (
    DISTRIBUTION_KIND,
    INF,
    MULTISET_KIND,
    NEIGHBORHOOD_KIND,
    BudgetError,
    LambdaSignature,
    auto_signature,
    behavioural_equivalence,
    difunctional_closure,
    dist_value,
    greatest_simulation,
    is_bisimulation,
    is_bisimulation_up_to_difunctionality,
    is_simulation,
    kripke_kind,
    multiset_value,
    relation,
    resolve_signature,
)
from coalsim.generators import GeneratorConfig, generate_coalgebra, random_relation
from coalsim.oracles import brute_force_simulation_oracle, distinguishing_pair, lambda_leq
from coalsim.liftings import (
    at_least,
    diamond_gt,
    graded_bound,
    hall_violator,
    lifting_check,
    lifting_violations,
    prob_grid,
    satisfies,
)
from coalsim.values import base, kripke_value, measure

from conftest import dist_model, kripke_model
from oracle_helpers import (
    distinguishing_pair_reference,
    lambda_leq_reference,
    pair_violations_reference,
    prob_grid_reference,
    weighted_pair_reference,
)

KRIPKE_PQ = kripke_kind(("p", "q"))

# Auto signatures of every kind, graded grids that may or may not cover the
# models, and Kripke sub-signatures.
LITERALS = [
    (KRIPKE_PQ, {}, ["kripke:box,diamond,atoms", "kripke:box", "kripke:diamond",
                     "kripke:atoms", "kripke:box,atoms", "kripke:diamond,atoms"]),
    (MULTISET_KIND, {"allow_infinite": True}, ["graded:auto", "graded:0..0", "graded:0..1"]),
    (MULTISET_KIND, {}, ["graded:auto", "graded:0..0", "graded:0..1"]),
    (DISTRIBUTION_KIND, {}, ["prob:auto-grid"]),
    (NEIGHBORHOOD_KIND, {}, ["nbhd:box"]),
]


# Literals whose grids need not cover the models they are resolved on.
PARTIAL = ("graded:0..0", "graded:0..1")


def _seeded_cases(trials, third=False):
    """(literal, c, d, sig) over LITERALS, sig resolved on [c, d] or, if `third`, on another model."""
    for trial in range(trials):
        kind, cfg, literals = LITERALS[trial % len(LITERALS)]
        c, d, e = (
            generate_coalgebra(GeneratorConfig(seed=trial + k, kind=kind, max_states=4, **cfg))
            for k in (0, 7000, 9000)
        )
        for literal in literals:
            yield literal, c, d, resolve_signature(literal, [e] if third else [c, d])


def test_violations_match_reference_in_order_and_cap():
    rng = random.Random(5)
    compared = 0
    for _, c, d, sig in _seeded_cases(150):
        img = random_relation(rng, c, d).left_images()
        for x in c.carrier:
            for y in d.carrier:
                t, u = c.transition[x], d.transition[y]
                for cap in (1, 2, 100):
                    assert lifting_violations(t, u, img, sig, cap) == pair_violations_reference(
                        t, u, img, sig, cap
                    )
                ok = lifting_check(sig)(t, u, img)
                assert ok == (not pair_violations_reference(t, u, img, sig, 1))
                compared += 1
    assert compared > 1000


def test_kripke_listing_matches_the_subset_reference():
    """Kripke failures are listed from the few sets that can fail, with no
    gate; within the bound they are the full subset search's, in its order,
    at every cap."""
    rng = random.Random(137)
    states = [f"s{i}" for i in range(9)]
    sigs = [resolve_signature(literal, [generate_coalgebra(GeneratorConfig(seed=0, kind=KRIPKE_PQ))])
            for literal in LITERALS[0][2]]
    failing = 0
    for trial in range(3000):
        t, u = (kripke_value(rng.sample(["p", "q"], rng.randint(0, 2)),
                             rng.sample(states, rng.randint(0, 7))) for _ in "tu")
        img = {z: frozenset(rng.sample(states, rng.choice((0, 1, 1, 2, 3)))) for z in states}
        sig = sigs[trial % len(sigs)]
        for cap in (1, 3, 100):
            listed = lifting_violations(t, u, img, sig, cap)
            assert listed == pair_violations_reference(t, u, img, sig, cap), (t, u, img, sig)
        failing += bool(listed)
    assert 1000 < failing < 2900, failing


def _wide_pair(n, right_succ, props=()):
    """x with n successors, none of them related, against y with the given successors."""
    zs = [f"z{i}" for i in range(n)]
    c = kripke_model({"x": zs, **{z: [] for z in zs}}, atoms=["p"], props={"x": list(props)})
    d = kripke_model({"y": right_succ, **{w: [] for w in right_succ}}, atoms=["p"])
    return c, d, relation(c.carrier, d.carrier, [("x", "y")])


def test_kripke_listing_passes_the_exhaustive_bound():
    """A failing pair whose state has 17 or 20 successors is listed, not refused."""
    c, d, s = _wide_pair(17, [], props=["p"])
    report = is_simulation(s, c, d, auto_signature(c, d))
    assert not report.holds and len(report.violations) == 100
    witnesses = [frozenset(v.witness) for v in report.violations[:4]]
    assert witnesses == [{"z0"}, {"z1"}, {"z0", "z1"}, {"z10"}]  # counter order over state_key order
    assert {v.modality.token() for v in report.violations} == {"<>"}
    atoms_only = is_simulation(s, c, d, resolve_signature("kripke:box,atoms", [c, d]))
    assert [(v.modality.token(), v.witness) for v in atoms_only.violations] == [("p", ())]
    c, d, s = _wide_pair(20, ["w"])
    report = is_bisimulation(s, c, d, auto_signature(c, d))
    assert [v.modality.token() for v in report.violations[:2]] == ["[]", "<>"]
    assert frozenset(report.violations[0].witness) == c.transition["x"].succ
    # Forward: [] at succ x, then the first 99 of the 2^20 - 1 sets failing <>; backward: [] and <> at {w}.
    assert len(report.violations) == 102


def test_order_and_distinction_match_reference():
    for _, c, d, sig in _seeded_cases(100):
        values = [c.transition[x] for x in c.carrier] + [d.transition[y] for y in d.carrier]
        for t in values:
            for u in values:
                assert lambda_leq(t, u, sig) == lambda_leq_reference(t, u, sig)
                assert distinguishing_pair(t, u, sig) == distinguishing_pair_reference(t, u, sig)


def test_prob_grid_matches_all_subsets_reference():
    for seed in range(60):
        models = [
            generate_coalgebra(
                GeneratorConfig(seed=seed + k, kind=DISTRIBUTION_KIND, max_states=6,
                                max_branching=5, max_denominator=7)
            )
            for k in (0, 500)
        ]
        assert prob_grid(models) == prob_grid_reference(models)


def test_prob_grid_wide_support_small_denominator_is_fast():
    support = [f"s{i}" for i in range(40)]
    wide = {s: "1/50" if i < 30 else "1/25" for i, s in enumerate(support)}
    assert sum(Fraction(q) for q in wide.values()) == 1
    model = dist_model({"x": wide, **{s: {s: 1} for s in support}})
    start = time.perf_counter()
    sig = resolve_signature("prob:auto-grid", [model])
    elapsed = time.perf_counter() - start
    assert [m.bound for m in sig.modalities] == [Fraction(k, 50) for k in range(51)]
    assert elapsed < 1.0, f"prob:auto-grid took {elapsed:.2f}s on a 40-state support"


def _weighted_cases(trials):
    """Random weighted pairs (t, u, img, sig) on one label set for both sides.

    Multisets (even trials) have supports 0..8 with infinite weights on
    either side; distributions (odd trials) supports 1..8.  Images are
    random subsets of all labels, so they may miss u's support.  Every
    fifth signature has no modalities; the others one threshold.
    """
    rng = random.Random(17)
    labels = [f"s{i}" for i in range(10)]
    for trial in range(trials):
        dist = trial % 2 == 1

        def value():
            support = rng.sample(labels, rng.randint(1 if dist else 0, 8))
            if dist:
                raw = [rng.randint(1, 6) for _ in support]
                return dist_value({s: Fraction(r, sum(raw)) for s, r in zip(support, raw)})
            return multiset_value(
                {s: INF if rng.random() < 0.15 else rng.randint(1, 4) for s in support}
            )

        t, u = value(), value()
        p = rng.choice((0.2, 0.5, 0.8, 0.95))
        img = {x: frozenset(y for y in labels if rng.random() < p) for x in labels}
        kind, mod = (DISTRIBUTION_KIND, at_least("1/2")) if dist else (MULTISET_KIND, diamond_gt(0))
        mods = () if trial % 5 == 0 else (mod,)
        yield t, u, img, LambdaSignature(kind, mods)


def _covering(sig, t, u):
    """sig's kind with the grid `resolve_signature` would build on models holding t and u."""
    models = [SimpleNamespace(transition={"t": t, "u": u})]
    if sig.kind == DISTRIBUTION_KIND:
        return LambdaSignature(sig.kind, tuple(map(at_least, prob_grid(models))))
    return LambdaSignature(sig.kind, tuple(map(diamond_gt, range(graded_bound(models) + 1))))


def test_weighted_check_matches_subset_reference():
    """The flow and its cut (`hall_violator`) against every subset."""
    verdicts = {True: 0, False: 0}
    infinite = empty = 0
    for t, u, img, sig in _weighted_cases(3000):
        cut = hall_violator(t, u, img)
        assert (cut is None) == weighted_pair_reference(t, u, img), (t, u, img)
        if cut is not None:
            # The Hall violator: a non-empty A ⊆ base(t) with t(A) > u(S[A]), masses exact.
            a, t_mass, u_mass = cut
            image = frozenset().union(*(img[z] for z in a))
            assert a and a <= base(t)
            assert (t_mass, u_mass) == (measure(t, a), measure(u, image))
            assert t_mass > u_mass
        verdicts[cut is None] += 1
        infinite += any(w == INF for _, w in t.entries + u.entries)
        empty += not t.entries or not u.entries
    assert min(verdicts.values()) > 300
    assert infinite > 300 and empty > 50


def test_weighted_check_matches_violation_reference():
    """One-threshold grids on every case, covering grids (slower to search) on the first 100."""
    verdicts = {True: 0, False: 0}
    for i, (t, u, img, sig) in enumerate(_weighted_cases(3000)):
        for grid in (sig, _covering(sig, t, u)) if i < 100 else (sig,):
            ok = lifting_check(grid)(t, u, img)
            assert ok == (not pair_violations_reference(t, u, img, grid, 1)), (t, u, img, grid)
            verdicts[ok] += 1
    assert min(verdicts.values()) > 600


def test_weighted_listings_read_one_mass_table(monkeypatch):
    """Listing failing weighted pairs under auto grids calls no `measure` and no `satisfies`."""
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(coalsim.values, "measure")
    counted(coalsim.liftings, "measure")
    counted(coalsim.liftings, "satisfies")
    rng = random.Random(29)
    listed = 0
    for literal, c, d, sig in _seeded_cases(150):
        if literal not in ("prob:auto-grid", "graded:auto"):
            continue
        s = random_relation(rng, c, d)
        listed += len(is_simulation(s, c, d, sig).violations)
        listed += len(is_bisimulation(s, c, d, sig).violations)
    assert calls == [] and listed > 200


def test_listings_beyond_the_bound_report_the_cut(monkeypatch):
    """With COALSIM_MAX_BASE=0 each weighted listing reads the flow's minimum cut A*.

    It lists (m, A*) for every modality A* fails, in signature order, and
    raises BudgetError when A* fails none, which a covering grid rules out.
    """
    cases = [(t, u, img, grid, grid is sig) for t, u, img, sig in _weighted_cases(300)
             for grid in (sig, _covering(sig, t, u))]
    monkeypatch.setenv("COALSIM_MAX_BASE", "0")
    seen = {"listed": 0, "budget": 0, "holds": 0}
    for t, u, img, grid, partial in cases:
        cut = hall_violator(t, u, img)  # None exactly when no A fails a threshold
        fails = [] if cut is None else [
            m for m in grid.modalities
            if satisfies(t, m, cut[0]) and not satisfies(u, m, frozenset().union(*(img[z] for z in cut[0])))
        ]
        if cut is not None and not fails:
            with pytest.raises(BudgetError, match="value base has"):
                lifting_violations(t, u, img, grid, 100)
            assert partial
            seen["budget"] += 1
            continue
        assert lifting_violations(t, u, img, grid, 100) == [(m, cut[0]) for m in fails]
        assert lifting_violations(t, u, img, grid, 2) == [(m, cut[0]) for m in fails[:2]]
        seen["listed" if fails else "holds"] += 1
    assert min(seen.values()) > 50, seen


def test_weighted_check_enumerates_no_subsets(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the weighted pair check enumerated subsets")

    cases = [(t, u, img, _covering(sig, t, u)) for t, u, img, sig in _weighted_cases(400)]
    for name in ("subsets", "measure", "exhaustive_base"):
        monkeypatch.setattr(coalsim.liftings, name, forbidden)
    failing = 0
    for t, u, img, sig in cases:
        failing += not lifting_check(sig)(t, u, img)
    assert failing > 100


def _reference_report(s, c, d, sig, witness, direction, cap):
    img = witness.left_images()
    out = []
    for x, y in s.sorted_pairs():
        if len(out) >= cap:
            break
        found = pair_violations_reference(
            c.transition[x], d.transition[y], img, sig, cap - len(out)
        )
        out += [(direction, x, y, m, frozenset(a)) for m, a in found]
    return out


def _listed(report):
    return [(v.direction, v.left, v.right, v.modality, frozenset(v.witness))
            for v in report.violations]


def _count_generic_searches(monkeypatch) -> list:
    """Count the pair checks that fall back to the generic search; each must need it.

    The generic search runs only at a failing weighted pair whose Hall
    violator A fails no threshold of the grid.
    """
    generic = coalsim.liftings._pair_ok_generic
    searched = []

    def generic_only_where_needed(sig, t, u, img):
        cut = hall_violator(t, u, img)
        assert cut is not None, "the generic search ran at a pair the flow passes"
        a, image = cut[0], frozenset().union(*(img[z] for z in cut[0]))
        assert not any(satisfies(t, m, a) and not satisfies(u, m, image)
                       for m in sig.modalities), "the cut already fails a threshold"
        searched.append(sig)
        return generic(sig, t, u, img)

    monkeypatch.setattr(coalsim.liftings, "_pair_ok_generic", generic_only_where_needed)
    return searched


@pytest.mark.parametrize("cap", [100, 2])
def test_screened_reports_match_reference(monkeypatch, cap):
    searched = _count_generic_searches(monkeypatch)
    monkeypatch.setattr(coalsim.simulation, "VIOLATION_CAP", cap)
    rng = random.Random(23)
    failing = 0
    for _, c, d, sig in _seeded_cases(120):
        s = random_relation(rng, c, d)
        forward = _reference_report(s, c, d, sig, s, "forward", cap)
        report = is_simulation(s, c, d, sig)
        assert _listed(report) == forward and report.holds == (not forward)
        for check, witness in (
            (is_bisimulation, s),
            (is_bisimulation_up_to_difunctionality, difunctional_closure(s)),
        ):
            expected = _reference_report(s, c, d, sig, witness, "forward", cap)
            expected += _reference_report(
                s.converse(), d, c, sig, witness.converse(), "backward", cap
            )
            report = check(s, c, d, sig)
            assert _listed(report) == expected and report.holds == (not expected)
        failing += bool(forward)
    assert failing > 100 and len(searched) > 10


def test_reports_stop_at_the_first_failure_and_check_no_pair_twice(monkeypatch):
    verdicts = []
    real = coalsim.simulation.lifting_check

    def recorded(sig):
        ok = real(sig)

        def check(t, u, img):
            verdicts.append(ok(t, u, img))
            return verdicts[-1]

        return check

    monkeypatch.setattr(coalsim.simulation, "lifting_check", recorded)
    monkeypatch.setattr(coalsim.simulation, "VIOLATION_CAP", 10**6)
    rng = random.Random(31)
    stopped_early = 0
    for _, c, d, sig in _seeded_cases(120):
        s = random_relation(rng, c, d)
        for check, directions in (
            (is_simulation, 1),
            (is_bisimulation, 2),
            (is_bisimulation_up_to_difunctionality, 2),
        ):
            verdicts.clear()
            report = check(s, c, d, sig)
            # The verdict reads pairs up to the first failing one.
            assert verdicts.count(False) == (not report.holds)
            assert report.holds or verdicts[-1] is False
            stopped_early += len(verdicts) < directions * len(s)
            # The listing continues from there and checks every other pair once.
            listed = {(v.direction, v.left, v.right) for v in report.violations}
            assert len(verdicts) == directions * len(s)
            assert verdicts.count(False) == len(listed)
    assert stopped_early > 50


def test_failing_wide_support_verdict_needs_no_budget():
    support = [f"s{i}" for i in range(20)]
    c = dist_model({"x": {z: Fraction(1, 20) for z in support}, **{z: {z: 1} for z in support}})
    d = dist_model({"y": {"y": 1}})
    report = is_simulation(relation(c.carrier, d.carrier, [("x", "y")]), c, d, auto_signature(c, d))
    assert report.holds is False
    # Beyond the exhaustive bound the listing reports the flow's minimum cut:
    # all of x's support, of mass 1, whose image is empty.
    listed = [(v.modality, frozenset(v.witness)) for v in report.violations]
    assert listed == [(at_least(Fraction(k, 20)), frozenset(support)) for k in range(1, 21)]


def test_wide_support_distribution_needs_no_budget():
    support = [f"s{i}" for i in range(24)]
    model = dist_model({"x": {s: Fraction(1, 24) for s in support}, **{s: {s: 1} for s in support}})
    sig = auto_signature(model, model)
    pairs = {(x, y) for x in model.carrier for y in model.carrier}
    assert behavioural_equivalence(model, model, sig).pairs == pairs
    assert greatest_simulation(model, model, sig).pairs == pairs


def test_verdicts_match_the_oracle_under_foreign_signatures():
    """Signatures resolved on the models or on a third one: exact verdicts, listed failures."""
    rng = random.Random(41)
    failing = 0
    for third in (False, True):
        for _, c, d, sig in _seeded_cases(100, third):
            s = random_relation(rng, c, d)
            report = is_simulation(s, c, d, sig)
            assert report.holds == brute_force_simulation_oracle(s, c, d, sig)
            assert report.holds or report.violations
            failing += not report.holds
    assert failing > 100


def test_resolved_grids_decide_every_pair_by_the_flow(monkeypatch):
    """Under grids resolved on the models, no verdict falls back to the generic search."""
    searched = _count_generic_searches(monkeypatch)
    cuts = []
    real = coalsim.liftings.hall_violator

    def recorded(*args):
        cuts.append(real(*args))
        return cuts[-1]

    monkeypatch.setattr(coalsim.liftings, "hall_violator", recorded)
    rng = random.Random(43)
    for literal, c, d, sig in _seeded_cases(200):
        if literal.startswith("kripke") or literal in PARTIAL:
            continue
        s = random_relation(rng, c, d)
        is_simulation(s, c, d, sig).holds
        is_bisimulation(s, c, d, sig).holds
        greatest_simulation(c, d, sig)
    assert searched == []
    assert sum(cut is not None for cut in cuts) > 200
