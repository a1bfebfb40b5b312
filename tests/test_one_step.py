"""The lifting condition against its first, loop-per-function implementations."""

import random
import time
from fractions import Fraction

from coalsim import (
    DISTRIBUTION_KIND,
    MULTISET_KIND,
    NEIGHBORHOOD_KIND,
    GeneratorConfig,
    distinguishing_pair,
    generate_coalgebra,
    kripke_kind,
    lambda_leq,
    random_relation,
    resolve_signature,
)
from coalsim.liftings import lifting_check, lifting_violations, prob_grid

from conftest import dist_model
from oracle_helpers import (
    distinguishing_pair_reference,
    lambda_leq_reference,
    pair_violations_reference,
    prob_grid_reference,
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


def _seeded_cases(trials):
    for trial in range(trials):
        kind, cfg, literals = LITERALS[trial % len(LITERALS)]
        c = generate_coalgebra(GeneratorConfig(seed=trial, kind=kind, max_states=4, **cfg))
        d = generate_coalgebra(
            GeneratorConfig(seed=trial + 7000, kind=kind, max_states=4, **cfg)
        )
        for literal in literals:
            yield trial, c, d, resolve_signature(literal, [c, d])


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
