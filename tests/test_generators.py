import random
from fractions import Fraction

import pytest

from coalsim import (
    ValidationError,
    rank,
    is_positive,
    auto_signature,
    kripke_kind,
    validate,
)
from coalsim.formulas import format_formula
from coalsim.generators import GeneratorConfig, generate_coalgebra, random_positive_formula, random_relation
from coalsim.liftings import LambdaSignature, resolve_signature
from coalsim.modelio import coalgebra_to_dict, dump_json
from coalsim.values import DISTRIBUTION_KIND, MULTISET_KIND, NEIGHBORHOOD_KIND

from oracle_helpers import random_positive_formula_reference


def test_single_deadlocked_state():
    cfg = GeneratorConfig(seed=1, kind=kripke_kind(()), min_states=1, max_states=1, max_branching=0)
    c = generate_coalgebra(cfg)
    assert c.carrier == ("s0",)
    assert c.transition["s0"].succ == frozenset()


def test_determinism_byte_for_byte():
    for kind in (kripke_kind(("p",)), MULTISET_KIND, DISTRIBUTION_KIND, NEIGHBORHOOD_KIND):
        cfg = GeneratorConfig(seed=321, kind=kind)
        first = dump_json(coalgebra_to_dict(generate_coalgebra(cfg)))
        second = dump_json(coalgebra_to_dict(generate_coalgebra(cfg)))
        assert first == second


def test_distribution_denominator_cap():
    cfg = GeneratorConfig(seed=5, kind=DISTRIBUTION_KIND, max_denominator=4)
    for seed in range(40):
        c = generate_coalgebra(GeneratorConfig(seed=seed, kind=DISTRIBUTION_KIND, max_denominator=4))
        for v in c.transition.values():
            total = sum((q for _, q in v.entries), Fraction(0))
            assert total == 1
            assert all(q.denominator <= 4 for _, q in v.entries)


def test_generated_models_validate():
    for seed in range(30):
        for kind in (kripke_kind(("p", "q")), MULTISET_KIND, DISTRIBUTION_KIND, NEIGHBORHOOD_KIND):
            validate(generate_coalgebra(GeneratorConfig(seed=seed, kind=kind)))
    validate(
        generate_coalgebra(
            GeneratorConfig(seed=3, kind=MULTISET_KIND, allow_infinite=True)
        )
    )


def test_config_validation():
    with pytest.raises(ValidationError):
        GeneratorConfig(seed=-1, kind=kripke_kind(()))
    with pytest.raises(ValidationError):
        GeneratorConfig(seed=0, kind=kripke_kind(()), min_states=0)


def test_random_positive_formulas_respect_rank_and_positivity():
    c = generate_coalgebra(GeneratorConfig(seed=9, kind=kripke_kind(("p",))))
    sig = auto_signature(c)
    rng = random.Random(0)
    for _ in range(300):
        for cap in range(5):
            f = random_positive_formula(rng, sig, cap)
            assert rank(f) <= cap
            assert is_positive(f)


def test_random_relation_in_carriers():
    c = generate_coalgebra(GeneratorConfig(seed=2, kind=kripke_kind(())))
    d = generate_coalgebra(GeneratorConfig(seed=3, kind=kripke_kind(())))
    rng = random.Random(1)
    s = random_relation(rng, c, d)
    assert all(x in c.carrier and y in d.carrier for x, y in s.pairs)


def test_positive_formulas_are_those_of_the_first_generator():
    """Splitting the modalities once per formula changes no draw: the same
    formulas, and the generator left in the same state."""
    shapes = [
        (kripke_kind(("p", "q")), literal)
        for literal in ("kripke:box,diamond,atoms", "kripke:box", "kripke:atoms", "kripke:diamond,atoms")
    ] + [
        (kripke_kind(("p",)), None),
        (MULTISET_KIND, "graded:auto"),
        (MULTISET_KIND, "graded:0..0"),
        (DISTRIBUTION_KIND, "prob:auto-grid"),
        (NEIGHBORHOOD_KIND, "nbhd:box"),
    ]
    for case in range(540):
        kind, literal = shapes[case % len(shapes)]
        model = generate_coalgebra(GeneratorConfig(seed=case, kind=kind, max_states=4))
        sig = LambdaSignature(kind, ()) if literal is None else resolve_signature(literal, [model])
        max_rank = case % 5
        rng, reference = random.Random(case), random.Random(case)
        for _ in range(3):
            f = random_positive_formula(rng, sig, max_rank)
            assert format_formula(f) == format_formula(random_positive_formula_reference(reference, sig, max_rank))
        assert rng.getstate() == reference.getstate()
