"""Infinite multiset weights: supported everywhere except coupling search."""

import random

from coalsim import (
    INF,
    auto_signature,
    behavioural_equivalence,
    diamond_gt,
    is_simulation,
    multiset_value,
    satisfies,
    values_equal,
)
from coalsim.generators import GeneratorConfig, generate_coalgebra, random_relation
from coalsim.oracles import distinguishing_pair
from coalsim.values import MULTISET_KIND

from conftest import generic_listing_empty, multiset_model


def test_saturating_satisfaction():
    t = multiset_value({"a": INF, "b": 1})
    assert satisfies(t, diamond_gt(10**9), {"a"})
    assert not satisfies(t, diamond_gt(1), {"b"})
    assert satisfies(t, diamond_gt(1), {"a", "b"})


def test_fast_path_agreement_with_infinite_weights():
    rng = random.Random(2)
    for seed in range(150):
        cfg = GeneratorConfig(
            seed=seed, kind=MULTISET_KIND, max_states=4, allow_infinite=True
        )
        c = generate_coalgebra(cfg)
        d = generate_coalgebra(
            GeneratorConfig(seed=seed + 404, kind=MULTISET_KIND, max_states=4,
                            allow_infinite=True)
        )
        sig = auto_signature(c, d)
        s = random_relation(rng, c, d)
        assert is_simulation(s, c, d, sig).holds == generic_listing_empty(s, c, d, sig)


def test_auto_grid_separates_infinite_from_finite():
    c = multiset_model({"x": {"u": INF}, "y": {"u": 2}, "u": {}})
    sig = auto_signature(c)
    t, u = c.transition["x"], c.transition["y"]
    witness = distinguishing_pair(t, u, sig)
    assert witness is not None
    m, a = witness
    assert satisfies(t, m, a) != satisfies(u, m, a)


def test_behavioural_equivalence_with_infinite_weights():
    c = multiset_model({"x": {"u": INF}, "u": {}})
    d = multiset_model({"y": {"v": INF}, "z": {"v": 3}, "v": {}})
    sig = auto_signature(c, d)
    pairs = behavioural_equivalence(c, d, sig).pairs
    assert ("x", "y") in pairs
    assert ("x", "z") not in pairs
    assert ("u", "v") in pairs


def test_relabel_equivalence_merges_infinite_masses():
    left = multiset_value({"a": INF, "b": 2})
    right = multiset_value({"c": INF})
    merged_left = {"a": "t", "b": "t"}
    merged_right = {"c": "t"}
    from coalsim import relabel

    assert values_equal(relabel(left, merged_left), relabel(right, merged_right))
