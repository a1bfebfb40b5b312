from fractions import Fraction

import pytest

from coalsim import (
    DISTRIBUTION_KIND,
    MULTISET_KIND,
    NEIGHBORHOOD_KIND,
    coalgebra,
    dist_value,
    kripke_kind,
    kripke_value,
    multiset_value,
    nbhd_value,
)
from coalsim.liftings import lifting_violations


def kripke_model(transitions, atoms=(), props=None):
    """Build a Kripke model from {state: successors}; props maps state -> atom list."""
    props = props or {}
    states = list(transitions)
    return coalgebra(
        kripke_kind(atoms),
        states,
        {s: kripke_value(props.get(s, []), succ) for s, succ in transitions.items()},
    )


def multiset_model(transitions):
    states = list(transitions)
    return coalgebra(
        MULTISET_KIND, states, {s: multiset_value(w) for s, w in transitions.items()}
    )


def dist_model(transitions):
    states = list(transitions)
    return coalgebra(
        DISTRIBUTION_KIND,
        states,
        {s: dist_value({z: Fraction(q) for z, q in w.items()}) for s, w in transitions.items()},
    )


def generic_listing_empty(s, c, d, sig):
    """Does the generic search list no simulation violation at any pair of s?"""
    img = s.left_images()
    return not any(
        lifting_violations(c.transition[x], d.transition[y], img, sig, 1)
        for x, y in s.sorted_pairs()
    )


def nbhd_model(transitions):
    states = list(transitions)
    return coalgebra(
        NEIGHBORHOOD_KIND, states, {s: nbhd_value(m) for s, m in transitions.items()}
    )


@pytest.fixture
def chain3_vs_chain2():
    c = kripke_model({"x0": ["x1"], "x1": ["x2"], "x2": []})
    d = kripke_model({"y0": ["y1"], "y1": []})
    return c, d
