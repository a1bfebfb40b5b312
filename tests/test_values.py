import random
from fractions import Fraction

import pytest

from coalsim import (
    BudgetError,
    DISTRIBUTION_KIND,
    INF,
    MULTISET_KIND,
    NEIGHBORHOOD_KIND,
    Coalgebra,
    KindMismatchError,
    ValidationError,
    antichain,
    auto_signature,
    base,
    coalgebra,
    dist_value,
    kripke_kind,
    kripke_value,
    multiset_value,
    is_simulation,
    nbhd_value,
    relabel,
    relation,
    satisfies,
    validate,
    values_equal,
)
from coalsim.generators import EnumerationBudget, enumerate_values
from coalsim.liftings import BOX, DIAMOND, NBHD_BOX, diamond_gt, at_least
from coalsim.oracles import brute_force_simulation_oracle
from coalsim.values import DistValue, MultisetValue

from oracle_helpers import all_subsets, nbhd_relabel_oracle


def test_validate_accepts_self_loop():
    c = coalgebra(kripke_kind(["p"]), ["x"], {"x": kripke_value(["p"], ["x"])})
    validate(c)


def test_validate_rejects_bad_mass_sum():
    v = dist_value({"a": Fraction(1, 2), "b": Fraction(1, 3)})
    c = Coalgebra(DISTRIBUTION_KIND, ("a", "b"), {"a": v, "b": dist_value({"b": 1})})
    with pytest.raises(ValidationError, match=r"mass sum 5/6 != 1"):
        validate(c)


def test_validate_names_a_value_of_unknown_type_or_of_another_kind():
    c = Coalgebra(MULTISET_KIND, ["a", "b"], {"a": "not a value", "b": kripke_value((), ["a"])})
    with pytest.raises(ValidationError) as caught:
        validate(c)
    assert caught.value.violations == [
        "state 'a': transition value has unknown type str",
        "state 'b': value kind kripke does not match model kind multiset",
    ]


def test_validate_rejects_non_antichain():
    v = nbhd_value([["a"], ["a", "b"]])
    c = Coalgebra(NEIGHBORHOOD_KIND, ("a", "b"), {"a": v, "b": nbhd_value([])})
    with pytest.raises(ValidationError, match="not an antichain"):
        validate(c)


def test_validate_rejects_weighted_entries_listing_a_state_twice_or_out_of_order():
    """A value listing a state twice was accepted, and then the pair check
    kept its last weight while `measure` summed them: here x -> {a: 1, a: 2}
    passed as simulated by y -> {b: 2} although the oracle, reading 3,
    disagrees.  Such values are rejected now, and so are entries out of
    `state_key` order; the canonical value gets the oracle's verdict."""
    twice = MultisetValue((("a", 1), ("a", 2)))
    with pytest.raises(ValidationError, match=r"state 'x': lists \['a'\] more than once"):
        coalgebra(MULTISET_KIND, ["x", "a"], {"x": twice, "a": MultisetValue(())})
    swapped = DistValue((("b", Fraction(1, 2)), ("a", Fraction(1, 2))))
    with pytest.raises(ValidationError, match="state 'x': entries are not in state_key order"):
        coalgebra(DISTRIBUTION_KIND, ["x", "a", "b"], {"x": swapped, "a": dist_value({"a": 1}),
                                                       "b": dist_value({"b": 1})})
    c = coalgebra(MULTISET_KIND, ["x", "a"], {"x": multiset_value({"a": 3}), "a": multiset_value({})})
    d = coalgebra(MULTISET_KIND, ["y", "b"], {"y": multiset_value({"b": 2}), "b": multiset_value({})})
    s = relation(c.carrier, d.carrier, [("x", "y"), ("a", "b")])
    sig = auto_signature(c, d)
    assert is_simulation(s, c, d, sig).holds is False
    assert brute_force_simulation_oracle(s, c, d, sig) is False


def test_validate_rejects_stray_states_and_missing_transitions():
    c = Coalgebra(kripke_kind([]), ("x",), {"x": kripke_value([], ["ghost"])})
    with pytest.raises(ValidationError, match="ghost"):
        validate(c)
    c2 = Coalgebra(kripke_kind([]), ("x", "y"), {"x": kripke_value([], [])})
    with pytest.raises(ValidationError, match="no transition"):
        validate(c2)


def test_base_per_kind():
    assert base(kripke_value(["p"], ["a", "b"])) == {"a", "b"}
    assert base(dist_value({"a": Fraction(1, 2), "b": Fraction(1, 2)})) == {"a", "b"}
    assert base(nbhd_value([["a"], ["b", "c"]])) == {"a", "b", "c"}
    assert base(multiset_value({"a": 2, "b": 0})) == {"a"}


def test_relabel_kripke_collapse():
    t = kripke_value([], ["a", "b"])
    assert relabel(t, {"a": "c", "b": "c"}) == kripke_value([], ["c"])


def test_relabel_dist_pushforward():
    t = dist_value({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    assert relabel(t, {"a": "c", "b": "c"}) == dist_value({"c": 1})


def test_relabel_multiset_infinity_absorbs():
    t = multiset_value({"a": 2, "b": INF})
    out = relabel(t, {"a": "c", "b": "c"})
    assert dict(out.entries)["c"] == INF


def test_relabel_nbhd_collapse():
    t = nbhd_value([["a"]])
    assert values_equal(relabel(t, {"a": "c", "b": "c"}), nbhd_value([["c"]]))


def test_relabel_names_missing_states_in_key_order():
    t = kripke_value([], [10, "b", "a"])
    with pytest.raises(ValidationError) as info:
        relabel(t, {"a": "c"})
    assert str(info.value) == "relabel map is not defined on ['b', 10]"


def test_relabel_names_missing_states_for_every_kind():
    values = (
        multiset_value({10: 2, "b": INF, "a": 1}),
        dist_value({10: Fraction(1, 2), "b": Fraction(1, 4), "a": Fraction(1, 4)}),
        nbhd_value([[10, "a"], ["b"]]),
    )
    for t in values:
        with pytest.raises(ValidationError) as info:
            relabel(t, {"a": "c"})
        assert str(info.value) == "relabel map is not defined on ['b', 10]"


def test_relabel_nbhd_matches_membership_oracle():
    rng = random.Random(5)
    states = ["a", "b", "c", "d"]
    labels = ["u", "v", "w"]
    for _ in range(60):
        sets = [
            [s for s in states if rng.random() < 0.5] for _ in range(rng.randint(0, 3))
        ]
        t = nbhd_value(antichain(sets))
        f = {s: labels[rng.randrange(3)] for s in states}
        pushed = relabel(t, f)
        expected_members = nbhd_relabel_oracle(t, f, labels)
        for b in all_subsets(labels):
            assert pushed.contains(b) == (b in expected_members)


def test_relabel_requires_total_map():
    with pytest.raises(ValidationError, match="not defined"):
        relabel(kripke_value([], ["a"]), {})


def test_values_equal_normalizes():
    assert values_equal(
        dist_value({"a": Fraction(1, 2), "b": Fraction(1, 2)}),
        dist_value({"b": Fraction(1, 2), "a": Fraction(1, 2)}),
    )
    assert values_equal(nbhd_value([["a"]]), nbhd_value([["a"], ["a", "b"]]))
    with pytest.raises(KindMismatchError):
        values_equal(kripke_value([], []), multiset_value({}))


def test_enumerate_kripke_complete():
    vals = list(enumerate_values(kripke_kind([]), ["a"]))
    assert vals == [kripke_value([], []), kripke_value([], ["a"])]


def test_enumerate_nbhd_families_over_one_state():
    vals = set(enumerate_values(NEIGHBORHOOD_KIND, ["a"]))
    assert vals == {
        nbhd_value([]),
        nbhd_value([[]]),
        nbhd_value([["a"]]),
    }


def test_enumerate_nbhd_counts_are_dedekind_numbers():
    assert len(list(enumerate_values(NEIGHBORHOOD_KIND, []))) == 2
    assert len(list(enumerate_values(NEIGHBORHOOD_KIND, ["a", "b"]))) == 6
    assert len(list(enumerate_values(NEIGHBORHOOD_KIND, ["a", "b", "c"]))) == 20


def test_enumerate_nbhd_refuses_more_than_five_states():
    states = [f"s{i}" for i in range(6)]
    with pytest.raises(BudgetError, match="6 states exceeds the cap of 5"):
        next(enumerate_values(NEIGHBORHOOD_KIND, states))


def test_enumerate_multiset_cap():
    vals = list(
        enumerate_values(MULTISET_KIND, ["a"], EnumerationBudget(max_weight=1))
    )
    assert vals == [multiset_value({}), multiset_value({"a": 1})]


def test_enumerate_dist_respects_grid():
    vals = list(
        enumerate_values(
            DISTRIBUTION_KIND, ["a", "b"], EnumerationBudget(denominators=(1, 2))
        )
    )
    assert dist_value({"a": 1}) in vals
    assert dist_value({"a": Fraction(1, 2), "b": Fraction(1, 2)}) in vals
    assert all(sum(q for _, q in v.entries) == 1 for v in vals)
    assert len(vals) == len(set(vals))


def test_functor_laws_on_random_values():
    rng = random.Random(11)
    states = ["a", "b", "c"]
    labels = ["u", "v"]
    second = {"u": "z0", "v": "z1"}
    pool = (
        list(enumerate_values(kripke_kind(["p"]), states))[:40]
        + list(enumerate_values(MULTISET_KIND, states, EnumerationBudget(max_weight=1)))
        + list(
            enumerate_values(DISTRIBUTION_KIND, states, EnumerationBudget(denominators=(1, 2)))
        )
        + list(enumerate_values(NEIGHBORHOOD_KIND, states))
    )
    for t in pool:
        assert values_equal(relabel(t, {s: s for s in states}), t)
        f = {s: labels[rng.randrange(2)] for s in states}
        assert values_equal(
            relabel(relabel(t, f), second), relabel(t, {s: second[f[s]] for s in states})
        )


def test_base_guarantee_brute_force():
    states = ["a", "b", "c"]
    universe = states + ["x", "y"]
    cases = (
        [(v, BOX) for v in enumerate_values(kripke_kind([]), states)]
        + [(v, DIAMOND) for v in enumerate_values(kripke_kind([]), states)]
        + [
            (v, diamond_gt(k))
            for v in enumerate_values(MULTISET_KIND, states, EnumerationBudget(max_weight=2))
            for k in (0, 1, 2)
        ]
        + [
            (v, at_least(Fraction(1, 2)))
            for v in enumerate_values(
                DISTRIBUTION_KIND, states, EnumerationBudget(denominators=(1, 2))
            )
        ]
        + [(v, NBHD_BOX) for v in enumerate_values(NEIGHBORHOOD_KIND, states)]
    )
    for t, m in cases:
        for a in all_subsets(universe):
            assert satisfies(t, m, a) == satisfies(t, m, a & base(t))


def test_models_are_read_only_and_hash_by_kind_and_carrier():
    source = {"x": kripke_value([], ["x"])}
    c = coalgebra(kripke_kind([]), ["x"], source)
    source["x"] = kripke_value([], [])
    assert c.transition["x"].succ == frozenset({"x"})
    with pytest.raises(TypeError):
        c.transition["x"] = kripke_value([], [])
    assert c.carrier == ("x",)
    same = coalgebra(kripke_kind([]), ("x",), {"x": kripke_value([], ["x"])})
    dead = coalgebra(kripke_kind([]), ("x",), {"x": kripke_value([], [])})
    assert c == same and hash(c) == hash(same)
    assert c != dead and hash(c) == hash(dead)
    assert len({c, same, dead}) == 2


def test_value_functions_keep_their_errors_on_non_values_and_foreign_kinds():
    """Errors and messages of the public value functions on a non-value, an
    unknown kind name, a foreign kind and a relabel map with a missing key."""
    from coalsim.liftings import atom, more_than
    from coalsim.modelio import value_from_json, value_to_json

    def error(call, *args):
        with pytest.raises(Exception) as caught:
            call(*args)
        return type(caught.value), str(caught.value)

    assert error(base, 42) == (KindMismatchError, "not a transition value: 42")
    assert error(relabel, 42, {}) == (KindMismatchError, "not a transition value: 42")
    assert error(value_to_json, 42) == (ValidationError, "not a transition value: 42")
    assert error(value_from_json, "foo", {}) == (ValidationError, "unknown functor 'foo'")
    assert error(value_from_json, 42, {}) == (ValidationError, "unknown functor 42")
    assert error(value_from_json, ["kripke"], {}) == (ValidationError, "unknown functor ['kripke']")
    values = (
        kripke_value(["p"], [10, "a", "b"]),
        multiset_value({10: 2, "b": INF, "a": 1}),
        dist_value({10: Fraction(1, 2), "b": Fraction(1, 4), "a": Fraction(1, 4)}),
        nbhd_value([[10, "a"], ["b"]]),
    )
    own = ((BOX, DIAMOND, atom("p")), (diamond_gt(1),), (at_least(Fraction(1, 2)), more_than(0)), (NBHD_BOX,))
    for i, t in enumerate(values):
        name = type(t).__name__
        assert error(relabel, t, {"a": "c"}) == (ValidationError, "relabel map is not defined on ['b', 10]")
        assert error(values_equal, 42, t) == (KindMismatchError, f"cannot compare int with {name}")
        for j, u in enumerate(values):
            if i != j:
                assert error(values_equal, t, u) == (
                    KindMismatchError, f"cannot compare {name} with {type(u).__name__}"
                )
                for m in own[j]:
                    assert error(satisfies, t, m, {"a"}) == (
                        KindMismatchError, f"modality {m.token()!r} is not interpretable over {name}"
                    )
    assert error(satisfies, 42, BOX, set()) == (KindMismatchError, "modality '[]' is not interpretable over int")


def test_measure_of_a_value_without_weights_is_a_kind_mismatch():
    from coalsim.values import measure

    assert measure(multiset_value({"a": 2, "b": INF}), {"a"}) == 2
    assert measure(dist_value({"a": Fraction(1, 3), "b": Fraction(2, 3)}), {"b"}) == Fraction(2, 3)
    for t in (kripke_value(["p"], ["a"]), nbhd_value([["a"]]), 42):
        with pytest.raises(KindMismatchError, match=f"measure is not defined on {type(t).__name__}"):
            measure(t, {"a"})
