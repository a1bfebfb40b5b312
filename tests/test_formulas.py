import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coalsim import (
    And,
    KindMismatchError,
    Modal,
    Neg,
    Or,
    ParseError,
    UnknownModalityError,
    at_least,
    atom,
    auto_signature,
    diamond_gt,
    evaluate,
    extension,
    format_formula,
    is_positive,
    parse_formula,
    rank,
)
from coalsim.formulas import BOT, MAX_FORMULA_DEPTH, TOP
from coalsim.generators import random_formula
from coalsim.liftings import BOX, DIAMOND, NBHD_BOX

from conftest import dist_model, kripke_model, multiset_model, nbhd_model
from oracle_helpers import kripke_eval_oracle, rank_oracle


@pytest.fixture
def ksig():
    return auto_signature(kripke_model({"x": []}, atoms=["p", "q"]))


def test_parse_literals(ksig):
    assert parse_formula("true", ksig) == TOP
    assert parse_formula("false", ksig) == BOT
    assert parse_formula("p", ksig) == Modal(atom("p"), None)


def test_parse_modal_nesting(ksig):
    f = parse_formula("<> (p & [] q)", ksig)
    assert f == Modal(
        DIAMOND, And(Modal(atom("p"), None), Modal(BOX, Modal(atom("q"), None)))
    )


def test_parse_probabilistic():
    d = dist_model({"x": {"x": 1}})
    sig = auto_signature(d)
    f = parse_formula("L(1/2) true", sig)
    assert f == Modal(at_least(Fraction(1, 2)), TOP)
    g = parse_formula("M(1) false", sig)
    assert g.modality.op == "more_than"


def test_parse_graded_and_neighborhood():
    msig = auto_signature(multiset_model({"u": {"u": 1}}))
    assert parse_formula("<3> true", msig) == Modal(diamond_gt(3), TOP)
    nsig = auto_signature(nbhd_model({"u": [["u"]]}))
    assert parse_formula("[m] true", nsig) == Modal(NBHD_BOX, TOP)


def test_parse_precedence_and_implication(ksig):
    f = parse_formula("p & q | p -> q", ksig)
    p, q = Modal(atom("p"), None), Modal(atom("q"), None)
    assert f == Or(Neg(Or(And(p, q), p)), q)


def test_parse_errors_carry_positions(ksig):
    with pytest.raises(ParseError) as err:
        parse_formula("p & ", ksig)
    assert err.value.position == 4
    with pytest.raises(UnknownModalityError, match="zz"):
        parse_formula("p & zz", ksig)
    with pytest.raises(UnknownModalityError, match="<2>"):
        parse_formula("<2> p", ksig)
    with pytest.raises(ParseError):
        parse_formula("p p", ksig)
    with pytest.raises(ParseError):
        parse_formula("L(3/2) true", auto_signature(dist_model({"x": {"x": 1}})))


def _nested_forms(k):
    """Formulas k levels deep in each way the parser and the evaluator recurse."""
    return {
        "negation": "~" * k + "p",
        "parentheses": "(" * k + "p" + ")" * k,
        "diamond": "<> " * k + "p",
        "conjunction": " & ".join(["p"] * (k + 1)),
        "implication": " -> ".join(["p"] * k),
    }


def test_formulas_at_the_depth_bound_parse_and_evaluate():
    c = kripke_model({"x": ["x"]}, atoms=["p"], props={"x": ["p"]})
    sig = auto_signature(c)
    for name, text in _nested_forms(MAX_FORMULA_DEPTH).items():
        f = parse_formula(text, sig)
        assert evaluate(f, c, "x"), name
        assert parse_formula(format_formula(f), sig) == f, name


@pytest.mark.parametrize("k", [MAX_FORMULA_DEPTH + 1, 3000])
def test_formulas_past_the_depth_bound_are_rejected(ksig, k):
    for name, text in _nested_forms(k).items():
        with pytest.raises(ParseError, match=f"deeper than {MAX_FORMULA_DEPTH} levels"):
            parse_formula(text, ksig)


def test_rank_examples(ksig):
    assert rank(TOP) == 0
    assert rank(parse_formula("p & q", ksig)) == 1
    assert rank(parse_formula("<> (p & [] q)", ksig)) == 3
    assert rank(parse_formula("<> <> true", ksig)) == 2


def test_is_positive(ksig):
    assert is_positive(parse_formula("<> p | [] q", ksig))
    assert not is_positive(parse_formula("~p", ksig))
    assert is_positive(parse_formula("true", ksig))
    assert not is_positive(parse_formula("p -> q", ksig))


def _formula_strategy(sig, max_rank=3):
    def build(depth):
        leaves = [st.just(TOP), st.just(BOT)]
        if depth > 0:
            leaves.append(
                st.just(Modal(atom("p"), None))
            )
        base_st = st.one_of(*leaves)
        if depth == 0:
            return base_st
        sub = build(depth - 1)
        return st.one_of(
            base_st,
            st.builds(Neg, sub),
            st.builds(And, sub, sub),
            st.builds(Or, sub, sub),
            st.builds(lambda f: Modal(BOX, f), sub),
            st.builds(lambda f: Modal(DIAMOND, f), sub),
        )

    return build(max_rank)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_parse_print_round_trip(data):
    sig = auto_signature(kripke_model({"x": []}, atoms=["p", "q"]))
    f = data.draw(_formula_strategy(sig))
    assert parse_formula(format_formula(f), sig) == f


def test_round_trip_on_seeded_random_formulas():
    models = [
        kripke_model({"x": ["x"]}, atoms=["p", "q"], props={"x": ["p"]}),
        multiset_model({"u": {"u": 2}}),
        dist_model({"x": {"x": 1}}),
        nbhd_model({"u": [["u"]]}),
    ]
    rng = random.Random(77)
    for c in models:
        sig = auto_signature(c)
        for _ in range(150):
            f = random_formula(rng, sig, max_rank=3)
            assert parse_formula(format_formula(f), sig) == f


def test_eval_truth_clauses():
    c = kripke_model({"x": ["x"]}, atoms=["p"], props={"x": ["p"]})
    sig = auto_signature(c)
    assert evaluate(parse_formula("true", sig), c, "x")
    assert evaluate(parse_formula("<> p", sig), c, "x")
    assert not evaluate(parse_formula("~ <> p", sig), c, "x")


def test_eval_graded_thresholds():
    m = multiset_model({"u": {"u": 2}})
    sig = auto_signature(m)
    assert evaluate(parse_formula("<1> true", sig), m, "u")
    assert not evaluate(parse_formula("<2> true", sig), m, "u")


def test_eval_boolean_laws_random():
    c = kripke_model(
        {"x": ["y"], "y": ["x", "y"]}, atoms=["p", "q"], props={"x": ["p"], "y": ["q"]}
    )
    sig = auto_signature(c)
    rng = random.Random(13)
    for _ in range(200):
        f = random_formula(rng, sig, 2)
        g = random_formula(rng, sig, 2)
        for s in c.carrier:
            assert evaluate(Neg(f), c, s) == (not evaluate(f, c, s))
            assert evaluate(And(f, g), c, s) == (
                evaluate(f, c, s) and evaluate(g, c, s)
            )
            assert evaluate(Or(f, g), c, s) == (
                evaluate(f, c, s) or evaluate(g, c, s)
            )


def test_eval_matches_graph_oracle_on_random_kripke_models():
    from coalsim import kripke_kind
    from coalsim.generators import GeneratorConfig, generate_coalgebra

    rng = random.Random(99)
    for trial in range(60):
        cfg = GeneratorConfig(
            seed=trial, kind=kripke_kind(("p", "q")), max_states=8, max_branching=4
        )
        c = generate_coalgebra(cfg)
        sig = auto_signature(c)
        for _ in range(10):
            f = random_formula(rng, sig, 3)
            for x in c.carrier:
                assert evaluate(f, c, x) == kripke_eval_oracle(f, c, x)


def test_rank_matches_oracle_on_random_formulas():
    c = kripke_model({"x": []}, atoms=["p"])
    sig = auto_signature(c)
    rng = random.Random(4)
    for _ in range(300):
        f = random_formula(rng, sig, 4)
        assert rank(f) == rank_oracle(f)


def test_eval_kind_mismatch():
    m = multiset_model({"u": {"u": 1}})
    ksig = auto_signature(kripke_model({"x": []}, atoms=["p"]))
    f = parse_formula("<> p", ksig)
    with pytest.raises(KindMismatchError):
        evaluate(f, m, "u")


def test_eval_unknown_state():
    c = kripke_model({"x": []})
    sig = auto_signature(c)
    from coalsim import ValidationError

    with pytest.raises(ValidationError):
        evaluate(TOP, c, "zz")


def test_extension_is_set_of_satisfying_states():
    c = kripke_model({"x": ["y"], "y": []}, atoms=["p"], props={"y": ["p"]})
    sig = auto_signature(c)
    assert extension(parse_formula("<> p", sig), c) == {"x"}
