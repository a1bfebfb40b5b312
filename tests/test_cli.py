import itertools
import json
import random
import sys
import time

import pytest

import coalsim.cli
from coalsim import (
    DISTRIBUTION_KIND,
    MULTISET_KIND,
    NEIGHBORHOOD_KIND,
    NotSeparatingError,
    auto_signature,
    coalgebra,
    difunctional_closure,
    full_relation,
    kripke_kind,
    relation,
    resolve_signature,
    satisfies,
    t_bisim_up_to_difunctionality_check,
    t_bisimulation_check,
)
from coalsim.behaviour import certified_partition
from coalsim.generators import (
    GeneratorConfig,
    generate_coalgebra,
    inflate_coalgebra,
    random_relation,
)
from coalsim.cli import cli_dispatch
from coalsim.liftings import _separation_gap
from coalsim.modelio import (
    coalgebra_to_dict,
    dump_json,
    load_coalgebra,
    load_relation,
    relation_to_dict,
)
from coalsim.oracles import simulation_chain
from coalsim.properties import PROPERTIES
from coalsim.values import integer_weights, relabel


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_json(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def loop_model(tmp_path):
    return write(
        tmp_path,
        "loop.json",
        {
            "functor": "kripke",
            "atoms": ["p"],
            "states": ["x"],
            "transition": {"x": {"props": ["p"], "succ": ["x"]}},
        },
    )


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = cli_dispatch(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def test_eval_true_exit_zero(run, loop_model):
    code, out, _ = run("eval", loop_model, "x", "<> p")
    assert code == 0 and out == "true\n"


def test_eval_false_exit_one(run, loop_model):
    code, out, _ = run("eval", loop_model, "x", "~p")
    assert code == 1 and out == "false\n"


def test_eval_json_mode(run, loop_model):
    code, out, _ = run("eval", loop_model, "x", "p", "--json")
    assert code == 0
    assert json.loads(out) == {"state": "x", "holds": True}


def test_repeated_calls_reuse_one_parser_without_carrying_state(run, loop_model):
    calls = [("eval", loop_model, "x", "<> p", "--json"), ("eval", loop_model, "x", "~p")]
    first = [run(*argv)[:2] for argv in calls]
    code, out, err = run("eval", loop_model, "--no-such-flag")
    assert code == 2 and out == "" and "usage:" in err
    again = [run(*argv)[:2] for argv in calls]
    assert first == again == [(0, '{"holds": true, "state": "x"}\n'), (1, "false\n")]
    assert coalsim.cli.build_parser() is coalsim.cli.build_parser()


def test_eval_bad_formula_exit_two(run, loop_model):
    code, _, err = run("eval", loop_model, "x", "p &")
    assert code == 2 and "error:" in err


def test_eval_unknown_modality_exit_two(run, loop_model):
    code, _, err = run("eval", loop_model, "x", "<2> p")
    assert code == 2 and "<2>" in err


def test_closure_adds_zigzag_pair(run, tmp_path):
    rel = write(
        tmp_path,
        "r.json",
        {"pairs": [["x1", "y1"], ["x2", "y1"], ["x2", "y2"]]},
    )
    code, out, _ = run("closure", rel)
    assert code == 0
    assert out.splitlines() == ["x1 y1", "x1 y2", "x2 y1", "x2 y2"]


def test_check_sim_and_greatest_commands(run, tmp_path):
    c = write(
        tmp_path,
        "c.json",
        {
            "functor": "kripke",
            "atoms": [],
            "states": ["x", "a", "b"],
            "transition": {
                "x": {"props": [], "succ": ["a", "b"]},
                "a": {"props": [], "succ": []},
                "b": {"props": [], "succ": []},
            },
        },
    )
    d = write(
        tmp_path,
        "d.json",
        {
            "functor": "kripke",
            "atoms": [],
            "states": ["y", "c"],
            "transition": {
                "y": {"props": [], "succ": ["c"]},
                "c": {"props": [], "succ": []},
            },
        },
    )
    rel = write(tmp_path, "rel.json", {"pairs": [["x", "y"], ["a", "c"], ["b", "c"]]})
    code, out, _ = run("check-sim", c, d, rel)
    assert code == 0 and out.startswith("holds")
    code, out, _ = run("check-sim", c, d, rel, "--bi")
    assert code == 0
    code, out, _ = run("check-sim", c, d, rel, "--n", "2")
    assert code == 0
    code, out, _ = run("check-sim", c, d, rel, "--up-to-difunctional")
    assert code == 0
    code, out, _ = run("greatest-sim", c, d)
    assert code == 0 and ("x y" in out)
    code, out, _ = run("greatest-bisim", c, d, "--json")
    assert code == 0
    assert ["x", "y"] in json.loads(out)["pairs"]
    code, out, _ = run("greatest-bisim", c, d, "--n", "0")
    assert code == 0


def test_check_sim_lists_a_failing_kripke_pair_past_the_exhaustive_bound(run, tmp_path):
    """x has 17 successors and y none: the check fails with exit 1 and lists
    its first 100 violations instead of exiting 2 on the subset budget."""
    zs = [f"z{i}" for i in range(17)]
    c = write(tmp_path, "c.json", {
        "functor": "kripke", "states": ["x", *zs],
        "transition": {"x": {"props": [], "succ": zs}, **{z: {"props": [], "succ": []} for z in zs}},
    })
    d = write(tmp_path, "d.json", {
        "functor": "kripke", "states": ["y"], "transition": {"y": {"props": [], "succ": []}},
    })
    rel = write(tmp_path, "rel.json", {"pairs": [["x", "y"]]})
    code, out, _ = run("check-sim", c, d, rel, "--json")
    violations = json.loads(out)["violations"]
    assert code == 1 and len(violations) == 100
    assert violations[:2] == [
        {"direction": "forward", "left": "x", "right": "y", "modality": "<>", "witness": [w]}
        for w in ("z0", "z1")
    ]


def test_depth_and_up_to_difunctional_are_exclusive(run, tmp_path):
    c = write(tmp_path, "c.json", {
        "functor": "kripke", "states": ["x", "y"],
        "transition": {"x": {"props": [], "succ": ["y"]}, "y": {"props": [], "succ": []}},
    })
    d = write(tmp_path, "d.json", {
        "functor": "kripke", "states": ["z"], "transition": {"z": {"props": [], "succ": ["z"]}},
    })
    rel = write(tmp_path, "rel.json", {"pairs": [["x", "z"]]})
    assert run("check-sim", c, d, rel, "--n", "1")[:2] == (0, "holds\n")
    assert run("check-sim", c, d, rel, "--up-to-difunctional")[0] == 1
    code, out, err = run("check-sim", c, d, rel, "--up-to-difunctional", "--n", "1")
    assert code == 2 and out == ""
    assert "argument --n: not allowed with argument --up-to-difunctional" in err


def test_nstep_and_behavioural_with_witness(run, tmp_path):
    cyc = write(
        tmp_path,
        "cyc.json",
        {
            "functor": "kripke",
            "atoms": ["p"],
            "states": ["x0", "x1"],
            "transition": {
                "x0": {"props": ["p"], "succ": ["x1"]},
                "x1": {"props": ["p"], "succ": ["x0"]},
            },
        },
    )
    loop = write(
        tmp_path,
        "loop.json",
        {
            "functor": "kripke",
            "atoms": ["p"],
            "states": ["y"],
            "transition": {"y": {"props": ["p"], "succ": ["y"]}},
        },
    )
    code, out, _ = run("nstep", cyc, loop, "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["n"] == 2
    witness_path = str(tmp_path / "witness.json")
    code, out, _ = run("behavioural", cyc, loop, "--witness", witness_path)
    assert code == 0
    assert out.splitlines() == ["x0 y", "x1 y"]
    witness = json.loads(open(witness_path).read())
    assert set(witness) == {"blocks", "kappa_left", "kappa_right", "structure"}
    assert len(witness["blocks"]) == 1


def test_tbisim_exit_codes(run, tmp_path):
    c = write(
        tmp_path,
        "dc.json",
        {
            "functor": "distribution",
            "states": ["x", "a", "b"],
            "transition": {
                "x": {"a": "1/2", "b": "1/2"},
                "a": {"a": "1"},
                "b": {"b": "1"},
            },
        },
    )
    d = write(
        tmp_path,
        "dd.json",
        {
            "functor": "distribution",
            "states": ["y", "c"],
            "transition": {"y": {"c": "1"}, "c": {"c": "1"}},
        },
    )
    bad = write(tmp_path, "bad.json", {"pairs": [["x", "y"], ["a", "c"]]})
    good = write(tmp_path, "good.json", {"pairs": [["x", "y"], ["a", "c"], ["b", "c"]]})
    code, out, _ = run("tbisim", c, d, bad)
    assert code == 1 and out == "no coupling\n"
    code, out, _ = run("tbisim", c, d, good)
    assert code == 0 and out == "coupling found\n"
    code, out, _ = run("tbisim", c, d, good, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["couplings"][0]["left"] == "a"


def _odd_labels(c, start=0):
    """c on labels that JSON and `repr` write differently: quotes, backslashes, non-ASCII."""
    shapes = ("s{}", 'q"{}', "b\\{}", "\u00fc{}", "s'{}")
    f = {s: shapes[(i + start) % len(shapes)].format(i) for i, s in enumerate(c.carrier)}
    return coalgebra(c.kind, list(f.values()), {f[s]: relabel(t, f) for s, t in c.transition.items()})


def test_tbisim_json_bytes_are_the_coupling_document(run, tmp_path):
    """`tbisim --json` writes its document in one pass; its bytes are
    `dump_json(coupling.to_dict())` of the library's check, for all four
    kinds, on dense C x D, random and planted relations, plain and up to
    difunctionality, and on distribution plans whose cells are not in
    lowest terms over their denominator."""
    rng = random.Random(223)
    kinds = (kripke_kind(("p", "q")), MULTISET_KIND, DISTRIBUTION_KIND, NEIGHBORHOOD_KIND)
    seen = {}
    unreduced = 0
    for trial in range(60):
        kind = kinds[trial % 4]
        base = generate_coalgebra(GeneratorConfig(seed=trial, kind=kind, max_states=4, max_denominator=6))
        c, inflated = _odd_labels(base), inflate_coalgebra(rng, base)
        d = _odd_labels(inflated, start=1)
        back = dict(zip(d.carrier, (s.rsplit(".", 1)[0] for s in inflated.carrier)))
        to_c = dict(zip(base.carrier, c.carrier))
        relations = {
            "dense": full_relation(c.carrier, d.carrier),
            "random": random_relation(rng, c, d, density=0.5),
            "planted": relation(c.carrier, d.carrier, [(to_c[back[y]], y) for y in d.carrier]),
        }
        left, right = write(tmp_path, "c.json", coalgebra_to_dict(c)), write(tmp_path, "d.json", coalgebra_to_dict(d))
        for name, s in relations.items():
            rel = write(tmp_path, "r.json", relation_to_dict(s))
            for check, flags in ((t_bisimulation_check, ()), (t_bisim_up_to_difunctionality_check, ("--up-to-difunctional",))):
                coupling = check(s, load_coalgebra(left), load_coalgebra(right))
                code, out, err = run("tbisim", left, right, rel, *flags, "--json")
                expected = dump_json(coupling.to_dict() if coupling is not None else {"couplings": None})
                assert (code, out, err) == (0 if coupling is not None else 1, expected, ""), (kind, name, flags)
                key = (kind.name, name, coupling is not None)
                seen[key] = seen.get(key, 0) + 1
                if kind == DISTRIBUTION_KIND and coupling is not None:
                    for (x, y), v in coupling.values:
                        den, _ = integer_weights(c.transition[x], d.transition[y])
                        unreduced += any(q.denominator != den for _, q in v.entries)
    assert all(seen.get((k.name, name, True), 0) >= 5 for k in kinds for name in ("dense", "planted")), seen
    assert sum(n for (_, name, found), n in seen.items() if name == "random" and found) >= 10, seen
    assert unreduced >= 20


def test_tbisim_json_past_the_digit_limit_exits_two(run, tmp_path):
    """A coupling mass whose denominator has about 6,000 digits is found, and
    rendering it fails with the `as_text` BudgetError before any output."""
    left = write(tmp_path, "c.json", _two_masses("x", "z", 10**3000 + 1))
    right = write(tmp_path, "d.json", _two_masses("y", "w", 10**3000 + 3))
    rel = write(tmp_path, "r.json", {"pairs": [["x", "y"], ["x", "w"], ["z", "y"], ["z", "w"]]})
    code, out, _ = run("tbisim", left, right, rel)
    assert (code, out) == (0, "coupling found\n")
    code, out, err = run("tbisim", left, right, rel, "--json")
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this Python converts integers of any length")
    assert (code, out) == (2, "")
    assert err == f"error: a number has more than {limit} digits, the most Python converts to text\n"


def test_randtest_known_and_unknown_property(run):
    code, out, _ = run("randtest", "functor-laws", "--trials", "10", "--seed", "3")
    assert code == 0 and "PASS" in out
    code, _, err = run("randtest", "no-such-property")
    assert code == 2 and "unknown property" in err


def test_randtest_search_property_reports_but_exits_zero(run):
    code, out, _ = run("randtest", "open-problem-search", "--trials", "3", "--seed", "0")
    assert code == 0


def test_greatest_bisim_empty_result_exit_one(run, tmp_path, loop_model):
    dead = write(
        tmp_path,
        "dead.json",
        {
            "functor": "kripke",
            "atoms": ["p"],
            "states": ["y"],
            "transition": {"y": {"props": [], "succ": []}},
        },
    )
    code, out, _ = run("greatest-bisim", loop_model, dead)
    assert code == 1 and out == ""


def test_validation_error_exit_two(run, tmp_path):
    bad = write(
        tmp_path,
        "bad_model.json",
        {
            "functor": "distribution",
            "states": ["a"],
            "transition": {"a": {"a": "1/2"}},
        },
    )
    code, _, err = run("eval", bad, "a", "true")
    assert code == 2 and "mass sum" in err


def _kripke_doc(states, succ=()):
    transition = {s: {"props": [], "succ": list(succ)} for s in ("a", "b")}
    return {"functor": "kripke", "states": states, "transition": transition}


def _one_mass(mass):
    return {"functor": "distribution", "states": ["a"], "transition": {"a": {"a": mass}}}


def _two_masses(s, t, den):
    return {"functor": "distribution", "states": [s, t],
            "transition": {s: {s: f"1/{den}", t: f"{den - 1}/{den}"}, t: {t: 1}}}


_P2, _Q2 = 2 * (10**3000 + 1), 2 * (10**3000 + 3)  # each pair of masses over one sums to 1/2

BAD_FILES = {
    "rel": {"pairs": [["x", "x"]]},
    "pairs_int": {"pairs": 5},
    "dist": {"functor": "distribution", "states": ["a"], "transition": {"a": {"a": 1}}},
    "states_string": _kripke_doc("ab"),
    "state_list": _kripke_doc([["a"], "b"]),
    "state_bool": _kripke_doc([True, "b"]),
    "succ_list": _kripke_doc(["a", "b"], succ=[["a"]]),
    "pair_list": {"pairs": [[["x"], "x"]]},
    "props_list": {"functor": "kripke", "atoms": ["p"], "states": ["a"],
                   "transition": {"a": {"props": [["p"]], "succ": []}}},
    "atoms_list": {"functor": "kripke", "atoms": [["p"]], "states": ["a"],
                   "transition": {"a": {"props": [], "succ": []}}},
    "atoms_string": {"functor": "kripke", "atoms": "pq", "states": ["a"],
                     "transition": {"a": {"props": [], "succ": []}}},
    "multiset": {"functor": "multiset", "states": ["a", "b"],
                 "transition": {"a": {"b": 2}, "b": {"a": 1, "b": "inf"}}},
    "mass_long": {"functor": "distribution", "states": ["a"],
                  "transition": {"a": {"a": "9" * 5000 + "/" + "x" * 5000}}},
    "weight_long": {"functor": "multiset", "states": ["a"],
                    "transition": {"a": {"a": "w" * 20000}}},
    "states_long": _kripke_doc("s" * 20000),
    "pair_long": {"pairs": [["x" * 20000]]},
    "succ_long": {"functor": "kripke", "states": ["a"],
                  "transition": {"a": {"props": [], "succ": ["s" * 20000]}}},
    "key_long": {"functor": "kripke", "states": ["a"],
                 "transition": {"a": {"props": [], "succ": []},
                                "k" * 20000: {"props": [], "succ": []}}},
    "prop_long": {"functor": "kripke", "atoms": ["p"], "states": ["a"],
                  "transition": {"a": {"props": ["p" * 20000], "succ": []}}},
    "pair_state_long": {"pairs": [["x", "y" * 20000]]},
    "mass_exponent": _one_mass("1e100000"),
    "mass_exponent_huge": _one_mass("1e10000000"),
    "mass_sum_long": {"functor": "distribution", "states": ["a", "b"],
                      "transition": {"a": {"a": "1/" + "9" * 4000, "b": "1/" + "9" * 3999},
                                     "b": {"b": 1}}},
    # Masses with coprime 3,001-digit denominators: the coupling's cells need about 6,000 digits.
    "coprime_left": _two_masses("x", "z", 10**3000 + 1),
    "coprime_right": _two_masses("y", "w", 10**3000 + 3),
    "coprime_rel": {"pairs": [["x", "y"], ["x", "w"], ["z", "y"], ["z", "w"]]},
    # One value over both denominators: some subset masses, and so some
    # thresholds of the auto grid, need about 6,000 digits.
    "bound_long": {"functor": "distribution", "states": ["x", "a", "b", "e", "f"],
                   "transition": {"x": {"a": f"1/{_P2}", "b": f"{_P2 // 2 - 1}/{_P2}",
                                        "e": f"1/{_Q2}", "f": f"{_Q2 // 2 - 1}/{_Q2}"},
                                  **{s: {s: 1} for s in "abef"}}},
    "bound_point": {"functor": "distribution", "states": ["y"], "transition": {"y": {"y": 1}}},
    "bound_rel": {"pairs": [["x", "y"]]},
}

BAD_INPUTS = [
    ("max-base-not-integer", {"COALSIM_MAX_BASE": "abc"},
     ("check-sim", "{loop}", "{loop}", "{rel}"), "COALSIM_MAX_BASE must be"),
    ("max-base-negative", {"COALSIM_MAX_BASE": "-3"},
     ("check-sim", "{loop}", "{loop}", "{rel}", "--bi"), "COALSIM_MAX_BASE must be"),
    ("max-base-not-integer-greatest-sim-kripke", {"COALSIM_MAX_BASE": "abc"},
     ("greatest-sim", "{loop}", "{loop}"), "COALSIM_MAX_BASE must be"),
    ("max-base-not-integer-greatest-sim-multiset", {"COALSIM_MAX_BASE": "abc"},
     ("greatest-sim", "{multiset}", "{multiset}"), "COALSIM_MAX_BASE must be"),
    ("not-utf8", {}, ("eval", "{latin1}", "a", "true"), "not UTF-8"),
    ("model-is-directory", {}, ("eval", "{dir}", "a", "true"), "Is a directory"),
    ("witness-is-directory", {}, ("behavioural", "{loop}", "{loop}", "--witness", "{dir}"),
     "Is a directory"),
    ("states-not-a-list", {}, ("eval", "{states_string}", "a", "true"), "list of states"),
    ("state-is-a-list", {}, ("eval", "{state_list}", "b", "true"), "not a string or an integer"),
    ("state-is-a-bool", {}, ("eval", "{state_bool}", "b", "true"), "not a string or an integer"),
    ("successor-is-a-list", {}, ("eval", "{succ_list}", "a", "true"),
     "not a string or an integer"),
    ("pair-entry-is-a-list", {}, ("closure", "{pair_list}"), "not a string or an integer"),
    ("pair-entry-is-a-list-with-models", {}, ("check-sim", "{loop}", "{loop}", "{pair_list}"),
     "not a string or an integer"),
    ("negative-trials", {}, ("randtest", "stability", "--trials", "-1"), "trial count"),
    ("prop-is-a-list", {}, ("eval", "{props_list}", "a", "true"), "list of strings"),
    ("atom-is-a-list", {}, ("eval", "{atoms_list}", "a", "true"), "list of strings"),
    ("atoms-is-a-string", {}, ("eval", "{atoms_string}", "a", "true"), "list of strings"),
    ("pairs-not-a-list", {}, ("closure", "{pairs_int}"), '"pairs" list'),
    ("pairs-not-a-list-with-models", {}, ("check-sim", "{loop}", "{loop}", "{pairs_int}"),
     '"pairs" list'),
    ("formula-negations-too-deep", {}, ("eval", "{loop}", "x", "~" * 3000 + "true"),
     "deeper than 100 levels"),
    ("formula-parentheses-too-deep", {}, ("eval", "{loop}", "x", "(" * 3000 + "p" + ")" * 3000),
     "deeper than 100 levels"),
    ("formula-diamonds-too-deep", {}, ("eval", "{loop}", "x", "<>" * 3000 + "p"),
     "deeper than 100 levels"),
    ("formula-zero-denominator", {}, ("eval", "{dist}", "a", "L(1/0) true"), "denominator 0"),
    ("mass-too-long", {}, ("eval", "{mass_long}", "a", "true"), "is not a rational: '99999"),
    ("weight-too-long", {}, ("eval", "{weight_long}", "a", "true"), "got 'wwww"),
    ("states-too-long", {}, ("eval", "{states_long}", "a", "true"), "list of states, got 'ssss"),
    ("pair-too-long", {}, ("closure", "{pair_long}"), "two-element list, got ['xxxx"),
    ("successor-too-long", {}, ("eval", "{succ_long}", "a", "true"),
     "outside the carrier: ['ssss"),
    ("transition-key-too-long", {}, ("eval", "{key_long}", "a", "true"),
     "transition defined on 'kkkk"),
    ("prop-too-long", {}, ("eval", "{prop_long}", "a", "true"), "unknown atoms ['pppp"),
    ("pair-state-too-long", {}, ("check-sim", "{loop}", "{loop}", "{pair_state_long}"),
     "pairs outside the carriers: [('x', 'yyyy"),
    ("eval-state-too-long", {}, ("eval", "{loop}", "s" * 5000, "true"),
     "state 'ssss"),
    ("formula-identifier-too-long", {}, ("eval", "{loop}", "x", "z" * 5000),
     "unknown modality 'zzzz"),
    ("probability-index-too-long", {}, ("eval", "{dist}", "a", "L(" + "9" * 4000 + ") true"),
     "probability index 9999"),
    ("signature-literal-too-long", {}, ("eval", "{loop}", "x", "true", "--sig", "z" * 5000),
     "unknown signature literal 'zzzz"),
    ("kripke-parts-too-long", {}, ("eval", "{loop}", "x", "true", "--sig", "kripke:" + "z" * 5000),
     "unknown kripke signature parts ['zzzz"),
    ("graded-bound-too-long", {}, ("eval", "{multiset}", "a", "true", "--sig", "graded:0.." + "z" * 5000),
     "malformed signature literal 'graded:0..zzzz"),
    ("prob-spec-too-long", {}, ("eval", "{dist}", "a", "true", "--sig", "prob:" + "z" * 5000),
     "malformed probabilistic signature 'prob:zzzz"),
    ("file-name-too-long", {}, ("eval", "{dir}/" + "f" * 5000, "a", "true"), "fff"),
    ("mass-exponent-too-large", {}, ("nstep", "{mass_exponent}", "{mass_exponent}", "--n", "1"),
     "is not a rational: '1e100000'"),
    ("mass-exponent-far-too-large", {},
     ("nstep", "{mass_exponent_huge}", "{mass_exponent_huge}", "--n", "1"),
     "is not a rational: '1e10000000'"),
    ("mass-sum-too-long", {}, ("nstep", "{mass_sum_long}", "{mass_sum_long}", "--n", "1"),
     "more than 4300 digits"),
    ("coupling-mass-too-long", {},
     ("tbisim", "{coprime_left}", "{coprime_right}", "{coprime_rel}", "--json"),
     "more than 4300 digits"),
    ("violation-bound-too-long", {}, ("check-sim", "{bound_long}", "{bound_point}", "{bound_rel}"),
     "more than 4300 digits"),
    ("graded-bound-negative", {}, ("greatest-sim", "{multiset}", "{multiset}", "--sig", "graded:0..-1"),
     "malformed signature literal 'graded:0..-1'"),
    ("graded-bound-signed", {}, ("greatest-sim", "{multiset}", "{multiset}", "--sig", "graded:0..+2"),
     "malformed signature literal 'graded:0..+2'"),
    ("graded-bound-spaced", {}, ("greatest-sim", "{multiset}", "{multiset}", "--sig", "graded:0.. 3"),
     "malformed signature literal 'graded:0.. 3'"),
    ("graded-bound-underscored", {},
     ("greatest-sim", "{multiset}", "{multiset}", "--sig", "graded:0..1_0"),
     "malformed signature literal 'graded:0..1_0'"),
]


@pytest.mark.parametrize(
    "env,argv,expect", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
)
def test_bad_input_exit_two(run, tmp_path, monkeypatch, loop_model, env, argv, expect):
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in BAD_FILES.items()}
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"functor": "kripke", "states": ["\u00e9"]}'.encode("latin-1"))
    paths.update(loop=loop_model, latin1=str(latin1), dir=str(tmp_path))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(*(arg.format(**paths) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and expect in err
    assert len(err) < 500  # a long input value is echoed cut short


def test_infinite_weight_error_cuts_both_labels(run, tmp_path):
    """The coupling search's error echoes the pair, each label cut short; the
    line holds two echoed values, so it gets twice the table's bound."""
    label = "l" * 20000
    model = write(tmp_path, "m.json", {"functor": "multiset", "states": [label],
                                       "transition": {label: {label: "inf"}}})
    rel = write(tmp_path, "r.json", {"pairs": [[label, label]]})
    code, out, err = run("tbisim", model, model, rel)
    assert code == 2 and out == ""
    assert err.startswith("error: coupling search needs finite weights; pair ('llll")
    assert err.count("... (20002 characters)") == 2 and err.count("\n") == 1 and len(err) < 1000


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts integers of any length",
)
def test_unknown_property_name_is_cut(run):
    # The error line also lists the known properties, so it runs past 500 characters.
    code, out, err = run("randtest", "z" * 5000)
    assert code == 2 and out == ""
    assert err.startswith("error: unknown property 'zzzz") and "... (5002 characters)" in err
    assert err.count("z") < 250 and len(err) < 200 + len(", ".join(sorted(PROPERTIES))) + 100


def test_numbers_too_long_to_convert_exit_two(run, tmp_path):
    digits = "9" * 5000
    doc = '{"functor": "multiset", "states": ["a"], "transition": {"a": {"a": %s}}}'
    models = {}
    for name, weight in (("long", digits), ("short", "1")):
        models[name] = tmp_path / f"{name}.json"
        models[name].write_text(doc % weight)
    for argv, expect in (
        (("eval", str(models["long"]), "a", "true"), "not valid JSON"),
        (("eval", str(models["short"]), "a", f"<{digits}> true"), "too many digits"),
    ):
        code, out, err = run(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and expect in err


def test_listing_beyond_the_exhaustive_bound_reports_the_cut(run, tmp_path):
    """A failing pair over a 40-state support lists real violations and exits 1."""
    support = [f"s{i}" for i in range(40)]
    c = write(tmp_path, "c.json", {
        "functor": "distribution", "states": ["x", *support],
        "transition": {"x": {z: "1/40" for z in support}, **{z: {z: 1} for z in support}},
    })
    d = write(tmp_path, "d.json", {
        "functor": "distribution", "states": ["y", "w"],
        "transition": {"y": {"y": "1/2", "w": "1/2"}, "w": {"w": 1}},
    })
    rel = write(tmp_path, "rel.json", {"pairs": [["x", "y"], *([z, "w"] for z in support[:10])]})
    code, out, err = run("check-sim", c, d, rel, "--json")
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["holds"] is False and report["violations"]
    cm, dm = load_coalgebra(c), load_coalgebra(d)
    s = load_relation(rel, cm, dm)
    grid = {m.token(): m for m in resolve_signature("prob:auto-grid", [cm, dm]).modalities}
    img = s.left_images()
    for v in report["violations"]:
        t, u, m = cm.transition[v["left"]], dm.transition[v["right"]], grid[v["modality"]]
        a = frozenset(v["witness"])
        assert satisfies(t, m, a) and not satisfies(u, m, frozenset().union(*(img[z] for z in a)))
    code, text, _ = run("check-sim", c, d, rel)
    assert code == 1 and text.count("\nviolation ") == len(report["violations"])


def test_graded_grid_past_the_index_limit_fails_at_once(run, tmp_path):
    model = write(tmp_path, "m.json", {"functor": "multiset", "states": ["a"],
                                       "transition": {"a": {"a": 2}}})
    start = time.perf_counter()
    code, out, err = run("eval", model, "a", "true", "--sig", "graded:0..9999999999")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "limit 100000" in err and len(err) < 200


def _dyadic_file(tmp_path, k, support=None):
    """A k-state distribution model; every state has masses 1/2, 1/4, ..., 1/2^(m-1) and
    the rest on its first m states, m = `support` (default k)."""
    states = [f"s{i}" for i in range(k)]
    m = support or k
    mass = {z: f"1/{2 ** (i + 1)}" for i, z in enumerate(states[:m - 1])}
    mass[states[m - 1]] = f"1/{2 ** (m - 1)}"
    return write(tmp_path, f"dyadic{k}_{m}.json", {"functor": "distribution", "states": states,
                                                    "transition": {z: mass for z in states}})


@pytest.mark.parametrize("support", [17, 20])
def test_dyadic_grids_past_the_limit_decide_at_once(run, tmp_path, support):
    """2^(support-1) + 1 masses: verdicts read none, a listing needs them and says so."""
    model = _dyadic_file(tmp_path, 20, support)
    everything = [f"s{i} s{j}" for i in range(20) for j in range(20)]
    for command in ("behavioural", "greatest-bisim", "greatest-sim"):
        start = time.perf_counter()
        code, out, err = run(command, model, model)
        assert time.perf_counter() - start < 1.0
        assert (code, err, out.splitlines()) == (0, "", everything)
    rel = write(tmp_path, "rel.json", {"pairs": [["s0", "s1"], ["s1", "s1"]]})
    start = time.perf_counter()
    code, out, err = run("check-sim", model, model, rel)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "MAX_PROB_GRID = 50000" in err


def test_probability_grid_past_its_limit_is_not_needed_for_verdicts(run, tmp_path):
    """Its 2^39 masses are never listed: the decisions read no grid point."""
    model = _dyadic_file(tmp_path, 40)
    for command in ("greatest-sim", "behavioural"):
        start = time.perf_counter()
        code, out, err = run(command, model, model)
        assert time.perf_counter() - start < 2.0
        assert code == 0 and err == ""
        assert out.splitlines() == [f"s{i} s{j}" for i in range(40) for j in range(40)]


def test_probability_grid_listing_past_its_limit_fails_at_once(run, tmp_path):
    """A failing pair's listing needs the grid's points, and there are too many."""
    model = _dyadic_file(tmp_path, 40)
    rel = write(tmp_path, "rel.json", {"pairs": [["s0", "s0"]]})
    start = time.perf_counter()
    code, out, err = run("check-sim", model, model, rel)
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "MAX_PROB_GRID = 50000" in err and len(err) < 200


def test_base_cap_on_the_quotient_route_names_the_users_state(run, tmp_path, monkeypatch):
    """x's value has a base of 3 states; its quotient value, on the blocks {p, q} and {r}, has 2."""
    model = write(tmp_path, "m.json", {"functor": "multiset", "states": ["x", "y", "p", "q", "r"],
                                       "transition": {"x": {"p": 1, "q": 1, "r": 1}, "y": {"p": 1, "r": 1},
                                                      "p": {}, "q": {}, "r": {"r": 1}}})
    rel = write(tmp_path, "rel.json", {"pairs": [["x", "y"]]})
    monkeypatch.setenv("COALSIM_MAX_BASE", "1")
    for argv in (("greatest-sim", model, model), ("check-sim", model, model, rel, "--n", "2")):
        code, out, err = run(*argv, "--sig", "graded:0..0")
        assert (code, out) == (2, "")
        assert err == ("error: quotient value of the block of 'x': value base has 2 states, "
                       "above the exhaustive bound 1 (override with COALSIM_MAX_BASE)\n")
    monkeypatch.setenv("COALSIM_MAX_BASE", "2")
    code, out, _ = run("greatest-sim", model, model, "--sig", "graded:0..0")
    assert code == 0 and out.split("\n")[:3] == ["x x", "x y", "x r"]
    code, out, _ = run("check-sim", model, model, rel, "--n", "2", "--sig", "graded:0..0")
    assert (code, out) == (0, "holds\n")


def test_many_problems_make_one_short_error_line(run, tmp_path):
    states = [f"s{i}" for i in range(3000)]
    transition = {s: {"props": [], "succ": ["zz" + s]} for s in states}
    model = write(tmp_path, "many.json",
                  {"functor": "kripke", "states": states, "transition": transition})
    code, out, err = run("eval", model, "s0", "true")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "; ... and 2990 more problems" in err and len(err) < 3000


@pytest.mark.parametrize("command", ["greatest-bisim", "behavioural"])
def test_distribution_call_decides_separation_once(run, tmp_path, monkeypatch, command):
    (_, cp), (_, dp) = _model_pair(tmp_path, DISTRIBUTION_KIND, 3)
    calls = {"prob_grid": 0, "_subset_sums": 0}

    def counted(name):
        real = getattr(coalsim.liftings, name)

        def call(models):
            calls[name] += 1
            return real(models)

        return call

    for name in calls:
        monkeypatch.setattr(coalsim.liftings, name, counted(name))
    code, out, _ = run(command, cp, dp)
    assert code == 0 and out
    # prob:auto-grid resolves to a grid that lists nothing, separates its own
    # models by construction, and is never read by a passing certificate.
    assert calls == {"prob_grid": 0, "_subset_sums": 0}


def test_closure_sorts_mixed_int_and_str_states(run, tmp_path):
    rel = write(tmp_path, "mixed.json", {"pairs": [[1, "a"], ["b", 2]]})
    code, out, _ = run("closure", rel)
    assert code == 0 and out == "1 a\nb 2\n"


def test_usage_error_exit_two(run):
    code, _, _ = run("frobnicate")
    assert code == 2


def test_cli_outputs_are_byte_stable(run, tmp_path, loop_model):
    invocations = [
        ("eval", loop_model, "x", "<> p"),
        ("randtest", "stability", "--trials", "5", "--seed", "11", "--json"),
    ]
    for argv in invocations:
        first = run(*argv)
        second = run(*argv)
        assert first == second


def _model_pair(tmp_path, kind, seed, **cfg):
    models = []
    for side, offset in (("c", 0), ("d", 31)):
        m = generate_coalgebra(GeneratorConfig(seed=seed + offset, kind=kind, max_states=5, **cfg))
        models.append((m, write(tmp_path, f"{side}{seed}.json", coalgebra_to_dict(m))))
    return models


SEPARATING = [
    ("kripke:box,atoms", kripke_kind(("p", "q")), {}),
    ("kripke:diamond,atoms", kripke_kind(("p", "q")), {}),
    ("kripke:box,diamond,atoms", kripke_kind(("p", "q")), {}),
    ("graded:auto", MULTISET_KIND, {"allow_infinite": True}),
    ("prob:auto-grid", DISTRIBUTION_KIND, {}),
    ("nbhd:box", NEIGHBORHOOD_KIND, {}),
]


def _not_separating(*args):
    raise NotSeparatingError("forced onto the fixpoint route")


@pytest.mark.parametrize("literal,kind,cfg", SEPARATING, ids=[e[0] for e in SEPARATING])
def test_greatest_bisim_partition_route_matches_fixpoint_bytes(
    run, tmp_path, monkeypatch, literal, kind, cfg
):
    argvs = []
    for seed in range(6):
        (c, cp), (d, dp) = _model_pair(tmp_path, kind, seed, **cfg)
        assert _separation_gap(resolve_signature(literal, [c, d]), (c, d)) is None
        argvs += [("greatest-bisim", cp, dp, "--sig", literal, *extra) for extra in ((), ("--json",))]
    outputs = [run(*argv) for argv in argvs]
    monkeypatch.setattr(coalsim.cli, "certified_partition", _not_separating)
    assert outputs == [run(*argv) for argv in argvs]
    assert any(code == 0 for code, _, _ in outputs)


@pytest.mark.parametrize(
    "literal,kind,cfg",
    [
        ("kripke:diamond", kripke_kind(("p", "q")), {}),
        ("graded:0..0", MULTISET_KIND, {"max_weight": 3}),
    ],
)
def test_greatest_bisim_non_separating_signatures_use_the_fixpoint(
    run, tmp_path, literal, kind, cfg
):
    checked = 0
    for seed in range(6):
        (c, cp), (d, dp) = _model_pair(tmp_path, kind, seed, **cfg)
        sig = resolve_signature(literal, [c, d])
        if _separation_gap(sig, (c, d)) is None:
            continue  # graded:0..0 separates models whose weights are all 0 or 1
        expected = "".join(f"{x} {y}\n" for x, y in simulation_chain(c, d, sig, both=True).sorted_pairs())
        code, out, _ = run("greatest-bisim", cp, dp, "--sig", literal)
        assert out == expected
        assert code == (0 if expected else 1)
        checked += 1
    assert checked >= 3


@pytest.mark.parametrize(
    "argv",
    [
        ("nstep", "--n", "-3"),
        ("greatest-sim", "--n", "-1"),
        ("greatest-bisim", "--n", "-1"),
        ("check-sim", "REL", "--n", "-2"),
        ("check-sim", "REL", "--bi", "--n", "-2"),
    ],
    ids=["nstep", "greatest-sim", "greatest-bisim", "check-sim", "check-sim-bi"],
)
def test_bounded_depth_commands_reject_negative_depth(run, tmp_path, loop_model, argv):
    rel = write(tmp_path, "rel.json", {"pairs": [["x", "x"]]})
    command, *rest = argv
    rest = [rel if a == "REL" else a for a in rest]
    code, out, err = run(command, loop_model, loop_model, *rest)
    assert code == 2 and out == ""
    assert "error:" in err and "depth" in err


def test_a_depth_past_every_chain_answers_as_the_limit(run, tmp_path):
    """No chain on |C|·|D| pairs descends past level |C|·|D|, so depth 10**30
    reads the limit: `greatest-sim --n` prints the bytes of `greatest-sim`,
    and one-way `check-sim --n` agrees with depth |C|·|D| = 6."""
    def kripke(name, succ):
        return write(tmp_path, f"{name}.json", {
            "functor": "kripke", "states": list(succ),
            "transition": {s: {"props": [], "succ": ts} for s, ts in succ.items()},
        })

    c = kripke("c", {"x": ["a"], "a": ["b"], "b": []})
    d = kripke("d", {"y": ["e"], "e": []})
    rel = write(tmp_path, "rel.json", {"pairs": [["x", "y"]]})
    huge = str(10**30)
    assert run("greatest-sim", c, d, "--n", huge) == run("greatest-sim", c, d) == (0, "a y\nb e\n", "")
    assert run("check-sim", c, d, rel, "--n", "1")[:2] == (0, "holds\n")
    assert run("check-sim", c, d, rel, "--n", huge) == run("check-sim", c, d, rel, "--n", "6") == (1, "fails\n", "")


def _legacy_relation(argv):
    """The relation a command printed before rows: pair sets of the reference chains on C × D."""
    command, first, *rest = argv
    if command == "closure":
        return difunctional_closure(load_relation(first))
    c, d = load_coalgebra(first), load_coalgebra(rest[0])
    literal = argv[argv.index("--sig") + 1] if "--sig" in argv else None
    sig = resolve_signature(literal, [c, d]) if literal else auto_signature(c, d)
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else None
    if command == "greatest-sim" or n is not None:
        return simulation_chain(c, d, sig, n, both=command == "greatest-bisim")
    try:
        return certified_partition(c, d, sig)[0].cross_relation()
    except NotSeparatingError:
        if command == "behavioural":
            raise
        return simulation_chain(c, d, sig, both=True)


def _legacy_bytes(argv):
    if argv[0] == "check-sim":
        c, d = load_coalgebra(argv[1]), load_coalgebra(argv[2])
        sig = resolve_signature(argv[argv.index("--sig") + 1], [c, d]) if "--sig" in argv else auto_signature(c, d)
        n = int(argv[argv.index("--n") + 1])
        ok = load_relation(argv[3], c, d).pairs <= simulation_chain(c, d, sig, n, "--bi" in argv).pairs
        out = dump_json({"holds": ok, "depth": n}) if "--json" in argv else ("holds\n" if ok else "fails\n")
        return (0 if ok else 1), out
    rel = _legacy_relation(argv)
    if "--json" in argv:
        out = dump_json(relation_to_dict(rel))
    else:
        out = "".join(f"{x} {y}\n" for x, y in rel.sorted_pairs())
    return (0 if rel.pairs or argv[0] == "closure" else 1), out


@pytest.mark.parametrize("kind,cfg,literal,exits", [  # exits: (relation commands, check-sim)
    (kripke_kind(("p", "q")), {}, "kripke:diamond", ({0, 1}, {0, 1})),
    (MULTISET_KIND, {"allow_infinite": True}, "graded:0..0", ({0, 1}, {0, 1})),
    (DISTRIBUTION_KIND, {}, None, ({0}, {0})),  # unlabelled distributions are all bisimilar
    (NEIGHBORHOOD_KIND, {}, None, ({0}, {0, 1})),
])
def test_relation_answers_print_from_rows_with_the_legacy_bytes(
    run, tmp_path, kind, cfg, literal, exits
):
    """greatest-sim and greatest-bisim, with and without --n, behavioural and
    closure print rows; their bytes and exit codes equal those of the pair sets
    of the direct chain and the certified relation, printed in `sorted_pairs`
    order.  `check-sim --n`, one-way and with `--bi`, prints the verdict of
    containment in the reference level, for a relation drawn from that level
    and a random one."""
    argvs, checks = [], []
    for seed in range(8):
        rng = random.Random(seed)
        base = generate_coalgebra(GeneratorConfig(seed=seed, kind=kind, max_states=5, **cfg))
        other = generate_coalgebra(GeneratorConfig(seed=seed + 31, kind=kind, max_states=5, **cfg))
        c = inflate_coalgebra(rng, base)
        d = inflate_coalgebra(rng, base if seed % 2 else other)
        cp = write(tmp_path, f"c{seed}.json", coalgebra_to_dict(c))
        dp = write(tmp_path, f"d{seed}.json", coalgebra_to_dict(d))
        rel = write(tmp_path, f"r{seed}.json", relation_to_dict(random_relation(rng, c, d, 0.1)))
        sigs = [(), ("--sig", literal)] if literal else [()]
        for extra in ((), ("--json",)):
            for sig, depth in itertools.product(sigs, ((), ("--n", "0"), ("--n", "2"))):
                argvs += [(command, cp, dp, *sig, *depth, *extra)
                          for command in ("greatest-sim", "greatest-bisim")]
            argvs += [("behavioural", cp, dp, *extra), ("behavioural", dp, dp, *extra),
                      ("closure", rel, *extra)]
        for bi, sig, depth in itertools.product((("--bi",), ()), sigs, (0, 2)):
            resolved = resolve_signature(sig[1], [c, d]) if sig else auto_signature(c, d)
            level = simulation_chain(c, d, resolved, depth, both=bool(bi))
            drawn = [p for p in level.sorted_pairs() if rng.random() < 0.5]
            held = write(tmp_path, f"h{seed}{len(sig)}{depth}{len(bi)}.json",
                         relation_to_dict(relation(c.carrier, d.carrier, drawn)))
            checks += [("check-sim", cp, dp, r, *bi, *sig, "--n", str(depth), *extra)
                       for r in (held, rel) for extra in ((), ("--json",))]
    codes, check_codes = set(), set()
    for argv in argvs + checks:
        code, out, err = run(*argv)
        assert (code, out, err) == (*_legacy_bytes(argv), ""), argv
        (check_codes if argv[0] == "check-sim" else codes).add(code)
    assert (codes, check_codes) == exits


def test_quotient_route_errors_exit_two(run, tmp_path, monkeypatch):
    rng = random.Random(5)
    base = generate_coalgebra(GeneratorConfig(seed=5, kind=MULTISET_KIND, max_states=4))
    c = inflate_coalgebra(rng, base)
    cp = write(tmp_path, "c.json", coalgebra_to_dict(c))
    kripke = write(tmp_path, "k.json", coalgebra_to_dict(
        generate_coalgebra(GeneratorConfig(seed=5, kind=kripke_kind(("p",)), max_states=4))
    ))
    code, out, err = run("greatest-sim", kripke, cp)
    assert code == 2 and out == "" and "error: models of kinds 'kripke' and 'multiset'" in err
    monkeypatch.setenv("COALSIM_MAX_BASE", "x")
    code, out, err = run("greatest-sim", cp, cp)
    assert code == 2 and out == "" and "COALSIM_MAX_BASE must be a natural number" in err
