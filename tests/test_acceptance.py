"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are boolean or exact-rational, so every assertion is exact with
zero tolerance.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import random
import time
from dataclasses import replace

from coalsim import (
    auto_signature,
    evaluate,
    greatest_simulation,
    is_bisimulation,
    is_bisimulation_up_to_difunctionality,
    rank,
    satisfies,
    t_bisim_up_to_difunctionality_check,
    t_bisimulation_check,
    values_equal,
)
from coalsim.generators import GeneratorConfig, generate_coalgebra, random_positive_formula
from coalsim.properties import run_property_suite
from coalsim.cli import cli_dispatch
from coalsim.modelio import dump_json
from coalsim.properties import KIND_POOL, WPP_KIND_POOL, _all_relations
from coalsim.values import base, relabel
from coalsim.liftings import BOX, DIAMOND, NBHD_BOX, at_least, atom, diamond_gt

SEED = 20240901


def _report(criterion, ok, detail):
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


def _suite(criterion, name, trials, detail_extra=""):
    report = run_property_suite(name, trials, SEED)
    detail = f"{trials} trials, {len(report.counterexamples)} counterexamples"
    if detail_extra:
        detail += f", {detail_extra}"
    _report(criterion, report.passed, detail)
    return report


def test_ac1_oracle_equivalence():
    start = time.perf_counter()
    report = _suite("AC1 oracle-equivalence", "oracle-agreement", 4000,
                    "1000 per functor kind, carriers <= 6")
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"AC1 overran its runtime budget: {elapsed:.1f}s"


def test_ac2_fast_path_equivalence():
    _suite("AC2 fast-path-equivalence", "fast-path", 4000, "1000 per functor kind")


def _count_triples(target, sample):
    triples = 0
    trial = 0
    failures = []
    while triples < target:
        got, bad = sample(trial)
        triples += got
        failures.extend(bad)
        trial += 1
    return trial, triples, failures


def test_ac3_simulation_preserves_positive_truth():
    def sample(trial):
        rng = random.Random(SEED + trial)
        kind = KIND_POOL[trial % 4]
        cfg = GeneratorConfig(seed=rng.getrandbits(32), kind=kind, max_states=5)
        c = generate_coalgebra(cfg)
        d = generate_coalgebra(replace(cfg, seed=rng.getrandbits(32)))
        sig = auto_signature(c, d)
        s = greatest_simulation(c, d, sig)
        if not s.pairs:
            return 0, []
        pairs = s.sorted_pairs()
        got, bad = 0, []
        for _ in range(15):
            x, y = pairs[rng.randrange(len(pairs))]
            f = random_positive_formula(rng, sig, max_rank=4)
            got += 1
            if evaluate(f, c, x) and not evaluate(f, d, y):
                bad.append((trial, x, y))
        return got, bad

    trials, triples, failures = _count_triples(10000, sample)
    _report(
        "AC3 sim-preserves-truth",
        not failures,
        f"{triples} triples over {trials} instances, {len(failures)} counterexamples",
    )


def test_ac4_rank_bounded_preservation():
    def sample(trial):
        rng = random.Random(SEED + trial)
        kind = KIND_POOL[trial % 4]
        n = trial % 5
        cfg = GeneratorConfig(seed=rng.getrandbits(32), kind=kind, max_states=5)
        c = generate_coalgebra(cfg)
        d = generate_coalgebra(replace(cfg, seed=rng.getrandbits(32)))
        sig = auto_signature(c, d)
        s = greatest_simulation(c, d, sig, n)
        if not s.pairs:
            return 0, []
        pairs = s.sorted_pairs()
        got, bad = 0, []
        for _ in range(15):
            x, y = pairs[rng.randrange(len(pairs))]
            f = random_positive_formula(rng, sig, max_rank=n)
            assert rank(f) <= n
            got += 1
            if evaluate(f, c, x) and not evaluate(f, d, y):
                bad.append((trial, n, x, y))
        return got, bad

    trials, triples, failures = _count_triples(10000, sample)
    _report(
        "AC4 rank-n-preservation",
        not failures,
        f"{triples} triples over {trials} instances, n <= 4, {len(failures)} counterexamples",
    )


def test_ac5_n_bisimulation_equals_n_step_partition():
    _suite("AC5 n-bisim-vs-n-step", "n-bisim-n-step", 2000,
           "500 per functor kind, n <= 5, exact equality")


def test_ac6_soundness_completeness_triple_check():
    _suite("AC6 soundness-completeness", "soundness-completeness", 2000,
           "500 per functor kind, kappa equations verified state-by-state")


def test_ac7_up_to_difunctionality_characterization():
    _suite("AC7 prop-difunctional", "prop-difunctional", 1000, "exact")


def test_ac8_couplings_imply_relational_bisimulations():
    _suite("AC8 t-implies-lambda", "t-implies-lambda", 2000, "500 per functor kind")


def test_ac9_difunctional_bisimulations_admit_couplings():
    failures = []
    exhaustive_pairs = 0
    relations_checked = 0
    for k, kind in enumerate(WPP_KIND_POOL):
        budget = 8 if kind.name != "distribution" else 5
        for idx in range(budget):
            rng = random.Random(SEED + idx * 17 + k)
            cfg = GeneratorConfig(
                seed=rng.getrandbits(32),
                kind=kind,
                min_states=2,
                max_states=3,
                max_denominator=3,
            )
            c = generate_coalgebra(cfg)
            d = generate_coalgebra(replace(cfg, seed=rng.getrandbits(32)))
            sig = auto_signature(c, d)
            exhaustive_pairs += 1
            for s in _all_relations(c, d):
                relations_checked += 1
                if (
                    s.is_difunctional()
                    and is_bisimulation(s, c, d, sig).holds
                    and t_bisimulation_check(s, c, d) is None
                ):
                    failures.append((kind.name, "plain", sorted(s.pairs)))
                if (
                    is_bisimulation_up_to_difunctionality(s, c, d, sig).holds
                    and t_bisim_up_to_difunctionality_check(s, c, d) is None
                ):
                    failures.append((kind.name, "up-to", sorted(s.pairs)))
    _report(
        "AC9a t-bisim-exhaustive",
        not failures,
        f"{relations_checked} relations over {exhaustive_pairs} model pairs "
        f"with <= 3 states, {len(failures)} failures",
    )
    _suite("AC9b t-bisim-random", "t-bisim", 1875,
           ">= 500 random larger instances per weak-pullback-preserving kind")


def test_ac10_functor_laws_and_naturality():
    rng = random.Random(SEED)
    failures = []
    per_kind = 1000
    labels = ["t0", "t1", "t2"]
    second = {"t0": "u0", "t1": "u1", "t2": "u0"}
    for kind in KIND_POOL:
        samples = 0
        seed = 0
        while samples < per_kind:
            c = generate_coalgebra(
                GeneratorConfig(seed=SEED + seed, kind=kind, max_states=5)
            )
            seed += 1
            for x in c.carrier:
                t = c.transition[x]
                samples += 1
                f = {z: labels[rng.randrange(3)] for z in c.carrier}
                if not values_equal(relabel(t, {z: z for z in base(t)}), t):
                    failures.append((kind.name, "identity", x))
                if not values_equal(
                    relabel(relabel(t, f), second),
                    relabel(t, {z: second[f[z]] for z in f}),
                ):
                    failures.append((kind.name, "composition", x))
                if kind.name == "kripke":
                    m = (BOX, DIAMOND, atom("p"))[samples % 3]
                elif kind.name == "multiset":
                    m = diamond_gt(samples % 5)
                elif kind.name == "distribution":
                    from fractions import Fraction

                    m = at_least(Fraction(samples % 5, 4) if samples % 5 <= 4 else 1)
                else:
                    m = NBHD_BOX
                a = frozenset(l for l in labels if rng.random() < 0.5)
                if satisfies(relabel(t, f), m, a) != satisfies(
                    t, m, frozenset(z for z in f if f[z] in a)
                ):
                    failures.append((kind.name, "naturality", x))
        assert samples >= per_kind
    _report(
        "AC10 functor-laws-naturality",
        not failures,
        f">= {per_kind} samples per kind, {len(failures)} failures",
    )


def _run_cli(argv, tmp_path, capsys):
    code = cli_dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def test_ac11_negative_controls_byte_stable(tmp_path, capsys):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(dump_json(doc), encoding="utf-8")
        return str(path)

    live = write("live.json", {
        "functor": "kripke", "atoms": [], "states": ["x"],
        "transition": {"x": {"props": [], "succ": ["x"]}},
    })
    dead = write("dead.json", {
        "functor": "kripke", "atoms": [], "states": ["y"],
        "transition": {"y": {"props": [], "succ": []}},
    })
    pair = write("pair.json", {"pairs": [["x", "y"]]})

    dc = write("dc.json", {
        "functor": "distribution", "states": ["x", "a", "b"],
        "transition": {"x": {"a": "1/2", "b": "1/2"}, "a": {"a": "1"}, "b": {"b": "1"}},
    })
    dd = write("dd.json", {
        "functor": "distribution", "states": ["y", "c"],
        "transition": {"y": {"c": "1"}, "c": {"c": "1"}},
    })
    dpair = write("dpair.json", {"pairs": [["x", "y"], ["a", "c"]]})

    boxc = write("boxc.json", {
        "functor": "kripke", "atoms": [], "states": ["x", "a"],
        "transition": {"x": {"props": [], "succ": ["a"]}, "a": {"props": [], "succ": []}},
    })
    boxd = write("boxd.json", {
        "functor": "kripke", "atoms": [], "states": ["y"],
        "transition": {"y": {"props": [], "succ": []}},
    })
    boxpair = write("boxpair.json", {"pairs": [["x", "y"]]})

    controls = [
        (
            ["check-sim", live, dead, pair, "--sig", "kripke:diamond", "--json"],
            1,
            '{"holds": false, "violations": [{"direction": "forward", '
            '"left": "x", "modality": "<>", "right": "y", "witness": ["x"]}]}\n',
        ),
        (["tbisim", dc, dd, dpair], 1, "no coupling\n"),
        (
            ["check-sim", boxc, boxd, boxpair, "--bi", "--sig", "kripke:box", "--json"],
            1,
            '{"holds": false, "violations": [{"direction": "backward", '
            '"left": "y", "modality": "[]", "right": "x", "witness": []}]}\n',
        ),
    ]
    for argv, want_code, want_out in controls:
        code1, out1 = _run_cli(argv, tmp_path, capsys)
        code2, out2 = _run_cli(argv, tmp_path, capsys)
        assert (code1, out1) == (code2, out2), "output not byte-stable"
        assert code1 == want_code, f"exit {code1} != {want_code} for {argv}"
        assert out1 == want_out, f"unexpected output for {argv}: {out1!r}"
    _report("AC11 negative-controls", True, "3 hand-built controls, byte-stable")
