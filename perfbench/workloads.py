"""The three workloads: which CLI calls they make, on what inputs, with what checks.

A workload turns (seed, call index, label tag) into one `Call`: the argv for
`coalsim.cli.cli_dispatch`, the files it reads (written here), and a check
of its exit code and stdout.  Call i is built from its own random stream,
so the same seed always gives the same calls, and a call can be built again
under another tag (for the traced pass) with identical work.

The calls of a workload cycle through a fixed list of slots (command x kind
x size), so every prefix of a run is a near-even mix of them.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks as C
import instances as I


@dataclass
class Call:
    command: str
    kind: str
    argv: list
    check: Callable  # (exit code, stdout) -> list of problems
    files: list = field(default_factory=list)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


class Equiv:
    """Planted pairs of all four kinds through the five engine commands."""

    name = "equiv"
    commands = ("behavioural", "greatest-bisim", "greatest-sim", "nstep", "check-sim")
    # (|C| small, |C| large) per kind; each kind costs about the same per cycle.
    sizes = {"kripke": (80, 160), "multiset": (30, 50),
             "distribution": (25, 35), "neighborhood": (60, 90)}
    tiny_sizes = {kind: (5, 7) for kind in I.KINDS}

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        sizes = self.tiny_sizes if tiny else self.sizes
        self.slots = [
            (command, kind, sizes[kind][big])
            for big in (0, 1) for kind in I.KINDS for command in self.commands
        ]

    def prepare(self, index: int, tag: str, tmp: str) -> Call:
        command, kind, n = self.slots[index % len(self.slots)]
        pair = I.inflated_pair(_rng(self.name, self.seed, index), kind, n, 3, allow_inf=True)
        left, right = I.write_pair(pair, tag, tmp)
        labels = C.Labels(pair, tag)
        full = kind == "distribution"
        files = [left, right]

        if command == "nstep":
            def check(code, out):
                problems = []
                C.expect_code(code, 0, problems)
                C.nstep_blocks(out, labels, pair, problems)
                return problems

            return Call(command, kind, [command, left, right, "--n", "3"], check, files)

        if command == "check-sim":
            rel = I.write_relation(pair.planted(), tag, tmp, "planted")
            return Call(command, kind, [command, left, right, rel, "--bi"], C.holds, files + [rel])

        argv = [command, left, right]
        witness = None
        if command == "behavioural":
            witness = os.path.join(tmp, f"{tag}witness.json")
            argv += ["--witness", witness]
            files.append(witness)

        def check(code, out):
            problems = []
            C.expect_code(code, 0, problems)
            C.contains_planted(labels.relation(out, problems), pair, full, problems)
            if witness:
                C.witness_file(witness, pair, tag, problems)
            return problems

        return Call(command, kind, argv, check, files)


class Wide:
    """Wide-support multiset and distribution pairs: subset enumeration and flow."""

    name = "wide"
    commands = ("greatest-sim", "greatest-bisim", "behavioural",
                "check-sim", "check-sim-bi", "tbisim")
    kinds = ("multiset", "distribution")
    # (|C|, support size); D adds about one copy in five.
    sizes = {"multiset": (7, 5), "distribution": (6, 4)}
    tiny_sizes = {"multiset": (3, 2), "distribution": (3, 2)}
    tbisim_total = 8

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.sizes = self.tiny_sizes if tiny else self.sizes
        self.slots = [(command, kind) for kind in self.kinds for command in self.commands]

    def prepare(self, index: int, tag: str, tmp: str) -> Call:
        command, kind = self.slots[index % len(self.slots)]
        n, support = self.sizes[kind]
        rng = _rng(self.name, self.seed, index)
        tbisim = command == "tbisim"
        pair = I.inflated_pair(
            rng, kind, n, support, allow_inf=not tbisim, support=support,
            total=self.tbisim_total if tbisim and kind == "multiset" else None,
            dup_prob=0.2,
        )
        left, right = I.write_pair(pair, tag, tmp)
        files = [left, right]
        labels = C.Labels(pair, tag)
        cap = C.weight_cap(pair) if kind == "multiset" else None

        if tbisim:
            everything = [(x, j) for x in range(len(pair.left)) for j in range(len(pair.right))]
            rel = I.write_relation(everything, tag, tmp, "dense")

            def check(code, out):
                problems = []
                C.expect_code(code, 0, problems)
                C.coupling_doc(out, pair, tag, problems)
                return problems

            return Call(command, kind, [command, left, right, rel, "--json"], check, files + [rel])

        if command == "check-sim":
            pairs = {
                (x, j) for x in range(len(pair.left)) for j in range(len(pair.right))
                if rng.random() < 0.3
            }
            rel = I.write_relation(sorted(pairs), tag, tmp, "random")
            holds = C.is_simulation(pairs, pair.left, pair.right, cap)

            def check(code, out):
                problems = []
                C.expect_code(code, 0 if holds else 1, problems)
                if out.split("\n", 1)[0] != ("holds" if holds else "fails"):
                    problems.append(f"verdict line {out[:40]!r}, expected holds={holds}")
                C.violation_lines(out, labels, pair, pairs, cap, problems)
                return problems

            return Call(command, kind, [command, left, right, rel], check, files + [rel])

        if command == "check-sim-bi":
            rel = I.write_relation(pair.planted(), tag, tmp, "planted")
            return Call("check-sim", kind, ["check-sim", left, right, rel, "--bi"], C.holds,
                        files + [rel])

        def check(code, out):
            problems = []
            C.expect_code(code, 0, problems)
            answer = labels.relation(out, problems)
            C.contains_planted(answer, pair, kind == "distribution", problems)
            sound = (C.is_simulation if command == "greatest-sim" else C.is_bisimulation)
            if not sound(answer, pair.left, pair.right, cap):
                problems.append(f"{command} answer fails the simulation condition")
            return problems

        return Call(command, kind, [command, left, right], check, files)


class Harness:
    """Every property of the theorem matrix through `randtest --json`."""

    name = "harness"
    # The theorem matrix at the time this workload was defined; a property
    # added later does not change the workload.
    properties = (
        "oracle-agreement", "fast-path", "preservation", "rank-preservation",
        "n-bisim-n-step", "soundness-completeness", "prop-difunctional",
        "t-implies-lambda", "t-bisim", "functor-laws", "stability", "monotony",
        "preorder", "separation", "hom-agreement", "base-guarantee",
        "injectivity", "nstep-is-n-bisim", "open-problem-search",
    )
    searches = ("open-problem-search",)  # reports findings, never fails

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.trials = 2 if tiny else 10
        self.slots = self.properties

    def prepare(self, index: int, tag: str, tmp: str) -> Call:
        prop = self.slots[index % len(self.slots)]
        trial_seed = _rng(self.name, self.seed, index).getrandbits(30)
        argv = ["randtest", prop, "--trials", str(self.trials), "--seed", str(trial_seed), "--json"]
        asserting = prop not in self.searches

        def check(code, out):
            problems = []
            C.expect_code(code, 0, problems)
            try:
                doc = json.loads(out)
            except ValueError:
                doc = None
            if not isinstance(doc, dict):
                return problems + [f"randtest output is not a JSON object: {out[:60]!r}"]
            if doc.get("property") != prop or doc.get("trials") != self.trials:
                problems.append(f"report names {doc.get('property')!r}/{doc.get('trials')!r}")
            if doc.get("asserting") != asserting:
                problems.append(f"asserting={doc.get('asserting')!r}, expected {asserting}")
            if asserting and (doc.get("passed") is not True or doc.get("counterexamples")):
                problems.append(f"{prop} reported counterexamples")
            return problems

        return Call("randtest", prop, argv, check)


WORKLOADS = {cls.name: cls for cls in (Equiv, Wide, Harness)}
