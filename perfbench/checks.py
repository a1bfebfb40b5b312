"""Output checks derived from the construction of the inputs, not from coalsim.

Every check returns a list of problems; an empty list means the output is
right.  Relations are checked in index space: labels written by
`instances` are mapped back to state indices, and a label the inputs never
contained is itself a problem.

For the weighted kinds the benchmark decides the simulation condition on
its own.  With the default grids (`graded:auto`, `prob:auto-grid`) a pair
(x, y) of a relation R passes exactly when, for every subset A of x's
support, y's weight on R[A] reaches x's weight on A (for multisets, capped
at K + 1, where K is the largest finite weight sum of any value: a weight
above K can only be infinite).  The same condition with equal totals is
Hall's condition for a coupling over R, which decides `tbisim`.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction
from itertools import combinations

import instances as I

INF = float("inf")


class Labels:
    """Maps the labels of one written pair back to state indices."""

    def __init__(self, pair: I.Pair, tag: str):
        self.left = {I.left_label(tag, x): x for x in range(len(pair.left))}
        self.right = {I.right_label(tag, j): j for j in range(len(pair.right))}

    def relation(self, stdout: str, problems: list) -> set:
        out = set()
        for line in stdout.splitlines():
            parts = line.split()
            if len(parts) != 2 or parts[0] not in self.left or parts[1] not in self.right:
                problems.append(f"unexpected output line {line[:80]!r}")
                continue
            out.add((self.left[parts[0]], self.right[parts[1]]))
        return out


def expect_code(code: int, want: int, problems: list) -> None:
    if code != want:
        problems.append(f"exit code {code}, expected {want}")


def holds(code: int, stdout: str) -> list:
    """`check-sim --bi` of the planted relation: exit 0 and exactly `holds`."""
    problems = []
    expect_code(code, 0, problems)
    if stdout != "holds\n":
        problems.append(f"planted relation reported as {stdout[:40]!r}")
    return problems


def contains_planted(answer: set, pair: I.Pair, full: bool, problems: list) -> None:
    """The answer holds the planted graph; a distribution answer is all of C x D."""
    missing = [p for p in pair.planted() if p not in answer]
    if missing:
        problems.append(f"{len(missing)} planted pairs missing, e.g. {missing[0]}")
    if full and len(answer) != len(pair.left) * len(pair.right):
        problems.append(
            f"distribution answer has {len(answer)} pairs, expected all "
            f"{len(pair.left) * len(pair.right)}"
        )


def nstep_blocks(stdout: str, labels: Labels, pair: I.Pair, problems: list) -> None:
    """Planted pairs share a block; each state is in one block; one block for distributions."""
    members = []
    count = 0
    for line in stdout.splitlines():
        _, _, rest = line.partition(": ")
        left_txt, _, right_txt = rest.partition(" right=")
        try:
            left = ast.literal_eval(left_txt.removeprefix("left="))
            right = ast.literal_eval(right_txt)
            members += [(("L", labels.left.get(name)), count) for name in left]
            members += [(("R", labels.right.get(name)), count) for name in right]
        except (ValueError, SyntaxError, TypeError):
            problems.append(f"unparsable block line {line[:80]!r}")
            return
        count += 1
    block_of = dict(members)
    carriers = {("L", x) for x in range(len(pair.left))} | {("R", j) for j in range(len(pair.right))}
    if len(members) != len(block_of) or set(block_of) != carriers:
        problems.append("blocks do not partition the two carriers")
        return
    for x, j in pair.planted():
        if block_of[("L", x)] != block_of[("R", j)]:
            problems.append(f"planted pair {(x, j)} split across blocks")
            return
    if pair.kind == "distribution" and count != 1:
        problems.append(f"distribution partition has {count} blocks, expected 1")


def witness_file(path: str, pair: I.Pair, tag: str, problems: list) -> None:
    """The quotient witness maps both ends of every planted pair to one block."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        kl, kr = doc["kappa_left"], doc["kappa_right"]
        bad = [
            (x, j) for x, j in pair.planted()
            if kl[I.left_label(tag, x)] != kr[I.right_label(tag, j)]
        ]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"witness file unreadable: {exc!r}")
        return
    if bad:
        problems.append(f"witness separates planted pair {bad[0]}")


# --- weighted kinds -------------------------------------------------------

def _weights(value: dict) -> dict:
    return {s: INF if w == I.INF else Fraction(w) for s, w in value.items()}


def weight_cap(pair: I.Pair) -> float:
    """Largest finite weight sum of any value, plus one (the graded grid's reach)."""
    return 1 + max(
        sum(w for w in v.values() if w != I.INF) for v in pair.left + pair.right
    )


def _mass(value: dict, states) -> Fraction | float:
    total = Fraction(0)
    for s in states:
        total += value.get(s, 0)
    return total


def _subsets(items):
    for k in range(len(items) + 1):
        yield from combinations(items, k)


def pair_violation(t: dict, u: dict, image: dict, cap):
    """A subset A of t's support with u(image[A]) < min(t(A), cap), or None."""
    for a in _subsets(sorted(t)):
        need = _mass(t, a)
        if cap is not None:
            need = min(need, cap)
        target = set().union(*(image.get(z, ()) for z in a))
        if _mass(u, target) < need:
            return a
    return None


def is_simulation(rel, left: list, right: list, cap) -> bool:
    image = {}
    for x, j in rel:
        image.setdefault(x, set()).add(j)
    lw = [_weights(v) for v in left]
    rw = [_weights(v) for v in right]
    return all(pair_violation(lw[x], rw[j], image, cap) is None for x, j in rel)


def is_bisimulation(rel, left: list, right: list, cap) -> bool:
    back = {(j, x) for x, j in rel}
    return is_simulation(rel, left, right, cap) and is_simulation(back, right, left, cap)


def violation_lines(stdout: str, labels: Labels, pair: I.Pair, rel: set,
                    cap, problems: list) -> None:
    """Each reported violation is re-derived from the values and the relation."""
    image = {}
    for x, j in rel:
        image.setdefault(x, set()).add(j)
    for line in stdout.splitlines()[1:]:
        parts = line.split(" ")
        try:
            _, direction, lname, rname, token, wit = parts
            x, j = labels.left[lname], labels.right[rname]
            members = [labels.left[s] for s in wit.strip("{}").split(",") if s]
            # "<k>" is graded "more than k"; "L(p)" is "mass at least p".
            threshold = int(token[1:-1]) if token.startswith("<") else Fraction(token[2:-1])
        except (ValueError, KeyError, ZeroDivisionError):
            problems.append(f"unparsable violation line {line[:80]!r}")
            continue
        target = set().union(*(image.get(z, ()) for z in members))
        lhs = _mass(_weights(pair.left[x]), members)
        rhs = _mass(_weights(pair.right[j]), target)
        if token.startswith("<"):
            real = lhs > threshold and not rhs > threshold
        else:
            real = lhs >= threshold and not rhs >= threshold
        if direction != "[forward]" or (x, j) not in rel or not real:
            problems.append(f"reported violation does not hold: {line[:80]!r}")


def coupling_doc(stdout: str, pair: I.Pair, tag: str, problems: list) -> None:
    """Every coupling value projects onto the two end values and stays in R = C x D."""
    labels = Labels(pair, tag)
    try:
        doc = json.loads(stdout)
        couplings = doc["couplings"]
        seen = set()
        for entry in couplings:
            x, j = labels.left[entry["left"]], labels.right[entry["right"]]
            seen.add((x, j))
            rows, cols = {}, {}
            for (a, b), w in entry["value"]["entries"]:
                w = Fraction(w)
                rows[labels.left[a]] = rows.get(labels.left[a], 0) + w
                cols[labels.right[b]] = cols.get(labels.right[b], 0) + w
            if rows != _weights(pair.left[x]) or cols != _weights(pair.right[j]):
                problems.append(f"coupling of {(x, j)} does not project onto its ends")
                return
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"coupling output unreadable: {exc!r}")
        return
    if len(seen) != len(pair.left) * len(pair.right):
        problems.append(f"couplings cover {len(seen)} pairs, expected all of C x D")
