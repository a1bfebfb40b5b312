"""Seeded model pairs with a planted projection, written as coalsim JSON files.

A pair (C, D) is built so that its answer is known without asking the
engine: D is an inflation of C.  Every state of C gets one or two copies in
D, the copies are shuffled, and each copy's value splits the value of its
original along the projection pi: D -> C (successor sets over copies, weights
and masses divided among copies, neighbourhood minimals lifted to copies).
Pushing a copy's value forward along pi gives back the original's value, so
pi is a homomorphism and its graph is a bisimulation.

Some pairs re-draw a few states of D at random.  The graph of pi restricted
to the states of D that cannot reach a re-drawn state is still the graph of
a homomorphism from a sub-model, hence still a bisimulation; that restricted
graph is the `planted` relation every check relies on.

Values are kept in a neutral form (state indices, ints, Fractions) and only
turned into labels when written, so one structure can be written under many
label prefixes: same work, no value shared with an earlier call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

INF = "inf"
KINDS = ("kripke", "multiset", "distribution", "neighborhood")
ATOMS = ("p", "q")


@dataclass
class Pair:
    kind: str
    left: list  # values of C, indexed by state
    right: list  # values of D, indexed by state
    pi: list  # pi[j] = state of C that D-state j copies
    alive: frozenset  # D-states that reach no re-drawn state

    def planted(self) -> list:
        return [(self.pi[j], j) for j in sorted(self.alive)]


def _subset(rng, pool, k):
    return sorted(rng.sample(list(pool), k))


def _composition(rng, total, k):
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_value(rng, kind, n, branching, allow_inf=False, support=None, total=None):
    """One value over states 0..n-1.

    `support` fixes the support size; `total` fixes a multiset's total weight.
    """
    k = support if support is not None else rng.randint(0, min(branching, n))
    if kind == "kripke":
        props = tuple(a for a in ATOMS if rng.random() < 0.5)
        return (props, _subset(rng, range(n), k))
    if kind == "multiset" and total is not None:
        return dict(zip(_subset(rng, range(n), k), _composition(rng, total, k)))
    if kind == "multiset":
        return {
            s: INF if allow_inf and rng.random() < 0.1 else rng.randint(1, 3)
            for s in _subset(rng, range(n), k)
        }
    if kind == "distribution":
        k = max(k, 1)
        denom = 4 * k
        parts = _composition(rng, denom, k)
        return dict(zip(_subset(rng, range(n), k), (Fraction(p, denom) for p in parts)))
    if kind == "neighborhood":
        pool = _subset(rng, range(n), k)
        sets = [
            frozenset(_subset(rng, pool, rng.randint(0, len(pool))))
            for _ in range(rng.randint(0, 2))
        ]
        return _antichain(sets)
    raise ValueError(kind)


def _antichain(sets):
    family = set(sets)
    return sorted(
        (sorted(s) for s in family if not any(t < s for t in family)),
        key=lambda m: (len(m), m),
    )


def _lift(rng, kind, value, copies):
    """A value over D whose push-forward along pi is `value`."""
    def some(z):
        cs = copies[z]
        return _subset(rng, cs, rng.randint(1, len(cs)))

    if kind == "kripke":
        props, succ = value
        return (props, sorted(j for z in succ for j in some(z)))
    if kind == "multiset":
        out = {}
        for z, w in value.items():
            chosen = some(z)
            if w == INF:
                for j in chosen:
                    out[j] = INF
                continue
            chosen = chosen[:w]
            out.update(zip(chosen, _composition(rng, w, len(chosen))))
        return out
    if kind == "distribution":
        out = {}
        for z, q in value.items():
            chosen = some(z)
            if len(chosen) == 1:
                out[chosen[0]] = q
            else:
                share = Fraction(rng.randint(1, 2), 3)
                out[chosen[0]] = q * share
                out[chosen[1]] = q * (1 - share)
        return out
    if kind == "neighborhood":
        return _antichain(
            frozenset(j for z in m for j in some(z)) for m in value
        )
    raise ValueError(kind)


def _successors(kind, value):
    if kind == "kripke":
        return set(value[1])
    if kind == "neighborhood":
        return {s for m in value for s in m}
    return set(value)


def inflated_pair(rng, kind, n, branching, allow_inf=False, support=None, total=None,
                  dup_prob=0.5, redraw_prob=1 / 3) -> Pair:
    """A model C on n states and its shuffled inflation D, maybe perturbed.

    A share `dup_prob` of C's states, chosen at random, get two copies, so
    |D| is the same for every pair of one size.
    """
    def draw(size):
        return random_value(rng, kind, size, branching, allow_inf, support, total)

    left = [draw(n) for _ in range(n)]
    doubled = set(rng.sample(range(n), round(n * dup_prob)))
    origin = [x for x in range(n) for _ in range(2 if x in doubled else 1)]
    rng.shuffle(origin)
    copies = {x: [] for x in range(n)}
    for j, x in enumerate(origin):
        copies[x].append(j)
    right = [_lift(rng, kind, left[x], copies) for x in origin]
    alive = frozenset(range(len(origin)))
    if rng.random() < redraw_prob:
        redrawn = _subset(rng, range(len(origin)), rng.randint(1, 2))
        trial = list(right)
        for j in redrawn:
            trial[j] = draw(len(origin))
        dead = set(redrawn)
        changed = True
        while changed:
            changed = False
            for j, v in enumerate(trial):
                if j not in dead and _successors(kind, v) & dead:
                    dead.add(j)
                    changed = True
        if len(dead) < len(origin):
            right = trial
            alive = frozenset(j for j in range(len(origin)) if j not in dead)
    return Pair(kind, left, right, origin, alive)


def left_label(tag, x):
    return f"{tag}c{x}"


def right_label(tag, j):
    return f"{tag}d{j}"


def _value_json(kind, value, label):
    if kind == "kripke":
        props, succ = value
        return {"props": list(props), "succ": [label(s) for s in succ]}
    if kind == "multiset":
        return {label(s): w for s, w in value.items()}
    if kind == "distribution":
        return {label(s): str(q) for s, q in value.items()}
    return {"minimals": [[label(s) for s in m] for m in value]}


def model_doc(kind, values, label) -> dict:
    doc = {
        "functor": kind,
        "states": [label(i) for i in range(len(values))],
        "transition": {label(i): _value_json(kind, v, label) for i, v in enumerate(values)},
    }
    if kind == "kripke":
        doc["atoms"] = list(ATOMS)
    return doc


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def write_pair(pair: Pair, tag: str, directory) -> tuple:
    """Write both models under the label prefix `tag`; return the two paths."""
    lpath = f"{directory}/{tag}C.json"
    rpath = f"{directory}/{tag}D.json"
    write_json(lpath, model_doc(pair.kind, pair.left, lambda x: left_label(tag, x)))
    write_json(rpath, model_doc(pair.kind, pair.right, lambda j: right_label(tag, j)))
    return lpath, rpath


def write_relation(pairs, tag: str, directory, name: str) -> str:
    path = f"{directory}/{tag}{name}.json"
    write_json(path, {"pairs": [[left_label(tag, x), right_label(tag, j)] for x, j in pairs]})
    return path
