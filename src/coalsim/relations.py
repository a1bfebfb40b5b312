"""Finite relations between two state carriers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError
from .values import _skey


@dataclass(frozen=True)
class Relation:
    left: tuple
    right: tuple
    pairs: frozenset

    def image(self, states) -> frozenset:
        a = set(states)
        return frozenset(y for x, y in self.pairs if x in a)

    def converse(self) -> "Relation":
        return Relation(self.right, self.left, frozenset((y, x) for x, y in self.pairs))

    def compose(self, other: "Relation") -> "Relation":
        if self.right != other.left:
            raise ValidationError("composition needs matching middle carriers")
        by_mid = {}
        for x, y in self.pairs:
            by_mid.setdefault(y, []).append(x)
        out = set()
        for y, z in other.pairs:
            for x in by_mid.get(y, ()):
                out.add((x, z))
        return Relation(self.left, other.right, frozenset(out))

    def union(self, other: "Relation") -> "Relation":
        if self.left != other.left or self.right != other.right:
            raise ValidationError("union needs identical carriers")
        return Relation(self.left, self.right, self.pairs | other.pairs)

    def is_difunctional(self) -> bool:
        """x S y, z S y and z S w imply x S w; equivalently, S equals its closure."""
        return difunctional_closure(self).pairs == self.pairs

    def components(self) -> list:
        """Connected components of the bipartite graph of the relation.

        Each component is (left states, right states), both in carrier order.
        Components are listed by first member, left carrier before right
        carrier; a state in no pair is a component of its own.
        """
        parent = {}

        def find(a):
            while parent.get(a, a) != a:
                parent[a] = parent.get(parent[a], parent[a])
                a = parent[a]
            return a

        for x, y in self.pairs:
            rx, ry = find((0, x)), find((1, y))
            if rx != ry:
                parent[rx] = ry
        groups = {}
        for node in [(0, x) for x in self.left] + [(1, y) for y in self.right]:
            groups.setdefault(find(node), ([], []))[node[0]].append(node[1])
        return [(tuple(lefts), tuple(rights)) for lefts, rights in groups.values()]

    def sorted_pairs(self) -> list:
        li = {s: i for i, s in enumerate(self.left)}
        ri = {s: i for i, s in enumerate(self.right)}
        return sorted(self.pairs, key=lambda p: (li[p[0]], ri[p[1]]))

    def left_images(self) -> dict:
        out = {x: set() for x in self.left}
        for x, y in self.pairs:
            out[x].add(y)
        return {x: frozenset(ys) for x, ys in out.items()}

    def __len__(self):
        return len(self.pairs)


def relation(left: Iterable, right: Iterable, pairs: Iterable) -> Relation:
    left = tuple(left)
    right = tuple(right)
    ls, rs = set(left), set(right)
    pairs = frozenset(tuple(p) for p in pairs)
    bad = sorted((p for p in pairs if p[0] not in ls or p[1] not in rs), key=_skey)
    if bad:
        raise ValidationError(f"pairs outside the carriers: {bad}")
    return Relation(left, right, pairs)


def full_relation(left: Iterable, right: Iterable) -> Relation:
    left = tuple(left)
    right = tuple(right)
    return Relation(left, right, frozenset((x, y) for x in left for y in right))


def identity_relation(carrier: Iterable) -> Relation:
    carrier = tuple(carrier)
    return Relation(carrier, carrier, frozenset((x, x) for x in carrier))


def difunctional_closure(s: Relation) -> Relation:
    """Least difunctional relation containing s.

    It relates every left state to every right state of its connected
    component in the bipartite graph of s.
    """
    pairs = frozenset(
        (x, y) for lefts, rights in s.components() for x in lefts for y in rights
    )
    return Relation(s.left, s.right, pairs)
