"""Finite relations between two state carriers, and partitions of their union.

A `Partition` holds blocks of (left states, right states).  It is the one
shape of a difunctional relation, left × right over the blocks.  Refinement
in `coalsim.behaviour` and the union-find of `Relation.components` build it.

A relation can also be held as rows: each left state mapped to its right
states as a tuple in carrier order (`image_rows`, `Partition.rows`).  Walking
the left carrier through its rows lists the pairs in `sorted_pairs` order,
so the command line prints greatest (bi)simulations, behavioural
equivalence and closures from rows, without building or sorting a pair set;
`rows_relation` turns rows back into a `Relation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import ValidationError, shown
from .values import state_key


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
        """x S y, z S y and z S w imply x S w: S is left × right on each component."""
        return len(self.pairs) == sum(len(ls) * len(rs) for ls, rs in self.components().blocks)

    def components(self) -> "Partition":
        """Connected components of the bipartite graph of the relation.

        Each block is (left states, right states), both in carrier order.
        Blocks are listed by first member, left carrier before right
        carrier; a state in no pair is a block of its own.
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
        blocks = tuple((tuple(ls), tuple(rs)) for ls, rs in groups.values())
        return Partition(self.left, self.right, blocks)

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

    def check_pairs(self) -> None:
        """Raise ValidationError naming the pairs outside left × right."""
        ls, rs = set(self.left), set(self.right)
        bad = sorted((p for p in self.pairs if p[0] not in ls or p[1] not in rs), key=state_key)
        if bad:
            raise ValidationError(f"pairs outside the carriers: {shown(bad)}")


def relation(left: Iterable, right: Iterable, pairs: Iterable) -> Relation:
    s = Relation(tuple(left), tuple(right), frozenset(tuple(p) for p in pairs))
    s.check_pairs()
    return s


def full_relation(left: Iterable, right: Iterable) -> Relation:
    left = tuple(left)
    right = tuple(right)
    return Relation(left, right, frozenset((x, y) for x in left for y in right))


def identity_relation(carrier: Iterable) -> Relation:
    carrier = tuple(carrier)
    return Relation(carrier, carrier, frozenset((x, x) for x in carrier))


def image_rows(img: dict, right: tuple) -> dict:
    """Images as rows: each state of img to its image, as a tuple in the order of `right`."""
    position = {y: i for i, y in enumerate(right)}.__getitem__
    return {x: tuple(sorted(ys, key=position)) for x, ys in img.items()}


def rows_relation(left: tuple, right: tuple, rows: dict) -> Relation:
    """The relation of rows: each left state with each right state of its row."""
    return Relation(left, right, frozenset((x, y) for x in left for y in rows[x]))


def difunctional_closure(s: Relation) -> Relation:
    """Least difunctional relation containing s.

    It relates every left state to every right state of its connected
    component in the bipartite graph of s.
    """
    return s.components().cross_relation()


@dataclass(frozen=True)
class Partition:
    """Blocks over the disjoint union of two carriers.

    Each block is (left states, right states), both in carrier order, and
    blocks are numbered by first member, left carrier before right carrier.
    """

    left: tuple
    right: tuple
    blocks: tuple

    @cached_property
    def left_ids(self) -> dict:
        """Each left state to the number of its block."""
        return {x: i for i, (lefts, _) in enumerate(self.blocks) for x in lefts}

    @cached_property
    def right_ids(self) -> dict:
        """Each right state to the number of its block."""
        return {y: i for i, (_, rights) in enumerate(self.blocks) for y in rights}

    def images(self) -> tuple:
        """Each left state to its block's right states, and each right state to its lefts."""
        img, cimg = {}, {}
        for lefts, rights in self.blocks:
            img.update(dict.fromkeys(lefts, frozenset(rights)))
            cimg.update(dict.fromkeys(rights, frozenset(lefts)))
        return img, cimg

    def rows(self) -> dict:
        """Each left state to its block's right states: one shared tuple per block."""
        return {x: rights for lefts, rights in self.blocks for x in lefts}

    def cross_relation(self) -> Relation:
        """The difunctional relation of the blocks: left × right, block by block."""
        return rows_relation(self.left, self.right, self.rows())

    def spanning_pairs(self) -> list:
        """At most |C|+|D| cross pairs that decide the bisimulation condition.

        Per block: each left state with the first right state, and the first
        left state with each right state.  Their difunctional closure is the
        cross relation, so `certified_partition` checks them up to it.
        """
        out = []
        for lefts, rights in self.blocks:
            if lefts and rights:
                out.extend((x, rights[0]) for x in lefts)
                out.extend((lefts[0], y) for y in rights[1:])
        return out

    def to_dict(self) -> dict:
        return {"blocks": [{"left": list(ls), "right": list(rs)} for ls, rs in self.blocks]}
