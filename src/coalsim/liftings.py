"""Modal operators interpreted over transition values.

Each modality is a monotone predicate lifting for its functor kind: `[]` and
`<>` over Kripke successors, nullary atoms over the proposition component,
`<k>` (strictly more than k successors counted with multiplicity) over
multisets, `L(p)` / `M(p)` (mass at least / more than p) over distributions,
and `[m]` (the tested set belongs to the system) over neighborhoods.

A signature is a functor kind and the finite list of modalities that
algorithmic quantifiers iterate over, nothing more.  For graded and
probabilistic kinds the list is a `ThresholdGrid`, ascending: the grid of a
literal, which lists nothing at resolution (it keeps its models, computes
their subset sums only for a query that needs them, and builds its
modalities only when iterated), or the distinct thresholds of a hand-built
tuple.  Every weighted question is one span of the grid's thresholds
between two masses.  `graded:auto` and `prob:auto-grid` cover every
threshold the given models can realize by construction, so the pair check
asks them about one cut and never lists them.  Whether a signature
separates the values of some models is derived from its modalities
(`ensure_separating`); a grid separates its own models with no check.

This is the one module that knows the one-step (lifting) condition behind
simulations and bisimulations (see `lifting_violations`).  `lifting_check`
compiles it, once per signature, into a predicate for one pair of the
signature's kind, exact for every signature, and `lifting_violations`
lists the failures for reports.  For multisets and distributions the pair
check is Gale's supply-demand condition, decided on integers by
`hall_violator` through one maximum flow from a greedy fill
(`coalsim.transport.shortfall`), whose minimum cut is the violator.  This
module is also the one place the engine enumerates subsets, behind the gate
`exhaustive_base`: `subsets` for Kripke and neighborhood values, one table
of masses over bitmasks for weighted ones.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import lcm
from typing import Iterator, Optional, Sequence

from .errors import BudgetError, KindMismatchError, NotSeparatingError, ValidationError, as_text, clipped, shown
from .transport import shortfall
from .values import (
    DISTRIBUTION,
    INF,
    KRIPKE,
    MULTISET,
    NEIGHBORHOOD,
    Coalgebra,
    DistValue,
    FunctorKind,
    FunctorValue,
    KripkeValue,
    MultisetValue,
    NbhdValue,
    VALUE_TYPES,
    base,
    integer_weights,
    measure,
    state_key,
)

DEFAULT_MAX_BASE = 16
MAX_GRADED_INDEX = 100_000  # largest index of a graded grid; about 0.2 s to list
MAX_PROB_GRID = 50_000  # most subset sums a probability grid computes for a query; about 1 s at the limit


def _max_base() -> int:
    """COALSIM_MAX_BASE (default 16); anything but a natural number raises ValidationError."""
    raw = os.environ.get("COALSIM_MAX_BASE", str(DEFAULT_MAX_BASE))
    try:
        bound = int(raw)
    except ValueError:
        bound = -1
    if bound < 0:
        raise ValidationError(f"COALSIM_MAX_BASE must be a natural number, got {raw!r}")
    return bound


def exhaustive_base(states, what: str) -> list:
    """The states in `state_key` order, for exhaustive subset quantification.

    This is the one gate on such quantification: more than COALSIM_MAX_BASE
    states (default 16) raise BudgetError.
    """
    bound = _max_base()
    items = sorted(states, key=state_key)
    if len(items) > bound:
        raise BudgetError(
            f"{what} has {len(items)} states, above the exhaustive bound {bound} "
            f"(override with COALSIM_MAX_BASE)"
        )
    return items


def subsets(items: list) -> Iterator[frozenset]:
    """Every subset of a list, in the order of a binary counter over its positions.

    The one subset enumerator of the package (the brute-force simulation
    oracle keeps its own); its order fixes the order in which violations and
    witnesses are reported.
    """
    for mask in range(1 << len(items)):
        yield frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


@dataclass(frozen=True)
class Modality:
    op: str
    index: Optional[int] = None
    bound: Optional[Fraction] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.op == "diamond_gt":
            if self.index is None or self.index < 0:
                raise ValidationError(f"graded index must be a natural, got {self.index!r}")
        elif self.op in ("at_least", "more_than"):
            if self.bound is None or not 0 <= self.bound <= 1:
                raise ValidationError(f"probability bound must lie in [0,1], got {self.bound!r}")
        elif self.op == "atom":
            if not self.name:
                raise ValidationError("atom modality needs a name")
        elif self.op not in ("box", "diamond", "nbhd_box"):
            raise ValidationError(f"unknown modality operator {self.op!r}")

    @property
    def nullary(self) -> bool:
        return self.op == "atom"

    def token(self) -> str:
        if self.op == "box":
            return "[]"
        if self.op == "diamond":
            return "<>"
        if self.op == "diamond_gt":
            return f"<{self.index}>"
        if self.op == "at_least":
            return f"L({as_text(self.bound)})"
        if self.op == "more_than":
            return f"M({as_text(self.bound)})"
        if self.op == "nbhd_box":
            return "[m]"
        return self.name


BOX = Modality("box")
DIAMOND = Modality("diamond")
NBHD_BOX = Modality("nbhd_box")


def atom(name: str) -> Modality:
    return Modality("atom", name=name)


def diamond_gt(k: int) -> Modality:
    return Modality("diamond_gt", index=k)


def at_least(p) -> Modality:
    return Modality("at_least", bound=Fraction(p))


def more_than(p) -> Modality:
    return Modality("more_than", bound=Fraction(p))


_KIND_OF_OP = {
    "box": KRIPKE,
    "diamond": KRIPKE,
    "atom": KRIPKE,
    "diamond_gt": MULTISET,
    "at_least": DISTRIBUTION,
    "more_than": DISTRIBUTION,
    "nbhd_box": NEIGHBORHOOD,
}


def modality_kind(m: Modality) -> str:
    return _KIND_OF_OP[m.op]


def _mismatch(t: FunctorValue, m: Modality) -> KindMismatchError:
    return KindMismatchError(f"modality {m.token()!r} is not interpretable over {type(t).__name__}")


def satisfies(t: FunctorValue, m: Modality, states) -> bool:
    """Does the value satisfy the modality applied to the given state set?"""
    if not isinstance(t, VALUE_TYPES[_KIND_OF_OP[m.op]]):
        raise _mismatch(t, m)
    op = m.op
    if op == "box":
        return t.succ <= frozenset(states)
    if op == "diamond":
        return bool(t.succ & frozenset(states))
    if op == "atom":
        return m.name in t.props
    if op == "nbhd_box":
        return t.contains(states)
    mass = measure(t, states)
    if op == "diamond_gt":
        return mass > m.index
    return mass >= m.bound if op == "at_least" else mass > m.bound


class ThresholdGrid:
    """A grid of weighted thresholds, read-only and built only when read.

    Every multiset and distribution signature is one.  Each threshold is a
    natural s over the grid's denominator g, strict (`<s>`, `M(s/g)`) or not
    (`L(s/g)`), kept as the key 2s + strict.  A mass that meets one
    threshold meets every threshold of smaller key, so the thresholds that
    a mass a meets and a smaller mass b does not are one span of the
    ascending keys (`_span`).  The keys come from one of three sources:

    - `graded:0..K` is the indices `<0>` … `<K>`, and `graded:auto` takes
      K = `graded_bound` of its models;
    - `prob:auto-grid` is `L(p)` for every mass p that a distribution of its
      models realizes on some set (`_subset_sums`), computed once, when a
      query first needs them;
    - a hand-built signature gives the distinct thresholds of its tuple.

    The `Modality` objects are built once, when the grid is first iterated.
    Iteration is ascending by key, and the grid equals the tuple of its
    modalities under `==`, `len` and `in`.

    A grid resolved on models (`graded:auto`, `prob:auto-grid`) holds by
    construction every threshold those models realize.  So it separates
    them with no check (`gap`), and a distribution of those models that
    fails a pair at a cut A fails `L(t(A))`, which is in the grid with no
    sum computed (`fails_cut`).  Values are matched by identity, so an equal
    value built elsewhere is still asked exactly.
    """

    def __init__(self, kind: str, models: Sequence[Coalgebra] = (), top: Optional[int] = None, given=None):
        self.kind = kind  # MULTISET or DISTRIBUTION
        self.models = tuple(models)  # the models it was resolved on; they realize no threshold outside it
        self._top = top  # the largest index of a graded literal
        self._given = given  # the modalities of a hand-built signature
        self._built = {}  # the modalities built so far, by position

    @cached_property
    def _scale(self) -> tuple:
        """(g, keys): the grid's thresholds as keys 2s + strict over g, ascending."""
        if self._given is not None:
            bounds = [(Fraction(m.bound if m.index is None else m.index), m.op != "at_least") for m in self._given]
            g = lcm(*(q.denominator for q, _ in bounds))
            return g, sorted({2 * (q.numerator * g // q.denominator) + strict for q, strict in bounds})
        if self._top is not None:
            return 1, range(1, 2 * self._top + 2, 2)
        den, sums = _subset_sums(self.models)
        return den, sorted(2 * s for s in sums)

    @cached_property
    def _listed(self) -> tuple:
        return tuple(map(self._modality, range(len(self))))

    @cached_property
    def _own_values(self) -> frozenset:
        return frozenset(id(t) for c in self.models for t in c.transition.values())

    def _modality(self, k: int) -> Modality:
        """The modality of the grid's k-th key, built once."""
        m = self._built.get(k)
        if m is None:
            g, keys = self._scale
            s, strict = divmod(keys[k], 2)
            if self.kind == MULTISET:
                m = self._built[k] = diamond_gt(s)
            else:
                m = self._built[k] = (more_than if strict else at_least)(Fraction(s, g))
        return m

    def _reach(self, v, den=1):
        """The largest key that a mass v/den meets: 2s when it is s/g, else 2s + 1
        for the s with s/g below it and (s+1)/g above."""
        if v == INF:
            return INF
        s, rest = divmod(v * self._scale[0], den)
        return 2 * s + (rest > 0)

    def _span(self, a, b, den=1) -> tuple:
        """(start, stop): the positions of the thresholds that mass a/den meets
        and mass b/den does not."""
        keys = self._scale[1]
        return bisect_right(keys, self._reach(b, den)), bisect_right(keys, self._reach(a, den))

    def fails_cut(self, t, a, b) -> bool:
        """Does a pair whose flow stops at a cut A, with a = t(A) > b = u(S[A]),
        fail a threshold of the grid?  Exactly when their `_span` is not
        empty.  A resolved distribution grid answers with no sum computed when
        t is a value of its own models, which realize L(a), or when a = 1."""
        if self.kind == DISTRIBUTION and self._given is None and (a == 1 or id(t) in self._own_values):
            return True
        start, stop = self._span(a, b)
        return start < stop

    def failing(self, t, table: list, den: int):
        """(modality, mask) for each threshold that a row (mask, t(A), u(S[A]))
        of t's mass table over den fails, ascending by threshold, then in table
        order: the `_span` of (t(A), u(S[A])) of each row.  A value of another
        kind raises as the grid's first threshold does.

        The positions are walked from the first span's start, and each
        position lists the rows whose spans hold it, kept in table order as
        spans open and close, so the listing builds only the modalities it
        yields.
        """
        if not isinstance(t, VALUE_TYPES[self.kind]):
            if self:
                raise _mismatch(t, self._modality(0))
            return
        spans = []  # (start, stop, row): the row fails the thresholds at positions start..stop-1
        for row, (_, ta, ub) in enumerate(table):
            start, stop = self._span(ta, ub, den)
            if start < stop:
                spans.append((start, stop, row))
        if not spans:
            return
        spans.sort(reverse=True)  # the next span to open is last
        active = []  # (row, stop) of the open spans, in table order
        for k in range(spans[-1][0], max(stop for _, stop, _ in spans)):
            while spans and spans[-1][0] == k:
                _, stop, row = spans.pop()
                insort(active, (row, stop))
            active = [(row, stop) for row, stop in active if stop > k]
            for row, _ in active:
                yield self._modality(k), table[row][0]

    def gap(self, models) -> Optional[str]:
        """`_separation_gap` for the grid: only models it was not resolved on are checked."""
        foreign = [c for c in models if not any(c is own for own in self.models)]
        if not foreign:
            return None
        if self.kind == MULTISET:
            need = graded_bound(foreign)
            keys = self._scale[1]
            # Index i is in the grid while keys[i] = 2i + 1; the first i where not is the least missing.
            least = bisect_left(range(len(keys)), True, key=lambda i: keys[i] > 2 * i + 1)
            if least <= need:
                return f"graded grid misses index {least}; weights reach {need}"
            return None
        den, sums = _subset_sums(foreign)
        masses = (Fraction(s, den) for s in sorted(sums))
        missing = [q for q in masses if at_least(q) not in self and more_than(q) not in self]
        if missing:
            return clipped(f"probability grid misses realized masses {[as_text(q) for q in missing]}")
        return None

    def __len__(self) -> int:
        return len(self._scale[1])

    def __bool__(self) -> bool:
        return self._given is None or bool(self._given)  # 0 is an index and a mass of every resolved grid

    def __iter__(self):
        return iter(self._listed)

    def __contains__(self, m) -> bool:
        if not isinstance(m, Modality) or _KIND_OF_OP[m.op] != self.kind:
            return False
        g, keys = self._scale
        s, rest = divmod(Fraction(m.bound if m.index is None else m.index) * g, 1)
        k = bisect_left(keys, 2 * s + (m.op != "at_least"))
        return not rest and k < len(keys) and m == self._modality(k)

    def __eq__(self, other):
        if isinstance(other, (type(self), tuple)):
            return self._listed == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._listed)

    def __repr__(self) -> str:
        if self._given is not None:
            return f"ThresholdGrid({', '.join(m.token() for m in self)})"
        if self._top is not None:
            return f"ThresholdGrid(<0>..<{self._top}>)"
        return f"ThresholdGrid(L(p) for the subset masses of {len(self.models)} models)"


_WEIGHTED = (MULTISET, DISTRIBUTION)


@dataclass(frozen=True)
class LambdaSignature:
    """Functor kind plus the finite modality list algorithms quantify over: a
    tuple, or for multisets and distributions a `ThresholdGrid`.  A
    hand-built weighted tuple becomes the grid of its distinct thresholds."""

    kind: FunctorKind
    modalities: Sequence

    def __post_init__(self):
        if not isinstance(self.modalities, tuple):  # a grid that `resolve_signature` built
            if self.modalities.kind != self.kind.name:
                raise KindMismatchError(f"a {self.modalities.kind} grid does not apply to kind {self.kind.name!r}")
            return
        for m in self.modalities:
            if modality_kind(m) != self.kind.name:
                raise KindMismatchError(
                    f"modality {m.token()!r} does not apply to kind {self.kind.name!r}"
                )
            if m.op == "atom" and m.name not in self.kind.atoms:
                raise ValidationError(f"atom {m.name!r} is not in the vocabulary")
        if self.kind.name in _WEIGHTED:
            object.__setattr__(self, "modalities", ThresholdGrid(self.kind.name, given=self.modalities))


def graded_bound(models: Sequence[Coalgebra]) -> int:
    """Largest finite subset weight any state of the models can realize.

    A grid of graded modalities up to this bound distinguishes every pair of
    distinguishable weights, including infinite ones: any finite weight a
    model realizes is at most the bound, so exceeding it certifies infinity.
    """
    best = 0
    for c in models:
        for t in c.transition.values():
            finite = sum(w for _, w in t.entries if w != INF)
            best = max(best, finite)
    return best


def _subset_sums(models: Sequence[Coalgebra]) -> tuple:
    """(den, sums): every subset mass realized by a distribution of the models, times den.

    den is the common denominator of all masses (`integer_weights`), and
    each distinct list of scaled masses, sorted, has its subset sums
    collected entry by entry, so the cost is bounded by support size times
    grid size, not by 2^support.  As soon as one value's sums or all of
    them pass MAX_PROB_GRID, BudgetError is raised.
    """
    den, rows = integer_weights(*(t for c in models for t in c.transition.values()))
    grid = {0, den}
    for masses in dict.fromkeys(tuple(sorted(row.values())) for row in rows):
        sums = {0}
        for w in masses:
            sums |= {s + w for s in sums}
            if len(sums) > MAX_PROB_GRID:
                raise _grid_budget()
        grid |= sums
        if len(grid) > MAX_PROB_GRID:
            raise _grid_budget()
    return den, grid


def prob_grid(models: Sequence[Coalgebra]) -> tuple:
    """All subset masses realized by any distribution of the models, sorted (`_subset_sums`)."""
    den, sums = _subset_sums(models)
    return tuple(Fraction(s, den) for s in sorted(sums))


def _grid_budget() -> BudgetError:
    return BudgetError(f"probability grid holds more masses than the limit MAX_PROB_GRID = {MAX_PROB_GRID}")


_FAMILY_KINDS = {"kripke": KRIPKE, "graded": MULTISET, "prob": DISTRIBUTION, "nbhd": NEIGHBORHOOD}


def resolve_signature(literal: str, models: Sequence[Coalgebra]) -> LambdaSignature:
    """Build a signature from a literal like "kripke:box,diamond,atoms".

    Supported literals: "kripke:<parts>" with parts among box, diamond,
    atoms; "graded:0..K" and "graded:auto"; "prob:auto-grid"; "nbhd:box".
    Grid literals resolve to a `ThresholdGrid`, which lists nothing until
    it is read; "graded:auto" and "prob:auto-grid" are grids of the
    thresholds the models realize, so they cover every relevant one by
    construction.  A graded grid past index MAX_GRADED_INDEX, given or
    resolved, raises BudgetError.
    """
    if not models:
        raise ValidationError("signature resolution needs at least one model")
    kind = models[0].kind
    for c in models[1:]:
        if c.kind != kind:
            raise KindMismatchError(
                f"models of kinds {kind.name!r} and {c.kind.name!r} cannot share a signature"
            )
    family, _, spec = literal.partition(":")
    if family not in _FAMILY_KINDS:
        raise ValidationError(f"unknown signature literal {shown(literal)}")
    if kind.name != _FAMILY_KINDS[family]:
        raise KindMismatchError(f"signature {shown(literal)} needs {_FAMILY_KINDS[family]} models")
    if family == "kripke":
        want = set(filter(None, spec.split(",")))
        unknown = want - {"box", "diamond", "atoms"}
        if unknown:
            raise ValidationError(f"unknown kripke signature parts {shown(sorted(unknown))}")
        if not want:
            raise ValidationError("kripke signature needs at least one part")
        mods = [m for part, m in (("box", BOX), ("diamond", DIAMOND)) if part in want]
        if "atoms" in want:
            mods += map(atom, kind.atoms)
    elif family == "graded":
        if spec == "auto":
            bound = graded_bound(models)
        elif spec.startswith("0.."):
            try:
                if not (spec[3:].isascii() and spec[3:].isdigit()):
                    raise ValueError("K is not a natural number in ASCII digits")
                bound = int(spec[3:])
            except ValueError as exc:
                raise ValidationError(f"malformed signature literal {shown(literal)}: {exc}") from exc
        else:
            raise ValidationError(f"malformed graded signature {shown(literal)}")
        if bound > MAX_GRADED_INDEX:
            raise BudgetError(
                f"graded signature {shown(literal)} needs indices above the limit {MAX_GRADED_INDEX}"
            )
        return LambdaSignature(kind, ThresholdGrid(MULTISET, models if spec == "auto" else (), bound))
    elif family == "prob":
        if spec != "auto-grid":
            raise ValidationError(f"malformed probabilistic signature {shown(literal)}")
        return LambdaSignature(kind, ThresholdGrid(DISTRIBUTION, models))
    else:
        if spec != "box":
            raise ValidationError(f"malformed neighborhood signature {shown(literal)}")
        mods = (NBHD_BOX,)
    return LambdaSignature(kind, tuple(mods))


DEFAULT_LITERALS = {
    KRIPKE: "kripke:box,diamond,atoms",
    MULTISET: "graded:auto",
    DISTRIBUTION: "prob:auto-grid",
    NEIGHBORHOOD: "nbhd:box",
}


def auto_signature(*models: Coalgebra) -> LambdaSignature:
    """The canonical separating signature for the models' kind."""
    return resolve_signature(DEFAULT_LITERALS[models[0].kind.name], models)


def _separation_gap(sig: LambdaSignature, models) -> Optional[str]:
    """Why the signature cannot separate the values of these models, or None.

    Kripke values are separated by [] or <> together with every atom of the
    vocabulary, neighborhood values by [m], and weighted values by a grid
    holding every threshold the models realize: each index up to
    `graded_bound`, each subset mass of `_subset_sums` as the bound of an
    `L` or `M` (`ThresholdGrid.gap`, which checks only the models the grid
    was not resolved on).
    """
    if sig.kind.name in _WEIGHTED:
        return sig.modalities.gap(models)
    if sig.kind.name == KRIPKE:
        if BOX not in sig.modalities and DIAMOND not in sig.modalities:
            return "kripke signature needs [] or <>"
        missing = [p for p in sig.kind.atoms if atom(p) not in sig.modalities]
        if missing:
            return f"kripke signature misses atoms {shown(missing)}"
    if sig.kind.name == NEIGHBORHOOD and not sig.modalities:
        return "neighborhood signature needs [m]"
    return None


def ensure_separating(sig: LambdaSignature, *models: Coalgebra) -> None:
    """Reject signatures that cannot separate the values of these models."""
    gap = _separation_gap(sig, models)
    if gap is not None:
        raise NotSeparatingError(gap)


def _image(a, img) -> frozenset:
    """S[A]: the union of the images img[z] of the states z in A."""
    return frozenset().union(*map(img.__getitem__, a))


def _misses(t, u, img, sig):
    """Where the lifting condition fails: t satisfies m at A, u not at S[A].

    The one quantification over observations (modality m, set A), streamed
    per modality in signature order, each in `subsets` order.  A nullary
    modality observes only the empty set, any other each subset of base(t),
    gated by `exhaustive_base`; weighted values are listed from their mass
    table instead (`_weighted_misses`).  Kripke pairs try fewer sets and no
    gate: t satisfies `[]` only at A = succ t, and `<>` fails only at the
    subsets of Z = {x ∈ succ t : S[x] ∩ succ u = ∅}, which come in the same
    relative order by masks over Z.
    """
    if isinstance(t, (MultisetValue, DistValue)) and sig.kind.name in _WEIGHTED:
        yield from _weighted_misses(t, u, img, sig)
        return
    kripke = isinstance(t, KripkeValue) and isinstance(u, KripkeValue)
    if kripke:
        z = [x for x in sorted(t.succ, key=state_key) if img[x].isdisjoint(u.succ)]
    else:
        items = exhaustive_base(base(t), "value base")
    for m in sig.modalities:
        if m.nullary:
            observed = (frozenset(),)
        elif kripke:
            observed = (t.succ,) if m.op == "box" else subsets(z)
        else:
            observed = subsets(items)
        for a in observed:
            if satisfies(t, m, a) and not satisfies(u, m, _image(a, img)):
                yield m, a


def _deficits(tw, uw, img, items) -> list:
    """One mass table: (mask, t(A), u(S[A])) for each A ⊆ items with
    t(A) > u(S[A]), in `subsets` order, from the integer rows tw and uw of
    t and u (`integer_weights`).

    Bit i of a mask stands for items[i].  t(A) is t(A minus its lowest
    item) plus that item's weight; S[A] is a bitmask over u's support, ORed
    from per-item image masks, and u's mass is computed once per image mask.
    Infinite weights are masks of their own, so no sum meets infinity: an A
    holding one has t(A) = INF, an S[A] holding one is never short.
    """
    t_finite = [0 if tw[x] == INF else tw[x] for x in items]
    u_finite = [0 if w == INF else w for w in uw.values()]
    t_inf = sum(1 << i for i, x in enumerate(items) if tw[x] == INF)
    u_inf = sum(1 << j for j, w in enumerate(uw.values()) if w == INF)
    images = [sum(1 << j for j, y in enumerate(uw) if y in img[x]) for x in items]
    t_mass, s_mask, u_mass = [0] * (1 << len(items)), [0] * (1 << len(items)), {0: 0}
    table = []
    for mask in range(1, 1 << len(items)):
        low = mask & -mask
        i = low.bit_length() - 1
        ta = t_mass[mask] = t_mass[mask ^ low] + t_finite[i]
        sa = s_mask[mask] = s_mask[mask ^ low] | images[i]
        if sa & u_inf:
            continue
        ub = u_mass.get(sa)
        if ub is None:
            ub = u_mass[sa] = sum(w for j, w in enumerate(u_finite) if sa >> j & 1)
        if mask & t_inf:
            ta = INF
        if ta > ub:
            table.append((mask, ta, ub))
    return table


def _weighted_misses(t, u, img, sig):
    """`_misses` for multisets and distributions, read off one mass table.

    Every modality is a monotone threshold on mass, so it can fail at A only
    where t(A) > u(S[A]); the table (`_deficits`) keeps those sets, and the
    signature's grid lists, ascending, the thresholds each row fails
    (`ThresholdGrid.failing`).  The sets are built only for the failures
    yielded.  Beyond COALSIM_MAX_BASE the minimum cut A* of
    `hall_violator` stands in for the table: each modality that A* fails
    is listed with it, and BudgetError is raised only when it fails none,
    which a grid holding the models' thresholds rules out.
    """
    den, (tw, uw) = integer_weights(t, u)
    beyond = len(tw) > _max_base()
    if beyond:
        cut = _violator(tw, uw, img)
        table = [cut] if cut else []
        members = frozenset
    else:
        items = exhaustive_base(base(t), "value base")
        table = _deficits(tw, uw, img, items)

        def members(mask):
            return frozenset(x for i, x in enumerate(items) if mask >> i & 1)

    listed = False
    for m, a in sig.modalities.failing(t, table, den):
        listed = True
        yield m, members(a)
    if beyond and table and not listed:
        exhaustive_base(base(t), "value base")  # raises: only a search of every A could list this pair


def lifting_violations(
    t: FunctorValue, u: FunctorValue, img, sig: LambdaSignature, cap: int
) -> list:
    """The first `cap` failures of the lifting condition at one related pair.

    The condition for a relation S and values t, u of a related pair: for
    every modality m of the signature and every observed set A, if t
    satisfies m at A then u satisfies m at S[A], where `img` maps each state
    to its image under S.  A ranges over the subsets of t's base only; that
    is equivalent to ranging over all subsets of the carrier because
    satisfaction only sees the base and all modalities are monotone (the
    brute-force oracle in `coalsim.oracles` re-checks this on every run of
    the property suite).  Returns (modality, A) pairs.
    """
    return list(islice(_misses(t, u, img, sig), cap))


def _pair_ok_generic(sig, t, u, img) -> bool:
    return next(_misses(t, u, img, sig), None) is None


def hall_violator(t, u, img) -> Optional[tuple]:
    """A set A ⊆ base(t) with t(A) > u(S[A]), as (A, t(A), u(S[A])), or None.

    None exactly when u(S[A]) >= t(A) for every A ⊆ base(t), decided without
    enumerating subsets:

    - A source x of infinite weight needs an infinite sink in its image;
      when it has none, A = {x}.
    - A source whose image reaches an infinite sink satisfies every A that
      contains it, since then u(S[A]) is infinite; drop it.
    - The remaining sources have finite weight and images among u's finite
      sinks only.  On integers (`integer_weights`: multiset weights as
      they are, distribution masses over their common denominator, which
      hold no infinite mass), the condition on all their subsets A is
      Gale's supply-demand condition: by max-flow min-cut, it holds
      exactly when the flow from the sources (supplies t(x)) along S into
      the sinks (capacities u(y)) ships all of t's remaining weight, and
      otherwise A is the minimum cut's sources
      (`coalsim.transport.shortfall`).  The flow starts from
      the greedy fill, which is already maximal when any two sources' sink
      sets are equal or disjoint, as for images read off partition blocks;
      elsewhere a few augmenting paths finish it.  For distributions this
      is the Jonsson-Larsen simulation check by max-flow.
    """
    den, (tw, uw) = integer_weights(t, u)
    cut = _violator(tw, uw, img)
    if cut is None or den == 1:
        return cut
    a, ta, ub = cut
    return a, Fraction(ta, den), Fraction(ub, den)


def _violator(tw, uw, img) -> Optional[tuple]:
    """`hall_violator` on the integer rows tw and uw of t and u: (A, t(A), u(S[A])), or None."""
    room, supply = {y: w for y, w in uw.items() if w != INF}, tw
    if len(room) < len(uw) or INF in tw.values():
        unbounded = frozenset(uw.keys() - room.keys())
        supply = {}
        for x, w in tw.items():
            if not unbounded.isdisjoint(img[x]):
                continue
            if w == INF:
                return frozenset((x,)), INF, sum(v for y, v in room.items() if y in img[x])
            supply[x] = w
    if not supply:
        return None
    sinks = frozenset(room)
    cut = shortfall(supply, room, {x: sinks.intersection(img[x]) for x in supply})
    if cut is None:
        return None
    sources, short = cut  # the cut's capacity is what shipped: u(S[A]) = t(A) - short
    a = sum(map(supply.__getitem__, sources))
    return frozenset(sources), a, a - short


def _holds(t, u, img) -> bool:
    return True


def _value_mismatch(sig: LambdaSignature, t, u) -> KindMismatchError:
    return KindMismatchError(
        f"values of types {type(t).__name__} and {type(u).__name__} "
        f"do not match signature kind {sig.kind.name!r}"
    )


def lifting_check(sig: LambdaSignature):
    """The lifting condition at one pair for sig, as a predicate ok(t, u, img).

    The predicate is compiled once for the signature's kind, exact for
    every signature:

    - Kripke: the atoms of sig are one subset test, `<>` asks that each
      successor's image meet u's successors, and `[]` that each successor
      of u lie in some successor's image.
    - Multisets and distributions: a threshold can fail at a set A only
      where t(A) > u(S[A]); with no such set every threshold holds.
      `hall_violator` decides that by one maximum flow from a greedy fill,
      and otherwise returns the minimal minimum cut's sources as A.  That
      violator, with a = t(A) and b = u(S[A]), fails every threshold that
      a meets and b does not, and the signature's grid is asked whether it
      holds one (`ThresholdGrid.fails_cut`, two bisections, or none when
      L(a) is in a grid resolved on t's model by construction).  Only a
      signature holding none of them is searched (`_pair_ok_generic`).
    - Neighborhoods: each minimal set's image belongs to u.

    A signature without modalities always holds; otherwise values not of
    the signature's kind raise KindMismatchError.  COALSIM_MAX_BASE is
    validated here, once, whether or not the returned check ever reaches
    `exhaustive_base`.
    """
    _max_base()
    if not sig.modalities:
        return _holds
    kind = VALUE_TYPES[sig.kind.name]
    if kind is KripkeValue:
        atoms = frozenset(m.name for m in sig.modalities if m.op == "atom")
        diamond, box = DIAMOND in sig.modalities, BOX in sig.modalities

        def ok(t, u, img) -> bool:
            if not (isinstance(t, kind) and isinstance(u, kind)):
                raise _value_mismatch(sig, t, u)
            if not t.props & atoms <= u.props:
                return False
            if diamond:
                for xp in t.succ:
                    if img[xp].isdisjoint(u.succ):
                        return False
            if box:
                for yp in u.succ:
                    for xp in t.succ:
                        if yp in img[xp]:
                            break
                    else:
                        return False
            return True

    elif kind is NbhdValue:

        def ok(t, u, img) -> bool:
            if not (isinstance(t, kind) and isinstance(u, kind)):
                raise _value_mismatch(sig, t, u)
            return all(u.contains(_image(m, img)) for m in t.minimals)

    else:
        fails_cut = sig.modalities.fails_cut

        def ok(t, u, img) -> bool:
            if not (isinstance(t, kind) and isinstance(u, kind)):
                raise _value_mismatch(sig, t, u)
            # Read from the module at each call, where they can be replaced.
            cut = hall_violator(t, u, img)
            if cut is None:
                return True
            _, a, b = cut
            if fails_cut(t, a, b):
                return False
            return _pair_ok_generic(sig, t, u, img)

    return ok
