"""Modal operators interpreted over transition values.

Each modality is a monotone predicate lifting for its functor kind: `[]` and
`<>` over Kripke successors, nullary atoms over the proposition component,
`<k>` (strictly more than k successors counted with multiplicity) over
multisets, `L(p)` / `M(p)` (mass at least / more than p) over distributions,
and `[m]` (the tested set belongs to the system) over neighborhoods.

A signature is a functor kind and the finite list of modalities that
algorithmic quantifiers iterate over, nothing more.  For graded and
probabilistic kinds the list is a grid of thresholds; `resolve_signature`
builds grids that cover every threshold the given models can realize.
Whether a signature separates the values of some models is derived from its
modalities (`ensure_separating`).

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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import ceil, floor, gcd
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
MAX_GRADED_INDEX = 100_000  # largest index of a graded grid; about 0.2 s to build
MAX_PROB_GRID = 50_000  # most masses of a probability grid; a call at the limit takes about 1 s


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


def _threshold(t: FunctorValue, m: Modality) -> tuple:
    """(strict, bound) of a weighted modality: a value satisfies m at A when
    its mass at A exceeds the bound or, if not `strict`, reaches it."""
    if isinstance(t, MultisetValue) and m.op == "diamond_gt":
        return True, m.index
    if isinstance(t, DistValue) and m.op in ("at_least", "more_than"):
        return m.op == "more_than", m.bound
    raise _mismatch(t, m)


def satisfies(t: FunctorValue, m: Modality, states) -> bool:
    """Does the value satisfy the modality applied to the given state set?"""
    if isinstance(t, KripkeValue):
        if m.op == "box":
            return t.succ <= frozenset(states)
        if m.op == "diamond":
            return bool(t.succ & frozenset(states))
        if m.op == "atom":
            return m.name in t.props
    elif isinstance(t, (MultisetValue, DistValue)):
        strict, bound = _threshold(t, m)
        mass = measure(t, states)
        return mass > bound if strict else mass >= bound
    elif isinstance(t, NbhdValue):
        if m.op == "nbhd_box":
            return t.contains(states)
    raise _mismatch(t, m)


@dataclass(frozen=True)
class LambdaSignature:
    """Functor kind plus the finite modality list algorithms quantify over."""

    kind: FunctorKind
    modalities: tuple

    def __post_init__(self):
        for m in self.modalities:
            if modality_kind(m) != self.kind.name:
                raise KindMismatchError(
                    f"modality {m.token()!r} does not apply to kind {self.kind.name!r}"
                )
            if m.op == "atom" and m.name not in self.kind.atoms:
                raise ValidationError(f"atom {m.name!r} is not in the vocabulary")

    @cached_property
    def _thresholds(self) -> frozenset:
        """(operator, index or bound) of each modality, read by the weighted pair check."""
        return frozenset((m.op, m.bound if m.index is None else m.index) for m in self.modalities)


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
    Grid-style signatures are resolved against the models they will be used
    on, so the grid provably covers every relevant threshold.  A graded grid
    past index MAX_GRADED_INDEX, given or resolved, raises BudgetError.
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
        mods = map(diamond_gt, range(bound + 1))
    elif family == "prob":
        if spec != "auto-grid":
            raise ValidationError(f"malformed probabilistic signature {shown(literal)}")
        mods = map(at_least, prob_grid(models))
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
    `graded_bound`, each subset mass of `_subset_sums`, reduced to lowest
    terms and compared with the grid's bounds as integer pairs, so no
    sorted grid of fractions is built.
    """
    if sig.kind.name == KRIPKE:
        if BOX not in sig.modalities and DIAMOND not in sig.modalities:
            return "kripke signature needs [] or <>"
        missing = [p for p in sig.kind.atoms if atom(p) not in sig.modalities]
        if missing:
            return f"kripke signature misses atoms {shown(missing)}"
    if sig.kind.name == NEIGHBORHOOD and not sig.modalities:
        return "neighborhood signature needs [m]"
    if sig.kind.name == MULTISET:
        have = {m.index for m in sig.modalities}
        need = graded_bound(models)
        gap = min(set(range(len(have) + 1)) - have)  # least index not in the grid
        if gap <= need:
            return f"graded grid misses index {gap}; weights reach {need}"
    if sig.kind.name == DISTRIBUTION:
        den, sums = _subset_sums(models)
        have = {(m.bound.numerator, m.bound.denominator) for m in sig.modalities}
        missing = sorted(s for s in sums if (s // gcd(s, den), den // gcd(s, den)) not in have)
        if missing:
            masses = [as_text(Fraction(s, den)) for s in missing]
            return clipped(f"probability grid misses realized masses {masses}")
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
    if isinstance(t, (MultisetValue, DistValue)):
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
    where t(A) > u(S[A]); the table (`_deficits`) keeps those sets, and each
    modality, in signature order, scans them.  The sets are built only for
    the failures yielded.  Beyond COALSIM_MAX_BASE the minimum cut A* of
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
    for m in sig.modalities:
        strict, bound = _threshold(t, m)
        # m holds of an integer mass v exactly when v > level.
        level = floor(bound * den) if strict else ceil(bound * den) - 1
        for a, ta, ub in table:
            if ub <= level < ta:
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
      violator, with a = t(A) and b = u(S[A]), fails <b>, L(a) and M(b); a
      grid resolved on the models holds one of them, and only a grid
      holding none is searched (`_pair_ok_generic`).
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
        thresholds = sig._thresholds

        def ok(t, u, img) -> bool:
            if not (isinstance(t, kind) and isinstance(u, kind)):
                raise _value_mismatch(sig, t, u)
            # Read from the module at each call, where they can be replaced.
            cut = hall_violator(t, u, img)
            if cut is None:
                return True
            _, a, b = cut
            if not thresholds.isdisjoint((("diamond_gt", b), ("at_least", a), ("more_than", b))):
                return False
            return _pair_ok_generic(sig, t, u, img)

    return ok
