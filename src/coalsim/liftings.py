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
decides it at one pair, exactly for every signature, and
`lifting_violations` lists the failures for reports.  It is also the one
place the engine enumerates subsets: `subsets`, behind the gate
`exhaustive_base`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import islice
from math import lcm
from typing import Iterator, Optional, Sequence

from .errors import BudgetError, KindMismatchError, NotSeparatingError, ValidationError, shown
from .transport import ship
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
    base,
    measure,
    state_key,
)

DEFAULT_MAX_BASE = 16


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
            return f"L({self.bound})"
        if self.op == "more_than":
            return f"M({self.bound})"
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


def satisfies(t: FunctorValue, m: Modality, states) -> bool:
    """Does the value satisfy the modality applied to the given state set?"""
    if isinstance(t, KripkeValue):
        if m.op == "box":
            return t.succ <= frozenset(states)
        if m.op == "diamond":
            return bool(t.succ & frozenset(states))
        if m.op == "atom":
            return m.name in t.props
    elif isinstance(t, MultisetValue):
        if m.op == "diamond_gt":
            return measure(t, states) > m.index
    elif isinstance(t, DistValue):
        if m.op == "at_least":
            return measure(t, states) >= m.bound
        if m.op == "more_than":
            return measure(t, states) > m.bound
    elif isinstance(t, NbhdValue):
        if m.op == "nbhd_box":
            return t.contains(states)
    raise KindMismatchError(
        f"modality {m.token()!r} is not interpretable over {type(t).__name__}"
    )


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


def prob_grid(models: Sequence[Coalgebra]) -> tuple:
    """All subset masses realized by any distribution of the models, sorted.

    Each value's distinct subset masses are collected entry by entry, as
    integer multiples of the common denominator of its masses, so the cost
    is bounded by support size times grid size, not by 2^support.
    """
    grid = {Fraction(0), Fraction(1)}
    for c in models:
        for t in c.transition.values():
            den = lcm(*(q.denominator for _, q in t.entries))
            sums = {0}
            for _, q in t.entries:
                w = q.numerator * (den // q.denominator)
                sums |= {s + w for s in sums}
            grid.update(Fraction(s, den) for s in sums)
    return tuple(sorted(grid))


_FAMILY_KINDS = {"kripke": KRIPKE, "graded": MULTISET, "prob": DISTRIBUTION, "nbhd": NEIGHBORHOOD}


def resolve_signature(literal: str, models: Sequence[Coalgebra]) -> LambdaSignature:
    """Build a signature from a literal like "kripke:box,diamond,atoms".

    Supported literals: "kripke:<parts>" with parts among box, diamond,
    atoms; "graded:0..K" and "graded:auto"; "prob:auto-grid"; "nbhd:box".
    Grid-style signatures are resolved against the models they will be used
    on, so the grid provably covers every relevant threshold.
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
                bound = int(spec[3:])
            except ValueError as exc:
                raise ValidationError(f"malformed signature literal {shown(literal)}: {exc}") from exc
        else:
            raise ValidationError(f"malformed graded signature {shown(literal)}")
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
    `graded_bound`, each mass of `prob_grid`.
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
        have = {m.bound for m in sig.modalities}
        missing = [p for p in prob_grid(models) if p not in have]
        if missing:
            return f"probability grid misses realized masses {[str(p) for p in missing]}"
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

    The one quantification over observations (modality m, set A): a nullary
    modality observes only the empty set, any other each subset of base(t)
    (gated by `exhaustive_base`), streamed per modality, in `subsets` order.
    """
    items = exhaustive_base(base(t), "value base")
    for m in sig.modalities:
        for a in (frozenset(),) if m.nullary else subsets(items):
            if satisfies(t, m, a) and not satisfies(u, m, _image(a, img)):
                yield m, a


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
      sinks only.  Scaled by the common denominator, the condition on all
      their subsets A is Gale's supply-demand condition: by max-flow
      min-cut, it holds exactly when the flow from the sources (supplies
      t(x)) along S into the sinks (capacities u(y)) ships all of t's
      remaining weight, and otherwise A is the minimum cut's sources
      (`coalsim.transport.ship`).  For distributions this is the
      Jonsson-Larsen simulation check by max-flow.
    """
    unbounded = frozenset(y for y, w in u.entries if w == INF)
    supply = {}
    for x, w in t.entries:
        if img[x] & unbounded:
            continue
        if w == INF:
            return frozenset((x,)), INF, sum(v for y, v in u.entries if y in img[x])
        supply[x] = w
    if not supply:
        return None
    room = {y: w for y, w in u.entries if w != INF}
    den = lcm(*(w.denominator for w in supply.values()), *(w.denominator for w in room.values()))
    supply = {x: int(w * den) for x, w in supply.items()}
    room = {y: int(w * den) for y, w in room.items()}
    _, cut = ship(supply, room, [(x, y) for x in supply for y in room if y in img[x]])
    if cut is None:
        return None
    sources, short = cut  # the cut's capacity is what shipped: u(S[A]) = t(A) - short
    a = sum(map(supply.get, sources))
    if den != 1:
        a, short = Fraction(a, den), Fraction(short, den)
    return frozenset(sources), a, a - short


def _pair_ok(sig, t, u, img) -> bool:
    """The lifting condition at one pair, exact for every signature.

    Kripke and neighborhood modalities are checked directly.  A weighted
    threshold can fail at a set A only where t(A) > u(S[A]); with no such set
    (`hall_violator`) every threshold holds.  Otherwise the violator A, with
    a = t(A) and b = u(S[A]), fails <b>, L(a) and M(b); a grid resolved on
    the models holds one of them, and only a grid holding none is searched.
    """
    if not sig.modalities:
        return True
    if isinstance(t, KripkeValue):
        for m in sig.modalities:
            if m.op == "atom":
                if m.name in t.props and m.name not in u.props:
                    return False
            elif m.op == "diamond":
                for xp in t.succ:
                    if not img[xp] & u.succ:
                        return False
            elif m.op == "box":
                for yp in u.succ:
                    if not any(yp in img[xp] for xp in t.succ):
                        return False
        return True
    if isinstance(t, (MultisetValue, DistValue)):
        cut = hall_violator(t, u, img)
        if cut is None:
            return True
        _, a, b = cut
        if not sig._thresholds.isdisjoint((("diamond_gt", b), ("at_least", a), ("more_than", b))):
            return False
        return _pair_ok_generic(sig, t, u, img)
    if isinstance(t, NbhdValue):
        return all(u.contains(_image(m, img)) for m in t.minimals)
    raise KindMismatchError(f"unsupported value type {type(t).__name__}")


def lifting_check(sig: LambdaSignature):
    """The lifting condition at one pair for sig, as a predicate ok(t, u, img).

    COALSIM_MAX_BASE is validated here, once, whether or not the returned
    check ever reaches `exhaustive_base`.
    """
    _max_base()
    return partial(_pair_ok, sig)
