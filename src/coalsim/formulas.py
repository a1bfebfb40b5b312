"""Formula AST, concrete syntax, and truth evaluation.

Grammar (ASCII, loosest to tightest): `f -> g`, `f | g`, `f & g`, then the
unary operators `~f`, `[] f`, `<> f`, `<k> f`, `L(n/d) f`, `M(n/d) f`,
`[m] f`, and finally `true`, `false`, bare identifiers (atoms), and
parentheses.  Implication is syntactic sugar and is expanded at parse time;
`false` and `|` are kept as explicit nodes so that positivity stays a purely
syntactic property.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import KindMismatchError, ParseError, UnknownModalityError, ValidationError, clipped, shown
from .liftings import (
    BOX,
    DIAMOND,
    NBHD_BOX,
    LambdaSignature,
    Modality,
    at_least,
    atom,
    diamond_gt,
    modality_kind,
    more_than,
    satisfies,
)
from .values import KRIPKE, Coalgebra


class Formula:
    pass


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Neg(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Modal(Formula):
    modality: Modality
    child: Optional[Formula]

    def __post_init__(self):
        if self.modality.nullary != (self.child is None):
            raise ValidationError(
                f"modality {self.modality.token()!r} is "
                f"{'nullary' if self.modality.nullary else 'unary'}"
            )


TOP = Top()
BOT = Bot()


def rank(f: Formula) -> int:
    """Deepest nesting of modal operators; atoms count as one modal step."""
    if isinstance(f, (Top, Bot)):
        return 0
    if isinstance(f, Neg):
        return rank(f.child)
    if isinstance(f, (And, Or)):
        return max(rank(f.left), rank(f.right))
    if isinstance(f, Modal):
        return 1 if f.child is None else 1 + rank(f.child)
    raise TypeError(f"not a formula: {f!r}")


def is_positive(f: Formula) -> bool:
    """True when no negation occurs anywhere in the tree."""
    if isinstance(f, Neg):
        return False
    if isinstance(f, (And, Or)):
        return is_positive(f.left) and is_positive(f.right)
    if isinstance(f, Modal) and f.child is not None:
        return is_positive(f.child)
    return True


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<arrow>->)
      | (?P<nbhd>\[m\])
      | (?P<box>\[\])
      | (?P<gdiamond><\d+>)
      | (?P<diamond><>)
      | (?P<punct>[()&|~])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)

_PREFIX = {"box": BOX, "diamond": DIAMOND, "nbhd": NBHD_BOX}
_RATIONAL_RE = re.compile(r"\s*(\d+)\s*(?:/\s*(\d+)\s*)?")

# Deepest nesting `parse_formula` accepts, both in the syntax tree's height
# and in parentheses, prefix operators and implications open at any point.
# Parsing and evaluation recurse per level; this keeps them far from
# Python's recursion limit.
MAX_FORMULA_DEPTH = 100


def _height(f: Formula) -> int:
    """Operators on the longest root-to-leaf path, found without recursion."""
    height, level = -1, [f]
    while level:
        height += 1
        level = [g for h in level for g in vars(h).values() if isinstance(g, Formula)]
    return height


class _Parser:
    def __init__(self, text: str, sig: LambdaSignature):
        self.text = text
        self.sig = sig
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        m = _TOKEN_RE.match(self.text, self.pos)
        return m

    def take(self, m):
        self.pos = m.end()
        return m

    def expect_char(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def nested(self, parse) -> Formula:
        """Run `parse` one level deeper, refusing to pass MAX_FORMULA_DEPTH."""
        if self.depth == MAX_FORMULA_DEPTH:
            self.error(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def natural(self, digits: str) -> int:
        try:
            return int(digits)
        except ValueError:  # Python refuses to convert more than 4300 digits
            self.error(f"number {digits[:12]}... has too many digits")

    def check_kind(self, modality, token, start):
        want = modality_kind(modality)
        if want != self.sig.kind.name:
            raise UnknownModalityError(token, start)
        return modality

    def parse(self) -> Formula:
        f = self.parse_implies()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        if _height(f) > MAX_FORMULA_DEPTH:
            self.error(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels")
        return f

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        m = self.peek()
        if m and m.lastgroup == "arrow":
            self.take(m)
            right = self.nested(self.parse_implies)
            return Or(Neg(left), right)
        return left

    def parse_or(self) -> Formula:
        f = self.parse_and()
        while True:
            m = self.peek()
            if m and m.lastgroup == "punct" and m.group("punct") == "|":
                self.take(m)
                f = Or(f, self.parse_and())
            else:
                return f

    def parse_and(self) -> Formula:
        f = self.parse_unary()
        while True:
            m = self.peek()
            if m and m.lastgroup == "punct" and m.group("punct") == "&":
                self.take(m)
                f = And(f, self.parse_unary())
            else:
                return f

    def parse_unary(self) -> Formula:
        self.skip_ws()
        start = self.pos
        m = self.peek()
        if m is None:
            self.error("expected a formula")
        kind = m.lastgroup
        if kind == "punct" and m.group("punct") == "~":
            self.take(m)
            return Neg(self.nested(self.parse_unary))
        if kind in ("box", "diamond", "nbhd", "gdiamond"):
            tok = m.group(kind)
            self.take(m)
            mod = _PREFIX[kind] if kind in _PREFIX else diamond_gt(self.natural(tok[1:-1]))
            mod = self.check_kind(mod, tok, start)
            return Modal(mod, self.nested(self.parse_unary))
        if kind == "ident" and m.group("ident") in ("L", "M"):
            after = self.text[m.end():m.end() + 1]
            if after == "(":
                letter = m.group("ident")
                self.take(m)
                self.pos += 1
                q = _RATIONAL_RE.match(self.text, self.pos)
                if not q:
                    self.error("expected a rational like 1/2")
                self.pos = q.end()
                num, den = self.natural(q.group(1)), self.natural(q.group(2) or "1")
                if den == 0:
                    self.error("probability index has denominator 0")
                value = Fraction(num, den)
                if not 0 <= value <= 1:
                    self.error(f"probability index {clipped(str(value))} is outside [0,1]")
                self.expect_char(")")
                mod = at_least(value) if letter == "L" else more_than(value)
                self.check_kind(mod, f"{letter}({value})", start)
                return Modal(mod, self.nested(self.parse_unary))
        return self.parse_primary()

    def parse_primary(self) -> Formula:
        self.skip_ws()
        start = self.pos
        m = self.peek()
        if m is None:
            self.error("expected a formula")
        if m.lastgroup == "punct" and m.group("punct") == "(":
            self.take(m)
            f = self.nested(self.parse_implies)
            self.expect_char(")")
            return f
        if m.lastgroup == "ident":
            name = m.group("ident")
            self.take(m)
            if name == "true":
                return TOP
            if name == "false":
                return BOT
            if self.sig.kind.name != KRIPKE or name not in self.sig.kind.atoms:
                raise UnknownModalityError(name, start)
            return Modal(atom(name), None)
        self.error(f"unexpected token {shown(m.group(0).strip())}")


def parse_formula(text: str, sig: LambdaSignature) -> Formula:
    """Parse concrete syntax against a signature's kind and atom vocabulary."""
    return _Parser(text, sig).parse()


_PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, (Neg, Modal)) and not (isinstance(f, Modal) and f.child is None):
        return _PREC_UNARY
    return _PREC_ATOM


def format_formula(f: Formula) -> str:
    """Canonical concrete syntax; parsing the result reproduces the tree."""
    def emit(g, level):
        text = _emit(g)
        if _prec(g) < level:
            return f"({text})"
        return text

    def _emit(g):
        if isinstance(g, Top):
            return "true"
        if isinstance(g, Bot):
            return "false"
        if isinstance(g, Neg):
            return "~" + emit(g.child, _PREC_UNARY)
        if isinstance(g, And):
            return f"{emit(g.left, _PREC_AND)} & {emit(g.right, _PREC_AND + 1)}"
        if isinstance(g, Or):
            return f"{emit(g.left, _PREC_OR)} | {emit(g.right, _PREC_OR + 1)}"
        if isinstance(g, Modal):
            if g.child is None:
                return g.modality.token()
            return f"{g.modality.token()} {emit(g.child, _PREC_UNARY)}"
        raise TypeError(f"not a formula: {g!r}")

    return _emit(f)


def extension(f: Formula, c: Coalgebra) -> frozenset:
    """All states of the model where the formula holds; computed bottom-up."""
    carrier = frozenset(c.carrier)
    if isinstance(f, Top):
        return carrier
    if isinstance(f, Bot):
        return frozenset()
    if isinstance(f, Neg):
        return carrier - extension(f.child, c)
    if isinstance(f, And):
        return extension(f.left, c) & extension(f.right, c)
    if isinstance(f, Or):
        return extension(f.left, c) | extension(f.right, c)
    if isinstance(f, Modal):
        if modality_kind(f.modality) != c.kind.name:
            raise KindMismatchError(
                f"modality {f.modality.token()!r} is not interpretable over "
                f"a {c.kind.name} model"
            )
        if f.modality.op == "atom" and f.modality.name not in c.kind.atoms:
            raise KindMismatchError(
                f"atom {f.modality.name!r} is not in the model vocabulary"
            )
        a = frozenset() if f.child is None else extension(f.child, c)
        return frozenset(
            x for x in c.carrier if satisfies(c.transition[x], f.modality, a)
        )
    raise TypeError(f"not a formula: {f!r}")


def evaluate(f: Formula, c: Coalgebra, x) -> bool:
    """Truth of the formula at one state."""
    if x not in c.transition:
        raise ValidationError(f"state {shown(x)} is not in the carrier")
    return x in extension(f, c)
