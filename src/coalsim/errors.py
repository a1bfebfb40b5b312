"""Exception types shared across the package, and how their messages echo input."""

import sys

ECHO_LIMIT = 200  # the longest repr of an input value that a message echoes whole
PROBLEM_LIMIT = 10  # the most problems a ValidationError message lists


def clipped(text: str) -> str:
    """The text itself; past ECHO_LIMIT characters it is cut, and says so."""
    return text if len(text) <= ECHO_LIMIT else f"{text[:ECHO_LIMIT]}... ({len(text)} characters)"


def as_text(value, render=str) -> str:
    """render(value), the one path by which printed or echoed numbers become text: an
    int past Python's limit on digits (4300 by default) raises BudgetError, not ValueError."""
    try:
        return render(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise BudgetError(f"a number has more than {limit} digits, the most Python converts to text") from None


def shown(value) -> str:
    """The repr of an input value, `clipped`."""
    return clipped(as_text(value, repr))


class CoalsimError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(CoalsimError):
    """A model, relation, map, or configuration violates its invariants.

    `violations` keeps every problem; the message lists the first
    PROBLEM_LIMIT and counts the rest.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        message = "; ".join(self.violations[:PROBLEM_LIMIT])
        rest = len(self.violations) - PROBLEM_LIMIT
        if rest > 0:
            message += f"; ... and {rest} more problems"
        super().__init__(message)


class KindMismatchError(CoalsimError):
    """An operation mixed values, models, or modalities of different functor kinds."""


class ParseError(CoalsimError):
    """Formula text rejected; carries the offending position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownModalityError(ParseError):
    def __init__(self, token, position):
        self.token = token
        super().__init__(f"unknown modality {shown(token)}", position)


class BudgetError(CoalsimError):
    """An exhaustive enumeration bound, or another named size limit, was exceeded."""


class InfiniteWeightError(CoalsimError):
    """Coupling search does not accept multiset values with infinite weights."""


class NotSeparatingError(CoalsimError):
    """The requested decision needs a signature that separates values of the models."""


class QuotientUndefined(CoalsimError):
    """The joint quotient has no well-defined transition structure.

    Carries the offending block, as (left states, right states), and two of
    its members, each as (side, state) with side "left" or "right", whose
    relabeled transition values disagree; this certifies that the relation
    does not witness behavioural equivalence.
    """

    def __init__(self, block, member_a, value_a, member_b, value_b):
        self.block = block
        self.member_a = member_a
        self.value_a = value_a
        self.member_b = member_b
        self.value_b = value_b
        lefts, rights = block
        super().__init__(
            f"quotient transition ill-defined on block left={list(lefts)!r} "
            f"right={list(rights)!r}: {member_a[0]} state {member_a[1]!r} maps to "
            f"{value_a!r} but {member_b[0]} state {member_b[1]!r} maps to {value_b!r}"
        )


class InternalCheckError(CoalsimError):
    """A redundant internal cross-check failed; this signals a bug, not a property of the input."""
