"""Error hierarchy shared by the whole package.

Each failure is a subclass of `PiModuloError`, which the CLI maps to a
status and an exit code by class.  A failure carries optional detail
fields (source span, offending term, expected and actual forms) that
`str` prints when present.
"""

from __future__ import annotations


class PiModuloError(Exception):
    def __init__(self, message, *, span=None, term=None, expected=None, actual=None):
        super().__init__(message)
        self.message = message
        self.span = span
        self.term = term
        self.expected = expected
        self.actual = actual

    def __str__(self):
        parts = [self.message]
        if self.span is not None:
            parts.insert(0, f"{self.span}:")
        if self.term is not None:
            parts.append(f"term: {self.term}")
        if self.expected is not None:
            parts.append(f"expected: {self.expected}")
        if self.actual is not None:
            parts.append(f"actual: {self.actual}")
        return " ".join(parts)


class ParseError(PiModuloError):
    """Text that is not a term, judgement or theory."""


class UnboundVariable(PiModuloError):
    """A name that no context, signature or pattern declares."""


class NotAFunction(PiModuloError):
    """An application whose head's type is not a product."""


class DomainMismatch(PiModuloError):
    """An argument whose type does not convert to the domain."""


class IllegalSort(PiModuloError):
    """A sort where none may be, or a type that has no sort."""


class TypeMismatch(PiModuloError):
    """A term whose type does not convert to the expected one."""


class DuplicateName(PiModuloError):
    """A name declared twice in one signature or context."""


class NotBetaNormal(PiModuloError):
    """A side of a rewrite rule that is not beta-normal."""


class NonAlgebraicLhs(PiModuloError):
    """A rule lhs that is not a linear algebraic pattern."""


class FuelError(PiModuloError):
    """Raised when a typing-level operation runs out of reduction fuel."""


class SizeTooLargeForExhaustive(PiModuloError):
    """An exhaustive enumeration asked for past its reach."""


class SizeLimitExceeded(PiModuloError):
    """A set too large to list within the cap."""


class UnenumerableUnion(PiModuloError):
    """A semantic value over the symbolic universe E was demanded pointwise."""
