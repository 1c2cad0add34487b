"""Error hierarchy shared by the whole package.

Each failure is a subclass of `PiModuloError`, which the CLI maps to a
status and an exit code by class.  A failure carries optional detail
fields (source span, offending term, expected and actual forms) that
`str` prints when present.

A detail may be a `Deferred`: a function and its arguments, called the
first time the error's text is read.  The kernel raises its type errors
so, since showing a type means normalizing it, and most callers only
test the class.  Rendering can itself fail: showing a type runs on the
fuel of the check that failed, and may run out.  `settled()` renders
every detail once, in field order, and returns the error, or the
`FuelError` that rendering raised; the outcome is kept, and `str` of an
error whose rendering failed raises that failure again.  Whoever reports
an error takes its status and its text from `settled()`.  An error
pickles as its settled form, so a copy holds text, not a theory.
"""

from __future__ import annotations

from functools import partial


class Deferred(partial):
    """An error detail rendered when the error's text is first read."""

    __slots__ = ()


_DEFERRABLE = ("term", "expected", "actual")


class PiModuloError(Exception):
    _failure = None

    def __init__(self, message, *, span=None, term=None, expected=None, actual=None):
        super().__init__(message)
        self.message = message
        self.span = span
        self.term = term
        self.expected = expected
        self.actual = actual

    def settled(self) -> PiModuloError:
        """This error with its details rendered, or the error that
        rendering one of them raised."""
        if self._failure is None:
            try:
                for name in _DEFERRABLE:
                    value = getattr(self, name)
                    if isinstance(value, Deferred):
                        setattr(self, name, value())
            except PiModuloError as failure:
                self._failure = failure
        return self if self._failure is None else self._failure

    def __str__(self):
        if self.settled() is not self:
            raise self._failure
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

    def __reduce__(self):
        settled = self.settled()
        return super().__reduce__() if settled is self else settled.__reduce__()


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
