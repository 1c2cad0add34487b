"""Reference traversals: the recursive `pimodulo.terms` functions as they
were before every traversal moved onto one explicit-stack walk and rebuild,
and the term classes as plain dataclasses, whose generated `__hash__` pins
the value of the package's cached one.

Each recurses once per node, so it overflows the stack on deep terms, but
its sharing is plain to read: `shift` and `instantiate` return a subterm
their indices cannot reach as the same object, and `close_binder` and
`substitute_many` rebuild every binder and application.  The property
tests hold the package's traversals to these, output and sharing alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from pimodulo.terms import App, Const, FVar, Lam, Pi, SortKind, SortType, Term, Var, loose_bound


@dataclass(frozen=True)
class PlainVar:
    index: int
    span: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class PlainFVar:
    name: str
    span: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class PlainConst:
    name: str
    span: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class PlainSortType:
    span: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class PlainSortKind:
    span: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class PlainPi:
    hint: str = field(compare=False)
    domain: Any
    codomain: Any
    span: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class PlainLam:
    hint: str = field(compare=False)
    annotation: Any
    body: Any
    span: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class PlainApp:
    fn: Any
    arg: Any
    span: Any = field(default=None, compare=False)


def plain(t: Term) -> Any:
    """t rebuilt from the plain dataclasses."""
    match t:
        case Var(i):
            return PlainVar(i)
        case FVar(x):
            return PlainFVar(x)
        case Const(c):
            return PlainConst(c)
        case SortType():
            return PlainSortType()
        case SortKind():
            return PlainSortKind()
        case Pi(h, a, b):
            return PlainPi(h, plain(a), plain(b))
        case Lam(h, a, b):
            return PlainLam(h, plain(a), plain(b))
        case App(f, a):
            return PlainApp(plain(f), plain(a))


def term_size(t: Term) -> int:
    match t:
        case Pi(_, a, b) | Lam(_, a, b):
            return 1 + term_size(a) + term_size(b)
        case App(f, a):
            return 1 + term_size(f) + term_size(a)
        case _:
            return 1


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every bound index >= cutoff (indices escaping the term)."""
    if by == 0 or loose_bound(t) <= cutoff:
        return t
    match t:
        case Var(i):
            return Var(i + by)
        case Pi(h, a, b):
            return Pi(h, shift(a, by, cutoff), shift(b, by, cutoff + 1))
        case Lam(h, a, b):
            return Lam(h, shift(a, by, cutoff), shift(b, by, cutoff + 1))
        case App(f, a):
            return App(shift(f, by, cutoff), shift(a, by, cutoff))


def instantiate(body: Term, u: Term) -> Term:
    """Replace the binder variable of an opened body (index 0) by u."""

    def go(t: Term, depth: int) -> Term:
        if loose_bound(t) <= depth:
            return t
        match t:
            case Var(i):
                return shift(u, depth) if i == depth else Var(i - 1)
            case Pi(h, a, b):
                return Pi(h, go(a, depth), go(b, depth + 1))
            case Lam(h, a, b):
                return Lam(h, go(a, depth), go(b, depth + 1))
            case App(f, a):
                return App(go(f, depth), go(a, depth))

    return go(body, 0)


def close_binder(t: Term, name: str) -> Term:
    """Abstract the free variable `name` back into binder index 0."""

    def go(u: Term, depth: int) -> Term:
        match u:
            case FVar(n):
                return Var(depth) if n == name else u
            case Var(i):
                return Var(i + 1) if i >= depth else u
            case Pi(h, a, b):
                return Pi(h, go(a, depth), go(b, depth + 1))
            case Lam(h, a, b):
                return Lam(h, go(a, depth), go(b, depth + 1))
            case App(f, a):
                return App(go(f, depth), go(a, depth))
            case _:
                return u

    return go(t, 0)


def substitute_many(t: Term, subst: dict[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of free variables."""

    def go(term: Term, depth: int) -> Term:
        match term:
            case FVar(n):
                if n in subst:
                    return shift(subst[n], depth)
                return term
            case Pi(h, a, b):
                return Pi(h, go(a, depth), go(b, depth + 1))
            case Lam(h, a, b):
                return Lam(h, go(a, depth), go(b, depth + 1))
            case App(f, a):
                return App(go(f, depth), go(a, depth))
            case _:
                return term

    return go(t, 0)


def uses_bound(t: Term, index: int = 0) -> bool:
    """Does t mention the bound variable with the given outward index?"""
    match t:
        case Var(i):
            return i == index
        case Pi(_, a, b) | Lam(_, a, b):
            return uses_bound(a, index) or uses_bound(b, index + 1)
        case App(f, a):
            return uses_bound(f, index) or uses_bound(a, index)
        case _:
            return False
