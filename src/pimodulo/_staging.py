"""The stage cache the finite models share.

`model_stt` and `model_cc` turn a term once into closures, one per node
(`terms.fold`), and keep what they made for each term object (`per_term`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

from .terms import Term


class _Same:
    """A term as a cache key compared by identity rather than by
    alpha-equivalence.  A term computes its hash only once, but its `==`
    still walks both terms, and it treats terms that differ only in binder
    hints as one; an identity key keeps those apart.  A key held by a cache
    keeps its term alive, so no other term can take its id."""

    __slots__ = ("term",)

    def __init__(self, term: Term):
        self.term = term

    def __hash__(self) -> int:
        return id(self.term)

    def __eq__(self, other) -> bool:
        return self.term is other.term


def per_term(fn: Callable[[Term], Any], maxsize: int) -> Callable[[Term], Any]:
    """fn(t), kept for the last `maxsize` term objects it ran on."""
    cached = lru_cache(maxsize=maxsize)(lambda key: fn(key.term))
    return lambda t: cached(_Same(t))
