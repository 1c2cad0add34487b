"""The stage caches the finite models share.

`model_stt` and `model_cc` turn a term once into closures, one per node
(`terms.fold`), and keep what they made for each term object (`per_term`).

A lemma check runs once per valuation of an item, and a sweep runs all
of an item's valuations in a row, the inner valuations of the
three-layer model innermost.  What a check does before it reads the
inner valuation (staging its terms, the substituted term among them, and
evaluating the layers that read only the outer valuation) is kept for
the last item it ran on (`last_item`).
"""

from __future__ import annotations

from functools import lru_cache
from operator import is_
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


def last_item(fn: Callable[..., Any]) -> Callable[..., Any]:
    """fn(*args, psi), kept for its last call only.  The arguments (terms,
    names, the algebra, the cap) must be the same objects as that call's,
    and psi, an outer valuation or None, must equal that call's by value;
    a copy of psi is kept, so a caller that changes its dict in place
    cannot get a stale result.  A call that raises leaves the memo as it
    was, so a failing call raises afresh every time."""
    last = None  # (args, a copy of psi, result)

    def cached(*args, psi=None):
        nonlocal last
        if last is not None and all(map(is_, last[0], args)) and last[1] == psi:
            return last[2]
        result = fn(*args, psi)
        last = (args, None if psi is None else dict(psi), result)
        return result

    return cached
