"""The stage caches the finite models share.

Three memos, each for the checks that meet its keys again:

- `per_term`: `model_stt` and `model_cc` turn a term once into closures,
  one per node (`terms.fold`), and keep what they made for each term
  object.
- `last_item`: a substitution check runs once per valuation of an
  instance, and a sweep runs all of an instance's valuations in a row,
  the inner valuations of the three-layer model innermost.  What the
  check does before it reads the inner valuation (staging the substituted
  term, and in `model_cc` evaluating the layers that read only the outer
  valuation) is kept for the last instance it ran on.
- `by_table_reads`: a `model_cc` conversion verdict is kept across
  algebras, in the manner of a build system's verifying traces.  A check
  reads only a few entries of an algebra's table, and its verdict holds
  on every algebra of the same size that agrees on those entries.  The
  verdicts of an item and valuation are kept as a decision tree: each
  inner node is one read of `top` or of a `pi` entry and branches on the
  value read, and each leaf is a verdict.  A call walks the tree against
  its algebra.  Where no branch is kept for the value it reads, the check
  runs once on a view of the algebra that logs each `top` and `pi` read
  in order (`_Recorder`), and the logged path, ending in the verdict, is
  grafted onto the tree.  The tree is sound only if every read goes
  through that view.  Only the interpretation layer can read the table:
  a verdict that the N-set or middle layer decides logs no read, and sits
  at the tree's root.  A check that
  raises keeps nothing, so every error is raised afresh.  The `model_stt`
  checks are not kept this way: their per-algebra constants are cached
  by the algebra and by a whole table row, which would answer for reads
  the view never sees.

`per_term` and `by_table_reads` key a term by its identity (`id()`), not
by alpha-equivalence: a term hashes its structure only once, but its `==`
walks both terms and treats terms that differ only in binder hints as
one.  A kept entry holds the objects its key names, so no other object
can take their ids while it lives.  `by_table_reads` keys phi and psi the
same way: the enumerators hand out `Valuation`s, read-only dicts built
once per context and carrier size and reused on every algebra of that
size, so a sweep meets the very objects again.  Any other mapping is
checked directly, without the memo: a copy of it would be a new object on
every call, never met again.  `last_item` keys psi by value
(`valuation_key`), so a caller that changes its dict in place misses
rather than getting a stale result.
"""

from __future__ import annotations

from functools import lru_cache
from operator import is_
from typing import Any, Callable

from .terms import Term

# Staged terms kept at once.  A sweep evaluates each rule side and pair
# under every valuation and algebra, so its working set is a few dozen
# terms; a long run cannot hold every term it ever staged.
STAGE_CACHE_SIZE = 64
# Constants kept at once, by carrier size, algebra, name or set.  An algebra's
# constants are reused by every valuation of an item on it, and seldom
# after: the sweeps visit 513 algebras.
CONSTANT_CACHE_SIZE = 64


class Valuation(dict):
    """A valuation that cannot be changed, hashed once, from its items.
    Every mutator raises `TypeError`; `repr`, `==` and `{**v, x: w}`, which
    makes a plain dict, are a dict's."""

    __slots__ = ("_hash",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._hash = hash(frozenset(self.items()))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # pickle and copy would otherwise refill an empty one item by item
        return Valuation, (dict(self),)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a Valuation cannot be changed")

    __setitem__ = __delitem__ = __ior__ = _read_only
    update = pop = popitem = clear = setdefault = _read_only


def valuation_key(valuation):
    """A valuation (or None) as a key by value: a `Valuation` as it is, any
    other mapping as a read-only copy of its items."""
    if valuation is None or type(valuation) is Valuation:
        return valuation
    return Valuation(valuation)


def per_term(fn: Callable[[Term], Any], maxsize: int) -> Callable[[Term], Any]:
    """fn(t), kept for the last `maxsize` term objects it ran on.  A slot
    keyed by id(t) holds (fn(t), t); a call that raises leaves it empty."""
    slots = lru_cache(maxsize=maxsize)(lambda key: [])

    def cached(t: Term) -> Any:
        slot = slots(id(t))
        if not slot:
            slot += fn(t), t
        return slot[0]

    return cached


def last_item(fn: Callable[..., Any]) -> Callable[..., Any]:
    """fn(*args, psi), kept for its last call only.  The arguments (terms
    and names) must be the same objects as that call's, and psi, an outer
    valuation or None, must equal that call's by value (`valuation_key`:
    fn gets the key).  A call that raises leaves the memo as it was, so a
    failing call raises afresh every time.

    The substitution checks use it: the substituted term is new on every
    instance, so `per_term` would not find its stage again, and the
    `model_cc` middle layer, which reads psi but neither phi nor the
    algebra, is evaluated once per psi rather than once per phi and
    algebra."""
    last = None  # (args, psi's key, result)

    def cached(*args, psi=None):
        nonlocal last
        psi = valuation_key(psi)
        if last is not None and all(map(is_, last[0], args)) and last[1] == psi:
            return last[2]
        result = fn(*args, psi)
        last = (args, psi, result)
        return result

    return cached


class _Recorder:
    """An algebra whose `top` and `pi` reads are logged in the order of
    their first read, as read -> value: the read is None for `top` and
    (w, mask) for an entry.  A read made again is not logged again, since
    its value is already known.  The carrier size and `mask_of` read no
    table."""

    __slots__ = ("_alg", "n", "reads")

    def __init__(self, alg):
        self._alg = alg
        self.n = alg.n
        self.reads: dict = {}

    @property
    def top(self) -> int:
        return self.reads.setdefault(None, self._alg.top)

    def pi(self, w: int, mask: int) -> int:
        return self.reads.setdefault((w, mask), self._alg.pi(w, mask))

    def mask_of(self, elems) -> int:
        return self._alg.mask_of(elems)


class _Read(list):
    """An inner node of a verdict tree.  node[0] is the read it makes, as
    `_Recorder` logs it; node[1 + v] is what follows reading v: another
    node, a result, or `_MISSING` while no call has read v there."""

    __slots__ = ()


_MISSING = object()


def by_table_reads(maxsize: int) -> Callable:
    """A decorator: fn(t, u, phi, psi, alg, cap), kept for the last
    `maxsize` keys it ran on, and under each key as a tree of the algebra
    reads its results came from.  The key is t, u, phi and psi by identity,
    the carrier size and the cap; the key's root keeps the four objects
    alive.  A phi or psi that is not a `Valuation` is checked directly.  fn
    reads the algebra through a `_Recorder` and must return no `_Read`.  A
    call that raises keeps nothing."""

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        # a key's tree hangs from slot 0 of a list; slot 1 keeps its objects
        trees = lru_cache(maxsize=maxsize)(lambda *key: [_MISSING])

        def cached(t, u, phi, psi, alg, cap):
            if type(phi) is not Valuation or type(psi) is not Valuation:
                return fn(t, u, phi, psi, alg, cap)
            root = trees(id(t), id(u), id(phi), id(psi), alg.n, cap)
            if len(root) == 1:
                root.append((t, u, phi, psi))
            slots, i = root, 0
            while type(node := slots[i]) is _Read:
                read = node[0]
                slots, i = node, 1 + (alg.top if read is None else alg.pi(*read))
            if node is not _MISSING:
                return node
            recorder = _Recorder(alg)
            result = fn(t, u, phi, psi, recorder, cap)
            slots, i = root, 0
            for read, got in recorder.reads.items():
                if slots[i] is _MISSING:
                    slots[i] = _Read([read, *[_MISSING] * alg.n])
                slots, i = slots[i], 1 + got
            slots[i] = result
            return result

        return cached

    return decorate
