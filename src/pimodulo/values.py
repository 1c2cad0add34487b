"""Set and element values shared by the finite models.

Both models give every term a set (its domain) and an element of it.
Sets are the algebra's carrier B, the one-point set {e}, the universe E
of sets (handled symbolically, never enumerated) and function spaces.
Elements are carrier elements, the point e and finite functions given by
their graphs.  The collapse convention identifies a function space into
{e} with {e}, and a function all of whose outputs are e with the point e;
the constructors below apply it, so structural equality of tabulated
values is extensional equality.

Enumeration depends only on the carrier's size, so listings are cached
by set, carrier size and cap, shared by every algebra of that size and by
both models; keying by the cap keeps a call's verdict (a listing or
SizeLimitExceeded) independent of earlier calls, and an error is never
cached.  A cached listing is shared: callers must not change it.  The
models' enumerators cache their lists of valuations the same way, by
context, carrier size and cap, and there the rule is enforced for each
valuation: it is a `Valuation`, which cannot be changed.

A finite function is applied by index: its first application builds a
dict from its graph, kept on the value but outside its fields, so
equality, hashing, `repr` and pickles see only the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

from ._staging import CONSTANT_CACHE_SIZE, Valuation
from .algebra import FiniteAlgebra
from .errors import PiModuloError, SizeLimitExceeded, UnenumerableUnion

DEFAULT_CAP = 10**6
# Listings kept at once.  A sweep meets few distinct sets (25 in the
# benchmark's model-sweep, seed 0), so this keeps all of them while a long
# run cannot hold every listing it ever made.
ENUMERATION_CACHE_SIZE = 256
# Valuation lists kept at once by each of the models' enumerators.  The
# benchmark's model-sweep, seed 0, meets 52 (10 for stt, 6 and 36 for the
# cc outer and inner valuations).
VALUATION_CACHE_SIZE = 256


# --- sets ------------------------------------------------------------------

@dataclass(frozen=True)
class Carrier:
    pass


@dataclass(frozen=True)
class SingletonE:
    pass


@dataclass(frozen=True)
class EUniverse:
    pass


@dataclass(frozen=True)
class FunSpace:
    dom: "SetValue"
    cod: "SetValue"


SetValue = Carrier | SingletonE | EUniverse | FunSpace

CARRIER = Carrier()
SINGLETON_E = SingletonE()
E_UNIVERSE = EUniverse()


# --- elements ----------------------------------------------------------------

@dataclass(frozen=True)
class AlgElem:
    value: int


@dataclass(frozen=True)
class EPoint:
    pass


def _unindexed_state(f: "FiniteFun") -> dict:
    # the index is rebuilt on demand, so a pickled function leaves it behind
    return {k: v for k, v in vars(f).items() if k != "_index"}


@dataclass(frozen=True)
class FiniteFun:
    graph: frozenset  # of (element, element) pairs, total over a domain
    _index = None  # key -> value, built by the first `apply_elem`
    __getstate__ = _unindexed_state


ElemValue = AlgElem | EPoint | FiniteFun

E_POINT = EPoint()


# --- collapsing constructors ---------------------------------------------------

def fun_space(dom: SetValue, cod: SetValue) -> SetValue:
    if cod == SINGLETON_E:
        return SINGLETON_E
    return FunSpace(dom, cod)


def finite_fun(pairs) -> ElemValue:
    graph = frozenset(pairs)
    if graph and all(v == E_POINT for _, v in graph):
        return E_POINT
    return FiniteFun(graph)


@lru_cache(maxsize=CONSTANT_CACHE_SIZE)
def carrier_identity(n: int) -> ElemValue:
    """The identity on a carrier of n elements."""
    return finite_fun((AlgElem(w), AlgElem(w)) for w in range(n))


def apply_elem(f: ElemValue, a: ElemValue) -> ElemValue:
    if isinstance(f, FiniteFun):
        index = f._index
        if index is None:
            index = dict(f.graph)
            object.__setattr__(f, "_index", index)
        v = index.get(a)
        if v is None:
            raise PiModuloError(f"applied a finite function outside its domain: {a!r}")
        return v
    if isinstance(f, EPoint):
        return E_POINT
    raise PiModuloError(f"applied a non-function value {f!r}")


def as_carrier(v: ElemValue, what: str) -> int:
    if not isinstance(v, AlgElem):
        raise PiModuloError(f"{what} did not land in the carrier: {v!r}")
    return v.value


# --- enumeration ---------------------------------------------------------------

def cardinality(s: SetValue, n: int) -> int | None:
    """Number of elements over a carrier of n elements, or None when the
    set cannot be enumerated."""
    match s:
        case Carrier():
            return n
        case SingletonE():
            return 1
        case EUniverse():
            return None
        case FunSpace(dom, cod):
            d = cardinality(dom, n)
            c = cardinality(cod, n)
            if d is None or c is None:
                return None
            return c**d
    raise PiModuloError(f"unknown set {s!r}")


def enumerable(s: SetValue) -> bool:
    """Can s be listed?  Only E makes a set unlistable, whatever the
    carrier's size."""
    return cardinality(s, 1) is not None


def enumerate_set(s: SetValue, alg: FiniteAlgebra, cap: int = DEFAULT_CAP) -> list:
    """Complete, duplicate-free listing of a set's elements, in a fixed order."""
    return listing(s, alg.n, cap)


@lru_cache(maxsize=ENUMERATION_CACHE_SIZE)
def listing(s: SetValue, n: int, cap: int) -> list:
    """`enumerate_set` over a carrier of n elements, for callers that
    know the carrier's size but not the algebra."""
    size = cardinality(s, n)
    if size is None:
        raise UnenumerableUnion(f"cannot list the elements of {s!r}")
    if size > cap:
        raise SizeLimitExceeded(f"set has {size} elements, over the cap {cap}")
    match s:
        case Carrier():
            return [AlgElem(w) for w in range(n)]
        case SingletonE():
            return [E_POINT]
        case FunSpace(dom, cod):
            keys = listing(dom, n, cap)
            vals = listing(cod, n, cap)
            return [finite_fun(zip(keys, choice)) for choice in product(vals, repeat=len(keys))]
    raise PiModuloError(f"unknown set {s!r}")


def valuations(ctx, pools: list, cap: int) -> list[Valuation]:
    """Every choice of one element per pool, keyed by the names of the
    context's variables in turn; SizeLimitExceeded when there are more
    than `cap` choices."""
    total = prod(len(pool) for pool in pools)
    if total > cap:
        raise SizeLimitExceeded(f"{total} valuations is over the cap {cap}")
    names = [name for name, _ in ctx]
    return [Valuation(zip(names, combo)) for combo in product(*pools)]
