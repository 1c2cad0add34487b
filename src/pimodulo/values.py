"""What the finite models share: set and element values, and the
interpretation clauses that do not depend on the theory.

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

A model of the calculus fixes how a sort, a variable, an application, an
abstraction and a product are interpreted; a theory supplies only its
constants.  So the staged clauses for those five nodes are built here,
once for both models (see the last section): a model adds the meanings
of its constants and the set each binder ranges over, which `model_stt`
fixes at stage time and `model_cc` reads under its outer valuation.
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


@dataclass(frozen=True)
class IPiDot1:
    """The algebra's pi at c, applied on demand (`apply_interp`): expects
    a finite function f with graph S -> B and yields pi(c, the set of f's
    outputs).  It is the meaning of `model_cc`'s pi codes at their first
    argument; `model_stt` tabulates the same map for `all[A]` instead."""
    c: int


ElemValue = AlgElem | EPoint | FiniteFun

E_POINT = EPoint()
# a carrier element, built once: the clauses below make one for every sort
# and product they evaluate, and a frozen dataclass is slow to build
_carrier_elem = lru_cache(maxsize=CONSTANT_CACHE_SIZE)(AlgElem)


# --- collapsing constructors ---------------------------------------------------

def fun_space(dom: SetValue, cod: SetValue) -> SetValue:
    if cod == SINGLETON_E:
        return SINGLETON_E
    return FunSpace(dom, cod)


def finite_fun(pairs) -> ElemValue:
    graph = frozenset(pairs)
    if graph and all(type(v) is EPoint for _, v in graph):
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


def apply_interp(f, a: ElemValue, alg: FiniteAlgebra) -> ElemValue:
    """Application in the interpretation, whose functions are tabulated
    except `IPiDot1`, the one value that reads `pi`."""
    if type(f) is not IPiDot1:
        return apply_elem(f, a)
    if not isinstance(a, FiniteFun):
        raise PiModuloError(f"a pi code needs a finite function argument, got {a!r}")
    outs = set()
    for _, out in a.graph:
        if not isinstance(out, AlgElem):
            raise PiModuloError(f"pi code body output off the carrier: {out!r}")
        outs.add(out.value)
    return _carrier_elem(alg.pi(f.c, alg.mask_of(outs)))


def as_carrier(v: ElemValue, what: str) -> int:
    if not isinstance(v, AlgElem):
        raise PiModuloError(f"{what} did not land in the carrier: {v!r}")
    return v.value


# --- enumeration ---------------------------------------------------------------

def cardinality(s: SetValue, n: int) -> int | None:
    """Number of elements over a carrier of n elements, or None when the
    set cannot be enumerated."""
    return _count(s, n, None)


def _count(s: SetValue, n: int, cap: int | None) -> int | None:
    """`cardinality`, but when a cap is given every size over it counts as
    cap + 1: a nested function space's exact size can run to millions of
    digits."""
    match s:
        case Carrier():
            size = n
        case SingletonE():
            return 1
        case EUniverse():
            return None
        case FunSpace(dom, cod):
            d = _count(dom, n, cap)
            c = _count(cod, n, cap)
            if d is None or c is None:
                return None
            if cap is not None and c > 1 and d > cap.bit_length():
                return cap + 1  # c**d >= 2**d > cap
            size = c**d
        case _:
            raise PiModuloError(f"unknown set {s!r}")
    return size if cap is None else min(size, cap + 1)


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
    size = _count(s, n, cap)
    if size is None:
        raise UnenumerableUnion(f"cannot list the elements of {s!r}")
    if size > cap:
        raise SizeLimitExceeded(f"set has more than {cap} elements, the cap")
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


# --- the shared interpretation clauses -------------------------------------
#
# Both models stage a term once into a closure ev(phi, psi, alg, cap,
# phi_env, psi_env) for its interpretation; phi values the free variables,
# phi_env the bound ones, innermost last.  psi and psi_env are
# `model_cc`'s outer valuation and its binder environment, which the
# three-layer model reads for the set a binder ranges over; `model_stt`
# passes None and an environment it never reads.  The clauses for a sort,
# a variable, an application, an abstraction and a product are the same
# in every model and are built here.  A model supplies its constants and,
# for each binder, binder(psi, psi_env): the set its variable ranges over,
# and psi_env under the binder.


def ev_top(phi, psi, alg, cap, phi_env, psi_env):
    return _carrier_elem(alg.top)


def ev_bound(index: int):
    i = -1 - index

    def ev(phi, psi, alg, cap, phi_env, psi_env):
        return phi_env[i]

    return ev


def ev_free(x: str):
    def ev(phi, psi, alg, cap, phi_env, psi_env):
        if x not in phi:
            raise PiModuloError(f"valuation has no value for {x}")
        return phi[x]

    return ev


def ev_app(ev_fn, ev_arg):
    def ev(phi, psi, alg, cap, phi_env, psi_env):
        f_val = ev_fn(phi, psi, alg, cap, phi_env, psi_env)
        if type(f_val) is EPoint:
            return E_POINT
        arg = ev_arg(phi, psi, alg, cap, phi_env, psi_env)
        # the common case, a function already indexed, without a call
        out = f_val._index.get(arg) if type(f_val) is FiniteFun and f_val._index else None
        return apply_interp(f_val, arg, alg) if out is None else out

    return ev


def ev_lam(binder, ev_body):
    def ev(phi, psi, alg, cap, phi_env, psi_env):
        binder_set, inner = binder(psi, psi_env)
        return finite_fun([(c, ev_body(phi, psi, alg, cap, phi_env + [c], inner))
                           for c in listing(binder_set, alg.n, cap)])

    return ev


def ev_pi(ev_dom, binder, ev_cod):
    def ev(phi, psi, alg, cap, phi_env, psi_env):
        w_dom = as_carrier(ev_dom(phi, psi, alg, cap, phi_env, psi_env), "product domain")
        binder_set, inner = binder(psi, psi_env)
        outs = {as_carrier(ev_cod(phi, psi, alg, cap, phi_env + [c], inner), "product codomain")
                for c in listing(binder_set, alg.n, cap)}
        return _carrier_elem(alg.pi(w_dom, alg.mask_of(outs)))

    return ev


def fixed(value):
    """A closure of (psi, env) that returns value whatever they are: a
    binder fixed at stage time, or a constant's middle-layer value."""
    def read(psi, env):
        return value

    return read
