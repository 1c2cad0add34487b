"""The finite model of the simple-type-theory embedding.

The one-layer case of the model: every term gets a domain (a set) and,
once a valuation supplies values for its free variables, an
interpretation (an element).  Domains are the algebra's carrier B, the
one-point set {e}, or function spaces over them; the values, their
collapse convention and their enumeration live in `values`.  Evaluation is
staged: each term is turned once into a closure, which then runs on every
algebra and valuation (see below).  The clauses for sorts, variables,
applications, abstractions and products are the ones `values` shares
with `model_cc`; this module supplies the constants (`o`, `iota`, `eps`,
`imp` and each `all[A]`) and the set each binder ranges over, its
annotation's domain, fixed at stage time.
"""

from __future__ import annotations

from functools import lru_cache

from ._staging import CONSTANT_CACHE_SIZE, STAGE_CACHE_SIZE, last_item, per_term
from .algebra import FiniteAlgebra
from .errors import PiModuloError
from .syntax import parse_term
from .terms import (
    App,
    Context,
    FVar,
    Lam,
    Pi,
    SortKind,
    SortType,
    Term,
    Var,
    fold,
    substitute,
)
from .values import (
    CARRIER,
    DEFAULT_CAP,
    SINGLETON_E,
    VALUATION_CACHE_SIZE,
    AlgElem,
    ElemValue,
    SetValue,
    apply_elem,
    as_carrier,
    carrier_identity,
    ev_app,
    ev_bound,
    ev_free,
    ev_lam,
    ev_pi,
    ev_top,
    finite_fun,
    fixed,
    fun_space,
    listing,
    valuations,
)


# --- staged evaluation -----------------------------------------------------
#
# A term is staged once into its domain and a closure ev(phi, psi, alg,
# cap, phi_env, psi_env) for its interpretation, built from the clauses
# `values` shares with `model_cc`.  This model has no outer valuation, so
# psi is None and psi_env stays empty; it supplies its constants and, for
# each binder, the domain of its annotation, fixed at stage time.
# Everything that depends on the algebra, the cap or the valuation happens
# when the closure runs, in the order the model defines, so a failing
# evaluation raises the same error a walk of the term would.


def _stage_leaf(node: Term) -> tuple:
    cls = type(node)
    if cls is SortKind or cls is SortType:
        return CARRIER, ev_top
    if cls is Var:
        return SINGLETON_E, ev_bound(node.index)
    if cls is FVar:
        return SINGLETON_E, ev_free(node.name)
    name = node.name
    if name == "o" or name == "iota":
        ev = ev_top
    elif name == "eps":
        def ev(phi, psi, alg, cap, phi_env, psi_env):
            return carrier_identity(alg.n)
    elif name == "imp":
        def ev(phi, psi, alg, cap, phi_env, psi_env):
            return _imp(alg)
    elif name.startswith("all["):
        def ev(phi, psi, alg, cap, phi_env, psi_env):
            w_c = as_carrier(_quantifier(name)[1]({}, None, alg, cap, [], []), "quantifier domain")
            return _all_table(name, alg.n, cap, w_c, alg.pi_table[w_c])
    else:
        def ev(phi, psi, alg, cap, phi_env, psi_env):
            raise PiModuloError(f"constant {name} has no interpretation here")
    return (CARRIER if name == "o" else SINGLETON_E), ev


def _stage_app(node: App, fn: tuple, arg: tuple) -> tuple:
    return fn[0], ev_app(fn[1], arg[1])


def _stage_lam(node: Lam, ann: tuple, body: tuple) -> tuple:
    return body[0], ev_lam(fixed((ann[0], [])), body[1])


def _stage_pi(node: Pi, dom: tuple, cod: tuple) -> tuple:
    return fun_space(dom[0], cod[0]), ev_pi(dom[1], fixed((dom[0], [])), cod[1])


def _stage(t: Term) -> tuple:
    return fold(t, _stage_leaf, {App: _stage_app, Pi: _stage_pi, Lam: _stage_lam})


# The (domain, ev) of a term, kept by term object: a term's identity hashes
# in constant time, its structure node by node.
_staged = per_term(_stage, STAGE_CACHE_SIZE)


@lru_cache(maxsize=CONSTANT_CACHE_SIZE)
def _imp(alg: FiniteAlgebra) -> ElemValue:
    return finite_fun(
        (
            AlgElem(w),
            finite_fun((AlgElem(w2), AlgElem(alg.arrow(w, w2))) for w2 in range(alg.n)),
        )
        for w in range(alg.n)
    )


@lru_cache(maxsize=CONSTANT_CACHE_SIZE)
def _quantifier(name: str) -> tuple:
    """The staged quantifier domain of `all[A]`, parsed once per name.  A
    parse error is not cached, so it is raised by every evaluation."""
    return _stage(parse_term(name[len("all["):-1]))


@lru_cache(maxsize=CONSTANT_CACHE_SIZE)
def _all_table(name: str, n: int, cap: int, w_c: int, pi_row: tuple[int, ...]) -> ElemValue:
    """The value of `all[A]` over a carrier of n elements, where A has the
    value w_c and pi_row is the pi table's row of w_c: each predicate on A
    to pi(w_c, its image).  A has no free variable, so the valuation plays
    no part, and the algebra none beyond n and that row: algebras that
    share them share the table."""
    dom_set = _quantifier(name)[0]
    members = listing(dom_set, n, cap)
    pairs = []
    for f in listing(fun_space(dom_set, CARRIER), n, cap):
        mask = 0
        for c in members:
            mask |= 1 << as_carrier(apply_elem(f, c), "proposition body")
        pairs.append((f, AlgElem(pi_row[mask])))
    return finite_fun(pairs)


# --- domains and interpretation ---------------------------------------------

def domain_stt(t: Term) -> SetValue:
    """The domain of a term.  It does not depend on the algebra: the carrier
    stays symbolic inside SetValue."""
    return _staged(t)[0]


def interp_stt(
    t: Term,
    phi: dict[str, ElemValue],
    alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP,
) -> ElemValue:
    """Interpretation under a valuation; phi maps free variables to values."""
    return _staged(t)[1](phi, None, alg, cap, [], [])


# --- the lemma checks ------------------------------------------------------

# the substituted term is new on every item: staged once for all of the
# item's valuations (`last_item`), but not kept by term; this one-layer
# model has no outer valuation, so psi is always None
@last_item
def _staged_substitution(t: Term, x: str, u: Term, psi: None) -> tuple:
    return _stage(substitute(t, x, u))


def check_substitution_stt(
    t: Term, x: str, u: Term,
    phi: dict[str, ElemValue], alg: FiniteAlgebra, cap: int = DEFAULT_CAP,
) -> bool:
    direct = _staged_substitution(t, x, u)[1](phi, None, alg, cap, [], [])
    shifted = interp_stt(t, {**phi, x: interp_stt(u, phi, alg, cap)}, alg, cap)
    return direct == shifted


def check_conversion_stt(
    t: Term, u: Term,
    phi: dict[str, ElemValue], alg: FiniteAlgebra, cap: int = DEFAULT_CAP,
) -> bool:
    dom_t, ev_t = _staged(t)
    dom_u, ev_u = _staged(u)
    if dom_t != dom_u:
        return False
    return ev_t(phi, None, alg, cap, [], []) == ev_u(phi, None, alg, cap, [], [])


def enumerate_valuations(
    ctx: Context, alg: FiniteAlgebra, cap: int = DEFAULT_CAP,
) -> list[dict[str, ElemValue]]:
    """All valuations for a context; SizeLimitExceeded past the cap.  They
    read the algebra only for its carrier size, so the list is built once
    per context, size and cap and shared: callers must not change it."""
    return _valuations_over(ctx, alg.n, cap)


@lru_cache(maxsize=VALUATION_CACHE_SIZE)
def _valuations_over(ctx: Context, n: int, cap: int) -> list:
    return valuations(ctx, [listing(domain_stt(ty), n, cap) for _, ty in ctx], cap)
