"""The finite model of the calculus-of-constructions embedding.

Three layers.  The outer domain family N assigns every term a set built
from E, {e}, and function spaces; E is the big universe of sets and is
never enumerated, only handled symbolically.  The middle family M is
valuation-indexed: M(t, psi) is an element of N at t's type, and may be
a set (elements of E are sets), the point e, or a function.  The inner
interpretation maps a term and two valuations (phi over M-values, psi
over N-values) to an element of M at the term's type; with a finite
algebra every interpretation-level value is finite except the shared
meaning of the four pi codes, which is kept symbolic and applied on
demand.  The sets and tabulated elements are the shared ones of `values`;
the symbolic elements below are this model's own.

Equality of values is extensional.  Finite sets and functions are
canonicalized to element sets and graphs; functions over unenumerable
domains are compared on a fixed finite probe menu, which can certify
difference but takes agreement on the menu as equality.  The collapse
conventions (a function space into {e} is {e}; a function whose outputs
are all e is e) are applied by the constructors of `values`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .algebra import FiniteAlgebra
from .errors import PiModuloError, SizeLimitExceeded, UnenumerableUnion
from .terms import (
    App,
    Const,
    Context,
    FVar,
    Lam,
    Pi,
    SortKind,
    SortType,
    Term,
    Var,
    substitute,
    uses_bound,
)
from .values import (
    CARRIER,
    DEFAULT_CAP,
    E_POINT,
    E_UNIVERSE,
    SINGLETON_E,
    AlgElem,
    Carrier,
    ElemValue,
    EPoint,
    EUniverse,
    ExplicitSet,
    FiniteFun,
    FunSpace,
    SetValue,
    SingletonE,
    apply_elem,
    as_carrier,
    cardinality,
    enumerate_set,
    explicit_set,
    finite_fun,
    fun_space,
)


# --- symbolic values ----------------------------------------------------------

@dataclass(frozen=True)
class SetElem:
    s: SetValue


@dataclass(frozen=True)
class MIdent:
    """The identity on E, applied symbolically."""


@dataclass(frozen=True)
class MPiKKK:
    """Maps a set a in E to the set-to-set function below."""


@dataclass(frozen=True)
class MPiKKK1:
    a: "UniverseElem"


@dataclass(frozen=True)
class MPiTKK1:
    """Maps h : {e} -> E to the set of functions {e} -> (h e)."""


@dataclass(frozen=True)
class MConstFun:
    """A constant function over a domain too big to tabulate."""
    dom: SetValue
    value: "UniverseElem"


@dataclass(frozen=True)
class MClosure:
    """A function over an unenumerable domain, kept as an unevaluated body."""
    body: Term
    env: tuple
    psi: tuple  # sorted (name, value) pairs
    dom: SetValue


@dataclass(frozen=True)
class IPiDot1:
    """The four pi codes' shared meaning, applied to its first argument:
    expects a finite function f with graph S -> B and yields
    pi(c, the set of f's outputs)."""
    c: int


UniverseElem = (
    ElemValue | SetElem
    | MIdent | MPiKKK | MPiKKK1 | MPiTKK1 | MConstFun | MClosure | IPiDot1
)

M_IDENT = MIdent()


def as_set(v: UniverseElem, what: str = "value") -> SetValue:
    if isinstance(v, SetElem):
        return v.s
    raise PiModuloError(f"{what} is not a set: {v!r}")


def enumerable(s: SetValue, alg: FiniteAlgebra) -> bool:
    return cardinality(s, alg.n) is not None


# --- extensional equality ----------------------------------------------------

def probe_menu(s: SetValue, alg: FiniteAlgebra) -> list:
    """A few members of s, used to compare functions that cannot be tabulated."""
    match s:
        case EUniverse():
            return [
                SetElem(CARRIER),
                SetElem(SINGLETON_E),
                SetElem(fun_space(CARRIER, CARRIER)),
            ]
        case FunSpace(dom, cod) if not enumerable(s, alg):
            if enumerable(dom, alg):
                keys = enumerate_set(dom, alg)
                return [finite_fun((k, m) for k in keys) for m in probe_menu(cod, alg)]
            return [MConstFun(dom, m) for m in probe_menu(cod, alg)]
        case _:
            return enumerate_set(s, alg)[:3]


def canon_set(s: SetValue, alg: FiniteAlgebra, cap: int = DEFAULT_CAP):
    if enumerable(s, alg):
        return ("set", frozenset(canon_elem(x, alg, cap) for x in enumerate_set(s, alg, cap)))
    match s:
        case EUniverse():
            return ("E",)
        case FunSpace(dom, cod):
            return ("fspace", canon_set(dom, alg, cap), canon_set(cod, alg, cap))
    raise PiModuloError(f"cannot canonicalize {s!r}")


def canon_elem(v: UniverseElem, alg: FiniteAlgebra, cap: int = DEFAULT_CAP):
    match v:
        case EPoint():
            return ("e",)
        case AlgElem(w):
            return ("w", w)
        case SetElem(s):
            return ("S", canon_set(s, alg, cap))
        case FiniteFun(graph):
            return (
                "fun",
                frozenset(
                    (canon_elem(k, alg, cap), canon_elem(val, alg, cap))
                    for k, val in graph
                ),
            )
        case MIdent():
            return ("identE",)
        case MPiKKK():
            return ("piKKK",)
        case MPiTKK1():
            return ("piTKK1",)
        case MPiKKK1(a):
            return ("piKKK1", canon_elem(a, alg, cap))
        case IPiDot1(c):
            return ("piDot1", c)
        case MConstFun() | MClosure():
            dom = v.dom
            results = tuple(
                canon_elem(apply_u(v, probe, alg, cap), alg, cap)
                for probe in probe_menu(dom, alg)
            )
            return ("bigfun", canon_set(dom, alg, cap), results)
    raise PiModuloError(f"cannot canonicalize {v!r}")


def equal_values(a: UniverseElem, b: UniverseElem, alg: FiniteAlgebra, cap: int = DEFAULT_CAP) -> bool:
    return a == b or canon_elem(a, alg, cap) == canon_elem(b, alg, cap)


def equal_sets(a: SetValue, b: SetValue, alg: FiniteAlgebra, cap: int = DEFAULT_CAP) -> bool:
    return a == b or canon_set(a, alg, cap) == canon_set(b, alg, cap)


# --- application -------------------------------------------------------------

def apply_u(f: UniverseElem, a: UniverseElem, alg: FiniteAlgebra, cap: int = DEFAULT_CAP) -> UniverseElem:
    match f:
        case EPoint() | FiniteFun():
            try:
                return apply_elem(f, a)
            except PiModuloError:
                ca = canon_elem(a, alg, cap)
                for k, v in f.graph:
                    if canon_elem(k, alg, cap) == ca:
                        return v
                raise
        case MIdent():
            return a
        case MPiKKK():
            return MPiKKK1(a)
        case MPiTKK1():
            he = apply_u(a, E_POINT, alg, cap)
            return SetElem(fun_space(SINGLETON_E, as_set(he, "pi code output")))
        case MPiKKK1(aset):
            he = apply_u(a, E_POINT, alg, cap)
            return SetElem(fun_space(as_set(aset, "pi code argument"), as_set(he, "pi code output")))
        case MConstFun(_, value):
            return value
        case MClosure(body, env, psi, _):
            return m_value(body, dict(psi), alg, cap, env=list(env) + [a])
        case IPiDot1(c):
            if not isinstance(a, FiniteFun):
                raise PiModuloError(
                    f"a pi code needs a finite function argument, got {a!r}"
                )
            outs = set()
            for _, out in a.graph:
                if not isinstance(out, AlgElem):
                    raise PiModuloError(f"pi code body output off the carrier: {out!r}")
                outs.add(out.value)
            return AlgElem(alg.pi(c, alg.mask_of(outs)))
    raise PiModuloError(f"applied a non-function value {f!r}")


# --- the N family ------------------------------------------------------------

def domain_n(t: Term) -> SetValue:
    match t:
        case SortKind() | SortType() | Const("U_Kind"):
            return E_UNIVERSE
        case Pi(_, dom, cod):
            return fun_space(domain_n(dom), domain_n(cod))
        case Const(_) | FVar(_) | Var(_):
            return SINGLETON_E
        case Lam(_, _, body):
            return domain_n(body)
        case App(fn, _):
            return domain_n(fn)
    raise PiModuloError(f"no outer domain for {t!r}")


# --- the M family ------------------------------------------------------------

_M_UNIVERSE_CONSTS = frozenset({"U_Kind", "U_Type", "dot_Type"})


def m_value(
    t: Term,
    psi: dict[str, UniverseElem],
    alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP,
    env: list[UniverseElem] | None = None,
) -> UniverseElem:
    env = env or []

    def m(t: Term, env: list[UniverseElem]) -> UniverseElem:
        match t:
            case SortKind() | SortType():
                return SetElem(CARRIER)
            case Const(name) if name in _M_UNIVERSE_CONSTS:
                return SetElem(CARRIER)
            case Const("eps_Kind"):
                return M_IDENT
            case Const("eps_Type"):
                return FiniteFun(frozenset({(E_POINT, SetElem(SINGLETON_E))}))
            case Const("pi_TTT") | Const("pi_KTT"):
                return E_POINT
            case Const("pi_TKK"):
                return FiniteFun(frozenset({(E_POINT, MPiTKK1())}))
            case Const("pi_KKK"):
                return MPiKKK()
            case Const(name):
                raise PiModuloError(f"constant {name} has no middle-layer value here")
            case FVar(x):
                if x not in psi:
                    raise PiModuloError(f"outer valuation has no value for {x}")
                return psi[x]
            case Var(i):
                return env[-1 - i]
            case Lam(_, ann, body):
                n_ann = domain_n(ann)
                if enumerable(n_ann, alg):
                    pairs = [
                        (c, m(body, env + [c]))
                        for c in enumerate_set(n_ann, alg, cap)
                    ]
                    return finite_fun(pairs)
                return MClosure(
                    body, tuple(env), tuple(sorted(psi.items(), key=lambda kv: kv[0])), n_ann
                )
            case App(fn, arg):
                f_val = m(fn, env)
                if f_val == E_POINT:
                    return E_POINT
                return apply_u(f_val, m(arg, env), alg, cap)
            case Pi(_, ann, cod):
                dom_set = as_set(m(ann, env), "product domain")
                n_ann = domain_n(ann)
                if not uses_bound(cod):
                    union = as_set(m(cod, env + [E_POINT]), "product codomain")
                elif enumerable(n_ann, alg):
                    parts = [
                        as_set(m(cod, env + [c]), "product codomain")
                        for c in enumerate_set(n_ann, alg, cap)
                    ]
                    union = _union_sets(parts, alg, cap)
                else:
                    raise UnenumerableUnion(
                        "product codomain union runs over an unenumerable set"
                    )
                if equal_sets(union, SINGLETON_E, alg, cap):
                    return SetElem(SINGLETON_E)
                return SetElem(fun_space(dom_set, union))
        raise PiModuloError(f"no middle-layer value for {t!r}")

    return m(t, env)


def _union_sets(parts: list[SetValue], alg: FiniteAlgebra, cap: int) -> SetValue:
    first = parts[0]
    if all(equal_sets(p, first, alg, cap) for p in parts[1:]):
        return first
    members: dict = {}
    for p in parts:
        for x in enumerate_set(p, alg, cap):
            members.setdefault(canon_elem(x, alg, cap), x)
    return explicit_set(members.values())


def domain_m(t: Term, psi: dict[str, UniverseElem], alg: FiniteAlgebra, cap: int = DEFAULT_CAP) -> SetValue:
    return as_set(m_value(t, psi, alg, cap), "middle-layer domain")


# --- the interpretation --------------------------------------------------------

def default_n_value(s: SetValue, alg: FiniteAlgebra) -> UniverseElem:
    """A canonical inhabitant of an N-layer set, used to extend psi when the
    interpreter walks under a binder."""
    match s:
        case SingletonE():
            return E_POINT
        case EUniverse():
            return SetElem(CARRIER)
        case FunSpace(dom, cod):
            filler = default_n_value(cod, alg)
            if enumerable(dom, alg):
                return finite_fun((k, filler) for k in enumerate_set(dom, alg))
            return MConstFun(dom, filler)
    raise PiModuloError(f"no default inhabitant for {s!r}")


def interp_cc(
    t: Term,
    phi: dict[str, UniverseElem],
    psi: dict[str, UniverseElem],
    alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP,
) -> UniverseElem:
    top = AlgElem(alg.top)
    ident_b = FiniteFun(frozenset((AlgElem(w), AlgElem(w)) for w in range(alg.n)))
    pi_code = FiniteFun(frozenset((AlgElem(w), IPiDot1(w)) for w in range(alg.n)))

    def ev(t: Term, phi_env: list, psi_env: list) -> UniverseElem:
        match t:
            case SortKind() | SortType():
                return top
            case Const(name) if name in _M_UNIVERSE_CONSTS:
                return top
            case Const("eps_Type") | Const("eps_Kind"):
                return ident_b
            case Const("pi_TTT") | Const("pi_TKK") | Const("pi_KTT") | Const("pi_KKK"):
                return pi_code
            case Const(name):
                raise PiModuloError(f"constant {name} has no interpretation here")
            case FVar(x):
                if x not in phi:
                    raise PiModuloError(f"valuation has no value for {x}")
                return phi[x]
            case Var(i):
                return phi_env[-1 - i]
            case Lam(_, ann, body):
                m_ann = as_set(m_value(ann, psi, alg, cap, env=psi_env), "binder domain")
                filler = default_n_value(domain_n(ann), alg)
                pairs = [
                    (c, ev(body, phi_env + [c], psi_env + [filler]))
                    for c in enumerate_set(m_ann, alg, cap)
                ]
                return finite_fun(pairs)
            case App(fn, arg):
                f_val = ev(fn, phi_env, psi_env)
                if f_val == E_POINT:
                    return E_POINT
                return apply_u(f_val, ev(arg, phi_env, psi_env), alg, cap)
            case Pi(_, ann, cod):
                w_dom = as_carrier(ev(ann, phi_env, psi_env), "product domain")
                m_ann = as_set(m_value(ann, psi, alg, cap, env=psi_env), "binder domain")
                filler = default_n_value(domain_n(ann), alg)
                outs = {
                    as_carrier(
                        ev(cod, phi_env + [c], psi_env + [filler]),
                        "product codomain",
                    )
                    for c in enumerate_set(m_ann, alg, cap)
                }
                return AlgElem(alg.pi(w_dom, alg.mask_of(outs)))
        raise PiModuloError(f"cannot interpret {t!r}")

    return ev(t, [], [])


# --- valuations and lemma checks -------------------------------------------------

def default_psi(ctx: Context, alg: FiniteAlgebra) -> dict[str, UniverseElem]:
    return {name: default_n_value(domain_n(ty), alg) for name, ty in ctx}


def enumerate_psis(
    ctx: Context, alg: FiniteAlgebra, cap: int = DEFAULT_CAP
) -> list[dict[str, UniverseElem]]:
    """All outer valuations for a context; unenumerable components fall back
    to the probe menu."""
    pools = []
    for _, ty in ctx:
        n_ty = domain_n(ty)
        if enumerable(n_ty, alg):
            pools.append(enumerate_set(n_ty, alg, cap))
        else:
            pools.append(probe_menu(n_ty, alg))
    return _valuations(ctx, pools, cap)


def enumerate_m_valuations(
    ctx: Context,
    psi: dict[str, UniverseElem],
    alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP,
) -> list[dict[str, UniverseElem]]:
    """All inner valuations: each variable ranges over the M-value of its
    declared type under psi."""
    pools = [enumerate_set(domain_m(ty, psi, alg, cap), alg, cap) for _, ty in ctx]
    return _valuations(ctx, pools, cap)


def _valuations(ctx: Context, pools: list, cap: int) -> list[dict[str, UniverseElem]]:
    """Every choice of one element per pool, by context name, up to `cap`."""
    total = prod(len(pool) for pool in pools)
    if total > cap:
        raise SizeLimitExceeded(f"{total} valuations is over the cap {cap}")
    names = [name for name, _ in ctx]
    return [dict(zip(names, combo)) for combo in product(*pools)]


def check_conversion_cc(
    t: Term,
    u: Term,
    phi: dict[str, UniverseElem],
    psi: dict[str, UniverseElem],
    alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP,
) -> bool:
    """All three layers must agree on convertible terms."""
    if not equal_sets(domain_n(t), domain_n(u), alg, cap):
        return False
    if not equal_values(m_value(t, psi, alg, cap), m_value(u, psi, alg, cap), alg, cap):
        return False
    return equal_values(
        interp_cc(t, phi, psi, alg, cap), interp_cc(u, phi, psi, alg, cap), alg, cap
    )


def check_substitution_cc(
    t: Term,
    x: str,
    u: Term,
    phi: dict[str, UniverseElem],
    psi: dict[str, UniverseElem],
    alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP,
) -> bool:
    subbed = substitute(t, x, u)
    m_u = m_value(u, psi, alg, cap)
    psi_ext = {**psi, x: m_u}
    if not equal_values(m_value(subbed, psi, alg, cap), m_value(t, psi_ext, alg, cap), alg, cap):
        return False
    phi_ext = {**phi, x: interp_cc(u, phi, psi, alg, cap)}
    return equal_values(
        interp_cc(subbed, phi, psi, alg, cap),
        interp_cc(t, phi_ext, psi_ext, alg, cap),
        alg,
        cap,
    )


def check_n_substitution(t: Term, x: str, u: Term) -> bool:
    """Outer-domain stability under substitution, for u free of the
    universe-generating symbols."""
    return domain_n(substitute(t, x, u)) == domain_n(t)


def check_lemma1_cc(t: Term) -> bool:
    """For terms free of Kind, Type, and U_Kind the outer domain is {e}."""
    return domain_n(t) == SINGLETON_E


def member_of_n(v: UniverseElem, s: SetValue, alg: FiniteAlgebra, cap: int = DEFAULT_CAP) -> bool:
    """Does v inhabit the N-layer set s?  The point e doubles as any
    collapsed constant-e function, so it inhabits a function space whose
    codomain admits it."""
    match s:
        case SingletonE():
            return v == E_POINT
        case EUniverse():
            return isinstance(v, SetElem)
        case Carrier():
            return isinstance(v, AlgElem) and 0 <= v.value < alg.n
        case ExplicitSet(members):
            cv = canon_elem(v, alg, cap)
            return any(cv == canon_elem(m, alg, cap) for m in members)
        case FunSpace(dom, cod):
            if v == E_POINT:
                return member_of_n(E_POINT, cod, alg, cap)
            if isinstance(v, MIdent):
                return dom == E_UNIVERSE and cod == E_UNIVERSE
            if isinstance(v, FiniteFun):
                if not enumerable(dom, alg):
                    return False
                keys = {canon_elem(k, alg, cap) for k, _ in v.graph}
                expected = {
                    canon_elem(k, alg, cap) for k in enumerate_set(dom, alg, cap)
                }
                if keys != expected:
                    return False
                return all(
                    member_of_n(val, cod, alg, cap) for _, val in v.graph
                )
            if isinstance(v, (MConstFun, MClosure)) and not equal_sets(
                v.dom, dom, alg, cap
            ):
                return False
            if isinstance(v, (MConstFun, MClosure, MPiTKK1, MPiKKK, MPiKKK1)):
                return all(
                    member_of_n(apply_u(v, probe, alg, cap), cod, alg, cap)
                    for probe in probe_menu(dom, alg)
                )
            return False
    raise PiModuloError(f"membership in {s!r} is not decidable here")
