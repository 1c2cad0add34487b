"""The finite model of the calculus-of-constructions embedding.

Three layers.  The outer domain family N assigns every term a set built
from E, {e}, and function spaces; E is the big universe of sets and is
never enumerated, only handled symbolically.  The only N-set that can be
listed is {e}: a leaf's N-set is E or {e}, an application or abstraction
passes on a child's, and a product's is `fun_space` of its binder's and
its codomain's, which is {e} when the codomain's is {e} and otherwise a
space into a set that cannot be listed.  So the middle value of a
dependent product, which takes the union of its codomain's values over
the binder's N-set, needs the codomain at e alone, and fails
(`UnenumerableUnion`) when that N-set is not {e}; an abstraction over {e}
has the one-point graph at e.  The middle family M is valuation-indexed:
M(t, psi) is an element of N at t's type, and may be a set (elements of
E are sets), the point e, or a function.  It reads neither the algebra
nor the enumeration cap.  The inner interpretation maps a term and two
valuations (phi over M-values, psi over N-values) to an element of M at
the term's type; with a finite algebra every interpretation-level value
is finite except the shared meaning of the four pi codes, which is kept
symbolic and applied on demand (`apply_interp`), the one value that
reads `pi`.  The sets and tabulated elements are the shared ones of
`values`; the symbolic elements below are this model's own.

Values compare by structure.  The constructors of `values` apply the
collapse conventions (a function space into {e} is {e}; a function whose
outputs are all e is e), so two sets are equal exactly when they have the
same members, and two tabulated elements exactly when they have the same
graph.  Only a function over a set that cannot be listed (`MConstFun`,
`MClosure`) is compared another way: on a fixed finite probe menu
(`canon_elem`), which can certify difference but takes agreement on the
menu as equality.

Evaluation is staged: each term is turned once into closures for its three
layers, which then run on every algebra and valuation (see below).

A conversion verdict is kept across algebras (`_staging.by_table_reads`).
It is kept under its terms, phi and psi (all by identity; the
enumerators below build each valuation once per context and carrier size,
so a sweep meets the very objects again), the carrier size and the cap,
as a tree of the `top` and `pi` reads the check made, and an algebra that
agrees on those entries gets it without an evaluation.  A phi or psi that
is a plain dict, not a `Valuation`, is checked without the memo.  Only the
interpretation reads the algebra, through a view that logs those reads;
the N-set and middle layers read no algebra, so a verdict they decide
sits at the tree's root.  A check that raises keeps nothing, so its error
is raised afresh on every call.

The substitution check keeps no verdicts: the sweeps check each instance
on one algebra or a few, so a key would seldom be met twice.  The N-sets
and the middle layer read neither the inner valuation phi nor the
algebra, so it evaluates them once per instance and outer valuation psi,
not per phi or algebra (`_staging.last_item`).  `model_stt` keeps no
verdicts either: its per-algebra constants are cached by the algebra and
by a whole table row, beyond the reach of such a view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from ._staging import (
    CONSTANT_CACHE_SIZE,
    STAGE_CACHE_SIZE,
    by_table_reads,
    last_item,
    per_term,
    valuation_key,
)
from .algebra import FiniteAlgebra
from .errors import PiModuloError, UnenumerableUnion
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
    uses_bound,
)
from .values import (
    CARRIER,
    DEFAULT_CAP,
    E_POINT,
    E_UNIVERSE,
    SINGLETON_E,
    VALUATION_CACHE_SIZE,
    AlgElem,
    Carrier,
    ElemValue,
    EPoint,
    EUniverse,
    FiniteFun,
    FunSpace,
    SetValue,
    SingletonE,
    apply_elem,
    as_carrier,
    carrier_identity,
    enumerable,
    enumerate_set,
    finite_fun,
    fun_space,
    listing,
    valuations,
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


# --- extensional equality ----------------------------------------------------

def _outer(s: SetValue) -> bool:
    """Is s an N-set: {e}, E or a space of functions between N-sets?"""
    match s:
        case SingletonE() | EUniverse():
            return True
        case FunSpace(dom, cod):
            return _outer(dom) and _outer(cod)
    return False


def probe_menu(s: SetValue) -> list:
    """A few members of an N-set, used to compare functions that cannot be
    tabulated.  Every N-set but {e} is unlistable, and {e} is its own menu."""
    match s:
        case SingletonE():
            return [E_POINT]
        case EUniverse():
            return [
                SetElem(CARRIER),
                SetElem(SINGLETON_E),
                SetElem(fun_space(CARRIER, CARRIER)),
            ]
        case FunSpace(dom, cod) if _outer(dom):
            if dom == SINGLETON_E:
                return [finite_fun([(E_POINT, m)]) for m in probe_menu(cod)]
            return [MConstFun(dom, m) for m in probe_menu(cod)]
    raise PiModuloError(f"no probe menu for {s!r}, which is not an outer set")


def canon_elem(v: UniverseElem):
    """A form that is equal for extensionally equal values.  A function
    over a set that cannot be listed is read on the probe menu; a value
    that holds one is rebuilt around its form.  Every other value is its
    own form, and a graph's keys, always tabulated, are kept as they are."""
    match v:
        case FiniteFun(graph):
            return ("fun", frozenset((k, canon_elem(val)) for k, val in graph))
        case MPiKKK1(a):
            return ("piKKK1", canon_elem(a))
        case MConstFun() | MClosure():
            results = tuple(canon_elem(apply_u(v, probe)) for probe in probe_menu(v.dom))
            return ("bigfun", v.dom, results)
    return v


def equal_values(a: UniverseElem, b: UniverseElem) -> bool:
    return a == b or canon_elem(a) == canon_elem(b)


# --- application -------------------------------------------------------------

def apply_u(f: UniverseElem, a: UniverseElem) -> UniverseElem:
    """Application in the middle layer, whose functions may be symbolic."""
    match f:
        case EPoint() | FiniteFun():
            return apply_elem(f, a)
        case MIdent():
            return a
        case MPiKKK():
            return MPiKKK1(a)
        case MPiTKK1():
            he = apply_u(a, E_POINT)
            return SetElem(fun_space(SINGLETON_E, as_set(he, "pi code output")))
        case MPiKKK1(aset):
            he = apply_u(a, E_POINT)
            return SetElem(fun_space(as_set(aset, "pi code argument"), as_set(he, "pi code output")))
        case MConstFun(_, value):
            return value
        case MClosure(body, env, psi, _):
            return _staged(body)[1](dict(psi), list(env) + [a])
    raise PiModuloError(f"applied a non-function value {f!r}")


def apply_interp(f: UniverseElem, a: UniverseElem, alg: FiniteAlgebra) -> UniverseElem:
    """Application in the interpretation, whose functions are tabulated
    except the pi codes' shared meaning, the one value that reads `pi`."""
    if type(f) is not IPiDot1:
        return apply_elem(f, a)
    if not isinstance(a, FiniteFun):
        raise PiModuloError(f"a pi code needs a finite function argument, got {a!r}")
    outs = set()
    for _, out in a.graph:
        if not isinstance(out, AlgElem):
            raise PiModuloError(f"pi code body output off the carrier: {out!r}")
        outs.add(out.value)
    return AlgElem(alg.pi(f.c, alg.mask_of(outs)))


# --- staged evaluation ---------------------------------------------------------
#
# A term is staged once into three things: its N-set, a closure m(psi, env)
# for its middle-layer value and a closure ev(phi, psi, alg, cap, phi_env,
# psi_env) for its interpretation.  Only the interpretation reads the
# algebra and the cap: the middle layer is a function of the term, psi and
# the binder environment, since a binder over {e}, the one N-set that can
# be listed, has the one-point graph at e.  Everything fixed by the term
# alone is settled at stage time: which node kind runs, each binder's
# N-set, whether it is {e}, its default inhabitant and whether a product's
# codomain uses its variable.  Everything that depends on the algebra, the cap or a
# valuation happens when a closure runs, in the order the model defines,
# so a failing evaluation raises the same error it would raise on a walk of
# the term.

_M_UNIVERSE_CONSTS = frozenset({"U_Kind", "U_Type", "dot_Type"})
_M_CONSTS = {
    **{name: SetElem(CARRIER) for name in _M_UNIVERSE_CONSTS},
    "eps_Kind": M_IDENT,
    "eps_Type": FiniteFun(frozenset({(E_POINT, SetElem(SINGLETON_E))})),
    "pi_TTT": E_POINT,
    "pi_KTT": E_POINT,
    "pi_TKK": FiniteFun(frozenset({(E_POINT, MPiTKK1())})),
    "pi_KKK": MPiKKK(),
}
_DECODERS = frozenset({"eps_Type", "eps_Kind"})
_PI_CODES = frozenset({"pi_TTT", "pi_TKK", "pi_KTT", "pi_KKK"})


def _stage_leaf(node: Term) -> tuple:
    cls = type(node)
    if cls is SortKind or cls is SortType:
        return E_UNIVERSE, _m_constant(SetElem(CARRIER)), _ev_top
    if cls is Var:
        i = -1 - node.index

        def m_var(psi, env):
            return env[i]

        def ev_var(phi, psi, alg, cap, phi_env, psi_env):
            return phi_env[i]

        return SINGLETON_E, m_var, ev_var
    if cls is FVar:
        x = node.name

        def m_free(psi, env):
            if x not in psi:
                raise PiModuloError(f"outer valuation has no value for {x}")
            return psi[x]

        def ev_free(phi, psi, alg, cap, phi_env, psi_env):
            if x not in phi:
                raise PiModuloError(f"valuation has no value for {x}")
            return phi[x]

        return SINGLETON_E, m_free, ev_free
    name = node.name
    if name in _M_CONSTS:
        m = _m_constant(_M_CONSTS[name])
    else:
        def m(psi, env):
            raise PiModuloError(f"constant {name} has no middle-layer value here")
    if name in _M_UNIVERSE_CONSTS:
        ev = _ev_top
    elif name in _DECODERS:
        def ev(phi, psi, alg, cap, phi_env, psi_env):
            return carrier_identity(alg.n)
    elif name in _PI_CODES:
        def ev(phi, psi, alg, cap, phi_env, psi_env):
            return _pi_code(alg.n)
    else:
        def ev(phi, psi, alg, cap, phi_env, psi_env):
            raise PiModuloError(f"constant {name} has no interpretation here")
    return (E_UNIVERSE if name == "U_Kind" else SINGLETON_E), m, ev


def _m_constant(value: UniverseElem):
    def m(psi, env):
        return value
    return m


def _ev_top(phi, psi, alg, cap, phi_env, psi_env):
    return AlgElem(alg.top)


def _stage_app(node: App, fn: tuple, arg: tuple) -> tuple:
    n_fn, m_fn, ev_fn = fn
    _, m_arg, ev_arg = arg

    def m(psi, env):
        f_val = m_fn(psi, env)
        if type(f_val) is EPoint:
            return E_POINT
        return apply_u(f_val, m_arg(psi, env))

    def ev(phi, psi, alg, cap, phi_env, psi_env):
        f_val = ev_fn(phi, psi, alg, cap, phi_env, psi_env)
        if type(f_val) is EPoint:
            return E_POINT
        return apply_interp(f_val, ev_arg(phi, psi, alg, cap, phi_env, psi_env), alg)

    return n_fn, m, ev


def _stage_lam(node: Lam, ann: tuple, body: tuple) -> tuple:
    n_ann, m_ann, _ = ann
    n_body, m_body, ev_body = body
    filler = default_n_value(n_ann)
    if n_ann == SINGLETON_E:
        def m(psi, env):
            return finite_fun([(E_POINT, m_body(psi, env + [E_POINT]))])
    else:
        def m(psi, env):
            return MClosure(node.body, tuple(env), tuple(sorted(psi.items(), key=itemgetter(0))), n_ann)

    def ev(phi, psi, alg, cap, phi_env, psi_env):
        m_dom = as_set(m_ann(psi, psi_env), "binder domain")
        inner = psi_env + [filler]
        return finite_fun([
            (c, ev_body(phi, psi, alg, cap, phi_env + [c], inner))
            for c in enumerate_set(m_dom, alg, cap)
        ])

    return n_body, m, ev


def _stage_pi(node: Pi, ann: tuple, cod: tuple) -> tuple:
    n_ann, m_ann, ev_ann = ann
    n_cod, m_cod, ev_cod = cod
    filler = default_n_value(n_ann)
    # the only listable N-set is {e}, so a union over it has one part, at e
    unlistable_union = uses_bound(node.codomain) and n_ann != SINGLETON_E

    def m(psi, env):
        dom_set = as_set(m_ann(psi, env), "product domain")
        if unlistable_union:
            raise UnenumerableUnion("product codomain union runs over an unenumerable set")
        union = as_set(m_cod(psi, env + [E_POINT]), "product codomain")
        return SetElem(fun_space(dom_set, union))

    def ev(phi, psi, alg, cap, phi_env, psi_env):
        w_dom = as_carrier(ev_ann(phi, psi, alg, cap, phi_env, psi_env), "product domain")
        m_dom = as_set(m_ann(psi, psi_env), "binder domain")
        inner = psi_env + [filler]
        outs = {
            as_carrier(ev_cod(phi, psi, alg, cap, phi_env + [c], inner), "product codomain")
            for c in enumerate_set(m_dom, alg, cap)
        }
        return AlgElem(alg.pi(w_dom, alg.mask_of(outs)))

    return fun_space(n_ann, n_cod), m, ev


def _stage(t: Term) -> tuple:
    return fold(t, _stage_leaf, {App: _stage_app, Pi: _stage_pi, Lam: _stage_lam})


# The (N-set, m, ev) of a term, kept by term object: `MClosure` keeps its
# body term and prints its binder hints, which term equality ignores, so a
# stage shared by two terms equal up to hints would print the first one's.
_staged = per_term(_stage, STAGE_CACHE_SIZE)


@lru_cache(maxsize=CONSTANT_CACHE_SIZE)
def _pi_code(n: int) -> FiniteFun:
    return FiniteFun(frozenset((AlgElem(w), IPiDot1(w)) for w in range(n)))


# --- the three layers ----------------------------------------------------------

def domain_n(t: Term) -> SetValue:
    return _staged(t)[0]


def m_value(
    t: Term, psi: dict[str, UniverseElem], env: list[UniverseElem] | None = None
) -> UniverseElem:
    return _staged(t)[1](psi, env or [])


def domain_m(t: Term, psi: dict[str, UniverseElem]) -> SetValue:
    return as_set(m_value(t, psi), "middle-layer domain")


@lru_cache(maxsize=CONSTANT_CACHE_SIZE)
def default_n_value(s: SetValue) -> UniverseElem:
    """A canonical inhabitant of an N-set, used to extend psi when the
    interpreter walks under a binder: the first of its probe menu."""
    return probe_menu(s)[0]


def interp_cc(
    t: Term,
    phi: dict[str, UniverseElem],
    psi: dict[str, UniverseElem],
    alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP,
) -> UniverseElem:
    return _staged(t)[2](phi, psi, alg, cap, [], [])


# --- valuations and lemma checks -------------------------------------------------

def enumerate_psis(
    ctx: Context, alg: FiniteAlgebra, cap: int = DEFAULT_CAP
) -> list[dict[str, UniverseElem]]:
    """All outer valuations for a context: each variable ranges over the
    probe menu of its type's N-set, which is the whole set when that is
    {e}.  The algebra is not read; it stays a parameter because callers
    pass the cap by position after it.  The list is built once per context
    and cap and shared, on every carrier size: callers must not change it."""
    return _psis(ctx, cap)


@lru_cache(maxsize=VALUATION_CACHE_SIZE)
def _psis(ctx: Context, cap: int) -> list:
    return valuations(ctx, [probe_menu(domain_n(ty)) for _, ty in ctx], cap)


def enumerate_m_valuations(
    ctx: Context,
    psi: dict[str, UniverseElem],
    alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP,
) -> list[dict[str, UniverseElem]]:
    """All inner valuations: each variable ranges over the M-value of its
    declared type under psi.  The list is built once per context, psi (by
    value), carrier size and cap and shared: callers must not change it."""
    return _m_valuations(ctx, valuation_key(psi), alg.n, cap)


@lru_cache(maxsize=VALUATION_CACHE_SIZE)
def _m_valuations(ctx: Context, psi, n: int, cap: int) -> list:
    return valuations(ctx, [listing(domain_m(ty, psi), n, cap) for _, ty in ctx], cap)


# Lemma verdicts kept at once, each under its item, valuation and carrier
# size (`by_table_reads`).  The five rules under every valuation at carrier
# sizes 1 and 2 make 210 keys; a pair adds one per valuation and size, so a
# sweep of pairs on a few algebras each needs few at a time.
VERDICT_CACHE_SIZE = 512


@by_table_reads(VERDICT_CACHE_SIZE)
def _conversion_verdict(t: Term, u: Term, phi, psi, alg: FiniteAlgebra, cap: int) -> bool:
    n_t, m_t, ev_t = _staged(t)
    n_u, m_u, ev_u = _staged(u)
    return (
        n_t == n_u
        and equal_values(m_t(psi, []), m_u(psi, []))
        and equal_values(ev_t(phi, psi, alg, cap, [], []), ev_u(phi, psi, alg, cap, [], []))
    )


def check_conversion_cc(
    t: Term,
    u: Term,
    phi: dict[str, UniverseElem],
    psi: dict[str, UniverseElem],
    alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP,
) -> bool:
    """All three layers must agree on convertible terms."""
    return _conversion_verdict(t, u, phi, psi, alg, cap)


@last_item
def _substitution_outer(t: Term, x: str, u: Term, psi) -> tuple:
    # the substituted term is new on every item: staged, but not kept by term
    _, m_subbed, ev_subbed = _stage(substitute(t, x, u))
    _, m_t, ev_t = _staged(t)
    _, m_u, ev_u = _staged(u)
    psi_ext = {**psi, x: m_u(psi, [])}
    holds = equal_values(m_subbed(psi, []), m_t(psi_ext, []))
    return ev_subbed, ev_t, ev_u, psi_ext, holds


def check_substitution_cc(
    t: Term,
    x: str,
    u: Term,
    phi: dict[str, UniverseElem],
    psi: dict[str, UniverseElem],
    alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP,
) -> bool:
    ev_subbed, ev_t, ev_u, psi_ext, holds = _substitution_outer(t, x, u, psi=psi)
    if not holds:
        return False
    phi_ext = {**phi, x: ev_u(phi, psi, alg, cap, [], [])}
    return equal_values(
        ev_subbed(phi, psi, alg, cap, [], []), ev_t(phi_ext, psi_ext, alg, cap, [], [])
    )


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
        case FunSpace(dom, cod):
            if v == E_POINT:
                return member_of_n(E_POINT, cod, alg, cap)
            if isinstance(v, MIdent):
                return dom == E_UNIVERSE and cod == E_UNIVERSE
            if isinstance(v, FiniteFun):
                if not enumerable(dom):
                    return False
                if {k for k, _ in v.graph} != set(enumerate_set(dom, alg, cap)):
                    return False
                return all(
                    member_of_n(val, cod, alg, cap) for _, val in v.graph
                )
            if isinstance(v, (MConstFun, MClosure)) and v.dom != dom:
                return False
            if isinstance(v, (MConstFun, MClosure, MPiTKK1, MPiKKK, MPiKKK1)):
                return all(
                    member_of_n(apply_u(v, probe), cod, alg, cap)
                    for probe in probe_menu(dom)
                )
            return False
    raise PiModuloError(f"membership in {s!r} is not decidable here")
