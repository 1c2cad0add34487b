"""The tree-walking finite models, kept as an oracle for the staged ones.

`pimodulo.model_cc` and `pimodulo.model_stt` turn each term into closures
once and run those; the functions here are the walkers they replaced,
which dispatch every node through a `match` on every evaluation.  They
are copied unchanged, except that `apply_u` is copied beside them, so an
`MClosure` applied here runs this module's `m_value` and the oracle never
calls staged code, and that `_union_sets` asserts what the staged model
relies on instead of building a set: a dependent product's codomain
takes one value over its binder's N-set.  Like the model's, this
`apply_u` applies a finite function by its graph alone, with no retry on
canonical forms.

The middle layer here still takes the algebra and the cap, and so do the
default inhabitants of N-sets and the probe-menu equality of functions
over E, copied from the model before its middle layer stopped reading
them: they list {e} with the algebra under the cap.  The staged middle
layer is called without them (`STAGED_CC`), so the tests hold the model's
algebra-free layer to this algebra-reading one on every algebra they
visit.  The shared value layer of `values` (enumeration, listability and
the collapsing constructors) is imported, not copied.

`assert_stt_agrees` and `assert_cc_agrees` hold the models to the oracle:
every layer of every evaluation must come out the same, a value with the
same `repr` or an exception of the same class with the same message, which
also pins the order of evaluation that decides which error comes first.
The lemma checks here (`check_conversion_*`, `check_substitution_*`) are
built from the oracle's layers afresh on every call, and hold the models'
checks, which keep work between calls, to the same verdicts and errors.
"""

from __future__ import annotations

import operator

from pimodulo import model_cc, model_stt
from pimodulo.algebra import FiniteAlgebra
from pimodulo.errors import PiModuloError, UnenumerableUnion
from pimodulo.model_cc import (
    E_UNIVERSE,
    IPiDot1,
    M_IDENT,
    MClosure,
    MConstFun,
    MIdent,
    MPiKKK,
    MPiKKK1,
    MPiTKK1,
    SetElem,
    UniverseElem,
    as_set,
)
from pimodulo.syntax import parse_term
from pimodulo.terms import (
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
from pimodulo.values import (
    CARRIER,
    DEFAULT_CAP,
    E_POINT,
    SINGLETON_E,
    AlgElem,
    ElemValue,
    EPoint,
    EUniverse,
    FiniteFun,
    FunSpace,
    SetValue,
    SingletonE,
    apply_elem,
    as_carrier,
    enumerable,
    enumerate_set,
    finite_fun,
    fun_space,
)


# --- the constructions model ---------------------------------------------------

def probe_menu(s: SetValue, alg: FiniteAlgebra) -> list:
    """A few members of s, used to compare functions that cannot be tabulated."""
    match s:
        case EUniverse():
            return [
                SetElem(CARRIER),
                SetElem(SINGLETON_E),
                SetElem(fun_space(CARRIER, CARRIER)),
            ]
        case FunSpace(dom, cod) if not enumerable(s):
            if enumerable(dom):
                keys = enumerate_set(dom, alg)
                return [finite_fun((k, m) for k in keys) for m in probe_menu(cod, alg)]
            return [MConstFun(dom, m) for m in probe_menu(cod, alg)]
        case _:
            return enumerate_set(s, alg)[:3]


def canon_elem(v: UniverseElem, alg: FiniteAlgebra, cap: int = DEFAULT_CAP):
    match v:
        case FiniteFun(graph):
            return ("fun", frozenset((k, canon_elem(val, alg, cap)) for k, val in graph))
        case MPiKKK1(a):
            return ("piKKK1", canon_elem(a, alg, cap))
        case MConstFun() | MClosure():
            results = tuple(
                canon_elem(apply_u(v, probe, alg, cap), alg, cap)
                for probe in probe_menu(v.dom, alg)
            )
            return ("bigfun", v.dom, results)
    return v


def equal_values(a: UniverseElem, b: UniverseElem, alg: FiniteAlgebra, cap: int = DEFAULT_CAP) -> bool:
    return a == b or canon_elem(a, alg, cap) == canon_elem(b, alg, cap)


def default_n_value(s: SetValue, alg: FiniteAlgebra) -> UniverseElem:
    match s:
        case SingletonE():
            return E_POINT
        case EUniverse():
            return SetElem(CARRIER)
        case FunSpace(dom, cod):
            filler = default_n_value(cod, alg)
            if enumerable(dom):
                return finite_fun((k, filler) for k in enumerate_set(dom, alg))
            return MConstFun(dom, filler)
    raise PiModuloError(f"no default inhabitant for {s!r}")


def apply_u(f: UniverseElem, a: UniverseElem, alg: FiniteAlgebra, cap: int = DEFAULT_CAP) -> UniverseElem:
    match f:
        case EPoint() | FiniteFun():
            return apply_elem(f, a)
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
                if enumerable(n_ann):
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
                elif enumerable(n_ann):
                    parts = [
                        as_set(m(cod, env + [c]), "product codomain")
                        for c in enumerate_set(n_ann, alg, cap)
                    ]
                    union = _union_sets(parts)
                else:
                    raise UnenumerableUnion(
                        "product codomain union runs over an unenumerable set"
                    )
                return SetElem(fun_space(dom_set, union))
        raise PiModuloError(f"no middle-layer value for {t!r}")

    return m(t, env)


def _union_sets(parts: list[SetValue]) -> SetValue:
    # the only listable N-set is {e}, so a union never has two parts to
    # tell apart; the model relies on it and evaluates the codomain at e
    first = parts[0]
    assert all(p == first for p in parts[1:]), parts
    return first


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


# --- the simple-type model -------------------------------------------------------

def domain_stt(t: Term, alg: FiniteAlgebra | None = None) -> SetValue:
    """The domain of a term.  The algebra argument is accepted for call-shape
    symmetry with the interpreter but the answer never depends on it: the
    carrier stays symbolic inside SetValue."""
    match t:
        case SortKind() | SortType():
            return CARRIER
        case Const("o"):
            return CARRIER
        case Const(_) | FVar(_) | Var(_):
            return SINGLETON_E
        case Lam(_, _, body):
            return domain_stt(body)
        case App(fn, _):
            return domain_stt(fn)
        case Pi(_, dom, cod):
            return fun_space(domain_stt(dom), domain_stt(cod))
    raise PiModuloError(f"no domain for {t!r}")


def _all_quantifier_domain(name: str) -> Term:
    return parse_term(name[len("all["):-1])


def interp_stt(
    t: Term,
    phi: dict[str, ElemValue],
    alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP,
) -> ElemValue:
    """Interpretation under a valuation; phi maps free variables to values."""
    top = AlgElem(alg.top)

    def ev(t: Term, env: list[ElemValue]) -> ElemValue:
        match t:
            case SortKind() | SortType() | Const("iota") | Const("o"):
                return top
            case Const("eps"):
                return finite_fun((AlgElem(w), AlgElem(w)) for w in range(alg.n))
            case Const("imp"):
                return finite_fun(
                    (
                        AlgElem(w),
                        finite_fun(
                            (AlgElem(w2), AlgElem(alg.arrow(w, w2)))
                            for w2 in range(alg.n)
                        ),
                    )
                    for w in range(alg.n)
                )
            case Const(name) if name.startswith("all["):
                quant_dom = _all_quantifier_domain(name)
                dom_set = domain_stt(quant_dom)
                w_c = as_carrier(ev(quant_dom, []), "quantifier domain")
                members = enumerate_set(dom_set, alg, cap)
                pairs = []
                for f in enumerate_set(fun_space(dom_set, CARRIER), alg, cap):
                    outs = {
                        as_carrier(apply_elem(f, c), "proposition body")
                        for c in members
                    }
                    pairs.append((f, AlgElem(alg.pi(w_c, alg.mask_of(outs)))))
                return finite_fun(pairs)
            case Const(name):
                raise PiModuloError(f"constant {name} has no interpretation here")
            case FVar(x):
                if x not in phi:
                    raise PiModuloError(f"valuation has no value for {x}")
                return phi[x]
            case Var(i):
                return env[-1 - i]
            case Lam(_, ann, body):
                pairs = [
                    (c, ev(body, env + [c]))
                    for c in enumerate_set(domain_stt(ann), alg, cap)
                ]
                return finite_fun(pairs)
            case App(fn, arg):
                f_val = ev(fn, env)
                if f_val == E_POINT:
                    return E_POINT
                return apply_elem(f_val, ev(arg, env))
            case Pi(_, dom, cod):
                w_dom = as_carrier(ev(dom, env), "product domain")
                outs = {
                    as_carrier(ev(cod, env + [c]), "product codomain")
                    for c in enumerate_set(domain_stt(dom), alg, cap)
                }
                return AlgElem(alg.pi(w_dom, alg.mask_of(outs)))
        raise PiModuloError(f"cannot interpret {t!r}")

    return ev(t, [])


# --- comparing the models with the oracle ---------------------------------------

def evaluated(fn, *args) -> tuple:
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return "raised", exc


def shown(result: tuple) -> tuple:
    """An evaluated result as it is compared: a value's `repr`, or the
    class and message of what was raised."""
    kind, got = result
    if kind == "value":
        return "value", repr(got)
    return "raised", type(got).__name__, str(got)


def outcome(fn, *args) -> tuple:
    return shown(evaluated(fn, *args))


def _stt_layers(model, terms, phi, alg, cap) -> list:
    domain, interp = model
    return [(evaluated(domain, t), evaluated(interp, t, phi, alg, cap)) for t in terms]


def _cc_layers(model, terms, phi, psi, alg, cap) -> list:
    domain, m, interp = model
    return [
        (evaluated(domain, t), evaluated(m, t, psi, alg, cap), evaluated(interp, t, phi, psi, alg, cap))
        for t in terms
    ]


def _shown(layers: list) -> list:
    return [tuple(map(shown, per_term)) for per_term in layers]


STAGED_STT = (model_stt.domain_stt, model_stt.interp_stt)
ORACLE_STT = (domain_stt, interp_stt)
# the staged middle layer reads neither the algebra nor the cap
STAGED_CC = (model_cc.domain_n, lambda t, psi, alg, cap: model_cc.m_value(t, psi), model_cc.interp_cc)
ORACLE_CC = (domain_n, m_value, interp_cc)


# --- the lemma checks, built from the oracle's layers -------------------------------
#
# Every call evaluates its layers afresh, so a check that keeps work between
# calls is held to one that keeps none.  A conversion compares the two
# terms' layers outermost first: the first error raised stands for its
# layer, and the first layer on which the terms differ makes the verdict
# False, so an error in a layer after it is never raised.

def _converts(t_layers, u_layers, agree) -> bool:
    for (kind_t, a), (kind_u, b), same in zip(t_layers, u_layers, agree):
        if kind_t == "raised":
            raise a
        if kind_u == "raised":
            raise b
        if not same(a, b):
            return False
    return True


def conversion_stt_from_layers(t_layers, u_layers) -> bool:
    return _converts(t_layers, u_layers, (operator.eq, operator.eq))


def conversion_cc_from_layers(t_layers, u_layers, alg: FiniteAlgebra, cap: int) -> bool:
    def same(a, b):
        return equal_values(a, b, alg, cap)

    return _converts(t_layers, u_layers, (operator.eq, same, same))


def check_conversion_stt(t, u, phi, alg, cap=DEFAULT_CAP) -> bool:
    return conversion_stt_from_layers(*_stt_layers(ORACLE_STT, (t, u), phi, alg, cap))


def check_conversion_cc(t, u, phi, psi, alg, cap=DEFAULT_CAP) -> bool:
    return conversion_cc_from_layers(*_cc_layers(ORACLE_CC, (t, u), phi, psi, alg, cap), alg, cap)


def check_substitution_stt(t, x, u, phi, alg, cap=DEFAULT_CAP) -> bool:
    direct = interp_stt(substitute(t, x, u), phi, alg, cap)
    return direct == interp_stt(t, {**phi, x: interp_stt(u, phi, alg, cap)}, alg, cap)


def check_substitution_cc(t, x, u, phi, psi, alg, cap=DEFAULT_CAP) -> bool:
    subbed = substitute(t, x, u)
    psi_ext = {**psi, x: m_value(u, psi, alg, cap)}
    if not equal_values(m_value(subbed, psi, alg, cap), m_value(t, psi_ext, alg, cap), alg, cap):
        return False
    phi_ext = {**phi, x: interp_cc(u, phi, psi, alg, cap)}
    return equal_values(
        interp_cc(subbed, phi, psi, alg, cap), interp_cc(t, phi_ext, psi_ext, alg, cap), alg, cap
    )


# --- holding the models to the oracle ---------------------------------------------

def assert_stt_agrees(terms, ctx: Context, alg: FiniteAlgebra, cap: int) -> None:
    """`model_stt` evaluates every term as the oracle does under every
    valuation of ctx; given two terms, `check_conversion_stt` also gives
    the verdict built from their layers."""
    for phi in model_stt.enumerate_valuations(ctx, alg, cap):
        oracle = _stt_layers(ORACLE_STT, terms, phi, alg, cap)
        expected = _shown(oracle)
        assert _shown(_stt_layers(STAGED_STT, terms, phi, alg, cap)) == expected, (terms, phi, alg)
        if len(terms) == 2:
            verdict = outcome(model_stt.check_conversion_stt, *terms, phi, alg, cap)
            assert verdict == outcome(conversion_stt_from_layers, *oracle), (terms, phi, alg)


def assert_cc_agrees(terms, ctx: Context, alg: FiniteAlgebra, cap: int) -> list:
    """`model_cc` evaluates every layer of every term as the oracle does
    under every valuation of ctx, and the outcomes are returned.  The inner
    valuations range over the context types' middle-layer values, so those
    types are compared too.  Given two terms, `check_conversion_cc` also
    gives the verdict built from their layers, called as the sweeps call
    it: every inner valuation of an outer one in a row."""
    types = [ty for _, ty in ctx]
    outcomes = []
    for psi in model_cc.enumerate_psis(ctx, alg, cap):
        expected = _shown(_cc_layers(ORACLE_CC, types, {}, psi, alg, cap))
        assert _shown(_cc_layers(STAGED_CC, types, {}, psi, alg, cap)) == expected, (types, psi, alg)
        try:
            phis = model_cc.enumerate_m_valuations(ctx, psi, alg, cap)
        except PiModuloError:
            continue
        for phi in phis:
            oracle = _cc_layers(ORACLE_CC, terms, phi, psi, alg, cap)
            expected = _shown(oracle)
            assert _shown(_cc_layers(STAGED_CC, terms, phi, psi, alg, cap)) == expected, (terms, phi, psi, alg)
            if len(terms) == 2:
                verdict = outcome(model_cc.check_conversion_cc, *terms, phi, psi, alg, cap)
                assert verdict == outcome(conversion_cc_from_layers, *oracle, alg, cap), (terms, phi, psi, alg)
            outcomes += expected
    return outcomes
