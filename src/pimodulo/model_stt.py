"""The finite model of the simple-type-theory embedding.

The one-layer case of the model: every term gets a domain (a set) and,
once a valuation supplies values for its free variables, an
interpretation (an element).  Domains are the algebra's carrier B, the
one-point set {e}, or function spaces over them; the values, their
collapse convention and their enumeration live in `values`.
"""

from __future__ import annotations

from itertools import product

from .algebra import FiniteAlgebra
from .errors import PiModuloError
from .syntax import parse_term
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
)
from .values import (
    CARRIER,
    DEFAULT_CAP,
    E_POINT,
    SINGLETON_E,
    AlgElem,
    ElemValue,
    SetValue,
    apply_elem,
    as_carrier,
    enumerate_set,
    finite_fun,
    fun_space,
)


# --- domains ---------------------------------------------------------------

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


# --- interpretation --------------------------------------------------------

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


# --- the lemma checks ------------------------------------------------------

def check_lemma1_stt(t: Term) -> bool:
    """For terms free of Kind, Type, and o the domain collapses to {e}."""
    return domain_stt(t) == SINGLETON_E


def check_substitution_stt(
    t: Term, x: str, u: Term,
    phi: dict[str, ElemValue], alg: FiniteAlgebra, cap: int = DEFAULT_CAP,
) -> bool:
    direct = interp_stt(substitute(t, x, u), phi, alg, cap)
    shifted = interp_stt(t, {**phi, x: interp_stt(u, phi, alg, cap)}, alg, cap)
    return direct == shifted


def check_conversion_stt(
    t: Term, u: Term,
    phi: dict[str, ElemValue], alg: FiniteAlgebra, cap: int = DEFAULT_CAP,
) -> bool:
    if domain_stt(t) != domain_stt(u):
        return False
    return interp_stt(t, phi, alg, cap) == interp_stt(u, phi, alg, cap)


def enumerate_valuations(
    ctx: Context, alg: FiniteAlgebra,
    cap: int = DEFAULT_CAP, seed: int = 0,
) -> list[dict[str, ElemValue]]:
    """All valuations for a context, or a seeded sample when the full
    product would pass the cap."""
    names = [name for name, _ in ctx]
    pools = [enumerate_set(domain_stt(ty), alg, cap) for _, ty in ctx]
    total = 1
    for pool in pools:
        total *= len(pool)
    if total <= cap:
        return [dict(zip(names, combo)) for combo in product(*pools)]
    import random

    rng = random.Random(seed)
    return [
        {name: rng.choice(pool) for name, pool in zip(names, pools)}
        for _ in range(cap)
    ]
