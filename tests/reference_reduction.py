"""Reference normalizer: the original rescan-from-root reduction strategy.

Every step tries every rule at every position from the root, then
rebuilds with `replace_at`; this is slow but plainly leftmost-outermost,
so the oracle tests hold `pimodulo.reduction` to it.  It shares no
root-step code with the package: beta is found by a `match` statement,
rules match through `match_pattern` below, the package's recursive
matcher as it was before rules were compiled, and contracta are built by
the recursive `instantiate` and `substitute_many` of `reference_terms`.
So `reduction.r_root(sub) == r_root(sub)` holds the compiled rules and
the root test to code they do not run.

The oracle has two modes, beta plus the theory's rules and beta alone.
The package takes no mode: `assert_agrees` asks it for beta alone as
reduction under `theory.without_rules()`.
"""

from __future__ import annotations

from pimodulo import reduction
from pimodulo.reduction import Fuel, FuelExhausted
from pimodulo.syntax import print_term
from pimodulo.terms import (
    App,
    Const,
    FVar,
    Lam,
    Position,
    SortKind,
    SortType,
    Term,
    Theory,
    children,
    replace_at,
    subterm_positions,
)
from reference_terms import instantiate, substitute_many

BETA = "beta"
BETA_R = "beta-R"


def beta_root(t: Term) -> Term | None:
    match t:
        case App(Lam(_, _, body), arg):
            return instantiate(body, arg)
        case _:
            return None


def match_pattern(lhs: Term, t: Term) -> dict[str, Term] | None:
    """First-order match of an algebraic pattern against a subject term."""
    binding: dict[str, Term] = {}

    def go(pat: Term, sub: Term) -> bool:
        match pat:
            case FVar(x):
                binding[x] = sub
                return True
            case Const(c):
                return isinstance(sub, Const) and sub.name == c
            case App(pf, pa):
                return isinstance(sub, App) and go(pf, sub.fn) and go(pa, sub.arg)
            case SortType() | SortKind():
                return pat == sub
            case _:
                # binders never occur in an algebraic pattern
                return False

    return binding if go(lhs, t) else None


def r_root(t: Term, theory: Theory) -> tuple[Term, str] | None:
    for rule in theory.rules:
        binding = match_pattern(rule.lhs, t)
        if binding is not None:
            return substitute_many(rule.rhs, binding), rule.label
    return None


def root_steps(t: Term, theory: Theory, mode: str) -> list[tuple[Term, str]]:
    out = []
    reduct = beta_root(t)
    if reduct is not None:
        out.append((reduct, "beta"))
    if mode == BETA_R:
        hit = r_root(t, theory)
        if hit is not None:
            out.append(hit)
    return out


def one_step_reducts(t: Term, theory: Theory, mode: str = BETA_R) -> list[Term]:
    out: list[Term] = []
    for pos, sub in subterm_positions(t):
        for reduct, _ in root_steps(sub, theory, mode):
            out.append(replace_at(t, pos, reduct))
    return list(dict.fromkeys(out))


def leftmost_outermost(t: Term, theory: Theory, mode: str) -> tuple[Position, Term, str] | None:
    def go(sub: Term, pos: Position):
        steps = root_steps(sub, theory, mode)
        if steps:
            reduct, label = steps[0]
            return pos, reduct, label
        for i, child in enumerate(children(sub)):
            hit = go(child, pos + (i,))
            if hit is not None:
                return hit
        return None

    return go(t, ())


def normalize(t, theory, mode=BETA_R, fuel=None, trace=None):
    if fuel is None:
        fuel = Fuel()
    while True:
        hit = leftmost_outermost(t, theory, mode)
        if hit is None:
            return t
        if not fuel.spend():
            return FuelExhausted(t)
        pos, reduct, label = hit
        t = replace_at(t, pos, reduct)
        if trace is not None:
            trace.append((pos, label, t))


def whnf(t, theory, mode=BETA_R, fuel=None):
    if fuel is None:
        fuel = Fuel()
    while True:
        hit = leftmost_outermost(t, theory, mode)
        # a root that is not an application stops only if it is no redex
        if hit is None or (hit[0] and not isinstance(t, App)):
            return t
        if not fuel.spend():
            return FuelExhausted(t)
        pos, reduct, _ = hit
        t = replace_at(t, pos, reduct)


def is_normal(t: Term, theory: Theory, mode: str = BETA_R) -> bool:
    return leftmost_outermost(t, theory, mode) is None


def _outcome(result):
    if isinstance(result, FuelExhausted):
        return "exhausted", result.last
    return "done", result


def assert_agrees(t: Term, theory: Theory, mode: str, fuel: int) -> None:
    """The package's reduction takes exactly the reference's steps on t:
    same normal form or last term, trace, fuel spent, weak-head form,
    normality, root steps and one-step reducts.  The trace and the reducts
    are compared printed as well, so binder hints count too."""
    reducing = theory if mode == BETA_R else theory.without_rules()
    got_fuel, want_fuel = Fuel(fuel), Fuel(fuel)
    got_trace: list = []
    want_trace: list = []
    got = reduction.normalize(t, reducing, fuel=got_fuel, trace=got_trace)
    want = normalize(t, theory, mode, want_fuel, trace=want_trace)
    assert _outcome(got) == _outcome(want)
    assert got_trace == want_trace
    assert [print_term(u) for _, _, u in got_trace] == [print_term(u) for _, _, u in want_trace]
    assert got_fuel.remaining == want_fuel.remaining
    # without a trace the path above a step is rebuilt lazily
    assert _outcome(reduction.normalize(t, reducing, fuel=Fuel(fuel))) == _outcome(want)

    got_fuel, want_fuel = Fuel(fuel), Fuel(fuel)
    got = reduction.whnf(t, reducing, fuel=got_fuel)
    assert _outcome(got) == _outcome(whnf(t, theory, mode, want_fuel))
    assert got_fuel.remaining == want_fuel.remaining

    assert reduction.is_normal(t, reducing) == is_normal(t, theory, mode)
    got = reduction.one_step_reducts(t, reducing)
    want = one_step_reducts(t, theory, mode)
    assert got == want
    assert [print_term(u) for u in got] == [print_term(u) for u in want]
    for _, sub in subterm_positions(t):
        assert reduction.r_root(sub, theory) == r_root(sub, theory)
