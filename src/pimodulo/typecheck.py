"""Syntax-directed typing for the lambda-Pi-calculus modulo a theory.

Types are kept as the typing rules build them and reduced, to weak-head
form only, where a product or a sort must be seen: the head of an
application, a binder domain, a sort check.  Every other comparison is
left to `convertible`, so a term types even if a type in it has no normal
form.  The public `infer` reports normal forms, and so do error messages.
Rewrite rules and signatures are validated against the bare calculus,
with beta conversion only.

An error message is built when it is first read, not at the raise: its
terms and the normal forms of its types are `Deferred` details, and the
types are normalized on the same `Fuel` that the failing check ran on.
So `check` and `infer` raise the type error itself even when showing its
types would run out of fuel; the `FuelError` of showing surfaces only
when the error is settled (`PiModuloError.settled`, or `str`).  A kernel
fault, such as a loose bound variable, is a `RuntimeError`, not a
`PiModuloError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    Deferred,
    DomainMismatch,
    DuplicateName,
    FuelError,
    IllegalSort,
    NonAlgebraicLhs,
    NotAFunction,
    NotBetaNormal,
    PiModuloError,
    TypeMismatch,
    UnboundVariable,
)
from .reduction import (
    Fuel,
    FuelExhausted,
    convertible,
    is_normal,
    normalize,
    rule_overlap_warnings,
    whnf,
)
from .syntax import print_term
from .terms import (
    KIND,
    TYPE,
    App,
    Const,
    Context,
    FVar,
    Lam,
    Pi,
    RewriteRule,
    SortKind,
    SortType,
    Term,
    Theory,
    Var,
    close_binder,
    ctx_lookup,
    free_vars,
    instantiate,
    open_binder,
    pattern_names,
)

# The last term of a reduction that ran out of fuel can be arbitrarily deep
# and long; a FuelError prints it cut to this depth, then to this length.
FUEL_TERM_DEPTH = 24
FUEL_TERM_CHARS = 240


def _cut(t: Term, depth: int) -> Term:
    if depth == 0 and isinstance(t, (App, Pi, Lam)):
        return Const("...")
    match t:
        case App(f, a):
            return App(_cut(f, depth - 1), _cut(a, depth - 1))
        case Pi(hint, a, b) | Lam(hint, a, b):
            return type(t)(hint, _cut(a, depth - 1), _cut(b, depth - 1))
    return t


def _cut_text(t: Term) -> str:
    return print_term(_cut(t, FUEL_TERM_DEPTH))[:FUEL_TERM_CHARS]


def _fueled(result, doing: str):
    """The result of a reduction, or a FuelError if it ran out of fuel."""
    if isinstance(result, FuelExhausted):
        raise FuelError(f"ran out of fuel while {doing}", term=Deferred(_cut_text, result.last))
    return result


def _shown(t: Term, theory: Theory, fuel: Fuel) -> str:
    """The normal form of t, printed for an error message."""
    return print_term(_fueled(normalize(t, theory, fuel=fuel), "normalizing"))


def infer(theory: Theory, ctx: Context, t: Term, fuel: Fuel | None = None) -> Term:
    """Infer the type of t; the result is returned in normal form."""
    fuel = Fuel() if fuel is None else fuel
    return _fueled(normalize(_infer(theory, ctx, t, fuel), theory, fuel=fuel), "normalizing")


def _infer(theory: Theory, ctx: Context, t: Term, fuel: Fuel) -> Term:
    match t:
        case SortType():
            return KIND
        case SortKind():
            raise IllegalSort("Kind has no type", span=t.span)
        case FVar(x):
            ty = ctx_lookup(ctx, x)
            if ty is None:
                ty = theory.const_type(x)
            if ty is None:
                raise UnboundVariable(f"unbound variable {x}", span=t.span)
            return ty
        case Const(c):
            ty = theory.const_type(c)
            if ty is None:
                raise UnboundVariable(f"undeclared constant {c}", span=t.span)
            return ty
        case Var(i):
            raise RuntimeError(f"loose bound variable #{i} (internal invariant broken)")
        case App(f, a):
            pi = head_product(theory, f, _infer(theory, ctx, f, fuel), fuel, t.span)
            return applied_type(theory, pi, a, _infer(theory, ctx, a, fuel), fuel, t.span)
        case Lam(hint, ann, body):
            _check_is_type(theory, ctx, ann, fuel)
            # '!' cannot occur in surface names, and the context grows one
            # binder at a time, so the depth tells apart the names in scope
            x = f"{hint or 'x'}!{len(ctx)}"
            body_ty = _infer(theory, (*ctx, (x, ann)), open_binder(body, x), fuel)
            check_codomain(theory, (*ctx, (x, ann)), body_ty, fuel, t.span)
            return Pi(hint, ann, close_binder(body_ty, x))
        case Pi(hint, dom, cod):
            _check_is_type(theory, ctx, dom, fuel)
            x = f"{hint or 'x'}!{len(ctx)}"
            s = _whnf_type(theory, (*ctx, (x, dom)), open_binder(cod, x), fuel)
            if s not in (TYPE, KIND):
                raise IllegalSort("product codomain is not a type or a kind", span=t.span)
            return s
    raise RuntimeError(f"no typing rule for a {type(t).__name__} node")


# The application and abstraction rules' premises on types, apart from
# the inference of the subterms: `_infer` feeds them inferred types, and
# the sampler in `generate` the stored types of terms it typed before.


def head_product(theory: Theory, f: Term, fty: Term, fuel: Fuel, span=None) -> Pi:
    """The product that fty, the type of an application head f, reduces to
    in weak-head form; NotAFunction if it is not one."""
    pi = _fueled(whnf(fty, theory, fuel=fuel), "reducing a type")
    if not isinstance(pi, Pi):
        raise NotAFunction(
            "application head is not a function",
            span=span,
            term=Deferred(print_term, f),
            actual=Deferred(_shown, pi, theory, fuel),
        )
    return pi


def applied_type(theory: Theory, pi: Pi, a: Term, aty: Term, fuel: Fuel, span=None) -> Term:
    """The type of a head of product type pi applied to a, of type aty:
    the codomain at a; DomainMismatch if aty does not convert to the domain."""
    if not _fueled(convertible(aty, pi.domain, theory, fuel), "comparing types"):
        raise DomainMismatch(
            "argument type does not match the function domain",
            span=span,
            term=Deferred(print_term, a),
            expected=Deferred(_shown, pi.domain, theory, fuel),
            actual=Deferred(_shown, aty, theory, fuel),
        )
    return instantiate(pi.codomain, a)


def check_codomain(theory: Theory, ctx: Context, body_ty: Term, fuel: Fuel, span=None) -> None:
    """IllegalSort unless body_ty, the type of an abstraction's body in
    ctx, is a type or a kind, as the abstraction's product must be."""
    if body_ty == KIND:
        raise IllegalSort("abstraction body is a sort", span=span)
    if _whnf_type(theory, ctx, body_ty, fuel) not in (TYPE, KIND):
        raise IllegalSort("abstraction codomain has no sort", span=span)


def _whnf_type(theory: Theory, ctx: Context, t: Term, fuel: Fuel) -> Term:
    """The type of t in weak-head form, where a product or a sort is demanded."""
    return _fueled(whnf(_infer(theory, ctx, t, fuel), theory, fuel=fuel), "reducing a type")


def _check_is_type(theory: Theory, ctx: Context, a: Term, fuel: Fuel) -> None:
    s = _whnf_type(theory, ctx, a, fuel)
    if s != TYPE:
        raise IllegalSort(
            "binder domain must be a type",
            span=a.span,
            term=Deferred(print_term, a),
            actual=Deferred(_shown, s, theory, fuel),
        )


def check(
    theory: Theory,
    ctx: Context,
    t: Term,
    expected: Term,
    fuel: Fuel | None = None,
) -> None:
    """Check t against an expected type; raises on mismatch."""
    fuel = Fuel() if fuel is None else fuel
    actual = _infer(theory, ctx, t, fuel)
    if not _fueled(convertible(actual, expected, theory, fuel), "comparing types"):
        raise TypeMismatch(
            "term does not have the expected type",
            span=t.span,
            term=Deferred(print_term, t),
            expected=Deferred(_shown, expected, theory, fuel),
            actual=Deferred(_shown, actual, theory, fuel),
        )


def check_context(theory: Theory, ctx: Context, fuel: Fuel | None = None) -> None:
    """Names fresh against the signature and each other; types sorted."""
    fuel = Fuel() if fuel is None else fuel
    seen: set[str] = set()
    for i, (name, ty) in enumerate(ctx):
        if name in seen or theory.const_type(name) is not None:
            raise DuplicateName(f"name {name} is already declared")
        seen.add(name)
        if _whnf_type(theory, ctx[:i], ty, fuel) not in (TYPE, KIND):
            raise IllegalSort(f"type of {name} has no sort", term=Deferred(print_term, ty))


def check_frame(
    theory: Theory,
    ctx: Context,
    ty: Term | None,
    fuel: Fuel | None = None,
) -> None:
    """ctx is well formed and ty, unless it is None or Kind, is a type in it."""
    fuel = Fuel() if fuel is None else fuel
    check_context(theory, ctx, fuel)
    if ty is None or ty == KIND:
        return
    s = _whnf_type(theory, ctx, ty, fuel)
    if s not in (TYPE, KIND):
        raise IllegalSort(
            "not a type: its type is not a sort",
            span=ty.span,
            term=Deferred(print_term, ty),
            actual=Deferred(_shown, s, theory, fuel),
        )


def check_rule(theory: Theory, rule: RewriteRule, fuel: Fuel | None = None) -> None:
    """Validate one rewrite rule against the bare signature (beta only)."""
    fuel = Fuel() if fuel is None else fuel
    plain = theory.without_rules()
    check_context(plain, rule.ctx, fuel)
    for part, name in ((rule.lhs, "lhs"), (rule.rhs, "rhs"), (rule.rtype, "rule type")):
        if not is_normal(part, plain):
            raise NotBetaNormal(f"{name} of rule {rule.label} is not beta-normal",
                                 term=Deferred(print_term, part))
    lhs_vars = pattern_names(rule.lhs)
    if lhs_vars is None:
        raise NonAlgebraicLhs(f"rule {rule.label}: lhs is not an algebraic pattern")
    ctx_names = {n for n, _ in rule.ctx}
    if not set(lhs_vars) <= ctx_names:
        stray = sorted(set(lhs_vars) - ctx_names)
        raise UnboundVariable(f"rule {rule.label}: lhs variables {stray} not in the pattern context")
    stray_rhs = sorted(free_vars(rule.rhs) - set(lhs_vars))
    if stray_rhs:
        raise UnboundVariable(f"rule {rule.label}: rhs variables {stray_rhs} do not occur in the lhs")
    if _whnf_type(plain, rule.ctx, rule.rtype, fuel) not in (TYPE, KIND):
        raise IllegalSort(f"rule {rule.label}: rule type has no sort")
    check(plain, rule.ctx, rule.lhs, rule.rtype, fuel)
    check(plain, rule.ctx, rule.rhs, rule.rtype, fuel)


@dataclass
class TheoryReport:
    """Each item's label with "ok" or its settled error."""

    items: list[tuple[str, str | PiModuloError]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(status == "ok" for _, status in self.items)

    def errors(self) -> list[tuple[str, str | PiModuloError]]:
        return [(label, status) for label, status in self.items if status != "ok"]


def check_theory(theory: Theory, fuel: Fuel | None = None) -> TheoryReport:
    """Validate the signature and every rule; collect per-item statuses."""
    fuel = Fuel() if fuel is None else fuel
    report = TheoryReport()
    seen: set[str] = set()
    for i, (name, ty) in enumerate(theory.signature):
        label = f"constant {name}"
        try:
            if name in seen:
                raise DuplicateName(f"constant {name} declared twice")
            seen.add(name)
            prefix = Theory(signature=theory.signature[:i])
            if _whnf_type(prefix, (), ty, fuel) not in (TYPE, KIND):
                raise IllegalSort(f"type of constant {name} has no sort")
            report.items.append((label, "ok"))
        except PiModuloError as exc:
            report.items.append((label, exc.settled()))
    for rule in theory.rules:
        label = f"rule {rule.label}"
        try:
            check_rule(theory, rule, fuel)
            report.items.append((label, "ok"))
        except PiModuloError as exc:
            report.items.append((label, exc.settled()))
    report.warnings.extend(rule_overlap_warnings(theory))
    return report
