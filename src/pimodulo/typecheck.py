"""Syntax-directed typing for the lambda-Pi-calculus modulo a theory.

Conversion happens at exactly two places: application arguments and explicit
``check`` sites.  Inferred types are reported in beta-R-normal form.  Rewrite
rules and signatures are validated against the bare calculus, with beta
conversion only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
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
    BETA,
    BETA_R,
    Fuel,
    FuelExhausted,
    convertible,
    is_normal,
    normalize,
    pattern_variables,
    rule_overlap_warnings,
)
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
)

def _normal(t: Term, theory: Theory, mode: str, fuel: Fuel) -> Term:
    result = normalize(t, theory, mode, fuel)
    if isinstance(result, FuelExhausted):
        raise FuelError("ran out of fuel while normalizing", term=result.last)
    return result


def _convertible(t: Term, u: Term, theory: Theory, mode: str, fuel: Fuel) -> bool:
    result = convertible(t, u, theory, fuel, mode)
    if isinstance(result, FuelExhausted):
        raise FuelError("ran out of fuel while comparing types", term=result.last)
    return result


def infer(theory: Theory, ctx: Context, t: Term, fuel: Fuel | None = None, mode: str = BETA_R) -> Term:
    """Infer the type of t; the result is returned in normal form."""
    if fuel is None:
        fuel = Fuel()
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
            return _normal(ty, theory, mode, fuel)
        case Const(c):
            ty = theory.const_type(c)
            if ty is None:
                raise UnboundVariable(f"undeclared constant {c}", span=t.span)
            return _normal(ty, theory, mode, fuel)
        case Var(i):
            raise PiModuloError(f"loose bound variable #{i} (internal invariant broken)")
        case App(f, a):
            fty = infer(theory, ctx, f, fuel, mode)
            if not isinstance(fty, Pi):
                from .syntax import print_term

                raise NotAFunction(
                    "application head is not a function",
                    span=t.span,
                    term=print_term(f),
                    actual=print_term(fty),
                )
            aty = infer(theory, ctx, a, fuel, mode)
            if not _convertible(aty, fty.domain, theory, mode, fuel):
                from .syntax import print_term

                raise DomainMismatch(
                    "argument type does not match the function domain",
                    span=t.span,
                    term=print_term(a),
                    expected=print_term(_normal(fty.domain, theory, mode, fuel)),
                    actual=print_term(aty),
                )
            return _normal(instantiate(fty.codomain, a), theory, mode, fuel)
        case Lam(hint, ann, body):
            _check_is_type(theory, ctx, ann, fuel, mode)
            # '!' cannot occur in surface names, and the context grows one
            # binder at a time, so the depth tells apart the names in scope
            x = f"{hint or 'x'}!{len(ctx)}"
            body_ty = infer(theory, (*ctx, (x, ann)), open_binder(body, x), fuel, mode)
            if body_ty == KIND:
                raise IllegalSort("abstraction body is a sort", span=t.span)
            # the abstraction rule also demands the product itself is sorted
            s = infer(theory, (*ctx, (x, ann)), body_ty, fuel, mode)
            if s != TYPE and s != KIND:
                raise IllegalSort("abstraction codomain has no sort", span=t.span)
            return Pi(hint, _normal(ann, theory, mode, fuel), close_binder(body_ty, x))
        case Pi(hint, dom, cod):
            _check_is_type(theory, ctx, dom, fuel, mode)
            x = f"{hint or 'x'}!{len(ctx)}"
            s = infer(theory, (*ctx, (x, dom)), open_binder(cod, x), fuel, mode)
            if s != TYPE and s != KIND:
                raise IllegalSort("product codomain is not a type or a kind", span=t.span)
            return s
    raise PiModuloError(f"unhandled term {t!r}")


def _check_is_type(theory: Theory, ctx: Context, a: Term, fuel: Fuel, mode: str) -> None:
    s = infer(theory, ctx, a, fuel, mode)
    if s != TYPE:
        from .syntax import print_term

        raise IllegalSort(
            "binder domain must be a type",
            span=a.span,
            term=print_term(a),
            actual=print_term(s),
        )


def check(
    theory: Theory,
    ctx: Context,
    t: Term,
    expected: Term,
    fuel: Fuel | None = None,
    mode: str = BETA_R,
) -> None:
    """Check t against an expected type; raises on mismatch."""
    if fuel is None:
        fuel = Fuel()
    actual = infer(theory, ctx, t, fuel, mode)
    if not _convertible(actual, expected, theory, mode, fuel):
        from .syntax import print_term

        raise TypeMismatch(
            "term does not have the expected type",
            span=t.span,
            term=print_term(t),
            expected=print_term(_normal(expected, theory, mode, fuel)),
            actual=print_term(actual),
        )


def check_context(theory: Theory, ctx: Context, fuel: Fuel | None = None, mode: str = BETA_R) -> None:
    """Names fresh against the signature and each other; types sorted."""
    if fuel is None:
        fuel = Fuel()
    seen: set[str] = set()
    for i, (name, ty) in enumerate(ctx):
        if name in seen or theory.const_type(name) is not None:
            raise DuplicateName(f"name {name} is already declared")
        seen.add(name)
        s = infer(theory, ctx[:i], ty, fuel, mode)
        if s != TYPE and s != KIND:
            from .syntax import print_term

            raise IllegalSort(f"type of {name} has no sort", term=print_term(ty))


def check_frame(
    theory: Theory,
    ctx: Context,
    ty: Term | None,
    fuel: Fuel | None = None,
    mode: str = BETA_R,
) -> None:
    """ctx is well formed and ty, unless it is None or Kind, is a type in it."""
    if fuel is None:
        fuel = Fuel()
    check_context(theory, ctx, fuel, mode)
    if ty is None or ty == KIND:
        return
    s = infer(theory, ctx, ty, fuel, mode)
    if s != TYPE and s != KIND:
        from .syntax import print_term

        raise IllegalSort(
            "not a type: its type is not a sort",
            span=ty.span,
            term=print_term(ty),
            actual=print_term(s),
        )


def check_rule(theory: Theory, rule: RewriteRule, fuel: Fuel | None = None) -> None:
    """Validate one rewrite rule against the bare signature (beta only)."""
    if fuel is None:
        fuel = Fuel()
    plain = theory.without_rules()
    check_context(plain, rule.ctx, fuel, BETA)
    for part, name in ((rule.lhs, "lhs"), (rule.rhs, "rhs"), (rule.rtype, "rule type")):
        if not is_normal(part, plain, BETA):
            from .syntax import print_term

            raise NotBetaNormal(f"{name} of rule {rule.label} is not beta-normal", term=print_term(part))
    try:
        lhs_vars = pattern_variables(rule.lhs)
    except ValueError as exc:
        raise NonAlgebraicLhs(f"rule {rule.label}: {exc}") from None
    ctx_names = {n for n, _ in rule.ctx}
    if not set(lhs_vars) <= ctx_names:
        stray = sorted(set(lhs_vars) - ctx_names)
        raise UnboundVariable(f"rule {rule.label}: lhs variables {stray} not in the pattern context")
    stray_rhs = sorted(free_vars(rule.rhs) - set(lhs_vars))
    if stray_rhs:
        raise UnboundVariable(f"rule {rule.label}: rhs variables {stray_rhs} do not occur in the lhs")
    s = infer(plain, rule.ctx, rule.rtype, fuel, BETA)
    if s != TYPE and s != KIND:
        raise IllegalSort(f"rule {rule.label}: rule type has no sort")
    check(plain, rule.ctx, rule.lhs, rule.rtype, fuel, BETA)
    check(plain, rule.ctx, rule.rhs, rule.rtype, fuel, BETA)


@dataclass
class TheoryReport:
    items: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(status == "ok" for _, status in self.items)

    def errors(self) -> list[tuple[str, str]]:
        return [(label, status) for label, status in self.items if status != "ok"]


def check_theory(theory: Theory, fuel: Fuel | None = None) -> TheoryReport:
    """Validate the signature and every rule; collect per-item statuses."""
    if fuel is None:
        fuel = Fuel()
    report = TheoryReport()
    seen: set[str] = set()
    for i, (name, ty) in enumerate(theory.signature):
        label = f"constant {name}"
        try:
            if name in seen:
                raise DuplicateName(f"constant {name} declared twice")
            seen.add(name)
            prefix = Theory(signature=theory.signature[:i])
            s = infer(prefix, (), ty, fuel, BETA)
            if s != TYPE and s != KIND:
                raise IllegalSort(f"type of constant {name} has no sort")
            report.items.append((label, "ok"))
        except PiModuloError as exc:
            report.items.append((label, str(exc)))
    for rule in theory.rules:
        label = f"rule {rule.label}"
        try:
            check_rule(theory, rule, fuel)
            report.items.append((label, "ok"))
        except PiModuloError as exc:
            report.items.append((label, str(exc)))
    report.warnings.extend(rule_overlap_warnings(theory))
    return report
