import pytest

from pimodulo.errors import (
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
from pimodulo.reduction import Fuel
from pimodulo.syntax import parse_judgement, parse_term, parse_theory, print_term
from pimodulo.terms import (
    App,
    Const,
    FVar,
    KIND,
    Lam,
    RewriteRule,
    TYPE,
    Var,
)
from pimodulo.theories import builtin_theory
from pimodulo.typecheck import (
    TheoryReport,
    check,
    check_context,
    check_rule,
    check_theory,
    infer,
)

STT = builtin_theory("stt").theory
CC = builtin_theory("cc").theory


def judged(text: str):
    j = parse_judgement(text)
    return j.ctx, j.term


# ------------- inference -------------


def test_constants_infer_their_declared_types() -> None:
    assert print_term(infer(STT, (), Const("imp"))) == "o -> o -> o"
    assert infer(STT, (), Const("o")) == TYPE


def test_context_variables_infer_normalized_types() -> None:
    ctx, t = judged("p : o, q : o, h : eps (imp p q) |- h")
    assert print_term(infer(STT, ctx, t)) == "eps p -> eps q"


def test_application_converts_across_a_rewrite_rule() -> None:
    # f's declared type only becomes an arrow after one rule step
    ctx, t = judged("p : o, q : o, f : eps (imp p q), h : eps p |- f h")
    assert print_term(infer(STT, ctx, t)) == "eps q"


def test_lambda_infers_a_product() -> None:
    ctx, t = judged("p : o |- \\x : o. imp x p")
    assert print_term(infer(STT, ctx, t)) == "o -> o"


def test_dependent_product_lands_in_type() -> None:
    ctx, t = judged("|- Pi x : o. eps x")
    assert infer(STT, ctx, t) == TYPE


def test_product_over_types_lands_in_kind() -> None:
    assert infer(STT, (), parse_term("o -> Type")) == KIND


def test_cc_decoding_of_the_universe_code() -> None:
    ctx, t = judged("x : eps_Kind dot_Type |- x")
    assert infer(CC, ctx, t) == Const("U_Type")


def test_beta_mode_skips_the_rules() -> None:
    ctx, t = judged("p : o, q : o, h : eps (imp p q) |- h")
    got = infer(STT.without_rules(), ctx, t)
    assert print_term(got) == "eps (imp p q)"


# ------------- inference failures -------------


def test_loose_variables_are_unbound() -> None:
    with pytest.raises(UnboundVariable):
        infer(STT, (), FVar("loose"))


def test_kind_has_no_type() -> None:
    with pytest.raises(IllegalSort):
        infer(STT, (), KIND)


def test_a_loose_bound_variable_is_a_fault_not_a_type_error() -> None:
    # no parsed term reaches the kernel with a loose index; one that does
    # is a fault of pimodulo, which the CLI reports as internal-error
    with pytest.raises(RuntimeError, match="loose bound variable #0") as exc:
        infer(STT, (), Var(0))
    assert not isinstance(exc.value, PiModuloError)


def test_a_term_of_no_known_class_names_only_its_class() -> None:
    class Stray:
        def __repr__(self):
            raise AssertionError("repr recurses on deep terms and must not be called")

    with pytest.raises(RuntimeError, match="^no typing rule for a Stray node$"):
        infer(STT, (), Stray())


def test_binder_annotations_must_be_sorted() -> None:
    with pytest.raises(IllegalSort):
        infer(STT, (), Lam("x", KIND, Var(0)))


def test_applying_a_non_function_fails() -> None:
    ctx, t = judged("p : o |- p p")
    with pytest.raises(NotAFunction):
        infer(STT, ctx, t)


def test_argument_domain_mismatch_fails() -> None:
    ctx, t = judged("p : o |- eps (eps p)")
    with pytest.raises(DomainMismatch):
        infer(STT, ctx, t)


def test_out_of_fuel_surfaces_as_fuel_error() -> None:
    ctx, t = judged("p : o, q : o, h : eps (imp p q) |- h")
    with pytest.raises(FuelError):
        infer(STT, ctx, t, fuel=Fuel(0))


# ------------- checking -------------


def test_check_accepts_a_convertible_type() -> None:
    ctx, t = judged("p : o, q : o, h : eps (imp p q) |- h")
    check(STT, ctx, t, parse_term("eps p -> eps q", var_names={"p", "q"}))


def test_check_rejects_a_wrong_type() -> None:
    ctx, t = judged("p : o |- p")
    with pytest.raises(TypeMismatch):
        check(STT, ctx, t, TYPE)


def test_check_context_rejects_duplicates() -> None:
    ctx = (("x", Const("o")), ("x", Const("o")))
    with pytest.raises(DuplicateName):
        check_context(STT, ctx)


def test_check_context_rejects_signature_shadowing() -> None:
    with pytest.raises(DuplicateName):
        check_context(STT, (("imp", Const("o")),))


def test_check_context_requires_sorted_types() -> None:
    # imp : o -> o -> o is not a sort, so nothing can be declared at it
    with pytest.raises(IllegalSort):
        check_context(STT, (("x", Const("imp")),))


# ------------- rule validation -------------


def test_every_shipped_rule_passes() -> None:
    for th in (STT, CC):
        for rule in th.rules:
            check_rule(th, rule)


def test_rule_with_mistyped_rhs_fails() -> None:
    r1 = STT.rules[0]
    broken = RewriteRule(r1.ctx, r1.lhs, FVar("X"), r1.rtype, "broken")
    with pytest.raises(TypeMismatch):
        check_rule(STT, broken)


def test_mutating_a_rule_type_fails() -> None:
    # both sides type at the recorded rule type, so changing it to any
    # other well-sorted type must break at least one side
    for th, wrong in ((STT, Const("iota")), (CC, Const("U_Type"))):
        for rule in th.rules:
            mutated = RewriteRule(rule.ctx, rule.lhs, rule.rhs, wrong, rule.label)
            with pytest.raises(TypeMismatch):
                check_rule(th, mutated)


def test_rule_sides_must_be_beta_normal() -> None:
    redex = App(Lam("x", Const("o"), Var(0)), FVar("X"))
    r1 = STT.rules[0]
    broken = RewriteRule(r1.ctx, r1.lhs, App(Const("eps"), redex), TYPE, "broken")
    with pytest.raises(NotBetaNormal):
        check_rule(STT, broken)


def test_rule_lhs_must_be_algebraic() -> None:
    broken = RewriteRule(
        (("X", Const("o")),), Lam("x", Const("o"), Var(0)),
        FVar("X"), Const("o"), "broken",
    )
    with pytest.raises(NonAlgebraicLhs):
        check_rule(STT, broken)


def test_rule_rhs_variables_must_come_from_the_lhs() -> None:
    r1 = STT.rules[0]
    broken = RewriteRule(r1.ctx, r1.lhs, App(Const("eps"), FVar("Z")), TYPE, "broken")
    with pytest.raises(UnboundVariable):
        check_rule(STT, broken)


def test_rule_validation_ignores_the_rules_themselves() -> None:
    # the lhs eps (imp X Y) types in the bare calculus; if validation used
    # the rules it would normalize the lhs away and reject it
    check_rule(STT, STT.rules[0])


# ------------- whole-theory reports -------------


def test_shipped_theories_report_all_ok() -> None:
    for th in (STT, CC):
        report = check_theory(th)
        assert report.ok
        assert report.errors() == []
        assert report.warnings == []


def test_report_counts_constants_and_rules() -> None:
    report = check_theory(STT)
    assert len(report.items) == 7 + 4


def test_signature_prefix_discipline() -> None:
    # a constant may only mention constants declared before it
    th = parse_theory("f : c -> c\nc : Type\n").theory
    report = check_theory(th)
    assert not report.ok
    assert report.items[0][0] == "constant f"
    assert report.items[0][1] != "ok"


def test_broken_rule_is_reported_not_raised() -> None:
    text = "c : Type\nf : c -> c\n[X : c] f X --> g X : c\n"
    report = check_theory(parse_theory(text).theory)
    bad = dict(report.errors())
    assert "rule r1" in bad


def test_theory_report_ok_is_conjunctive() -> None:
    report = TheoryReport(items=[("a", "ok"), ("b", "broken")])
    assert not report.ok
    assert report.errors() == [("b", "broken")]
