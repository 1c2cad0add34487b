"""Tests for the reducibility-candidate desk checks.

The strong-normalization oracle walks the full beta-reduction tree, the
membership test samples function-space domains with finite probes, and
the lemma checkers report tri-state verdicts that are never quietly
optimistic: anything the budget cannot settle comes back "unknown".
"""

import pytest

from pimodulo.candidates import (
    PiC,
    StronglyNormalizing,
    T_TOP,
    Intersect,
    check_application_lemma,
    check_closure_lemma,
    check_variables_lemma,
    created_beta_redices_are_trivial,
    default_probes,
    enumerate_candidates,
    in_candidate,
    sn_check,
    stt_measure,
)
from pimodulo.reduction import Fuel, FuelExhausted, one_step_reducts
from pimodulo.syntax import parse_term
from pimodulo.terms import App, Const, FVar, Lam, RewriteRule, TYPE, Theory, Var
from pimodulo.theories import builtin_theory

STT = builtin_theory("stt").theory
CC = builtin_theory("cc").theory

OMEGA = App(Lam("x", TYPE, App(Var(0), Var(0))), Lam("x", TYPE, App(Var(0), Var(0))))
IDENT = Lam("a", TYPE, Var(0))


def stt_term(text, *free):
    return parse_term(text, var_names=frozenset(free))


# --- strong normalization ---


def test_normal_terms_normalize_at_depth_zero():
    assert sn_check(FVar("x")) == StronglyNormalizing(0)


def test_depth_counts_the_longest_sequence():
    assert sn_check(App(IDENT, FVar("y"))) == StronglyNormalizing(1)
    nested = App(IDENT, App(IDENT, FVar("y")))
    assert sn_check(nested) == StronglyNormalizing(2)


def test_a_deep_application_chain_is_walked_without_recursion():
    # one beta redex at the head of a chain 3,000 applications deep
    t = App(IDENT, FVar("y"))
    for _ in range(3_000):
        t = App(t, FVar("z"))
    assert sn_check(t, 100) == StronglyNormalizing(1)


def test_self_application_exhausts_fuel():
    verdict = sn_check(OMEGA, fuel=1000)
    assert isinstance(verdict, FuelExhausted)
    assert verdict.last == OMEGA


def test_tiny_budgets_exhaust_on_harmless_terms():
    verdict = sn_check(App(IDENT, App(IDENT, FVar("y"))), fuel=Fuel(1))
    assert isinstance(verdict, FuelExhausted)


def test_rewrite_steps_count_with_a_theory():
    t = stt_term("eps (imp p q)", "p", "q")
    assert sn_check(t) == StronglyNormalizing(0)
    assert sn_check(t, theory=STT) == StronglyNormalizing(1)


def test_verdicts_match_cleanly():
    match sn_check(FVar("x")):
        case StronglyNormalizing(depth):
            assert depth == 0
        case FuelExhausted(_):
            pytest.fail("normal term reported as exhausted")


# --- membership ---


def test_default_probe_shapes():
    probes = default_probes()
    assert len(probes) == 3
    assert any(isinstance(p, FVar) for p in probes)
    assert any(isinstance(p, App) for p in probes)
    assert any(isinstance(p, Lam) for p in probes)


def test_normalizing_terms_belong_to_the_top_candidate():
    assert in_candidate(FVar("x"), T_TOP) == "yes"
    assert in_candidate(App(IDENT, FVar("y")), T_TOP) == "yes"


def test_diverging_terms_are_unknown():
    assert in_candidate(OMEGA, T_TOP, fuel=1000) == "unknown"


def test_identity_inhabits_the_simplest_function_candidate():
    assert in_candidate(IDENT, PiC(T_TOP, frozenset({T_TOP}))) == "yes"


def test_variables_inhabit_function_candidates_vacuously():
    assert in_candidate(FVar("f"), PiC(T_TOP, frozenset({T_TOP}))) == "yes"


def test_intersections_join_member_verdicts():
    cand = Intersect(frozenset({T_TOP, PiC(T_TOP, frozenset({T_TOP}))}))
    assert in_candidate(IDENT, cand) == "yes"
    assert in_candidate(OMEGA, cand, fuel=1000) == "unknown"


def test_the_budget_is_shared_across_subqueries():
    cand = PiC(T_TOP, frozenset({T_TOP}))
    assert in_candidate(IDENT, cand, fuel=Fuel(2)) == "unknown"


def test_candidate_enumeration_grows_by_construction_depth():
    assert enumerate_candidates(1) == [T_TOP]
    assert len(enumerate_candidates(2)) == 2
    depth3 = enumerate_candidates(3)
    assert len(depth3) == 8
    assert len(set(depth3)) == 8
    assert depth3[0] == T_TOP


# --- the candidate lemmas ---


def test_variables_lemma_across_the_enumeration():
    for cand in enumerate_candidates(3):
        assert check_variables_lemma(cand) == "yes", cand


def test_closure_lemma_on_a_redex():
    redex = App(IDENT, FVar("u'"))
    assert check_closure_lemma(redex, T_TOP) == "yes"
    assert check_closure_lemma(redex, PiC(T_TOP, frozenset({T_TOP}))) == "yes"


def test_closure_lemma_reports_undecided_members():
    assert check_closure_lemma(OMEGA, T_TOP, fuel=1000) == "unknown"


def test_application_lemma_with_an_abstraction_head():
    verdict = check_application_lemma(IDENT, FVar("q'"), T_TOP, {T_TOP})
    assert verdict == "yes"


def test_application_lemma_with_a_variable_head():
    verdict = check_application_lemma(FVar("f"), FVar("q'"), T_TOP, {T_TOP})
    assert verdict == "yes"


def test_application_lemma_reports_undecided_premises():
    verdict = check_application_lemma(OMEGA, FVar("q'"), T_TOP, {T_TOP}, fuel=1000)
    assert verdict == "unknown"


# --- the termination measure ---


def test_measure_counts_logical_constants():
    assert stt_measure(stt_term("eps (imp p q)", "p", "q")) == 1
    assert stt_measure(stt_term("imp (imp p q)", "p", "q")) == 2
    assert stt_measure(stt_term("eps (all[iota] (\\y : iota. p))", "p")) == 1
    assert stt_measure(FVar("p")) == 0


def test_rewrite_steps_strictly_decrease_the_measure():
    terms = [
        stt_term("eps (imp p q)", "p", "q"),
        stt_term("eps (all[iota] (\\y : iota. p))", "p"),
        stt_term("eps (imp (imp p q) (imp q p))", "p", "q"),
        stt_term("eps (all[o] (\\y : o. imp y y))"),
    ]
    for t in terms:
        before = stt_measure(t)
        reducts = one_step_reducts(t, STT)
        assert reducts
        for u in reducts:
            assert stt_measure(u) < before, (t, u)


# --- beta redices created by rewrite steps ---


def test_shipped_rules_create_only_variable_arguments():
    samples = [
        stt_term("eps (imp p q)", "p", "q"),
        stt_term("eps (all[iota] (\\y : iota. p))", "p"),
        stt_term("eps (all[iota->o] (\\f : iota -> o. all[iota] (\\y : iota. f y)))"),
    ]
    for t in samples:
        assert created_beta_redices_are_trivial(t, STT)


def test_redices_carried_inside_pattern_images_are_residuals():
    t = stt_term("eps (imp ((\\x : o. x) (imp p q)) r)", "p", "q", "r")
    assert created_beta_redices_are_trivial(t, STT)


def test_constructions_rules_create_only_variable_arguments():
    samples = [
        parse_term("eps_Type (pi_TTT c (\\x : eps_Type c. c))", var_names=frozenset({"c"})),
        parse_term("eps_Kind (pi_TKK c (\\x : eps_Type c. dot_Type))", var_names=frozenset({"c"})),
        parse_term("eps_Kind (pi_KKK dot_Type (\\x : eps_Kind dot_Type. dot_Type))"),
    ]
    for t in samples:
        assert created_beta_redices_are_trivial(t, CC)


def test_a_rule_applying_a_pattern_variable_to_a_compound_is_flagged():
    bad = Theory(
        signature=STT.signature,
        rules=(
            RewriteRule(
                (),
                stt_term("eps X", "X"),
                stt_term("X (imp X X)", "X"),
                TYPE,
                "b1",
            ),
        ),
    )
    t = App(Const("eps"), Lam("x", Const("o"), Var(0)))
    assert not created_beta_redices_are_trivial(t, bad)


def test_an_abstraction_contractum_consumed_by_a_compound_is_flagged():
    unwrap = Theory(
        signature=STT.signature,
        rules=(
            RewriteRule((), stt_term("eps X", "X"), stt_term("X", "X"), TYPE, "u1"),
        ),
    )
    site = App(Const("eps"), IDENT)
    assert created_beta_redices_are_trivial(App(site, FVar("q")), unwrap)
    assert not created_beta_redices_are_trivial(App(site, App(FVar("q"), FVar("q"))), unwrap)
