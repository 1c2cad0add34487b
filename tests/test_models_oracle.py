"""The staged finite models against the tree-walking oracle.

`model_cc` and `model_stt` stage each term once into closures and run
those; `reference_models` keeps the walkers they replaced, and every layer
of every evaluation must come out as the oracle's.  The inputs are the
ones the sweeps use: every rule of both theories on the 513 full algebras
of size at most 2 under every valuation, the convertible pairs
`model-check` builds (`convertible_pairs(max_size=40)`) on the algebras it
strides to, and substitution instances, all at the benchmark's enumeration
cap of 1024.  The `cc` pairs and instances include ones that stop with the
errors of ROADMAP defect 4b and with `SizeLimitExceeded`, and the tests
check that they do.
"""

import pytest

from pimodulo.algebra import enumerate_full_algebras
from pimodulo import model_cc
from pimodulo.generate import convertible_pairs, sample_well_typed
from pimodulo.syntax import parse_term
from pimodulo.terms import Const, FVar, substitute
from pimodulo.theories import builtin_theory
from reference_models import assert_cc_agrees, assert_stt_agrees, outcome
import reference_models

ALGS = list(enumerate_full_algebras(1)) + list(enumerate_full_algebras(2))
PAIR_ALGS = ALGS[:: len(ALGS) // 8]
CAP = 1024
CONTEXTS = {
    "stt": (("p", Const("o")), ("q", Const("o"))),
    "cc": (("p", Const("U_Type")),),
}
PAIRS = 100
INSTANCES = 200


def raised(outcomes) -> set[str]:
    """The exception classes among the outcomes, and "outside its domain"
    when a finite function was applied off its graph."""
    found = set()
    for layers in outcomes:
        for result in layers:
            if result[0] == "raised":
                found.add(result[1])
                if "outside its domain" in result[2]:
                    found.add("outside its domain")
    return found


@pytest.mark.parametrize("theory", ("stt", "cc"))
def test_rules_evaluate_as_the_oracle_does_on_every_algebra(theory):
    for rule in builtin_theory(theory).theory.rules:
        for alg in ALGS:
            if theory == "stt":
                assert_stt_agrees((rule.lhs, rule.rhs), rule.ctx, alg, CAP)
            else:
                assert_cc_agrees((rule.lhs, rule.rhs), rule.ctx, alg, CAP)


def test_convertible_pairs_evaluate_as_the_oracle_does():
    outcomes = []
    for theory in ("stt", "cc"):
        th = builtin_theory(theory).theory
        ctx = CONTEXTS[theory]
        seeds = [t for t, _ in sample_well_typed(th, PAIRS, 0, ctx)]
        pairs = list(convertible_pairs(th, seeds, max_size=40, ctx=ctx))[:PAIRS]
        assert len(pairs) == PAIRS
        for pair in pairs:
            for alg in PAIR_ALGS:
                if theory == "stt":
                    assert_stt_agrees(pair, ctx, alg, CAP)
                else:
                    outcomes += assert_cc_agrees(pair, ctx, alg, CAP)
    assert {"outside its domain", "UnenumerableUnion", "SizeLimitExceeded"} <= raised(outcomes)


def test_substitution_instances_evaluate_as_the_oracle_does():
    outcomes = []
    for theory in ("stt", "cc"):
        th = builtin_theory(theory).theory
        ctx = CONTEXTS[theory]
        sampled = list(sample_well_typed(th, 600, 1, ctx, max_size=10))
        images = [t for t, ty in sampled if ty == ctx[0][1] and t != FVar(ctx[0][0])]
        for i in range(INSTANCES):
            t = sampled[i % len(sampled)][0]
            u = images[i % len(images)]
            x = ctx[i % len(ctx)][0]
            terms = (substitute(t, x, u), t, u)
            alg = ALGS[i % len(ALGS)]
            if theory == "stt":
                assert_stt_agrees(terms, ctx, alg, CAP)
            else:
                outcomes += assert_cc_agrees(terms, ctx, alg, CAP)
    assert {"outside its domain", "SizeLimitExceeded"} <= raised(outcomes)


def test_terms_equal_up_to_binder_hints_keep_their_own_hints():
    # the middle-layer value of an abstraction over U_Kind is a closure that
    # keeps its body, and the body prints the hint of the inner binder
    alg = ALGS[1]
    first = parse_term("\\A : U_Kind. \\x : eps_Kind A. x")
    second = parse_term("\\B : U_Kind. \\y : eps_Kind B. y")
    assert first == second
    shown = []
    for t in (first, second, first):
        value = model_cc.m_value(t, {}, alg, CAP)
        assert repr(value) == repr(reference_models.m_value(t, {}, alg, CAP))
        shown.append(repr(value))
    assert "hint='x'" in shown[0] and "hint='y'" in shown[1]
    assert shown[0] == shown[2]
    # applying such a closure runs the body staged from its own term
    applied = parse_term("(\\A : U_Kind. \\y : eps_Kind A. y) U_Type")
    assert (outcome(model_cc.m_value, applied, {}, alg, CAP)
            == outcome(reference_models.m_value, applied, {}, alg, CAP))
