"""The reduction core against the reference rescan-from-root normalizer.

The rule index and the resumed search must not change a single step, so
on seeded corpora of both shipped theories, in both modes, every
observable of a reduction has to agree with `reference_reduction`.
"""

import pytest

from pimodulo.generate import enumerate_raw_terms, sample_well_typed
from pimodulo.syntax import parse_term, parse_theory
from pimodulo.terms import TYPE, Const, FVar, compile_lhs
from pimodulo.theories import builtin_theory
from reference_reduction import BETA, BETA_R, assert_agrees, is_algebraic

CONTEXTS = {
    "stt": "p : o, q : o, f : eps p -> eps q, a : eps p",
    "cc": "p : U_Type, a : eps_Type p",
}
CORPUS = 800
FUEL = 10_000


def context(text: str):
    ctx = []
    for item in text.split(", "):
        name, ty = item.split(" : ")
        ctx.append((name, parse_term(ty, frozenset(n for n, _ in ctx))))
    return tuple(ctx)


@pytest.fixture(scope="module", params=sorted(CONTEXTS))
def corpus(request):
    name = request.param
    theory = builtin_theory(name).theory
    terms = [t for t, _ in sample_well_typed(theory, CORPUS, 7, context(CONTEXTS[name]))]
    return theory, terms


@pytest.mark.parametrize("mode", (BETA, BETA_R))
def test_corpus_reduces_as_the_reference_does(corpus, mode):
    theory, terms = corpus
    for t in terms:
        assert_agrees(t, theory, mode, FUEL)


def test_marks_left_under_other_rules_change_no_step(corpus):
    # the same term objects go through every theory twice, so each walk
    # meets the marks that walks under the other rules tuples left
    _, terms = corpus
    theories = [builtin_theory(name).theory for name in sorted(CONTEXTS)]
    for _ in range(2):
        for t in terms[::4]:
            for theory in theories:
                for mode in (BETA, BETA_R):
                    assert_agrees(t, theory, mode, FUEL)


@pytest.mark.parametrize("mode", (BETA, BETA_R))
def test_starved_budgets_stop_where_the_reference_stops(corpus, mode):
    theory, terms = corpus
    for t in terms[::4]:
        for fuel in (0, 1, 2, 5):
            assert_agrees(t, theory, mode, fuel)


@pytest.mark.parametrize("n", (1, 4, 12))
def test_roadmap_chains_reduce_as_the_reference_does(n):
    stt = builtin_theory("stt").theory
    eps_chain = "p"
    beta_chain = "p"
    for _ in range(n):
        eps_chain = f"imp p ({eps_chain})"
        beta_chain = f"(\\x : o. x) ({beta_chain})"
    for text in (f"eps ({eps_chain})", f"\\h : eps ({eps_chain}). h", beta_chain):
        t = parse_term(text, frozenset({"p"}))
        for mode in (BETA, BETA_R):
            assert_agrees(t, stt, mode, FUEL)
            assert_agrees(t, stt, mode, n)


@pytest.mark.parametrize("text", ("P", "\\x : P. x", "(\\x : P. x) (\\y : P. y)"))
def test_binder_nests_reduce_as_the_reference_does(text):
    # P --> P -> Q nests binders as deep as the fuel allows, deeper than
    # any corpus term, so steps fall under long runs of binders
    loop = parse_theory("P : Type\nQ : Type\n[] P --> P -> Q : Type\n").theory
    t = parse_term(text)
    for mode in (BETA, BETA_R):
        for fuel in (0, 1, 5, 50):
            assert_agrees(t, loop, mode, fuel)


def test_exactly_the_algebraic_patterns_compile():
    # every raw term up to size 5 as an lhs: a variable at a head, a
    # repeated variable, a sort, a binder or a bound variable compiles to
    # no program, and anything else does
    atoms = (Const("f"), Const("c"), FVar("x"), FVar("y"), TYPE)
    compiled = 0
    for lhs in enumerate_raw_terms(5, atoms):
        assert (compile_lhs(lhs) is None) == (not is_algebraic(lhs)), lhs
        compiled += compile_lhs(lhs) is not None
    assert compiled > 0
