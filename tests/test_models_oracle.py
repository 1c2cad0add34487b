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

The substitution checks keep the work that no inner valuation changes
for the last instance they ran on, and the `cc` conversion check keeps
each verdict across algebras, under the table entries it read.  Their
verdicts are held to checks built afresh from the oracle's layers, in the
sweeps' order (every inner valuation of an outer valuation in a row),
with two items interleaved so that nothing kept is reused, and with an
outer valuation changed in place between calls.  The conversion verdicts
are also held to the oracle's on every algebra, with the algebras taken
in either order, for items whose verdict depends on the algebra: among
them one whose verdict the middle layer decides, with no table read, on
some outer valuations, and `top` on the rest.  A check that raises keeps
nothing.
"""

from itertools import islice

import pytest

from pimodulo.algebra import enumerate_full_algebras
from pimodulo import model_cc, model_stt
from pimodulo.errors import PiModuloError
from pimodulo.generate import convertible_pairs, sample_well_typed
from pimodulo.syntax import parse_term
from pimodulo.terms import App, Const, FVar, Lam, Var, substitute
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
        value = model_cc.m_value(t, {})
        assert repr(value) == repr(reference_models.m_value(t, {}, alg, CAP))
        shown.append(repr(value))
    assert "hint='x'" in shown[0] and "hint='y'" in shown[1]
    assert shown[0] == shown[2]
    # applying such a closure runs the body staged from its own term
    applied = parse_term("(\\A : U_Kind. \\y : eps_Kind A. y) U_Type")
    assert (outcome(model_cc.m_value, applied, {})
            == outcome(reference_models.m_value, applied, {}, alg, CAP))


# Functions over E are compared on the probe menu.  Each pair's middle
# values are closures over E that differ as terms; the oracle compares them
# with its own menu and canonical forms, so a staged menu or canonical form
# that lost a case would give another verdict.  The first pair agrees on
# the carrier and on {e} and differs on B -> B, the menu's third set: its
# values there are B -> (B -> B) and (B -> B) -> (B -> B).  The second is
# ill-typed: a pi code over such a closure, which must be compared through
# the code, and which agrees on every probe.
MENU_PAIRS = (
    ("\\A : U_Kind. Pi x : eps_Kind dot_Type. eps_Kind A",
     "\\A : U_Kind. Pi x : eps_Kind A. eps_Kind A"),
    ("pi_KKK (\\A : U_Kind. A)", "pi_KKK (\\A : U_Kind. eps_Kind A)"),
)


@pytest.mark.parametrize("lhs, rhs", MENU_PAIRS, ids=("third-probe", "pi-code"))
def test_functions_over_the_universe_compare_as_the_oracle_compares_them(lhs, rhs):
    terms = (parse_term(lhs), parse_term(rhs))
    for alg in PAIR_ALGS:
        assert_cc_agrees(terms, (), alg, CAP)


# --- the lemma checks ------------------------------------------------------------
#
# The rules and pairs tests above hold the conversion checks to the oracle
# in the sweeps' order, on every rule and algebra.

LEMMAS = {
    ("stt", "conversion"): (model_stt.check_conversion_stt, reference_models.check_conversion_stt),
    ("stt", "substitution"): (model_stt.check_substitution_stt, reference_models.check_substitution_stt),
    ("cc", "conversion"): (model_cc.check_conversion_cc, reference_models.check_conversion_cc),
    ("cc", "substitution"): (model_cc.check_substitution_cc, reference_models.check_substitution_cc),
}
# A full pass of the substitution oracle over every rule's context variables
# and all 513 algebras takes a minute; every 16th algebra keeps both sizes.
SUBST_ALGS = ALGS[::16]


def sweep_valuations(theory, ctx, alg):
    """Every valuation of ctx as the sweeps run them: (phi,) for stt,
    (phi, psi) for cc with every phi of a psi in a row."""
    if theory == "stt":
        return [(phi,) for phi in model_stt.enumerate_valuations(ctx, alg, CAP)]
    out = []
    for psi in model_cc.enumerate_psis(ctx, alg, CAP):
        try:
            phis = model_cc.enumerate_m_valuations(ctx, psi, alg, CAP)
        except PiModuloError:
            continue
        out += [(phi, psi) for phi in phis]
    return out


def rule_items(theory):
    """Per rule, its conversion and a substitution into its lhs for each
    context variable x, by the redex (\\y : T. y) x of x's type T."""
    items = []
    for rule in builtin_theory(theory).theory.rules:
        items.append(("conversion", (rule.lhs, rule.rhs), rule.ctx))
        for x, ty in rule.ctx:
            items.append(("substitution", (rule.lhs, x, App(Lam("y", ty, Var(0)), FVar(x))), rule.ctx))
    return items


def assert_lemma_agrees(theory, lemma, terms, valuation, alg):
    staged, reference = LEMMAS[theory, lemma]
    args = (*terms, *valuation, alg, CAP)
    expected = outcome(reference, *args)
    assert outcome(staged, *args) == expected, (lemma, terms, valuation, alg)
    return expected


@pytest.mark.parametrize("theory", ("stt", "cc"))
def test_substitution_verdicts_in_sweep_order_on_every_rule(theory):
    verdicts = set()
    for lemma, terms, ctx in rule_items(theory):
        if lemma == "substitution":
            for alg in SUBST_ALGS:
                for valuation in sweep_valuations(theory, ctx, alg):
                    verdicts.add(assert_lemma_agrees(theory, lemma, terms, valuation, alg))
    assert ("value", "True") in verdicts


def test_substitution_verdicts_on_sampled_instances():
    for theory in ("stt", "cc"):
        ctx = CONTEXTS[theory]
        sampled = list(sample_well_typed(builtin_theory(theory).theory, 600, 1, ctx, max_size=10))
        images = [t for t, ty in sampled if ty == ctx[0][1] and t != FVar(ctx[0][0])]
        for i in range(INSTANCES):
            terms = (sampled[i % len(sampled)][0], ctx[i % len(ctx)][0], images[i % len(images)])
            alg = ALGS[i % len(ALGS)]
            for valuation in sweep_valuations(theory, ctx, alg):
                assert_lemma_agrees(theory, "substitution", terms, valuation, alg)


@pytest.mark.parametrize("theory", ("stt", "cc"))
def test_lemma_verdicts_with_two_items_interleaved(theory):
    # each call of a check is on another item than its call before, so
    # nothing kept from that call applies
    for lemma in ("conversion", "substitution"):
        items = [item for item in rule_items(theory) if item[0] == lemma]
        assert len(items) > 1
        for alg in PAIR_ALGS:
            for first, second in zip(items, items[1:] + items[:1]):
                runs = [sweep_valuations(theory, ctx, alg) for _, _, ctx in (first, second)]
                for k in range(max(map(len, runs))):
                    for (_, terms, _), run in zip((first, second), runs):
                        if run:
                            assert_lemma_agrees(theory, lemma, terms, run[k % len(run)], alg)


def test_lemma_verdicts_follow_an_outer_valuation_changed_in_place():
    # M(X) is the outer value of X, so X and dot_Type agree in the middle
    # layer only where psi maps X to the carrier; a binder over eps_Kind Z
    # ranges over the set psi gives Z.  Work kept from a psi that the
    # caller's dict has since left behind would change the verdicts.
    ctx = (("X", Const("U_Kind")), ("Z", Const("U_Kind")))
    binder = parse_term("\\y : eps_Kind Z. y", var_names=frozenset({"Z"}))
    items = [
        ("conversion", (FVar("X"), Const("dot_Type"))),
        ("conversion", (binder, binder)),
        ("substitution", (binder, "X", Const("dot_Type"))),
        ("substitution", (binder, "Z", Const("dot_Type"))),
    ]
    for alg in PAIR_ALGS:
        psis = model_cc.enumerate_psis(ctx, alg, CAP)
        assert len(psis) > 1
        verdicts = set()
        for lemma, terms in items:
            staged, reference = LEMMAS["cc", lemma]
            live = {}
            for psi in psis + psis[::-1]:
                live.clear()
                live.update(psi)
                for phi in islice(model_cc.enumerate_m_valuations(ctx, psi, alg, CAP), 2):
                    expected = outcome(reference, *terms, phi, psi, alg, CAP)
                    assert outcome(staged, *terms, phi, live, alg, CAP) == expected, (terms, psi)
                    verdicts.add(expected)
        assert {("value", "True"), ("value", "False")} <= verdicts


# --- the verdict memo ---------------------------------------------------------------
#
# A cc conversion verdict is kept under its item and valuation as a tree
# of the table entries its check read, and reused on every algebra that
# agrees on them.  Each input below is held to the oracle on all 513
# algebras, with the number of algebras on which it holds under every
# valuation, so a tree that followed the wrong entries, or no value, would
# hand some algebra another's verdict.  The first reads pi(p, {p}), the
# second `top` and then pi(top, {p}).  The third holds on no algebra: its
# middle layer rejects two of the three outer values of X with no read,
# which leaves a bare verdict at the tree's root, and `top` decides the
# rest.

ALGEBRA_DEPENDENT = (
    ("eps_Type (pi_TTT p (\\z : eps_Type p. p))", "eps_Type p", CONTEXTS["cc"], 129),
    ("eps_Type (pi_KTT dot_Type (\\z : eps_Kind dot_Type. p))", "eps_Type p", CONTEXTS["cc"], 129),
    ("X", "dot_Type", (("X", Const("U_Kind")),), 0),
)


def conversion_outcomes(check, t, u, ctx, alg):
    return [outcome(check, t, u, *valuation, alg, CAP)
            for valuation in sweep_valuations("cc", ctx, alg)]


@pytest.mark.parametrize("order", ("sweep", "reverse"))
@pytest.mark.parametrize("lhs, rhs, ctx, holds", ALGEBRA_DEPENDENT,
                         ids=[f"{lhs}-{rhs}" for lhs, rhs, _, _ in ALGEBRA_DEPENDENT])
def test_memoized_verdicts_follow_the_table_entries_read(lhs, rhs, ctx, holds, order):
    names = frozenset(name for name, _ in ctx)
    # parsed here, so that no other test has kept a verdict for these terms
    t, u = (parse_term(text, var_names=names) for text in (lhs, rhs))
    expected = [conversion_outcomes(reference_models.check_conversion_cc, t, u, ctx, alg)
                for alg in ALGS]
    assert sum(all(o == ("value", "True") for o in per_alg) for per_alg in expected) == holds
    assert {("value", "True"), ("value", "False")} <= {o for per_alg in expected for o in per_alg}
    indices = range(len(ALGS)) if order == "sweep" else range(len(ALGS) - 1, -1, -1)
    # the first pass grows the trees, the second only walks them
    for _ in range(2):
        for i in indices:
            got = conversion_outcomes(model_cc.check_conversion_cc, t, u, ctx, ALGS[i])
            assert got == expected[i], (lhs, i)


def test_the_memoized_check_takes_its_arguments_by_keyword():
    lhs, rhs, ctx, _ = ALGEBRA_DEPENDENT[0]
    names = frozenset(name for name, _ in ctx)
    t, u = (parse_term(text, var_names=names) for text in (lhs, rhs))
    for alg in ALGS[::32]:
        for phi, psi in sweep_valuations("cc", ctx, alg):
            expected = reference_models.check_conversion_cc(t, u, phi, psi, alg, CAP)
            assert model_cc.check_conversion_cc(t, u, phi, psi, alg, CAP) == expected
            assert model_cc.check_conversion_cc(
                t=t, u=u, phi=phi, psi=psi, alg=alg, cap=CAP) == expected
            assert model_cc.check_conversion_cc(t, u, phi, psi, alg=alg) == \
                reference_models.check_conversion_cc(t, u, phi, psi, alg)


def test_a_failing_check_raises_afresh_on_every_call():
    # ROADMAP item 1's outside-domain pair: its redex tabulates an identity
    # over a domain that does not list pi_TTT's value
    t = parse_term("(\\x : Pi X : U_Type. (eps_Type X -> U_Type) -> U_Type. x) pi_TTT")
    u = parse_term("pi_TTT")
    for alg in ALGS:
        (expected,) = conversion_outcomes(reference_models.check_conversion_cc, t, u, (), alg)
        assert expected[0] == "raised" and "outside its domain" in expected[2]
        for _ in range(2):
            assert conversion_outcomes(model_cc.check_conversion_cc, t, u, (), alg) == [expected]
