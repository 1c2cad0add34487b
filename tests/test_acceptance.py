"""Acceptance suite: the checks the package promises to pass, at full size.

Each criterion prints one summary line straight to the real stdout so
the verdicts survive pytest's capture and end up in piped logs:

    ACCEPTANCE <n> (<name>): PASS|FAIL

The corpora are generated fresh per run from fixed seeds, so failures
reproduce exactly.
"""

import random
import sys
import time

import pytest

from pimodulo.algebra import enumerate_full_algebras
from pimodulo.candidates import (
    PiC,
    StronglyNormalizing,
    check_application_lemma,
    check_closure_lemma,
    check_variables_lemma,
    created_beta_redices_are_trivial,
    enumerate_candidates,
    sn_check,
    stt_measure,
)
from pimodulo.errors import PiModuloError
from pimodulo.generate import (
    convertible_pairs,
    enumerate_normal_inhabitants,
    enumerate_raw_terms,
    gen_raw_term,
    sample_well_typed,
)
from pimodulo import model_cc, model_stt
from pimodulo.reduction import FuelExhausted, one_step_reducts, r_root
from pimodulo.syntax import parse_term, print_term
from pimodulo.terms import (
    App,
    Const,
    FVar,
    Lam,
    Pi,
    TYPE,
    Var,
    replace_at,
    substitute,
    subterm_positions,
    term_size,
)
from pimodulo.theories import builtin_theory
from pimodulo.typecheck import check_rule, check_theory, infer

STT = builtin_theory("stt").theory
CC = builtin_theory("cc").theory
ALGS = list(enumerate_full_algebras(1)) + list(enumerate_full_algebras(2))

STT_CTX = (("p", Const("o")), ("q", Const("o")))
CC_CTX = (("p", Const("U_Type")),)

OMEGA = App(Lam("x", TYPE, App(Var(0), Var(0))), Lam("x", TYPE, App(Var(0), Var(0))))

# Closed instances of the five constructions rules.  The signature has no
# atomic closed code of type U_Type, so one is bootstrapped from the
# kind-indexed product code and reused as X0.
X0 = "(pi_KTT dot_Type (\\x : eps_Kind dot_Type. x))"
CC_CLOSED_INSTANCES = (
    "eps_Kind dot_Type",
    f"eps_Type (pi_TTT {X0} (\\y : eps_Type {X0}. {X0}))",
    "eps_Type (pi_KTT dot_Type (\\x : eps_Kind dot_Type. x))",
    f"eps_Kind (pi_TKK {X0} (\\y : eps_Type {X0}. dot_Type))",
    "eps_Kind (pi_KKK dot_Type (\\x : eps_Kind dot_Type. dot_Type))",
)


def say(line: str) -> None:
    print(line, file=sys.__stdout__, flush=True)


def report(num: int, name: str, ok: bool) -> None:
    say(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name})"


def sample_many(theory, total, ctx, max_size):
    """Distinct well-typed terms pooled across seeds until total is met."""
    out, seen, seed = [], set(), 0
    while len(out) < total and seed < 60:
        for t, _ in sample_well_typed(theory, 1500, seed=seed, ctx=ctx, max_size=max_size):
            if t not in seen:
                seen.add(t)
                out.append(t)
                if len(out) == total:
                    break
        seed += 1
    return out


@pytest.fixture(scope="module")
def stt_terms_12():
    return sample_many(STT, 10_000, STT_CTX, 12)


@pytest.fixture(scope="module")
def cc_terms_12():
    return sample_many(CC, 10_000, CC_CTX, 12)


@pytest.fixture(scope="module")
def stt_terms_9():
    return sample_many(STT, 5_000, STT_CTX, 9)


@pytest.fixture(scope="module")
def cc_terms_9():
    return sample_many(CC, 5_000, CC_CTX, 9)


# --- criterion 1: the shipped theories validate, and mutations do not ---


def test_criterion_1_theory_files():
    t0 = time.time()
    ok = True
    for theory in (STT, CC):
        rep = check_theory(theory)
        ok &= rep.ok and not rep.errors()
        wrong = Const("iota") if theory is STT else Const("U_Type")
        for rule in theory.rules:
            mutated = type(rule)(rule.ctx, rule.lhs, rule.rhs, wrong, rule.label)
            try:
                check_rule(theory, mutated)
                ok = False
            except PiModuloError:
                pass
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, "theory files validate", ok)


# --- criterion 2: the simple-type model validates conversion exactly ---


def test_criterion_2_stt_conversion_model():
    t0 = time.time()
    ok = True
    for rule in STT.rules:
        for alg in ALGS:
            for phi in model_stt.enumerate_valuations(rule.ctx, alg):
                ok &= model_stt.check_conversion_stt(rule.lhs, rule.rhs, phi, alg)
    seeds = [t for t, _ in sample_well_typed(STT, 300, seed=9, ctx=STT_CTX, max_size=8)]
    pairs = []
    for pair in convertible_pairs(STT, seeds, max_size=8, ctx=STT_CTX):
        pairs.append(pair)
        if len(pairs) == 200:
            break
    ok &= len(pairs) == 200
    for a, b in pairs:
        for alg in ALGS:
            for phi in model_stt.enumerate_valuations(STT_CTX, alg):
                ok &= model_stt.check_conversion_stt(a, b, phi, alg)
    elapsed = time.time() - t0
    say(f"  criterion 2: {len(ALGS)} algebras, 4 rules, {len(pairs)} pairs, {elapsed:.0f}s")
    ok &= elapsed < 300
    report(2, "simple-type conversion model", ok)


# --- criterion 3: the constructions model validates on all three layers ---


def test_criterion_3_cc_conversion_model():
    t0 = time.time()
    ok = True
    for text in CC_CLOSED_INSTANCES:
        t = parse_term(text)
        ok &= infer(CC, (), t) == TYPE
        reducts = one_step_reducts(t, CC)
        ok &= bool(reducts)
        for alg in ALGS:
            for u in reducts:
                ok &= model_cc.check_conversion_cc(t, u, {}, {}, alg)
    seeds = [t for t, _ in sample_well_typed(CC, 300, seed=9, ctx=CC_CTX, max_size=8)]
    pairs = []
    for pair in convertible_pairs(CC, seeds, max_size=8, ctx=CC_CTX):
        pairs.append(pair)
        if len(pairs) == 200:
            break
    ok &= len(pairs) == 200
    for a, b in pairs:
        for alg in ALGS:
            for psi in model_cc.enumerate_psis(CC_CTX, alg):
                for phi in model_cc.enumerate_m_valuations(CC_CTX, psi, alg):
                    ok &= model_cc.check_conversion_cc(a, b, phi, psi, alg)
    elapsed = time.time() - t0
    say(f"  criterion 3: {len(ALGS)} algebras, 5 closed rules, {len(pairs)} pairs, {elapsed:.0f}s")
    ok &= elapsed < 600
    report(3, "constructions conversion model", ok)


# --- criterion 4: the substitution lemmas hold on generated instances ---


def test_criterion_4_substitution_model():
    ok = True
    ts = sample_many(STT, 600, STT_CTX, 10)
    images = [u for u in ts if u != FVar("p") and _stt_type(u) == Const("o")]
    images = images or [parse_term("imp p q", var_names=frozenset({"p", "q"}))]
    checked = 0
    i = 0
    while checked < 1000:
        t = ts[i % len(ts)]
        x = ("p", "q")[i % 2]
        u = images[i % len(images)]
        alg = ALGS[i % len(ALGS)]
        phis = model_stt.enumerate_valuations(STT_CTX, alg)
        phi = phis[i % len(phis)]
        ok &= model_stt.check_substitution_stt(t, x, u, phi, alg)
        checked += 1
        i += 1
    ok &= checked == 1000

    cts = sample_many(CC, 600, CC_CTX, 10)
    cimages = [u for u in cts if u != FVar("p") and _cc_type(u) == Const("U_Type")]
    cimages = cimages or [FVar("p")]
    checked = 0
    i = 0
    while checked < 1000:
        t = cts[i % len(cts)]
        u = cimages[i % len(cimages)]
        alg = ALGS[i % len(ALGS)]
        psis = model_cc.enumerate_psis(CC_CTX, alg)
        psi = psis[i % len(psis)]
        phis = model_cc.enumerate_m_valuations(CC_CTX, psi, alg)
        phi = phis[i % len(phis)]
        ok &= model_cc.check_substitution_cc(t, "p", u, phi, psi, alg)
        checked += 1
        i += 1
    ok &= checked == 1000
    report(4, "substitution lemmas on generated instances", ok)


def _stt_type(t):
    try:
        return infer(STT, STT_CTX, t)
    except PiModuloError:
        return None


def _cc_type(t):
    try:
        return infer(CC, CC_CTX, t)
    except PiModuloError:
        return None


# --- criterion 5: generated well-typed terms strongly normalize ---


def test_criterion_5_strong_normalization(stt_terms_9, cc_terms_9):
    ok = len(stt_terms_9) == 5000 and len(cc_terms_9) == 5000
    exhausted = 0
    for theory, terms in ((STT, stt_terms_9), (CC, cc_terms_9)):
        for t in terms:
            verdict = sn_check(t, 100_000, theory)
            if not isinstance(verdict, StronglyNormalizing):
                exhausted += 1
    ok &= exhausted == 0
    # control: the untypable self-application loops and is reported honestly
    with pytest.raises(PiModuloError):
        infer(STT, (), OMEGA)
    ok &= isinstance(sn_check(OMEGA, 100_000), FuelExhausted)
    say(f"  criterion 5: 5000+5000 terms, {exhausted} exhausted")
    report(5, "strong normalization of typed terms", ok)


# --- criterion 6: rewrite steps shrink the measure and create only trivial redices ---


def test_criterion_6_measure_and_created_redices(stt_terms_12, cc_terms_12):
    ok = len(stt_terms_12) == 10_000 and len(cc_terms_12) == 10_000
    rewrite_steps = 0
    for t in stt_terms_12:
        before = stt_measure(t)
        for pos, sub in subterm_positions(t):
            hit = r_root(sub, STT)
            if hit is None:
                continue
            rewrite_steps += 1
            after = stt_measure(replace_at(t, pos, hit[0]))
            ok &= after < before
        ok &= created_beta_redices_are_trivial(t, STT)
    ok &= rewrite_steps > 0
    for t in cc_terms_12:
        ok &= created_beta_redices_are_trivial(t, CC)
    say(f"  criterion 6: {rewrite_steps} rewrite steps measured over 10000+10000 terms")
    report(6, "rewrite steps shrink the measure", ok)


# --- criterion 7: consistency scans find nothing, the control finds a proof ---


def test_criterion_7_consistency_scans():
    t0 = time.time()
    ctx = (("x", Const("o")),)
    stt_target = App(Const("eps"), FVar("x"))
    stt_hits = list(enumerate_normal_inhabitants(STT, stt_target, 8, ctx=ctx))
    cc_ctx = (("x", Const("U_Type")),)
    cc_target = App(Const("eps_Type"), FVar("x"))
    cc_hits = list(enumerate_normal_inhabitants(CC, cc_target, 8, ctx=cc_ctx))
    control_target = parse_term("eps x -> eps x", var_names=frozenset({"x"}))
    control = list(enumerate_normal_inhabitants(STT, control_target, 6, ctx=ctx))
    identity = Lam("_", App(Const("eps"), FVar("x")), Var(0))
    elapsed = time.time() - t0
    ok = stt_hits == [] and cc_hits == [] and identity in control and elapsed < 300
    report(7, "consistency scans", ok)


# --- criterion 8: syntax round-trips and the substitution laws ---


def _rename_hints(t):
    match t:
        case Pi(_, a, b):
            return Pi("h", _rename_hints(a), _rename_hints(b))
        case Lam(_, a, b):
            return Lam("h", _rename_hints(a), _rename_hints(b))
        case App(a, b):
            return App(_rename_hints(a), _rename_hints(b))
        case _:
            return t


def test_criterion_8_syntax_and_substitution_laws():
    ok = True
    rng = random.Random(0)
    names = frozenset({"x", "y'", "f"})
    for _ in range(10_000):
        t = gen_raw_term(rng, 10)
        ok &= parse_term(print_term(t), var_names=names) == t

    corpus = list(enumerate_raw_terms(7, (TYPE, FVar("x"), FVar("y"))))
    u = App(FVar("y"), Lam("b", TYPE, Var(0)))
    v = Lam("b", TYPE, Var(0))
    for t in corpus:
        # naming hints carry no identity
        ok &= _rename_hints(t) == t and hash(_rename_hints(t)) == hash(t)
        # composition, under x distinct from y and absent from v
        left = substitute(substitute(t, "x", u), "y", v)
        right = substitute(substitute(t, "y", v), "x", substitute(u, "y", v))
        ok &= left == right

    failures = 0
    for theory, ctx in ((STT, STT_CTX), (CC, CC_CTX)):
        count = 0
        for t, ty in sample_well_typed(theory, 250, seed=13, ctx=ctx, max_size=10):
            count += 1
            for r in one_step_reducts(t, theory):
                if infer(theory, ctx, r) != ty:
                    failures += 1
        ok &= count == 250
    ok &= failures == 0
    say(f"  criterion 8: {len(corpus)} law terms, {failures} subject-reduction failures")
    report(8, "syntax round-trips and substitution laws", ok)


# --- candidate invariants: the lemma grid is never quietly optimistic ---


def test_candidate_measure_invariant_to_size_ten(stt_terms_12, stt_terms_9):
    # Sampled terms always have odd size, so the two corpora jointly cover
    # everything the generator can produce at size <= 10.
    terms = list({t for t in stt_terms_12 if term_size(t) <= 10} | set(stt_terms_9))
    ok = len(terms) >= 5000
    steps = 0
    for t in terms:
        before = stt_measure(t)
        for pos, sub in subterm_positions(t):
            hit = r_root(sub, STT)
            if hit is not None:
                steps += 1
                ok &= stt_measure(replace_at(t, pos, hit[0])) < before
    say(f"  candidate invariant: measure falls on {steps} steps over {len(terms)} terms")
    assert ok


def test_candidate_lemma_grid():
    cands = enumerate_candidates(3)
    assert len(cands) == 8
    unknowns = 0
    noes = 0

    for cand in cands:
        verdict = check_variables_lemma(cand)
        noes += verdict == "no"
        unknowns += verdict == "unknown"

    corpus = list(enumerate_raw_terms(7, (TYPE, FVar("x'"))))
    for t in corpus:
        for cand in cands:
            verdict = check_closure_lemma(t, cand)
            noes += verdict == "no"
            unknowns += verdict == "unknown"

    small = [t for t in corpus if term_size(t) <= 3]
    pics = [c for c in cands if isinstance(c, PiC)]
    for t1 in small:
        for t2 in small:
            for cand in pics:
                verdict = check_application_lemma(t1, t2, cand.dom, cand.cods)
                noes += verdict == "no"
                unknowns += verdict == "unknown"

    say(f"  candidate lemma grid: {noes} no, {unknowns} unknown "
        f"over {len(corpus)} terms x {len(cands)} candidates")
    assert noes == 0
