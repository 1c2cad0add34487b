"""Tests for the term generators behind the scans.

The enumerators are exhaustive by node count, the sampler is
deterministic in its seed, and the normal-inhabitant enumerator is
type-directed, which is what lets an empty scan certify
non-inhabitation for a confluent terminating theory.
"""

import random
import time

from pimodulo import generate
from pimodulo.generate import (
    convertible_pairs,
    enumerate_normal_inhabitants,
    enumerate_raw_terms,
    gen_raw_term,
    sample_well_typed,
)
from pimodulo.reduction import Fuel, FuelExhausted, convertible, is_normal, normalize
from pimodulo.syntax import parse_term, parse_theory, print_term
from pimodulo.terms import App, Const, FVar, Lam, Pi, TYPE, Var, term_size, uses_bound
from pimodulo.theories import builtin_theory
from pimodulo.typecheck import infer

STT = builtin_theory("stt").theory
CC = builtin_theory("cc").theory


# --- raw enumeration ---


def test_raw_terms_up_to_size_three():
    terms = list(enumerate_raw_terms(3))
    assert len(terms) == len(set(terms)) == 6
    assert terms[0] == TYPE
    assert App(TYPE, TYPE) in terms
    assert Lam("x", TYPE, Var(0)) in terms
    assert all(term_size(t) <= 3 for t in terms)


def test_raw_enumeration_respects_binder_depth():
    for t in enumerate_raw_terms(4):
        match t:
            case Var(_):
                raise AssertionError("loose bound variable at the top level")


def test_raw_enumeration_grows_with_the_bound():
    # applications and binders add two nodes at once, so size four is a
    # plateau and size five is the next jump
    assert len(list(enumerate_raw_terms(4))) == 6
    assert len(list(enumerate_raw_terms(5))) > 6


# --- well-typed enumeration and sampling ---


def test_sampling_is_deterministic_in_the_seed():
    a = list(sample_well_typed(STT, 40, seed=7))
    b = list(sample_well_typed(STT, 40, seed=7))
    assert a == b
    assert a != list(sample_well_typed(STT, 40, seed=8))


def test_samples_typecheck_and_respect_the_size_bound():
    ctx = (("p", Const("o")), ("q", Const("o")))
    for t, ty in sample_well_typed(STT, 60, seed=3, ctx=ctx, max_size=12):
        assert term_size(t) <= 12
        assert infer(STT, ctx, t) == ty


SAMPLE_CTX = {
    "stt": (STT, (("p", Const("o")), ("q", Const("o")))),
    "cc": (CC, (("p", Const("U_Type")),)),
}


def test_samples_carry_the_type_infer_gives():
    # the sampler types most candidates from the stored types of their
    # parts; the kernel typing each from scratch must agree, binder hints
    # included, on binders that close over a context variable too
    closing = 0
    for theory, ctx in SAMPLE_CTX.values():
        for seed in (0, 1, 2, 7919):
            for t, ty in sample_well_typed(theory, 150, seed=seed, ctx=ctx, max_size=16):
                want = infer(theory, ctx, t)
                assert ty == want
                assert repr(ty) == repr(want)
                assert term_size(t) <= 16
                closing += isinstance(t, (Lam, Pi)) and uses_bound(t.codomain if isinstance(t, Pi) else t.body)
    assert closing > 0


def test_sampling_reuses_the_stored_types(monkeypatch):
    # re-inferring every candidate makes about two calls a term
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return infer(*args, **kwargs)

    monkeypatch.setattr(generate, "infer", counted)
    theory, ctx = SAMPLE_CTX["stt"]
    assert len(list(sample_well_typed(theory, 250, seed=0, ctx=ctx, max_size=24))) == 250
    assert calls < 250


def test_samples_are_distinct():
    terms = [t for t, _ in sample_well_typed(CC, 50, seed=1)]
    assert len(terms) == len(set(terms)) == 50


# --- convertible pairs ---


def test_generated_pairs_are_convertible():
    ctx = (("p", Const("o")), ("q", Const("o")))
    seeds = [t for t, _ in sample_well_typed(STT, 25, seed=5, ctx=ctx, max_size=8)]
    pairs = list(convertible_pairs(STT, seeds, max_size=8, ctx=ctx))
    assert pairs
    for a, b in pairs:
        assert convertible(a, b, STT) is True


def test_pairs_include_reflexive_and_expanded_forms():
    seed = parse_term("eps (imp p q)", var_names=frozenset({"p", "q"}))
    ctx = (("p", Const("o")), ("q", Const("o")))
    pairs = list(convertible_pairs(STT, [seed], max_size=9, ctx=ctx))
    assert (seed, seed) in pairs
    assert any(a != b for a, b in pairs)


def test_a_seed_out_of_fuel_keeps_its_one_step_reducts():
    # two rule steps normalize the seed, so one step of fuel runs out
    names = frozenset({"p", "q"})
    seed = parse_term("eps (imp p (imp p q))", var_names=names)
    reduct = parse_term("eps p -> eps (imp p q)", var_names=names)
    assert isinstance(normalize(seed, STT, fuel=Fuel(1)), FuelExhausted)
    ctx = (("p", Const("o")), ("q", Const("o")))
    pairs = list(convertible_pairs(STT, [seed], max_size=40, ctx=ctx, fuel=1))
    assert pairs[:3] == [(seed, seed), (seed, reduct), (reduct, reduct)]
    assert all(convertible(a, b, STT) is True for a, b in pairs)


def test_a_looping_seed_pairs_each_term_of_its_loop_once():
    theory = parse_theory("A : Type\nB : Type\n[] A --> B : Type\n[] B --> A : Type\n").theory
    a, b = Const("A"), Const("B")
    assert list(convertible_pairs(theory, [a], fuel=100)) == [(a, a), (a, b), (b, b)]


# --- normal inhabitants ---


def test_inhabitants_of_a_base_proposition():
    ctx = (("p", Const("o")),)
    quant_spine = App(Const("all[iota->o]"), Const("all[iota]"))
    assert set(enumerate_normal_inhabitants(STT, Const("o"), 3, ctx=ctx)) == {
        FVar("p"),
        quant_spine,
    }
    at_five = {
        print_term(t) for t in enumerate_normal_inhabitants(STT, Const("o"), 5, ctx=ctx)
    }
    assert at_five == {
        "p",
        "imp p p",
        "all[iota] (\\_ : iota. p)",
        "all[o] (\\_ : o. p)",
        "all[o] (\\x : o. x)",
        "all[o] (imp p)",
        "all[iota->o] all[iota]",
    }


def test_identity_proof_is_found():
    ctx = (("x", Const("o")),)
    target = parse_term("eps x -> eps x", var_names=frozenset({"x"}))
    found = list(enumerate_normal_inhabitants(STT, target, 6, ctx=ctx))
    eps_x = App(Const("eps"), FVar("x"))
    assert Lam("_", eps_x, Var(0)) in found


def test_inhabitants_are_normal_and_well_typed():
    ctx = (("x", Const("o")),)
    target = parse_term("eps x -> eps x", var_names=frozenset({"x"}))
    for t in enumerate_normal_inhabitants(STT, target, 7, ctx=ctx):
        assert is_normal(t, STT)
        infer(STT, ctx, t)


def test_uninhabited_goals_enumerate_to_nothing():
    ctx = (("x", Const("o")),)
    target = App(Const("eps"), FVar("x"))
    assert list(enumerate_normal_inhabitants(STT, target, 6, ctx=ctx)) == []
    cc_ctx = (("x", Const("U_Type")),)
    cc_target = App(Const("eps_Type"), FVar("x"))
    assert list(enumerate_normal_inhabitants(CC, cc_target, 6, ctx=cc_ctx)) == []


def test_consistency_targets_scale_past_the_benchmark_sizes():
    # each candidate is built once; a budget-by-budget search, which grows
    # about 3.5x per unit of size, needs over half a minute for these two
    start = time.perf_counter()
    stt_ctx = (("x", Const("o")),)
    assert list(enumerate_normal_inhabitants(STT, App(Const("eps"), FVar("x")), 14, stt_ctx)) == []
    cc_ctx = (("x", Const("U_Type")),)
    cc_target = App(Const("eps_Type"), FVar("x"))
    assert list(enumerate_normal_inhabitants(CC, cc_target, 13, cc_ctx)) == []
    assert time.perf_counter() - start < 5


# --- raw random generation ---


def test_random_raw_terms_are_bounded_and_reproducible():
    a = [gen_raw_term(random.Random(11), 9) for _ in range(20)]
    b = [gen_raw_term(random.Random(11), 9) for _ in range(20)]
    assert a == b
    # the budget splits across children, each of which adds its own node
    assert all(term_size(t) <= 2 * 9 - 1 for t in a)
