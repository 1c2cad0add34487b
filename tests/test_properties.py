"""Property tests with shrinking; skipped when `hypothesis` is missing."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pimodulo import model_cc, values  # noqa: E402
from pimodulo.algebra import enumerate_full_algebras  # noqa: E402
from pimodulo.errors import PiModuloError, SizeLimitExceeded  # noqa: E402
from pimodulo.generate import gen_raw_term  # noqa: E402
from pimodulo.reduction import (  # noqa: E402
    Fuel,
    FuelExhausted,
    convertible,
    normalize,
    one_step_reducts,
)
from pimodulo import terms  # noqa: E402
from pimodulo.syntax import parse_term, parse_theory, print_term  # noqa: E402
from pimodulo.terms import (  # noqa: E402
    App,
    Const,
    FVar,
    Lam,
    Pi,
    SortKind,
    Var,
    close_binder,
    loose_bound,
    subterm_positions,
)
from pimodulo.theories import builtin_theory  # noqa: E402
from pimodulo.typecheck import infer  # noqa: E402
from pimodulo.values import (  # noqa: E402
    CARRIER,
    SINGLETON_E,
    FunSpace,
    apply_elem,
    cardinality,
    enumerable,
    enumerate_set,
    fun_space,
)
from reference_models import assert_cc_agrees, assert_stt_agrees  # noqa: E402
from reference_reduction import BETA, BETA_R, assert_agrees  # noqa: E402
import reference_terms  # noqa: E402

# Rules over the constants `gen_raw_term` draws: a pattern-variable first
# argument between constant ones, a rule the earlier one shadows, and a
# rule of arity 0.
RAW_THEORY = parse_theory("""\
c : Type
d' : Type
[X : Type, Y : Type] c (c X) Y --> Y : Type
[X : Type, Y : Type] c X Y --> X : Type
[X : Type] c (c X) --> X : Type
[X : Type] c d' X --> d' : Type
[] d' --> c : Type
""").theory


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 16), fuel=st.integers(0, 12))
def test_raw_terms_reduce_as_the_reference_does(seed, size, fuel):
    t = gen_raw_term(random.Random(seed), size)
    for mode in (BETA, BETA_R):
        assert_agrees(t, RAW_THEORY, mode, fuel)


NF_FUEL = 200


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 16), steps=st.integers(0, 4))
def test_convertible_agrees_with_equal_normal_forms(seed, size, steps):
    # RAW_THEORY is not confluent, so a reduct of t may have another
    # normal form; convertible and normalize follow the one strategy, so
    # they must still agree.  u ranges over t's one-step reducts and the
    # terms of a short leftmost-outermost prefix.
    t = gen_raw_term(random.Random(seed), size)
    for theory in (RAW_THEORY.without_rules(), RAW_THEORY):
        nt = normalize(t, theory, fuel=Fuel(NF_FUEL))
        if isinstance(nt, FuelExhausted):
            continue
        prefix: list = []
        normalize(t, theory, fuel=Fuel(steps), trace=prefix)
        for u in one_step_reducts(t, theory) + [u for _, _, u in prefix]:
            nu = normalize(u, theory, fuel=Fuel(NF_FUEL))
            if not isinstance(nu, FuelExhausted):
                # each side spends at most the steps of its normalization
                assert convertible(t, u, theory, Fuel(2 * NF_FUEL)) is (nt == nu)


# Small set values of the shared model layer: the carrier, {e} and
# function spaces nested up to two deep, on algebras of size 1 and 2.
# Listings past the cap must be refused, not built.
SET_CAP = 512
ALGEBRAS = list(enumerate_full_algebras(1)) + list(enumerate_full_algebras(2))
BASE_SETS = st.sampled_from([CARRIER, SINGLETON_E])
SETS_1 = st.one_of(BASE_SETS, st.builds(fun_space, BASE_SETS, BASE_SETS))
SETS_2 = st.one_of(SETS_1, st.builds(fun_space, SETS_1, SETS_1))


@settings(max_examples=300, deadline=None)
@given(s=SETS_2, alg=st.sampled_from(ALGEBRAS))
def test_set_values_list_each_element_once(s, alg):
    size = cardinality(s, alg.n)
    if size > SET_CAP:
        with pytest.raises(SizeLimitExceeded):
            enumerate_set(s, alg, SET_CAP)
        return
    listed = enumerate_set(s, alg, SET_CAP)
    assert len(set(listed)) == len(listed) == size
    values.listing.cache_clear()
    assert enumerate_set(s, alg, SET_CAP) == listed
    if isinstance(s, FunSpace):
        dom = enumerate_set(s.dom, alg, SET_CAP)
        cod = set(enumerate_set(s.cod, alg, SET_CAP))
        for f in listed:
            for a in dom:
                assert apply_elem(f, a) in cod


# The traversals against their recursive originals in `reference_terms`.
# Terms are reparsed from their printed form, so every node carries a
# span and a rebuilt node (span None) is told apart from a shared one: equal
# reprs (hints included) and equal (path, span) skeletons mean the same
# output with the same nodes shared and rebuilt.
RAW_NAMES = ("x", "y'", "f")


def _spanned_terms(rng: random.Random, size: int) -> list:
    """A parsed raw term with every binder body in it, bodies being open."""
    t = parse_term(print_term(gen_raw_term(rng, size, RAW_NAMES)), var_names=frozenset(RAW_NAMES))
    bodies = [s.codomain if isinstance(s, Pi) else s.body
              for _, s in subterm_positions(t) if isinstance(s, (Pi, Lam))]
    return [t] + bodies


def _same(got, want) -> None:
    assert repr(got) == repr(want)
    if not isinstance(want, (bool, int)):
        assert [(p, s.span) for p, s in subterm_positions(got)] == \
            [(p, s.span) for p, s in subterm_positions(want)]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 20),
       by=st.integers(0, 3), cutoff=st.integers(0, 3), index=st.integers(0, 3))
def test_traversals_match_the_recursive_reference(seed, size, by, cutoff, index):
    rng = random.Random(seed)
    images = _spanned_terms(rng, rng.randint(1, 8))
    for t in _spanned_terms(rng, size):
        u = rng.choice(images)
        subst = {n: rng.choice(images) for n in RAW_NAMES if rng.random() < 0.5}
        name = rng.choice(RAW_NAMES)
        for fn, args in (
            ("term_size", ()),
            ("shift", (by, cutoff)),
            ("instantiate", (u,)),
            ("close_binder", (name,)),
            ("substitute_many", (subst,)),
            ("uses_bound", (index,)),
        ):
            _same(getattr(terms, fn)(t, *args), getattr(reference_terms, fn)(t, *args))


# The staged models against the tree-walking oracle in `reference_models`,
# on raw terms moved into a theory's vocabulary: the constants and `Kind`
# that `gen_raw_term` draws become constants of the theory, and its free
# variables are the context's.  The whole term is compared whether it is
# typed or not, since a model fails on an ill-typed term and must fail the
# same way; so is every closed subterm that type-checks.
MODEL_VOCABULARY = {
    "stt": (("o", "iota", "eps", "imp", "all[o]", "all[iota]"),
            (("p", Const("o")), ("q", Const("o")))),
    "cc": (("U_Type", "U_Kind", "dot_Type", "eps_Type", "eps_Kind",
            "pi_TTT", "pi_KTT", "pi_TKK", "pi_KKK"),
           (("p", Const("U_Type")),)),
}
MODEL_CAP = 1024


def _into_vocabulary(t, leaves: dict):
    match t:
        case Const(name):
            return leaves[name]
        case SortKind():
            return leaves["Kind"]
        case App(fn, arg):
            return App(_into_vocabulary(fn, leaves), _into_vocabulary(arg, leaves))
        case Pi(hint, dom, cod):
            return Pi(hint, _into_vocabulary(dom, leaves), _into_vocabulary(cod, leaves))
        case Lam(hint, ann, body):
            return Lam(hint, _into_vocabulary(ann, leaves), _into_vocabulary(body, leaves))
    return t


def _vocabulary_term(theory: str, seed: int, size: int, data):
    """A raw term moved into the theory's vocabulary, its leaves drawn from `data`."""
    consts, ctx = MODEL_VOCABULARY[theory]
    leaves = {k: Const(data.draw(st.sampled_from(consts), label=k)) for k in ("c", "d'", "Kind")}
    return _into_vocabulary(gen_raw_term(random.Random(seed), size, tuple(x for x, _ in ctx)), leaves)


# A dependent product over a binder whose N-set is {e},
# `Pi x : eps_Type p. eps_Type (t x)`, with `p` in the raw term t bound to
# x too.  The middle layer takes the union of the codomain over the binder
# only when the codomain's middle value is a set, which raw terms alone
# seldom give; the decoder gives it whenever `t x` is e.
EPS_TYPE = Const("eps_Type")


def _model_term(theory: str, seed: int, size: int, data):
    t = _vocabulary_term(theory, seed, size, data)
    if theory == "cc" and data.draw(st.booleans(), label="over {e}"):
        return Pi("x", App(EPS_TYPE, FVar("p")), App(EPS_TYPE, App(close_binder(t, "p"), Var(0))))
    return t


@settings(max_examples=200, deadline=None)
@given(theory=st.sampled_from(sorted(MODEL_VOCABULARY)), seed=st.integers(0, 2**32 - 1),
       size=st.integers(1, 14), alg=st.sampled_from(ALGEBRAS), data=st.data())
def test_staged_models_evaluate_raw_terms_as_the_oracle_does(theory, seed, size, alg, data):
    ctx = MODEL_VOCABULARY[theory][1]
    t = _model_term(theory, seed, size, data)
    typed = []
    for _, s in subterm_positions(t):
        if loose_bound(s) == 0:
            try:
                infer(builtin_theory(theory).theory, ctx, s)
            except PiModuloError:
                continue
            typed.append(s)
    agree = assert_stt_agrees if theory == "stt" else assert_cc_agrees
    agree([t, *typed], ctx, alg, MODEL_CAP)


# `model_cc` evaluates a dependent product's codomain at e alone, since
# the only N-set that can be listed is {e}; every subterm, open, ill-typed
# or not, must keep to that.
@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 14), data=st.data())
def test_the_only_listable_cc_outer_set_is_the_singleton(seed, size, data):
    for _, s in subterm_positions(_vocabulary_term("cc", seed, size, data)):
        n = model_cc.domain_n(s)
        assert not enumerable(n) or n == SINGLETON_E, (s, n)


# Terms past the recursion limit: a short pattern of layers, repeated,
# around one leaf.  Each layer puts the term so far in one place: a
# binder's body, a lambda's annotation, an arrow's domain, an
# application's head, or its argument, which prints in parentheses.
DEEP_LAYERS = ("lam", "pi", "ann", "dom", "fn", "arg")


def _deep_term(layers, hint: str, leaf: int):
    binders = sum(kind in ("lam", "pi") for kind in layers)
    i = leaf % (binders + 1)
    t = Var(i) if i < binders else Const("o")
    for kind in reversed(layers):
        if kind == "lam":
            t = Lam(hint, Const("o"), t)
        elif kind == "pi":
            t = Pi(hint, Const("o"), t)
        elif kind == "ann":
            t = Lam(hint, t, Var(0))
        elif kind == "dom":
            t = Pi("_", t, Const("o"))
        elif kind == "fn":
            t = App(t, Const("c"))
        else:
            t = App(Const("f"), t)
    return t


def _shape(t) -> list:
    # == and repr recurse, so deep terms are compared by their preorder
    return [(type(n).__name__, d, getattr(n, "index", None), getattr(n, "name", None))
            for n, d in terms._walk(t)]


@settings(max_examples=20, deadline=None)
@given(pattern=st.lists(st.sampled_from(DEEP_LAYERS), min_size=1, max_size=5),
       depth=st.integers(1_001, 1_400), hint=st.sampled_from(("x", "_", "o", "f")),
       leaf=st.integers(0, 2**16))
def test_deep_terms_print_and_parse_back(pattern, depth, hint, leaf):
    t = _deep_term((pattern * depth)[:depth], hint, leaf)
    text = print_term(t)
    back = parse_term(text)
    assert print_term(back) == text
    assert _shape(back) == _shape(t)
