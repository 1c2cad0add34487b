import pickle

import pytest

from pimodulo.generate import sample_well_typed
from pimodulo.reduction import one_step_reducts
from pimodulo.syntax import parse_term
from pimodulo.terms import (
    App,
    Const,
    FVar,
    KIND,
    Lam,
    Pi,
    RewriteRule,
    TYPE,
    Theory,
    Var,
    arrow,
    children,
    close_binder,
    const_names,
    ctx_lookup,
    free_vars,
    instantiate,
    open_binder,
    replace_at,
    shift,
    spine,
    substitute,
    substitute_many,
    subterm_at,
    subterm_positions,
    term_size,
    uses_bound,
)
from pimodulo.theories import builtin_theory
from reference_terms import plain


# ------------- structural equality is alpha-equivalence -------------


def test_binder_hints_do_not_affect_equality() -> None:
    assert Lam("x", TYPE, Var(0)) == Lam("y", TYPE, Var(0))
    assert Pi("a", FVar("t"), Var(0)) == Pi("b", FVar("t"), Var(0))


def test_different_bodies_are_unequal() -> None:
    assert Lam("x", TYPE, Var(0)) != Lam("x", TYPE, FVar("x"))


def test_free_and_bound_variables_are_distinct_constructors() -> None:
    assert Var(0) != FVar("0")
    assert FVar("c") != Const("c")


def test_terms_are_hashable_up_to_alpha() -> None:
    seen = {Lam("x", TYPE, Var(0)), Lam("y", TYPE, Var(0))}
    assert len(seen) == 1


def test_a_pickled_term_leaves_its_cached_hash_behind() -> None:
    # str hashes differ between processes, as in a spawned pool worker
    t = App(Const("f"), FVar("x"))
    hash(t)
    assert "_hash" not in vars(pickle.loads(pickle.dumps(t)))


CORPUS_CONTEXTS = {
    "stt": (("p", parse_term("o")), ("q", parse_term("o"))),
    "cc": (("p", parse_term("U_Type")),),
}


@pytest.mark.parametrize("name", sorted(CORPUS_CONTEXTS))
def test_cached_hashes_are_the_dataclass_hashes(name) -> None:
    # the order of every set and dict of terms rests on these values
    theory = builtin_theory(name).theory
    for t, ty in sample_well_typed(theory, 300, 0, CORPUS_CONTEXTS[name]):
        for u in (t, ty, *one_step_reducts(t, theory)):
            for _, sub in subterm_positions(u):
                assert hash(sub) == hash(plain(sub))


# ------------- sizes -------------


def test_size_of_leaves_is_one() -> None:
    for t in (Var(0), FVar("x"), Const("c"), TYPE, KIND):
        assert term_size(t) == 1


def test_size_adds_one_per_node() -> None:
    assert term_size(App(FVar("f"), FVar("x"))) == 3
    assert term_size(Lam("x", TYPE, Var(0))) == 3
    assert term_size(Pi("x", TYPE, App(Var(0), FVar("y")))) == 5


# ------------- shift -------------


def test_shift_bumps_indices_at_or_above_cutoff() -> None:
    assert shift(Var(0), 2) == Var(2)
    assert shift(Var(1), 3, cutoff=1) == Var(4)


def test_shift_leaves_indices_below_cutoff() -> None:
    assert shift(Var(0), 5, cutoff=1) == Var(0)


def test_shift_raises_cutoff_under_binders() -> None:
    # the bound occurrence stays 0, the escaping one moves
    t = Lam("x", TYPE, App(Var(0), Var(1)))
    assert shift(t, 1) == Lam("x", TYPE, App(Var(0), Var(2)))


def test_shift_ignores_closed_leaves() -> None:
    t = App(Const("c"), FVar("x"))
    assert shift(t, 7) == t


# ------------- instantiate (beta at the root) -------------


def test_instantiate_replaces_index_zero() -> None:
    assert instantiate(Var(0), FVar("u")) == FVar("u")


def test_instantiate_decrements_escaping_indices() -> None:
    assert instantiate(Var(1), FVar("u")) == Var(0)


def test_instantiate_shifts_the_image_under_binders() -> None:
    # (\y. x y) where x is the binder being instantiated with Var(0)-free u
    body = Lam("y", TYPE, App(Var(1), Var(0)))
    got = instantiate(body, FVar("u"))
    assert got == Lam("y", TYPE, App(FVar("u"), Var(0)))


def test_instantiate_avoids_capturing_a_dangling_index() -> None:
    # the image mentions an outer binder; pushing it under a lambda
    # must keep it pointing there, not let the lambda capture it
    body = Lam("y", TYPE, Var(1))
    got = instantiate(body, Var(5))
    assert got == Lam("y", TYPE, Var(6))


# ------------- open and close -------------


def test_open_then_close_is_identity_on_bodies() -> None:
    body = App(Var(0), Lam("y", TYPE, App(Var(0), Var(1))))
    assert close_binder(open_binder(body, "fresh'"), "fresh'") == body


def test_close_then_open_is_identity_when_name_is_fresh() -> None:
    t = App(FVar("a"), Lam("y", TYPE, FVar("a")))
    assert open_binder(close_binder(t, "a"), "a") == t


def test_close_abstracts_every_occurrence() -> None:
    t = App(FVar("a"), FVar("a"))
    assert close_binder(t, "a") == App(Var(0), Var(0))


# ------------- substitution -------------


def test_substitute_hits_only_the_named_variable() -> None:
    t = App(FVar("x"), FVar("y"))
    assert substitute(t, "x", Const("c")) == App(Const("c"), FVar("y"))


def test_substitute_is_capture_avoiding_for_dangling_indices() -> None:
    # image carries a dangling index; sinking it under a binder shifts it
    t = Lam("y", TYPE, FVar("x"))
    assert substitute(t, "x", Var(0)) == Lam("y", TYPE, Var(1))


def test_substitute_many_is_simultaneous() -> None:
    t = App(FVar("x"), FVar("y"))
    got = substitute_many(t, {"x": FVar("y"), "y": FVar("x")})
    assert got == App(FVar("y"), FVar("x"))


def test_substitute_composition_when_sides_do_not_interfere() -> None:
    # (v/y)((u/x)t) = ((v/y)u / x)t needs x distinct from y and x not free in v
    t = App(FVar("x"), FVar("y"))
    u = App(FVar("y"), Const("c"))
    v = FVar("z")
    lhs = substitute(substitute(t, "x", u), "y", v)
    rhs = substitute(substitute(t, "y", v), "x", substitute(u, "y", v))
    assert lhs == rhs


# ------------- variable and constant queries -------------


def test_free_vars_sees_through_binders() -> None:
    t = Lam("x", FVar("a"), App(Var(0), FVar("b")))
    assert free_vars(t) == {"a", "b"}


def test_const_names_collects_all_constants() -> None:
    t = App(Const("eps"), App(Const("imp"), Const("eps")))
    assert const_names(t) == {"eps", "imp"}


def test_name_queries_walk_chains_past_the_recursion_limit() -> None:
    t = FVar("x")
    for _ in range(5_000):
        t = App(Const("f"), t)
    assert free_vars(t) == {"x"}
    assert const_names(t) == {"f"}


def test_uses_bound_tracks_depth() -> None:
    assert uses_bound(Var(0))
    assert not uses_bound(Lam("x", TYPE, Var(0)))
    assert uses_bound(Lam("x", TYPE, Var(1)))


# ------------- terms past the recursion limit -------------
#
# `==` and `repr` recurse on terms this deep, so results are read through
# their size, the body inside a Lam nest and the spine of an App chain.

DEEP = 5_000


def _innermost(t):
    while isinstance(t, Lam):
        t = t.body
    return t


def _lam_nest():
    # the innermost x c #5000 reaches one binder past the nest
    t = App(App(FVar("x"), Const("c")), Var(DEEP))
    for _ in range(DEEP):
        t = Lam("y", TYPE, t)
    return t


def _app_chain():
    t = FVar("x")
    for _ in range(DEEP):
        t = App(t, Var(0))
    return t


@pytest.mark.parametrize("shape", ("lam", "app"))
def test_every_traversal_runs_past_the_recursion_limit(shape) -> None:
    t = _lam_nest() if shape == "lam" else _app_chain()
    size = 2 * DEEP + 5 if shape == "lam" else 2 * DEEP + 1
    assert term_size(t) == size
    assert free_vars(t) == {"x"}
    assert const_names(t) == ({"c"} if shape == "lam" else set())
    assert uses_bound(t, 0) and not uses_bound(t, 1)
    for result in (shift(t, 2), instantiate(t, Const("u")), close_binder(t, "x"),
                   substitute_many(t, {"x": Var(0)})):
        assert term_size(result) == size
    if shape == "lam":
        assert _innermost(shift(t, 2)).arg == Var(DEEP + 2)
        assert _innermost(instantiate(t, Const("u"))).arg == Const("u")
        assert _innermost(close_binder(t, "x")).fn.fn == Var(DEEP)
        assert _innermost(substitute_many(t, {"x": Var(0)})).fn.fn == Var(DEEP)
    else:
        assert set(spine(shift(t, 2))[1]) == {Var(2)}
        assert set(spine(instantiate(t, Const("u")))[1]) == {Const("u")}
        head, args = spine(close_binder(t, "x"))
        assert (head, set(args)) == (Var(0), {Var(1)})
        assert spine(substitute_many(t, {"x": Const("c")}))[0] == Const("c")
    # a rebuilt copy hashes alike; the one redex sits at the deepest leaf
    assert hash(substitute_many(t, {})) == hash(t)
    positions = subterm_positions(t)
    deepest = (0,) * DEEP if shape == "app" else (1,) * DEEP + (0, 0)
    assert len(positions) == size and positions[0][1] is t
    assert [pos for pos, sub in positions if sub == FVar("x")] == [deepest]
    redex = App(Lam("z", TYPE, Var(0)), FVar("x"))
    with_redex = replace_at(t, deepest, redex)
    assert term_size(with_redex) == size + 4 and subterm_at(with_redex, deepest) is redex
    assert one_step_reducts(t, Theory()) == []
    [reduct] = one_step_reducts(with_redex, Theory())
    assert term_size(reduct) == size and hash(reduct) == hash(t)


# ------------- spines -------------


def test_spine_unwinds_applications() -> None:
    t = App(App(Const("f"), FVar("a")), FVar("b"))
    head, args = spine(t)
    assert head == Const("f")
    assert args == [FVar("a"), FVar("b")]


# ------------- positions -------------


def test_subterm_positions_is_preorder() -> None:
    t = App(Const("f"), FVar("a"))
    assert subterm_positions(t) == [((), t), ((0,), Const("f")), ((1,), FVar("a"))]


def test_subterm_at_agrees_with_enumeration() -> None:
    t = Lam("x", App(Const("f"), Const("g")), App(Var(0), FVar("y")))
    for pos, sub in subterm_positions(t):
        assert subterm_at(t, pos) == sub


def test_replace_at_changes_exactly_one_occurrence() -> None:
    t = App(Const("f"), Const("f"))
    assert replace_at(t, (1,), Const("g")) == App(Const("f"), Const("g"))


def test_replace_at_root_returns_the_replacement() -> None:
    assert replace_at(Const("f"), (), FVar("x")) == FVar("x")


def test_children_cover_every_constructor() -> None:
    assert children(TYPE) == ()
    assert children(App(FVar("f"), FVar("x"))) == (FVar("f"), FVar("x"))
    assert children(Pi("x", TYPE, Var(0))) == (TYPE, Var(0))


# ------------- non-dependent arrows -------------


def test_arrow_does_not_bind_in_the_codomain() -> None:
    t = arrow(FVar("a"), FVar("b"))
    assert isinstance(t, Pi)
    assert not uses_bound(t.codomain)


def test_arrow_shifts_an_open_codomain() -> None:
    # the codomain's dangling index must keep pointing past the new binder
    t = arrow(TYPE, Var(0))
    assert t.codomain == Var(1)


# ------------- theories -------------


def test_const_type_finds_declared_constants() -> None:
    th = Theory(signature=(("c", TYPE),))
    assert th.const_type("c") == TYPE
    assert th.const_type("missing") is None


def test_ctx_lookup_prefers_the_first_binding() -> None:
    ctx = (("x", TYPE), ("x", KIND))
    assert ctx_lookup(ctx, "x") == TYPE


def test_without_rules_keeps_the_signature() -> None:
    rule = RewriteRule((), Const("a"), Const("b"), TYPE, "r")
    th = Theory(signature=(("a", TYPE),), rules=(rule,))
    assert th.without_rules().signature == th.signature
    assert th.without_rules().rules == ()
