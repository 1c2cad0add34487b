import pickle
import subprocess
import sys
import time

import pytest

from pimodulo.reduction import (
    Fuel,
    FuelExhausted,
    convertible,
    is_normal,
    normalize,
    one_step_reducts,
    patterns_overlap,
    r_root,
    rule_overlap_warnings,
    whnf,
)
from pimodulo.terms import (
    App,
    Const,
    FVar,
    Lam,
    Pi,
    RewriteRule,
    TYPE,
    Theory,
    Var,
    bind_pattern,
    compile_lhs,
    pattern_names,
    subterm_positions,
)
from pimodulo.syntax import parse_theory
from pimodulo.theories import builtin_theory
from reference_reduction import BETA, BETA_R, assert_agrees

STT = builtin_theory("stt").theory
CC = builtin_theory("cc").theory
# a definition: a rule whose lhs is a bare constant
DEFINITION = parse_theory("c : Type\nd : Type\n[] c --> d : Type\n").theory
LOOP_THEORY = "P : Type\nQ : Type\n[] P --> P -> Q : Type\n"

OMEGA_HALF = Lam("x", TYPE, App(Var(0), Var(0)))
OMEGA = App(OMEGA_HALF, OMEGA_HALF)


def stt_term(text: str, *names: str):
    from pimodulo.syntax import parse_term

    return parse_term(text, var_names=frozenset(names))


# ------------- root steps -------------


def test_match_pattern_binds_each_variable() -> None:
    lhs = App(App(Const("imp"), FVar("X")), FVar("Y"))
    subject = App(App(Const("imp"), Const("a")), FVar("b"))
    assert bind_pattern(compile_lhs(lhs), subject) == {"X": Const("a"), "Y": FVar("b")}


def test_match_pattern_requires_the_constants() -> None:
    lhs = App(Const("imp"), FVar("X"))
    assert bind_pattern(compile_lhs(lhs), App(Const("eps"), Const("a"))) is None


def test_match_pattern_never_matches_binders() -> None:
    # algebraic patterns have no binders: a lambda subject fails, and a
    # lambda lhs compiles to no program
    lhs = App(Const("eps"), FVar("X"))
    assert bind_pattern(compile_lhs(lhs), Lam("x", TYPE, Var(0))) is None
    assert bind_pattern(compile_lhs(Lam("x", TYPE, Var(0))), lhs) is None


# Rules of g interleave constant first arguments (a, b) with a pattern
# variable one; c has a rule of arity 0 and h rules of arity 2 only.
ORDERED = parse_theory("""\
a : Type
b : Type
c : Type
d : Type
g : Type -> Type -> Type
h : Type -> Type -> Type
[Y : Type] g a Y --> a : Type
[X : Type, Y : Type] g X Y --> X : Type
[Y : Type] g b Y --> b : Type
[X : Type] g X d --> d : Type
[] c --> d : Type
[X : Type, Y : Type] h X Y --> Y : Type
""").theory


def test_r_root_fires_the_first_matching_rule() -> None:
    t = stt_term("eps (imp p q)", "p", "q")
    hit = r_root(t, STT)
    assert hit is not None
    reduct, label = hit
    assert label == "r1"
    assert reduct == stt_term("eps p -> eps q", "p", "q")

    def fired(text: str):
        hit = r_root(stt_term(text), ORDERED)
        return None if hit is None else (hit[1], hit[0])

    assert fired("g a d") == ("r1", Const("a"))
    # g b d matches r2, r3 and r4; the pattern variable comes first
    assert fired("g b d") == ("r2", Const("b"))
    assert fired("g (h a b) d") == ("r2", stt_term("h a b"))
    assert fired("c") == ("r5", Const("d"))
    assert fired("h a b") == ("r6", Const("b"))
    # g and h have rules of arity 2 only, c of arity 0 only
    assert fired("g a") is None
    assert fired("g a b c") is None
    assert fired("h a") is None
    assert fired("c a") is None
    assert fired("d") is None


def test_r_root_never_tries_a_rule_without_a_constant_head() -> None:
    # no checked theory has one, and the index holds it in no bucket
    any_app = RewriteRule((), App(FVar("F"), FVar("Y")), FVar("Y"), TYPE, label="any")
    theory = Theory(ORDERED.signature, ORDERED.rules[:1] + (any_app,))
    assert r_root(stt_term("g a d"), theory) == (Const("a"), "r1")
    assert r_root(stt_term("g b d"), theory) is None
    assert r_root(stt_term("h a (c d)"), theory) is None
    assert r_root(Lam("x", TYPE, Var(0)), theory) is None


def test_r_root_returns_none_off_pattern() -> None:
    assert r_root(stt_term("eps p", "p"), STT) is None


ANY_APP = RewriteRule((), App(FVar("F"), FVar("Y")), FVar("Y"), TYPE, label="any")
# a rule without a constant head whose lhs is a leaf
SORT = RewriteRule((), TYPE, Const("d"), TYPE, label="sort")
ORDERED_TERMS = (
    "c", "d", "g a d", "g b d", "g (h a b) d", "g c c", "h a b", "h (g b c) c",
    "g a", "g a b c", "h a", "c a", "g (g c b) (h c a)", "x", "x c", "h x (g x c)",
    "\\y : Type. g y c", "(\\y : Type. g y c) b", "\\y : c. h y (g a y)",
    "Pi y : c. g b y", "Pi y : Type. c", "Type", "g c ((\\y : Type. y) c)",
)


@pytest.mark.parametrize("headless", (False, True), ids=("ordered", "with-any"))
def test_the_root_test_and_compiled_rules_agree_with_the_reference(headless) -> None:
    # the index skips a root that is neither an application nor a constant;
    # `any` and `sort` have no constant head, so the reference, like the
    # index, never fires them, wherever they sit among the keyed rules
    rules = ORDERED.rules
    if headless:
        rules = rules[:1] + (ANY_APP,) + rules[1:] + (SORT,)
    theory = Theory(ORDERED.signature, rules)
    assert theory.rule_index.roots == {App, Const}
    assert r_root(Const("c"), theory) == (Const("d"), "r5")
    assert whnf(Const("c"), theory) == Const("d")
    for text in ORDERED_TERMS:
        t = stt_term(text, "x")
        for mode in (BETA, BETA_R):
            for fuel in (0, 1, 3, 100):
                assert_agrees(t, theory, mode, fuel)


DEEP = 1500


def test_a_rule_with_a_deep_rhs_compiles_and_fires() -> None:
    # w X --> X -> X -> ... -> X, DEEP arrows, past the recursion limit
    rhs = FVar("X")
    for _ in range(DEEP):
        rhs = Pi("_", FVar("X"), rhs)
    rule = RewriteRule((("X", TYPE),), App(Const("w"), FVar("X")), rhs, TYPE, label="deep")
    theory = Theory(ORDERED.signature, (rule,))
    reduct, label = r_root(App(Const("w"), Const("a")), theory)
    assert label == "deep"
    for _ in range(DEEP):
        assert type(reduct) is Pi and reduct.domain == Const("a")
        reduct = reduct.codomain
    assert reduct == Const("a")


def test_a_rule_with_a_deep_lhs_compiles_and_fires() -> None:
    # s (s (... (s X))) --> X, DEEP applications deep
    def nest(t, n):
        for _ in range(n):
            t = App(Const("s"), t)
        return t

    rule = RewriteRule((("X", TYPE),), nest(FVar("X"), DEEP), FVar("X"), TYPE, label="deep")
    theory = Theory(ORDERED.signature, (rule,))
    assert r_root(nest(Const("a"), DEEP + 1), theory) == (App(Const("s"), Const("a")), "deep")
    assert r_root(nest(Const("a"), DEEP - 1), theory) is None
    assert normalize(nest(Const("a"), 2 * DEEP), theory) == Const("a")


def test_a_reduct_takes_no_span_from_the_theory_file() -> None:
    # every node the rule builds is span-free, eps included; the leaves
    # bound to pattern variables keep the subject's spans
    t = stt_term("eps (imp p q)", "p", "q")
    p, q = t.arg.fn.arg, t.arg.arg
    assert p.span is not None and q.span is not None
    reduct, _ = r_root(t, STT)
    assert reduct == stt_term("eps p -> eps q", "p", "q")
    built = (reduct, reduct.domain, reduct.domain.fn, reduct.codomain, reduct.codomain.fn)
    assert all(node.span is None for node in built)
    assert reduct.domain.arg is p and reduct.codomain.arg is q


# ------------- one-step reducts -------------


def test_one_step_reducts_cover_every_position() -> None:
    redex = App(Lam("x", TYPE, Var(0)), FVar("y"))
    t = App(FVar("f"), App(redex, redex))
    got = one_step_reducts(t, Theory())
    assert set(got) == {
        App(FVar("f"), App(FVar("y"), redex)),
        App(FVar("f"), App(redex, FVar("y"))),
    }


def test_one_step_reducts_deduplicate_alpha_equal_results() -> None:
    ident = Lam("x", TYPE, Var(0))
    # contracting either redex of (\x.x) ((\x.x) y) gives the same term
    t = App(ident, App(ident, FVar("y")))
    got = one_step_reducts(t, Theory())
    assert got == [App(ident, FVar("y"))]


# two rules for c, the first a definition and the second a loop
OVERLAP = parse_theory("c : Type\nd : Type\nk : c\n[] c --> d : Type\n[] c --> c : Type\n").theory


def test_one_step_reducts_take_every_matching_rule() -> None:
    # the strategy takes the first rule, the reducts every one, in order
    assert r_root(Const("c"), OVERLAP) == (Const("d"), "r1")
    assert one_step_reducts(Const("c"), OVERLAP) == [Const("d"), Const("c")]
    assert one_step_reducts(App(FVar("f"), Const("c")), OVERLAP) == [
        App(FVar("f"), Const("d")),
        App(FVar("f"), Const("c")),
    ]
    for mode in (BETA, BETA_R):
        assert_agrees(App(FVar("f"), Const("c")), OVERLAP, mode, 10)


def test_beta_mode_ignores_rewrite_rules() -> None:
    t = stt_term("eps (imp p q)", "p", "q")
    assert one_step_reducts(t, STT.without_rules()) == []
    assert len(one_step_reducts(t, STT)) == 1


# ------------- normalization -------------


def test_normalize_applies_rules_and_beta_together() -> None:
    t = stt_term("eps (imp ((\\x : o. x) p) q)", "p", "q")
    assert normalize(t, STT) == stt_term("eps p -> eps q", "p", "q")


def test_normalize_traces_positions_and_labels() -> None:
    trace: list = []
    t = stt_term("eps (all[iota] (\\z : iota. p))", "p")
    normalize(t, STT, trace=trace)
    labels = [label for _, label, _ in trace]
    assert labels == ["r2", "beta"]


def test_normalize_returns_fuel_exhausted_on_divergence() -> None:
    out = normalize(OMEGA, Theory(), fuel=Fuel(10))
    assert isinstance(out, FuelExhausted)
    assert out.last == OMEGA


def test_normalize_steps_into_a_growing_binder_nest_in_constant_time() -> None:
    # P --> P -> Q unfolds one binder deeper at every step; a step that
    # re-checked every ancestor would make 50,000 steps take minutes
    code = (
        "from pimodulo.reduction import Fuel, FuelExhausted, normalize\n"
        "from pimodulo.syntax import parse_theory\n"
        "from pimodulo.terms import Const\n"
        f"theory = parse_theory({LOOP_THEORY!r}).theory\n"
        "assert isinstance(normalize(Const('P'), theory, fuel=Fuel(50_000)), FuelExhausted)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=5)
    assert run.returncode == 0, run.stderr


def test_fuel_exhausted_has_no_truth_value() -> None:
    out = normalize(OMEGA, Theory(), fuel=Fuel(3))
    with pytest.raises(TypeError):
        bool(out)


@pytest.mark.parametrize("n", [1600, 3200, 12800])
def test_normalize_reaches_deep_eps_chains(n) -> None:
    # built as terms, since the parser recurses; past about 1,000 levels a
    # recursive walk over the chain overflows the stack, and a step that
    # re-checked every ancestor would make the chain quadratic
    p = FVar("p")
    chain = p
    for _ in range(n):
        chain = App(App(Const("imp"), p), chain)
    start = time.perf_counter()
    out = normalize(App(Const("eps"), chain), STT, fuel=Fuel(10 * n))
    assert time.perf_counter() - start < 3.0
    eps_p = App(Const("eps"), p)
    depth = 0
    while isinstance(out, Pi):
        assert out.domain == eps_p
        depth, out = depth + 1, out.codomain
    assert depth == n
    assert out == eps_p


# ------------- weak head reduction -------------


def test_whnf_stops_at_a_stable_root() -> None:
    t = stt_term("eps (imp ((\\x : o. x) p) q)", "p", "q")
    out = whnf(t, STT)
    assert isinstance(out, Pi)
    # the argument redex under the Pi is untouched
    assert out.domain == stt_term("eps ((\\x : o. x) p)", "p")


def test_whnf_leaves_non_applications_alone() -> None:
    t = Lam("x", TYPE, App(Lam("y", TYPE, Var(0)), Var(0)))
    assert whnf(t, Theory()) == t


def test_whnf_keeps_stepping_while_rules_can_fire() -> None:
    # the rule instance only appears after a beta step at the argument
    t = stt_term("eps ((\\x : o. imp x x) p)", "p")
    out = whnf(t, STT)
    assert isinstance(out, Pi)


def test_whnf_unfolds_a_bare_constant_at_the_root() -> None:
    assert whnf(Const("c"), DEFINITION) == Const("d")


STABLE_ROOTS = {
    "stt": (
        STT,
        "Pi x : eps (imp p q). eps ((\\y : o. y) p)",
        "\\x : o. eps (imp x ((\\y : o. y) p))",
        "o",
        "imp",
    ),
    "cc": (
        CC,
        "Pi x : eps_Type U. eps_Kind dot_Type",
        "\\x : U_Type. eps_Type (pi_TTT x (\\y : eps_Type x. x))",
        "U_Kind",
        "pi_TTT",
    ),
}


@pytest.mark.parametrize("name", sorted(STABLE_ROOTS))
def test_whnf_returns_a_stable_root_itself_at_no_fuel(name) -> None:
    # a binder, a sort, a variable and a constant no rule rewrites, the
    # binders with a redex inside
    theory, *texts = STABLE_ROOTS[name]
    roots = [stt_term(text, "p", "q", "U") for text in texts]
    roots += [TYPE, FVar("p"), Var(0)]
    assert {type(t) for t in roots} == {Pi, Lam, Const, type(TYPE), FVar, Var}
    for t in roots:
        fuel = Fuel(0)
        assert whnf(t, theory, fuel=fuel) is t
        assert whnf(t, theory) is t
        assert fuel.remaining == 0


def test_a_headless_rule_never_fires_at_a_stable_root() -> None:
    # `sort` does not fire at a bare sort, nor `any` at an application, so
    # a root that is neither an application nor a constant is returned at
    # once, and a constant no rule rewrites too
    theory = Theory(ORDERED.signature, ORDERED.rules[:1] + (ANY_APP,) + ORDERED.rules[1:] + (SORT,))
    assert whnf(TYPE, theory, fuel=Fuel(0)) is TYPE
    roots = [TYPE, FVar("x"), Var(0), Const("a")]
    roots += [stt_term(text, "x") for text in ("\\y : Type. g y c", "Pi y : Type. c", "Pi y : c. x")]
    for t in roots:
        fuel = Fuel(0)
        assert whnf(t, theory, fuel=fuel) is t
        assert fuel.remaining == 0
    for t in roots + [Const("c")]:
        for mode in (BETA, BETA_R):
            for fuel in (0, 1, 3, 100):
                assert_agrees(t, theory, mode, fuel)


# ------------- convertibility -------------


def test_convertible_along_a_rewrite_rule() -> None:
    t = stt_term("eps (imp p q)", "p", "q")
    u = stt_term("eps p -> eps q", "p", "q")
    assert convertible(t, u, STT) is True


def test_convertible_is_symmetric() -> None:
    t = stt_term("eps (all[o] (\\z : o. z))", "p")
    u = normalize(t, STT)
    assert convertible(u, t, STT) is True


def test_convertible_distinguishes_distinct_normal_forms() -> None:
    assert convertible(Const("iota"), Const("o"), STT) is False


def test_convertible_unfolds_a_bare_constant() -> None:
    assert convertible(Const("c"), Const("d"), DEFINITION) is True
    assert convertible(Const("d"), Const("c"), DEFINITION) is True


def test_convertible_reports_fuel_exhaustion() -> None:
    out = convertible(OMEGA, FVar("y"), Theory(), fuel=Fuel(4))
    assert isinstance(out, FuelExhausted)


def test_cc_rule_instances_convert() -> None:
    t = stt_term("eps_Kind dot_Type")
    assert convertible(t, Const("U_Type"), CC) is True


# ------------- normal forms -------------


def test_is_normal_accounts_for_rules() -> None:
    t = stt_term("eps (imp p q)", "p", "q")
    assert not is_normal(t, STT)
    assert is_normal(t, STT.without_rules())
    assert is_normal(stt_term("eps p", "p"), STT)


# ------------- normality marks -------------


def test_a_beta_normal_mark_does_not_hide_a_rule_redex() -> None:
    # f c is beta-normal, and marked so by a walk without rules
    for walk in (lambda t, th: normalize(t, th), one_step_reducts):
        t = App(FVar("f"), Const("c"))
        walk(t, Theory())
        assert t._normal == ()
        assert normalize(t, DEFINITION) == App(FVar("f"), Const("d"))
        assert one_step_reducts(t, DEFINITION) == [App(FVar("f"), Const("d"))]
        assert not is_normal(t, DEFINITION)


def test_a_mark_holds_under_its_own_rules_and_under_none() -> None:
    t = stt_term("\\h : eps p. f h", "p", "f")
    assert is_normal(t, STT)
    assert t._normal is STT.rules
    # a planted mark on a redex shows which walks trust it
    for walk in (is_normal, lambda t, th: one_step_reducts(t, th) == []):
        redex = stt_term("eps ((\\x : o. x) p)", "p")
        redex._normal = STT.rules
        assert walk(redex, STT)
        assert walk(redex, STT.without_rules())
        assert not walk(redex, CC)
        # an equal rules tuple that is another object
        assert not walk(redex, Theory(STT.signature, tuple(list(STT.rules))))


def test_marks_change_no_reduct() -> None:
    ident = Lam("x", TYPE, Var(0))
    for t, theory in (
        (stt_term("f (eps (imp p p)) ((\\x : o. x) (imp p q)) (eps q)", "p", "q", "f"), STT),
        (App(ident, App(ident, FVar("y"))), Theory()),
    ):
        first = one_step_reducts(t, theory)
        assert one_step_reducts(t, theory) == first


def test_a_mark_is_invisible_to_equality_hash_repr_and_pickle() -> None:
    text = "\\h : eps (imp p q). f h (eps q)"
    t, twin = stt_term(text, "p", "q", "f"), stt_term(text, "p", "q", "f")
    normalize(t, STT.without_rules())
    one_step_reducts(t, STT)
    assert any(node._normal is not None for _, node in subterm_positions(t))
    assert all(node._normal is None for _, node in subterm_positions(twin))
    assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t
    assert all("_normal" not in vars(node) for _, node in subterm_positions(copy))


# ------------- pattern analysis -------------


def test_pattern_variables_in_left_to_right_order() -> None:
    lhs = App(App(Const("imp"), FVar("X")), FVar("Y"))
    assert pattern_names(lhs) == ["X", "Y"]


def test_pattern_variables_reject_nonlinear_patterns() -> None:
    lhs = App(App(Const("imp"), FVar("X")), FVar("X"))
    assert pattern_names(lhs) is None


def test_pattern_variables_reject_binders() -> None:
    assert pattern_names(Lam("x", TYPE, Var(0))) is None


def test_shipped_theories_have_no_overlaps() -> None:
    assert rule_overlap_warnings(STT) == []
    assert rule_overlap_warnings(CC) == []


def test_overlapping_rules_are_reported() -> None:
    l1 = App(Const("f"), App(Const("g"), FVar("X")))
    l2 = App(Const("g"), FVar("Y"))
    assert patterns_overlap(l2, l1)
