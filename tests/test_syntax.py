import time

import pytest

from pimodulo.errors import ParseError
from pimodulo.syntax import (
    parse_judgement,
    parse_judgements,
    parse_term,
    parse_theory,
    print_judgement,
    print_rule,
    print_term,
    type_text,
)
from pimodulo.terms import App, Const, FVar, KIND, Lam, Pi, TYPE, Var, free_vars
from pimodulo.theories import builtin_theory


# ------------- terms -------------


def test_application_associates_left() -> None:
    t = parse_term("f a b", var_names={"f", "a", "b"})
    assert t == App(App(FVar("f"), FVar("a")), FVar("b"))


def test_arrow_associates_right() -> None:
    t = parse_term("a -> b -> c")
    assert t == parse_term("a -> (b -> c)")
    assert t != parse_term("(a -> b) -> c")


def test_unlisted_names_parse_as_constants() -> None:
    t = parse_term("eps x")
    assert t == App(Const("eps"), Const("x"))


def test_listed_names_parse_as_free_variables() -> None:
    t = parse_term("eps x", var_names={"x"})
    assert t == App(Const("eps"), FVar("x"))


def test_binders_shadow_free_names() -> None:
    t = parse_term("\\x : o. eps x")
    assert t == Lam("x", Const("o"), App(Const("eps"), Var(0)))


def test_pi_binds_in_the_codomain() -> None:
    t = parse_term("Pi x : o. eps x -> eps x")
    assert isinstance(t, Pi)
    # the arrow's domain sees the binder, its codomain sits one deeper
    assert t.codomain == Pi("_", App(Const("eps"), Var(0)), App(Const("eps"), Var(1)))


def test_sort_keywords() -> None:
    assert parse_term("Type") == TYPE
    assert parse_term("Kind") == KIND


def test_nested_binders_use_indices_outward() -> None:
    t = parse_term("\\x : o. \\y : o. imp x y")
    assert t == Lam("x", Const("o"), Lam("y", Const("o"),
                    App(App(Const("imp"), Var(1)), Var(0))))


def test_bracketed_constant_names() -> None:
    t = parse_term("all[iota->o] p", var_names={"p"})
    assert t == App(Const("all[iota->o]"), FVar("p"))


# ------------- parse errors -------------


def test_unbalanced_parenthesis_is_a_parse_error() -> None:
    with pytest.raises(ParseError):
        parse_term("eps (imp p")


def test_trailing_input_is_a_parse_error() -> None:
    with pytest.raises(ParseError):
        parse_term("eps) p")


def test_empty_input_is_a_parse_error() -> None:
    with pytest.raises(ParseError):
        parse_term("")


def test_errors_carry_a_source_span() -> None:
    try:
        parse_term("eps (imp p")
    except ParseError as exc:
        assert exc.span == (1, 11)
    else:
        raise AssertionError("expected a ParseError")


def test_judgement_file_columns_count_the_indentation() -> None:
    with pytest.raises(ParseError, match="trailing input") as exc:
        parse_judgements("|- o\n   |- o )\n")
    assert exc.value.span == (2, 9)
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse_judgements("\t|- o $ ; note\n")
    assert exc.value.span == (1, 7)


def test_theory_file_columns_count_the_indentation() -> None:
    with pytest.raises(ParseError, match="trailing input") as exc:
        parse_theory("o : Type\n    c : o )\n")
    assert exc.value.span == (2, 11)
    # a rewritten line is parsed, and located, as rewritten: the bracket
    # suffix loses its two parentheses
    with pytest.raises(ParseError, match="trailing input") as exc:
        parse_theory("o : Type\n  all[(o)] : o )\n")
    assert exc.value.span == (2, 14)


def test_lambda_requires_an_annotation() -> None:
    with pytest.raises(ParseError):
        parse_term("\\x. x")


# ------------- printing round trips -------------


def test_print_term_round_trips_simple_terms() -> None:
    for text in (
        "eps p -> eps q",
        "\\x : o. imp x x",
        "Pi x : o. eps x",
        "f (g a) b",
        "(\\x : o. x) p",
    ):
        t = parse_term(text, var_names={"p", "q", "f", "g", "a", "b"})
        assert parse_term(print_term(t), var_names=free_vars(t)) == t


def test_printer_renames_shadowed_hints() -> None:
    # two binders sharing a hint must print with distinct surface names
    inner = Lam("x", Const("o"), App(App(Const("imp"), Var(1)), Var(0)))
    t = Lam("x", Const("o"), inner)
    assert parse_term(print_term(t)) == t


def test_printer_avoids_capturing_free_variables() -> None:
    t = Lam("x", Const("o"), App(App(Const("imp"), FVar("x")), Var(0)))
    printed = print_term(t)
    assert parse_term(printed, var_names={"x"}) == t


def test_printing_is_linear_in_binder_depth() -> None:
    # x1 escapes every body, so a printer that asks each binder's body
    # whether its variable occurs walks the rest of the chain every time:
    # 4n binders would take about 16 times as long as n
    def timed(n: int) -> float:
        t = parse_term("".join(f"\\x{i} : o. " for i in range(1, n + 1)) + f"imp x1 x{n}")
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            text = print_term(t)
            best = min(best, time.perf_counter() - start)
        unused = "".join("\\_ : o. " for _ in range(n - 2))
        assert text == f"\\x1 : o. {unused}\\x{n} : o. imp x1 x{n}"
        return best

    n = 1500
    times = [timed(n), timed(2 * n), timed(4 * n)]
    assert times[2] < 10 * times[0], times


def test_parsing_is_linear_in_binder_depth() -> None:
    # every annotation names the outermost binder, so a parser that finds
    # a bound name's index by searching the binder list from the inside
    # walks the whole chain each time: 4n binders would take about 16
    # times as long as n
    def timed(n: int) -> float:
        text = "\\x0 : o. " + "".join(f"\\x{i} : eps x0 -> x0. " for i in range(1, n)) + "x0"
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            t = parse_term(text)
            best = min(best, time.perf_counter() - start)
        for _ in range(n - 1):
            t = t.body
        # the last binder sits n - 1 binders inside the first
        assert t.annotation == Pi("_", App(Const("eps"), Var(n - 2)), Var(n - 1))
        assert t.body == Var(n - 1)
        return best

    n = 2000
    times = [timed(n), timed(2 * n), timed(4 * n)]
    assert times[2] < 10 * times[0], times


# ------------- judgements -------------


def test_judgement_with_context_and_expected_type() -> None:
    j = parse_judgement("x : o |- eps x : Type", 7)
    assert j.line == 7
    assert j.ctx == (("x", Const("o")),)
    assert j.term == App(Const("eps"), FVar("x"))
    assert j.expected == TYPE


def test_judgement_without_expected_type() -> None:
    j = parse_judgement("|- imp")
    assert j.ctx == ()
    assert j.expected is None


def test_context_variables_scope_over_later_entries() -> None:
    j = parse_judgement("x : o, h : eps x |- h")
    assert j.ctx[1][1] == App(Const("eps"), FVar("x"))
    assert j.term == FVar("h")


def test_judgement_requires_the_turnstile() -> None:
    with pytest.raises(ParseError):
        parse_judgement("x : o, eps x")


def test_parse_judgements_skips_comments_and_blanks() -> None:
    text = "; a comment\n\n|- imp ; trailing\n|- o\n"
    got = parse_judgements(text)
    assert [j.line for j in got] == [3, 4]


def test_judgement_lines_end_at_a_line_feed_alone() -> None:
    # a form feed ends no line, so the judgement after it is on line 2
    got = parse_judgements("; section one\f\n|- o : o\n")
    assert [j.line for j in got] == [2]
    assert got[0].term.span == (2, 4)
    # nor does a Unicode line separator: it cannot end a comment early
    for sep in ("\u2028", "\x85"):
        got = parse_judgements(f"|- o ; see{sep}|- broken (\n|- o : Type\n")
        assert [j.line for j in got] == [1, 2]
    # outside a comment, it is a character no token starts with
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse_judgements("|- o\n|- o\f : Type\n")
    assert exc.value.span == (2, 5)


def test_print_judgement_round_trips() -> None:
    j = parse_judgement("x : o, h : eps x |- h : eps x")
    assert parse_judgement(print_judgement(j)) == j


# ------------- theory files -------------


def test_stt_theory_signature_and_rules() -> None:
    tf = builtin_theory("stt")
    names = [n for n, _ in tf.theory.signature]
    assert names == ["iota", "o", "eps", "imp", "all[iota]", "all[o]", "all[iota->o]"]
    assert [r.label for r in tf.theory.rules] == ["r1", "r2", "r3", "r4"]
    assert tf.simpletypes == ("iota", "o", "iota->o")


def test_cc_theory_signature_and_rules() -> None:
    tf = builtin_theory("cc")
    names = [n for n, _ in tf.theory.signature]
    assert names == [
        "U_Type", "U_Kind", "dot_Type", "eps_Type", "eps_Kind",
        "pi_TTT", "pi_TKK", "pi_KTT", "pi_KKK",
    ]
    assert [r.label for r in tf.theory.rules] == ["r1", "r2", "r3", "r4", "r5"]


def test_schema_expansion_instantiates_each_simple_type() -> None:
    tf = builtin_theory("stt")
    lhss = [print_term(r.lhs) for r in tf.theory.rules[1:]]
    assert lhss == [
        "eps (all[iota] X)",
        "eps (all[o] X)",
        "eps (all[iota->o] X)",
    ]


def test_a_schema_needs_a_simpletypes_line() -> None:
    # no instantiation set is guessed from the declarations
    text = "o : Type\neps : o -> Type\n#forall A\nall[A] : (A -> o) -> o\n"
    with pytest.raises(ParseError, match="schema needs an instantiation set") as exc:
        parse_theory(text)
    assert exc.value.span == (3, 1)
    tf = parse_theory("#simpletypes o\n" + text)
    assert [n for n, _ in tf.theory.signature] == ["o", "eps", "all[o]"]


def test_rule_contexts_are_recorded() -> None:
    r1 = builtin_theory("stt").theory.rules[0]
    assert r1.ctx == (("X", Const("o")), ("Y", Const("o")))
    assert r1.rtype == TYPE


def test_parse_theory_accepts_a_minimal_file() -> None:
    tf = parse_theory("c : Type\nf : c -> c\n[X : c] f X --> X : c\n")
    assert [n for n, _ in tf.theory.signature] == ["c", "f"]
    assert len(tf.theory.rules) == 1
    assert print_rule(tf.theory.rules[0]) == "[X : c] f X --> X : c"


def test_theory_lines_end_at_a_line_feed_alone() -> None:
    with pytest.raises(ParseError, match="trailing input") as exc:
        parse_theory("; section one\f\nc : Type )\n")
    assert exc.value.span == (2, 10)
    for sep in ("\u2028", "\x85"):
        tf = parse_theory(f"c : Type ; see{sep}d : c\n")
        assert [n for n, _ in tf.theory.signature] == ["c"]


def test_parse_theory_rejects_a_single_arrow_in_rules() -> None:
    with pytest.raises(ParseError):
        parse_theory("c : Type\n[X : c] f X -> X : c\n")


def test_type_text_is_space_free() -> None:
    t = parse_term("iota -> o")
    assert type_text(t) == "iota->o"
