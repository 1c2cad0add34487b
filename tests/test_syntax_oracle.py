"""The front end against the reference recursive-descent parser and printer.

The lexer, parser and printer moved onto tuple tokens and explicit
stacks; not a tree, span, binder hint, error or printed character may
change.  The inputs are judgements of both shipped theories: sampled
well-typed terms printed with their types and contexts, the shipped
example files, and seeded token mutations of all of them, which reach
every parse error.  Trees are compared by their preorder skeletons, which
hold each node's class, hint, span and leaf, never by `==`, which
ignores hints and spans.
"""

import random
import re

import pytest

from pimodulo.errors import PiModuloError
from pimodulo.generate import sample_well_typed
from pimodulo.syntax import parse_judgement, parse_term, print_context, print_term
from pimodulo.terms import _walk
from pimodulo.theories import builtin_example, builtin_theory
import reference_syntax as ref

CONTEXTS = {
    "stt": "p : o, q : o, f : eps p -> eps q, a : eps p",
    "cc": "p : U_Type, a : eps_Type p",
}
CORPUS = 300
MUTANTS = 2_000
# token texts a mutation may insert, one or more for each token kind
INSERTS = ("(", ")", "\\", "λ", "Pi", "Π", ":", ".", "->", "→", "-->", "|-", ",",
           "Type", "Kind", "x", "p", "[", "]", "#forall", "$", "; note", "\n")


def skeleton(t):
    """t's nodes in preorder: class, binder depth, hint, span and leaf
    payload, which fix the tree and everything the parser put in it."""
    if t is None:
        return None
    return [(type(n).__name__, d, getattr(n, "hint", None), n.span,
             getattr(n, "index", None), getattr(n, "name", None)) for n, d in _walk(t)]


def outcome(parse, *args):
    try:
        ctx, term, expected = parse(*args)
    except PiModuloError as exc:
        return ("error", type(exc).__name__, exc.message, exc.span)
    return ([(name, skeleton(ty)) for name, ty in ctx], skeleton(term), skeleton(expected))


def package_judgement(text, line):
    j = parse_judgement(text, line)
    return j.ctx, j.term, j.expected


def mutate(text: str, rng: random.Random) -> str:
    """text with one token deleted, doubled, swapped with the next, or
    replaced, or with a token inserted before one."""
    spans = [m.span() for m in ref._TOKEN_RE.finditer(text) if m.lastgroup != "WS"]
    i = rng.randrange(len(spans))
    a, b = spans[i]
    op = rng.randrange(5)
    if op == 0:
        return text[:a] + text[b:]
    if op == 1:
        return text[:b] + " " + text[a:b] + text[b:]
    if op == 2 and i + 1 < len(spans):
        c, d = spans[i + 1]
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    if op == 3:
        return text[:a] + rng.choice(INSERTS) + text[b:]
    return text[:a] + rng.choice(INSERTS) + " " + text[a:]


def context(text: str):
    ctx, _, _ = ref.parse_judgement(text + " |- Type")
    return ctx


@pytest.fixture(scope="module", params=sorted(CONTEXTS))
def judgements(request):
    name = request.param
    theory = builtin_theory(name).theory
    ctx = context(CONTEXTS[name])
    lead = print_context(ctx)
    texts = [f"{lead} |- {print_term(t)} : {print_term(ty)}"
             for t, ty in sample_well_typed(theory, CORPUS, 11, ctx)]
    examples = builtin_example(f"{name}_basics").splitlines()
    return texts + [line for line in examples if line.strip() and not line.startswith(";")]


def test_judgements_parse_as_the_reference_parses_them(judgements):
    for i, text in enumerate(judgements):
        assert outcome(package_judgement, text, i + 1) == outcome(ref.parse_judgement, text, i + 1)


def test_mutated_judgements_parse_or_fail_as_the_reference_does(judgements):
    rng = random.Random(2024)
    errors = set()
    for _ in range(MUTANTS):
        text = rng.choice(judgements)
        for _ in range(rng.randint(1, 3)):
            text = mutate(text, rng)
        want = outcome(ref.parse_judgement, text, 3)
        assert outcome(package_judgement, text, 3) == want, text
        if want[0] == "error":
            errors.add(re.sub(r"((?<=found )|(?<=character )|(?<=input )).*"
                              r"|^\S+(?= is reserved| bound)", "_", want[2]))
    # the mutants reach every error the judgement parser can give
    assert errors == {
        "unexpected character _", "expected a term, found _", "trailing input _",
        "expected a binder name, found _", "_ is reserved and cannot bind",
        "expected ':', found _", "expected '.', found _", "expected ')', found _",
        "expected a variable name, found _", "_ is reserved", "_ bound twice in one context",
        "expected '|-', found _",
    }


def test_terms_parse_and_print_as_the_reference_does(judgements):
    names = frozenset({"p", "q", "f", "a"})
    for text in judgements:
        body = text.split("|- ", 1)[1]
        for part in body.rsplit(" : ", 1):
            got = outcome(lambda s: ((), parse_term(s, names), None), part)
            assert got == outcome(lambda s: ((), ref.parse_term(s, names), None), part)
            if got[0] != "error":
                t = parse_term(part, names)
                assert print_term(t) == ref.print_term(t)
