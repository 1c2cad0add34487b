"""The lexer against the reference lexer, token by token.

The package's lexer is one `findall` whose last alternative takes any
character no token starts with; the reference matches one token at a
time and stops at the first place none matches.  Both must give the
same tokens, or the same `ParseError`, message and span.  The inputs are
the syntax oracle's corpus and its mutants, and a fixed list of texts a
lexer that skipped a character, or took a prefix of a token for the
whole, would get wrong.
"""

import random

import pytest

from pimodulo.errors import ParseError
from pimodulo.syntax import tokenize
import reference_syntax as ref
from test_syntax_oracle import MUTANTS, judgements, mutate  # noqa: F401 (a fixture)

FIXED = (
    "$", "\xa0", "\f", "-", "|", "#", "p - q", "p | q", "# p", "p #1",
    "all[o -> o]", "all[o->o] p", "Πx : o. x", "xΠ", "x Π", "λx : o. x",
    "p q  ", "p q\t", "p q \t\r", "  ", "", "\n", "p ; c  \t", "; c\n\n",
    "p\nq\n r $", "p\nq\n\tr -", "|-p-->q->r", "#forall A",
)


def reference(text, first_line):
    return [(tok.kind, tok.text, tok.span) for tok in ref.tokenize(text, first_line)]


def outcome(lex, text, first_line):
    try:
        return lex(text, first_line)
    except ParseError as exc:
        return ("error", exc.message, exc.span)


@pytest.mark.parametrize("text", FIXED)
def test_fixed_texts_lex_as_the_reference_lexes_them(text):
    for first_line in (1, 3):
        assert outcome(tokenize, text, first_line) == outcome(reference, text, first_line)


def test_corpus_and_mutants_lex_as_the_reference_lexes_them(judgements):
    for text in judgements:
        assert outcome(tokenize, text, 1) == outcome(reference, text, 1), text
    rng = random.Random(2025)
    errors = 0
    for _ in range(MUTANTS):
        text = rng.choice(judgements)
        for _ in range(rng.randint(1, 3)):
            text = mutate(text, rng)
        want = outcome(reference, text, 3)
        assert outcome(tokenize, text, 3) == want, text
        errors += want[0] == "error"
    # the mutants reach the stray-character error
    assert errors
