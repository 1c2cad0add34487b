"""The normal-inhabitant enumerator against the reference enumerator.

The memoized exact-size walk must yield the very list the old
budget-by-budget search yields, order included, since `--limit` cuts
the stream: on fixed targets of both shipped theories, and on the types
of seeded corpora, `enumerate_normal_inhabitants` has to equal
`reference_inhabitants`, and print as it does.  Term equality ignores
binder hints while the printer shows them, so the targets include
argument goals that are equal up to hints, whose abstractions must keep
each goal's own hint.
"""

import pytest

from pimodulo.generate import enumerate_normal_inhabitants, sample_well_typed
from pimodulo.syntax import parse_judgement, print_term
from pimodulo.terms import Const
from pimodulo.theories import builtin_theory
from reference_inhabitants import enumerate_normal_inhabitants as reference

TARGETS = (
    ("stt", "x : o |- o", 9),
    ("stt", "x : o |- Type", 7),
    ("stt", "x : o |- o -> o", 9),
    ("stt", "x : o |- eps x -> eps x -> eps x", 10),
    ("stt", "|- Pi A : Type. A -> A", 9),
    ("cc", "x : U_Type |- U_Type", 9),
    ("cc", "x : U_Type |- U_Kind", 9),
    # h's argument goal is all[o]'s `o -> o` up to the hint
    ("stt", "h : (Pi y : o. o) -> o |- o", 7),
    ("cc", "p : U_Type, h : (Pi y : eps_Type p. eps_Type p) -> U_Type, "
           "g : (eps_Type p -> eps_Type p) -> U_Type |- U_Type", 8),
    # the polymorphic identity's type, Pi X : U_Type. eps_Type X -> eps_Type X
    ("cc", "|- eps_Type (pi_KTT dot_Type (\\X : U_Type. pi_TTT X (\\y : eps_Type X. X)))", 9),
)
CONTEXTS = {
    "stt": (("p", Const("o")), ("q", Const("o"))),
    "cc": (("p", Const("U_Type")),),
}
CORPUS = 200


def shown(terms):
    return [(t, print_term(t)) for t in terms]


@pytest.mark.parametrize("theory, target, size", TARGETS)
def test_fixed_targets_enumerate_as_the_reference_does(theory, target, size):
    th = builtin_theory(theory).theory
    j = parse_judgement(target, 1)
    expected = shown(reference(th, j.term, size, j.ctx))
    assert shown(enumerate_normal_inhabitants(th, j.term, size, j.ctx)) == expected


def test_the_polymorphic_identity_is_found():
    th = builtin_theory("cc").theory
    j = parse_judgement(TARGETS[-1][1], 1)
    assert len(list(enumerate_normal_inhabitants(th, j.term, 7, j.ctx))) == 1


@pytest.mark.parametrize("theory", sorted(CONTEXTS))
def test_corpus_types_enumerate_as_the_reference_does(theory):
    th = builtin_theory(theory).theory
    ctx = CONTEXTS[theory]
    sampled = sample_well_typed(th, CORPUS, 0, ctx, max_size=12)
    types = list(dict.fromkeys(ty for _, ty in sampled))
    assert len(types) > 50
    for ty in types:
        for size in (5, 7):
            expected = shown(reference(th, ty, size, ctx))
            assert shown(enumerate_normal_inhabitants(th, ty, size, ctx)) == expected, ty
