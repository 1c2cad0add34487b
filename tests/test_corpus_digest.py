"""The seeded corpora stay byte-identical.

The acceptance data, the model sweeps and the scans all draw their terms
from `sample_well_typed` and `convertible_pairs`, so any change to the
kernel that moves a single draw or a single normalization step shows up
here as a different digest.  The digests below were recorded before the
reduction core was rebuilt around the rule index and the resumed search.
"""

import hashlib

import pytest

from pimodulo.generate import convertible_pairs, sample_well_typed
from pimodulo.syntax import parse_term, print_term
from pimodulo.theories import builtin_theory

CONTEXTS = {
    "stt": (("p", "o"), ("q", "o")),
    "cc": (("p", "U_Type"),),
}

DIGESTS = {
    "stt": (
        "c6be3ce35ef6b4cb174ceada5a3d0ae513fd8e9840579875b51e4b404e135d12",
        "4fc7f664d4ccdb4109eea7a3e77c81a01381b269d08fa08dd96c36a6f7b45701",
    ),
    "cc": (
        "f17dfae9c6b4d6fb6f8e11029649bf87a8603df82248b9e03bec0a517bd0769d",
        "7d9713dec2be36d18e9fd434659e79c7d92834cb51d41f481bcce6d5724e9301",
    ),
}


def digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(("\t".join(print_term(t) for t in row) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seeded_corpora_and_pairs_are_unchanged(name):
    theory = builtin_theory(name).theory
    ctx = tuple((x, parse_term(ty)) for x, ty in CONTEXTS[name])
    corpus = list(sample_well_typed(theory, 300, 0, ctx))
    assert len(corpus) == 300
    pairs = list(convertible_pairs(theory, [t for t, _ in corpus], max_size=40, ctx=ctx))
    assert (digest(corpus), digest(pairs)) == DIGESTS[name]
