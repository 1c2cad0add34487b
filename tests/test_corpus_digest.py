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


# sha256 over the repr and the printed form of each (term, type) the
# sampler yields, recorded before candidates were typed from their parts.
# The repr shows binder hints, which term equality ignores.  Shapes:
# sn-scan's (250 terms, max size 24, two seeds), the model-sweep
# instances' (600, max size 10) and the corpus fixtures' of acceptance
# criteria 5 and 6 (1,500, max size 12).
SAMPLE_DIGESTS = {
    ("stt", 250, 24, 0):
        "7f233b4b508fd41f75cc6713376cf0e973dc53e977afba08b435537e9b1255f2",
    ("stt", 250, 24, 7919):
        "33c841a4c8e5f928dbbd20a25a7804bc75ba479a74c4de597040764de4b75b62",
    ("cc", 250, 24, 0):
        "ac24d53bd887593dcda69eee955e49145223ecd72c16cc1a6b1723767a96fb31",
    ("cc", 250, 24, 7919):
        "0801c30833191aa84a1bd441e5ef400abbcf30f91eaf49a2cca9a54dcb9affe6",
    ("stt", 600, 10, 1):
        "4d46252ab2a4988deba5f64edc2d7da9abb284eb59b860f59be8437ce489740f",
    ("cc", 600, 10, 1):
        "1af9518940216f2a57d24f75ef72b68a279eb89133afdb069f084c3674c7e5e6",
    ("stt", 1500, 12, 0):
        "a5918609fdc9439d67c757708c879d9e951b9108cd0b0b5486dbb3fec983b9da",
    ("cc", 1500, 12, 1):
        "a6d4303371e6fd258c1f76887631effca5f8d9395eafc0506352ef51e576e336",
}


def sample_digest(rows) -> str:
    h = hashlib.sha256()
    for t, ty in rows:
        h.update(f"{t!r}\t{ty!r}\t{print_term(t)}\t{print_term(ty)}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("shape", sorted(SAMPLE_DIGESTS), ids=lambda s: "-".join(map(str, s)))
def test_sampled_corpora_are_unchanged(shape):
    name, count, max_size, seed = shape
    theory = builtin_theory(name).theory
    ctx = tuple((x, parse_term(ty)) for x, ty in CONTEXTS[name])
    rows = list(sample_well_typed(theory, count, seed, ctx, max_size=max_size))
    assert len(rows) == count
    assert sample_digest(rows) == SAMPLE_DIGESTS[shape]
