"""Property tests with shrinking; skipped when `hypothesis` is missing."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pimodulo.generate import gen_raw_term  # noqa: E402
from pimodulo.reduction import BETA, BETA_R  # noqa: E402
from pimodulo.syntax import parse_theory  # noqa: E402
from reference_reduction import assert_agrees  # noqa: E402

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
