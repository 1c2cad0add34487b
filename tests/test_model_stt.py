import copy
import pickle

import pytest

from pimodulo.algebra import FiniteAlgebra, enumerate_full_algebras
from pimodulo.errors import PiModuloError, SizeLimitExceeded
from pimodulo.model_stt import (
    check_conversion_stt,
    check_substitution_stt,
    domain_stt,
    enumerate_valuations,
    interp_stt,
)
from pimodulo.reduction import one_step_reducts
from pimodulo.syntax import parse_term
from pimodulo.terms import FVar, KIND, Lam, TYPE, Var
from pimodulo.theories import builtin_theory
from pimodulo.values import (
    CARRIER,
    SINGLETON_E,
    AlgElem,
    EPoint,
    FiniteFun,
    Valuation,
    apply_elem,
    enumerate_set,
    finite_fun,
    fun_space,
)

STT = builtin_theory("stt").theory
ALGS = list(enumerate_full_algebras(2))
SOME_ALGS = ALGS[:: len(ALGS) // 16]


def stt(text: str, *names: str):
    return parse_term(text, var_names=frozenset(names))


# ------------- set values -------------


def test_function_space_collapses_on_a_singleton_codomain() -> None:
    assert fun_space(CARRIER, SINGLETON_E) == SINGLETON_E
    assert fun_space(SINGLETON_E, SINGLETON_E) == SINGLETON_E
    assert fun_space(SINGLETON_E, CARRIER) != SINGLETON_E


def test_finite_fun_equality_is_extensional() -> None:
    f = finite_fun([(AlgElem(0), AlgElem(1)), (AlgElem(1), AlgElem(0))])
    g = finite_fun([(AlgElem(1), AlgElem(0)), (AlgElem(0), AlgElem(1))])
    assert f == g


def test_apply_elem_reads_the_graph() -> None:
    f = finite_fun([(AlgElem(0), AlgElem(1))])
    assert apply_elem(f, AlgElem(0)) == AlgElem(1)


def test_apply_elem_outside_the_domain_fails() -> None:
    f = finite_fun([(AlgElem(0), AlgElem(1))])
    with pytest.raises(PiModuloError):
        apply_elem(f, AlgElem(7))


def test_apply_elem_finds_a_key_equal_to_a_graph_key() -> None:
    key = finite_fun([(AlgElem(0), AlgElem(1)), (AlgElem(1), AlgElem(1))])
    twin = finite_fun([(AlgElem(1), AlgElem(1)), (AlgElem(0), AlgElem(1))])
    assert key == twin and key is not twin
    f = finite_fun([(key, AlgElem(0))])
    assert apply_elem(f, twin) == AlgElem(0)
    assert apply_elem(f, key) == AlgElem(0)


def test_apply_elem_off_the_graph_names_the_argument() -> None:
    f = finite_fun([(AlgElem(0), AlgElem(1))])
    assert apply_elem(f, AlgElem(0)) == AlgElem(1)
    with pytest.raises(PiModuloError) as exc:
        apply_elem(f, AlgElem(7))
    assert str(exc.value) == "applied a finite function outside its domain: AlgElem(value=7)"


def test_a_looked_up_finite_function_pickles_without_its_index() -> None:
    f = finite_fun([(AlgElem(0), AlgElem(1)), (AlgElem(1), AlgElem(0))])
    unused = FiniteFun(f.graph)
    shown, pickled = repr(f), pickle.dumps(unused)
    assert apply_elem(f, AlgElem(1)) == AlgElem(0)
    assert f._index is not None
    assert repr(f) == shown and f == unused and hash(f) == hash(unused)
    assert pickle.dumps(f) == pickled
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and hash(copy) == hash(f)
    assert "_index" not in vars(copy) and copy._index is None
    assert apply_elem(copy, AlgElem(0)) == AlgElem(1)


@pytest.mark.parametrize("change", [
    "v['x'] = w", "del v['x']", "v.update(x=w)", "v.pop('x')", "v.popitem()", "v.clear()",
    "v.setdefault('y', w)", "v |= {'y': w}",
])
def test_a_valuation_cannot_be_changed(change) -> None:
    v = Valuation(x=AlgElem(1))
    with pytest.raises(TypeError, match="cannot be changed"):
        exec(change, {"v": v, "w": AlgElem(0)})
    assert v == {"x": AlgElem(1)}


def test_a_valuation_is_a_dict_hashed_by_its_items() -> None:
    plain = {"x": AlgElem(1), "y": finite_fun([(AlgElem(0), AlgElem(1))])}
    v = Valuation(plain)
    assert v == plain and repr(v) == repr(plain)
    assert hash(v) == hash(Valuation(reversed(plain.items())))
    widened = {**v, "z": AlgElem(0)}
    assert type(widened) is dict and widened == {**plain, "z": AlgElem(0)}
    for twin in (pickle.loads(pickle.dumps(v)), copy.copy(v), copy.deepcopy(v)):
        assert type(twin) is Valuation and twin == v and hash(twin) == hash(v)


def test_enumerate_set_sizes() -> None:
    alg = ALGS[0]
    assert len(enumerate_set(SINGLETON_E, alg)) == 1
    assert len(enumerate_set(CARRIER, alg)) == 2
    assert len(enumerate_set(fun_space(CARRIER, CARRIER), alg)) == 4


def test_enumerate_set_honors_the_cap() -> None:
    alg = ALGS[0]
    big = fun_space(fun_space(CARRIER, CARRIER), CARRIER)
    with pytest.raises(PiModuloError):
        enumerate_set(big, alg, cap=3)


# ------------- domains -------------


def test_sorts_and_o_live_in_the_carrier() -> None:
    for t in (TYPE, KIND, stt("o")):
        assert domain_stt(t) == CARRIER


def test_objects_live_in_the_singleton() -> None:
    for t in (stt("iota"), FVar("x"), stt("imp")):
        assert domain_stt(t) == SINGLETON_E


def test_domain_looks_through_binders_and_spines() -> None:
    assert domain_stt(stt("eps (imp p q)", "p", "q")) == SINGLETON_E
    assert domain_stt(Lam("x", stt("o"), stt("o"))) == CARRIER


def test_products_take_function_spaces_with_collapse() -> None:
    assert domain_stt(stt("o -> o")) == fun_space(CARRIER, CARRIER)
    assert domain_stt(stt("Pi x : o. eps x")) == SINGLETON_E


def test_lemma1_isolates_sort_free_terms() -> None:
    assert domain_stt(stt("eps (imp p q)", "p", "q")) == SINGLETON_E
    assert domain_stt(stt("o")) != SINGLETON_E


# ------------- interpretation -------------


def test_sorts_and_base_types_evaluate_to_top() -> None:
    for alg in SOME_ALGS:
        assert interp_stt(TYPE, {}, alg) == AlgElem(alg.top)
        assert interp_stt(stt("iota"), {}, alg) == AlgElem(alg.top)


def test_eps_is_the_identity_on_the_carrier() -> None:
    alg = ALGS[3]
    for w in range(alg.n):
        assert interp_stt(stt("eps X", "X"), {"X": AlgElem(w)}, alg) == AlgElem(w)


def test_imp_follows_the_arrow_table() -> None:
    for alg in SOME_ALGS:
        for w1 in range(alg.n):
            for w2 in range(alg.n):
                phi = {"X": AlgElem(w1), "Y": AlgElem(w2)}
                got = interp_stt(stt("imp X Y", "X", "Y"), phi, alg)
                assert got == AlgElem(alg.arrow(w1, w2))


def test_universal_quantifier_collects_the_body_image() -> None:
    # all[o] (\z : o. z) ranges the body over the whole carrier
    for alg in SOME_ALGS:
        got = interp_stt(stt("all[o] (\\z : o. z)"), {}, alg)
        assert got == AlgElem(alg.pi(alg.top, alg.mask_of(range(alg.n))))


def test_quantifier_tables_are_shared_by_algebras_that_agree_on_the_row() -> None:
    # all[o] depends on the algebra only through its size and the pi row
    # of the value of o, the top, so these two share one table
    a = FiniteAlgebra(2, 0, ((0, 1, 1, 0), (0, 0, 0, 0)))
    b = FiniteAlgebra(2, 0, ((0, 1, 1, 0), (1, 1, 1, 1)))
    c = FiniteAlgebra(2, 1, ((0, 1, 1, 0), (0, 0, 0, 0)))
    q = stt("all[o]")
    assert interp_stt(q, {}, a) is interp_stt(q, {}, b)
    assert interp_stt(q, {}, a) != interp_stt(q, {}, c)


def test_unknown_constants_are_rejected() -> None:
    with pytest.raises(PiModuloError):
        interp_stt(stt("mystery"), {}, ALGS[0])


def test_missing_valuation_entries_are_rejected() -> None:
    with pytest.raises(PiModuloError):
        interp_stt(FVar("x"), {}, ALGS[0])


# ------------- the conversion lemma -------------


def test_implication_rule_holds_under_all_valuations() -> None:
    lhs = stt("eps (imp X Y)", "X", "Y")
    rhs = stt("eps X -> eps Y", "X", "Y")
    ctx = (("X", stt("o")), ("Y", stt("o")))
    for alg in SOME_ALGS:
        for phi in enumerate_valuations(ctx, alg):
            assert check_conversion_stt(lhs, rhs, phi, alg)


def test_quantifier_rule_holds_under_all_valuations() -> None:
    rule = STT.rules[1]
    for alg in SOME_ALGS:
        for phi in enumerate_valuations(rule.ctx, alg):
            assert check_conversion_stt(rule.lhs, rule.rhs, phi, alg)


def test_beta_steps_preserve_the_interpretation() -> None:
    t = stt("eps ((\\x : o. imp x x) P)", "P")
    ctx = (("P", stt("o")),)
    for alg in SOME_ALGS:
        for phi in enumerate_valuations(ctx, alg):
            for u in one_step_reducts(t, STT):
                assert check_conversion_stt(t, u, phi, alg)


def test_conversion_check_distinguishes_unequal_values() -> None:
    alg = ALGS[5]
    phi = {"X": AlgElem(0), "Y": AlgElem(1)}
    assert not check_conversion_stt(stt("eps X", "X"), stt("eps Y", "Y"), phi, alg)


# ------------- the substitution lemma -------------


def test_substitution_lemma_on_rule_bodies() -> None:
    t = stt("eps (imp X Y)", "X", "Y")
    for alg in SOME_ALGS:
        phi = {"Y": AlgElem(1)}
        assert check_substitution_stt(t, "X", stt("imp Y Y", "Y"), phi, alg)


def test_substitution_lemma_trivial_cases() -> None:
    alg = ALGS[9]
    phi = {"Y": AlgElem(0)}
    # t = x and x not free in t
    assert check_substitution_stt(FVar("x"), "x", stt("imp Y Y", "Y"), phi, alg)
    assert check_substitution_stt(stt("eps Y", "Y"), "x", stt("o"), phi, alg)


# ------------- valuations -------------


def test_valuations_enumerate_the_full_product() -> None:
    ctx = (("x", stt("o")), ("y", stt("o")))
    alg = ALGS[0]
    vals = enumerate_valuations(ctx, alg)
    assert len(vals) == 4
    assert len({(v["x"], v["y"]) for v in vals}) == 4


def test_valuations_cover_function_domains() -> None:
    ctx = (("f", stt("o -> o")),)
    vals = enumerate_valuations(ctx, ALGS[0])
    assert len(vals) == 4
    assert all(isinstance(v["f"], FiniteFun) for v in vals)


def test_valuations_past_the_cap_are_a_size_limit() -> None:
    # each pool fits the cap but their product does not: checking a
    # sample instead would let a sweep say "holds" on part of the product
    ctx = tuple((name, stt("o -> o")) for name in "fgh")
    with pytest.raises(SizeLimitExceeded, match="64 valuations is over the cap 5"):
        enumerate_valuations(ctx, ALGS[0], cap=5)


def test_valuations_are_built_once_per_context_carrier_size_and_cap() -> None:
    ctx = (("x", stt("o")), ("f", stt("o -> o")))
    vals = enumerate_valuations(ctx, ALGS[0])
    assert all(type(v) is Valuation for v in vals)
    assert enumerate_valuations(ctx, ALGS[-1]) is vals
    assert enumerate_valuations(ctx, ALGS[0], cap=1000) is not vals
    one = enumerate_valuations(ctx, next(enumerate_full_algebras(1)))
    assert one is not vals and len(one) == 1


def test_a_size_limit_is_raised_on_every_call() -> None:
    ctx = tuple((name, stt("o -> o")) for name in "fgh")
    for _ in range(2):
        with pytest.raises(SizeLimitExceeded):
            enumerate_valuations(ctx, ALGS[0], cap=5)


def test_proof_variables_get_the_e_point() -> None:
    ctx = (("h", stt("eps P", "P")),)
    vals = enumerate_valuations(ctx, ALGS[0])
    assert vals == [{"h": EPoint()}]
