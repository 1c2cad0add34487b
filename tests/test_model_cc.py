"""Tests for the three-layer finite model of the constructions encoding.

The outer layer N assigns universe-sized sets, the middle layer M picks an
element of the matching N-set, and the inner interpretation lands in the
algebra carrier.  Conversion and substitution checks must agree on all three.
"""

import pytest

from pimodulo._staging import valuation_key
from pimodulo.algebra import FiniteAlgebra, enumerate_full_algebras, mask_elements, read_alg
from pimodulo.errors import PiModuloError, SizeLimitExceeded, UnenumerableUnion
from pimodulo.model_cc import (
    M_IDENT,
    IPiDot1,
    MClosure,
    MIdent,
    SetElem,
    apply_u,
    check_conversion_cc,
    check_substitution_cc,
    default_n_value,
    domain_m,
    domain_n,
    enumerate_m_valuations,
    enumerate_psis,
    equal_values,
    interp_cc,
    m_value,
    member_of_n,
    probe_menu,
)
from pimodulo.reduction import one_step_reducts
from pimodulo.syntax import parse_term
from pimodulo.terms import KIND, TYPE, Const, FVar, substitute
from pimodulo.theories import builtin_theory
from pimodulo.typecheck import infer
from pimodulo.values import (
    CARRIER,
    E_POINT,
    E_UNIVERSE,
    SINGLETON_E,
    AlgElem,
    FiniteFun,
    FunSpace,
    Valuation,
    apply_interp,
    cardinality,
    carrier_identity,
    enumerable,
    enumerate_set,
    finite_fun,
    fun_space,
    listing,
)

CC = builtin_theory("cc").theory

ALGS = list(enumerate_full_algebras(1)) + list(enumerate_full_algebras(2))
SOME_ALGS = ALGS[:: len(ALGS) // 8]

# A closed code of type U_Type; the encoding's signature has no atomic one,
# so every closed instance of the Type-indexed rules goes through it.
X0 = "(pi_KTT dot_Type (\\x : eps_Kind dot_Type. x))"

CLOSED_RULE_INSTANCES = {
    "r1": "eps_Kind dot_Type",
    "r2": f"eps_Type (pi_TTT {X0} (\\y : eps_Type {X0}. {X0}))",
    "r3": f"eps_Type (pi_KTT dot_Type (\\x : eps_Kind dot_Type. x))",
    "r4": f"eps_Kind (pi_TKK {X0} (\\y : eps_Type {X0}. dot_Type))",
    "r5": "eps_Kind (pi_KKK dot_Type (\\x : eps_Kind dot_Type. dot_Type))",
}


def cc(text, *free):
    return parse_term(text, var_names=frozenset(free))


# --- universe carriers and collapses ---


def test_fun_space_collapses_to_singleton_codomain():
    assert fun_space(CARRIER, SINGLETON_E) is SINGLETON_E
    space = fun_space(CARRIER, CARRIER)
    assert space == FunSpace(CARRIER, CARRIER)


def test_constant_point_functions_collapse_to_the_point():
    graph = [(AlgElem(0), E_POINT), (AlgElem(1), E_POINT)]
    assert finite_fun(graph) == E_POINT


def test_fun_equality_ignores_graph_order():
    left = finite_fun([(AlgElem(0), AlgElem(0)), (AlgElem(1), AlgElem(1))])
    right = finite_fun([(AlgElem(1), AlgElem(1)), (AlgElem(0), AlgElem(0))])
    assert left == right


def test_cardinality_and_enumeration():
    alg = ALGS[1]
    assert cardinality(SINGLETON_E, alg.n) == 1
    assert cardinality(CARRIER, alg.n) == alg.n
    assert cardinality(E_UNIVERSE, alg.n) is None
    assert not enumerable(E_UNIVERSE)
    assert list(enumerate_set(CARRIER, alg)) == [AlgElem(0), AlgElem(1)]


def test_enumeration_respects_the_cap():
    space = fun_space(CARRIER, CARRIER)
    alg = ALGS[1]
    assert len(list(enumerate_set(space, alg))) == 4
    with pytest.raises(SizeLimitExceeded):
        list(enumerate_set(space, alg, cap=3))


def test_a_large_nested_function_space_is_over_the_cap():
    # the 3-element Goedel chain: a -> b is top when a <= b and b otherwise,
    # pi(a, S) the meet of a -> s over S; the product's binder set has
    # 3 ** (3 ** 27) elements, a number too long to print
    def arrow(a, b):
        return 2 if a <= b else b

    chain = FiniteAlgebra(3, 2, tuple(
        tuple(min((arrow(a, s) for s in mask_elements(mask, 3)), default=2) for mask in range(8))
        for a in range(3)
    ))
    with pytest.raises(SizeLimitExceeded):
        interp_cc(cc("((U_Kind -> U_Kind -> U_Type) -> U_Type) -> Type"), {}, {}, chain)


def test_probe_menu_for_the_full_universe():
    menu = probe_menu(E_UNIVERSE)
    assert SetElem(CARRIER) in menu
    assert SetElem(SINGLETON_E) in menu
    assert len(menu) == 3


def test_a_finite_function_is_applied_by_its_graph_alone():
    # a closure over E is no key of a graph over the carrier, whatever
    # values the closure takes
    a = m_value(cc("\\A : U_Kind. U_Type A"), {})
    assert isinstance(a, MClosure)
    with pytest.raises(PiModuloError, match="applied a finite function outside its domain"):
        apply_u(carrier_identity(2), a)


def test_apply_identity():
    assert apply_u(M_IDENT, AlgElem(1)) == AlgElem(1)
    assert apply_u(M_IDENT, SetElem(CARRIER)) == SetElem(CARRIER)


def test_the_middle_layer_applies_no_set():
    with pytest.raises(PiModuloError, match="applied a non-function value SetElem"):
        apply_u(SetElem(CARRIER), E_POINT)


def test_a_pi_code_reads_the_outputs_of_its_argument():
    alg = ALGS[1]
    identity = carrier_identity(2)
    assert apply_interp(IPiDot1(1), identity, alg) == AlgElem(alg.pi(1, alg.mask_of({0, 1})))
    with pytest.raises(PiModuloError, match="a pi code needs a finite function argument"):
        apply_interp(IPiDot1(0), AlgElem(1), alg)
    off_carrier = finite_fun([(AlgElem(0), E_POINT), (AlgElem(1), AlgElem(0))])
    with pytest.raises(PiModuloError, match="pi code body output off the carrier"):
        apply_interp(IPiDot1(0), off_carrier, alg)


# --- outer domains ---


def test_sorts_and_the_kind_universe_get_the_full_universe():
    assert domain_n(KIND) is E_UNIVERSE
    assert domain_n(TYPE) is E_UNIVERSE
    assert domain_n(Const("U_Kind")) is E_UNIVERSE


def test_type_universe_and_constants_get_the_singleton():
    assert domain_n(Const("U_Type")) is SINGLETON_E
    assert domain_n(Const("dot_Type")) is SINGLETON_E
    assert domain_n(FVar("x")) is SINGLETON_E


def test_product_domains_build_function_spaces():
    t = cc("Pi x : U_Kind. U_Kind")
    assert domain_n(t) == FunSpace(E_UNIVERSE, E_UNIVERSE)
    # a singleton codomain collapses the whole space
    assert domain_n(cc("Pi x : U_Type. U_Type")) is SINGLETON_E
    assert domain_n(cc("Pi x : U_Kind. U_Type")) is SINGLETON_E


def test_abstraction_and_application_domains_delegate():
    assert domain_n(cc("\\x : U_Type. U_Kind")) is E_UNIVERSE
    assert domain_n(cc("eps_Type x", "x")) is SINGLETON_E


def test_lemma1_sort_free_terms_live_in_the_singleton():
    assert domain_n(cc("\\x : U_Type. x")) == SINGLETON_E
    assert domain_n(cc("eps_Type (pi_TTT c d)")) == SINGLETON_E
    assert domain_n(cc("pi_KKK dot_Type f", "f")) == SINGLETON_E
    # the lemma is only about terms free of Kind, Type, and U_Kind
    assert domain_n(Const("U_Kind")) != SINGLETON_E


# --- middle layer ---


def test_type_universe_denotes_the_carrier():
    assert m_value(cc("U_Type"), {}) == SetElem(CARRIER)
    assert m_value(cc("dot_Type"), {}) == SetElem(CARRIER)


def test_kind_decoder_is_the_identity():
    assert m_value(cc("eps_Kind"), {}) == MIdent()
    assert m_value(cc("eps_Kind dot_Type"), {}) == SetElem(CARRIER)


def test_decoded_type_of_a_code_application_is_the_carrier():
    assert domain_m(cc("eps_Kind dot_Type"), {}) == CARRIER
    assert domain_m(cc("U_Type"), {}) == CARRIER


def test_object_level_types_decode_to_the_singleton():
    assert domain_m(cc("eps_Type (pi_TTT c d)"), {}) == SINGLETON_E


def test_products_over_the_full_universe_need_a_constant_codomain():
    # codomain independent of the bound variable: no union demanded
    v = m_value(cc("Pi x : U_Kind. U_Type"), {})
    assert v == SetElem(FunSpace(CARRIER, CARRIER))
    with pytest.raises(UnenumerableUnion):
        m_value(cc("Pi x : U_Kind. eps_Kind x"), {})


# --- inner interpretation ---


def test_universes_and_codes_interpret_to_the_top_element():
    for alg in SOME_ALGS:
        top = AlgElem(alg.top)
        assert interp_cc(cc("U_Type"), {}, {}, alg) == top
        assert interp_cc(cc("U_Kind"), {}, {}, alg) == top
        assert interp_cc(cc("dot_Type"), {}, {}, alg) == top
        assert interp_cc(cc("eps_Kind dot_Type"), {}, {}, alg) == top


# --- conversion ---


def test_closed_instances_of_every_rule_are_well_typed():
    for text in CLOSED_RULE_INSTANCES.values():
        assert infer(CC, (), cc(text)) == TYPE


def test_conversion_holds_on_closed_rule_instances():
    for label, text in CLOSED_RULE_INSTANCES.items():
        t = cc(text)
        reducts = one_step_reducts(t, CC)
        assert reducts, label
        for alg in SOME_ALGS:
            for u in reducts:
                assert check_conversion_cc(t, u, {}, {}, alg), (label, alg)


def test_conversion_holds_on_a_beta_step():
    ctx = (("y", cc("U_Type")),)
    t = cc("(\\x : U_Type. eps_Type x) y", "y")
    u = cc("eps_Type y", "y")
    for alg in SOME_ALGS:
        for psi in enumerate_psis(ctx, alg):
            for phi in enumerate_m_valuations(ctx, psi, alg):
                assert check_conversion_cc(t, u, phi, psi, alg)


def test_conversion_sweeps_open_instances():
    ctx = (("x", cc("U_Type")),)
    t = cc("eps_Kind dot_Type", "x")
    u = cc("U_Type", "x")
    for alg in SOME_ALGS:
        for psi in enumerate_psis(ctx, alg):
            for phi in enumerate_m_valuations(ctx, psi, alg):
                assert check_conversion_cc(t, u, phi, psi, alg)


def test_conversion_rejects_distinct_denotations():
    t = cc("eps_Kind dot_Type")
    u = cc(f"eps_Type {X0}")
    assert not check_conversion_cc(t, u, {}, {}, ALGS[1])


# --- substitution ---


def test_substituting_into_the_variable_itself():
    alg = ALGS[1]
    assert check_substitution_cc(FVar("x"), "x", cc("dot_Type"), {}, {}, alg)


def test_substitution_ignores_absent_variables():
    alg = ALGS[1]
    t = cc("eps_Kind dot_Type")
    assert check_substitution_cc(t, "x", cc("dot_Type"), {}, {}, alg)


def test_substitution_on_a_decoder_body():
    t = cc("eps_Kind x", "x")
    u = cc("dot_Type")
    for alg in SOME_ALGS:
        assert check_substitution_cc(t, "x", u, {}, {}, alg)


# Two instances of the model-sweep probe (seed 0), each on its algebra.
# Their products have middle values of 65,536 members, past the cap, so
# comparing such a value with {e} must not list it.
SWEEP_INSTANCES = [
    ("U_Kind -> (U_Kind -> U_Kind -> U_Type) -> U_Type",
     "pi_KTT dot_Type (\\_ : U_Type. p)", "2 0\n0 0 1 1\n1 0 1 0\n"),
    ("U_Kind -> ((U_Kind -> U_Type) -> U_Type) -> Type",
     "(\\_ : U_Type. p) ((\\_ : U_Type. p) p)", "2 1\n1 0 1 0\n0 0 1 1\n"),
]


@pytest.mark.parametrize("t, u, alg", SWEEP_INSTANCES, ids=["code-image", "applied-image"])
def test_instances_with_a_large_product_domain_hold_under_a_small_cap(t, u, alg):
    ctx = (("p", cc("U_Type")),)
    t, u, alg = cc(t, "p"), cc(u, "p"), read_alg(alg)
    for psi in enumerate_psis(ctx, alg, 1024):
        for phi in enumerate_m_valuations(ctx, psi, alg, 1024):
            assert check_substitution_cc(t, "p", u, phi, psi, alg, 1024)


def test_outer_domains_are_stable_under_substitution():
    t = cc("Pi y : eps_Type x. U_Type", "x")
    u = cc("pi_KTT dot_Type f", "f")
    assert domain_n(substitute(t, "x", u)) == domain_n(t)
    kinds = cc("\\y : U_Kind. U_Kind")
    assert domain_n(substitute(kinds, "y", cc("dot_Type"))) == domain_n(kinds)


# --- valuations ---


def test_singleton_pools_give_one_psi():
    ctx = (("x", cc("U_Type")),)
    alg = ALGS[1]
    psis = enumerate_psis(ctx, alg)
    assert psis == [{"x": E_POINT}]


def test_universe_pools_fall_back_to_the_probe_menu():
    ctx = (("x", cc("U_Kind")),)
    alg = ALGS[1]
    psis = enumerate_psis(ctx, alg)
    assert len(psis) == 3
    assert {"x": SetElem(CARRIER)} in psis


def test_middle_valuations_range_over_the_decoded_type():
    ctx = (("x", cc("U_Type")),)
    alg = ALGS[1]
    (psi,) = enumerate_psis(ctx, alg)
    ms = enumerate_m_valuations(ctx, psi, alg)
    assert ms == [{"x": AlgElem(0)}, {"x": AlgElem(1)}]


def test_valuations_are_built_once_per_context_carrier_size_and_cap():
    ctx = (("X", cc("U_Kind")), ("x", cc("eps_Kind X", "X")))
    small, large = ALGS[0], ALGS[-1]
    assert small.n == 1 and ALGS[1].n == large.n == 2
    psis = enumerate_psis(ctx, large)
    assert all(type(psi) is Valuation for psi in psis)
    # the outer valuations read no carrier at all
    assert enumerate_psis(ctx, ALGS[1]) is psis and enumerate_psis(ctx, small) is psis
    assert enumerate_psis(ctx, large, 1000) is not psis
    psi = next(p for p in psis if p["X"] == SetElem(CARRIER))
    phis = enumerate_m_valuations(ctx, psi, large)
    assert len(phis) == 4 and all(type(phi) is Valuation for phi in phis)
    assert enumerate_m_valuations(ctx, psi, ALGS[1]) is phis
    assert enumerate_m_valuations(ctx, dict(psi), large) is phis
    assert enumerate_m_valuations(ctx, psi, small) is not phis
    assert enumerate_m_valuations(ctx, psi, large, 1000) is not phis


def test_a_size_limit_on_inner_valuations_is_raised_on_every_call():
    ctx = (("X", cc("U_Kind")), ("x", cc("eps_Kind X", "X")))
    psi = {"X": SetElem(fun_space(CARRIER, CARRIER)), "x": E_POINT}
    for _ in range(2):
        with pytest.raises(SizeLimitExceeded):
            enumerate_m_valuations(ctx, psi, ALGS[-1], 3)


def test_a_valuation_is_its_own_key_and_a_dict_keys_by_a_snapshot():
    psi = Valuation(X=SetElem(CARRIER))
    assert valuation_key(psi) is psi and valuation_key(None) is None
    live = dict(psi)
    key = valuation_key(live)
    live["X"] = SetElem(SINGLETON_E)
    assert type(key) is Valuation and key == psi and hash(key) == hash(psi)


def test_default_valuations_pick_canonical_inhabitants():
    # binder extension only ever needs outer-layer sets, never the carrier
    assert default_n_value(domain_n(cc("Pi x : U_Kind. U_Kind"))) is not None
    with pytest.raises(PiModuloError, match="not an outer set"):
        default_n_value(CARRIER)
    with pytest.raises(PiModuloError, match="not an outer set"):
        probe_menu(fun_space(CARRIER, E_UNIVERSE))


# --- membership and equality ---


def test_signature_constants_inhabit_their_outer_domains():
    alg = ALGS[1]
    for name, ty in CC.signature:
        v = m_value(Const(name), {})
        assert member_of_n(v, domain_n(ty), alg), name


def test_membership_in_basic_sets():
    alg = ALGS[1]
    assert member_of_n(AlgElem(1), CARRIER, alg)
    assert not member_of_n(AlgElem(2), CARRIER, alg)
    assert member_of_n(E_POINT, SINGLETON_E, alg)
    assert member_of_n(SetElem(CARRIER), E_UNIVERSE, alg)
    # the point doubles as a constant function exactly when the codomain
    # admits the point itself
    assert member_of_n(E_POINT, FunSpace(E_UNIVERSE, SINGLETON_E), alg)
    assert not member_of_n(E_POINT, fun_space(CARRIER, E_UNIVERSE), alg)


def test_set_equality_is_extensional():
    left = finite_fun([(AlgElem(0), AlgElem(1)), (AlgElem(1), AlgElem(1))])
    right = finite_fun([(AlgElem(k), AlgElem(1)) for k in range(2)])
    assert equal_values(left, right)


# Every set built by `fun_space` from B, {e} and E, nested to depth 3.
# The model compares sets and tabulated elements with `==`, which is
# extensional only because the constructors of `values` collapse; this
# holds that to the members, with no canonical form in between.
def _nested_sets(depth: int) -> list:
    sets = [CARRIER, SINGLETON_E, E_UNIVERSE]
    for _ in range(depth - 1):
        sets = list(dict.fromkeys(sets + [fun_space(a, b) for a in sets for b in sets]))
    return sets


def _graph(v):
    return {k: _graph(out) for k, out in v.graph} if isinstance(v, FiniteFun) else v


@pytest.mark.parametrize("n", [1, 2])
def test_listable_sets_and_their_members_are_equal_when_extensionally_equal(n):
    cap = 1024
    listable = [s for s in _nested_sets(3) if enumerable(s) and cardinality(s, n) <= cap]
    members = {s: listing(s, n, cap) for s in listable}
    for s in listable:
        for t in listable:
            assert (s == t) == (set(members[s]) == set(members[t])), (s, t)
        graphs = [_graph(v) for v in members[s]]
        for v, gv in zip(members[s], graphs):
            for w, gw in zip(members[s], graphs):
                assert (v == w) == (gv == gw), (s, v, w)
