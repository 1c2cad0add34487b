import pytest

from pimodulo.algebra import (
    FiniteAlgebra,
    OrderRelation,
    all_orders,
    check_complete,
    check_ordered,
    discrete_order,
    enumerate_full_algebras,
    mask_elements,
    read_alg,
    sample_full_algebras,
    write_alg,
)
from pimodulo.errors import SizeTooLargeForExhaustive


def heyting_two() -> FiniteAlgebra:
    # on {0, 1} with 0 <= 1: pi(w, S) = 1 unless w = 1 and 1 not in S
    table = tuple(
        tuple(1 if w == 0 or mask >> 1 & 1 else 0 for mask in range(4))
        for w in range(2)
    )
    return FiniteAlgebra(2, 1, table)


# ------------- construction invariants -------------


def test_top_must_lie_in_the_carrier() -> None:
    with pytest.raises(ValueError):
        FiniteAlgebra(2, 2, ((0,) * 4, (0,) * 4))


def test_table_needs_a_row_per_element() -> None:
    with pytest.raises(ValueError):
        FiniteAlgebra(2, 0, ((0,) * 4,))


def test_rows_need_an_entry_per_subset() -> None:
    with pytest.raises(ValueError):
        FiniteAlgebra(2, 0, ((0,) * 3, (0,) * 4))


def test_entries_stay_in_the_carrier() -> None:
    with pytest.raises(ValueError):
        FiniteAlgebra(2, 0, ((0, 0, 0, 2), (0,) * 4))


# ------------- lookups and masks -------------


def test_pi_reads_the_table() -> None:
    alg = heyting_two()
    assert alg.pi(1, 0b10) == 1
    assert alg.pi(1, 0b01) == 0


def test_arrow_is_pi_on_a_singleton() -> None:
    alg = heyting_two()
    assert alg.arrow(1, 0) == alg.pi(1, 0b01)


def test_mask_round_trip() -> None:
    alg = heyting_two()
    for mask in alg.subsets():
        assert alg.mask_of(mask_elements(mask, alg.n)) == mask


# ------------- exhaustive enumeration -------------


def test_single_element_carrier_has_one_algebra() -> None:
    algs = list(enumerate_full_algebras(1))
    assert len(algs) == 1
    assert algs[0].top == 0


def test_two_element_carrier_has_512_algebras() -> None:
    algs = list(enumerate_full_algebras(2))
    assert len(algs) == 512
    assert len(set(algs)) == 512


def test_enumeration_is_deterministic() -> None:
    assert list(enumerate_full_algebras(2))[:7] == list(enumerate_full_algebras(2))[:7]


def test_larger_carriers_refuse_exhaustive_enumeration() -> None:
    with pytest.raises(SizeTooLargeForExhaustive):
        next(enumerate_full_algebras(3))


def test_sampling_is_seeded_and_sized() -> None:
    a = list(sample_full_algebras(3, 5, seed=11))
    b = list(sample_full_algebras(3, 5, seed=11))
    assert a == b
    assert len(a) == 5
    assert all(alg.n == 3 for alg in a)
    assert a != list(sample_full_algebras(3, 5, seed=12))


def test_sampling_draws_no_algebra_twice_and_stops_at_every_algebra() -> None:
    assert list(sample_full_algebras(1, 64)) == list(enumerate_full_algebras(1))
    # seed 0 draws a repeat within its first 64 tables at size 2
    assert len(set(sample_full_algebras(2, 64))) == 64
    every = list(sample_full_algebras(2, 600))
    assert len(every) == len(set(every)) == 512


# ------------- orders -------------


def test_order_must_be_reflexive() -> None:
    with pytest.raises(ValueError):
        OrderRelation(2, ((False, False), (False, True)))


def test_order_must_be_antisymmetric() -> None:
    with pytest.raises(ValueError):
        OrderRelation(2, ((True, True), (True, True)))


def test_order_must_be_transitive() -> None:
    leq = (
        (True, True, False),
        (False, True, True),
        (False, False, True),
    )
    with pytest.raises(ValueError):
        OrderRelation(3, leq)


def test_all_orders_on_two_elements() -> None:
    # discrete, 0 <= 1, and 1 <= 0
    assert len(all_orders(2)) == 3


def test_set_leq_is_elementwise_majorization() -> None:
    chain = OrderRelation(2, ((True, True), (False, True)))
    assert chain.set_leq(0b01, 0b10)
    assert not chain.set_leq(0b10, 0b01)
    assert chain.set_leq(0, 0b01)


# ------------- the order axioms -------------


def test_discrete_order_forces_constant_rows() -> None:
    # under the discrete order set_leq degenerates to subset inclusion,
    # so right monotonicity pins every row of the table to one value
    order = discrete_order(2)
    for alg in enumerate_full_algebras(2):
        constant_rows = all(len(set(row)) == 1 for row in alg.pi_table)
        assert check_ordered(alg, order) == constant_rows


def test_discrete_two_point_order_is_incomplete() -> None:
    # the empty set has no least upper bound without comparabilities
    assert not check_complete(heyting_two(), discrete_order(2))
    assert check_complete(FiniteAlgebra(1, 0, ((0, 0),)), discrete_order(1))


def test_heyting_two_is_ordered_and_complete_on_the_chain() -> None:
    chain = OrderRelation(2, ((True, True), (False, True)))
    alg = heyting_two()
    assert check_ordered(alg, chain)
    assert check_complete(alg, chain)


def test_some_algebra_fails_the_chain_axioms() -> None:
    chain = OrderRelation(2, ((True, True), (False, True)))
    # pi constantly 0 except pi(0, {}) = 1 breaks right monotonicity
    alg = FiniteAlgebra(2, 1, ((1, 0, 0, 0), (0, 0, 0, 0)))
    assert not check_ordered(alg, chain)


# ------------- algebra files -------------


def test_write_read_round_trip() -> None:
    alg = heyting_two()
    assert read_alg(write_alg(alg)) == alg


def test_read_rejects_missing_rows() -> None:
    with pytest.raises(ValueError):
        read_alg("2 0\n0 0 0 0\n")


def test_read_rejects_a_bad_header() -> None:
    with pytest.raises(ValueError):
        read_alg("2\n")
