import math
from collections import Counter

import numpy as np
import pytest

from conftest import random_measure, random_tensor
from gwn.errors import ContractError, DimensionError, DomainError, SizeError
from gwn.measure import AtomicMeasure
from gwn.symtensor import (MAX_DEGREE, FockVector, SymTensor, _tables,
                           multiply_pointwise_first_slot, rank_one, sym_product)
from oracles import (append_tied_slots, dense_from_symtensor, diagonal_restrict,
                     sym_product_dense)


def test_storage_size():
    assert SymTensor(2, 3).values.size == math.comb(4, 3)
    assert SymTensor(4, 0).values.size == 1


def test_rank_one_power_identity():
    f = np.array([1.0, 2.0, -0.5])
    t = rank_one(f, 3)
    assert t.value_at((0, 1, 2)) == pytest.approx(-1.0)
    assert t.value_at((2, 1, 0)) == pytest.approx(-1.0)
    assert t.value_at((1, 1, 1)) == pytest.approx(8.0)


@pytest.mark.parametrize("m,n", [(1, 0), (1, 5), (3, 4), (4, 6), (2, 16)])
def test_occupation_table_matches_counting_loop(m, n):
    tab = _tables(m, n)
    for rep, occ, pc in zip(tab.reps.tolist(), tab.occ.tolist(),
                            tab.perm_counts.tolist()):
        counts = Counter(rep)
        assert occ == [counts[i] for i in range(m)]
        assert pc == math.factorial(n) // math.prod(
            math.factorial(c) for c in counts.values())


def test_sym_product_basis_split():
    # f = e_0, g = e_1: the symmetrized product spreads mass over both orderings
    f = np.array([1.0, 0.0])
    g = np.array([0.0, 1.0])
    t = sym_product(rank_one(f, 1), rank_one(g, 1))
    assert t.value_at((0, 1)) == pytest.approx(0.5)
    assert t.value_at((0, 0)) == pytest.approx(0.0)
    assert t.value_at((1, 1)) == pytest.approx(0.0)


def test_sym_product_of_equal_powers_has_no_prefactor():
    phi = np.array([0.7, -1.3, 0.4])
    lhs = sym_product(rank_one(phi, 2), rank_one(phi, 3))
    rhs = rank_one(phi, 5)
    assert np.allclose(lhs.values, rhs.values, atol=1e-14)


def test_sym_product_matches_dense_oracle(rng):
    for na, nb in [(1, 1), (1, 2), (2, 2), (3, 1)]:
        a = random_tensor(rng, 3, na)
        b = random_tensor(rng, 3, nb)
        got = sym_product(a, b)
        want = sym_product_dense(dense_from_symtensor(a), dense_from_symtensor(b))
        assert np.allclose(dense_from_symtensor(got), want, atol=1e-13)


def test_sym_product_commutes(rng):
    a = random_tensor(rng, 4, 2)
    b = random_tensor(rng, 4, 3)
    ab = sym_product(a, b)
    ba = sym_product(b, a)
    assert np.allclose(ab.values, ba.values, atol=1e-14)


def test_diagonal_restrict_full_identification():
    t = SymTensor.from_index_map(2, 2, {"0 0": 5.0, "0 1": 2.0, "1 1": -3.0})
    d = diagonal_restrict(t, [[0, 1]])
    assert d.tolist() == [5.0, -3.0]


def test_diagonal_restrict_partial(rng):
    t = random_tensor(rng, 3, 3)
    d = diagonal_restrict(t, [[0, 2], [1]])
    for i in range(3):
        for j in range(3):
            assert d[i, j] == pytest.approx(t.value_at((i, j, i)))


def test_diagonal_restrict_bad_partition(rng):
    t = random_tensor(rng, 3, 3)
    with pytest.raises(ContractError):
        diagonal_restrict(t, [[0, 1]])          # does not cover slot 2
    with pytest.raises(ContractError):
        diagonal_restrict(t, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(ContractError):
        diagonal_restrict(t, [[0, 3], [1, 2]])  # out of range


def test_multiply_pointwise_first_slot_frozen():
    t = rank_one(np.array([1.0, 2.0]), 2)
    out = multiply_pointwise_first_slot(t, np.array([3.0, 0.0]))
    assert out.value_at((0, 0)) == pytest.approx(3.0)
    assert out.value_at((0, 1)) == pytest.approx(3.0)
    assert out.value_at((1, 1)) == pytest.approx(0.0)


def test_multiply_pointwise_first_slot_rank_one_identity(rng):
    # n * sym[ (g phi) otimes phi^(n-1) ] = n * multiply(phi^n, g)
    phi = rng.normal(size=3)
    g = rng.normal(size=3)
    n = 4
    lhs = multiply_pointwise_first_slot(rank_one(phi, n), g)
    rhs = sym_product(rank_one(g * phi, 1), rank_one(phi, n - 1))
    assert np.allclose(lhs.values, rhs.values, atol=1e-13)


def test_dense_round_trip(rng):
    t = random_tensor(rng, 3, 4)
    back = SymTensor.from_dense(t.to_dense())
    assert np.allclose(back.values, t.values, atol=1e-14)


def test_from_dense_symmetrizes():
    arr = np.array([[0.0, 2.0], [4.0, 6.0]])
    t = SymTensor.from_dense(arr)
    assert t.value_at((0, 1)) == pytest.approx(3.0)


def test_index_map_round_trip(rng):
    t = random_tensor(rng, 3, 2)
    back = SymTensor.from_index_map(3, 2, t.to_index_map())
    assert np.allclose(back.values, t.values)


def test_append_tied_slots_single_atom():
    # On one atom every slot coincides: tying r slots divides by w^r.
    meas = AtomicMeasure([0.5])
    t = SymTensor(1, 2, np.array([3.0]))
    out = append_tied_slots(t, 1, meas)
    assert out.degree == 3
    assert out.values[0] == pytest.approx(3.0 / 0.5)
    out2 = append_tied_slots(t, 2, meas)
    assert out2.values[0] == pytest.approx(3.0 / 0.25)


def test_append_tied_slots_off_diagonal_vanishes():
    # Tying slots onto a kernel and reading a no-repeat entry gives zero.
    meas = AtomicMeasure([1.0, 2.0])
    t = rank_one(np.array([1.0, 1.0]), 1)
    out = append_tied_slots(t, 1, meas)
    assert out.value_at((0, 1)) == pytest.approx(0.0)
    assert out.value_at((0, 0)) == pytest.approx(1.0 / 1.0)
    assert out.value_at((1, 1)) == pytest.approx(1.0 / 2.0)  # K(v)/w_v with K = 1


def test_append_tied_slots_symmetrization_weights():
    # Degree 2 from degree 1 with one tie: out[t] = (1/C(2,2)) sum over pairs.
    # Mixed-atom entries vanish; same-atom entries pick K(v)/w_v.
    meas = AtomicMeasure([0.5, 4.0])
    t = SymTensor(2, 1, np.array([2.0, 3.0]))
    out = append_tied_slots(t, 1, meas)
    assert out.value_at((0, 0)) == pytest.approx(2.0 / 0.5)
    assert out.value_at((1, 1)) == pytest.approx(3.0 / 4.0)
    assert out.value_at((0, 1)) == pytest.approx(0.0)


def test_fock_vector_algebra(rng):
    v = FockVector.zeros(3, 2)
    w = FockVector.single(random_tensor(rng, 3, 1))
    s = v + 2.0 * w
    assert s.degree == 2
    assert np.allclose(s.get(1).values, 2.0 * w.get(1).values)
    assert s.get(2).max_abs() == 0.0


def test_fock_vector_contracts():
    with pytest.raises(ContractError):
        FockVector([SymTensor(2, 1)])  # missing degree-0 kernel
    with pytest.raises(DimensionError):
        FockVector([SymTensor(2, 0), SymTensor(3, 1)])


def test_vacuum():
    v = FockVector.vacuum(4)
    assert v.degree == 0
    assert v.get(0).values[0] == 1.0
    assert v.get(3).max_abs() == 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, "nan", "-inf"])
def test_from_index_map_rejects_non_finite_values(value):
    with pytest.raises(DomainError):
        SymTensor.from_index_map(2, 1, {"0": 1.0, "1": value})


def test_entry_budget_refuses_oversized_tensors_and_tables():
    with pytest.raises(SizeError):
        SymTensor(60, 8)
    with pytest.raises(SizeError):
        SymTensor(2, MAX_DEGREE + 1)      # small, but past the degree cap
    with pytest.raises(SizeError):
        rank_one(np.ones(60), 5)          # the 60-atom degree-5 table
    with pytest.raises(SizeError):
        rank_one(np.ones(16), 7).to_dense()   # 16^7 ordered tuples
