import gc
import math
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_measure, random_tensor
from gwn import symtensor
from gwn.extfock import fock_inner_n
from gwn.errors import ContractError, DimensionError, DomainError, SizeError
from gwn.measure import AtomicMeasure
from gwn.symtensor import (MAX_DEGREE, FockVector, SymTensor, _tables, rank_one,
                           sym_product)
from gwn.fieldops import create
from gwn.wickcalc import Basis, PolyFunctional, _atom_table, monomial_to_wick
from oracles import (append_tied_slots, dense_from_symtensor, diagonal_restrict,
                     sym_product_dense, symtensor_from_dense)


def test_storage_size():
    assert SymTensor(2, 3).values.size == math.comb(4, 3)
    assert SymTensor(4, 0).values.size == 1


def test_rank_one_power_identity():
    f = np.array([1.0, 2.0, -0.5])
    t = rank_one(f, 3)
    assert t.value_at((0, 1, 2)) == pytest.approx(-1.0)
    assert t.value_at((2, 1, 0)) == pytest.approx(-1.0)
    assert t.value_at((1, 1, 1)) == pytest.approx(8.0)


@pytest.mark.parametrize("m,n", [(1, 0), (1, 5), (3, 4), (4, 6), (2, 16),
                                 (255, 2), (256, 2), (257, 2)])
def test_occupation_table_matches_counting_loop(m, n):
    tab = _tables(m, n)
    assert tab.reps.dtype == (np.uint8 if m <= 256 else np.uint16)
    assert tab.last_run.dtype == np.int8
    assert tab.reps.tolist() == [list(r) for r in combinations_with_replacement(range(m), n)]
    for rep, pc, last in zip(tab.reps.tolist(), tab.perm_counts.tolist(),
                             tab.last_run.tolist()):
        counts = Counter(rep)
        assert pc == math.factorial(n) // math.prod(
            math.factorial(c) for c in counts.values())
        assert last == (counts[rep[-1]] if rep else 0)


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


def test_dense_round_trip(rng):
    # the two oracles between multiset storage and full arrays
    t = random_tensor(rng, 3, 4)
    back = symtensor_from_dense(dense_from_symtensor(t))
    assert np.allclose(back.values, t.values, atol=1e-14)


def test_from_dense_symmetrizes():
    arr = np.array([[0.0, 2.0], [4.0, 6.0]])
    t = symtensor_from_dense(arr)
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


def test_fock_vector_storage_is_read_only(rng):
    v = FockVector([random_tensor(rng, 3, n) for n in range(3)])
    with pytest.raises(TypeError):
        v.kernels[0] = SymTensor(3, 0)
    for u in (v, v + v, 2.0 * v, v.pad_to(4), FockVector.single(v.get(2)),
              FockVector.zeros(3, 1), FockVector.vacuum(3)):
        with pytest.raises(ValueError):
            u.coeffs[0] = 1.0
    # the kernels are fresh tensors: writing into one leaves the vector alone
    k = v.get(1)
    k.values[:] = 7.0
    assert v.get(1).max_abs() < 7.0


def test_no_atoms_is_a_dimension_error():
    for m in (0, -2):
        with pytest.raises(DimensionError, match="need at least one atom"):
            SymTensor(m, 0)


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
    with pytest.raises(SizeError, match="multiset table"):
        rank_one(np.ones(40), 7)          # its products fit, its tables do not


def test_run_table_budget_counts_its_bytes(monkeypatch):
    # an (atom, rep) of the run table holds 5 bytes (int8 run length, int32
    # base), which is ceil(5 m size / 8) of the budget's 8-byte entries:
    # 37.5, so 38, at 3 atoms and degree 4
    m, N = 3, 4
    size = symtensor._start(m, N)
    need = -(-5 * m * size // 8)
    symtensor._insertions(m, N)     # the table it reads, under the full budget
    symtensor._atom_runs.cache_clear()
    try:
        monkeypatch.setattr(symtensor, "MAX_ENTRIES", need - 1)
        with pytest.raises(SizeError, match=rf"run table \(m={m}, N={N}\) needs {need} "):
            symtensor._atom_runs(m, N)
        monkeypatch.setattr(symtensor, "MAX_ENTRIES", need)
        runs = symtensor._atom_runs(m, N)
        assert [x.shape for x in runs] == [(m, size)] * 2
        assert sum(x.nbytes for x in runs) <= 8 * need
    finally:
        symtensor._atom_runs.cache_clear()
    # the insertion table (4 bytes an (atom, rep)) is refused with the
    # degree-N multiset table its offsets point into, n + 3 entries a rep,
    # which outweighs it: 105 entries against the 240 bytes (30 entries)
    # it holds
    table = math.comb(N + m - 1, N) * (N + 3)
    symtensor._insertions.cache_clear()
    try:
        monkeypatch.setattr(symtensor, "MAX_ENTRIES", table - 1)
        with pytest.raises(SizeError, match=rf"multiset table \(m={m}, n={N}\) needs {table} "):
            symtensor._insertions(m, N)
        monkeypatch.setattr(symtensor, "MAX_ENTRIES", table)
        ins = symtensor._insertions(m, N)
        assert ins.shape == (m, size) and ins.nbytes <= 8 * table
    finally:
        symtensor._insertions.cache_clear()


@pytest.mark.parametrize("block", [1, 5, 64])
def test_atom_products_in_row_blocks_are_bit_identical(monkeypatch, block):
    # blocks of one row, and of 21 or 5 or 64 rows with a short last block,
    # give the bytes of one multiply per degree: the products are elementwise
    rng = np.random.default_rng(4)
    tables = [rng.uniform(-2.0, 2.0, (4, 6, 3)), rng.uniform(-2.0, 2.0, (6, 6))]
    wholes = [symtensor.atom_products(table, 5) for table in tables]
    monkeypatch.setattr(symtensor, "_PRODUCT_BLOCK", block)
    for table, whole in zip(tables, wholes):
        assert np.array_equal(symtensor.atom_products(table, 5), whole)


@pytest.mark.parametrize("case", ["scalar_16_7", "atom_table_8_2_4096"])
def test_atom_products_peak_memory_is_result_and_two_blocks(case):
    # one gather buffer and its block of row indices past the result: the
    # bound fails if a whole degree is gathered at once, or if the k-major
    # view of _atom_table's output is copied
    rng = np.random.default_rng(5)
    if case == "scalar_16_7":
        table, N = rng.uniform(-2.0, 2.0, (16, 8)), 7
    else:
        s = rng.uniform(0.05, 2.5, (8, 4096))
        table, N = _atom_table(Basis.GAMMA_WICK, s, rng.uniform(0.5, 2.0, 8), 2), 2
    result = symtensor.atom_products(table, N)   # fills the rank caches
    tracemalloc.start()
    try:
        symtensor.atom_products(table, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= result.nbytes + 2 * symtensor._PRODUCT_BLOCK * result.itemsize + 64 * 1024


# --- rank tables against the key-and-search oracle --------------------------

def assert_rank_routes(m: int, n: int) -> None:
    """The recursive insertion table into degrees 1..n+1 (its degree-n
    block, and its prefix into degrees 1..n), the run table of degrees 1..n
    and the merge tables (n - b, b), b >= 2, composed from the insertion
    table, as integers, against ranking each row by key and searchsorted."""
    ins = symtensor._insertions(m, n + 1)
    assert ins.dtype == np.int32 and ins.shape == (m, symtensor._start(m, n + 1))
    block = ins[:, symtensor._degree(m, n)].T - symtensor._start(m, n + 1)
    assert np.array_equal(block, oracles.insert_ranks(m, n))
    entry, k, base = oracles.atom_runs(m, n)
    for got in (symtensor._insertions(m, n), ins[:, :entry.shape[1]]):
        assert np.array_equal(got, entry)
    runs = symtensor._atom_runs(m, n)
    assert [x.dtype for x in runs] == [np.int8, np.int32]
    for got, want in zip(runs, (k, base)):
        assert np.array_equal(got, want)
    for b in range(2, n + 1):
        assert np.array_equal(symtensor._merge_ranks(m, n - b, b),
                              oracles.merge_ranks(m, n - b, b))


def assert_lex_ranks(m: int, n: int, seed: int) -> None:
    """The closed-form rank of unsorted rows, against key and searchsorted."""
    rows = np.random.default_rng(seed).integers(0, m, (500, n))
    got = [symtensor._lex_rank(m, n, row, "row") for row in rows]
    assert got == oracles.rank_rows(m, rows).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_rank_routes_match_key_search(m, n, seed):
    assert_rank_routes(m, n)
    assert_lex_ranks(m, n, seed)


def test_rank_routes_match_key_search_at_80_atoms():
    assert_rank_routes(80, 3)
    assert_lex_ranks(80, 3, 1)
    assert_lex_ranks(300, 2, 2)


@pytest.mark.parametrize("m", [255, 256, 257])
def test_rank_tables_past_the_narrow_dtype(m):
    # reps are uint8 up to 256 atoms: arithmetic on them such as m - last
    # or k m + a must not wrap there or one atom later
    for n in range(1, 3):
        tab = _tables(m, n)
        keys = oracles._keys(m, tab.reps)
        assert len(tab.reps) == math.comb(m + n - 1, n) and np.all(np.diff(keys) > 0)
        assert np.all(np.diff(tab.reps.astype(int), axis=1) >= 0) and tab.reps.max() == m - 1
        for got, want in zip(symtensor._last_runs(m, n), oracles.last_runs(m, n)):
            assert got.dtype == np.int32 and np.array_equal(got, want)
    ins = symtensor._insertions(m, 2)
    block = ins[:, symtensor._degree(m, 1)].T - symtensor._start(m, 2)
    assert np.array_equal(block, oracles.insert_ranks(m, 1))
    entry, k, base = oracles.atom_runs(m, 2)
    assert np.array_equal(ins, entry)
    for got, want in zip(symtensor._atom_runs(m, 2), (k, base)):
        assert np.array_equal(got, want)
    assert np.array_equal(symtensor._merge_ranks(m, 0, 2), oracles.merge_ranks(m, 0, 2))
    table = np.random.default_rng(m).uniform(-2.0, 2.0, (m, 3))
    assert np.array_equal(symtensor.atom_products(table, 2),
                          oracles.atom_products_pairwise(table, 2))


def test_cached_rank_tables_are_read_only():
    t = SymTensor(4, 3)
    tables = [t.reps, t.perm_counts, *_tables(4, 3), *symtensor._last_runs(4, 3),
              symtensor._insertions(4, 4), *symtensor._atom_runs(4, 3)]
    for x in tables:
        with pytest.raises(ValueError, match="read-only"):
            x[(0,) * x.ndim] = x[(0,) * x.ndim]


def _cached_arrays() -> list:
    """Every array a cache of ``symtensor`` holds: an lru_cache wrapper
    refers to its cache, a dict from arguments to results."""
    found = []
    for f in vars(symtensor).values():
        for d in gc.get_referents(f) if hasattr(f, "cache_clear") else ():
            if isinstance(d, dict) and d is not f.__dict__:
                for v in d.values():
                    found += [x for x in (v if isinstance(v, tuple) else (v,))
                              if isinstance(x, np.ndarray)]
    return found


def test_one_stored_copy_of_the_insertion_ranks():
    # creation on degree 3 and conversion on degree 4 both take one atom
    # steps from the reps of degree <= 3; what the caches hold of those
    # steps, in any layout (atom- or rep-major, counted from the start of
    # any degree), is one int32 table over degrees 0..3 and the tables over
    # fewer degrees it is built from, no more
    m, N = 12, 4
    for f in vars(symtensor).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    rng = np.random.default_rng(7)
    mu = random_measure(rng, m)
    create(np.ones(m), FockVector([random_tensor(rng, m, n) for n in range(N)]))
    monomial_to_wick(PolyFunctional(Basis.MONOMIAL, FockVector(
        [random_tensor(rng, m, n) for n in range(N + 1)])), mu)
    flat = oracles.atom_runs(m, N)[0]      # [a, r]: the offset of rep r plus atom a
    starts = [symtensor._start(m, n) for n in range(N + 1)]

    def holds_insertions(x):
        if x.ndim != 2 or x.dtype != np.int32:
            return False
        for y in (x, x.T):
            for lo in starts:
                if y.shape[0] == m and 0 < y.shape[1] <= flat.shape[1] - lo:
                    d = y - flat[:, lo:lo + y.shape[1]]
                    if np.all(d == d[0, 0]):
                        return True
        return False

    held = [x for x in _cached_arrays() if holds_insertions(x)]
    assert any(x.shape == flat.shape for x in held)
    assert sum(x.nbytes for x in held) <= 4 * m * sum(starts)


def test_fock_inner_n_peak_memory_is_products_and_one_degree():
    # past the products of every degree, one array the size of degree 7:
    # the weights take perm_count in place, and real values are not
    # conjugated into a copy
    rng = np.random.default_rng(6)
    mu, f, g = random_measure(rng, 16), random_tensor(rng, 16, 7), random_tensor(rng, 16, 7)
    fock_inner_n(mu, f, g)   # fills the rank caches
    tracemalloc.start()
    try:
        fock_inner_n(mu, f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= symtensor._start(16, 8) * 8 + f.values.nbytes + 64 * 1024


def test_rank_tables_of_16_atoms_to_degree_7_fit_in_8_mb():
    # about 5.8 MB
    total = sum(x.nbytes for n in range(8) for x in _tables(16, n))
    total += sum(x.nbytes for n in range(1, 8) for x in symtensor._last_runs(16, n))
    assert total <= 8 * 2**20


@pytest.mark.parametrize("call, error, message", [
    (lambda: SymTensor(2, 2, np.zeros(4)), DimensionError,
     r"expected 3 multiset values for m=2, degree=2, got shape \(4,\)"),
    (lambda: SymTensor(2, 1) + SymTensor(3, 1), DimensionError,
     "tensors live over different atom sets"),
    (lambda: SymTensor(2, 1) + SymTensor(2, 2), ContractError,
     "tensors have different degrees"),
    (lambda: SymTensor(3, 2).value_at((0,)), ContractError,
     r"index tuple \(0,\) has 1 atoms, not 2"),
    (lambda: SymTensor(3, 2).value_at((0, 3)), DimensionError,
     r"index tuple \(0, 3\) out of range for m=3"),
    (lambda: rank_one(np.ones((2, 2)), 2), DimensionError,
     "rank_one expects a vector of atom values"),
    (lambda: sym_product(SymTensor(2, 1), SymTensor(3, 1)), DimensionError,
     "tensors live over different atom sets"),
    (lambda: FockVector([]), ContractError,
     "a Fock vector needs at least the degree-0 kernel"),
    (lambda: FockVector.vacuum(2) + FockVector.vacuum(3), DimensionError,
     "Fock vectors live over different atom sets"),
    (lambda: _tables(0, 2), DimensionError, "need at least one atom"),
], ids=["values_shape", "add_other_atoms", "add_other_degree",
        "index_length", "index_out_of_range", "rank_one_matrix",
        "sym_product_other_atoms", "empty_fock_vector", "fock_add_other_atoms",
        "table_without_atoms"])
def test_symtensor_refuses_mismatched_shapes(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert "\n" not in str(raised.value)
