"""Randomized checks of the fast paths against independent routes.

* the scalar rank-one route (the log of the Wick exponential), one
  direction or a stack of them, against the Wick kernels paired through
  fock_inner_n and against the product of one-atom series multiplied out
  by truncated convolution;
* the per-atom closed forms against the combinatorial routes they replaced
  (now in ``oracles``): ext_inner_n against the loop-partition sum and the
  permutation sum, wick_kernels against the five-term recurrence, and both
  basis conversions against the loop-partition expansion, plus the round
  trip;
* the flat ``FockVector`` (one coefficient array over all degrees) against
  degreewise ``SymTensor`` arithmetic, real and complex, of unequal
  degrees;
* sym_product against the dense average over slot orderings, and the
  field operators, the Wick adjoint at one atom and the slot derivatives
  against dense-array routes; coordinate multiplication against its
  unmerged five-term sum;
* the batched MC reducer against mean and std(ddof=1)/sqrt(n) of the
  concatenated statistic, for any split into batches;
* the Taylor / jump-power-sum route of the adjointness check's jump sum,
  its Taylor coefficients read off the one-atom restrictions, against
  removing each jump from its own copy of the configuration;
* the per-atom lines of basis conversion against a loop that removes each
  atom's run from every multi-index and ranks the rest, and both
  conversions at 20 to 24 atoms against the loop-partition expansion;
* the one-atom Laguerre coefficients and the basis-conversion tables
  against their closed forms, entry by entry in relative terms;
* the product kernel ``atom_products`` against products counted atom by
  atom, and the routes built on it against dense sums over ordered index
  tuples: ``rank_one``, ``fock_inner_n``, ``s_transform`` and
  ``evaluate_batch`` in both bases, Gamma-Wick input through the
  five-term kernels, every column of a stacked evaluation on its own;
* the integral form of the smeared Wick derivative, evaluated over the
  shifted configurations of every atom in the support of xi, against the
  slot evaluation of the Gamma-Wick kernels.

Each comparison is scaled by the size of the terms being summed, computed
from absolute values, so cancellation in the result cannot fail a correct
route.
"""

import functools
import math
from itertools import combinations_with_replacement
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gwn import gammasample
from gwn.errors import DomainError
from gwn.extfock import ext_inner_n, fock_inner_n
from gwn.fieldops import annihilate1, annihilate2, create, neutral
from gwn.funcalc import (_jump_removals, annihilate1_integral,
                         coordinate_multiply, del_dagger, nabla, wick_del)
from gwn.gammasample import _cp_segments, _draw_cp_batch, _stream, mean_and_se
from gwn.measure import AtomicMeasure
from gwn.symtensor import (FockVector, SymTensor, _atom_runs, _degree, _insertions, _start,
                           _tables, atom_products, rank_one, sym_product)
from gwn.wickcalc import (Basis, OmegaSample, PolyFunctional, _atom_table,
                          _wick_coefficients, evaluate_batch,
                          laguerre_system, monomial_to_wick, s_transform, wick_kernels,
                          wick_pair_rank_one, wick_pair_rank_one_batch,
                          wick_to_monomial)

from conftest import rel_err

unit = st.floats(-1.0, 1.0)


@st.composite
def rank_one_inputs(draw):
    m = draw(st.integers(1, 5))
    N = draw(st.integers(0, 5))
    weights = [10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(m)]
    # masses on the scale of their weights, with some atoms left empty
    masses = [w * draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
              for w in weights]
    xi = [draw(unit) for _ in range(m)]
    return AtomicMeasure(weights), OmegaSample(masses), np.array(xi), N


@settings(max_examples=150, deadline=None)
@given(rank_one_inputs())
def test_rank_one_route_matches_kernel_route(inputs):
    mu, om, xi, N = inputs
    kernels = wick_kernels(om, mu, N)
    q = wick_pair_rank_one(om, xi, mu, N)
    assert q.shape == (N + 1,)
    for n in range(N + 1):
        assert rel_err(q[n], fock_inner_n(mu, kernels[n], rank_one(xi, n))) \
            <= 1e-9


@st.composite
def weights(draw, max_m=5):
    m = draw(st.integers(1, max_m))
    return AtomicMeasure([10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(m)])


def complex_tensor(seed: int, m: int, n: int) -> SymTensor:
    rng = np.random.default_rng(seed)
    size = math.comb(m + n - 1, n)
    return SymTensor(m, n, rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size))


def real_tensor(seed: int, m: int, n: int) -> SymTensor:
    return SymTensor(m, n, complex_tensor(seed, m, n).values.real)


def abs_tensor(t: SymTensor) -> SymTensor:
    return SymTensor(t.m, t.degree, np.abs(t.values))


seeds = st.integers(0, 2 ** 32 - 1)


def assert_rank_one_stack_matches_routes(mu, S, X, N):
    """Each direction of the stacked kernel against the atom-by-atom
    convolution, against its own 1-d call, and on the first row against
    the Wick kernels paired through fock_inner_n."""
    got = wick_pair_rank_one_batch(S, X, mu, N)
    assert got.shape == (len(S), len(X), N + 1)
    kernels = wick_kernels(OmegaSample(S[0]), mu, N)
    for f, xi in enumerate(X):
        want, size = oracles.wick_pair_rank_one_convolution(S, xi, mu, N)
        scale = np.maximum(1.0, size)
        assert np.all(np.abs(got[:, f] - want) <= 1e-13 * scale)
        alone = wick_pair_rank_one_batch(S, xi, mu, N)
        assert alone.shape == (len(S), N + 1)
        assert np.all(np.abs(alone - got[:, f]) <= 1e-13 * scale)
        for n in range(N + 1):
            fock = fock_inner_n(mu, kernels[n], rank_one(xi, n))
            assert abs(fock - got[0, f, n]) <= 1e-12 * scale[0, n]


@st.composite
def rank_one_stacks(draw):
    m = draw(st.integers(1, 6))
    mu = AtomicMeasure([10.0 ** draw(st.floats(-2.0, 2.0)) for _ in range(m)])
    rng = np.random.default_rng(draw(seeds))
    B, F = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    # masses on the scale of their weights and directions in [-1, 1], both
    # with zero entries
    S = mu.weights * rng.uniform(0.0, 4.0, (B, m)) * (rng.random((B, m)) < 0.8)
    X = rng.uniform(-1.0, 1.0, (F, m)) * (rng.random((F, m)) < 0.7)
    return mu, S, X, draw(st.integers(0, 7))


@settings(max_examples=150, deadline=None)
@given(rank_one_stacks())
def test_rank_one_stack_matches_convolution_and_kernel_routes(case):
    assert_rank_one_stack_matches_routes(*case)


@pytest.mark.parametrize("weights, N, X", [
    ([0.7, 1.3, 2.1], 0, [[0.5, -0.2, 0.9], [-1.0, 0.3, 0.4]]),
    ([1.6], 7, [[0.8], [-0.6], [0.0]]),
    ([0.9, 1.4, 0.6, 1.1], 6, [[0.0, -0.7, 0.4, 0.0], [0.0] * 4]),
    ([1e-2, 1e-2, 1e-2], 7, [[0.9, -0.8, 0.5], [-0.3, 1.0, -1.0]]),
    ([1e2, 1e2, 1e2], 7, [[0.9, -0.8, 0.5], [-0.3, 1.0, -1.0]]),
], ids=["degree_0", "one_atom", "xi_with_zero_entries", "weights_1e-2",
        "weights_1e2"])
def test_rank_one_stack_edge_inputs(weights, N, X):
    mu = AtomicMeasure(weights)
    S = mu.weights * np.random.default_rng(11).uniform(0.0, 3.0, (6, mu.m))
    S[1, 0] = 0.0
    assert_rank_one_stack_matches_routes(mu, S, np.array(X), N)


@settings(max_examples=100, deadline=None)
@given(weights(), st.integers(0, 6), seeds)
def test_ext_inner_matches_loop_partition_sum(mu, n, seed):
    f = complex_tensor(seed, mu.m, n)
    g = complex_tensor(seed + 1, mu.m, n)
    got = ext_inner_n(mu, f, g)
    want = oracles.ext_inner_n_partitions(mu, f, g)
    scale = oracles.ext_inner_n_partitions(mu, abs_tensor(f), abs_tensor(g))
    assert abs(got - want) <= 1e-12 * scale.real


@settings(max_examples=60, deadline=None)
@given(weights(), st.integers(0, 5), seeds)
def test_ext_inner_matches_permutation_sum(mu, n, seed):
    f = complex_tensor(seed, mu.m, n)
    g = complex_tensor(seed + 1, mu.m, n)
    F, G = oracles.dense_from_symtensor(f), oracles.dense_from_symtensor(g)
    want = oracles.ext_inner_n_perm(mu.weights, F, G)
    scale = oracles.ext_inner_n_perm(mu.weights, np.abs(F), np.abs(G))
    assert abs(ext_inner_n(mu, f, g) - want) <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(weights(), st.integers(0, 6), st.data())
def test_wick_kernels_match_five_term_recurrence(mu, N, data):
    masses = [w * data.draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
              for w in mu.weights]
    om = OmegaSample(masses)
    got = wick_kernels(om, mu, N)
    want = oracles.wick_kernels_recurrence(om, mu, N)
    # |q_k(s)| <= (-1)^k q_k(-s): the s^l coefficients of q_k alternate in sign
    k = np.arange(N + 1)
    qmag = (-1.0) ** k * _atom_table(Basis.GAMMA_WICK, -om.masses[:, None],
                                     mu.weights, N)[..., 0] \
        / mu.weights[:, None] ** k
    for n in range(N + 1):
        scale = np.max(atom_products(qmag, n)[_degree(mu.m, n)])
        assert np.max(np.abs(got[n].values - want[n].values)) <= 1e-10 * scale


def term_sizes(p: PolyFunctional, mu: AtomicMeasure) -> float:
    """Largest sum_k |A[k]| prod_i |T_i[k_i, l_i]| over l, in kernel units:
    the size of the terms the conversion of p adds up.  The per-atom
    matrices of monomial_to_wick are nonnegative; those of wick_to_monomial
    alternate in sign as (-1)^(j-l), so flipping odd degrees before the
    transform gives their absolute values up to the sign of the output."""
    kernels = [abs_tensor(k) for k in p.kernels.kernels]
    if p.basis is Basis.MONOMIAL:
        return monomial_to_wick(PolyFunctional(p.basis, FockVector(kernels)),
                                mu).kernels.max_abs()
    flipped = FockVector([(-1.0) ** n * k for n, k in enumerate(kernels)])
    return wick_to_monomial(PolyFunctional(p.basis, flipped), mu).kernels.max_abs()


def convert(p: PolyFunctional, mu: AtomicMeasure) -> PolyFunctional:
    if p.basis is Basis.GAMMA_WICK:
        return wick_to_monomial(p, mu)
    return monomial_to_wick(p, mu)


def max_gap(p: PolyFunctional, q: PolyFunctional) -> float:
    assert p.basis is q.basis and p.degree == q.degree
    return max(float(np.max(np.abs(a.values - b.values)))
               for a, b in zip(p.kernels.kernels, q.kernels.kernels))


@st.composite
def functionals(draw):
    mu = draw(weights())
    N = draw(st.integers(0, 6))
    seed = draw(seeds)
    basis = draw(st.sampled_from(Basis))
    p = PolyFunctional(basis, FockVector([complex_tensor(seed + n, mu.m, n)
                                          for n in range(N + 1)]))
    return mu, p


@settings(max_examples=100, deadline=None)
@given(functionals())
def test_conversion_matches_partition_expansion(case):
    mu, p = case
    got = convert(p, mu)
    assert max_gap(got, oracles.convert_by_partitions(p, mu)) \
        <= 1e-11 * term_sizes(p, mu)


def assert_round_trip(p: PolyFunctional, mid: PolyFunctional,
                      mu: AtomicMeasure) -> None:
    back = convert(mid, mu)
    # rounding in mid is bounded by its term sizes; the way back scales it
    # by the term sizes of its own transform
    size = term_sizes(p, mu)
    mid_err = PolyFunctional(mid.basis, FockVector(
        [SymTensor(mu.m, n, np.full(k.values.size, size))
         for n, k in enumerate(mid.kernels.kernels)]))
    assert max_gap(back, p) <= 1e-11 * term_sizes(mid_err, mu)


@settings(max_examples=100, deadline=None)
@given(functionals())
def test_conversion_round_trip(case):
    mu, p = case
    assert_round_trip(p, convert(p, mu), mu)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 8))
def test_conversion_lines_match_run_removal(m, N):
    # along atom i, entry e sits in row "e without its atom-i run" and
    # column k_i; entries without atom i keep their own row, at column 0
    flat = {rep: e for e, rep in enumerate(
        rep for n in range(N + 1) for rep in combinations_with_replacement(range(m), n))}
    entry, (k, base) = _insertions(m, N), _atom_runs(m, N)
    for i in range(m):
        got = list(zip(entry[i].tolist(), base[i].tolist(), k[i].tolist()))
        want = [(e, flat[tuple(x for x in rep if x != i)], rep.count(i))
                for rep, e in flat.items() if i in rep]
        assert sorted(got) == want


@settings(max_examples=8, deadline=None)
@given(st.integers(20, 24), st.integers(0, 3), seeds, st.sampled_from(Basis))
def test_conversion_at_many_atoms_matches_partition_expansion(m, N, seed, basis):
    mu = AtomicMeasure(np.random.default_rng(seed).uniform(0.5, 2.0, m))
    p = PolyFunctional(basis, FockVector([complex_tensor(seed + n, m, n)
                                          for n in range(N + 1)]))
    got = convert(p, mu)
    assert max_gap(got, oracles.convert_by_partitions(p, mu)) \
        <= 1e-11 * term_sizes(p, mu)
    assert_round_trip(p, got, mu)


@st.composite
def fock_pairs(draw):
    m, seed = draw(st.integers(1, 4)), draw(seeds)
    make = complex_tensor if draw(st.booleans()) else real_tensor
    a, b = ([make(seed + 7 * j + n, m, n) for n in range(draw(st.integers(0, 5)) + 1)]
            for j in range(2))
    return a, b, draw(st.sampled_from([2.5, -1.0, 0.0, 0.5 - 2j]))


@settings(max_examples=100, deadline=None)
@given(fock_pairs())
def test_flat_fock_vector_matches_degreewise_tensors(case):
    ka, kb, c = case
    m, N = ka[0].m, max(len(ka), len(kb)) - 1
    a, b = FockVector(ka), FockVector(kb)

    def kernel(ks, n):
        return ks[n] if n < len(ks) else SymTensor(m, n)

    routes = [(a + b, [kernel(ka, n) + kernel(kb, n) for n in range(N + 1)]),
              (a - b, [kernel(ka, n) - kernel(kb, n) for n in range(N + 1)]),
              (c * a, [c * k for k in ka]), (b * c, [k * c for k in kb]),
              (a.pad_to(N), [kernel(ka, n) for n in range(N + 1)]),
              (b.pad_to(0), kb)]
    routes += [(FockVector.single(k), [SymTensor(m, d) for d in range(n)] + [k])
               for n, k in enumerate(ka)]
    for got, want in routes:
        assert (got.m, got.degree, got.coeffs.size) == (m, len(want) - 1, _start(m, len(want)))
        scale = max(k.max_abs() for k in want)
        assert abs(got.max_abs() - scale) <= 4e-15 * max(1.0, scale)
        for n, (k, w) in enumerate(zip(got.kernels, want)):
            assert (k.m, k.degree) == (m, n)
            assert np.max(np.abs(k.values - w.values)) <= 4e-15 * max(1.0, scale)
            assert np.array_equal(got.get(n).values, k.values)
        assert got.get(len(want)).degree == len(want)
        assert got.get(len(want)).max_abs() == 0.0


@st.composite
def degree_pairs(draw):
    a = draw(st.integers(0, 5))
    return a, draw(st.integers(0, 5 - a))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), degree_pairs(), seeds)
def test_sym_product_matches_dense_average(m, degrees, seed):
    a, b = degrees
    x = complex_tensor(seed, m, a)
    y = complex_tensor(seed + 1, m, b)
    got = oracles.dense_from_symtensor(sym_product(x, y))
    want = oracles.sym_product_dense(oracles.dense_from_symtensor(x),
                                     oracles.dense_from_symtensor(y))
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, float(np.max(np.abs(want))))


@st.composite
def operator_inputs(draw):
    mu = draw(weights(max_m=4))
    n = draw(st.integers(0, 5))
    f = complex_tensor(draw(seeds), mu.m, n)
    if draw(st.booleans()):
        f = SymTensor(mu.m, n, f.values.real)
    xi = np.array([draw(unit) for _ in range(mu.m)])
    return mu, f, xi, draw(st.integers(0, mu.m - 1))


def assert_single_degree(got: FockVector, degree: int, route, *args):
    """got is route(*args) at degree and zero at every other degree (all of
    it when degree is -1), up to rounding scaled by route applied to
    absolute values."""
    want, scale = 0.0, 1.0
    if degree >= 0:
        want = route(*args)
        scale = max(1.0, np.max(route(*(np.abs(x) for x in args))))
    for d, k in enumerate(got.kernels):
        ref = want if d == degree else 0.0
        assert np.max(np.abs(oracles.dense_from_symtensor(k) - ref)) <= 1e-13 * scale


@settings(max_examples=100, deadline=None)
@given(operator_inputs())
def test_field_operators_and_slot_derivatives_match_dense_routes(case):
    mu, f, xi, atom = case
    n = f.degree
    F = oracles.dense_from_symtensor(f)
    vec = FockVector.single(f)
    # an operator that needs more slots than f has returns zero (degree -1)
    lowered = n - 1 if n >= 1 else -1
    assert_single_degree(create(xi, vec), n + 1, oracles.sym_product_dense, xi, F)
    assert_single_degree(neutral(xi, vec), n if n >= 1 else -1,
                         oracles.neutral_dense, xi, F)
    assert_single_degree(annihilate1(xi, vec, mu), lowered,
                         oracles.contraction_dense, mu.weights * xi, F)
    assert_single_degree(annihilate2(xi, vec), lowered if n >= 2 else -1,
                         oracles.diagonal_slice_dense, xi, F)
    for basis, derivative in ((Basis.MONOMIAL, nabla), (Basis.GAMMA_WICK, wick_del)):
        got = derivative(PolyFunctional(basis, vec), atom)
        assert got.basis is basis
        assert_single_degree(got.kernels, lowered,
                             lambda F: oracles.slot_evaluation_dense(F, atom), F)
    wick = PolyFunctional(Basis.GAMMA_WICK, vec)
    # the Wick adjoint raises onto one column of the merge table
    assert_single_degree(del_dagger(wick, atom, mu).kernels, n + 1,
                         oracles.sym_product_dense, mu.delta_density(atom), F)
    got = coordinate_multiply(wick, atom, mu)
    want = oracles.coordinate_multiply_five_terms(wick, atom, mu)
    sizes = oracles.coordinate_multiply_five_terms(PolyFunctional(
        Basis.GAMMA_WICK, FockVector.single(SymTensor(mu.m, n, np.abs(f.values)))),
        atom, mu)
    assert got.basis is Basis.GAMMA_WICK and got.degree == n + 1
    assert (got.kernels - want.kernels).max_abs() \
        <= 1e-13 * max(1.0, sizes.kernels.max_abs())


@st.composite
def split_statistic(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(2, 60))
    data = np.array([[draw(st.floats(-1e3, 1e3)) for _ in range(k)]
                     for _ in range(n)])
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6)))
    batches = np.split(data, cuts)
    if k == 1 and draw(st.booleans()):
        batches = [b.ravel() for b in batches]  # a 1-d batch is one column
    return data, batches


@settings(max_examples=150, deadline=None)
@given(split_statistic())
def test_reducer_matches_mean_and_sample_std(case):
    data, batches = case
    n = data.shape[0]
    mean, se = mean_and_se(iter(batches))
    scale = np.sqrt(np.mean(data * data, axis=0)) + 1e-300
    assert mean.shape == se.shape == (data.shape[1],)
    assert np.all(np.abs(mean - data.mean(axis=0)) <= 1e-12 * scale)
    ref = data.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(se - ref) <= 1e-6 * scale / math.sqrt(n))


@pytest.mark.parametrize("batches", [[], [np.ones(1)], [np.ones((1, 3))]])
def test_reducer_needs_two_samples(batches):
    with pytest.raises(DomainError):
        mean_and_se(batches)


def random_phi(rng: np.random.Generator, m: int, N: int) -> PolyFunctional:
    return PolyFunctional(Basis.MONOMIAL, FockVector(
        [SymTensor(m, n, rng.uniform(-1, 1, _tables(m, n).reps.shape[0]))
         for n in range(N + 1)]))


# a weight of 1e-6 leaves its atom without proposals in almost every batch
cp_weights = st.lists(st.one_of(st.just(1e-6), st.floats(0.01, 3.0)),
                      min_size=1, max_size=6)
cp_truncations = st.sampled_from([1e-3, 1e-6])
cp_rows = st.integers(1, 40)


def cp_draw(mu: AtomicMeasure, eps: float, seed: int, rows: int, order: int):
    """A compound-Poisson batch as power sums, and its (atom, owners, sizes)
    segments drawn again from the same stream."""
    def stream():
        return _stream(seed, 0, jumps=True)
    return (_draw_cp_batch(mu, eps, stream(), rows, order),
            list(_cp_segments(mu, eps, stream(), rows)))


@settings(max_examples=60, deadline=None)
@given(cp_weights, cp_truncations, seeds, cp_rows, st.integers(1, 6),
       st.sampled_from([17, 200, gammasample.MAX_SEGMENT_JUMPS]))
def test_jump_power_sums_reduce_the_segments(weights, eps, seed, rows, order,
                                              window):
    # with short windows an atom's proposals span several segments, and some
    # segment holds the last [eps, 1) proposals and the first [1, inf) ones
    mu = AtomicMeasure(weights)
    with mock.patch.object(gammasample, "MAX_SEGMENT_JUMPS", window):
        (masses, sums), segments = cp_draw(mu, eps, seed, rows, order)
    assert sums.shape == (mu.m, order, rows)
    atoms = [atom for atom, _, _ in segments]
    assert atoms == sorted(atoms) and set(atoms) == set(range(mu.m))
    assert all(owners.size <= window for _, owners, _ in segments)
    want = np.zeros_like(sums)
    for atom, owners, sizes in segments:
        for r in range(1, order + 1):
            want[atom, r - 1] += np.bincount(owners, weights=sizes ** r,
                                             minlength=rows)
    assert np.all(np.abs(sums - want) <= 1e-13 * want)
    assert masses.shape == (rows, mu.m)
    assert np.array_equal(masses, sums[:, 0].T)


def assert_segments_match_mask_store(mu, eps, seed, rows, window):
    """_cp_segments in windows of at most window proposals against the
    oracle's mask-store thinning on the same stream, segment by segment and
    byte for byte; returns the segments."""
    with mock.patch.object(gammasample, "MAX_SEGMENT_JUMPS", window):
        got = list(_cp_segments(mu, eps, _stream(seed, 0, jumps=True), rows))
    want = oracles.cp_segments_masked(mu, eps, _stream(seed, 0, jumps=True), rows, window)
    for (atom, owners, sizes), (a, o, s) in zip(got, want, strict=True):
        assert atom == a and np.array_equal(owners, o)
        assert sizes.dtype == s.dtype and sizes.tobytes() == s.tobytes()
    return got


@settings(max_examples=60, deadline=None)
@given(cp_weights, st.sampled_from([1e-6, 1e-3, 0.1, 0.9]), seeds, cp_rows,
       st.sampled_from([2, 17, gammasample.MAX_SEGMENT_JUMPS]))
def test_thinning_by_product_matches_the_mask_store(weights, eps, seed, rows, window):
    assert_segments_match_mask_store(AtomicMeasure(weights), eps, seed, rows, window)


def test_thinning_edge_windows_match_the_mask_store():
    # windows of 2 proposals, some with both thinned (every size 0.0), and
    # a middle atom without proposals: one empty segment
    segments = assert_segments_match_mask_store(AtomicMeasure([1.5, 1e-12, 2.0]),
                                                1e-3, 8, 30, 2)
    assert [owners.size for atom, owners, _ in segments if atom == 1] == [0]
    assert any(sizes.size and not sizes.any() for _, _, sizes in segments)


@st.composite
def jump_batches(draw):
    mu = AtomicMeasure(draw(cp_weights))
    N = draw(st.integers(0, 4))
    phi = random_phi(np.random.default_rng(draw(seeds)), mu.m, N)
    xi = np.array([draw(st.one_of(st.just(0.0), unit)) for _ in range(mu.m)])
    return mu, phi, xi, cp_draw(mu, draw(cp_truncations), draw(seeds),
                                draw(cp_rows), N + 1)


def assert_removal_sum_matches_oracle(mu, phi, xi, drawn):
    (masses, sums), segments = drawn
    _, got = _jump_removals(phi, xi, masses, sums, mu)
    want, term_sizes = oracles.jump_removal_sum(phi, xi, masses, segments, mu)
    scale = np.maximum(1.0, np.maximum(np.abs(want), term_sizes))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(jump_batches())
def test_jump_power_sums_match_removal_per_jump(case):
    assert_removal_sum_matches_oracle(*case)


@pytest.mark.parametrize("weights, xi", [
    # the middle atom has no proposals, and xi weighs it: an empty segment
    ([1.2, 1e-12, 0.8], [0.5, -0.7, 0.3]),
    # zero entries of xi skip the segments of atoms 0 and 3
    ([1.2, 0.6, 0.9, 1.5], [0.0, -0.7, 0.4, 0.0]),
], ids=["atom_without_jumps", "xi_with_zero_entries"])
def test_jump_power_sums_edge_segments(weights, xi):
    mu, xi = AtomicMeasure(weights), np.array(xi)
    phi = random_phi(np.random.default_rng(3), mu.m, 3)
    drawn = cp_draw(mu, 1e-3, 8, 30, phi.degree + 1)
    jumpless = [atom for atom, owners, _ in drawn[1] if owners.size == 0]
    assert jumpless == [i for i, w in enumerate(weights) if w < 1e-6]
    assert_removal_sum_matches_oracle(mu, phi, xi, drawn)


def entry_gap(got: np.ndarray, want: np.ndarray) -> float:
    """Largest relative gap over the nonzero entries of ``want``; its zero
    entries must be exact zeros in ``got``."""
    nz = want != 0.0
    assert np.array_equal(got != 0.0, nz)
    return float(np.max(np.abs(got[nz] - want[nz]) / np.abs(want[nz])))


shapes = st.floats(0.05, 20.0)


@settings(max_examples=100, deadline=None)
@given(shapes, st.integers(0, 150))
def test_laguerre_coefficients_match_closed_form(sigma, N):
    got = laguerre_system(sigma, N).coeffs
    assert entry_gap(got, oracles.laguerre_closed_form(sigma, N)) <= 1e-10


@settings(max_examples=100, deadline=None)
@given(st.lists(shapes, min_size=1, max_size=4), st.integers(0, 16))
def test_conversion_tables_match_closed_forms(ws, N):
    monic = _wick_coefficients(np.array(ws), N)
    for w, table in zip(ws, monic):
        assert entry_gap(table, oracles.wick_monic_table(w, N)) <= 1e-12
        # monomial -> Wick uses the same table without its signs
        assert entry_gap(np.abs(table), oracles.wick_inverse_table(w, N)) <= 1e-12


# --- the one product kernel and the routes built on it ----------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.sampled_from([(), (1,), (3,)]),
       seeds)
def test_atom_products_match_counted_occupations(m, N, tail, seed):
    table = np.random.default_rng(seed).uniform(-2.0, 2.0, (m, N + 1) + tail)
    table[:, 0] = 1.0
    flat = atom_products(table, N)
    assert flat.shape == (_start(m, N + 1),) + tail
    for n in range(N + 1):
        want = oracles.occupation_products(table, m, n)
        assert np.allclose(flat[_degree(m, n)], want, rtol=1e-13, atol=0.0)


def _laid_out(table: np.ndarray, layout: str) -> np.ndarray:
    """The same (m, N+1, ...) values in another memory layout, or followed
    by columns past N, which atom_products does not read."""
    if layout == "k_major":   # as _atom_table returns them: a swapped view
        return np.ascontiguousarray(table.swapaxes(0, 1)).swapaxes(0, 1)
    if layout == "fortran":
        return np.asfortranarray(table)
    if layout == "sliced":    # every other atom of a larger array
        wide = np.zeros((2 * table.shape[0],) + table.shape[1:], dtype=table.dtype)
        wide[::2] = table
        return wide[::2]
    if layout == "extra_columns":
        return np.concatenate([table, np.full_like(table[:, :2], np.nan)], axis=1)
    return table


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(0, 6), st.sampled_from([(), (1,), (3,)]),
       st.booleans(),
       st.sampled_from(["c", "k_major", "fortran", "sliced", "extra_columns"]), seeds)
def test_atom_products_bit_identical_to_pairwise_gather(m, N, tail, complex_, layout,
                                                         seed):
    rng = np.random.default_rng(seed)
    table = rng.uniform(-2.0, 2.0, (m, N + 1) + tail)
    if complex_:
        table = table + 1j * rng.uniform(-2.0, 2.0, table.shape)
    got = atom_products(_laid_out(table, layout), N)
    want = oracles.atom_products_pairwise(table, N)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(weights(max_m=3), st.integers(0, 8), seeds)
def test_rank_one_matches_outer_product(mu, n, seed):
    f = np.random.default_rng(seed).uniform(-2.0, 2.0, mu.m)
    want = np.ones(())
    for _ in range(n):
        want = np.multiply.outer(want, f)
    got = oracles.dense_from_symtensor(rank_one(f, n))
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@settings(max_examples=60, deadline=None)
@given(weights(max_m=3), st.integers(0, 8), seeds)
def test_fock_inner_matches_ordered_tuples(mu, n, seed):
    f = complex_tensor(seed, mu.m, n)
    g = complex_tensor(seed + 1, mu.m, n)
    F, G = oracles.dense_from_symtensor(f), oracles.dense_from_symtensor(g)
    # conj(F) G split into real products, which fock_inner_n_dense takes
    dense = functools.partial(oracles.fock_inner_n_dense, mu.weights)
    want = dense(F.real, G.real) + dense(F.imag, G.imag) \
        + 1j * (dense(F.real, G.imag) - dense(F.imag, G.real))
    scale = oracles.fock_inner_n_dense(mu.weights, np.abs(F), np.abs(G))
    assert abs(fock_inner_n(mu, f, g) - want) <= 1e-12 * scale


@st.composite
def evaluation_inputs(draw, basis=None, max_functionals=1):
    """A measure of 1..3 atoms, 1..max_functionals functionals in one basis,
    each of its own degree <= 8, and 1..3 rows of masses on the scale of
    the weights, some atoms left empty."""
    mu = draw(weights(max_m=3))
    basis = basis or draw(st.sampled_from(Basis))
    rng = np.random.default_rng(draw(seeds))
    ps = []
    for _ in range(draw(st.integers(1, max_functionals))):
        N = draw(st.integers(0, 8))
        kernels = [SymTensor(mu.m, n, rng.uniform(-1.0, 1.0,
                                                  math.comb(mu.m + n - 1, n)))
                   for n in range(N + 1)]
        ps.append(PolyFunctional(basis, FockVector(kernels)))
    rows = draw(st.integers(1, 3))
    masses = np.array([[w * draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
                        for w in mu.weights] for _ in range(rows)])
    return mu, ps, masses


def wick_magnitudes(mu: AtomicMeasure, s: np.ndarray, N: int) -> np.ndarray:
    """(m, N+1) bound sum_l |c_kl| s_i^l / w_i^k on |q_k(s_i; w_i)| / w_i^k
    from the closed-form coefficients c_kl of q_k."""
    k = np.arange(N + 1)
    return np.array([np.abs(oracles.wick_monic_table(w, N)) @ si ** k / w ** k
                     for w, si in zip(mu.weights, s)])


def abs_dense(t: SymTensor) -> np.ndarray:
    return np.abs(oracles.dense_from_symtensor(t))


def ordered_tuple_value(p: PolyFunctional, s: np.ndarray,
                        mu: AtomicMeasure) -> tuple[float, float]:
    """Monomial input: sum_n of the dense kernel against s^(x)n.  Gamma-Wick
    input: sum_n of the dense kernel against the five-term Wick density
    under the product measure.  Also the tolerance, scaled by the size of
    the summed terms."""
    if p.basis is Basis.MONOMIAL:
        want = sum(oracles.ordered_sum(f, s) for f in p.kernels.kernels)
        scale = sum(oracles.ordered_sum(abs_tensor(f), s)
                    for f in p.kernels.kernels)
        return want, 1e-12 * max(1.0, scale)
    K = oracles.wick_kernels_recurrence(OmegaSample(s), mu, p.degree)
    mag = wick_magnitudes(mu, s, p.degree)
    want = sum(oracles.fock_inner_n_dense(
        mu.weights, oracles.dense_from_symtensor(k),
        oracles.dense_from_symtensor(f))
        for k, f in zip(K, p.kernels.kernels))
    scale = sum(oracles.fock_inner_n_dense(
        mu.weights, oracles.dense_from_symtensor(
            SymTensor(mu.m, n, oracles.occupation_products(mag, mu.m, n))),
        abs_dense(f)) for n, f in enumerate(p.kernels.kernels))
    return want, 1e-10 * max(1.0, scale)


@settings(max_examples=60, deadline=None)
@given(evaluation_inputs(max_functionals=3))
def test_evaluate_batch_matches_ordered_tuples(case):
    """Every column of a stacked evaluation, and the first functional on
    its own, against the ordered-tuple sums."""
    mu, ps, masses = case
    got = evaluate_batch(ps, masses, mu)
    single = evaluate_batch(ps[0], masses, mu)
    assert got.shape == (len(masses), len(ps))
    assert single.shape == (len(masses),)
    for b, s in enumerate(masses):
        for j, p in enumerate(ps):
            want, tol = ordered_tuple_value(p, s, mu)
            assert abs(got[b, j] - want) <= tol
            if j == 0:
                assert abs(single[b] - want) <= tol


@settings(max_examples=60, deadline=None)
@given(evaluation_inputs(Basis.GAMMA_WICK, max_functionals=3), st.data())
def test_s_transform_matches_ordered_tuples(case, data):
    """The S-transform of each functional against the ordered-tuple sum of
    its Gamma-Wick kernels at s = w theta."""
    mu, ps, _ = case
    theta = np.array([data.draw(st.floats(-2.0, 2.0)) for _ in range(mu.m)])
    s = mu.weights * theta
    for p in ps:
        want = sum(oracles.ordered_sum(f, s) for f in p.kernels.kernels)
        scale = sum(oracles.ordered_sum(abs_tensor(f), np.abs(s))
                    for f in p.kernels.kernels)
        got = s_transform(p, theta, mu)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-12 * max(1.0, scale)


@st.composite
def smeared_integral_inputs(draw):
    """3 or 4 atoms, a monomial functional of degree <= 4, a configuration
    with some atoms empty, and a direction with at least one zero and at
    least two nonzero entries."""
    m = draw(st.integers(3, 4))
    mu = AtomicMeasure([10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(m)])
    rng = np.random.default_rng(draw(seeds))
    kernels = [SymTensor(m, n, rng.uniform(-1.0, 1.0, math.comb(m + n - 1, n)))
               for n in range(draw(st.integers(0, 4)) + 1)]
    omega = OmegaSample([w * draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
                         for w in mu.weights])
    support = draw(st.sets(st.integers(0, m - 1), min_size=2, max_size=m - 1))
    xi = np.zeros(m)
    for i in support:
        xi[i] = draw(st.one_of(st.floats(-1.0, -0.1), st.floats(0.1, 1.0)))
    return mu, PolyFunctional(Basis.MONOMIAL, FockVector(kernels)), omega, xi


@settings(max_examples=60, deadline=None)
@given(smeared_integral_inputs())
def test_annihilate1_integral_matches_algebraic_route(case):
    """The integral form over shifted configurations against
    sum_i w_i xi_i (wick_del(p, i))(omega), the slot evaluation of the
    Gamma-Wick kernels.  The tolerance is scaled by the integral of the
    functional with absolute kernels, by numpy's own Gauss-Laguerre rule
    and the ordered-tuple sums."""
    mu, p, omega, xi = case
    got = annihilate1_integral(p, xi, mu, omega)
    want = sum(mu.weights[i] * xi[i] * wick_del(p, int(i), mu).evaluate(omega, mu)
               for i in np.flatnonzero(xi))
    nodes, weights = np.polynomial.laguerre.laggauss(64)
    scale = 0.0
    for i in np.flatnonzero(xi):
        for s, w in zip(nodes, weights):
            shifted = omega.masses.copy()
            shifted[i] += s
            scale += abs(mu.weights[i] * xi[i]) * w * sum(
                oracles.ordered_sum(abs_tensor(f), shifted) for f in p.kernels.kernels)
    assert abs(got - want) <= 1e-10 * max(1.0, scale)
