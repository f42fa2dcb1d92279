"""Randomized checks of the fast paths against independent routes.

* the scalar rank-one route (per-atom three-term recurrence, batch of one)
  against the Wick kernels paired through fock_inner_n;
* the per-atom closed forms against the combinatorial routes they replaced
  (now in ``oracles``): ext_inner_n against the loop-partition sum and the
  permutation sum, wick_kernels against the five-term recurrence, and both
  basis conversions against the loop-partition expansion, plus the round
  trip;
* sym_product against the dense average over slot orderings, and the
  field operators and slot derivatives against dense-array routes;
* the batched MC reducer against mean and std(ddof=1)/sqrt(n) of the
  concatenated statistic, for any split into batches;
* the Taylor / jump-power-sum route of the adjointness check's jump sum
  against removing each jump from its own copy of the configuration;
* the one-atom Laguerre coefficients and the basis-conversion tables
  against their closed forms, entry by entry in relative terms;
* the product kernel ``atom_products`` against products counted atom by
  atom, and the routes built on it against dense sums over ordered index
  tuples: ``rank_one``, ``fock_inner_n``, ``s_transform`` and
  ``evaluate_batch`` in both bases, Gamma-Wick input through the
  five-term kernels.

Each comparison is scaled by the size of the terms being summed, computed
from absolute values, so cancellation in the result cannot fail a correct
route.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gwn.errors import DomainError
from gwn.extfock import ext_inner_n, fock_inner_n
from gwn.fieldops import annihilate1, annihilate2, create, neutral
from gwn.funcalc import (_jump_removal_sum, _removal_derivatives, nabla,
                         wick_del)
from gwn.gammasample import SamplerConfig, iter_jump_batches, mean_and_se
from gwn.measure import AtomicMeasure
from gwn.symtensor import (FockVector, SymTensor, _tables, atom_products, rank_one,
                           sym_product)
from gwn.wickcalc import (Basis, OmegaSample, PolyFunctional, _single_atom_q,
                          _wick_coefficients, evaluate_batch, laguerre_system,
                          monomial_to_wick, s_transform, wick_kernels,
                          wick_pair_rank_one, wick_to_monomial)

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


def abs_tensor(t: SymTensor) -> SymTensor:
    return SymTensor(t.m, t.degree, np.abs(t.values))


seeds = st.integers(0, 2 ** 32 - 1)


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
    qmag = (-1.0) ** k * _single_atom_q(-om.masses, mu.weights, N) \
        / mu.weights[:, None] ** k
    for n in range(N + 1):
        scale = np.max(atom_products(qmag, n)[n])
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


@settings(max_examples=100, deadline=None)
@given(functionals())
def test_conversion_round_trip(case):
    mu, p = case
    mid = convert(p, mu)
    back = convert(mid, mu)
    # rounding in mid is bounded by its term sizes; the way back scales it
    # by the term sizes of its own transform
    size = term_sizes(p, mu)
    mid_err = PolyFunctional(mid.basis, FockVector(
        [SymTensor(mu.m, n, np.full(k.values.size, size))
         for n, k in enumerate(mid.kernels.kernels)]))
    assert max_gap(back, p) <= 1e-11 * term_sizes(mid_err, mu)


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


@st.composite
def jump_batches(draw):
    m = draw(st.integers(1, 6))
    # a weight of 1e-6 leaves its atom without jumps in almost every batch
    mu = AtomicMeasure([draw(st.one_of(st.just(1e-6), st.floats(0.01, 3.0)))
                        for _ in range(m)])
    N = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(seeds))
    phi = PolyFunctional(Basis.MONOMIAL, FockVector(
        [SymTensor(m, n, rng.uniform(-1, 1, _tables(m, n).reps.shape[0]))
         for n in range(N + 1)]))
    xi = np.array([draw(st.one_of(st.just(0.0), unit)) for _ in range(m)])
    cfg = SamplerConfig(seed=draw(seeds), n_samples=draw(st.integers(1, 40)),
                        cp_truncation=draw(st.sampled_from([1e-3, 1e-6])))
    return mu, phi, xi, next(iter_jump_batches(mu, cfg))


@settings(max_examples=60, deadline=None)
@given(jump_batches())
def test_jump_power_sums_match_removal_per_jump(case):
    mu, phi, xi, (masses, owners, atoms, sizes) = case
    phi0 = evaluate_batch(phi, masses, mu)
    got = _jump_removal_sum(phi0, _removal_derivatives(phi, xi), xi,
                            masses, owners, atoms, sizes, mu)
    want, term_sizes = oracles.jump_removal_sum(phi, xi, masses, owners,
                                                atoms, sizes, mu)
    scale = np.maximum(1.0, np.maximum(np.abs(want), term_sizes))
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


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
    for n, got in enumerate(atom_products(table, N)):
        want = oracles.occupation_products(table, m, n)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


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
def evaluation_inputs(draw, basis=None):
    """A measure of 1..3 atoms, a functional of degree <= 8 and 1..3 rows of
    masses on the scale of the weights, some atoms left empty."""
    mu = draw(weights(max_m=3))
    N = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(seeds))
    kernels = [SymTensor(mu.m, n, rng.uniform(-1.0, 1.0, math.comb(mu.m + n - 1, n)))
               for n in range(N + 1)]
    p = PolyFunctional(basis or draw(st.sampled_from(Basis)), FockVector(kernels))
    rows = draw(st.integers(1, 3))
    masses = np.array([[w * draw(st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
                        for w in mu.weights] for _ in range(rows)])
    return mu, p, masses


def wick_magnitudes(mu: AtomicMeasure, s: np.ndarray, N: int) -> np.ndarray:
    """(m, N+1) bound sum_l |c_kl| s_i^l / w_i^k on |q_k(s_i; w_i)| / w_i^k
    from the closed-form coefficients c_kl of q_k."""
    k = np.arange(N + 1)
    return np.array([np.abs(oracles.wick_monic_table(w, N)) @ si ** k / w ** k
                     for w, si in zip(mu.weights, s)])


def abs_dense(t: SymTensor) -> np.ndarray:
    return np.abs(oracles.dense_from_symtensor(t))


@settings(max_examples=60, deadline=None)
@given(evaluation_inputs())
def test_evaluate_batch_matches_ordered_tuples(case):
    """Monomial input: sum_n of the dense kernel against s^(x)n.  Gamma-Wick
    input: sum_n of the dense kernel against the five-term Wick density
    under the product measure."""
    mu, p, masses = case
    got = evaluate_batch(p, masses, mu)
    for b, s in enumerate(masses):
        if p.basis is Basis.MONOMIAL:
            want = sum(oracles.ordered_sum(f, s) for f in p.kernels.kernels)
            scale = sum(oracles.ordered_sum(abs_tensor(f), s)
                        for f in p.kernels.kernels)
            tol = 1e-12
        else:
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
            tol = 1e-10
        assert abs(got[b] - want) <= tol * max(1.0, scale)


@settings(max_examples=60, deadline=None)
@given(evaluation_inputs(Basis.GAMMA_WICK), st.data())
def test_s_transform_matches_ordered_tuples(case, data):
    mu, p, _ = case
    theta = np.array([data.draw(st.floats(-2.0, 2.0)) for _ in range(mu.m)])
    want = scale = 0.0
    power = np.ones(())
    for f in p.kernels.kernels:
        want += oracles.fock_inner_n_dense(mu.weights, oracles.dense_from_symtensor(f),
                                           power)
        scale += oracles.fock_inner_n_dense(mu.weights, abs_dense(f), np.abs(power))
        power = np.multiply.outer(power, theta)
    assert abs(s_transform(p, theta, mu) - want) <= 1e-12 * max(1.0, scale)
