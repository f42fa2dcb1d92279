"""Wick powers, basis conversions, Laguerre systems, S-transform."""

import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gamma as gamma_fn, roots_genlaguerre

from gwn.errors import ContractError, DimensionError, DomainError, SizeError
from gwn.extfock import fock_inner_n
from gwn.measure import AtomicMeasure
from gwn.symtensor import MAX_ENTRIES, FockVector, SymTensor, rank_one, sym_product
from gwn.wickcalc import (Basis, LaguerreSystem, OmegaSample, PolyFunctional,
                          constant_functional, delta_functional, dual_pair,
                          evaluate_batch, laguerre_system, monomial_to_wick,
                          s_transform, wick_exp, wick_kernel, wick_kernels,
                          wick_pair_rank_one, wick_pair_rank_one_batch,
                          wick_product, wick_to_monomial)

from conftest import random_measure, random_tensor, rel_err


def rising(x, n):
    out = 1.0
    for k in range(n):
        out *= x + k
    return out


def pair_kernel(measure, omega, xi, n):
    # pairing <:omega^n:, xi^(x)n> through the Wick kernel density
    return fock_inner_n(measure, wick_kernel(omega, measure, n), rank_one(xi, n))


def test_first_wick_power_density_frozen():
    mu = AtomicMeasure([2.0, 0.5])
    om = OmegaSample([3.0, 1.0])
    k1 = wick_kernel(om, mu, 1)
    assert np.allclose(k1.values, [0.5, 1.0])  # s/w - 1


def test_zeroth_wick_power_is_one():
    mu = AtomicMeasure([1.0, 1.0, 1.0])
    om = OmegaSample([0.3, 0.0, 2.0])
    assert wick_kernel(om, mu, 0).values[0] == 1.0


def test_single_atom_second_power_frozen():
    # one atom, w = 1, s = 3: q_2 = s^2 - 2ws - 2s + w^2 + w = -1
    mu = AtomicMeasure([1.0])
    om = OmegaSample([3.0])
    q = wick_pair_rank_one(om, [1.0], mu, 2)
    assert np.allclose(q, [1.0, 2.0, -1.0])
    # kernel route gives the same number
    assert abs(pair_kernel(mu, om, np.ones(1), 2) - (-1.0)) < 1e-12


def test_single_atom_matches_orthonormal_polynomials():
    # q_n = c_n P_n(s) with c_n^2 = n! (sigma)_n on one atom of mass sigma
    sigma = 1.7
    mu = AtomicMeasure([sigma])
    sys = laguerre_system(sigma, 6)
    for s in [0.2, 1.0, 4.5]:
        q = wick_pair_rank_one(OmegaSample([s]), [1.0], mu, 6)
        for n in range(7):
            c = math.sqrt(math.factorial(n) * rising(sigma, n))
            assert rel_err(q[n], c * sys.evaluate(n, s)) < 1e-11


def test_kernel_and_scalar_routes_agree(rng):
    # the per-atom product density against the Wick exponential's Taylor
    # coefficients
    for _ in range(10):
        mu = random_measure(rng, 3)
        om = OmegaSample(rng.uniform(0.0, 3.0, size=3))
        xi = rng.uniform(-1.0, 1.0, size=3)
        q = wick_pair_rank_one(om, xi, mu, 6)
        for n in range(7):
            assert rel_err(pair_kernel(mu, om, xi, n), q[n]) < 1e-9


def test_batch_rank_one_matches_loop(rng):
    mu = random_measure(rng, 4)
    S = rng.uniform(0.0, 2.0, size=(7, 4))
    xi = rng.uniform(-1.0, 1.0, size=4)
    batch = wick_pair_rank_one_batch(S, xi, mu, 5)
    for b in range(7):
        row = wick_pair_rank_one(OmegaSample(S[b]), xi, mu, 5)
        assert np.allclose(batch[b], row, rtol=0, atol=1e-10 * max(1.0, np.max(np.abs(row))))


def test_rank_one_batch_refuses_bad_shapes_and_non_finite_directions():
    mu = AtomicMeasure([1.0, 2.0, 0.5])
    S, xi = np.ones((4, 3)), np.array([0.3, -0.2, 0.1])
    for masses, direction in [(np.ones((4, 2)), xi), (np.ones(3), xi),
                              (S, xi[:2]), (S, np.ones((2, 2))),
                              (S, np.ones((1, 2, 3)))]:
        with pytest.raises(DimensionError):
            wick_pair_rank_one_batch(masses, direction, mu, 3)
    for bad in (math.nan, math.inf):
        X = np.array([xi, xi])
        X[1, 2] = bad
        with pytest.raises(DomainError, match="xi must be finite"):
            wick_pair_rank_one_batch(S, X, mu, 3)


def test_disjoint_product_identity(rng):
    # prod_i (<omega, chi_i> - sigma(B_i)) = <:omega^n:, chi_1 (x) ... (x) chi_n>
    # for indicators of disjoint atom blocks
    mu = random_measure(rng, 6)
    blocks = [[0, 1], [2], [3, 4, 5]]
    chis = [mu.indicator(b) for b in blocks]
    kern = rank_one(chis[0], 1)
    for c in chis[1:]:
        kern = sym_product(kern, rank_one(c, 1))
    for _ in range(20):
        om = OmegaSample(rng.uniform(0.0, 3.0, size=6))
        lhs = 1.0
        for b, c in zip(blocks, chis):
            lhs *= om.pair(c) - sum(mu.weights[j] for j in b)
        rhs = fock_inner_n(mu, wick_kernel(om, mu, 3), kern)
        assert rel_err(lhs, rhs) < 1e-10


def test_wick_mean_zero_in_closed_form():
    # E<:omega:, xi> = 0: the density has mean zero atom by atom since E s_i = w_i
    mu = AtomicMeasure([0.7, 1.3])
    om = OmegaSample(mu.weights.copy())
    assert np.allclose(wick_kernel(om, mu, 1).values, 0.0)


def test_wick_degree_cap():
    mu = AtomicMeasure([1.0])
    with pytest.raises(SizeError):
        wick_kernels(OmegaSample([1.0]), mu, 9)


def test_sample_validation():
    with pytest.raises(DomainError):
        OmegaSample([1.0, -0.5])
    mu = AtomicMeasure([1.0, 1.0])
    om = OmegaSample([1.0, 1.0, 1.0])
    with pytest.raises(Exception):
        wick_kernel(om, mu, 1)


def test_monomial_evaluation_brute_force(rng):
    from itertools import product as iproduct
    from oracles import dense_from_symtensor

    mu = random_measure(rng, 3)
    f2 = random_tensor(rng, 3, 2)
    p = PolyFunctional(Basis.MONOMIAL, FockVector([SymTensor(3, 0, np.array([0.4])),
                                                   SymTensor(3, 1, rng.uniform(-1, 1, 3)),
                                                   f2]))
    dense1 = p.kernels.get(1).values
    dense2 = dense_from_symtensor(f2)
    for _ in range(5):
        om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
        s = om.masses
        want = 0.4 + float(s @ dense1)
        want += sum(s[i] * s[j] * dense2[(i, j) if i <= j else (j, i)]
                    for i, j in iproduct(range(3), repeat=2))
        assert rel_err(p.evaluate(om, mu), want) < 1e-12


def test_basis_round_trip(rng):
    mu = random_measure(rng, 3)
    kernels = [random_tensor(rng, 3, n) for n in range(5)]
    p = PolyFunctional(Basis.MONOMIAL, FockVector(kernels))
    back = wick_to_monomial(monomial_to_wick(p, mu), mu)
    for n in range(5):
        assert np.allclose(back.kernels.get(n).values, kernels[n].values, atol=1e-10)


def test_conversion_preserves_values(rng):
    # same functional, three evaluation routes
    for _ in range(5):
        mu = random_measure(rng, 3)
        kernels = [random_tensor(rng, 3, n) for n in range(4)]
        p = PolyFunctional(Basis.MONOMIAL, FockVector(kernels))
        pw = monomial_to_wick(p, mu)
        om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
        a = p.evaluate(om, mu)
        b = pw.evaluate(om, mu)
        c = wick_to_monomial(pw, mu).evaluate(om, mu)
        assert rel_err(a, b) < 1e-9
        assert rel_err(a, c) < 1e-9


def test_conversion_keeps_leading_kernel(rng):
    mu = random_measure(rng, 3)
    f3 = random_tensor(rng, 3, 3)
    p = PolyFunctional(Basis.GAMMA_WICK, FockVector([SymTensor(3, 0), SymTensor(3, 1),
                                                     SymTensor(3, 2), f3]))
    pm = wick_to_monomial(p, mu)
    assert np.allclose(pm.kernels.get(3).values, f3.values, atol=1e-12)


def test_centered_first_power_conversion():
    # <:omega:, xi> = <omega, xi> - Integral(xi)
    mu = AtomicMeasure([0.5, 2.0])
    xi = np.array([1.0, -3.0])
    p = PolyFunctional(Basis.GAMMA_WICK, FockVector([SymTensor(2, 0), SymTensor(2, 1, xi)]))
    pm = wick_to_monomial(p, mu)
    assert np.allclose(pm.kernels.get(1).values, xi)
    assert abs(pm.kernels.get(0).values[0] + mu.integrate(xi)) < 1e-14


def test_to_basis_returns_self_and_needs_measure(rng):
    for basis, other in ((Basis.MONOMIAL, Basis.GAMMA_WICK),
                         (Basis.GAMMA_WICK, Basis.MONOMIAL)):
        p = PolyFunctional(basis, FockVector(
            [random_tensor(rng, 3, n) for n in range(3)]))
        assert p.to_basis(basis) is p
        with pytest.raises(ContractError):
            p.to_basis(other)


def test_mixed_basis_addition_rejected():
    a = constant_functional(2, 1.0, Basis.MONOMIAL)
    b = constant_functional(2, 1.0, Basis.GAMMA_WICK)
    with pytest.raises(ContractError):
        a + b


def test_evaluate_batch_matches_pointwise(rng):
    mu = random_measure(rng, 3)
    p = PolyFunctional(Basis.GAMMA_WICK,
                       FockVector([random_tensor(rng, 3, n) for n in range(4)]))
    S = rng.uniform(0.0, 2.0, size=(6, 3))
    vals = evaluate_batch(p, S, mu)
    for b in range(6):
        assert rel_err(vals[b], p.evaluate(OmegaSample(S[b]), mu)) < 1e-9


@pytest.mark.parametrize("basis", list(Basis))
def test_evaluate_batch_refuses_measure_of_other_atom_count(rng, basis):
    # the Gamma-Wick table reads the weights: a 1-atom measure would broadcast
    p = PolyFunctional(basis, FockVector([random_tensor(rng, 3, n) for n in range(3)]))
    S = rng.uniform(0.0, 2.0, size=(4, 3))
    for mu in (AtomicMeasure([1.0]), random_measure(rng, 4)):
        with pytest.raises(DimensionError):
            evaluate_batch(p, S, mu)


def test_evaluate_batch_refuses_a_mixed_or_empty_sequence(rng):
    mu = random_measure(rng, 3)
    S = rng.uniform(0.0, 2.0, size=(4, 3))
    mono = PolyFunctional(Basis.MONOMIAL,
                          FockVector([random_tensor(rng, 3, n) for n in range(3)]))
    with pytest.raises(ContractError):
        evaluate_batch([], S, mu)
    with pytest.raises(ContractError):
        evaluate_batch([mono, mono.to_basis(Basis.GAMMA_WICK, mu)], S, mu)
    two_atoms = PolyFunctional(Basis.MONOMIAL,
                               FockVector([random_tensor(rng, 2, n) for n in range(2)]))
    for ps in ([mono, two_atoms], [two_atoms, mono]):
        with pytest.raises(DimensionError):
            evaluate_batch(ps, S, mu)


def test_evaluate_batch_refuses_rows_past_the_entry_budget():
    p = PolyFunctional(Basis.MONOMIAL, FockVector([SymTensor(3, n) for n in range(4)]))
    rows = MAX_ENTRIES // math.comb(3 + 3, 3) + 1
    masses = np.broadcast_to(np.ones(3), (rows, 3))   # a view: nothing allocated
    with pytest.raises(SizeError):
        evaluate_batch(p, masses, AtomicMeasure(np.ones(3)))


def test_evaluate_batch_refuses_a_stack_past_the_entry_budget(monkeypatch):
    p = PolyFunctional(Basis.MONOMIAL, FockVector([SymTensor(3, n) for n in range(4)]))
    monkeypatch.setattr("gwn.symtensor.MAX_ENTRIES", 10 * math.comb(3 + 3, 3))
    mu, row = AtomicMeasure(np.ones(3)), np.ones((1, 3))
    assert evaluate_batch([p] * 10, row, mu).shape == (1, 10)
    with pytest.raises(SizeError):
        evaluate_batch([p] * 11, row, mu)


def test_wick_exp_frozen_example():
    mu = AtomicMeasure([1.0])
    om = OmegaSample([1.0])
    series, closed = wick_exp(om, [0.1], mu, 12)
    assert rel_err(closed, math.exp(0.1 / 1.1 - math.log(1.1))) < 1e-15
    assert rel_err(series, closed) < 1e-12


def test_wick_exp_general(rng):
    for _ in range(5):
        mu = random_measure(rng, 3)
        om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
        phi = rng.uniform(-0.1, 0.1, size=3)
        series, closed = wick_exp(om, phi, mu, 12)
        assert rel_err(series, closed) < 1e-9


def test_wick_exp_domain():
    mu = AtomicMeasure([1.0])
    with pytest.raises(DomainError):
        wick_exp(OmegaSample([1.0]), [1.0], mu, 4)


def test_laguerre_frozen_sigma_one():
    sys = laguerre_system(1.0, 4)
    # P_2 = (s^2 - 4s + 2)/2
    assert np.allclose(sys.coeffs[2, :3], [1.0, -2.0, 0.5])
    assert abs(sys.evaluate(2, 3.0) - (9 - 12 + 2) / 2.0) < 1e-14


def test_laguerre_matches_classical():
    # P_n(s) = (-1)^n sqrt(n!/(sigma)_n) L_n^{sigma-1}(s)
    s = np.linspace(0.1, 8.0, 23)
    for sigma in [0.5, 1.0, 2.5]:
        sys = laguerre_system(sigma, 10)
        for n in range(11):
            scale = (-1.0) ** n * math.sqrt(math.factorial(n) / rising(sigma, n))
            ref = scale * eval_genlaguerre(n, sigma - 1.0, s)
            assert np.max(np.abs(sys.evaluate(n, s) - ref)) < 1e-8


def test_laguerre_orthonormal_under_gamma_density():
    for sigma in [0.5, 1.0, 2.5]:
        nodes, weights = roots_genlaguerre(200, sigma - 1.0)
        weights = weights / gamma_fn(sigma)
        sys = laguerre_system(sigma, 8)
        vals = np.array([sys.evaluate(n, nodes) for n in range(9)])
        G = (vals * weights) @ vals.T
        assert np.max(np.abs(G - np.eye(9))) < 1e-8


def test_laguerre_recurrence_at_points(rng):
    from gwn.fieldops import jacobi_coefficients
    sigma = 1.3
    sys = laguerre_system(sigma, 7)
    jc = jacobi_coefficients(sigma, 7)
    s = rng.uniform(0.0, 6.0, size=9)
    for n in range(1, 7):
        lhs = s * sys.evaluate(n, s)
        rhs = jc.alphas[n + 1] * sys.evaluate(n + 1, s) + jc.betas[n] * sys.evaluate(n, s) \
            + jc.alphas[n] * sys.evaluate(n - 1, s)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_laguerre_index_bounds():
    sys = laguerre_system(1.0, 3)
    with pytest.raises(SizeError):
        sys.evaluate(4, 1.0)


def test_laguerre_rejects_bad_inputs():
    with pytest.raises(DomainError):
        laguerre_system(1.0, -1)
    for sigma in (math.nan, math.inf, 0.0, 1e300, 1.7e308):
        with pytest.raises(DomainError):
            laguerre_system(sigma, 2)


def test_s_transform_of_wick_monomial(rng):
    mu = random_measure(rng, 3)
    f = random_tensor(rng, 3, 2)
    p = PolyFunctional(Basis.GAMMA_WICK, FockVector([SymTensor(3, 0), SymTensor(3, 1), f]))
    theta = rng.uniform(-1.0, 1.0, size=3)
    want = fock_inner_n(mu, f, rank_one(theta, 2))
    assert rel_err(s_transform(p, theta, mu), want) < 1e-12


def test_wick_product_multiplies_s_transforms(rng):
    for _ in range(5):
        mu = random_measure(rng, 3)
        p = PolyFunctional(Basis.GAMMA_WICK,
                           FockVector([random_tensor(rng, 3, n) for n in range(3)]))
        q = PolyFunctional(Basis.GAMMA_WICK,
                           FockVector([random_tensor(rng, 3, n) for n in range(3)]))
        pq = wick_product(p, q, mu)
        theta = rng.uniform(-1.0, 1.0, size=3)
        assert rel_err(s_transform(pq, theta, mu),
                       s_transform(p, theta, mu) * s_transform(q, theta, mu)) < 1e-10


def test_wick_product_commutes_and_accepts_monomial_input(rng):
    mu = random_measure(rng, 2)
    p = PolyFunctional(Basis.MONOMIAL, FockVector([random_tensor(rng, 2, n) for n in range(3)]))
    q = PolyFunctional(Basis.GAMMA_WICK, FockVector([random_tensor(rng, 2, n) for n in range(2)]))
    a = wick_product(p, q, mu)
    b = wick_product(q, p.to_basis(Basis.GAMMA_WICK, mu), mu)
    for n in range(a.degree + 1):
        assert np.allclose(a.kernels.get(n).values, b.kernels.get(n).values, atol=1e-12)


def test_delta_functional_reproduces_values(rng):
    for _ in range(5):
        mu = random_measure(rng, 3)
        ups = OmegaSample(rng.uniform(0.0, 2.5, size=3))
        p = PolyFunctional(Basis.GAMMA_WICK,
                           FockVector([random_tensor(rng, 3, n) for n in range(4)]))
        d = delta_functional(ups, mu, 3)
        assert rel_err(dual_pair(d, p, mu), p.evaluate(ups, mu)) < 1e-9


def test_dual_pair_degree_weights(rng):
    mu = random_measure(rng, 2)
    f = random_tensor(rng, 2, 2)
    g = random_tensor(rng, 2, 2)
    F = PolyFunctional(Basis.GAMMA_WICK, FockVector([SymTensor(2, 0), SymTensor(2, 1), f]))
    G = PolyFunctional(Basis.GAMMA_WICK, FockVector([SymTensor(2, 0), SymTensor(2, 1), g]))
    assert rel_err(dual_pair(F, G, mu), 2.0 * fock_inner_n(mu, f, g)) < 1e-12


def test_functional_json_round_trip(rng):
    mu = random_measure(rng, 3)
    p = PolyFunctional(Basis.GAMMA_WICK,
                       FockVector([random_tensor(rng, 3, n) for n in range(3)]))
    q = PolyFunctional.from_json_dict(p.to_json_dict())
    assert q.basis is Basis.GAMMA_WICK
    for n in range(3):
        assert np.allclose(q.kernels.get(n).values, p.kernels.get(n).values)
    om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
    assert rel_err(q.evaluate(om, mu), p.evaluate(om, mu)) < 1e-14


def _mono_over(m, N):
    return PolyFunctional(Basis.MONOMIAL, FockVector.single(SymTensor(m, N)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: monomial_to_wick(PolyFunctional(Basis.GAMMA_WICK, FockVector.vacuum(2)),
                              AtomicMeasure([1.0, 1.0])),
     ContractError, "expected a functional in the monomial basis"),
    (lambda: monomial_to_wick(_mono_over(2, 1), AtomicMeasure([1.0, 1.0, 1.0])),
     DimensionError, "functional and measure atom counts differ"),
    (lambda: monomial_to_wick(_mono_over(1, 9), AtomicMeasure([1.0])),
     SizeError, "basis conversion capped at degree 8"),
    (lambda: OmegaSample([]), DimensionError, "masses must be a non-empty 1-d array"),
    (lambda: OmegaSample([1.0, 2.0]).pair([1.0]),
     DimensionError, "test function length mismatch"),
], ids=["wrong_basis", "atom_count", "degree_over_cap", "no_masses",
        "pair_length"])
def test_wickcalc_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert "\n" not in str(raised.value)
