"""Difference operators, adjoints, quadrature, and the gradient-form checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from gwn.errors import ContractError, DimensionError, DomainError
from gwn.fieldops import annihilate1, annihilate2
from gwn.funcalc import (a1_plus_explicit, a1_plus_mc_adjointness_check,
                         adjointness_target, annihilate1_integral,
                         coordinate_multiply,
                         creation_gradient_check, d_xi, del_dagger,
                         del_integral, functional_max_diff,
                         multiplication_reassembly_check, nabla,
                         neutral_gradient_check, second_annihilation_check,
                         series_identities_check,
                         stransform_multiplication_check, wick_del)
from gwn.gammasample import SamplerConfig
from gwn.measure import AtomicMeasure
from gwn.symtensor import FockVector, SymTensor, rank_one
from gwn.verify import ADJOINTNESS_TRUNCATION
from gwn.wickcalc import (Basis, OmegaSample, PolyFunctional, dual_pair,
                          evaluate_batch, wick_to_monomial)

from conftest import random_measure, random_tensor, rel_err


def mono(kernels):
    return PolyFunctional(Basis.MONOMIAL, FockVector(kernels))


def wick(kernels):
    return PolyFunctional(Basis.GAMMA_WICK, FockVector(kernels))


def random_poly(rng, m, N, basis=Basis.MONOMIAL):
    ks = [random_tensor(rng, m, n) for n in range(N + 1)]
    return PolyFunctional(basis, FockVector(ks))


def test_quadrature_moments():
    """The test oracles' rule integrates s^k e^(-s) to k!."""
    for k in range(13):
        got = oracles.RULE_WEIGHTS @ oracles.RULE_NODES ** k
        assert rel_err(got, math.factorial(k)) < 1e-9


def test_nabla_linear_functional():
    f = np.array([2.0, -1.0, 0.5])
    p = mono([SymTensor(3, 0), SymTensor(3, 1, f)])
    for i in range(3):
        g = nabla(p, i)
        assert g.degree == 0
        assert abs(g.kernels.get(0).values[0] - f[i]) < 1e-14


def test_nabla_square_of_linear(rng):
    f = rng.uniform(-1, 1, 3)
    p = mono([SymTensor(3, 0), SymTensor(3, 1), rank_one(f, 2)])
    for i in range(3):
        g = nabla(p, i)
        assert np.allclose(g.kernels.get(1).values, 2.0 * f[i] * f, atol=1e-14)


def test_nabla_constant_is_zero():
    p = mono([SymTensor(2, 0, np.array([3.0]))])
    assert nabla(p, 0).kernels.max_abs() == 0.0


def test_nabla_matches_finite_differences(rng):
    mu = random_measure(rng, 3)
    p = random_poly(rng, 3, 3)
    om = OmegaSample(rng.uniform(0.5, 2.0, size=3))
    h = 1e-5
    for i in range(3):
        up = OmegaSample(om.masses + h * np.eye(3)[i])
        dn = OmegaSample(om.masses - h * np.eye(3)[i])
        fd = (p.evaluate(up, mu) - p.evaluate(dn, mu)) / (2 * h)
        assert rel_err(nabla(p, i).evaluate(om, mu), fd) < 1e-6


def test_d_xi_is_weighted_nabla_sum(rng):
    mu = random_measure(rng, 3)
    p = random_poly(rng, 3, 3)
    xi = rng.uniform(-1, 1, 3)
    direct = d_xi(p, xi, mu)
    summed = None
    for i in range(3):
        t = (mu.weights[i] * xi[i]) * nabla(p, i)
        summed = t if summed is None else summed + t
    assert functional_max_diff(direct, summed, mu) < 1e-12


def test_wick_del_degree_one():
    f = np.array([1.5, -2.0])
    p = wick([SymTensor(2, 0), SymTensor(2, 1, f)])
    for i in range(2):
        assert abs(wick_del(p, i).kernels.get(0).values[0] - f[i]) < 1e-14


def test_wick_del_on_exponential_kernels(rng):
    # kernels phi^n / n!: the derivative multiplies by phi_i and shifts down
    phi = rng.uniform(-0.5, 0.5, 3)
    N = 5
    ks = [rank_one(phi, n) * (1.0 / math.factorial(n)) for n in range(N + 1)]
    p = wick(ks)
    for i in range(3):
        d = wick_del(p, i)
        assert d.degree == N - 1
        for n in range(N):
            assert np.allclose(d.kernels.get(n).values, phi[i] * ks[n].values,
                               atol=1e-13)


def test_del_dagger_of_constant(rng):
    mu = AtomicMeasure([0.5, 2.0])
    one = wick([SymTensor(2, 0, np.array([1.0]))])
    om = OmegaSample([1.3, 0.4])
    for i in range(2):
        val = del_dagger(one, i, mu).evaluate(om, mu)
        assert rel_err(val, om.masses[i] / mu.weights[i] - 1.0) < 1e-12


def test_del_dagger_linearity(rng):
    mu = random_measure(rng, 2)
    p = random_poly(rng, 2, 2, Basis.GAMMA_WICK)
    q = random_poly(rng, 2, 2, Basis.GAMMA_WICK)
    lhs = del_dagger(p + 1.5 * q, 1, mu)
    rhs = del_dagger(p, 1, mu) + 1.5 * del_dagger(q, 1, mu)
    assert functional_max_diff(lhs, rhs, mu) < 1e-12


def test_del_dagger_adjoint_under_dualization(rng):
    # <<dagger p, q>> = <<p, del q>> exactly
    for _ in range(25):
        m = int(rng.integers(2, 4))
        mu = random_measure(rng, m)
        p = random_poly(rng, m, 2, Basis.GAMMA_WICK)
        q = random_poly(rng, m, 3, Basis.GAMMA_WICK)
        i = int(rng.integers(0, m))
        lhs = dual_pair(del_dagger(p, i, mu), q, mu)
        rhs = dual_pair(p, wick_del(q, i), mu)
        assert rel_err(lhs, rhs) < 1e-11


def test_smeared_dagger_compositions_match_field_operators(rng):
    # sum_i w_i xi_i dagger_i = creation; sum_i w_i xi_i dagger del del = a2
    from gwn.fieldops import create
    mu = random_measure(rng, 3)
    xi = rng.uniform(-1, 1, 3)
    p = random_poly(rng, 3, 3, Basis.GAMMA_WICK)
    smeared_up = None
    smeared_a2 = None
    for i in range(3):
        c = mu.weights[i] * xi[i]
        dd = c * del_dagger(p, i, mu)
        a2 = c * del_dagger(wick_del(wick_del(p, i), i), i, mu)
        smeared_up = dd if smeared_up is None else smeared_up + dd
        smeared_a2 = a2 if smeared_a2 is None else smeared_a2 + a2
    want_up = wick(create(xi, p.kernels).kernels)
    want_a2 = wick(annihilate2(xi, p.kernels).kernels)
    assert functional_max_diff(smeared_up, want_up, mu) < 1e-12
    assert functional_max_diff(smeared_a2, want_a2, mu) < 1e-12


def test_creation_ext_adjoint_is_del_plus_a2(rng):
    # under the transported L2 inner product the adjoint of the smeared
    # dagger is the smeared (del + dagger del del)
    from gwn.extfock import ext_inner
    from gwn.fieldops import create
    for _ in range(10):
        mu = random_measure(rng, 3)
        xi = rng.uniform(-1, 1, 3)
        F = random_poly(rng, 3, 2, Basis.GAMMA_WICK)
        G = random_poly(rng, 3, 3, Basis.GAMMA_WICK)
        lhs = ext_inner(mu, create(xi, F.kernels), G.kernels)
        lowered = None
        for i in range(3):
            c = mu.weights[i] * xi[i]
            t = c * (wick_del(G, i) + del_dagger(wick_del(wick_del(G, i), i), i, mu))
            lowered = t if lowered is None else lowered + t
        rhs = ext_inner(mu, F.kernels, lowered.kernels)
        assert rel_err(lhs, rhs) < 1e-10


def test_del_integral_linear_frozen():
    mu = AtomicMeasure([1.0, 2.0])
    f = np.array([3.0, -1.0])
    p = mono([SymTensor(2, 0), SymTensor(2, 1, f)])
    om = OmegaSample([0.7, 1.1])
    for i in range(2):
        assert rel_err(del_integral(p, i, om, mu), f[i]) < 1e-12


def test_del_integral_square_frozen(rng):
    # phi = <omega, f>^2: integral = 2 <omega, f> f_i + 2 f_i^2
    mu = AtomicMeasure([1.0, 0.5, 2.0])
    f = np.array([1.0, -2.0, 0.5])
    p = mono([SymTensor(3, 0), SymTensor(3, 1), rank_one(f, 2)])
    om = OmegaSample([0.3, 1.0, 0.8])
    pairing = float(om.masses @ f)
    for i in range(3):
        want = 2.0 * pairing * f[i] + 2.0 * f[i] ** 2
        assert rel_err(del_integral(p, i, om, mu), want) < 1e-11


def test_del_integral_equals_wick_del(rng):
    for _ in range(5):
        mu = random_measure(rng, 3)
        p = random_poly(rng, 3, 4)
        om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
        for i in range(3):
            alg = wick_del(p, i, mu).evaluate(om, mu)
            quad = del_integral(p, i, om, mu)
            assert abs(alg - quad) < 1e-9 * max(1.0, abs(alg))


def test_annihilate1_integral_degree_one(rng):
    mu = random_measure(rng, 3)
    f = rng.uniform(-1, 1, 3)
    xi = rng.uniform(-1, 1, 3)
    p = wick([SymTensor(3, 0), SymTensor(3, 1, f)])
    om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
    want = mu.l2_inner(xi, f)
    assert rel_err(annihilate1_integral(p, xi, mu, om), want) < 1e-11


def test_annihilate1_integral_matches_fock_side(rng):
    for _ in range(5):
        mu = random_measure(rng, 3)
        xi = rng.uniform(-1, 1, 3)
        p = random_poly(rng, 3, 3, Basis.GAMMA_WICK)
        om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
        fock = wick(annihilate1(xi, p.kernels, mu).kernels)
        want = fock.evaluate(om, mu)
        got = annihilate1_integral(p, xi, mu, om)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_integral_forms_run_at_fifty_atoms(rng):
    # the integral forms of all 50 atoms read their one-atom restrictions
    # from one pass over the degree-3 run table
    m = 50
    mu = random_measure(rng, m)
    p = random_poly(rng, m, 3)
    xi = rng.uniform(0.5, 1.0, m)
    om = OmegaSample(rng.uniform(0.0, 2.0, size=m))
    fock = PolyFunctional(Basis.GAMMA_WICK, annihilate1(
        xi, p.to_basis(Basis.GAMMA_WICK, mu).kernels, mu)).evaluate(om, mu)
    got = annihilate1_integral(p, xi, mu, om)
    assert abs(got - fock) < 1e-8 * max(1.0, abs(fock))
    rep = second_annihilation_check(p, xi, om, mu)
    assert rep.deviation < 1e-8 * max(1.0, abs(rep.lhs))


def test_series_identities_degree_one():
    mu = AtomicMeasure([1.0, 1.0])
    p = mono([SymTensor(2, 0), SymTensor(2, 1, np.array([1.0, 2.0]))])
    rep = series_identities_check(p, 0, mu)
    assert rep.max_deviation < 1e-14


def test_series_identities_degree_four(rng):
    mu = random_measure(rng, 3)
    p = random_poly(rng, 3, 4)
    rep = series_identities_check(p, 1, mu, other_atom=2)
    assert rep.max_deviation < 1e-10


def test_coordinate_multiply_of_one():
    mu = AtomicMeasure([0.5, 1.5])
    one = wick([SymTensor(2, 0, np.array([1.0]))])
    om = OmegaSample([0.9, 2.1])
    for i in range(2):
        got = coordinate_multiply(one, i, mu).evaluate(om, mu)
        assert rel_err(got, om.masses[i] / mu.weights[i]) < 1e-12


def test_coordinate_multiply_smeared_is_pairing(rng):
    for _ in range(5):
        mu = random_measure(rng, 3)
        p = random_poly(rng, 3, 3, Basis.GAMMA_WICK)
        xi = rng.uniform(-1, 1, 3)
        om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
        base = p.evaluate(om, mu)
        total = math.fsum(mu.weights[i] * xi[i]
                          * coordinate_multiply(p, i, mu).evaluate(om, mu)
                          for i in range(3))
        want = om.pair(xi) * base
        assert abs(total - want) < 1e-10 * max(1.0, abs(want))


def test_stransform_multiplication_constant():
    mu = AtomicMeasure([1.0, 2.0])
    one = wick([SymTensor(2, 0, np.array([1.0]))])
    assert stransform_multiplication_check(one, [0.3, -0.2], mu) < 1e-13


def test_stransform_multiplication_random(rng):
    for _ in range(5):
        mu = random_measure(rng, 3)
        p = random_poly(rng, 3, 3, Basis.GAMMA_WICK)
        theta = rng.uniform(-0.8, 0.8, 3)
        assert stransform_multiplication_check(p, theta, mu) < 1e-9


def test_creation_gradient_constant():
    mu = AtomicMeasure([0.8, 1.2])
    xi = np.array([1.0, -0.5])
    one = wick([SymTensor(2, 0, np.array([1.0]))])
    om = OmegaSample([1.4, 0.3])
    rep = creation_gradient_check(one, xi, om, mu)
    assert rep.deviation < 1e-12
    assert rel_err(rep.lhs, om.pair(xi) - mu.integrate(xi)) < 1e-12


def test_creation_gradient_random(rng):
    for _ in range(10):
        mu = random_measure(rng, 3)
        p = random_poly(rng, 3, 3)
        xi = rng.uniform(-1, 1, 3)
        om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
        rep = creation_gradient_check(p, xi, om, mu)
        assert rep.deviation < 1e-8 * max(1.0, abs(rep.lhs))


def test_neutral_gradient_random(rng):
    for _ in range(10):
        mu = random_measure(rng, 3)
        p = random_poly(rng, 3, 3)
        xi = rng.uniform(-1, 1, 3)
        om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
        rep = neutral_gradient_check(p, xi, om, mu)
        assert rep.deviation < 1e-9 * max(1.0, abs(rep.lhs))


def test_second_annihilation_forms(rng):
    for _ in range(10):
        mu = random_measure(rng, 3)
        p = random_poly(rng, 3, 3)
        xi = rng.uniform(-1, 1, 3)
        om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
        rep = second_annihilation_check(p, xi, om, mu)
        scale = max(1.0, abs(rep.lhs))
        assert rep.deviation < 1e-8 * scale
        # the extra subtraction in the uncompensated variant is 2 <xi> phi
        base = p.evaluate(om, mu)
        want_gap = 2.0 * abs(mu.integrate(xi) * base)
        assert abs(rep.uncompensated_residual - want_gap) < 1e-8 * max(1.0, want_gap)


def test_second_annihilation_takes_one_taylor_pass(rng, monkeypatch):
    # the difference integrals are read off the Taylor coefficients that
    # the gradient form takes, not from a second pass over the same atoms
    import gwn.funcalc

    taylor, atom_lists = gwn.funcalc._taylor_at, []

    def counted(p, masses, measure, atoms, order=0):
        atom_lists.append(list(atoms))
        return taylor(p, masses, measure, atoms, order)

    monkeypatch.setattr(gwn.funcalc, "_taylor_at", counted)
    mu = random_measure(rng, 3)
    xi = np.array([0.4, 0.0, -0.7])
    rep = second_annihilation_check(random_poly(rng, 3, 3), xi,
                                    OmegaSample([0.5, 1.2, 2.0]), mu)
    assert rep.deviation < 1e-8 * max(1.0, abs(rep.lhs))
    assert sum(1 for atoms in atom_lists if atoms) == 1


def test_gradient_checks_zero_direction(rng):
    mu = random_measure(rng, 2)
    p = random_poly(rng, 2, 2)
    om = OmegaSample([0.5, 1.0])
    xi = np.zeros(2)
    assert creation_gradient_check(p, xi, om, mu).deviation < 1e-14
    assert neutral_gradient_check(p, xi, om, mu).deviation < 1e-14
    rep = second_annihilation_check(p, xi, om, mu)
    assert rep.lhs == 0.0 and rep.deviation < 1e-14


def test_a1_plus_explicit_constant():
    mu = AtomicMeasure([1.0, 0.5])
    xi = np.array([0.7, -0.3])
    one = mono([SymTensor(2, 0, np.array([1.0]))])
    om = OmegaSample([2.0, 1.0])
    got = a1_plus_explicit(one, xi, om, mu)
    assert rel_err(got, om.pair(xi) - mu.integrate(xi)) < 1e-13
    assert a1_plus_explicit(one, np.zeros(2), om, mu) == 0.0


def adjointness_case(eps):
    """Inputs of the MC adjointness check: phi, psi, xi, measure, cfg."""
    mu = AtomicMeasure([1.0, 0.7])
    xi = np.array([0.6, -0.4])
    rng = np.random.default_rng(424242)
    phi = mono([SymTensor(2, 0, np.array([0.3])),
                SymTensor(2, 1, rng.uniform(-1, 1, 2)),
                SymTensor(2, 2, rng.uniform(-1, 1, 3))])
    psi = wick([SymTensor(2, 0, np.array([0.1])),
                SymTensor(2, 1, rng.uniform(-1, 1, 2)),
                SymTensor(2, 2, rng.uniform(-1, 1, 3))])
    cfg = SamplerConfig(seed=777, n_samples=30000, cp_truncation=eps)
    return phi, psi, xi, mu, cfg


def test_a1_plus_mc_adjointness():
    # E[(a1+ phi) psi] = E[phi (a1- psi)] under the Gamma law; removal acts
    # on single jumps of the configuration, hence the jump-resolved sampler,
    # whose jumps below eps move the mean to adjointness_target
    for eps in (1e-3, ADJOINTNESS_TRUNCATION):
        phi, psi, xi, mu, cfg = adjointness_case(eps)
        est = a1_plus_mc_adjointness_check(phi, psi, xi, mu, cfg)
        assert est.n == 30000 and est.std_error > 0.0
        assert abs(est.mean - adjointness_target(phi, psi, xi, mu, eps)) \
            < 4 * est.std_error, eps


def test_adjointness_detects_a_broken_annihilation(monkeypatch):
    import gwn.funcalc

    monkeypatch.setattr(gwn.funcalc, "annihilate1",
                        lambda xi, f, measure: FockVector.zeros(f.m, f.degree))
    for eps in (1e-3, ADJOINTNESS_TRUNCATION):
        phi, psi, xi, mu, cfg = adjointness_case(eps)
        est = a1_plus_mc_adjointness_check(phi, psi, xi, mu, cfg)
        # the target reads a1- psi in its integral form, not the broken Fock side
        assert abs(est.mean - adjointness_target(phi, psi, xi, mu, eps)) \
            > 4 * est.std_error, eps


def test_adjointness_estimate_sits_at_its_truncated_target():
    # at eps = 0.5 the dropped jumps move the mean 24 SE off the Gamma-law
    # value 0, and the estimate lies within 1 SE of the exact target
    mu = AtomicMeasure([1.0, 0.7])
    phi = mono([SymTensor(2, 0, np.array([1.0])), SymTensor(2, 1, np.array([0.5, 0.0]))])
    psi = wick([SymTensor(2, 0, np.array([1.0])), SymTensor(2, 1, np.array([0.0, 0.5])),
                SymTensor(2, 2, np.array([0.2, 0.1, 0.3]))])
    xi = [1.0, 1.0]
    est = a1_plus_mc_adjointness_check(phi, psi, xi, mu, SamplerConfig(777, 30000, 0.5))
    target = adjointness_target(phi, psi, xi, mu, 0.5)
    assert abs(est.mean - target) < 4 * est.std_error
    assert abs(est.mean) > 4 * est.std_error


def target_inputs(rng, m, N=3):
    """phi and psi of random degrees <= N and bases, and xi, on m atoms."""
    phi, psi = (random_poly(rng, m, int(rng.integers(0, N + 1)),
                            Basis.MONOMIAL if rng.random() < 0.5 else Basis.GAMMA_WICK)
                for _ in range(2))
    return phi, psi, rng.uniform(-1.0, 1.0, m)


def test_adjointness_target_matches_the_mecke_integral(rng):
    # against the Mecke integral taken term by term on dicts of monomials,
    # with the Fock-side a1-, scipy's incomplete gamma and the moments of
    # the exponential of the cumulant series
    for _ in range(30):
        m = int(rng.integers(1, 4))
        eps = float(rng.choice([1e-3, 0.05, ADJOINTNESS_TRUNCATION, 0.5, 0.9]))
        mu = random_measure(rng, m)
        phi, psi, xi = target_inputs(rng, m)
        value, scale = oracles.adjointness_target_terms(phi, psi, xi, mu, eps)
        assert abs(adjointness_target(phi, psi, xi, mu, eps) - value) \
            <= 1e-12 * max(1.0, scale), (m, eps)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_adjointness_target_vanishes_at_eps_0(rng, m):
    # the Gamma law: the target is 0, the paper's identity, against the
    # oracle's exact value in fractions at weights that are rational; at
    # 8 atoms in the chaos suite's degrees
    for _ in range(4 if m < 8 else 2):
        mu = AtomicMeasure(rng.integers(1, 9, m) / 4.0)
        phi, psi, xi = target_inputs(rng, m, 3 if m < 8 else 2)
        value, scale = oracles.adjointness_target_terms(phi, psi, xi, mu, 0.0)
        assert isinstance(value, Fraction)
        target = adjointness_target(phi, psi, xi, mu, 0.0)
        assert abs(target) <= 1e-12 * max(1.0, scale)
        assert abs(target - value) <= 1e-12 * max(1.0, scale)


def test_adjointness_target_of_a_constant_is_the_mean_mass_bias():
    # phi = psi = 1: the statistic is sum_a xi_a (omega_a - w_a), whose mean
    # under the truncated law is -sum_a xi_a w_a (1 - e^(-eps))
    mu = AtomicMeasure([1.0, 0.7])
    one = mono([SymTensor(2, 0, np.array([1.0]))])
    xi = np.array([0.6, -0.4])
    for eps in (0.0, 1e-3, 0.5):
        assert rel_err(adjointness_target(one, one, xi, mu, eps),
                       -mu.integrate(xi) * -math.expm1(-eps)) < 1e-15


def test_reassembly(rng):
    for _ in range(10):
        mu = random_measure(rng, 3)
        p = random_poly(rng, 3, 3)
        xi = rng.uniform(-1, 1, 3)
        om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
        rep = multiplication_reassembly_check(p, xi, om, mu)
        assert rep.deviation < 1e-8 * max(1.0, abs(rep.rhs))


def test_reassembly_detects_a_broken_field_part(rng, monkeypatch):
    import gwn.fieldops

    monkeypatch.setattr(gwn.fieldops, "annihilate2",
                        lambda xi, f: FockVector.zeros(f.m, f.degree))
    mu = random_measure(rng, 3)
    p = random_poly(rng, 3, 3)
    xi = rng.uniform(-1, 1, 3)
    om = OmegaSample(rng.uniform(0.0, 2.0, size=3))
    rep = multiplication_reassembly_check(p, xi, om, mu)
    assert rep.deviation > 1e-8 * max(1.0, abs(rep.rhs))


def test_nabla_needs_measure_for_wick_input(rng):
    p = random_poly(rng, 2, 2, Basis.GAMMA_WICK)
    with pytest.raises(ContractError):
        nabla(p, 0)


def test_atom_bounds(rng):
    mu = random_measure(rng, 2)
    p = random_poly(rng, 2, 1)
    with pytest.raises(DimensionError):
        nabla(p, 5)


def test_a1_plus_mc_adjointness_needs_two_samples():
    mu = AtomicMeasure([1.0, 0.7])
    one = mono([SymTensor(2, 0, np.array([1.0]))])
    cfg = SamplerConfig(seed=777, n_samples=1, cp_truncation=1e-3)
    with pytest.raises(DomainError):
        a1_plus_mc_adjointness_check(one, one, [0.6, -0.4], mu, cfg)


@pytest.mark.parametrize("eps", [-0.1, math.nan, math.inf])
def test_adjointness_target_refuses_a_bad_truncation(eps):
    mu = AtomicMeasure([1.0, 0.7])
    one = mono([SymTensor(2, 0, np.array([1.0]))])
    with pytest.raises(DomainError):
        adjointness_target(one, one, [0.6, -0.4], mu, eps)
