"""Sampler laws, Monte Carlo targets, determinism.

All MC assertions run on fixed seeds, so they are deterministic: the SE
windows were checked once and then frozen with the seed.
"""

import math

import numpy as np
import pytest
from scipy.special import exp1

from gwn.errors import ContractError, DomainError, SizeError
from gwn.extfock import ext_inner_n
from gwn.gammasample import (ChaosGramReport, MCEstimate, SamplerConfig,
                             SamplerMode, _draw_cp_batch, _sample_jumps, _stream,
                             chaos_projection_check, iter_sample_batches,
                             laplace_target, mc_chaos_gram, mc_laplace,
                             multiple_integral_identity, sample_omega)
from gwn.measure import AtomicMeasure
from gwn.symtensor import SymTensor, rank_one
from gwn.wickcalc import OmegaSample

from conftest import rel_err


def collect(measure, cfg):
    return np.concatenate([b for _, b in iter_sample_batches(measure, cfg)])


def test_config_validation():
    with pytest.raises(DomainError):
        SamplerConfig(seed=1, n_samples=0)
    with pytest.raises(DomainError):
        SamplerConfig(seed=1, n_samples=10, cp_truncation=1.5)
    with pytest.raises(DomainError):
        SamplerConfig(seed=-1, n_samples=10)


def test_per_atom_marginal_moments():
    mu = AtomicMeasure([0.4, 1.0, 2.3])
    cfg = SamplerConfig(seed=901, n_samples=40000)
    S = collect(mu, cfg)
    for i, w in enumerate(mu.weights):
        se_mean = math.sqrt(w / cfg.n_samples)
        assert abs(S[:, i].mean() - w) < 4 * se_mean
        # Var Gamma(w) = w; SE of sample variance uses the 4th moment bound
        assert abs(S[:, i].var(ddof=1) - w) < 5 * math.sqrt((2 * w * w + 6 * w) / cfg.n_samples)


def test_unit_weight_exponential_tail():
    mu = AtomicMeasure([1.0])
    cfg = SamplerConfig(seed=17, n_samples=50000)
    S = collect(mu, cfg)
    p = np.mean(S[:, 0] > 1.0)
    target = math.exp(-1.0)
    assert abs(p - target) < 3 * math.sqrt(target * (1 - target) / cfg.n_samples)


def test_jump_sampler_law():
    eps = 1e-4
    rng = _stream(5, 0)
    s = _sample_jumps(rng, 60000, eps)
    assert s.min() >= eps
    want_mean = math.exp(-eps) / exp1(eps)
    # second moment: int s e^{-s} / E1(eps) = (1+eps) e^{-eps} / E1(eps)
    m2 = (1 + eps) * math.exp(-eps) / exp1(eps)
    se = math.sqrt((m2 - want_mean ** 2) / s.size)
    assert abs(s.mean() - want_mean) < 4 * se


def test_compound_poisson_mean_mass():
    mu = AtomicMeasure([0.7, 1.6])
    eps = 1e-3
    cfg = SamplerConfig(seed=33, n_samples=30000,
                        mode=SamplerMode.COMPOUND_POISSON, cp_truncation=eps)
    S = collect(mu, cfg)
    for i, w in enumerate(mu.weights):
        want = w * math.exp(-eps)  # discarded small jumps bias the mean by O(eps)
        se = math.sqrt(w / cfg.n_samples)
        assert abs(S[:, i].mean() - want) < 4 * se


def test_sampler_modes_agree_on_laplace():
    mu = AtomicMeasure([0.8, 1.2])
    phi = np.array([0.3, -0.5])
    a = mc_laplace(mu, phi, SamplerConfig(seed=7, n_samples=40000))
    b = mc_laplace(mu, phi, SamplerConfig(seed=8, n_samples=40000,
                                          mode=SamplerMode.COMPOUND_POISSON))
    gap = abs(a.mean - b.mean)
    assert gap < 4 * math.hypot(a.std_error, b.std_error)


def test_laplace_target_frozen():
    # single atom w=1, phi=0.5: (1 - 0.5)^(-1) = 2
    mu = AtomicMeasure([1.0])
    assert abs(laplace_target(mu, [0.5]) - 2.0) < 1e-14
    with pytest.raises(DomainError):
        laplace_target(mu, [1.0])


def test_laplace_phi_zero_is_exact():
    mu = AtomicMeasure([0.5, 1.5])
    est = mc_laplace(mu, [0.0, 0.0], SamplerConfig(seed=3, n_samples=500))
    assert est.mean == 1.0 and est.std_error == 0.0


def test_laplace_estimate_hits_target():
    mu = AtomicMeasure([1.0, 0.6])
    phi = np.array([0.3, 0.4])
    cfg = SamplerConfig(seed=42, n_samples=100000)
    est = mc_laplace(mu, phi, cfg)
    assert abs(est.mean - laplace_target(mu, phi)) < 3 * est.std_error
    assert est.n == cfg.n_samples


def test_laplace_rejects_phi_at_one():
    mu = AtomicMeasure([1.0])
    with pytest.raises(DomainError):
        mc_laplace(mu, [1.2], SamplerConfig(seed=1, n_samples=10))


def test_estimates_bit_identical_for_fixed_seed():
    mu = AtomicMeasure([0.9, 1.1])
    phi = np.array([0.2, 0.1])
    cfg = SamplerConfig(seed=99, n_samples=12345)
    a = mc_laplace(mu, phi, cfg)
    b = mc_laplace(mu, phi, cfg)
    assert a == b
    c = mc_laplace(mu, phi, SamplerConfig(seed=100, n_samples=12345))
    assert c.mean != a.mean


def test_sample_omega_shape_and_reproducibility():
    mu = AtomicMeasure([1.0, 2.0, 0.5])
    cfg = SamplerConfig(seed=5, n_samples=1)
    a = sample_omega(mu, cfg)
    b = sample_omega(mu, cfg)
    assert isinstance(a, OmegaSample)
    assert np.array_equal(a.masses, b.masses)
    assert np.all(a.masses >= 0)


def test_chaos_gram_single_atom_targets():
    mu = AtomicMeasure([1.4])
    cfg = SamplerConfig(seed=11, n_samples=100)
    rep = mc_chaos_gram(mu, [1.0], [1.0], cfg, 2)
    # targets: delta_{nk} n! sigma(sigma+1)...: n=1 entry is sigma itself
    assert abs(rep.targets[1, 1] - 1.4) < 1e-12
    assert abs(rep.targets[2, 2] - 2.0 * 1.4 * 2.4) < 1e-12
    assert rep.targets[1, 2] == 0.0


def test_chaos_gram_entry_zero_zero_exact():
    mu = AtomicMeasure([1.0, 1.0])
    rep = mc_chaos_gram(mu, [1.0, 0.5], [0.2, 1.0],
                        SamplerConfig(seed=2, n_samples=200), 1)
    e = rep.estimate(0, 0)
    assert e.mean == 1.0 and e.std_error == 0.0


def test_chaos_gram_matches_ext_targets():
    mu = AtomicMeasure([0.8, 1.3])
    f = np.array([1.0, 0.4])
    g = np.array([0.6, -0.8])
    cfg = SamplerConfig(seed=123, n_samples=60000)
    rep = mc_chaos_gram(mu, f, g, cfg, 3)
    for n in range(4):
        want = math.factorial(n) * ext_inner_n(mu, rank_one(f, n), rank_one(g, n))
        assert abs(rep.targets[n, n] - want) < 1e-12
    assert rep.max_sigma_deviation() < 4.0


def test_chaos_gram_rejects_bad_direction():
    mu = AtomicMeasure([1.0, 1.0])
    with pytest.raises(ContractError):
        mc_chaos_gram(mu, SymTensor(2, 2), SymTensor(2, 2),
                      SamplerConfig(seed=1, n_samples=10), 2)


def test_multiple_integral_identity_degree_one():
    mu = AtomicMeasure([0.5, 2.0])
    om = OmegaSample([1.7, 0.2])
    chi = [1.0, 0.0]
    lhs, rhs = multiple_integral_identity(mu, [chi], om)
    assert abs(lhs - (1.7 - 0.5)) < 1e-14
    assert abs(lhs - rhs) < 1e-12


def test_multiple_integral_identity_sampled(rng):
    mu = AtomicMeasure([0.5, 1.0, 1.5, 0.8])
    blocks = [[0, 1], [2], [3]]
    chis = [mu.indicator(b) for b in blocks]
    cfg = SamplerConfig(seed=77, n_samples=1)
    gen = _stream(cfg.seed, 0)
    for _ in range(50):
        om = sample_omega(mu, cfg, gen)
        lhs, rhs = multiple_integral_identity(mu, chis, om)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_multiple_integral_identity_rejects_overlap():
    mu = AtomicMeasure([1.0, 1.0])
    om = OmegaSample([1.0, 1.0])
    with pytest.raises(ContractError):
        multiple_integral_identity(mu, [[1.0, 0.0], [1.0, 0.0]], om)
    with pytest.raises(ContractError):
        multiple_integral_identity(mu, [[0.5, 0.0]], om)


def test_chaos_projection_zero_kernel_exact():
    mu = AtomicMeasure([1.0, 1.0])
    est = chaos_projection_check(mu, SymTensor(2, 2),
                                 SamplerConfig(seed=4, n_samples=300))
    assert est.mean == 0.0 and est.std_error == 0.0


def test_chaos_projection_vanishes(rng):
    mu = AtomicMeasure([0.9, 1.4])
    f = SymTensor(2, 2, rng.uniform(-1, 1, 3))
    est = chaos_projection_check(mu, f, SamplerConfig(seed=314, n_samples=60000))
    assert abs(est.mean) < 4 * est.std_error


def test_chaos_projection_degree_one(rng):
    mu = AtomicMeasure([1.0, 0.7])
    f = SymTensor(2, 1, np.array([0.5, -1.0]))
    est = chaos_projection_check(mu, f, SamplerConfig(seed=159, n_samples=40000))
    assert abs(est.mean) < 4 * est.std_error


def test_independence_across_atoms():
    mu = AtomicMeasure([1.0, 2.0])
    cfg = SamplerConfig(seed=271, n_samples=50000)
    S = collect(mu, cfg)
    cov = np.cov(S[:, 0], S[:, 1])[0, 1]
    se = math.sqrt(mu.weights[0] * mu.weights[1] / cfg.n_samples)
    assert abs(cov) < 4 * se


def test_single_sample_estimate_is_rejected():
    # one sample gives no standard error; a band of infinite width would
    # pass anything
    mu = AtomicMeasure([1.0, 0.5])
    with pytest.raises(DomainError):
        mc_laplace(mu, [0.1, -0.2], SamplerConfig(seed=3, n_samples=1))


def test_compound_poisson_batch_refuses_jumps_past_the_entry_budget():
    # the counts are drawn and checked before any jump array is allocated
    with pytest.raises(SizeError):
        _draw_cp_batch(AtomicMeasure([1e6]), 1e-6, _stream(0, 0), 4096)
