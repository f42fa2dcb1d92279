"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Each test is self-contained and runs at desk scale (at most 5 atoms,
degree 8, 1e5 Monte Carlo samples).  Run with -v to get one pass/fail
line per criterion.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
from scipy.special import eval_genlaguerre, gamma as gamma_fn, poch, \
    roots_genlaguerre

from gwn.extfock import ext_inner, ext_inner_n, fock_inner_n, loop_census
from gwn.fieldops import (annihilate1, annihilate2, create, gamma_field,
                          jacobi_action_check, jacobi_coefficients)
from gwn.funcalc import (del_integral, multiplication_reassembly_check,
                         series_identities_check,
                         stransform_multiplication_check, wick_del)
from gwn.gammasample import (SamplerConfig, laplace_target, mc_chaos_gram,
                             mc_laplace, multiple_integral_identity)
from gwn.measure import AtomicMeasure
from gwn.symtensor import FockVector, SymTensor, rank_one
from gwn.wickcalc import (Basis, OmegaSample, PolyFunctional, laguerre_system,
                          monomial_to_wick, wick_exp, wick_kernel,
                          wick_pair_rank_one)

from conftest import random_measure, random_tensor, rel_err
from oracles import dense_from_symtensor, ext_inner_n_perm

SEED = 20240817


def _random_poly(rng, m, N, basis=Basis.MONOMIAL):
    ks = [random_tensor(rng, m, n) for n in range(N + 1)]
    return PolyFunctional(basis, FockVector(ks))


def test_01_loop_census_sums_to_factorial():
    # CPU time of this process: a loaded machine stretches the wall
    # clock, not the work the census does
    t0 = time.process_time()
    for n in range(1, 11):
        assert loop_census(n) == math.factorial(n)
    assert time.process_time() - t0 < 1.0


def test_02_partition_inner_equals_permutation_oracle():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    for case in range(200):
        n = 1 + case % 6
        m = int(rng.integers(2, 4))
        mu = random_measure(rng, m)
        # positive entries keep the 1e-12 relative bound cancellation-free
        f = random_tensor(rng, m, n, positive=True)
        g = random_tensor(rng, m, n, positive=True)
        got = ext_inner_n(mu, f, g)
        ref = ext_inner_n_perm(mu.weights, dense_from_symtensor(f),
                               dense_from_symtensor(g))
        assert abs(got - ref) <= 1e-12 * abs(ref)
    assert time.perf_counter() - t0 < 30.0


def test_03_rising_factorial_norms():
    for sigma in (0.5, 1.0, 2.5):
        cell = AtomicMeasure([sigma])
        for n in range(9):
            t = SymTensor(1, n, np.ones(1))
            c2 = math.factorial(n) * ext_inner_n(cell, t, t)
            assert rel_err(c2, math.factorial(n) * poch(sigma, n)) <= 1e-10


def test_04_adjointness_and_commutativity():
    rng = np.random.default_rng(SEED)
    for _ in range(500):
        m = int(rng.integers(2, 4))
        mu = random_measure(rng, m)
        N = int(rng.integers(0, 4))
        F = FockVector([random_tensor(rng, m, k) for k in range(N + 1)])
        G = FockVector([random_tensor(rng, m, k) for k in range(N + 2)])
        xi = rng.uniform(-1.0, 1.0, m)
        lhs = ext_inner(mu, create(xi, F), G)
        rhs = ext_inner(mu, F, annihilate1(xi, G, mu) + annihilate2(xi, G))
        assert rel_err(lhs, rhs) <= 1e-10
        xi2 = rng.uniform(-1.0, 1.0, m)
        ab = gamma_field(xi, gamma_field(xi2, F, mu), mu)
        ba = gamma_field(xi2, gamma_field(xi, F, mu), mu)
        scale = max(1.0, max(abs(t.values).max() for t in ab.kernels))
        assert (ab - ba).max_abs() <= 1e-10 * scale


def test_05_jacobi_three_term_action():
    for sigma in (0.5, 1.0, 2.5):
        jc = jacobi_coefficients(sigma, 6)
        for n in range(7):
            assert rel_err(jc.alphas[n] ** 2, n * (n - 1 + sigma)) <= 1e-12
            assert jc.betas[n] == 2 * n + sigma
        rep = jacobi_action_check(AtomicMeasure([sigma]), [1.0], 6)
        assert rep.max_action_dev <= 1e-10
        assert rep.max_norm_dev <= 1e-10
    # indicator of a two atom block, sigma(block) = 1.5
    rep = jacobi_action_check(AtomicMeasure([0.7, 0.8, 1.0]),
                              [1.0, 1.0, 0.0], 6)
    assert rep.max_action_dev <= 1e-10
    assert rep.max_norm_dev <= 1e-10


def test_06_laguerre_identity_and_orthonormality():
    grid = np.linspace(0.05, 20.0, 40)
    for sigma in (0.5, 1.0, 2.5):
        ls = laguerre_system(sigma, 10)
        for n in range(11):
            ref = (-1.0) ** n * math.sqrt(math.factorial(n) / poch(sigma, n)) \
                * eval_genlaguerre(n, sigma - 1.0, grid)
            mine = ls.evaluate(n, grid)
            assert np.max(np.abs(mine - ref)) <= 1e-8 * max(
                1.0, np.max(np.abs(ref)))
        nodes, wts = roots_genlaguerre(200, sigma - 1.0)
        P = np.vstack([ls.evaluate(n, nodes) for n in range(11)])
        G = (P * wts) @ P.T / gamma_fn(sigma)
        assert np.max(np.abs(G - np.eye(11))) <= 1e-8


def test_07_wick_recurrences_and_exponential():
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        m = int(rng.integers(2, 4))
        mu = random_measure(rng, m)
        om = OmegaSample(rng.uniform(0.05, 3.0, m))
        xi = rng.uniform(-1.0, 1.0, m)
        q = wick_pair_rank_one(om, xi, mu, 6)
        for n in range(7):
            kernel_side = fock_inner_n(mu, wick_kernel(om, mu, n),
                                       rank_one(xi, n))
            assert rel_err(q[n], kernel_side) <= 1e-10
    for _ in range(20):
        m = int(rng.integers(2, 4))
        mu = random_measure(rng, m)
        om = OmegaSample(rng.uniform(0.05, 3.0, m))
        phi = rng.uniform(-0.1, 0.1, m)
        series, closed = wick_exp(om, phi, mu, 12)
        assert rel_err(series, closed) <= 1e-9


def test_08_monte_carlo_gram_and_laplace():
    rng = np.random.default_rng(SEED)
    mu = AtomicMeasure(rng.uniform(0.3, 2.0, 3))
    f = rng.uniform(-1.0, 1.0, 3)
    g = rng.uniform(-1.0, 1.0, 3)
    cfg = SamplerConfig(seed=SEED, n_samples=100000)
    rep = mc_chaos_gram(mu, f, g, cfg, 4)
    assert rep.max_sigma_deviation() < 4.0
    phi = rng.uniform(-0.4, 0.4, 3)
    est = mc_laplace(mu, phi, cfg)
    assert abs(est.mean - laplace_target(mu, phi)) < 3.0 * est.std_error


def test_09_multiple_integral_identity():
    rng = np.random.default_rng(SEED)
    mu = random_measure(rng, 5)
    chis = [np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 0.0, 1.0, 0.0])]
    for _ in range(100):
        om = OmegaSample(rng.gamma(shape=mu.weights))
        for n in (1, 2, 3):
            lhs, rhs = multiple_integral_identity(mu, chis[:n], om)
            assert rel_err(lhs, rhs) <= 1e-10


def test_10_difference_operator_representation():
    rng = np.random.default_rng(SEED)
    mu = random_measure(rng, 3)
    for N in range(7):
        for _ in range(3):
            p = _random_poly(rng, 3, N)
            atom = int(rng.integers(3))
            om = OmegaSample(rng.uniform(0.05, 2.5, 3))
            alg = wick_del(monomial_to_wick(p, mu), atom).evaluate(om, mu)
            assert rel_err(del_integral(p, atom, om, mu), alg) <= 1e-9
    for N in range(1, 7):
        p = _random_poly(rng, 3, N)
        rep = series_identities_check(p, int(rng.integers(3)), mu,
                                      other_atom=int(rng.integers(3)))
        # conversion factors amplify rounding above degree 4
        assert rep.max_deviation <= (1e-10 if N <= 4 else 1e-8)


def test_11_operator_reassembly():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        mu = random_measure(rng, 3)
        p = _random_poly(rng, 3, 3)
        xi = rng.uniform(-1.0, 1.0, 3)
        theta = rng.uniform(-0.8, 0.8, 3)
        om = OmegaSample(rng.uniform(0.05, 2.5, 3))
        assert stransform_multiplication_check(p, theta, mu) <= 1e-8
        rep = multiplication_reassembly_check(p, xi, om, mu)
        assert rep.deviation <= 1e-8 * max(1.0, abs(rep.rhs))


def test_12_cli_verify_all_deterministic():
    exe = shutil.which("gwn")
    cmd = [exe] if exe else [sys.executable, "-m", "gwn.cli"]
    runs = []
    for _ in range(2):
        out = subprocess.run(cmd + ["verify", "all", "--seed", "42"],
                             capture_output=True, check=False)
        assert out.returncode == 0
        runs.append(out.stdout)
    assert runs[0] == runs[1] and runs[0]
    payload = json.loads(runs[0])
    assert payload["pass"] and len(payload["suites"]) == 7
