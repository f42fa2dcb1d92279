"""Named verification suites behind ``gwn verify``, ``gwn mc``, ``gwn all``.

One runner serves every suite.  It owns the stream, keyed by (seed,
suite); the measure, drawn from that stream when none is supplied; for
the MC suites the sampler config; and the timing.  A suite draws its test
inputs from the stream, runs the matching identity checks and returns the
measured deviations as cases, which the runner packs into a RunReport.
A seed alone therefore fully determines the report bytes.

The MC suites share one SamplerConfig(seed, samples), so on one given
measure they read the same Gamma sample passes.  The caller that runs
several of them owns those shared draws: ``gwn mc all`` and ``gwn all``
run them in one ``gammasample.shared_sample_batches`` block, where the
first suite draws each pass and the later ones replay it.  A replayed
pass holds the same values, so the reports do not change.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from functools import partial

import numpy as np

from .errors import ContractError
from .fieldops import annihilate1
from .funcalc import (a1_plus_mc_adjointness_check, adjointness_target,
                      annihilate1_integral, coordinate_multiply,
                      creation_gradient_check,
                      del_integral, multiplication_reassembly_check,
                      neutral_gradient_check, second_annihilation_check,
                      series_identities_check, stransform_multiplication_check,
                      wick_del)
from .gammasample import (MCEstimate, SamplerConfig, chaos_projection_stack,
                          laplace_target, mc_chaos_gram, mc_laplace_stack)
from .measure import AtomicMeasure
from .report import CaseResult, RunReport, absolute_case, scaled_case
from .symtensor import FockVector, SymTensor, _check_table, rank_one
from .wickcalc import (Basis, OmegaSample, PolyFunctional, constant_functional,
                       monomial_to_wick)

# degree-4 Gram statistics are heavy-tailed; below ~1e5 samples the sample
# SE understates the true sampling error and 4-SE bands break for bad seeds
DEFAULT_MC_SAMPLES = 100000
# an MC case passes within this many standard errors of its target
SE_MULT = 4.0
# the compound-Poisson truncation of the chaos suite's adjointness case,
# whose target is exact at any eps: at 0.1 a batch draws e^(-eps)
# log(1/eps) + e^(-1) = 2.45 proposals per unit weight and row, and keeps
# E1(0.1) = 1.82 jumps per unit weight
ADJOINTNESS_TRUNCATION = 0.1

# fixed stream keys: insertion order here must never change
_SUITE_KEY = {name: idx for idx, name in enumerate((
    "theorem5", "theorem6", "theorem7", "theorem8", "theorem9",
    "series", "multiplication", "laplace", "gram", "chaos"))}


# the largest tensor degree of the series suite
SERIES_MAX_DEGREE = 6


def _suite_rng(seed: int, suite: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), 101 + _SUITE_KEY[suite]])


def _pick_measure(rng: np.random.Generator,
                  measure: AtomicMeasure | None, m: int = 3) -> AtomicMeasure:
    if measure is not None:
        return measure
    return AtomicMeasure(rng.uniform(0.5, 2.0, m))


def _random_omega(rng: np.random.Generator, m: int) -> OmegaSample:
    return OmegaSample(rng.uniform(0.05, 2.5, m))


def _random_tensor(rng: np.random.Generator, m: int, n: int) -> SymTensor:
    """Uniform(-1, 1) kernel.  The tensor is built before the draw, so a
    size over the entry budget is refused before anything is allocated."""
    t = SymTensor(m, n)
    t.values = rng.uniform(-1.0, 1.0, t.values.size)
    return t


def _random_poly(rng: np.random.Generator, m: int, N: int,
                 basis: Basis = Basis.MONOMIAL) -> PolyFunctional:
    ks = [_random_tensor(rng, m, n) for n in range(N + 1)]
    return PolyFunctional(basis, FockVector(ks))


def _band_case(name: str, est: MCEstimate, target: float,
               se_mult: float = SE_MULT) -> CaseResult:
    """An MC estimate against its target, within se_mult standard errors."""
    return absolute_case(name, est.mean, target, se_mult * est.std_error,
                         se=est.std_error, n=est.n)


def stransform_product_check(rng: np.random.Generator,
                             mu: AtomicMeasure) -> list[CaseResult]:
    """Coordinate multiplication in the S-domain: value, first and second
    directional derivative terms against the transformed product."""
    m = mu.m
    cases = []
    theta = rng.uniform(-0.8, 0.8, m)
    dev = stransform_multiplication_check(constant_functional(m, 1.0), theta, mu)
    cases.append(scaled_case("constant_functional", dev, 0.0, 1e-10))
    for N in (1, 2, 3):
        p = _random_poly(rng, m, N, Basis.GAMMA_WICK)
        th = rng.uniform(-0.8, 0.8, m)
        cases.append(scaled_case(f"random_degree_{N}",
                                 stransform_multiplication_check(p, th, mu),
                                 0.0, 1e-9))
    p = _random_poly(rng, m, 2, Basis.GAMMA_WICK)
    cases.append(scaled_case("zero_theta",
                             stransform_multiplication_check(p, np.zeros(m), mu),
                             0.0, 1e-10))
    return cases


def difference_representation_check(rng: np.random.Generator,
                                    mu: AtomicMeasure) -> list[CaseResult]:
    """Integral form of the Wick derivative against its algebraic form."""
    m = mu.m
    atom = int(rng.integers(m))
    om = _random_omega(rng, m)
    f = rng.uniform(-1.0, 1.0, m)
    cases = []
    p1 = PolyFunctional(Basis.MONOMIAL, FockVector.single(SymTensor(m, 1, f)))
    cases.append(scaled_case("linear_matches_coefficient",
                             del_integral(p1, atom, om, mu), f[atom], 1e-10))
    p2 = PolyFunctional(Basis.MONOMIAL, FockVector.single(rank_one(f, 2)))
    target2 = 2.0 * om.pair(f) * f[atom] + 2.0 * f[atom] ** 2
    cases.append(scaled_case("square_closed_form",
                             del_integral(p2, atom, om, mu), target2, 1e-9))
    cases.append(scaled_case("constant_vanishes",
                             del_integral(constant_functional(m, 3.0,
                                                              Basis.MONOMIAL),
                                          atom, om, mu), 0.0, 1e-13))
    for N in (3, 4):
        p = _random_poly(rng, m, N)
        alg = wick_del(monomial_to_wick(p, mu), atom).evaluate(om, mu)
        cases.append(scaled_case(f"integral_matches_algebra_degree_{N}",
                                 del_integral(p, atom, om, mu), alg, 1e-9))
    xi = rng.uniform(-1.0, 1.0, m)
    p = _random_poly(rng, m, 3)
    fock = PolyFunctional(Basis.GAMMA_WICK,
                          annihilate1(xi, monomial_to_wick(p, mu).kernels, mu))
    cases.append(scaled_case("smeared_matches_fock_side",
                             annihilate1_integral(p, xi, mu, om),
                             fock.evaluate(om, mu), 1e-10))
    cases.append(scaled_case("zero_direction",
                             annihilate1_integral(p, np.zeros(m), mu, om),
                             0.0, 1e-14))
    return cases


def _gradient_form_suite(check, rng: np.random.Generator,
                         mu: AtomicMeasure) -> list[CaseResult]:
    """A Fock-side operator against its gradient form at sampled points."""
    m = mu.m
    cases = []
    xi = rng.uniform(-1.0, 1.0, m)
    om = _random_omega(rng, m)
    rep = check(constant_functional(m, 1.0), xi, om, mu)
    cases.append(scaled_case("constant_functional", rep.lhs, rep.rhs, 1e-12))
    for N in (1, 2, 3):
        rep = check(_random_poly(rng, m, N), rng.uniform(-1.0, 1.0, m),
                    _random_omega(rng, m), mu)
        cases.append(scaled_case(f"random_degree_{N}", rep.lhs, rep.rhs, 1e-8))
    rep = check(_random_poly(rng, m, 2), np.zeros(m), om, mu)
    cases.append(scaled_case("zero_direction", rep.lhs, rep.rhs, 1e-14))
    return cases


def annihilate2_formula_check(rng: np.random.Generator,
                              mu: AtomicMeasure) -> list[CaseResult]:
    """Second annihilation operator against its compensated form; the
    uncompensated variant's residual is pinned to its predicted value
    instead of being hidden.  The gradient-shift form, equal by parts and
    from the same exact moments, could not fail alone: it is not a case."""
    m = mu.m
    cases = []
    for k in range(3):
        p = _random_poly(rng, m, 3)
        xi = rng.uniform(-1.0, 1.0, m)
        om = _random_omega(rng, m)
        rep = second_annihilation_check(p, xi, om, mu)
        cases.append(scaled_case(f"compensated_form_{k}",
                                 rep.lhs, rep.rhs_compensated, 1e-8))
        cases.append(scaled_case(f"printed_residual_is_2xiphi_{k}",
                                 rep.uncompensated_residual,
                                 abs(2.0 * mu.integrate(xi) * rep.phi), 1e-8))
    rep = second_annihilation_check(_random_poly(rng, m, 2), np.zeros(m),
                                    _random_omega(rng, m), mu)
    cases.append(scaled_case("zero_direction",
                             rep.lhs, rep.rhs_compensated, 1e-14))
    return cases


def operator_series_check(rng: np.random.Generator,
                          mu: AtomicMeasure) -> list[CaseResult]:
    """Truncating series expansions of each difference operator in powers
    of the other, plus cross-atom commutation."""
    m = mu.m
    _check_table(m, SERIES_MAX_DEGREE)   # refused before any draw
    atom = int(rng.integers(m))
    cases = []
    rep1 = series_identities_check(_random_poly(rng, m, 1), atom, mu)
    cases.append(scaled_case("degree_1_exact", rep1.max_deviation, 0.0, 1e-14))
    rep4 = series_identities_check(_random_poly(rng, m, 4), atom, mu,
                                   other_atom=(atom + 1) % m)
    cases.append(scaled_case("wick_derivative_as_gradient_series",
                             rep4.dev_del_as_nabla_series, 0.0, 1e-10))
    cases.append(scaled_case("gradient_as_alternating_series",
                             rep4.dev_nabla_as_del_series, 0.0, 1e-10))
    cases.append(scaled_case("cross_atom_commutation",
                             rep4.dev_commutation, 0.0, 1e-10))
    # alternating-series intermediates reach ~3e4 at degree 6, so the
    # absolute kernel deviation carries ~1e-10 of rounding
    rep6 = series_identities_check(_random_poly(rng, m, 6), atom, mu)
    cases.append(scaled_case("degree_6_identities",
                             rep6.max_deviation, 0.0, 1e-8))
    return cases


def multiplication_identity_check(rng: np.random.Generator,
                                  mu: AtomicMeasure) -> list[CaseResult]:
    """Multiplication by the configuration density: five-term operator sum,
    smeared pairing identity, and the full operator reassembly."""
    m = mu.m
    atom = int(rng.integers(m))
    om = _random_omega(rng, m)
    cases = []
    one = constant_functional(m, 1.0)
    val = coordinate_multiply(one, atom, mu).evaluate(om, mu)
    cases.append(scaled_case("multiply_one_is_density", val,
                             om.masses[atom] / mu.weights[atom], 1e-12))
    for N in (2, 3):
        p = _random_poly(rng, m, N)
        xi = rng.uniform(-1.0, 1.0, m)
        omN = _random_omega(rng, m)
        # sum_i w_i xi_i (multiplication at atom i)(omega): each product
        # is evaluated on its own, so one is held at a time, and the terms
        # are fsummed
        pw = p.to_basis(Basis.GAMMA_WICK, mu)
        smeared = math.fsum(float(c) * coordinate_multiply(pw, i, mu).evaluate(omN, mu)
                            for i, c in enumerate(mu.weights * xi))
        cases.append(scaled_case(f"smeared_pairing_degree_{N}", smeared,
                                 omN.pair(xi) * p.evaluate(omN, mu), 1e-10))
    p = _random_poly(rng, m, 3)
    xi = rng.uniform(-1.0, 1.0, m)
    rep = multiplication_reassembly_check(p, xi, _random_omega(rng, m), mu)
    cases.append(scaled_case("operator_reassembly", rep.lhs, rep.rhs, 1e-8))
    pa = _random_poly(rng, m, 2, Basis.GAMMA_WICK)
    pb = _random_poly(rng, m, 2, Basis.GAMMA_WICK)
    combo = coordinate_multiply(0.7 * pa + (-1.3) * pb, atom, mu)
    split = 0.7 * coordinate_multiply(pa, atom, mu) \
        + (-1.3) * coordinate_multiply(pb, atom, mu)
    dev = (combo.kernels - split.kernels).max_abs()
    cases.append(scaled_case("linearity", dev, 0.0, 1e-12))
    return cases


def laplace_suite(rng: np.random.Generator, mu: AtomicMeasure,
                  cfg: SamplerConfig) -> list[CaseResult]:
    """MC Laplace transform of the noise against the closed form."""
    # |phi| <= 0.4 keeps the estimator variance finite
    phi = rng.uniform(-0.4, 0.4, mu.m)
    target = laplace_target(mu, phi)   # refuses an overflow before sampling
    est, est0 = mc_laplace_stack(mu, [phi, np.zeros(mu.m)], cfg)
    # the zero direction is exactly 1 in every sample: a band of width 0
    return [_band_case("laplace_transform", est, target),
            _band_case("zero_direction_exact", est0, 1.0, 0.0)]


def gram_suite(rng: np.random.Generator, mu: AtomicMeasure,
               cfg: SamplerConfig) -> list[CaseResult]:
    """MC Gram matrix of Wick monomials, degrees 0..4, against the
    orthogonality targets."""
    f = rng.uniform(-1.0, 1.0, mu.m)
    g = rng.uniform(-1.0, 1.0, mu.m)
    rep = mc_chaos_gram(mu, f, g, cfg, 4)
    return [_band_case(f"gram_{n}_{k}", rep.estimate(n, k), rep.targets[n, k])
            for n in range(5) for k in range(n, 5)]


def chaos_suite(rng: np.random.Generator, mu: AtomicMeasure,
                cfg: SamplerConfig) -> list[CaseResult]:
    """Chaos-side MC identities: lower-chaos projections are orthogonal to
    degree-n Wick monomials, and single-jump removal is adjoint to the
    smeared difference operator, banded around the exact mean of the
    statistic under the jump law truncated at ADJOINTNESS_TRUNCATION."""
    m = mu.m
    kernels = [_random_tensor(rng, m, n) for n in (1, 2)]
    projections = chaos_projection_stack(mu, kernels, cfg)
    cases = [_band_case(f"projection_orthogonality_degree_{n}", est, 0.0)
             for n, est in zip((1, 2), projections)]
    phi = _random_poly(rng, m, 2)
    psi = _random_poly(rng, m, 2, Basis.GAMMA_WICK)
    xi = rng.uniform(-1.0, 1.0, m)
    eps = ADJOINTNESS_TRUNCATION
    est = a1_plus_mc_adjointness_check(phi, psi, xi, mu,
                                       replace(cfg, cp_truncation=eps))
    cases.append(_band_case("configuration_adjointness", est,
                            adjointness_target(phi, psi, xi, mu, eps)))
    return cases


VERIFY_SUITES = {
    "theorem5": stransform_product_check,
    "theorem6": difference_representation_check,
    "theorem7": partial(_gradient_form_suite, creation_gradient_check),
    "theorem8": partial(_gradient_form_suite, neutral_gradient_check),
    "theorem9": annihilate2_formula_check,
    "series": operator_series_check,
    "multiplication": multiplication_identity_check,
}

MC_SUITES = {
    "laplace": laplace_suite,
    "gram": gram_suite,
    "chaos": chaos_suite,
}


def _run_suite(kind: str, suites: dict, name: str, seed: int,
               measure: AtomicMeasure | None,
               samples: int | None = None) -> RunReport:
    """The one runner: the suite's stream, its measure (from that stream
    when none is given), for an MC suite the sampler config built from
    its sample count, and the wall time around all of it.  An MC band
    reaches SE_MULT standard errors either side of its target."""
    if name not in suites:
        raise ContractError(f"unknown {kind} suite {name!r}")
    t0 = time.perf_counter()
    rng = _suite_rng(seed, name)
    args = (rng, _pick_measure(rng, measure))
    if samples is not None:
        args += (SamplerConfig(seed=seed, n_samples=samples),)
    return RunReport(name, suites[name](*args), seed, time.perf_counter() - t0)


def check_suite_sizes(names, measure: AtomicMeasure) -> None:
    """Refuse a measure over the size limit of any suite in names before
    the first of them runs: the series suite's degree-6 multiset table."""
    if "series" in names:
        _check_table(measure.m, SERIES_MAX_DEGREE)


def run_verify_suite(name: str, seed: int,
                     measure: AtomicMeasure | None = None) -> RunReport:
    return _run_suite("verify", VERIFY_SUITES, name, seed, measure)


def run_mc_suite(name: str, seed: int, measure: AtomicMeasure | None = None,
                 samples: int = DEFAULT_MC_SAMPLES) -> RunReport:
    return _run_suite("mc", MC_SUITES, name, seed, measure, samples)
