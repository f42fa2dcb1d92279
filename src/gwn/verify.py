"""Named verification suites behind ``gwn verify``, ``gwn mc``, ``gwn all``.

Every suite draws its test inputs from a stream keyed by (seed, suite),
runs the matching identity checks, and packs the measured deviations into
a RunReport.  When no measure is supplied the atom weights come from the
same stream, so a seed alone fully determines the report bytes.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from functools import partial

import numpy as np

from .errors import ContractError
from .fieldops import annihilate1
from .funcalc import (a1_plus_mc_adjointness_check, annihilate1_integral,
                      coordinate_multiply, creation_gradient_check,
                      del_integral, multiplication_reassembly_check,
                      neutral_gradient_check, second_annihilation_check,
                      series_identities_check, stransform_multiplication_check,
                      wick_del)
from .gammasample import (SamplerConfig, chaos_projection_check, laplace_target,
                          mc_chaos_gram, mc_laplace)
from .measure import AtomicMeasure
from .report import RunReport, absolute_case, scaled_case
from .symtensor import FockVector, SymTensor, rank_one
from .wickcalc import (Basis, OmegaSample, PolyFunctional, constant_functional,
                       monomial_to_wick)

# degree-4 Gram statistics are heavy-tailed; below ~1e5 samples the sample
# SE understates the true sampling error and 4-SE bands break for bad seeds
DEFAULT_MC_SAMPLES = 100000
DEFAULT_SE_MULT = 4.0

# fixed stream keys: insertion order here must never change
_SUITE_KEY = {name: idx for idx, name in enumerate((
    "theorem5", "theorem6", "theorem7", "theorem8", "theorem9",
    "series", "multiplication", "laplace", "gram", "chaos"))}


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


def stransform_product_check(seed: int,
                             measure: AtomicMeasure | None = None) -> RunReport:
    """Coordinate multiplication in the S-domain: value, first and second
    directional derivative terms against the transformed product."""
    rng = _suite_rng(seed, "theorem5")
    mu = _pick_measure(rng, measure)
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
    return RunReport("theorem5", cases, seed)


def difference_representation_check(seed: int,
                                    measure: AtomicMeasure | None = None
                                    ) -> RunReport:
    """Integral form of the Wick derivative against its algebraic form."""
    rng = _suite_rng(seed, "theorem6")
    mu = _pick_measure(rng, measure)
    m = mu.m
    atom = int(rng.integers(m))
    om = _random_omega(rng, m)
    f = rng.uniform(-1.0, 1.0, m)
    cases = []
    p1 = PolyFunctional(Basis.MONOMIAL, FockVector(
        [SymTensor(m, 0, np.zeros(1)), SymTensor(m, 1, f.copy())]))
    cases.append(scaled_case("linear_matches_coefficient",
                             del_integral(p1, atom, om, mu), f[atom], 1e-10))
    p2 = PolyFunctional(Basis.MONOMIAL, FockVector(
        [SymTensor(m, 0, np.zeros(1)), SymTensor(m, 1, np.zeros(m)),
         rank_one(f, 2)]))
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
        cases.append(scaled_case(f"quadrature_matches_algebra_degree_{N}",
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
    return RunReport("theorem6", cases, seed)


def _gradient_form_suite(suite: str, check, seed: int,
                         measure: AtomicMeasure | None) -> RunReport:
    """A Fock-side operator against its gradient form at sampled points."""
    rng = _suite_rng(seed, suite)
    mu = _pick_measure(rng, measure)
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
    return RunReport(suite, cases, seed)


def annihilate2_formula_check(seed: int,
                              measure: AtomicMeasure | None = None) -> RunReport:
    """Second annihilation operator against the compensated and the
    gradient-shift forms; the uncompensated variant's residual is pinned
    to its predicted value instead of being hidden."""
    rng = _suite_rng(seed, "theorem9")
    mu = _pick_measure(rng, measure)
    m = mu.m
    cases = []
    for k in range(3):
        p = _random_poly(rng, m, 3)
        xi = rng.uniform(-1.0, 1.0, m)
        om = _random_omega(rng, m)
        rep = second_annihilation_check(p, xi, om, mu)
        base = p.evaluate(om, mu)
        cases.append(scaled_case(f"compensated_form_{k}",
                                 rep.lhs, rep.rhs_compensated, 1e-8))
        cases.append(scaled_case(f"gradient_shift_form_{k}",
                                 rep.lhs, rep.rhs_gradient_shift, 1e-8))
        cases.append(scaled_case(f"printed_residual_is_2xiphi_{k}",
                                 rep.uncompensated_residual,
                                 abs(2.0 * mu.integrate(xi) * base), 1e-8))
    rep = second_annihilation_check(_random_poly(rng, m, 2), np.zeros(m),
                                    _random_omega(rng, m), mu)
    cases.append(scaled_case("zero_direction",
                             rep.lhs, rep.rhs_compensated, 1e-14))
    return RunReport("theorem9", cases, seed)


def operator_series_check(seed: int,
                          measure: AtomicMeasure | None = None) -> RunReport:
    """Truncating series expansions of each difference operator in powers
    of the other, plus cross-atom commutation."""
    rng = _suite_rng(seed, "series")
    mu = _pick_measure(rng, measure)
    m = mu.m
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
    return RunReport("series", cases, seed)


def multiplication_identity_check(seed: int,
                                  measure: AtomicMeasure | None = None
                                  ) -> RunReport:
    """Multiplication by the configuration density: five-term operator sum,
    smeared pairing identity, and the full operator reassembly."""
    rng = _suite_rng(seed, "multiplication")
    mu = _pick_measure(rng, measure)
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
        smeared = math.fsum(
            float(mu.weights[i] * xi[i])
            * coordinate_multiply(p, i, mu).evaluate(omN, mu)
            for i in range(m))
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
    return RunReport("multiplication", cases, seed)


def laplace_suite(seed: int, measure: AtomicMeasure | None = None,
                  samples: int = DEFAULT_MC_SAMPLES,
                  se_mult: float = DEFAULT_SE_MULT) -> RunReport:
    """MC Laplace transform of the noise against the closed form."""
    rng = _suite_rng(seed, "laplace")
    mu = _pick_measure(rng, measure)
    # |phi| <= 0.4 keeps the estimator variance finite
    phi = rng.uniform(-0.4, 0.4, mu.m)
    cfg = SamplerConfig(seed=seed, n_samples=samples)
    est = mc_laplace(mu, phi, cfg)
    cases = [absolute_case("laplace_transform", est.mean,
                           laplace_target(mu, phi),
                           se_mult * est.std_error,
                           se=est.std_error, n=est.n)]
    est0 = mc_laplace(mu, np.zeros(mu.m), cfg)
    cases.append(absolute_case("zero_direction_exact", est0.mean, 1.0, 0.0,
                               se=est0.std_error, n=est0.n))
    return RunReport("laplace", cases, seed)


def gram_suite(seed: int, measure: AtomicMeasure | None = None,
               samples: int = DEFAULT_MC_SAMPLES,
               se_mult: float = DEFAULT_SE_MULT) -> RunReport:
    """MC Gram matrix of Wick monomials, degrees 0..4, against the
    orthogonality targets."""
    rng = _suite_rng(seed, "gram")
    mu = _pick_measure(rng, measure)
    f = rng.uniform(-1.0, 1.0, mu.m)
    g = rng.uniform(-1.0, 1.0, mu.m)
    cfg = SamplerConfig(seed=seed, n_samples=samples)
    rep = mc_chaos_gram(mu, f, g, cfg, 4)
    cases = []
    for n in range(5):
        for k in range(n, 5):
            est = rep.estimate(n, k)
            cases.append(absolute_case(f"gram_{n}_{k}", est.mean,
                                       float(rep.targets[n, k]),
                                       se_mult * est.std_error,
                                       se=est.std_error, n=est.n))
    return RunReport("gram", cases, seed)


def chaos_suite(seed: int, measure: AtomicMeasure | None = None,
                samples: int = DEFAULT_MC_SAMPLES,
                se_mult: float = DEFAULT_SE_MULT) -> RunReport:
    """Chaos-side MC identities: lower-chaos projections are orthogonal to
    degree-n Wick monomials, and single-jump removal is adjoint to the
    smeared difference operator."""
    rng = _suite_rng(seed, "chaos")
    mu = _pick_measure(rng, measure)
    m = mu.m
    cfg = SamplerConfig(seed=seed, n_samples=samples)
    cases = []
    for n in (1, 2):
        fst = _random_tensor(rng, m, n)
        est = chaos_projection_check(mu, fst, cfg)
        cases.append(absolute_case(f"projection_orthogonality_degree_{n}",
                                   est.mean, 0.0, se_mult * est.std_error,
                                   se=est.std_error, n=est.n))
    phi = _random_poly(rng, m, 2)
    psi = _random_poly(rng, m, 2, Basis.GAMMA_WICK)
    xi = rng.uniform(-1.0, 1.0, m)
    cfg_cp = SamplerConfig(seed=seed, n_samples=samples, cp_truncation=1e-3)
    est = a1_plus_mc_adjointness_check(phi, psi, xi, mu, cfg_cp)
    cases.append(absolute_case("configuration_adjointness", est.mean, 0.0,
                               se_mult * est.std_error,
                               se=est.std_error, n=est.n))
    return RunReport("chaos", cases, seed)


VERIFY_SUITES = {
    "theorem5": stransform_product_check,
    "theorem6": difference_representation_check,
    "theorem7": partial(_gradient_form_suite, "theorem7", creation_gradient_check),
    "theorem8": partial(_gradient_form_suite, "theorem8", neutral_gradient_check),
    "theorem9": annihilate2_formula_check,
    "series": operator_series_check,
    "multiplication": multiplication_identity_check,
}

MC_SUITES = {
    "laplace": laplace_suite,
    "gram": gram_suite,
    "chaos": chaos_suite,
}


def _timed(fn, *args, **kwargs) -> RunReport:
    t0 = time.perf_counter()
    rep = fn(*args, **kwargs)
    return replace(rep, wall_time=time.perf_counter() - t0)


def run_verify_suite(name: str, seed: int,
                     measure: AtomicMeasure | None = None) -> RunReport:
    if name not in VERIFY_SUITES:
        raise ContractError(f"unknown verify suite {name!r}")
    return _timed(VERIFY_SUITES[name], seed, measure)


def run_mc_suite(name: str, seed: int, measure: AtomicMeasure | None = None,
                 samples: int = DEFAULT_MC_SAMPLES,
                 se_mult: float = DEFAULT_SE_MULT) -> RunReport:
    if name not in MC_SUITES:
        raise ContractError(f"unknown mc suite {name!r}")
    return _timed(MC_SUITES[name], seed, measure, samples, se_mult)


def run_verify_all(seed: int,
                   measure: AtomicMeasure | None = None) -> list[RunReport]:
    return sorted((run_verify_suite(n, seed, measure) for n in VERIFY_SUITES),
                  key=lambda r: r.suite)


def run_mc_all(seed: int, measure: AtomicMeasure | None = None,
               samples: int = DEFAULT_MC_SAMPLES,
               se_mult: float = DEFAULT_SE_MULT) -> list[RunReport]:
    return sorted((run_mc_suite(n, seed, measure, samples, se_mult)
                   for n in MC_SUITES), key=lambda r: r.suite)
