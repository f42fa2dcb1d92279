"""Sampling random Gamma configurations and Monte Carlo cross-checks.

Two samplers produce the atom masses of a random configuration omega:

* PerAtomGamma: masses are independent Gamma(w_i, scale 1) variates, which
  is the exact law of the random measure on disjoint atoms.
* CompoundPoisson: each atom accumulates Poisson-many jumps drawn from the
  truncated Levy density e^(-s)/s on [eps, inf).  Jumps below eps are
  discarded (not compensated); the mean-mass bias is w_i (1 - e^(-eps)),
  i.e. O(eps).

Streams are counter-based (Philox): batch b of a run uses the generator
jumped b times from the seed key, and partial batch sums are reduced with
np.sum over a stacked array.  Estimates are therefore bit-identical for a
fixed seed and sample count no matter how batches would be scheduled.
Every batch holds DEFAULT_BATCH samples except a shorter last one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import exp1

from .errors import ContractError, DimensionError, DomainError, SizeError
from .extfock import ext_inner_n, fock_inner_n
from .measure import AtomicMeasure
from .symtensor import SymTensor, _check_entries, rank_one, sym_product
from .wickcalc import (WICK_MAX_DEGREE, Basis, FockVector, OmegaSample,
                       PolyFunctional, evaluate_batch, wick_kernel,
                       wick_pair_rank_one_batch)

DEFAULT_BATCH = 4096


class SamplerMode(str, Enum):
    PER_ATOM_GAMMA = "per_atom_gamma"
    COMPOUND_POISSON = "compound_poisson"


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    n_samples: int
    mode: SamplerMode = SamplerMode.PER_ATOM_GAMMA
    cp_truncation: float = 1e-6

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) < 2 ** 64:
            raise DomainError("seed must fit in 64 bits")
        if self.n_samples < 1:
            raise DomainError("n_samples must be >= 1")
        if not 0.0 < self.cp_truncation < 1.0:
            raise DomainError("cp_truncation must lie in (0, 1)")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n: int

    def to_json_dict(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error, "n": self.n}


def _stream(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)).jumped(batch_index))


def _sample_jumps(rng: np.random.Generator, count: int, eps: float) -> np.ndarray:
    """Jumps from the density e^(-s)/s / E1(eps) on [eps, inf).

    Two-piece envelope rejection: on [eps, 1] propose log-uniform (density
    1/s up to normalization) and accept with e^(eps - s); on [1, inf)
    propose 1 + Exp(1) and accept with 1/s.  The piece probabilities weight
    each piece by its sup ratio so the accepted flux matches the target on
    both sides of 1 (re-selecting the piece after a rejection stays exact).
    """
    out = np.empty(count)
    filled = 0
    log_span = math.log(1.0 / eps)
    p_low = log_span * math.exp(-eps) / (log_span * math.exp(-eps) + math.exp(-1.0))
    while filled < count:
        n = max(2 * (count - filled), 256)
        low = rng.random(n) < p_low
        s_low = eps ** (1.0 - rng.random(n))
        s_high = 1.0 + rng.exponential(size=n)
        s = np.where(low, s_low, s_high)
        accept = rng.random(n) < np.where(low, np.exp(eps - s), 1.0 / s)
        kept = s[accept]
        take = min(count - filled, kept.size)
        out[filled: filled + take] = kept[:take]
        filled += take
    return out


def _draw_cp_batch(measure: AtomicMeasure, eps: float,
                   rng: np.random.Generator, size: int):
    """Masses plus the individual jumps building them: (masses, owner
    sample index, atom index, jump size), flat over all jumps; the jump
    count is checked against the entry budget before the jumps are drawn."""
    out = np.zeros((size, measure.m))
    lam_unit = float(exp1(eps))
    owners, atoms, sizes = [], [], []
    drawn = 0
    for i, w in enumerate(measure.weights):
        counts = rng.poisson(w * lam_unit, size=size)
        total = int(counts.sum())
        drawn += total
        _check_entries(drawn, f"compound-Poisson batch of {size} samples")
        if total == 0:
            continue
        jumps = _sample_jumps(rng, total, eps)
        owner = np.repeat(np.arange(size), counts)
        out[:, i] = np.bincount(owner, weights=jumps, minlength=size)
        owners.append(owner)
        atoms.append(np.full(total, i, dtype=np.int64))
        sizes.append(jumps)
    if owners:
        return out, np.concatenate(owners), np.concatenate(atoms), np.concatenate(sizes)
    empty = np.empty(0, dtype=np.int64)
    return out, empty, empty, np.empty(0)


def _draw_batch(measure: AtomicMeasure, cfg: SamplerConfig,
                rng: np.random.Generator, size: int) -> np.ndarray:
    if cfg.mode is SamplerMode.PER_ATOM_GAMMA:
        cols = [rng.gamma(shape=w, scale=1.0, size=size) for w in measure.weights]
        return np.stack(cols, axis=1)
    return _draw_cp_batch(measure, cfg.cp_truncation, rng, size)[0]


def sample_omega(measure: AtomicMeasure, cfg: SamplerConfig,
                 rng: np.random.Generator | None = None) -> OmegaSample:
    """Draw one random configuration (masses on the atoms)."""
    if rng is None:
        rng = _stream(cfg.seed, 0)
    return OmegaSample(_draw_batch(measure, cfg, rng, 1)[0])


def _batches(cfg: SamplerConfig, draw):
    """Yield draw(rng, size) for each batch, on the per-batch jumped streams."""
    for b, start in enumerate(range(0, cfg.n_samples, DEFAULT_BATCH)):
        yield draw(_stream(cfg.seed, b), min(DEFAULT_BATCH, cfg.n_samples - start))


def iter_sample_batches(measure: AtomicMeasure, cfg: SamplerConfig):
    """Yield (batch_index, masses) with the per-batch jumped streams."""
    return enumerate(_batches(
        cfg, lambda rng, size: _draw_batch(measure, cfg, rng, size)))


def iter_jump_batches(measure: AtomicMeasure, cfg: SamplerConfig):
    """Jump-resolved compound-Poisson batches.

    Yields (masses, owners, atoms, sizes): masses aggregates the jumps per
    sample row, and the three flat arrays list every individual jump.  Used
    by checks that remove one configuration point at a time; cfg.mode is
    ignored since only the compound-Poisson picture has jumps.
    """
    return _batches(cfg, lambda rng, size: _draw_cp_batch(
        measure, cfg.cp_truncation, rng, size))


def mean_and_se(stats) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error per column of a statistic that arrives as
    (B, k) batches; a 1-d batch is one column."""
    sums, sqsums, n = [], [], 0
    for v in stats:
        v = np.asarray(v, dtype=float).reshape(len(v), -1)
        sums.append(v.sum(axis=0))
        sqsums.append((v * v).sum(axis=0))
        n += v.shape[0]
    if n < 2:
        raise DomainError(f"an MC estimate needs at least 2 samples, got {n}")
    mean = np.sum(np.stack(sums), axis=0) / n
    var = np.maximum(np.sum(np.stack(sqsums), axis=0) - n * mean * mean,
                     0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def _mc_accumulate(measure: AtomicMeasure, cfg: SamplerConfig, stat_fn):
    """Mean and SE of a per-sample statistic over the sampled batches."""
    return mean_and_se(stat_fn(batch)
                       for _, batch in iter_sample_batches(measure, cfg))


def laplace_target(measure: AtomicMeasure, phi) -> float:
    """exp[-Integral(log(1 - phi))] for phi < 1 pointwise."""
    phi = measure.check_function(np.asarray(phi, dtype=float))
    if np.any(phi >= 1.0):
        raise DomainError("Laplace functional requires phi < 1 pointwise")
    return math.exp(-float(measure.weights @ np.log1p(-phi)))


def mc_laplace(measure: AtomicMeasure, phi, cfg: SamplerConfig) -> MCEstimate:
    """MC average of exp<omega, phi>; target is laplace_target."""
    phi = measure.check_function(np.asarray(phi, dtype=float))
    if np.any(phi >= 1.0):
        raise DomainError("Laplace functional requires phi < 1 pointwise")
    mean, se = _mc_accumulate(measure, cfg, lambda S: np.exp(S @ phi))
    return MCEstimate(float(mean[0]), float(se[0]), cfg.n_samples)


@dataclass(frozen=True)
class ChaosGramReport:
    """MC Gram matrix of Wick monomial evaluations across degrees 0..N."""

    means: np.ndarray       # (N+1, N+1)
    std_errors: np.ndarray  # (N+1, N+1)
    targets: np.ndarray     # (N+1, N+1): delta_{nk} n! ext_inner_n
    n_samples: int

    @property
    def degree(self) -> int:
        return self.means.shape[0] - 1

    def estimate(self, n: int, k: int) -> MCEstimate:
        return MCEstimate(float(self.means[n, k]), float(self.std_errors[n, k]),
                          self.n_samples)

    def max_sigma_deviation(self) -> float:
        """Largest |mean - target| measured in SE units (0 SE counts as exact)."""
        dev = np.abs(self.means - self.targets)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(dev == 0.0, 0.0, dev / self.std_errors)
        return float(np.max(z))


def _direction_vector(f, m: int) -> np.ndarray:
    if isinstance(f, SymTensor):
        if f.degree != 1:
            raise ContractError("chaos Gram expects degree-1 tensors (directions)")
        if f.m != m:
            raise DimensionError("tensor atom count mismatch")
        return np.asarray(f.values, dtype=float)
    arr = np.asarray(f, dtype=float)
    if arr.shape != (m,):
        raise DimensionError("direction must have one entry per atom")
    return arr


def mc_chaos_gram(measure: AtomicMeasure, f, g, cfg: SamplerConfig,
                  N_wick: int) -> ChaosGramReport:
    """MC estimates of E[<:omega^n:, f^n> <:omega^k:, g^k>] for n,k <= N_wick.

    Targets are delta_{nk} n! ext_inner_n(f^n, g^n): off-diagonal entries
    vanish (orthogonal chaoses), diagonals carry the extended Fock norm.
    """
    if not 0 <= N_wick <= WICK_MAX_DEGREE:
        raise SizeError(f"N_wick must be in 0..{WICK_MAX_DEGREE}")
    fv = _direction_vector(f, measure.m)
    gv = _direction_vector(g, measure.m)

    def stat(S):
        qf = wick_pair_rank_one_batch(S, fv, measure, N_wick)
        qg = wick_pair_rank_one_batch(S, gv, measure, N_wick)
        return np.einsum("bn,bk->bnk", qf, qg).reshape(S.shape[0], -1)

    mean, se = _mc_accumulate(measure, cfg, stat)
    side = N_wick + 1
    targets = np.zeros((side, side))
    for n in range(side):
        targets[n, n] = math.factorial(n) * ext_inner_n(
            measure, rank_one(fv, n), rank_one(gv, n))
    return ChaosGramReport(mean.reshape(side, side), se.reshape(side, side),
                           targets, cfg.n_samples)


def multiple_integral_identity(measure: AtomicMeasure, indicators,
                               omega: OmegaSample) -> tuple[float, float]:
    """Pointwise check that the product of centered block masses equals the
    Wick pairing with the symmetrized indicator product.

    lhs = prod_i (<omega, chi_i> - sigma(B_i)); rhs pairs :omega^n: with
    chi_1 (x) ... (x) chi_n.  Indicators must be 0/1 with disjoint supports.
    """
    chis = [np.asarray(c, dtype=float) for c in indicators]
    n = len(chis)
    if n == 0:
        raise ContractError("need at least one indicator")
    if n > WICK_MAX_DEGREE:
        raise SizeError(f"at most {WICK_MAX_DEGREE} indicators supported")
    support = np.zeros(measure.m)
    for c in chis:
        measure.check_function(c)
        if not np.all((c == 0.0) | (c == 1.0)):
            raise ContractError("indicators must be 0/1 vectors")
        if np.any(support * c != 0.0):
            raise ContractError("indicator supports must be pairwise disjoint")
        support = support + c
    lhs = 1.0
    for c in chis:
        lhs *= omega.pair(c) - measure.integrate(c)
    kern = rank_one(chis[0], 1)
    for c in chis[1:]:
        kern = sym_product(kern, rank_one(c, 1))
    rhs = fock_inner_n(measure, wick_kernel(omega, measure, n), kern)
    return lhs, rhs


def chaos_projection_check(measure: AtomicMeasure, f: SymTensor,
                           cfg: SamplerConfig) -> MCEstimate:
    """E[(<omega^(x)n, f> - <:omega^n:, f>) <:omega^n:, g>] for a random g.

    The difference is the part of the monomial that lives in lower chaoses,
    so its covariance with any degree-n Wick monomial is 0.  g is drawn
    from the config seed.
    """
    n = f.degree
    if f.m != measure.m:
        raise DimensionError("kernel atom count mismatch")
    gdraw = np.random.default_rng(cfg.seed)
    g = SymTensor(f.m, n, gdraw.uniform(-1.0, 1.0, size=f.values.size))

    mono_f = PolyFunctional(Basis.MONOMIAL, FockVector.single(f))
    wick_f = PolyFunctional(Basis.GAMMA_WICK, FockVector.single(f))
    wick_g = PolyFunctional(Basis.GAMMA_WICK, FockVector.single(g))

    def stat(S):
        low_part = evaluate_batch(mono_f, S, measure) - evaluate_batch(wick_f, S, measure)
        return low_part * evaluate_batch(wick_g, S, measure)

    mean, se = _mc_accumulate(measure, cfg, stat)
    return MCEstimate(float(mean[0]), float(se[0]), cfg.n_samples)
