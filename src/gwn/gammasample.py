"""Sampling random Gamma configurations and Monte Carlo cross-checks.

Two samplers produce the atom masses of a random configuration omega:

* Per-atom Gamma (iter_sample_batches): masses are independent
  Gamma(w_i, scale 1) variates, the exact law of the random measure on
  disjoint atoms.  The Laplace, Gram and chaos-projection estimators
  always draw it: their targets are exact under that law.
* Compound Poisson (iter_jump_batches): each atom accumulates
  Poisson(w_i E1(eps))-many jumps drawn from the truncated Levy density
  e^(-s)/s on [eps, inf).  Jumps below eps are discarded (not
  compensated), which lowers the mean mass by w_i (1 - e^(-eps)); an
  estimate is compared with its exact mean under this truncated law
  (moment_table), so eps need not be small.  Only checks that need the
  jumps themselves draw it.  Its jumps come by thinning (Last and
  Penrose, Lectures on the Poisson Process): proposals of the dominating
  density e^(-eps)/s on [eps, 1) (log-uniform sizes) and e^(-s) on
  [1, inf) (sizes 1 + Exp(1)), of elementary masses e^(-eps) log(1/eps)
  and e^(-1) per unit weight, each kept with
  probability e^(eps - s) or 1/s, the ratio of the two densities.  A
  thinned proposal keeps its uniform owner row and gets size 0.0, which
  adds exactly 0.0 to every power sum; so no E1 is computed, and each
  window of at most MAX_SEGMENT_JUMPS proposals is one fixed-size step
  (_cp_segments).

A compound-Poisson batch is not a list of jumps.  Each segment (one
window of one atom's proposals) is reduced while it is drawn, to the
per-row power sums P_r = sum s^r over the row's jumps at that atom,
r = 1..order; the masses are P_1.  Checks that remove one configuration
point at a time need nothing else, since a polynomial's value with one
jump removed is a Taylor series in the jump's size.  A segment's owners,
uniforms and sizes and its power-sum temporaries peak near 1.1 MB at
order 1 and 1.2 MB at order 3 (tracemalloc, numpy 2.4) whatever the
weights, eps and batch size, so one draw holds its (m, order, B) sums
plus at most that much.

Streams: batch b of a run has its own stream, and a batch is a function
of its stream and size alone.  Every batch holds DEFAULT_BATCH samples
except a shorter last one.  The Gamma sampler draws from Philox(key=seed)
at counter (0, 0, b, 0), the state of Philox(key=seed) jumped b times:
that stream fixes every Laplace, Gram and chaos-projection estimate, so
it stays put.  The compound-Poisson sampler, which draws millions of
doubles per batch, uses PCG64(seed) jumped b times, whose doubles cost
less than half of Philox's on x86-64.  The chaos suite's projection and
adjointness estimates therefore share no random numbers.

A Gamma estimator's pass (_pass) runs on the caller's thread and one
worker thread, opened for the pass and shut down when it ends.  Each
thread takes the next batch not yet taken, draws it, applies the
statistic and keeps its column sums; the two overlap where numpy releases
the interpreter lock (rng.gamma, whole-array ufuncs).  The
compound-Poisson pass (mc_jump_accumulate) runs on the caller's thread
alone: rng.integers, np.bincount and the many short calls of its draw hold
the lock.  A batch reads only its own stream, and the caller adds the
sums in batch order with the arithmetic of mean_and_se, the serial
reference, so estimates are bit-identical on one core or two.

Exact means: under either law the masses are independent across atoms,
so the mean of a polynomial of them is a sum of products of per-atom
moments.  moment_table gives them for the law truncated at eps (the Gamma
law at eps = 0) from the jump cumulants, and expectation contracts them
with a functional, or a product of two, in one atom_products pass.

Estimators on the same weights and SamplerConfig read the same Gamma
stream, so inside a shared_sample_batches block a complete pass of at
most MAX_ENTRIES masses is stored, read-only, and later passes read their
batches from the store: the values the stream gives, so every estimate is
bit-identical to a fresh draw.  The block's owner (the CLI runner of
several MC suites on one measure) drops the stored batches when it is
left.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, DomainError, SizeError
from .extfock import ext_inner_n, fock_inner_n
from .measure import AtomicMeasure
from .fieldops import create
from .symtensor import (MAX_ENTRIES, SymTensor, _check_entries, _degree,
                        _merge_ranks, atom_products, rank_one)
from .wickcalc import (WICK_MAX_DEGREE, Basis, FockVector, OmegaSample,
                       PolyFunctional, constant_functional, evaluate_batch,
                       wick_kernel, wick_pair_rank_one_batch)

DEFAULT_BATCH = 4096
MAX_SEGMENT_JUMPS = 2 ** 14   # proposals of one compound-Poisson segment


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    n_samples: int
    cp_truncation: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("seed", "n_samples"):
            x = getattr(self, name)    # a float or bool is refused, not cut
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise ContractError(f"{name} must be an integer, got {x!r}")
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


def _stream(seed: int, batch_index: int, jumps: bool = False) -> np.random.Generator:
    """Batch b = batch_index's generator: Philox(key=seed) at counter (0, 0,
    b, 0) (Gamma), or PCG64(seed) jumped b times (compound Poisson, jumps)."""
    bits = (np.random.PCG64(int(seed)).jumped(batch_index) if jumps else
            np.random.Philox(key=int(seed), counter=[0, 0, batch_index, 0]))
    return np.random.Generator(bits)


def _cp_segments(measure: AtomicMeasure, eps: float,
                 rng: np.random.Generator, size: int):
    """The proposals of a compound-Poisson batch of size rows, in segments
    of at most MAX_SEGMENT_JUMPS proposals of one atom: yields (atom,
    owners, sizes) with atoms in order 0..m-1, owners the row of each
    proposal (uniform, in no order) and sizes its size if it is kept as a
    jump, 0.0 if it is thinned.  An atom without proposals yields one empty
    segment.

    A batch whose expected proposal count, size sum(w) (e^(-eps)
    log(1/eps) + e^(-1)), is over the entry budget is refused before any
    draw.  Then one Poisson draw gives the (m, 2) proposal totals per atom
    and piece, checked against the budget before any proposal is drawn.
    Each atom's proposals, its [eps, 1) ones followed by its [1, inf) ones,
    are cut into windows of MAX_SEGMENT_JUMPS; each window draws its
    owners, then a size uniform u and a keep uniform per proposal: sizes
    eps e^(u log(1/eps)) on [eps, 1) and 1 - log1p(-u) on [1, inf),
    thinned where the keep uniform is at least e^(eps - s) or 1/s.
    """
    log_span = math.log(1.0 / eps)
    mass = np.array([math.exp(-eps) * log_span, math.exp(-1.0)])
    expected = size * float(measure.weights.sum()) * float(mass.sum())
    if expected > MAX_ENTRIES:
        raise SizeError(f"compound-Poisson batch of {size} samples expects "
                        f"{expected:.3g} proposals, over the budget of {MAX_ENTRIES}")
    totals = rng.poisson(size * measure.weights[:, None] * mass)
    _check_entries(int(totals.sum()), f"compound-Poisson batch of {size} samples")
    for i, (n_low, n_high) in enumerate(totals.tolist()):
        n = n_low + n_high
        for start in range(0, max(n, 1), MAX_SEGMENT_JUMPS):
            count = min(MAX_SEGMENT_JUMPS, n - start)
            owners = rng.integers(0, size, count)
            s, keep = rng.random((2, count))    # s: the size uniforms, made sizes in place
            cut = min(max(n_low - start, 0), count)    # the window's [eps, 1) ones
            low, high = s[:cut], s[cut:]
            low *= log_span
            np.exp(low, out=low)
            low *= eps                                  # eps e^(u log(1/eps))
            np.subtract(1.0, np.log1p(-high), out=high)    # 1 - log1p(-u)
            # keep >= e^(eps - s) is keep e^(s - eps) >= 1, and keep >= 1/s is keep s >= 1
            keep[:cut] *= np.exp(low - eps)
            keep[cut:] *= high
            s *= keep < 1.0    # kept sizes are finite and > 0: thinned ones become +0.0
            yield i, owners, s


def _draw_cp_batch(measure: AtomicMeasure, eps: float, rng: np.random.Generator,
                   size: int, order: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """A compound-Poisson batch as (masses, sums), each segment of
    _cp_segments reduced as it is drawn and then dropped.

    sums is (m, order, size): sums[i, r-1] is the per-row sum of s^r over
    atom i's kept jumps, each segment's weighted bincount per r added into
    zeros, and masses (size, m) is the view sums[:, 0].T, not a copy.  No
    array of all the batch's proposals, or of all one atom's, exists; the
    largest holds one segment's, so a draw's temporaries are bounded
    whatever the weights.
    """
    sums = np.zeros((measure.m, order, size))
    buf = np.empty(MAX_SEGMENT_JUMPS)    # the powers s^r, r >= 2, in turn
    for i, owners, sizes in _cp_segments(measure, eps, rng, size):
        power = sizes
        for r in range(order):
            if r:
                power = np.multiply(power, sizes, out=buf[:sizes.size])
            sums[i, r] += np.bincount(owners, weights=power, minlength=size)
    return sums[:, 0].T, sums


def _draw_batch(measure: AtomicMeasure, rng: np.random.Generator,
                size: int) -> np.ndarray:
    """A Gamma batch: (size, m) masses, drawn atom by atom."""
    cols = [rng.gamma(shape=w, scale=1.0, size=size) for w in measure.weights]
    return np.stack(cols, axis=1)


def sample_omega(measure: AtomicMeasure, cfg: SamplerConfig,
                 rng: np.random.Generator | None = None) -> OmegaSample:
    """Draw one random configuration (masses on the atoms)."""
    if rng is None:
        rng = _stream(cfg.seed, 0)
    return OmegaSample(_draw_batch(measure, rng, 1)[0])


def _batch_sizes(n_samples: int) -> list[int]:
    """The row count of each batch of a pass of n_samples."""
    return [min(DEFAULT_BATCH, n_samples - start)
            for start in range(0, n_samples, DEFAULT_BATCH)]


def iter_sample_batches(measure: AtomicMeasure, cfg: SamplerConfig):
    """Yield (batch_index, masses) of the Gamma sampler on the per-batch
    streams, in batch order, drawn on the caller's thread."""
    for b, size in enumerate(_batch_sizes(cfg.n_samples)):
        yield b, _draw_batch(measure, _stream(cfg.seed, b), size)


def iter_jump_batches(measure: AtomicMeasure, cfg: SamplerConfig, order: int = 1):
    """Yield the jump-resolved compound-Poisson batches (masses, sums) of
    _draw_cp_batch in batch order, drawn on the caller's thread:
    sums[i, r-1] is each row's sum of s^r over its jumps s at atom i,
    r = 1..order, and masses[:, i] = sums[i, 0]."""
    for b, size in enumerate(_batch_sizes(cfg.n_samples)):
        yield _draw_cp_batch(measure, cfg.cp_truncation,
                             _stream(cfg.seed, b, jumps=True), size, order)


def _column_sums(v) -> tuple[np.ndarray, np.ndarray, int]:
    """Column sums, column sums of squares and row count of one (B, k)
    batch of a statistic; a 1-d batch is one column."""
    v = np.asarray(v, dtype=float).reshape(len(v), -1)
    return v.sum(axis=0), (v * v).sum(axis=0), v.shape[0]


def _reduce(parts) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error per column from the _column_sums of each
    batch, added up in the order given (np.sum over a stacked array)."""
    n = sum(count for _, _, count in parts)
    if n < 2:
        raise DomainError(f"an MC estimate needs at least 2 samples, got {n}")
    sums, sqsums, _ = zip(*parts)
    mean = np.sum(np.stack(sums), axis=0) / n
    var = np.maximum(np.sum(np.stack(sqsums), axis=0) - n * mean * mean,
                     0.0) / (n - 1)
    return mean, np.sqrt(var / n)


def mean_and_se(stats) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error per column of a statistic that arrives as
    (B, k) batches, reduced serially: the reference of every _pass."""
    return _reduce([_column_sums(v) for v in stats])


def _pass(n_samples: int, job) -> tuple[np.ndarray, np.ndarray]:
    """mean_and_se of job(b, size), the statistic of Gamma batch b, over a
    pass of n_samples, on this thread and (for several batches) one worker
    thread.  Each thread takes the next batch no thread has taken and keeps
    its _column_sums, reduced in batch order.  A job that raises, on either
    thread, stops both from taking another batch and raises here once the
    worker is shut down."""
    sizes = _batch_sizes(n_samples)
    parts = [None] * len(sizes)
    untaken = iter(range(len(sizes)))
    lock = threading.Lock()
    failed = threading.Event()

    def take():
        with lock:
            return None if failed.is_set() else next(untaken, None)

    def work():
        try:
            for b in iter(take, None):
                parts[b] = _column_sums(job(b, sizes[b]))
        except BaseException:
            failed.set()
            raise

    if len(sizes) == 1:
        work()
    else:
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="gwn-pass") as pool:
            worker = pool.submit(work)
            work()
            worker.result()
    return _reduce(parts)


# the sample passes of the innermost shared_sample_batches block, keyed by
# (weights, config); None outside every block
_SHARED: ContextVar[dict | None] = ContextVar("gwn_shared_batches",
                                              default=None)


@contextlib.contextmanager
def shared_sample_batches():
    """A block whose Gamma sample passes are drawn once: _mc_accumulate
    stores each complete pass and replays it to a later pass on the same
    weights and config.  The stored batches are dropped when the block is
    left, by return or by exception."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _mc_accumulate(measure: AtomicMeasure, cfg: SamplerConfig, stat_fn):
    """Mean and SE of a per-sample statistic stat_fn(masses) over the Gamma
    batches, in one _pass.  Inside a shared_sample_batches block, a pass
    of at most MAX_ENTRIES masses that completes stores its batches,
    read-only, and a later pass on the same weights and config reads them."""
    store = _SHARED.get() if cfg.n_samples * measure.m <= MAX_ENTRIES else None
    key = (measure.weights.tobytes(), cfg)
    stored = None if store is None else store.get(key)
    kept = {}

    def job(b, size):
        if stored:
            return stat_fn(stored[b])
        masses = _draw_batch(measure, _stream(cfg.seed, b), size)
        if store is not None:
            masses.setflags(write=False)
            kept[b] = masses
        return stat_fn(masses)

    estimate = _pass(cfg.n_samples, job)
    if store is not None and not stored:
        store[key] = tuple(kept[b] for b in range(len(kept)))
    return estimate


def mc_jump_accumulate(measure: AtomicMeasure, cfg: SamplerConfig,
                       order: int, stat_fn):
    """Mean and SE of a per-sample statistic stat_fn(masses, sums) over the
    batches of iter_jump_batches(measure, cfg, order), each drawn and
    reduced on the caller's thread, since the draw holds the interpreter lock."""
    return mean_and_se(stat_fn(*batch) for batch in iter_jump_batches(measure, cfg, order))


def _upper_gammas(J: int, x: float) -> np.ndarray:
    """Gamma(j, x) for the integers j = 1..J, each (j-1)! e^(-x) sum_{k<j}
    x^k/k! (DLMF 8.4.8), so (j-1)! at x = 0."""
    powers = np.cumprod(np.concatenate(([1.0], x / np.arange(1.0, J))))[:J]
    return np.cumprod(np.maximum(np.arange(J), 1.0)) * math.exp(-x) * np.cumsum(powers)


def moment_table(measure: AtomicMeasure, N: int, eps: float = 0.0) -> np.ndarray:
    """(m, N+1) table [a, n] = E[s_a^n] of the mass at atom a under the
    compound-Poisson law truncated at eps >= 0, whose jumps at a are a
    Poisson process of intensity w_a e^(-s)/s ds on [eps, inf); eps = 0 is
    the Gamma law, whose moments are rising(w_a, n).  The cumulants of the
    mass are kappa_j = w_a Gamma(j, eps) (Campbell), and the moments follow
    by m_n = sum_{k=1..n} C(n-1, k-1) kappa_k m_{n-k}."""
    if not (math.isfinite(eps) and eps >= 0.0):
        raise DomainError(f"truncation eps must be finite and >= 0, got {eps!r}")
    kappa = measure.weights[:, None] * _upper_gammas(N, eps)   # [a, k - 1]
    table = np.ones((measure.m, N + 1))
    for n in range(1, N + 1):
        binom = np.array([math.comb(n - 1, k) for k in range(n)], dtype=float)
        table[:, n] = (kappa[:, :n] * table[:, n - 1::-1]) @ binom
    return table


def expectation(p: PolyFunctional, measure: AtomicMeasure, table: np.ndarray,
                q: PolyFunctional | None = None) -> float:
    """E[p], or E[p q], for masses independent across atoms with the
    per-atom moments table[a, n] = E[s_a^n] (``moment_table``) up to the
    degree of p (of p q).  In the monomial basis p = sum_k A[k] s^k, so
    E[p] = sum_k A[k] M[k] with M = atom_products(table); for p q each
    pair of degrees n, k multiplies their coefficients on the merged
    occupation counts, M read through the merge table of sym_product."""
    if q is None:
        q = constant_functional(measure.m, 1.0, Basis.MONOMIAL)
    a, b = (f.to_basis(Basis.MONOMIAL, measure).kernels for f in (p, q))
    m, N = measure.m, a.degree + b.degree
    if a.m != m or b.m != m:
        raise DimensionError("functionals and measure differ in atom count")
    if np.shape(table)[0] != m or np.shape(table)[1] <= N:
        raise DimensionError(f"need a moment table of {m} atoms up to degree {N}, "
                             f"got shape {np.shape(table)}")
    M = atom_products(table, N)
    total = 0.0
    for n in range(a.degree + 1):
        for k in range(b.degree + 1):
            ranks = _merge_ranks(m, n, k) if n >= k else _merge_ranks(m, k, n).T
            total += a.coeffs[_degree(m, n)] @ M[_degree(m, n + k)][ranks] \
                @ b.coeffs[_degree(m, k)]
    return float(total)


def laplace_target(measure: AtomicMeasure, phi) -> float:
    """exp[-Integral(log(1 - phi))] for phi < 1 pointwise, if it is finite."""
    phi = measure.real_function(phi)
    if np.any(phi >= 1.0):
        raise DomainError("Laplace functional requires phi < 1 pointwise")
    exponent = -float(measure.weights @ np.log1p(-phi))
    if exponent > math.log(np.finfo(float).max):
        raise DomainError(f"the Laplace target exp({exponent!r}) overflows")
    return math.exp(exponent)


def _estimates(means, ses, n: int) -> list[MCEstimate]:
    return [MCEstimate(float(a), float(b), n) for a, b in zip(means, ses)]


def mc_laplace_stack(measure: AtomicMeasure, phis,
                     cfg: SamplerConfig) -> list[MCEstimate]:
    """MC averages of exp<omega, phi> for each phi in phis, from one pass
    over the samples; the targets are laplace_target."""
    phis = np.array([measure.real_function(phi) for phi in phis])
    if np.any(phis >= 1.0):
        raise DomainError("Laplace functional requires phi < 1 pointwise")
    return _estimates(*_mc_accumulate(measure, cfg, lambda S: np.exp(S @ phis.T)),
                      cfg.n_samples)


def mc_laplace(measure: AtomicMeasure, phi, cfg: SamplerConfig) -> MCEstimate:
    """MC average of exp<omega, phi>; target is laplace_target."""
    return mc_laplace_stack(measure, [phi], cfg)[0]


@dataclass(frozen=True)
class ChaosGramReport:
    """MC Gram matrix of Wick monomial evaluations across degrees 0..N."""

    means: np.ndarray       # (N+1, N+1)
    std_errors: np.ndarray  # (N+1, N+1)
    targets: np.ndarray     # (N+1, N+1): delta_{nk} n! ext_inner_n
    n_samples: int

    def estimate(self, n: int, k: int) -> MCEstimate:
        return MCEstimate(float(self.means[n, k]), float(self.std_errors[n, k]),
                          self.n_samples)

    def max_sigma_deviation(self) -> float:
        """Largest |mean - target| measured in SE units (0 SE counts as exact)."""
        dev = np.abs(self.means - self.targets)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(dev == 0.0, 0.0, dev / self.std_errors)
        return float(np.max(z))


def mc_chaos_gram(measure: AtomicMeasure, f, g, cfg: SamplerConfig,
                  N_wick: int) -> ChaosGramReport:
    """MC estimates of E[<:omega^n:, f^n> <:omega^k:, g^k>] for n,k <= N_wick.

    f and g are real test functions.  Targets are
    delta_{nk} n! ext_inner_n(f^n, g^n): off-diagonal entries
    vanish (orthogonal chaoses), diagonals carry the extended Fock norm.
    Each batch pairs its rows with f and g in one stacked
    wick_pair_rank_one_batch call.
    """
    if not 0 <= N_wick <= WICK_MAX_DEGREE:
        raise SizeError(f"N_wick must be in 0..{WICK_MAX_DEGREE}")
    fv = measure.real_function(f)
    gv = measure.real_function(g)
    fg = np.stack([fv, gv])

    def stat(S):
        q = wick_pair_rank_one_batch(S, fg, measure, N_wick)
        return np.einsum("bn,bk->bnk", q[:, 0], q[:, 1]).reshape(S.shape[0], -1)

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
    chis = [measure.real_function(c) for c in indicators]
    n = len(chis)
    if n == 0:
        raise ContractError("need at least one indicator")
    if n > WICK_MAX_DEGREE:
        raise SizeError(f"at most {WICK_MAX_DEGREE} indicators supported")
    support = np.zeros(measure.m)
    for c in chis:
        if not np.all((c == 0.0) | (c == 1.0)):
            raise ContractError("indicators must be 0/1 vectors")
        if np.any(support * c != 0.0):
            raise ContractError("indicator supports must be pairwise disjoint")
        support = support + c
    lhs = 1.0
    for c in chis:
        lhs *= omega.pair(c) - measure.integrate(c)
    prod = FockVector.vacuum(measure.m)
    for c in chis:
        prod = create(c, prod)
    rhs = fock_inner_n(measure, wick_kernel(omega, measure, n), prod.get(n))
    return lhs, rhs


def chaos_projection_stack(measure: AtomicMeasure, fs,
                           cfg: SamplerConfig) -> list[MCEstimate]:
    """For each kernel f in fs, E[(<omega^(x)n, f> - <:omega^n:, f>)
    <:omega^n:, g>] with n = f.degree and a random g, from one pass over
    the samples.

    The difference is the part of the monomial that lives in lower chaoses,
    so its covariance with any degree-n Wick monomial is 0.  Each g is
    drawn from a generator seeded with the config seed.
    """
    fs = list(fs)
    if any(f.m != measure.m for f in fs):
        raise DimensionError("kernel atom count mismatch")
    gs = [SymTensor(f.m, f.degree, np.random.default_rng(cfg.seed).uniform(
        -1.0, 1.0, size=f.values.size)) for f in fs]
    mono = [PolyFunctional(Basis.MONOMIAL, FockVector.single(f)) for f in fs]
    wick = [PolyFunctional(Basis.GAMMA_WICK, FockVector.single(t))
            for t in fs + gs]

    def stat(S):
        wick_fg = evaluate_batch(wick, S, measure)
        return (evaluate_batch(mono, S, measure) - wick_fg[:, :len(fs)]) \
            * wick_fg[:, len(fs):]

    return _estimates(*_mc_accumulate(measure, cfg, stat), cfg.n_samples)


def chaos_projection_check(measure: AtomicMeasure, f: SymTensor,
                           cfg: SamplerConfig) -> MCEstimate:
    """chaos_projection_stack for the single kernel f."""
    return chaos_projection_stack(measure, [f], cfg)[0]
