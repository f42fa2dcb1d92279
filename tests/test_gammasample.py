"""Sampler laws, Monte Carlo targets, determinism.

All MC assertions run on fixed seeds, so they are deterministic: the SE
windows were checked once and then frozen with the seed.
"""

import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import exp1

import oracles
from gwn import funcalc, gammasample, symtensor
from gwn.errors import ContractError, DimensionError, DomainError, SizeError
from gwn.extfock import ext_inner_n
from gwn.gammasample import (DEFAULT_BATCH, MAX_SEGMENT_JUMPS,
                             ChaosGramReport, MCEstimate,
                             SamplerConfig, _cp_segments,
                             _draw_cp_batch, _stream,
                             chaos_projection_check, chaos_projection_stack,
                             expectation, moment_table,
                             iter_jump_batches, iter_sample_batches,
                             laplace_target, mc_chaos_gram,
                             mc_laplace, mc_laplace_stack,
                             mean_and_se, multiple_integral_identity,
                             sample_omega, shared_sample_batches)
from gwn.measure import AtomicMeasure
from gwn.symtensor import MAX_ENTRIES, SymTensor, rank_one
from gwn.verify import run_mc_suite
from gwn.funcalc import a1_plus_mc_adjointness_check
from gwn.wickcalc import Basis, FockVector, OmegaSample, PolyFunctional

from conftest import count_gamma_draws, rel_err


def collect(measure, cfg):
    return np.concatenate([b for _, b in iter_sample_batches(measure, cfg)])


def cp_batch_segments(measure, cfg):
    """The (atom, owners, sizes) segments of each compound-Poisson batch of
    cfg, on the batches' streams, with the batch's row count."""
    for b, start in enumerate(range(0, cfg.n_samples, DEFAULT_BATCH)):
        size = min(DEFAULT_BATCH, cfg.n_samples - start)
        yield size, list(_cp_segments(measure, cfg.cp_truncation,
                                      _stream(cfg.seed, b, jumps=True), size))


def test_config_validation():
    with pytest.raises(DomainError):
        SamplerConfig(seed=1, n_samples=0)
    with pytest.raises(DomainError):
        SamplerConfig(seed=1, n_samples=10, cp_truncation=1.5)
    with pytest.raises(DomainError):
        SamplerConfig(seed=-1, n_samples=10)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", -0.5), ("seed", 2.0), ("seed", True),
    ("seed", "3"), ("n_samples", 100.7), ("n_samples", True),
    ("n_samples", np.float64(100.0))])
def test_config_takes_only_integers(field, value):
    # a float is refused, not cut toward zero, and a bool is not a count
    args = {"seed": 1, "n_samples": 10, field: value}
    with pytest.raises(ContractError, match=f"{field} must be an integer"):
        SamplerConfig(**args)


def test_config_takes_numpy_integers():
    cfg = SamplerConfig(seed=np.uint64(2 ** 64 - 1), n_samples=np.int32(3))
    assert cfg == SamplerConfig(seed=2 ** 64 - 1, n_samples=3)
    assert mc_laplace(AtomicMeasure([1.0]), [0.1],
                      SamplerConfig(seed=np.int64(4), n_samples=np.int64(50))) \
        == mc_laplace(AtomicMeasure([1.0]), [0.1], SamplerConfig(seed=4, n_samples=50))


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


def proposal_mass(eps):
    """Masses per unit weight of the density that dominates e^(-s)/s:
    e^(-eps)/s on [eps, 1) and e^(-s) on [1, inf)."""
    return np.array([math.exp(-eps) * math.log(1.0 / eps), math.exp(-1.0)])


def gamma_upper(k, x):
    """Gamma(k, x) = (k-1)! e^(-x) sum_{j<k} x^j / j! for an integer k >= 1."""
    return math.factorial(k - 1) * math.exp(-x) * sum(
        x ** j / math.factorial(j) for j in range(k))


def cell_counts(measure, cfg, kept):
    """The (n_samples, m) per (row, atom) counts of cfg's compound-Poisson
    batches: of kept jumps if kept, else of proposals."""
    batches = []
    for size, segments in cp_batch_segments(measure, cfg):
        counts = np.zeros((size, measure.m), dtype=np.int64)
        for atom, owners, sizes in segments:
            counts[:, atom] += np.bincount(owners[sizes > 0.0] if kept else owners,
                                           minlength=size)
        batches.append(counts)
    return np.concatenate(batches)


def assert_independent_poisson(counts, lam):
    # mean and variance of each column both equal lam, and columns are
    # uncorrelated
    n = counts.shape[0]
    for i, rate in enumerate(lam):
        c = counts[:, i]
        assert abs(c.mean() - rate) < 4 * math.sqrt(rate / n)
        # Var of the sample variance of Poisson(rate): (rate + 2 rate^2) / n
        assert abs(c.var(ddof=1) - rate) < 4 * math.sqrt((rate + 2 * rate ** 2) / n)
    cov = np.cov(counts, rowvar=False)
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            assert abs(cov[i, j]) < 4 * math.sqrt(lam[i] * lam[j] / n)


def test_jump_sampler_law():
    # closed forms of the density e^(-s)/s / E1(eps) on [eps, inf):
    # E s^k = Gamma(k, eps) / E1(eps) and P(s >= 1) = E1(1) / E1(eps);
    # the kept jumps of a two-atom batch are pooled, about 200000 of them
    size = 4096
    for b, eps in enumerate((1e-6, 1e-3, 0.5, 0.99)):
        w = 200000 / (size * exp1(eps))
        mu = AtomicMeasure([0.25 * w, 0.75 * w])
        s = np.concatenate([sizes for _, _, sizes in
                            _cp_segments(mu, eps, _stream(5, b, jumps=True), size)])
        s = s[s > 0.0]    # a thinned proposal has size 0
        n = s.size
        assert abs(n - 200000) < 4 * math.sqrt(200000) and s.min() >= eps
        scale = math.exp(-eps) / exp1(eps)
        m1, m2 = scale, (1 + eps) * scale
        m4 = (6 + 6 * eps + 3 * eps ** 2 + eps ** 3) * scale
        assert abs(s.mean() - m1) < 4 * math.sqrt((m2 - m1 ** 2) / n), eps
        assert abs(np.mean(s * s) - m2) < 4 * math.sqrt((m4 - m2 ** 2) / n), eps
        p = exp1(1.0) / exp1(eps)
        assert abs(np.mean(s >= 1.0) - p) < 4 * math.sqrt(p * (1 - p) / n), eps
    # a weight this small leaves the batch without proposals
    mu = AtomicMeasure([1e-12])
    [(atom, owners, sizes)] = _cp_segments(mu, 1e-3, _stream(5, 9, jumps=True), size)
    assert atom == 0 and owners.shape == sizes.shape == (0,)
    masses, sums = _draw_cp_batch(mu, 1e-3, _stream(5, 9, jumps=True), size, order=3)
    assert masses.shape == (size, 1) and sums.shape == (1, 3, size)
    assert not masses.any() and not sums.any()


@pytest.mark.parametrize("eps", [1e-3, 0.5])
def test_thinned_jumps_follow_campbell(eps):
    # Campbell's theorem for the kept jumps, per row and atom a: the power
    # sum P_{a,r} = sum s^r has cumulants kappa_j = w_a Gamma(j r, eps), so
    # mean w_a Gamma(r, eps) and variance w_a Gamma(2r, eps), and the
    # kept-jump count is Poisson(w_a E1(eps)), independent across atoms;
    # each gated at 4 SE over 100000 rows
    mu = AtomicMeasure([0.7, 1.6, 0.3])
    order = 3
    cfg = SamplerConfig(seed=0, n_samples=100000, cp_truncation=eps)
    sums = np.concatenate([s for _, s in iter_jump_batches(mu, cfg, order)], axis=2)
    n = sums.shape[2]
    assert n == cfg.n_samples
    for a, w in enumerate(mu.weights):
        for r in range(1, order + 1):
            p = sums[a, r - 1]
            k2, k4 = (w * gamma_upper(j * r, eps) for j in (2, 4))
            assert abs(p.mean() - w * gamma_upper(r, eps)) < 4 * math.sqrt(k2 / n), (a, r)
            # Var of the sample variance: kappa_4 / n + 2 kappa_2^2 / (n - 1)
            assert abs(p.var(ddof=1) - k2) < 4 * math.sqrt(
                k4 / n + 2 * k2 ** 2 / (n - 1)), (a, r)
    assert_independent_poisson(cell_counts(mu, cfg, kept=True), mu.weights * exp1(eps))


def test_compound_poisson_batch_layout():
    mu = AtomicMeasure([0.7, 1.6, 0.3])
    eps, size = 1e-3, 4096
    segments = list(_cp_segments(mu, eps, _stream(21, 0, jumps=True), size))
    # one Poisson draw of the (atom, piece) proposal totals opens the
    # batch's stream
    totals = _stream(21, 0, jumps=True).poisson(
        size * mu.weights[:, None] * proposal_mass(eps))
    # segments come in atom order, each atom's proposals in as few windows
    # of MAX_SEGMENT_JUMPS as hold them (atom 1 expects about 47600), and an
    # atom's segments, joined, hold its [eps, 1) proposals then its [1, inf)
    # ones, each of its size if kept and of size 0 if thinned
    atoms = [atom for atom, _, _ in segments]
    assert atoms == sorted(atoms)
    assert [atoms.count(i) for i in range(mu.m)] == [
        -(-n // MAX_SEGMENT_JUMPS) for n in totals.sum(axis=1)]
    assert atoms.count(1) > 1
    want = np.zeros((size, mu.m))
    for atom, (n_low, n_high) in enumerate(totals.tolist()):
        mine = [(owners, sizes) for a, owners, sizes in segments if a == atom]
        owners = np.concatenate([o for o, _ in mine])
        sizes = np.concatenate([s for _, s in mine])
        assert owners.shape == sizes.shape == (n_low + n_high,)
        low, high = sizes[:n_low], sizes[n_low:]
        assert np.all((low == 0.0) | ((low >= eps) & (low <= 1.0)))
        assert np.all((high == 0.0) | (high >= 1.0))
        assert 0 < np.count_nonzero(low) < n_low and 0 < np.count_nonzero(high) < n_high
        assert owners.min() >= 0 and owners.max() < size
        for o, s in mine:    # bincount's order: each segment summed, then added
            segment = np.zeros(size)
            np.add.at(segment, o, s)
            want[:, atom] += segment
    masses, _ = _draw_cp_batch(mu, eps, _stream(21, 0, jumps=True), size)
    assert np.array_equal(masses, want)
    per_row = totals.sum(axis=1) / size
    lam = mu.weights * proposal_mass(eps).sum()
    assert np.all(np.abs(per_row - lam) < 4 * np.sqrt(lam / size))


def test_compound_poisson_cell_counts_are_independent_poisson():
    # per (row, atom) proposal counts: Poisson(w (e^(-eps) log(1/eps) +
    # e^(-1))) at each atom, uncorrelated across atoms (the kept jumps are
    # counted in test_thinned_jumps_follow_campbell)
    mu = AtomicMeasure([0.7, 1.6, 0.3])
    eps = 1e-3
    cfg = SamplerConfig(seed=47, n_samples=40000, cp_truncation=eps)
    counts = cell_counts(mu, cfg, kept=False)
    assert counts.shape == (cfg.n_samples, mu.m)
    assert_independent_poisson(counts, mu.weights * proposal_mass(eps).sum())


@pytest.mark.parametrize("eps", [1e-3, 0.1, 0.5])
def test_entry_check_counts_proposals(monkeypatch, eps):
    # the expected proposal count size sum(w) (e^(-eps) log(1/eps) + e^(-1))
    # is checked before any draw: a budget just below it refuses the batch
    # with the stream untouched, and one just above it lets the batch draw.
    # The drawn proposal totals are checked against the same budget
    mu = AtomicMeasure([0.7, 1.6, 0.3])
    size = DEFAULT_BATCH
    expected = size * float(mu.weights.sum()) * float(proposal_mass(eps).sum())
    rng = _stream(9, 0, jumps=True)
    state = rng.bit_generator.state
    monkeypatch.setattr(gammasample, "MAX_ENTRIES", math.floor(expected))
    with pytest.raises(SizeError, match=re.escape(
            f"batch of {size} samples expects {expected:.3g} proposals, over the budget")):
        _draw_cp_batch(mu, eps, rng, size)
    assert rng.bit_generator.state == state
    monkeypatch.setattr(gammasample, "MAX_ENTRIES", math.ceil(expected))
    masses, _ = _draw_cp_batch(mu, eps, rng, size)
    assert masses.shape == (size, mu.m)
    drawn = int(_stream(9, 0, jumps=True).poisson(
        size * mu.weights[:, None] * proposal_mass(eps)).sum())
    monkeypatch.setattr(gammasample, "MAX_ENTRIES", MAX_ENTRIES)
    monkeypatch.setattr(symtensor, "MAX_ENTRIES", drawn - 1)
    with pytest.raises(SizeError, match=f"batch of {size} samples needs {drawn} entries"):
        _draw_cp_batch(mu, eps, _stream(9, 0, jumps=True), size)
    monkeypatch.setattr(symtensor, "MAX_ENTRIES", drawn)
    assert np.array_equal(_draw_cp_batch(mu, eps, _stream(9, 0, jumps=True), size)[0],
                          masses)


def test_gamma_batches_keep_the_philox_stream():
    # the per-atom Gamma stream fixes every laplace, gram and projection
    # value: batch b is the Gamma columns drawn in atom order from
    # Philox(key=seed) jumped b times
    mu = AtomicMeasure([0.4, 1.0, 2.3])
    seed, size = 1234, DEFAULT_BATCH
    cfg = SamplerConfig(seed=seed, n_samples=2 * size + 7)
    for b, masses in list(iter_sample_batches(mu, cfg))[:2]:
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(b))
        want = np.stack([gen.gamma(w, 1.0, size) for w in mu.weights], axis=1)
        assert np.array_equal(masses, want)
    # and so does one configuration
    one = sample_omega(mu, replace(cfg, n_samples=1))
    gen = np.random.Generator(np.random.Philox(key=seed))
    assert np.array_equal(one.masses, [gen.gamma(w, 1.0, 1)[0] for w in mu.weights])


def test_gamma_streams_start_where_the_jumps_lead():
    # batch b's Gamma stream is Philox(key=seed) at counter (0, 0, b, 0),
    # the state of Philox(key=seed) jumped b times, and batch b's
    # compound-Poisson stream is PCG64(seed) jumped b times: the same bits,
    # for random 64-bit seeds and batch indices and at the edges
    rng = np.random.default_rng(2024)
    seeds = rng.integers(0, 2 ** 64, 20, dtype=np.uint64).tolist()
    batches = rng.integers(0, 10 ** 6, 20).tolist()
    for seed, b in zip([0, 2 ** 63 + 5, 2 ** 64 - 1] + seeds, [0, 24, 1] + batches):
        for jumps, bits in [(False, np.random.Philox(key=seed)),
                            (True, np.random.PCG64(seed))]:
            got = _stream(seed, b, jumps).bit_generator.random_raw(9)
            assert np.array_equal(got, bits.jumped(b).random_raw(9)), (seed, b)


def test_compound_poisson_batches_use_the_pcg64_stream():
    # batch b of iter_jump_batches is drawn from PCG64(seed) jumped b
    # times, and its masses are the view sums[:, 0].T
    mu = AtomicMeasure([0.7, 1.6])
    seed, eps, size = 77, 1e-3, DEFAULT_BATCH
    cfg = SamplerConfig(seed=seed, n_samples=2 * size, cp_truncation=eps)
    for b, (masses, sums) in enumerate(iter_jump_batches(mu, cfg, order=2)):
        gen = np.random.Generator(np.random.PCG64(seed).jumped(b))
        want_masses, want_sums = _draw_cp_batch(mu, eps, gen, size, order=2)
        assert np.array_equal(masses, want_masses)
        assert np.array_equal(sums, want_sums)
        assert np.shares_memory(masses, sums)
        assert np.array_equal(masses, sums[:, 0].T)


def serial_draws(cfg, draw, jumps=False):
    """Every batch of cfg drawn on this thread, one after another, each by
    draw(rng, size) on its own stream."""
    return [draw(_stream(cfg.seed, b, jumps), min(DEFAULT_BATCH, cfg.n_samples - start))
            for b, start in enumerate(range(0, cfg.n_samples, DEFAULT_BATCH))]


def gamma_draw(measure):
    return lambda rng, size: gammasample._draw_batch(measure, rng, size)


def run_estimators(mu, cfg):
    """Every estimator on mu and cfg, each result flattened to one array:
    the Laplace, Gram and chaos-projection estimates (Gamma batches) and
    the adjointness estimate (compound-Poisson batches)."""
    rng = np.random.default_rng(3)
    poly = [PolyFunctional(basis, FockVector([
        SymTensor(mu.m, n, rng.uniform(-1, 1, size)) for n, size in
        enumerate((1, mu.m, mu.m * (mu.m + 1) // 2))]))
        for basis in (Basis.MONOMIAL, Basis.GAMMA_WICK)]
    laplace = mc_laplace_stack(mu, [[0.2, -0.3, 0.1], [0.4, 0.0, -1.0]], cfg)
    gram = mc_chaos_gram(mu, [0.5, -1.0, 0.3], [1.0, 0.2, -0.4], cfg, 3)
    projection = chaos_projection_stack(
        mu, [rank_one(np.array([0.3, -0.2, 0.5]), n) for n in (1, 2)], cfg)
    adjointness = a1_plus_mc_adjointness_check(*poly, [0.6, 0.0, -0.4], mu, cfg)
    return [np.array([(e.mean, e.std_error) for e in laplace + projection]),
            gram.means, gram.std_errors,
            np.array([adjointness.mean, adjointness.std_error])]


def serial_estimates(monkeypatch, mu, cfg):
    """run_estimators with each pass replaced by mean_and_se of the same
    statistic over serial_draws."""
    with monkeypatch.context() as patched:
        patched.setattr(gammasample, "_mc_accumulate", lambda measure, cfg, stat:
                        mean_and_se(stat(S) for S in serial_draws(
                            cfg, gamma_draw(measure))))
        patched.setattr(funcalc, "mc_jump_accumulate",
                        lambda measure, cfg, order, stat: mean_and_se(
                            stat(*batch) for batch in serial_draws(
                                cfg, lambda rng, size: _draw_cp_batch(
                                    measure, cfg.cp_truncation, rng, size, order),
                                jumps=True)))
        return run_estimators(mu, cfg)


def assert_estimators_equal_serial(monkeypatch, repeats):
    # four batches, the last one short: every estimator, alone and in a
    # shared block (the Gamma pass drawn, then replayed), equals the serial
    # reduction bit for bit, whichever thread reduced each batch
    mu = AtomicMeasure([0.4, 1.0, 2.3])
    cfg = SamplerConfig(seed=5, n_samples=3 * DEFAULT_BATCH + 5, cp_truncation=1e-3)
    want = serial_estimates(monkeypatch, mu, cfg)
    for _ in range(repeats):
        runs = [run_estimators(mu, cfg)]
        with shared_sample_batches():
            runs += [run_estimators(mu, cfg), run_estimators(mu, cfg)]
        for got in runs:
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_passes_drawn_on_two_threads_equal_serial_draws(monkeypatch):
    # the batch iterators draw, in batch order, exactly the batches drawn
    # serially on their streams
    mu = AtomicMeasure([0.4, 1.0, 2.3])
    cfg = SamplerConfig(seed=5, n_samples=3 * DEFAULT_BATCH + 5, cp_truncation=1e-3)
    want = serial_draws(cfg, gamma_draw(mu))
    got = [batch for _, batch in iter_sample_batches(mu, cfg)]
    assert len(got) == 4 and got[-1].shape == (5, mu.m)
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
    want = serial_draws(cfg, lambda rng, size: _draw_cp_batch(
        mu, cfg.cp_truncation, rng, size, order=3), jumps=True)
    got = list(iter_jump_batches(mu, cfg, order=3))
    assert len(got) == 4 and got[-1][0].shape == (5, mu.m)
    for (masses, sums), (want_masses, want_sums) in zip(got, want, strict=True):
        assert np.array_equal(masses, want_masses)
        assert np.array_equal(sums, want_sums)
    # and every estimator's pass (on two threads for the Gamma batches)
    # reduces them bit for bit as mean_and_se does serially
    assert_estimators_equal_serial(monkeypatch, 1)


def test_passes_under_fast_thread_switching_equal_serial_draws(monkeypatch):
    # the interpreter switches threads every microsecond, so the caller
    # and the worker interleave at many points of every draw and statistic
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert_estimators_equal_serial(monkeypatch, 3)
    finally:
        sys.setswitchinterval(interval)


def test_two_batches_are_reduced_at_once():
    # the statistic of Gamma batch 0 (4096 rows) returns only once the
    # statistic of batch 1 (5 rows) has run: a pass that reduced its
    # batches one after another would time out here
    mu = AtomicMeasure([0.5, 1.2])
    cfg = SamplerConfig(seed=7, n_samples=DEFAULT_BATCH + 5, cp_truncation=1e-3)
    one_ran = threading.Event()
    waited = []

    def stat(masses):
        if len(masses) == DEFAULT_BATCH:
            waited.append(one_ran.wait(5.0))
        else:
            one_ran.set()
        return masses

    gammasample._mc_accumulate(mu, cfg, stat)
    assert waited == [True]


def test_compound_poisson_pass_runs_on_the_callers_thread():
    # the compound-Poisson draw holds the interpreter lock, so its pass
    # opens no thread: every statistic call runs here, and the estimate is
    # mean_and_se over iter_jump_batches bit for bit
    mu = AtomicMeasure([0.5, 1.2])
    cfg = SamplerConfig(seed=7, n_samples=3 * DEFAULT_BATCH + 5, cp_truncation=1e-3)
    threads = threading.active_count()
    during = []

    def stat(masses, sums):
        during.append((threading.get_ident(), threading.active_count()))
        return np.column_stack([masses, sums[:, -1].T])

    got = gammasample.mc_jump_accumulate(mu, cfg, 2, stat)
    assert during == [(threading.get_ident(), threads)] * 4
    want = mean_and_se(stat(*batch) for batch in iter_jump_batches(mu, cfg, 2))
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def tag_streams(monkeypatch) -> dict:
    """Map id(generator) to its batch index for every stream made."""
    made = {}
    stream = gammasample._stream

    def tagged(seed, b, jumps=False):
        gen = stream(seed, b, jumps)
        made[id(gen)] = b
        return gen

    monkeypatch.setattr(gammasample, "_stream", tagged)
    return made


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_draw_that_raises_reaches_the_consumer(monkeypatch, k):
    # a draw or a statistic that raises, on the caller's thread or on the
    # worker, raises in the caller, and no thread is left.  The batches are
    # dealt to the two threads in turn (the draw of batch b returns once
    # batch b + 1 is taken), so exactly one of batches k and k + 1 runs on
    # the chosen thread, and that one raises
    mu = AtomicMeasure([0.5, 1.2])
    cfg = SamplerConfig(seed=7, n_samples=4 * DEFAULT_BATCH + 5)
    made = tag_streams(monkeypatch)
    draw = gammasample._draw_batch
    caller = threading.get_ident()
    threads = threading.active_count()
    for where, on_caller in [("draw", True), ("draw", False),
                             ("statistic", True), ("statistic", False)]:
        taken = [threading.Event() for _ in range(5)]
        batch_of, ran = {}, {}

        def fail(b):
            for event in taken:    # no draw waits on a batch never taken
                event.set()
            raise RuntimeError(f"{where} of batch {b}")

        def dealt(measure, rng, size):
            b = made[id(rng)]
            ran[b] = threading.get_ident()
            taken[b].set()
            chosen = b in (k, k + 1) and (ran[b] == caller) == on_caller
            if chosen and where == "draw":
                fail(b)
            masses = draw(measure, rng, size)
            batch_of[id(masses)] = (b, chosen)
            if b + 1 < len(taken):
                taken[b + 1].wait(5.0)
            return masses

        def stat(S):
            b, chosen = batch_of[id(S)]
            if chosen and where == "statistic":
                fail(b)
            return S

        monkeypatch.setattr(gammasample, "_draw_batch", dealt)
        with pytest.raises(RuntimeError, match=f"{where} of batch") as raised:
            gammasample._mc_accumulate(mu, cfg, stat)
        b = int(str(raised.value).split()[-1])
        assert b in (k, k + 1) and (ran[b] == caller) == on_caller
        assert ran[k] != ran[k - 1]    # the threads took turns
        assert set(ran) <= set(range(k + 3))    # and soon stopped taking
        assert threading.active_count() == threads


def test_no_thread_outlives_a_pass():
    mu = AtomicMeasure([0.5, 1.2])
    cfg = SamplerConfig(seed=7, n_samples=3 * DEFAULT_BATCH)
    threads = threading.active_count()
    # a complete pass runs one worker thread beside the caller's, shut down
    # when it ends
    during = []

    def stat(S):
        during.append((threading.get_ident(), threading.active_count()))
        return S

    gammasample._mc_accumulate(mu, cfg, stat)
    assert {count for _, count in during} == {threads + 1}
    assert len({ident for ident, _ in during}) <= 2
    assert threading.active_count() == threads
    # a compound-Poisson pass whose statistic raises from its second batch on
    del during[:]

    def failing(masses, sums):
        stat(masses)
        if len(during) >= 2:
            raise RuntimeError("the statistic failed")
        return masses

    with pytest.raises(RuntimeError, match="statistic"):
        gammasample.mc_jump_accumulate(mu, cfg, 1, failing)
    assert threading.active_count() == threads
    # a pass of one batch runs on the caller's thread alone, and the batch
    # iterators draw there too
    del during[:]
    gammasample._mc_accumulate(mu, replace(cfg, n_samples=DEFAULT_BATCH), stat)
    assert during == [(threading.get_ident(), threads)]
    assert {threading.active_count() for _ in iter_sample_batches(mu, cfg)} == {threads}
    assert {threading.active_count() for _ in iter_jump_batches(mu, cfg)} == {threads}


def test_an_atom_with_many_jumps_is_drawn_in_bounded_segments():
    # atom 1 expects 8 (e^(-eps) log(1/eps) + e^(-1)) 4096 = 238000
    # proposals at eps 1e-3, many segments' worth
    mu = AtomicMeasure([0.3, 8.0, 0.5])
    eps, size, order = 1e-3, 4096, 3
    segments = list(_cp_segments(mu, eps, _stream(3, 0, jumps=True), size))
    atoms = [atom for atom, _, _ in segments]
    assert atoms == sorted(atoms) and set(atoms) == set(range(mu.m))
    assert sum(owners.size for atom, owners, _ in segments
               if atom == 1) > 10 * MAX_SEGMENT_JUMPS
    assert all(owners.size <= MAX_SEGMENT_JUMPS for _, owners, _ in segments)
    _, sums = _draw_cp_batch(mu, eps, _stream(3, 0, jumps=True), size, order)
    want = np.zeros_like(sums)
    for atom, owners, sizes in segments:
        for r in range(order):
            want[atom, r] += np.bincount(owners, weights=sizes ** (r + 1),
                                         minlength=size)
    assert np.all(np.abs(sums - want) <= 1e-13 * want)


def test_a_compound_poisson_draw_holds_a_few_megabytes():
    # the benchmark's 8-atom shape (total weight 10, the largest atom 3.2,
    # about 95000 proposals), 4096 rows, eps 1e-3, power sums up to order 3:
    # a draw holds its (8, 3, 4096) sums and one segment's temporaries
    mu = AtomicMeasure([0.5, 0.6, 0.7, 0.5, 3.2, 2.5, 1.0, 1.0])
    rng = _stream(0, 0, jumps=True)
    tracemalloc.start()
    try:
        _draw_cp_batch(mu, 1e-3, rng, DEFAULT_BATCH, order=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_compound_poisson_mean_mass():
    mu = AtomicMeasure([0.7, 1.6])
    eps = 1e-3
    cfg = SamplerConfig(seed=33, n_samples=30000, cp_truncation=eps)
    S = np.concatenate([masses for masses, _ in iter_jump_batches(mu, cfg)])
    assert S.shape == (cfg.n_samples, mu.m)
    for i, w in enumerate(mu.weights):
        want = w * math.exp(-eps)  # discarded small jumps bias the mean by O(eps)
        se = math.sqrt(w / cfg.n_samples)
        assert abs(S[:, i].mean() - want) < 4 * se


def rising(w, n):
    return math.prod(w + i for i in range(n))


def test_moment_table_at_eps_0_is_rising():
    mu = AtomicMeasure([0.3, 1.0, 2.75, 40.0])
    table = moment_table(mu, 8)
    assert table.shape == (4, 9)
    for a, w in enumerate(mu.weights):
        for n in range(9):
            assert rel_err(table[a, n], rising(w, n)) < 1e-14, (a, n)


@pytest.mark.parametrize("eps", [1e-3, 0.1, 0.5, 0.9])
def test_moment_table_matches_the_cumulant_series(eps):
    # the oracle exponentiates the cumulant series with scipy's incomplete
    # gamma, where the package runs the moment recursion on Gamma(j, eps)
    # from its finite sum
    weights = [0.3, 1.0, 2.75]
    table = moment_table(AtomicMeasure(weights), 7, eps)
    for a, row in enumerate(oracles.cp_moments(weights, eps, 7)):
        for n, want in enumerate(row):
            assert rel_err(table[a, n], want) < 1e-13, (a, n)


def test_moment_table_matches_the_jump_sampler():
    # the first three moments of the compound-Poisson masses at eps = 0.5,
    # each within 4 SE over 100000 rows
    mu = AtomicMeasure([0.7, 1.6, 0.3])
    cfg = SamplerConfig(seed=0, n_samples=100000, cp_truncation=0.5)
    S = np.concatenate([masses for masses, _ in iter_jump_batches(mu, cfg)])
    table = moment_table(mu, 3, cfg.cp_truncation)
    for n in (1, 2, 3):
        p = S ** n
        se = p.std(axis=0, ddof=1) / math.sqrt(len(S))
        assert np.all(np.abs(p.mean(axis=0) - table[:, n]) < 4 * se), n


@pytest.mark.parametrize("eps", [-1e-3, math.nan, math.inf])
def test_moment_table_refuses_a_bad_truncation(eps):
    with pytest.raises(DomainError):
        moment_table(AtomicMeasure([1.0]), 2, eps)


def dyadic_poly(rng, m, N, basis=Basis.MONOMIAL):
    """Kernels of multiples of 1/8 in [-1, 1]: exact floats, and coefficients
    A = perm_count * f that are exact too."""
    ks = [SymTensor(m, n, rng.integers(-8, 9, math.comb(n + m - 1, n)) / 8.0)
          for n in range(N + 1)]
    return PolyFunctional(basis, FockVector(ks))


def test_expectation_under_the_gamma_law_is_exact(rng):
    # rational weights, whose rising factorials are rational: E[p] and
    # E[p q] against Fraction sums over dicts of monomials
    for m, Np, Nq in ((1, 4, 3), (2, 3, 3), (3, 2, 2), (3, 4, 0)):
        mu = AtomicMeasure(rng.integers(1, 9, m) / 4.0)
        p, q = dyadic_poly(rng, m, Np), dyadic_poly(rng, m, Nq)
        moments = oracles.cp_moments(mu.weights, 0.0, Np + Nq, Fraction)
        P, Q = (oracles.monomial_terms(f, mu, Fraction) for f in (p, q))

        def mean(terms):
            return sum(c * math.prod(moments[a][x] for a, x in enumerate(k))
                       for k, c in terms.items())

        joint = {}
        for k, c in P.items():
            for l, d in Q.items():
                key = tuple(x + y for x, y in zip(k, l))
                joint[key] = joint.get(key, 0) + c * d
        table = moment_table(mu, Np + Nq)
        assert rel_err(expectation(p, mu, table), float(mean(P))) < 1e-13
        assert rel_err(expectation(p, mu, table, q), float(mean(joint))) < 1e-13
        assert rel_err(expectation(q, mu, table, p), float(mean(joint))) < 1e-13


def test_expectation_of_gamma_wick_powers_is_their_gram_matrix(rng):
    # E[q_n(f) q_k(g)] = delta_nk n! ext_inner_n(f^n, g^n) under the Gamma
    # law, and every Wick power of degree >= 1 has mean 0
    mu = AtomicMeasure([0.6, 1.3, 2.0])
    f, g = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    table = moment_table(mu, 6)
    for n in range(4):
        qn = PolyFunctional(Basis.GAMMA_WICK, FockVector.single(rank_one(f, n)))
        assert abs(expectation(qn, mu, table) - (n == 0)) < 1e-12
        for k in range(4):
            qk = PolyFunctional(Basis.GAMMA_WICK, FockVector.single(rank_one(g, k)))
            want = math.factorial(n) * ext_inner_n(mu, rank_one(f, n), rank_one(g, n)) \
                if n == k else 0.0
            assert abs(expectation(qn, mu, table, qk) - want) < 1e-11 * max(1.0, abs(want)), (n, k)


def test_expectation_needs_a_wide_enough_table():
    mu = AtomicMeasure([0.6, 1.3])
    p = PolyFunctional(Basis.MONOMIAL, FockVector.single(rank_one([1.0, 2.0], 2)))
    with pytest.raises(DimensionError):
        expectation(p, mu, moment_table(mu, 3), p)
    with pytest.raises(DimensionError):
        expectation(p, mu, moment_table(AtomicMeasure([1.0]), 4), p)


def test_expectation_refuses_a_functional_over_another_atom_count():
    mu = AtomicMeasure([0.6, 1.3, 2.0])
    table = moment_table(mu, 4)
    p = PolyFunctional(Basis.MONOMIAL, FockVector.single(rank_one([1.0, 2.0], 2)))
    q = PolyFunctional(Basis.MONOMIAL,
                       FockVector.single(rank_one([1.0, 2.0, 0.5], 2)))
    with pytest.raises(DimensionError, match="differ in atom count"):
        expectation(p, mu, table)
    with pytest.raises(DimensionError, match="differ in atom count"):
        expectation(q, mu, table, p)


def test_sampler_modes_agree_on_laplace():
    # the Gamma masses and the compound-Poisson masses of the jump batches
    # give the same Laplace functional, up to the O(eps) truncation bias
    mu = AtomicMeasure([0.8, 1.2])
    phi = np.array([0.3, -0.5])
    a = mc_laplace(mu, phi, SamplerConfig(seed=7, n_samples=40000))
    mean, se = mean_and_se(np.exp(masses @ phi) for masses, _ in
                           iter_jump_batches(mu, SamplerConfig(seed=8, n_samples=40000)))
    gap = abs(a.mean - mean[0])
    assert gap < 4 * math.hypot(a.std_error, se[0])


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
    # a direction is a test function: one value per atom
    mu = AtomicMeasure([1.0, 1.0])
    cfg = SamplerConfig(seed=1, n_samples=10)
    for bad in ([1.0, 1.0, 1.0], np.ones((2, 2)), 1.0):
        with pytest.raises(DimensionError):
            mc_chaos_gram(mu, bad, [1.0, 1.0], cfg, 2)
        with pytest.raises(DimensionError):
            mc_chaos_gram(mu, [1.0, 1.0], bad, cfg, 2)


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


def test_stacked_estimates_match_single_statistic_calls(rng):
    mu = AtomicMeasure([0.9, 1.4, 0.6])
    cfg = SamplerConfig(seed=61, n_samples=9000)

    def close(a, b):
        for x, y in ((a.mean, b.mean), (a.std_error, b.std_error)):
            assert abs(x - y) <= 1e-12 * max(abs(x), abs(y))
        assert a.n == b.n == cfg.n_samples

    phis = [np.array([0.3, -0.2, 0.1]), np.zeros(3), np.array([-0.4, 0.2, 0.35])]
    stacked = mc_laplace_stack(mu, phis, cfg)
    for phi, est in zip(phis, stacked):
        close(est, mc_laplace(mu, phi, cfg))
    assert stacked[1].mean == 1.0 and stacked[1].std_error == 0.0
    zero = run_mc_suite("laplace", 3, samples=3000).cases[1]
    assert zero.name == "zero_direction_exact" and zero.value == 1.0 and zero.passed
    fs = [SymTensor(3, n, rng.uniform(-1, 1, SymTensor(3, n).values.size))
          for n in (1, 2, 2)]
    for f, est in zip(fs, chaos_projection_stack(mu, fs, cfg)):
        close(est, chaos_projection_check(mu, f, cfg))


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
    # the expected proposal count is checked before any Poisson draw
    with pytest.raises(SizeError):
        _draw_cp_batch(AtomicMeasure([1e6]), 1e-6, _stream(0, 0), 4096)


def reduce_masses(measure, cfg):
    """Mean and SE of the masses themselves, through _mc_accumulate: the
    path that reads and fills the shared store."""
    return np.stack(gammasample._mc_accumulate(measure, cfg, lambda S: S))


def test_shared_passes_are_drawn_once_per_weights_and_config(monkeypatch):
    # in a block, a pass is replayed only on the same weights and config:
    # the other sample count and the same weights in another order each
    # draw their own pass, and every pass equals one drawn outside a block
    mu, swapped = AtomicMeasure([0.5, 1.2]), AtomicMeasure([1.2, 0.5])
    cfg = SamplerConfig(seed=7, n_samples=9000)
    passes = [(mu, replace(cfg, n_samples=5000)), (swapped, cfg), (mu, cfg)]
    alone = [reduce_masses(*p) for p in passes]
    draws = count_gamma_draws(monkeypatch)
    with shared_sample_batches():
        for _ in range(2):
            for p, want in zip(passes, alone):
                assert np.array_equal(reduce_masses(*p), want)
    assert sorted(draws) == sorted([4096, 904] + [4096, 4096, 808] * 2)
    assert gammasample._SHARED.get() is None


def test_shared_batches_are_read_only():
    mu = AtomicMeasure([0.5, 1.2])
    cfg = SamplerConfig(seed=7, n_samples=5000)
    writable = []

    def stat(S):
        writable.append(S.flags.writeable)
        return S

    with shared_sample_batches():
        for _ in range(2):    # as drawn, then as replayed
            gammasample._mc_accumulate(mu, cfg, stat)
    assert writable == [False] * 4


def test_a_pass_left_early_stores_nothing(monkeypatch):
    mu = AtomicMeasure([0.5, 1.2])
    cfg = SamplerConfig(seed=7, n_samples=9000)
    want = reduce_masses(mu, cfg)
    draws = count_gamma_draws(monkeypatch)

    def failing(S):
        raise RuntimeError("the statistic failed")

    with shared_sample_batches():
        with pytest.raises(RuntimeError, match="statistic"):
            gammasample._mc_accumulate(mu, cfg, failing)
        # the failed pass drew one batch on each thread at most, and took
        # no other
        early = len(draws)
        assert draws in ([4096], [4096, 4096])
        assert gammasample._SHARED.get() == {}
        assert np.array_equal(reduce_masses(mu, cfg), want)
        assert np.array_equal(reduce_masses(mu, cfg), want)
    # nothing was stored: the next pass draws each of its batches once, and
    # the one after replays it
    assert sorted(draws[early:]) == [808, 4096, 4096]


def test_shared_passes_are_dropped_when_the_block_raises(monkeypatch):
    mu = AtomicMeasure([0.5, 1.2])
    cfg = SamplerConfig(seed=7, n_samples=3000)
    draws = count_gamma_draws(monkeypatch)
    with pytest.raises(RuntimeError):
        with shared_sample_batches():
            reduce_masses(mu, cfg)
            raise RuntimeError("a suite failed")
    assert gammasample._SHARED.get() is None
    reduce_masses(mu, cfg)
    assert draws == [3000, 3000]


def test_a_pass_over_the_entry_budget_is_drawn_each_time(monkeypatch):
    mu = AtomicMeasure([0.5, 1.2])
    cfg = SamplerConfig(seed=7, n_samples=3000)
    draws = count_gamma_draws(monkeypatch)
    for budget, drawn in ((6000, [3000]), (5999, [3000, 3000])):
        monkeypatch.setattr(gammasample, "MAX_ENTRIES", budget)
        del draws[:]
        with shared_sample_batches():
            assert np.array_equal(reduce_masses(mu, cfg), reduce_masses(mu, cfg))
        assert draws == drawn


@pytest.mark.parametrize("call, error, message", [
    (lambda mu, cfg: mc_chaos_gram(mu, [1.0, 0.5], [0.2, 1.0], cfg, 9),
     SizeError, "N_wick must be in 0..8"),
    (lambda mu, cfg: multiple_integral_identity(mu, [], OmegaSample([1.0, 2.0])),
     ContractError, "need at least one indicator"),
    (lambda mu, cfg: multiple_integral_identity(mu, [[1.0, 0.0]] * 9,
                                                OmegaSample([1.0, 2.0])),
     SizeError, "at most 8 indicators supported"),
    (lambda mu, cfg: chaos_projection_stack(mu, [SymTensor(3, 1)], cfg),
     DimensionError, "kernel atom count mismatch"),
], ids=["gram_degree_over_cap", "no_indicator", "nine_indicators",
        "kernel_over_other_atoms"])
def test_estimators_refuse_bad_input_before_sampling(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call(AtomicMeasure([0.8, 1.3]), SamplerConfig(seed=1, n_samples=100))
    assert "\n" not in str(raised.value)
