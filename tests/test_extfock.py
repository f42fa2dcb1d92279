import math
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from conftest import random_measure, random_tensor, rel_err
from gwn.errors import ContractError, DimensionError, SizeError
from gwn.extfock import (LoopPartition, ext_inner, ext_inner_n, fock_inner,
                         fock_inner_n, is_off_diagonal, iter_loop_partitions,
                         loop_census, loop_partitions)
from gwn.measure import AtomicMeasure
from gwn.symtensor import FockVector, SymTensor, rank_one
from gwn.wickcalc import OmegaSample, wick_kernels, wick_pair_rank_one
from oracles import (dense_from_symtensor, ext_inner_n_perm, fock_inner_n_dense,
                     fock_inner_n_exact)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


def test_partition_counts_are_bell_numbers():
    for n, bell in BELL.items():
        assert len(loop_partitions(n)) == bell


def test_census_equals_factorial_small():
    for n in range(1, 7):
        assert loop_census(n) == math.factorial(n)


def test_partition_multiplicities_n3():
    parts = {p.blocks: p.multiplicity for p in loop_partitions(3)}
    assert parts[((0,), (1,), (2,))] == 1
    assert parts[((0, 1), (2,))] == 1
    assert parts[((0, 1, 2),)] == 2  # two cyclic orders of a 3-block
    assert sum(parts.values()) == 6


def test_partition_order_cap():
    with pytest.raises(SizeError):
        list(iter_loop_partitions(11))
    with pytest.raises(SizeError):
        list(iter_loop_partitions(0))


def test_ext_inner_frozen_single_atom():
    # One atom of mass 2, f = g = indicator^(x)2:
    # singleton partition gives 4, the 2-loop gives 2, total 6.
    meas = AtomicMeasure([2.0])
    f = rank_one(np.array([1.0]), 2)
    assert ext_inner_n(meas, f, f) == pytest.approx(6.0, rel=1e-14)
    assert fock_inner_n(meas, f, f) == pytest.approx(4.0, rel=1e-14)


def test_ext_inner_rising_factorial():
    # <chi^n, chi^n>_ext on a single atom of mass s is s(s+1)...(s+n-1).
    for s in (0.5, 1.0, 2.0):
        meas = AtomicMeasure([s])
        for n in range(1, 6):
            f = rank_one(np.array([1.0]), n)
            target = math.prod(s + k for k in range(n))
            assert ext_inner_n(meas, f, f) == pytest.approx(target, rel=1e-13)


def test_ext_inner_matches_permutation_oracle(rng):
    for n in range(1, 5):
        meas = random_measure(rng, 3)
        f = random_tensor(rng, 3, n)
        g = random_tensor(rng, 3, n)
        got = ext_inner_n(meas, f, g)
        want = ext_inner_n_perm(meas.weights, dense_from_symtensor(f),
                                dense_from_symtensor(g))
        assert rel_err(got, want) <= 1e-12


def test_fock_inner_matches_dense(rng):
    meas = random_measure(rng, 4)
    f = random_tensor(rng, 4, 3)
    g = random_tensor(rng, 4, 3)
    want = fock_inner_n_dense(meas.weights, dense_from_symtensor(f),
                              dense_from_symtensor(g))
    assert rel_err(fock_inner_n(meas, f, g), want) <= 1e-13


def test_ext_inner_positive_definite(rng):
    for _ in range(50):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        meas = random_measure(rng, m)
        f = random_tensor(rng, m, n)
        assert ext_inner_n(meas, f, f) >= -1e-12


def test_ext_inner_conjugate_symmetric(rng):
    meas = random_measure(rng, 3)
    f = random_tensor(rng, 3, 3)
    g = random_tensor(rng, 3, 3)
    assert ext_inner_n(meas, f, g) == pytest.approx(ext_inner_n(meas, g, f), rel=1e-12)


def test_off_diagonal_embedding_is_isometric(rng):
    # Kernels vanishing on diagonals: ext and plain Fock inner products agree.
    m, n = 4, 3
    meas = random_measure(rng, m)
    for _ in range(10):
        f = random_tensor(rng, m, n)
        g = random_tensor(rng, m, n)
        for t in (f, g):
            reps = t.reps
            repeat = np.any(reps[:, 1:] == reps[:, :-1], axis=1)
            t.values = np.where(repeat, 0.0, t.values)
        assert is_off_diagonal(f) and is_off_diagonal(g)
        assert rel_err(ext_inner_n(meas, f, g), fock_inner_n(meas, f, g)) <= 1e-13


@pytest.mark.parametrize("m,n", [(1, 0), (1, 3), (3, 1), (3, 4), (5, 3)])
def test_is_off_diagonal_matches_counted_repeats(m, n):
    # one unit entry at a time: off-diagonal exactly when no atom repeats
    for r, rep in enumerate(combinations_with_replacement(range(m), n)):
        t = SymTensor(m, n)
        t.values[r] = 1.0
        assert is_off_diagonal(t) == (max(Counter(rep).values(), default=1) == 1)


def test_is_off_diagonal_tolerance():
    t = SymTensor.from_index_map(2, 2, {"0 0": 1e-13, "0 1": 5.0})
    assert is_off_diagonal(t)
    assert not is_off_diagonal(t, tol=1e-14)
    assert is_off_diagonal(SymTensor(3, 1))


def test_degree_mismatch_raises(rng):
    meas = random_measure(rng, 3)
    with pytest.raises(ContractError):
        ext_inner_n(meas, random_tensor(rng, 3, 2), random_tensor(rng, 3, 3))


def test_full_ext_inner_weights_degrees(rng):
    meas = random_measure(rng, 2)
    f = FockVector([random_tensor(rng, 2, d) for d in range(4)])
    g = FockVector([random_tensor(rng, 2, d) for d in range(4)])
    want = sum(math.factorial(n) * ext_inner_n(meas, f.get(n), g.get(n))
               for n in range(4))
    assert ext_inner(meas, f, g) == pytest.approx(want, rel=1e-13)
    want_fock = sum(math.factorial(n) * fock_inner_n(meas, f.get(n), g.get(n))
                    for n in range(4))
    assert fock_inner(meas, f, g) == pytest.approx(want_fock, rel=1e-13)


def test_census_runtime_through_order_ten():
    # CPU time of this process: a loaded machine stretches the wall
    # clock, not the work the census does
    start = time.process_time()
    for n in range(1, 11):
        assert loop_census(n) == math.factorial(n)
    assert time.process_time() - start < 1.0


# The wick_rank_one inputs of one identities_scale benchmark op
# (bench/run.py --workload identities_scale --seed 505, op seed
# 3309647863): 16 atoms, degree 7.  The terms of the degree-7 sum add up
# to 4.9e6 in absolute value against a sum of 1.19, and one BLAS dot of
# them was off by 1.1e-10 relative, past the 1e-10 of the identity check.
SEED_505_WEIGHTS = [
    0.924400902067421, 1.533680609177457, 1.4925541400543483, 0.9980239619604327,
    1.6251082501177188, 1.5486876630370319, 0.6088866340901851, 1.4192697520317963,
    0.5123181708217226, 1.4706078363064938, 1.3412422863647988, 1.4519469239336766,
    1.852078206497287, 1.7639519051781023, 1.674158702380684, 1.658103509664319]
SEED_505_MASSES = [
    0.19845825069660555, 0.05684068711097697, 2.3250008296519944, 0.18891441521386781,
    1.9437449698930618, 0.6173455808169004, 1.830209017105545, 2.245366682529625,
    0.3674818976306425, 2.0738117760258983, 0.4601269326350731, 2.2894727521785323,
    0.585639409587858, 1.8907880273239994, 1.907028644829674, 2.119911726297095]
SEED_505_XI = [
    -0.2374430374968588, 0.9685012816553944, 0.6939896185065548, -0.9886898163249629,
    -0.10662982513933894, -0.292959592332088, 0.33824909355449706, 0.22368777092967806,
    0.17773102760020043, 0.9925772815113427, -0.6455001323559804, -0.09754138468712092,
    0.7071474630770722, 0.19666438866045954, -0.6606713567168976, 0.6405734311589377]


def test_fock_inner_n_sums_pairwise_at_the_seed_505_inputs():
    # pairwise summation reads 3.7e-12 from the exact value of the same
    # float kernels, and the identity check passes again
    mu, omega = AtomicMeasure(np.array(SEED_505_WEIGHTS)), OmegaSample(np.array(SEED_505_MASSES))
    xi = np.array(SEED_505_XI)
    kernel, power = wick_kernels(omega, mu, 7)[7], rank_one(xi, 7)
    got = fock_inner_n(mu, kernel, power)
    exact = fock_inner_n_exact(mu, kernel, power)
    assert abs(Fraction(got) - exact) <= Fraction(1, 10**11) * abs(exact)
    scalar = wick_pair_rank_one(omega, xi, mu, 7)[7]
    assert abs(got - scalar) <= 1e-10 * max(1.0, abs(got), abs(scalar))


@pytest.mark.parametrize("call, message", [
    (lambda mu: ext_inner_n(mu, SymTensor(3, 2), SymTensor(3, 2)),
     "kernels and measure must share the atom set"),
    (lambda mu: fock_inner_n(mu, SymTensor(2, 2), SymTensor(3, 2)),
     "kernels and measure must share the atom set"),
    (lambda mu: ext_inner(mu, FockVector.vacuum(2), FockVector.vacuum(3)),
     "vectors and measure must share the atom set"),
], ids=["ext_inner_n_other_atoms", "fock_inner_n_mixed_atoms",
        "ext_inner_other_atoms"])
def test_inner_products_refuse_other_atom_sets(call, message):
    with pytest.raises(DimensionError, match=message) as raised:
        call(AtomicMeasure([1.0, 2.0]))
    assert "\n" not in str(raised.value)
