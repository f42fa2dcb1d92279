import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import random_measure, random_tensor, rel_err
import gwn.fieldops
from gwn.errors import ContractError, DimensionError, DomainError, SizeError
from gwn.extfock import ext_inner
from gwn.fieldops import (annihilate1, annihilate2, create, gamma_field,
                          jacobi_action_check, jacobi_coefficients, neutral)
from gwn.funcalc import del_dagger
from gwn.measure import AtomicMeasure
from gwn.symtensor import (MAX_DEGREE, MAX_ENTRIES, FockVector, SymTensor, _degree, _start,
                           rank_one, sym_product)
from gwn.wickcalc import Basis, PolyFunctional


def _vec(rng, m, N):
    return FockVector([random_tensor(rng, m, d) for d in range(N + 1)])


def test_create_on_vacuum():
    xi = np.array([1.0, -2.0, 0.5])
    out = create(xi, FockVector.vacuum(3))
    assert out.degree == 1
    assert np.allclose(out.get(1).values, xi)
    assert out.get(0).max_abs() == 0.0


def test_neutral_rank_one(rng):
    phi = rng.normal(size=3)
    xi = rng.normal(size=3)
    n = 4
    out = neutral(xi, FockVector.single(rank_one(phi, n)))
    want = n * sym_product(rank_one(xi * phi, 1), rank_one(phi, n - 1))
    assert np.allclose(out.get(n).values, want.values, atol=1e-13)


def test_annihilate1_rank_one(rng):
    meas = random_measure(rng, 3)
    phi = rng.normal(size=3)
    xi = rng.normal(size=3)
    n = 3
    out = annihilate1(xi, FockVector.single(rank_one(phi, n)), meas)
    want = n * meas.l2_inner(xi, phi) * rank_one(phi, n - 1)
    assert np.allclose(out.get(n - 1).values, want.values, atol=1e-13)


def test_annihilate2_rank_one(rng):
    phi = rng.normal(size=3)
    xi = rng.normal(size=3)
    n = 4
    out = annihilate2(xi, FockVector.single(rank_one(phi, n)))
    want = n * (n - 1) * sym_product(rank_one(xi * phi * phi, 1), rank_one(phi, n - 2))
    assert np.allclose(out.get(n - 1).values, want.values, atol=1e-12)


def test_annihilate2_kills_low_degrees(rng):
    xi = rng.normal(size=2)
    v = FockVector([random_tensor(rng, 2, 0), random_tensor(rng, 2, 1)])
    assert annihilate2(xi, v).max_abs() == 0.0


def test_neutral_mixed_product_identity(rng):
    # a0(xi) (phi1 sym phi2^(n-1)) =
    #   (xi phi1) sym phi2^(n-1) + (n-1) phi1 sym (xi phi2) sym phi2^(n-2)
    phi1, phi2, xi = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    n = 4
    vec = FockVector.single(sym_product(rank_one(phi1, 1), rank_one(phi2, n - 1)))
    lhs = neutral(xi, vec).get(n)
    rhs = sym_product(rank_one(xi * phi1, 1), rank_one(phi2, n - 1)) \
        + (n - 1) * sym_product(sym_product(rank_one(phi1, 1), rank_one(xi * phi2, 1)),
                                rank_one(phi2, n - 2))
    assert np.allclose(lhs.values, rhs.values, atol=1e-12)


def test_annihilate2_mixed_product_identity(rng):
    # a2(xi) (phi1 sym phi2^n) = 2n (xi phi1 phi2) sym phi2^(n-1)
    #                            + n(n-1) phi1 sym (xi phi2^2) sym phi2^(n-2)
    phi1, phi2, xi = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    n = 3
    vec = FockVector.single(sym_product(rank_one(phi1, 1), rank_one(phi2, n)))
    lhs = annihilate2(xi, vec).get(n)
    rhs = 2 * n * sym_product(rank_one(xi * phi1 * phi2, 1), rank_one(phi2, n - 1)) \
        + n * (n - 1) * sym_product(sym_product(rank_one(phi1, 1),
                                                rank_one(xi * phi2 * phi2, 1)),
                                    rank_one(phi2, n - 2))
    assert np.allclose(lhs.values, rhs.values, atol=1e-12)


def test_creation_adjoint_is_sum_of_annihilations(rng):
    for _ in range(25):
        m = int(rng.integers(2, 5))
        N = int(rng.integers(1, 4))
        meas = random_measure(rng, m)
        xi = rng.normal(size=m)
        f = _vec(rng, m, N)
        g = _vec(rng, m, N + 1)
        lhs = ext_inner(meas, create(xi, f), g)
        rhs = ext_inner(meas, f, annihilate1(xi, g, meas) + annihilate2(xi, g))
        assert rel_err(lhs, rhs) <= 1e-11


def test_gamma_field_commutes(rng):
    for _ in range(10):
        m = int(rng.integers(2, 4))
        meas = random_measure(rng, m)
        xi1, xi2 = rng.normal(size=m), rng.normal(size=m)
        f = _vec(rng, m, 2)
        ab = gamma_field(xi1, gamma_field(xi2, f, meas), meas)
        ba = gamma_field(xi2, gamma_field(xi1, f, meas), meas)
        assert (ab - ba).max_abs() <= 1e-11 * max(1.0, ab.max_abs())


def test_creation_neutral_mixed_commutator(rng):
    # a+(xi1) a0(xi2) + a0(xi1) a+(xi2) is symmetric in (xi1, xi2)
    m = 3
    xi1, xi2 = rng.normal(size=m), rng.normal(size=m)
    f = _vec(rng, m, 3)
    lhs = create(xi1, neutral(xi2, f)) + neutral(xi1, create(xi2, f))
    rhs = create(xi2, neutral(xi1, f)) + neutral(xi2, create(xi1, f))
    assert (lhs - rhs).max_abs() <= 1e-12


def test_jacobi_coefficients_frozen():
    c = jacobi_coefficients(1.0, 4)
    assert c.alphas[1] == pytest.approx(1.0)
    assert c.alphas[2] == pytest.approx(2.0)
    assert c.betas[0] == pytest.approx(1.0)
    assert c.betas[3] == pytest.approx(7.0)
    assert c.norms[3] == pytest.approx(6.0)   # c_3^2 = 3! * 1*2*3 = 36
    c2 = jacobi_coefficients(0.5, 2)
    assert c2.norms[2] ** 2 == pytest.approx(2.0 * 0.5 * 1.5)


@pytest.mark.filterwarnings("error")
def test_jacobi_coefficients_domain():
    with pytest.raises(DomainError):
        jacobi_coefficients(0.0, 3)
    with pytest.raises(DomainError):
        jacobi_coefficients(-1.0, 3)
    for sigma in (math.nan, math.inf):
        with pytest.raises(DomainError):
            jacobi_coefficients(sigma, 3)
    with pytest.raises(DomainError):
        jacobi_coefficients(1.0, -1)
    # c_n^2 = n! rising(sigma, n) leaves the float range
    for sigma, N in ((1e300, 3), (1e154, 2), (1.0, 200)):
        with pytest.raises(DomainError):
            jacobi_coefficients(sigma, N)
    assert jacobi_coefficients(1e300, 1).norms[1] == pytest.approx(1e150)
    # the entry budget is checked before the N + 1 parameters are built
    with pytest.raises(SizeError):
        jacobi_coefficients(1.0, MAX_ENTRIES)


def test_creation_sums_each_entry_in_rep_order():
    # an entry of the raised vector sums the terms A[r] xi_a of the reps r
    # it is reached from in increasing order of r, as np.add.at over the
    # rep-major pairs adds them: the bytes, not only the value, so that no
    # report moves in its last digit
    rng = np.random.default_rng(11)
    m, N = 6, 4
    f, xi = _vec(rng, m, N), rng.normal(size=m)
    want = np.zeros(_start(m, N + 2))
    for n in range(N + 1):
        ranks = _start(m, n + 1) + oracles.insert_ranks(m, n)
        np.add.at(want, ranks.ravel(), (f.coeffs[_degree(m, n)][:, None] * xi).ravel())
    assert np.array_equal(create(xi, f).coeffs, want)


def test_raising_refuses_the_degree_past_its_tables_before_allocating():
    # creation and the Wick adjoint raise the degree by one: past MAX_DEGREE,
    # or onto a degree whose multiset table is past the entry budget, they
    # are refused by the tables they would read, before the output exists
    top = FockVector.single(SymTensor(1, MAX_DEGREE, np.ones(1)))
    cap = rf"degree {MAX_DEGREE + 1} outside supported range 0\.\.{MAX_DEGREE}"
    with pytest.raises(SizeError, match=cap):
        create(np.ones(1), top)
    with pytest.raises(SizeError, match=cap):
        del_dagger(PolyFunctional(Basis.GAMMA_WICK, top), 0, AtomicMeasure(np.ones(1)))
    # 40 atoms, degree 5: the degree-6 table holds C(45, 6) reps of 9 entries
    m, n = 40, 5
    f = FockVector._from_coeffs(m, n, np.zeros(_start(m, n + 1)))
    tracemalloc.start()
    try:
        with pytest.raises(SizeError, match=rf"multiset table \(m={m}, n={n + 1}\) needs "
                                            rf"{math.comb(n + m, n + 1) * (n + 4)} entries"):
            create(np.ones(m), f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _start(m, n + 2)    # the degree-0..6 output, 75 MB


def test_norm_ratio_is_alpha(rng):
    c = jacobi_coefficients(2.5, 6)
    for n in range(1, 7):
        assert c.norms[n] / c.norms[n - 1] == pytest.approx(c.alphas[n])


def test_jacobi_action_single_atom():
    meas = AtomicMeasure([1.0])
    rep = jacobi_action_check(meas, [1.0], 4)
    assert rep.sigma == pytest.approx(1.0)
    assert rep.max_action_dev <= 1e-12
    assert rep.max_norm_dev <= 1e-12


def test_jacobi_action_subset_indicator(rng):
    meas = AtomicMeasure([0.7, 1.1, 0.4])
    chi = meas.indicator([0, 2])
    rep = jacobi_action_check(meas, chi, 4)
    assert rep.sigma == pytest.approx(1.1)
    assert rep.max_action_dev <= 1e-11
    assert rep.max_norm_dev <= 1e-11


def test_jacobi_action_builds_each_power_once(monkeypatch):
    # chi^(x)n for n = 0..N+1, each used for the action and for its norm
    built = []

    def counted(f, degree):
        built.append(degree)
        return rank_one(f, degree)

    monkeypatch.setattr(gwn.fieldops, "rank_one", counted)
    meas = AtomicMeasure([0.7, 1.1, 0.4])
    rep = jacobi_action_check(meas, meas.indicator([0, 2]), 4)
    assert rep.max_action_dev <= 1e-11 and rep.max_norm_dev <= 1e-11
    assert sorted(built) == list(range(6))


def test_jacobi_action_check_sees_wrong_coefficients(monkeypatch):
    # the right-hand side reads _three_term and gamma_field does not, so a
    # parameter table off by a relative 1e-6 must show in the deviation
    three_term = gwn.fieldops._three_term

    def off(w, N):
        alpha_sq, betas = three_term(w, N)
        return alpha_sq * (1.0 + 1e-6) ** 2, betas

    monkeypatch.setattr(gwn.fieldops, "_three_term", off)
    meas = AtomicMeasure([0.7, 1.1, 0.4])
    assert jacobi_action_check(meas, meas.indicator([0, 2]), 4).max_action_dev > 1e-10


def test_jacobi_action_rejects_non_indicator():
    meas = AtomicMeasure([1.0, 1.0])
    with pytest.raises(ContractError):
        jacobi_action_check(meas, [0.5, 1.0], 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: create([1.0, 2.0], FockVector.vacuum(3)),
     DimensionError, "direction must be a length-3 test function"),
    (lambda: annihilate1([1.0, 1.0], FockVector.vacuum(2), AtomicMeasure([1.0])),
     DimensionError, "measure and vector atom counts differ"),
    (lambda: jacobi_action_check(AtomicMeasure([1.0, 2.0]), [0.0, 0.0], 2),
     DomainError, "indicator must have positive mass"),
], ids=["direction_length", "annihilate1_other_measure", "zero_indicator"])
def test_fieldops_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert "\n" not in str(raised.value)
