import math

import numpy as np
import pytest

from conftest import random_measure, random_tensor, rel_err
from gwn.errors import ContractError, DomainError
from gwn.extfock import ext_inner
from gwn.fieldops import (annihilate1, annihilate2, create, gamma_field,
                          jacobi_action_check, jacobi_coefficients, neutral)
from gwn.measure import AtomicMeasure
from gwn.symtensor import FockVector, rank_one, sym_product


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


def test_jacobi_action_rejects_non_indicator():
    meas = AtomicMeasure([1.0, 1.0])
    with pytest.raises(ContractError):
        jacobi_action_check(meas, [0.5, 1.0], 3)
