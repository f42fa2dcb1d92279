"""Field operators on finite Fock vectors.

The Gamma field a(xi) splits into five parts acting on symmetric kernels:

* creation:          f^(n) -> xi sym-tensor f^(n)                  (degree +1)
* neutral (doubled): f^(n) -> n * Sym[xi(x_1) f^(n)]               (degree 0)
* constant:          f^(n) -> Integral(xi) * f^(n)
* annihilation-1:    f^(n) -> n * Integral(xi(y) f^(n)(y, .) dsigma)  (degree -1)
* annihilation-2:    f^(n) -> n(n-1) * Sym[xi(x) f^(n)(x, x, .)]      (degree -1)

On multiset storage creation is a symmetrized product with the degree-1
kernel xi, and both annihilations read f^(n) through the one-atom merge
table of ``symtensor``: entry (s, y) is the rank of s with atom y added.
Annihilation-1 contracts that axis against w * xi; annihilation-2 takes
y from s itself, n * sum_p xi(s_p) f^(n)(s with s_p duplicated).

On indicator powers chi^(x)n the field acts by a three-term recurrence whose
coefficients are the Jacobi parameters of the orthonormal Laguerre system
with shape sigma = Integral(chi); the norms c_n of the indicator powers obey
c_n^2 = n! * sigma(sigma+1)...(sigma+n-1).  ``_three_term`` is the one
source of these parameters for every one-atom table, here and in ``wickcalc``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, DomainError
from .extfock import ext_inner_n
from .measure import AtomicMeasure
from .symtensor import (FockVector, SymTensor, _check_entries, _merge_ranks,
                        multiply_pointwise_first_slot, rank_one, sym_product)

_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


def _check_xi(xi, m: int) -> np.ndarray:
    xi = np.asarray(xi)
    if xi.shape != (m,):
        raise DimensionError(f"direction must be a length-{m} test function")
    return xi


def create(xi, f: FockVector) -> FockVector:
    """Creation operator: each kernel gains one symmetrized xi slot."""
    xi = _check_xi(xi, f.m)
    xi1 = rank_one(xi, 1)
    out = FockVector.zeros(f.m, f.degree + 1)
    for n in range(f.degree + 1):
        out.kernels[n + 1] = sym_product(xi1, f.get(n))
    return out


def neutral(xi, f: FockVector) -> FockVector:
    """Neutral operator: multiply one slot by xi pointwise, weight n."""
    xi = _check_xi(xi, f.m)
    out = FockVector.zeros(f.m, f.degree)
    for n in range(1, f.degree + 1):
        out.kernels[n] = n * multiply_pointwise_first_slot(f.get(n), xi)
    return out


def annihilate1(xi, f: FockVector, measure: AtomicMeasure) -> FockVector:
    """First annihilation: contract one slot against xi under the measure."""
    xi = _check_xi(xi, f.m)
    if measure.m != f.m:
        raise DimensionError("measure and vector atom counts differ")
    out = FockVector.zeros(f.m, max(f.degree - 1, 0))
    wxi = measure.weights * xi
    for n in range(1, f.degree + 1):
        tab = _merge_ranks(f.m, n - 1, 1)        # (R_{n-1}, m)
        vals = n * (f.get(n).values[tab] @ wxi)
        out.kernels[n - 1] = out.get(n - 1) + SymTensor(f.m, n - 1, vals)
    return out


def annihilate2(xi, f: FockVector) -> FockVector:
    """Second annihilation: identify two slots, multiply by xi there,
    re-symmetrize; weight n(n-1).

    On multiset storage the degree-(n-1) result at s is
    n * sum_p xi(s_p) f^(n)(s with s_p duplicated).
    """
    xi = _check_xi(xi, f.m)
    out = FockVector.zeros(f.m, max(f.degree - 1, 0))
    for n in range(2, f.degree + 1):
        tab = _merge_ranks(f.m, n - 1, 1)
        reps = out.get(n - 1).reps               # (R_{n-1}, n-1)
        dup = np.take_along_axis(tab, reps, axis=1)
        vals = n * np.sum(xi[reps] * f.get(n).values[dup], axis=1)
        out.kernels[n - 1] = out.get(n - 1) + SymTensor(f.m, n - 1, vals)
    return out


def gamma_field(xi, f: FockVector, measure: AtomicMeasure) -> FockVector:
    """The Gamma field: creation + 2*neutral + Integral(xi) + both annihilations."""
    xi = _check_xi(xi, f.m)
    const = measure.integrate(xi)
    return (create(xi, f) + 2.0 * neutral(xi, f) + const * f
            + annihilate1(xi, f, measure) + annihilate2(xi, f))


@dataclass(frozen=True)
class JacobiCoefficients:
    """Three-term coefficients and norms for indicator powers of mass sigma.

    alphas[n] = sqrt(n (n-1+sigma)) (off-diagonal), betas[n] = 2n + sigma
    (diagonal), norms[n] = c_n with c_n^2 = n! * rising(sigma, n).
    """

    sigma: float
    alphas: np.ndarray
    betas: np.ndarray
    norms: np.ndarray


def _three_term(w, N: int) -> tuple[np.ndarray, np.ndarray]:
    """alpha_k^2 = k (k-1+w) and beta_k = 2k + w for k = 0..N (last axis),
    over a weight w or an array of weights; unchecked."""
    k = np.arange(N + 1, dtype=float)
    w = np.asarray(w, dtype=float)[..., None]
    with np.errstate(over="ignore"):
        return k * (k - 1.0 + w), 2.0 * k + w


def _checked_three_term(sigma: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """_three_term(sigma, N) for a finite sigma > 0 and an N >= 0 within
    the entry budget whose alpha_N does not overflow."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise DomainError("sigma must be finite and > 0")
    if N < 0:
        raise DomainError("N must be >= 0")
    _check_entries(N + 1, f"three-term coefficients (N={N})")
    alpha_sq, betas = _three_term(sigma, N)
    if not np.all(np.isfinite(alpha_sq)):
        raise DomainError(f"sigma={sigma!r}, N={N}: alpha_N overflows")
    return alpha_sq, betas


def jacobi_coefficients(sigma: float, N: int) -> JacobiCoefficients:
    """Coefficients and norms for degrees 0..N.

    Rejects a (sigma, N) whose squared norm c_n^2 = n! rising(sigma, n)
    leaves the float range: that square is what the extended inner product
    of chi^(x)n returns, so past it neither side of the norm check is finite.
    """
    alpha_sq, betas = _checked_three_term(sigma, N)
    alphas = np.sqrt(alpha_sq)
    with np.errstate(over="ignore"):
        norms = np.cumprod(np.concatenate(([1.0], alphas[1:])))
    if not np.max(norms) <= _SQRT_FLOAT_MAX:
        raise DomainError(f"sigma={sigma!r}, N={N}: the squared norm "
                          f"c_n^2 = n! rising(sigma, n) overflows")
    return JacobiCoefficients(float(sigma), alphas, betas, norms)


@dataclass(frozen=True)
class JacobiActionReport:
    """Deviations of the Gamma field from the three-term action on
    indicator powers, plus norm deviations against the closed form."""

    sigma: float
    action_devs: list[float]      # per degree n: sup-norm kernel deviation
    norm_devs: list[float]        # per degree n: relative norm deviation

    @property
    def max_action_dev(self) -> float:
        return max(self.action_devs)

    @property
    def max_norm_dev(self) -> float:
        return max(self.norm_devs)


def jacobi_action_check(measure: AtomicMeasure, chi, N: int) -> JacobiActionReport:
    """Compare a(chi) chi^(x)n with the three-term expansion for n <= N.

    chi must be a 0/1 indicator.  Also compares the extended-norm of
    chi^(x)n with the closed-form c_n.
    """
    chi = np.asarray(chi, dtype=float)
    measure.check_function(chi)
    if not np.all((chi == 0.0) | (chi == 1.0)):
        raise ContractError("chi must be a 0/1 indicator function")
    sigma = measure.integrate(chi)
    if sigma <= 0:
        raise DomainError("indicator must have positive mass")
    coeff = jacobi_coefficients(sigma, N + 1)
    alpha_sq, betas = _three_term(sigma, N)
    action_devs, norm_devs = [], []
    powers = [FockVector.single(rank_one(chi, n)) for n in range(N + 2)]
    for n in range(N + 1):
        lhs = gamma_field(chi, powers[n], measure)
        rhs = powers[n + 1] + betas[n] * powers[n].pad_to(n + 1)
        if n >= 1:
            rhs = rhs + alpha_sq[n] * powers[n - 1].pad_to(n + 1)
        action_devs.append((lhs - rhs).max_abs())
        sq = math.factorial(n) * ext_inner_n(measure, rank_one(chi, n), rank_one(chi, n))
        c_ext = math.sqrt(max(sq, 0.0))
        c_closed = coeff.norms[n]
        norm_devs.append(abs(c_ext - c_closed) / max(1.0, c_closed))
    return JacobiActionReport(sigma, action_devs, norm_devs)
