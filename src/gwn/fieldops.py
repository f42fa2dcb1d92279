"""Field operators on finite Fock vectors.

A Fock vector is the polynomial F(s) = sum_k A[k] s^k in the atom
variables, A its stored coefficients (``symtensor``).  The Gamma field a(xi)
is sum_a xi_a (s_a (1 + d_a) + w_a)(1 + d_a), d_a = d/ds_a: five parts,
each built from raise (s_a), number (s_a d_a) and lower (d_a) steps per atom:

* creation:          F -> sum_a xi_a s_a F            (degree +1)
* neutral (doubled): F -> sum_a xi_a s_a d_a F        (degree 0)
* constant:          F -> sum_a xi_a w_a F = Integral(xi) F
* annihilation-1:    F -> sum_a xi_a w_a d_a F        (degree -1)
* annihilation-2:    F -> sum_a xi_a s_a d_a^2 F      (degree -1)

Both slot steps read the one-atom merge table, which maps a degree-n rep
r and an atom a to the rank of r with a added.  Creation is the raising
kernel ``_raise``, the dual of the lowering kernel ``_lower``: it adds
A[r] xi_a onto merge(r, a) for every atom a (the Wick adjoint
``funcalc.del_dagger`` onto one atom's column), while ``_lower`` reads A
at merge(r, a) times k_a(r) + 1.  Annihilation-1 lowers over every atom
with weights w xi, annihilation-2 over the slots of r with xi there, and
the slot derivatives of ``funcalc`` read one atom's column.  Neutral
scales A[r] by sum_p xi(r_p).

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
from .symtensor import (FockVector, _check_entries, _degree, _merge_ranks,
                        _start, _tables, rank_one)

_SQRT_FLOAT_MAX = math.sqrt(sys.float_info.max)


def _check_xi(xi, m: int) -> np.ndarray:
    xi = np.asarray(xi)
    if xi.shape != (m,):
        raise DimensionError(f"direction must be a length-{m} test function")
    return xi


def create(xi, f: FockVector) -> FockVector:
    """Creation operator: each kernel gains one symmetrized xi slot."""
    return _raise(f, _check_xi(xi, f.m))


def neutral(xi, f: FockVector) -> FockVector:
    """Neutral operator n Sym[xi(x_1) f(x_1, ...)]: each entry A[r] times
    sum_p xi(r_p)."""
    xi = _check_xi(xi, f.m)
    return FockVector._from_coeffs(f.m, f.degree, f.coeffs * np.concatenate(
        [np.sum(xi[_tables(f.m, n).reps], axis=1) for n in range(f.degree + 1)]))


def _lower(f: FockVector, c: np.ndarray, atoms=None) -> FockVector:
    """The one lowering kernel, degreewise A_{n-1}[r] = sum_j c[a_j]
    (k_{a_j}(r) + 1) A_n[merge(r, a_j)] over the one-atom merge table, the
    atoms a_j the list ``atoms`` for every r, or the slots of r when it is
    None; k_a(r) + 1 = n perm_count(r) / perm_count(merge(r, a))."""
    out = np.zeros(_start(f.m, max(f.degree, 1)), np.result_type(f.coeffs, c))
    for n in range(1, f.degree + 1):
        low = _tables(f.m, n - 1)
        a = low.reps if atoms is None else np.reshape(atoms, (1, -1))
        cols = np.take_along_axis(_merge_ranks(f.m, n - 1, 1), a, axis=1)
        g = c[a] * f.coeffs[_degree(f.m, n)][cols]
        g *= (n * low.perm_counts)[:, None] // _tables(f.m, n).perm_counts[cols]
        out[_degree(f.m, n - 1)] = np.sum(g, axis=1)
    return FockVector._from_coeffs(f.m, max(f.degree - 1, 0), out)


def _raise(f: FockVector, c: np.ndarray, atoms=None) -> FockVector:
    """The one raising kernel, the dual of ``_lower``: degreewise
    A_{n+1}[merge(r, a)] += A_n[r] c[a] over the one-atom merge table for
    the atoms a of the list ``atoms`` (every atom when it is None), the
    product of the polynomial with sum_a c[a] s_a."""
    a = slice(None) if atoms is None else np.asarray(atoms)
    ranks = [_merge_ranks(f.m, n, 1)[:, a] for n in range(f.degree + 1)]   # tables refuse first
    out = np.zeros(_start(f.m, f.degree + 2), np.result_type(f.coeffs, c))
    for n, r in enumerate(ranks):
        # np.add.at, not bincount, so that complex coefficients take one pass
        np.add.at(out[_degree(f.m, n + 1)], r.ravel(),
                  (f.coeffs[_degree(f.m, n)][:, None] * c[a]).ravel())
    return FockVector._from_coeffs(f.m, f.degree + 1, out)


def annihilate1(xi, f: FockVector, measure: AtomicMeasure) -> FockVector:
    """First annihilation n Integral(xi(y) f(y, .) dsigma): every atom,
    weighted by w xi."""
    xi = _check_xi(xi, f.m)
    if measure.m != f.m:
        raise DimensionError("measure and vector atom counts differ")
    return _lower(f, measure.weights * xi, np.arange(f.m))


def annihilate2(xi, f: FockVector) -> FockVector:
    """Second annihilation n(n-1) Sym[xi(x) f(x, x, .)]: the slots of each
    degree-(n-1) entry, weighted by xi there (none at degree 0)."""
    return _lower(f, _check_xi(xi, f.m))


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
    chi = measure.real_function(chi)
    if not np.all((chi == 0.0) | (chi == 1.0)):
        raise ContractError("chi must be a 0/1 indicator function")
    sigma = measure.integrate(chi)
    if sigma <= 0:
        raise DomainError("indicator must have positive mass")
    coeff = jacobi_coefficients(sigma, N + 1)
    alpha_sq, betas = _three_term(sigma, N)
    action_devs, norm_devs = [], []
    tensors = [rank_one(chi, n) for n in range(N + 2)]
    powers = [FockVector.single(t) for t in tensors]
    for n in range(N + 1):
        lhs = gamma_field(chi, powers[n], measure)
        rhs = powers[n + 1] + betas[n] * powers[n]
        if n >= 1:
            rhs = rhs + alpha_sq[n] * powers[n - 1]
        action_devs.append((lhs - rhs).max_abs())
        sq = math.factorial(n) * ext_inner_n(measure, tensors[n], tensors[n])
        c_ext = math.sqrt(max(sq, 0.0))
        c_closed = coeff.norms[n]
        norm_devs.append(abs(c_ext - c_closed) / max(1.0, c_closed))
    return JacobiActionReport(sigma, action_devs, norm_devs)
