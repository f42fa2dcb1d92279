"""Gamma-Wick powers and the polynomial calculus built on them.

A random configuration omega = sum_i s_i d_{x_i} (masses s_i >= 0 on the
atoms) has Wick powers :omega^n: defined by :omega^0: = 1, :omega^1: =
omega - 1 and a five-term recurrence that subtracts the diagonal and
drift contributions from omega (x) :omega^n:.  Stored as densities with
respect to the product measure, the recurrence reads

    K_{n+1} = Sym[K_n (x) K_1]
              - n Sym[K_{n-1} (x) pair-density]
              - n(n-1) Sym[K_{n-1} with two tied slots]
              - 2n Sym[K_n with one tied slot]

where the pair density is [i == j]/w_j and "tied" slots carry point-mass
densities identifying new slots with an existing one.

Two independent routes to the same numbers are kept deliberately:

* the kernel recurrence above (primary), and
* a scalar path for rank-one pairings: on a single atom the recurrence
  closes to q_{k+1} = (s - 2k - w) q_k - k(k-1+w) q_{k-1}, and the Wick
  exponential factorizes over atoms, so general q_n(omega, xi) is the
  coefficient convolution of per-atom sequences.

Polynomial functionals carry their kernels in either the monomial basis
(<omega^(x)n, f>) or the Gamma-Wick basis (<:omega^n:, f>); conversion both
ways expands over loop partitions with one free or integrated slot per
block.  The S-transform reads Gamma-Wick kernels against powers of a test
function; products of functionals multiply their S-transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError, DimensionError, DomainError, SizeError
from .extfock import fock_inner_n, loop_partitions
from .fieldops import jacobi_coefficients
from .measure import AtomicMeasure
from .symtensor import (FockVector, SymTensor, append_tied_slots,
                        diagonal_restrict, rank_one, sym_product)

WICK_MAX_DEGREE = 8


class Basis(str, Enum):
    MONOMIAL = "monomial"
    GAMMA_WICK = "gamma_wick"


@dataclass(frozen=True)
class OmegaSample:
    """A point configuration: nonnegative masses on the atoms."""

    masses: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.masses, dtype=float).copy()
        if s.ndim != 1 or s.size == 0:
            raise DimensionError("masses must be a non-empty 1-d array")
        if not np.all(np.isfinite(s)) or np.any(s < 0.0):
            raise DomainError("masses must be finite and >= 0")
        s.setflags(write=False)
        object.__setattr__(self, "masses", s)

    @property
    def m(self) -> int:
        return self.masses.size

    def pair(self, f) -> float:
        """<omega, f> = sum_i s_i f_i (direction convention)."""
        f = np.asarray(f)
        if f.shape != (self.m,):
            raise DimensionError("test function length mismatch")
        return float(self.masses @ f)

    def shifted(self, atom: int, s: float) -> "OmegaSample":
        """New sample with mass s added at one atom."""
        masses = self.masses.copy()
        masses[atom] += s
        return OmegaSample(masses)

    def without_atom(self, atom: int) -> "OmegaSample":
        """New sample with the mass at one atom removed."""
        masses = self.masses.copy()
        masses[atom] = 0.0
        return OmegaSample(masses)


def _pair_density(measure: AtomicMeasure) -> SymTensor:
    """Degree-2 density of the diagonal point-mass pairing: [i == j]/w_j."""
    t = SymTensor(measure.m, 2)
    vals = t.values.copy()
    reps = t.reps
    diag = reps[:, 0] == reps[:, 1]
    vals[diag] = 1.0 / measure.weights[reps[diag, 0]]
    return SymTensor(measure.m, 2, vals)


def _check_sample(omega: OmegaSample, measure: AtomicMeasure) -> None:
    if omega.m != measure.m:
        raise DimensionError("sample and measure atom counts differ")


def wick_kernels(omega: OmegaSample, measure: AtomicMeasure, N: int) -> list[SymTensor]:
    """Densities of :omega^n: for n = 0..N (five-term recurrence)."""
    _check_sample(omega, measure)
    if not 0 <= N <= WICK_MAX_DEGREE:
        raise SizeError(f"Wick degree must be in 0..{WICK_MAX_DEGREE}")
    m = measure.m
    out = [SymTensor(m, 0, np.ones(1))]
    if N == 0:
        return out
    k1 = SymTensor(m, 1, omega.masses / measure.weights - 1.0)
    out.append(k1)
    pair = _pair_density(measure)
    for n in range(1, N):
        nxt = sym_product(out[n], k1) \
            - n * sym_product(out[n - 1], pair) \
            - 2.0 * n * append_tied_slots(out[n], 1, measure)
        if n >= 2:
            nxt = nxt - n * (n - 1.0) * append_tied_slots(out[n - 1], 2, measure)
        out.append(nxt)
    return out


def wick_kernel(omega: OmegaSample, measure: AtomicMeasure, n: int) -> SymTensor:
    """Density of :omega^n: with respect to the n-fold product measure."""
    return wick_kernels(omega, measure, n)[n]


def _single_atom_q(s: np.ndarray, w: float, N: int) -> np.ndarray:
    """Scalar Wick powers q_0..q_N of one-atom configurations with masses s
    (one row per mass): three-term recurrence."""
    q = np.empty((s.size, N + 1))
    q[:, 0] = 1.0
    if N >= 1:
        q[:, 1] = s - w
    for k in range(1, N):
        q[:, k + 1] = (s - 2.0 * k - w) * q[:, k] - k * (k - 1.0 + w) * q[:, k - 1]
    return q


def wick_pair_rank_one(omega: OmegaSample, xi, measure: AtomicMeasure,
                       N: int) -> np.ndarray:
    """q_n = <:omega^n:, xi^(x)n> for n = 0..N by the scalar route.

    Per-atom three-term recurrences are combined by truncated series
    convolution (the Wick exponential factorizes over atoms).  This path
    never touches the kernel recurrence, so the two can cross-check.
    """
    _check_sample(omega, measure)
    return wick_pair_rank_one_batch(omega.masses[None, :], xi, measure, N)[0]


def wick_pair_rank_one_batch(masses: np.ndarray, xi, measure: AtomicMeasure,
                             N: int) -> np.ndarray:
    """wick_pair_rank_one for every row of a (B, m) mass matrix."""
    S = np.asarray(masses, dtype=float)
    if S.ndim != 2 or S.shape[1] != measure.m:
        raise DimensionError("mass matrix must have one column per atom")
    xi = measure.check_function(np.asarray(xi, dtype=float))
    fact = np.array([math.factorial(k) for k in range(N + 1)], dtype=float)
    inv_fact = 1.0 / fact
    poly = np.zeros((S.shape[0], N + 1))
    poly[:, 0] = 1.0
    for i in range(measure.m):
        qa = _single_atom_q(S[:, i], measure.weights[i], N)
        ca = (xi[i] ** np.arange(N + 1)) * qa * inv_fact
        new = np.zeros_like(poly)
        for d in range(N + 1):
            new[:, d] = np.einsum("bj,bj->b", poly[:, : d + 1], ca[:, d::-1])
        poly = new
    return poly * fact


@dataclass
class PolyFunctional:
    """A polynomial functional of omega, given by kernels in one basis.

    monomial basis:   phi(omega) = sum_n <omega^(x)n, f^(n)>
    Gamma-Wick basis: phi(omega) = sum_n <:omega^n:, f^(n)>
    """

    basis: Basis
    kernels: FockVector

    @property
    def m(self) -> int:
        return self.kernels.m

    @property
    def degree(self) -> int:
        return self.kernels.degree

    def evaluate(self, omega: OmegaSample, measure: AtomicMeasure) -> float:
        """Value at one configuration.

        The Gamma-Wick path pairs each kernel against the Wick density of
        omega under the product measure weights."""
        _check_sample(omega, measure)
        if self.m != measure.m:
            raise DimensionError("functional and measure atom counts differ")
        total = 0.0
        if self.basis is Basis.MONOMIAL:
            for n in range(self.degree + 1):
                f = self.kernels.get(n)
                sprod = np.prod(omega.masses[f.reps], axis=1) if n else np.ones(1)
                total += float((f.perm_counts * sprod) @ f.values)
            return total
        ks = wick_kernels(omega, measure, self.degree)
        for n in range(self.degree + 1):
            total += fock_inner_n(measure, ks[n], self.kernels.get(n))
        return total

    def to_basis(self, basis: Basis, measure: AtomicMeasure) -> "PolyFunctional":
        if basis is self.basis:
            return PolyFunctional(self.basis, FockVector([k.copy() for k in self.kernels.kernels]))
        if basis is Basis.MONOMIAL:
            return wick_to_monomial(self, measure)
        return monomial_to_wick(self, measure)

    def __add__(self, other: "PolyFunctional") -> "PolyFunctional":
        if self.basis is not other.basis:
            raise ContractError("cannot add functionals in different bases; convert first")
        return PolyFunctional(self.basis, self.kernels + other.kernels)

    def __sub__(self, other: "PolyFunctional") -> "PolyFunctional":
        return self + (-1.0) * other

    def __mul__(self, c) -> "PolyFunctional":
        return PolyFunctional(self.basis, c * self.kernels)

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        return {"basis": self.basis.value, "m": self.m,
                "kernels": [{"degree": n, "values": self.kernels.get(n).to_index_map()}
                            for n in range(self.degree + 1)]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PolyFunctional":
        try:
            basis = Basis(d["basis"])
            m = int(d["m"])
            entries = {int(k["degree"]): k["values"] for k in d["kernels"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractError(f"malformed functional JSON: {exc}") from exc
        N = max(entries) if entries else 0
        kernels = [SymTensor.from_index_map(m, n, entries.get(n, {}))
                   for n in range(N + 1)]
        return cls(basis, FockVector(kernels))


def constant_functional(m: int, value: float, basis: Basis = Basis.GAMMA_WICK) -> PolyFunctional:
    return PolyFunctional(basis, FockVector([SymTensor(m, 0, np.array([float(value)]))]))


def _expansion(f: SymTensor, measure: AtomicMeasure, signed: bool) -> dict[int, SymTensor]:
    """Expand a degree-n pairing over loop partitions with one slot per block.

    Each block either stays a free slot (weight |B|!, sign (-1)^(|B|+1) in
    the signed version) or is integrated out against the measure (weight
    (|B|-1)!, sign (-1)^|B|).  Returns kernels by resulting degree.
    """
    n = f.degree
    out: dict[int, SymTensor] = {}
    if n == 0:
        return {0: f.copy()}
    if n > WICK_MAX_DEGREE:
        raise SizeError(f"basis conversion capped at degree {WICK_MAX_DEGREE}")
    w = measure.weights
    for part in loop_partitions(n):
        blocks = part.blocks
        k = len(blocks)
        dense = diagonal_restrict(f, blocks)
        sizes = [len(b) for b in blocks]
        for mask in range(1 << k):
            coeff = 1.0
            for bi, sz in enumerate(sizes):
                if mask >> bi & 1:
                    coeff *= math.factorial(sz)
                    if signed and sz % 2 == 0:
                        coeff = -coeff
                else:
                    coeff *= math.factorial(sz - 1)
                    if signed and sz % 2 == 1:
                        coeff = -coeff
            arr = dense
            for bi in range(k - 1, -1, -1):
                if not mask >> bi & 1:
                    arr = np.tensordot(arr, w, axes=([bi], [0]))
            deg = int(bin(mask).count("1"))
            arr = np.asarray(arr)
            if deg == 0:
                st = SymTensor(f.m, 0, np.array([coeff * float(arr)]))
            else:
                st = coeff * SymTensor.from_dense(arr)
            out[deg] = out.get(deg, SymTensor(f.m, deg)) + st
    return out


def _convert(p: PolyFunctional, measure: AtomicMeasure, expect: Basis,
             target: Basis, signed: bool) -> PolyFunctional:
    if p.basis is not expect:
        raise ContractError(f"expected a functional in the {expect.value} basis")
    if p.m != measure.m:
        raise DimensionError("functional and measure atom counts differ")
    acc = FockVector.zeros(p.m, p.degree)
    for n in range(p.degree + 1):
        for deg, t in _expansion(p.kernels.get(n), measure, signed).items():
            acc.kernels[deg] = acc.get(deg) + t
    return PolyFunctional(target, acc)


def wick_to_monomial(p: PolyFunctional, measure: AtomicMeasure | None = None) -> PolyFunctional:
    """Re-express Gamma-Wick kernels in the monomial basis (same functional)."""
    if measure is None:
        raise ContractError("conversion requires the reference measure")
    return _convert(p, measure, Basis.GAMMA_WICK, Basis.MONOMIAL, signed=True)


def monomial_to_wick(p: PolyFunctional, measure: AtomicMeasure | None = None) -> PolyFunctional:
    """Re-express monomial kernels in the Gamma-Wick basis (same functional)."""
    if measure is None:
        raise ContractError("conversion requires the reference measure")
    return _convert(p, measure, Basis.MONOMIAL, Basis.GAMMA_WICK, signed=False)


def evaluate_batch(p: PolyFunctional, masses: np.ndarray,
                   measure: AtomicMeasure) -> np.ndarray:
    """Vectorized evaluation over rows of a (B, m) mass matrix.

    Gamma-Wick functionals are converted to the monomial basis once; the
    per-sample wick_kernel pairing path is the reference for single points.
    """
    if p.basis is Basis.GAMMA_WICK:
        p = wick_to_monomial(p, measure)
    S = np.asarray(masses, dtype=float)
    if S.ndim != 2 or S.shape[1] != p.m:
        raise DimensionError("mass matrix must have one column per atom")
    total = np.zeros(S.shape[0])
    for n in range(p.degree + 1):
        f = p.kernels.get(n)
        if n == 0:
            total += f.values[0]
            continue
        prods = np.prod(S[:, f.reps], axis=2)
        total += prods @ (f.perm_counts * f.values)
    return total


def wick_exp(omega: OmegaSample, phi, measure: AtomicMeasure,
             N: int) -> tuple[float, float]:
    """Truncated Wick exponential sum_{n<=N} q_n/n! and its closed form.

    The closed form is exp[<omega, phi/(1+phi)> - Integral(log(1+phi))];
    requires max |phi| < 1 so the truncated series converges to it.
    """
    _check_sample(omega, measure)
    phi = measure.check_function(np.asarray(phi, dtype=float))
    if np.max(np.abs(phi)) >= 1.0:
        raise DomainError("wick_exp requires max |phi| < 1")
    q = wick_pair_rank_one(omega, phi, measure, N)
    series = math.fsum(q[n] / math.factorial(n) for n in range(N + 1))
    closed = math.exp(float(omega.masses @ (phi / (1.0 + phi)))
                      - float(measure.weights @ np.log1p(phi)))
    return series, closed


@dataclass(frozen=True)
class LaguerreSystem:
    """Monic-free orthonormal Laguerre-type system for shape sigma.

    coeffs[n] holds the ascending monomial coefficients of P_n; the P_n are
    orthonormal for the Gamma(sigma) density s^(sigma-1) e^(-s)/Gamma(sigma)
    on (0, inf) and satisfy  s P_n = alpha_{n+1} P_{n+1} + beta_n P_n +
    alpha_n P_{n-1}.
    """

    sigma: float
    coeffs: np.ndarray  # (N+1, N+1), row n = coefficients of P_n

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def evaluate(self, n: int, s) -> np.ndarray:
        if not 0 <= n <= self.degree:
            raise SizeError(f"polynomial index {n} outside 0..{self.degree}")
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=float),
                                                self.coeffs[n, : n + 1])


def laguerre_system(sigma: float, N: int) -> LaguerreSystem:
    """Orthonormal polynomials from the three-term recurrence
    P_{n+1} = ((s - beta_n) P_n - alpha_n P_{n-1}) / alpha_{n+1}."""
    if N < 0:
        raise DomainError("N must be >= 0")
    jc = jacobi_coefficients(sigma, N + 1)
    coeffs = np.zeros((N + 1, N + 1))
    coeffs[0, 0] = 1.0
    for n in range(N):
        shifted = np.zeros(N + 1)
        shifted[1: n + 2] = coeffs[n, : n + 1]
        nxt = shifted - jc.betas[n] * coeffs[n]
        if n >= 1:
            nxt = nxt - jc.alphas[n] * coeffs[n - 1]
        coeffs[n + 1] = nxt / jc.alphas[n + 1]
    return LaguerreSystem(float(sigma), coeffs)


def wick_product(p: PolyFunctional, q: PolyFunctional,
                 measure: AtomicMeasure) -> PolyFunctional:
    """Wick (S-transform) product: degreewise symmetrized kernel convolution
    in the Gamma-Wick basis (inputs are converted as needed)."""
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    qw = q.to_basis(Basis.GAMMA_WICK, measure)
    out = FockVector.zeros(p.m, pw.degree + qw.degree)
    for a in range(pw.degree + 1):
        for b in range(qw.degree + 1):
            d = a + b
            out.kernels[d] = out.get(d) + sym_product(pw.kernels.get(a), qw.kernels.get(b))
    return PolyFunctional(Basis.GAMMA_WICK, out)


def s_transform(p: PolyFunctional, theta, measure: AtomicMeasure) -> float:
    """S[p](theta) = sum_n <F^(n), theta^(x)n> with measure weights, where
    F are the Gamma-Wick kernels of p."""
    theta = measure.check_function(np.asarray(theta, dtype=float))
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    return math.fsum(fock_inner_n(measure, pw.kernels.get(n), rank_one(theta, n))
                     for n in range(pw.degree + 1))


def dual_pair(F: PolyFunctional, f: PolyFunctional, measure: AtomicMeasure) -> float:
    """Dualization <<F, f>> = sum_n n! <F^(n), f^(n)> on Gamma-Wick kernels."""
    Fw = F.to_basis(Basis.GAMMA_WICK, measure)
    fw = f.to_basis(Basis.GAMMA_WICK, measure)
    return math.fsum(math.factorial(n)
                     * fock_inner_n(measure, Fw.kernels.get(n), fw.kernels.get(n))
                     for n in range(max(Fw.degree, fw.degree) + 1))


def delta_functional(upsilon: OmegaSample, measure: AtomicMeasure,
                     N: int) -> PolyFunctional:
    """Evaluation functional at upsilon: Gamma-Wick kernels :upsilon^n:/n!.

    Dual-pairing it against any functional of degree <= N returns that
    functional's value at upsilon."""
    ks = wick_kernels(upsilon, measure, N)
    kernels = [ks[n] * (1.0 / math.factorial(n)) for n in range(N + 1)]
    return PolyFunctional(Basis.GAMMA_WICK, FockVector(kernels))
