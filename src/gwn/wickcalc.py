"""Gamma-Wick powers and the polynomial calculus built on them.

A random configuration omega = sum_i s_i d_{x_i} (masses s_i >= 0 on the
atoms) has Wick powers :omega^n:.  Over finitely many atoms the noise is a
product of independent Gamma(w_i) coordinates, so everything factors over
atoms.  On one atom of weight w the Wick powers are the monic polynomials

    q_0 = 1,  q_1 = s - w,  q_{k+1} = (s - 2k - w) q_k - k(k-1+w) q_{k-1},

and, indexing a stored multi-index by its occupation counts k (k_i = how
often atom i appears; see ``symtensor``):

* the density of :omega^n: with respect to the product measure is
  K_n[k] = prod_i q_{k_i}(s_i, w_i) / w_i^{k_i};
* a rank-one pairing <:omega^n:, xi^(x)n> is n! times the t^n coefficient
  of prod_i sum_k q_k(s_i) (xi_i t)^k / k! (the Wick exponential
  factorizes over atoms).  This scalar route never forms a kernel, so the
  two cross-check.

Polynomial functionals carry their kernels in either the monomial basis
(<omega^(x)n, f>) or the Gamma-Wick basis (<:omega^n:, f>).  Both are
polynomials sum_k A[k] prod_i b_{k_i}(s_i) with A[k] = perm_count(k) f[k],
in the per-atom bases b = s^k and b = q_k.  So each basis evaluates
natively, ``atom_products`` multiplying out its table b, and
WICK_MAX_DEGREE caps conversion (and the kernels K_n), not evaluation.
Conversion is a lower triangular change of basis along each atom's axis
of A, over all total degrees <= N at once.  The s^l coefficient of q_n is
(-1)^(n-l) C(n, l) rising(w+l, n-l) and the inverse drops the signs, s^l
= sum_j C(l, j) rising(w+j, l-j) q_j, so both tables come from the
Laguerre coefficient recurrence (q_n = c_n P_n).  The S-transform pairs
Gamma-Wick kernels F with powers of a test function theta, which is the
monomial functional with kernels F at s = w theta; products of
functionals multiply their S-transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ContractError, DimensionError, DomainError, SizeError
from .extfock import fock_inner
from .fieldops import _checked_three_term, _three_term
from .measure import AtomicMeasure
from .symtensor import (FockVector, SymTensor, _check_entries, _tables,
                        atom_products, sym_product)

# Accuracy cap of basis conversion: the per-atom transforms lose digits
# fast past it.  At m = 2 the monomial -> Wick -> monomial round trip of
# Uniform(-1, 1) kernels is off by 3e-9 at N = 8, 1e-3 at N = 12 and 1e4
# at N = 16.
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

    def without_atom(self, atom: int) -> "OmegaSample":
        """New sample with the mass at one atom removed."""
        masses = self.masses.copy()
        masses[atom] = 0.0
        return OmegaSample(masses)


def _check_sample(omega: OmegaSample, measure: AtomicMeasure) -> None:
    if omega.m != measure.m:
        raise DimensionError("sample and measure atom counts differ")


def wick_kernels(omega: OmegaSample, measure: AtomicMeasure, N: int) -> list[SymTensor]:
    """Densities of :omega^n: for n = 0..N: K_n[k] = prod_i q_{k_i}(s_i) / w_i^{k_i}."""
    _check_sample(omega, measure)
    if not 0 <= N <= WICK_MAX_DEGREE:
        raise SizeError(f"Wick degree must be in 0..{WICK_MAX_DEGREE}")
    w = measure.weights
    q = _single_atom_q(omega.masses, w, N) / w[:, None] ** np.arange(N + 1)
    return [SymTensor(measure.m, n, P) for n, P in enumerate(atom_products(q, N))]


def wick_kernel(omega: OmegaSample, measure: AtomicMeasure, n: int) -> SymTensor:
    """Density of :omega^n: with respect to the n-fold product measure."""
    return wick_kernels(omega, measure, n)[n]


def _single_atom_q(s: np.ndarray, w, N: int) -> np.ndarray:
    """Scalar Wick powers q_0..q_N (last axis) of one-atom configurations
    with masses s (an array) and weights w broadcast against s: three-term
    recurrence q_{k+1} = (s - beta_k) q_k - alpha_k^2 q_{k-1}.  Each q_k is
    stored contiguously."""
    alpha_sq, betas = _three_term(w, N)
    q = np.empty((N + 1,) + np.broadcast(s, w).shape)
    q[0] = 1.0
    if N >= 1:
        q[1] = s - betas[..., 0]
    for k in range(1, N):
        q[k + 1] = (s - betas[..., k]) * q[k] - alpha_sq[..., k] * q[k - 1]
    return q.transpose(*range(1, q.ndim), 0)


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
        """Value at one configuration."""
        return float(evaluate_batch(self, omega.masses[None, :], measure)[0])

    def to_basis(self, basis: Basis,
                 measure: AtomicMeasure | None = None) -> "PolyFunctional":
        """This functional in ``basis``: itself when it is already there,
        else converted, which needs the reference measure."""
        if basis is self.basis:
            return self
        if measure is None:
            raise ContractError("basis conversion requires the reference measure")
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
            m = _json_int(d["m"], "m")
            entries = {}
            for k in d["kernels"]:
                n = _json_int(k["degree"], "kernel degree")
                if n < 0 or n in entries:
                    raise ValueError(f"kernel degree {n} is negative or repeated")
                if not isinstance(k["values"], dict):
                    raise ValueError(f"values of the degree-{n} kernel are not "
                                     f"an index map")
                entries[n] = k["values"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ContractError(f"malformed functional JSON: {exc}") from exc
        N = max(entries) if entries else 0
        kernels = [SymTensor.from_index_map(m, n, entries.get(n, {}))
                   for n in range(N + 1)]
        return cls(basis, FockVector(kernels))


def _json_int(x, what: str) -> int:
    """x if it is a JSON integer; a float such as 1.7 is refused, not cut."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def constant_functional(m: int, value: float, basis: Basis = Basis.GAMMA_WICK) -> PolyFunctional:
    return PolyFunctional(basis, FockVector([SymTensor(m, 0, np.array([float(value)]))]))


def _wick_coefficients(w: np.ndarray, N: int) -> np.ndarray:
    """(len(w), N+1, N+1) array; [i, j, l] is the s^l coefficient of
    q_j(s; w_i) (lower triangular, unit diagonal): P_j scaled to a unit
    leading coefficient.  Its absolute value is its inverse: [i, l, j] is
    the q_j(s; w_i) coefficient of s^l."""
    P = _orthonormal_coefficients(*_three_term(w, N))
    return P / np.diagonal(P, axis1=1, axis2=2)[..., None]


@dataclass(frozen=True)
class _Simplex:
    """The occupation vectors k over m atoms with |k| <= N, in one vector.

    They are the degree-N multisets over m+1 symbols, symbol m marking an
    empty slot, so ``_tables(m + 1, N)`` orders them.  ``pos[n]`` places the
    degree-n kernel entries; along atom i, entry e sits in row ``rows[i][e]``
    (its occupation vector with k_i set to 0) and column k_i."""

    occ: np.ndarray            # (E, m+1) occupation counts, last = empty slots
    pos: tuple                 # per degree n: (R_n,) positions in 0..E-1
    rows: tuple                # per atom i: (E,) row of each entry
    n_rows: int                # rows per atom: vectors with k_i = 0


@lru_cache(maxsize=None)
def _simplex(m: int, N: int) -> _Simplex:
    big = _tables(m + 1, N)
    pos = []
    for n in range(N + 1):
        reps = _tables(m, n).reps
        pad = np.full((len(reps), N - n), m, dtype=np.int64)
        pos.append(big.rank_sorted_rows(np.hstack([reps, pad])))
    rows = []
    for i in range(m):
        empty_i = big.occ[:, i] == 0
        rest = big.rank_rows(np.where(big.reps == i, m, big.reps))
        rows.append((np.cumsum(empty_i) - 1)[rest])
    n_rows = int(np.count_nonzero(big.occ[:, 0] == 0))
    return _Simplex(big.occ, tuple(pos), tuple(rows), n_rows)


def _convert(p: PolyFunctional, measure: AtomicMeasure, expect: Basis,
             target: Basis) -> PolyFunctional:
    """Per-atom change of basis of A[k] = perm_count(k) f[k]."""
    if p.basis is not expect:
        raise ContractError(f"expected a functional in the {expect.value} basis")
    if p.m != measure.m:
        raise DimensionError("functional and measure atom counts differ")
    N = p.degree
    if N > WICK_MAX_DEGREE:
        raise SizeError(f"basis conversion capped at degree {WICK_MAX_DEGREE}")
    sx = _simplex(p.m, N)
    ks = p.kernels.kernels
    a = np.zeros(len(sx.occ), dtype=np.result_type(*(k.values for k in ks)))
    for k, pos in zip(ks, sx.pos):
        a[pos] = k.perm_counts * k.values
    mats = _wick_coefficients(measure.weights, N)
    if target is Basis.GAMMA_WICK:
        mats = np.abs(mats)
    for i, T in enumerate(mats):
        grid = np.zeros((sx.n_rows, N + 1), dtype=a.dtype)
        cell = (sx.rows[i], sx.occ[:, i])
        grid[cell] = a
        a = (grid @ T)[cell]
    return PolyFunctional(target, FockVector(
        [SymTensor(p.m, n, a[pos] / k.perm_counts)
         for n, (k, pos) in enumerate(zip(ks, sx.pos))]))


def wick_to_monomial(p: PolyFunctional, measure: AtomicMeasure) -> PolyFunctional:
    """Re-express Gamma-Wick kernels in the monomial basis (same functional)."""
    return _convert(p, measure, Basis.GAMMA_WICK, Basis.MONOMIAL)


def monomial_to_wick(p: PolyFunctional, measure: AtomicMeasure) -> PolyFunctional:
    """Re-express monomial kernels in the Gamma-Wick basis (same functional)."""
    return _convert(p, measure, Basis.MONOMIAL, Basis.GAMMA_WICK)


def evaluate_batch(p: PolyFunctional, masses: np.ndarray,
                   measure: AtomicMeasure) -> np.ndarray:
    """Vectorized evaluation over rows of a (B, m) mass matrix, in the
    functional's own basis: sum_k A[k] prod_i b_{k_i}(s_i) with the
    per-atom table b = s^k or q_k(s; w_i) multiplied out by atom_products."""
    S = np.asarray(masses, dtype=float)
    if S.ndim != 2 or not S.shape[1] == p.m == measure.m:
        raise DimensionError("masses, functional and measure differ in atom count")
    N = p.degree
    _check_entries(math.comb(N + p.m, p.m) * len(S),
                   f"evaluation of {len(S)} rows at degree {N}")
    s = np.ascontiguousarray(S.T)
    if p.basis is Basis.MONOMIAL:
        table = np.empty((N + 1,) + s.shape)
        table[1:] = s
        for k in range(2, N + 1):   # repeated products: faster than pow
            table[k] *= table[k - 1]
        table = table.swapaxes(0, 1)
    else:
        table = _single_atom_q(s, measure.weights[:, None], N).swapaxes(1, 2)
    total = np.zeros(len(S))
    for f, P in zip(p.kernels.kernels, atom_products(table, N)):
        total += (f.perm_counts * f.values) @ P
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
    """Orthonormal Laguerre-type system P_n = q_n / c_n for shape sigma.

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


def _orthonormal_coefficients(alpha_sq: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """[..., n, l] = s^l coefficient of P_n for the ``_three_term`` parameters
    of one weight or many: P_{n+1} = ((s - beta_n) P_n - alpha_n P_{n-1})
    / alpha_{n+1} from P_{-1} = 0, P_0 = 1."""
    alphas = np.sqrt(alpha_sq)
    N = alphas.shape[-1] - 1
    coeffs = np.zeros(alphas.shape[:-1] + (N + 2, N + 1))   # row n + 1 holds P_n
    coeffs[..., 1, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N):
            nxt = np.zeros(alphas.shape)
            nxt[..., 1:] = coeffs[..., n + 1, :-1]
            nxt -= betas[..., n, None] * coeffs[..., n + 1, :]
            nxt -= alphas[..., n, None] * coeffs[..., n, :]
            coeffs[..., n + 2, :] = nxt / alphas[..., n + 1, None]
    return coeffs[..., 1:, :]


def laguerre_system(sigma: float, N: int) -> LaguerreSystem:
    """Orthonormal polynomials P_0..P_N from the three-term recurrence."""
    alpha_sq, betas = _checked_three_term(sigma, N)
    _check_entries((N + 1) ** 2, f"Laguerre coefficient table (N={N})")
    coeffs = _orthonormal_coefficients(alpha_sq, betas)
    if not np.all(np.isfinite(coeffs)):
        raise DomainError(f"sigma={sigma!r}, N={N}: Laguerre coefficients overflow")
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
    F are the Gamma-Wick kernels of p: their monomial value at s = w theta."""
    theta = measure.check_function(np.asarray(theta, dtype=float))
    pm = PolyFunctional(Basis.MONOMIAL, p.to_basis(Basis.GAMMA_WICK, measure).kernels)
    return float(evaluate_batch(pm, (measure.weights * theta)[None, :], measure)[0])


def dual_pair(F: PolyFunctional, f: PolyFunctional, measure: AtomicMeasure) -> float:
    """Dualization <<F, f>> = sum_n n! <F^(n), f^(n)> on Gamma-Wick kernels."""
    Fw = F.to_basis(Basis.GAMMA_WICK, measure)
    fw = f.to_basis(Basis.GAMMA_WICK, measure)
    return fock_inner(measure, Fw.kernels, fw.kernels)


def delta_functional(upsilon: OmegaSample, measure: AtomicMeasure,
                     N: int) -> PolyFunctional:
    """Evaluation functional at upsilon: Gamma-Wick kernels :upsilon^n:/n!.

    Dual-pairing it against any functional of degree <= N returns that
    functional's value at upsilon."""
    ks = wick_kernels(upsilon, measure, N)
    kernels = [ks[n] * (1.0 / math.factorial(n)) for n in range(N + 1)]
    return PolyFunctional(Basis.GAMMA_WICK, FockVector(kernels))
