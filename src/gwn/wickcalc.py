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
  of the Wick exponential, whose log is a sum over atoms with a closed
  form, so all pairings of a batch come from one matrix product and a
  power-series exponential.  This scalar route never forms a kernel, so
  the two cross-check.

Polynomial functionals carry their kernels in either the monomial basis
(<omega^(x)n, f>) or the Gamma-Wick basis (<:omega^n:, f>).  Both are
polynomials sum_k A[k] prod_i b_{k_i}(s_i), A the stored coefficients
perm_count(k) f[k], in the per-atom bases b = s^k and b = q_k.  So each
basis evaluates natively, ``atom_products`` multiplying out its table b,
and WICK_MAX_DEGREE caps conversion (and the kernels K_n), not evaluation.
The table and its products depend on the rows and the basis only, so
``evaluate_batch`` evaluates F functionals of one basis with one of each
and one (F, R_n) @ (R_n, B) product per degree n.
Conversion is a lower triangular change of basis along each atom's axis
of A, over all total degrees <= N at once, on a copy of the coefficients:
along atom i, each entry's line is its rep with the atom-i run removed.
At a row the same lines give phi along one atom, sum_k C_{i,k} b_k(s_i),
and so its Taylor coefficients there in the same basis: the j-th
derivative of q_k(s; w) is k!/(k-j)! q_{k-j}(s; w+j) (``_taylor_at``,
which the difference calculus reads).  The s^l coefficient of q_n is
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

import numpy as np

from .errors import ContractError, DimensionError, DomainError, SizeError
from .extfock import fock_inner
from .fieldops import _checked_three_term, _three_term
from .measure import AtomicMeasure, real_values
from .symtensor import (FockVector, SymTensor, _atom_runs, _check_degree,
                        _check_entries, _degree, atom_products, sym_product)

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


def _check_sample(omega: OmegaSample, measure: AtomicMeasure) -> None:
    if omega.m != measure.m:
        raise DimensionError("sample and measure atom counts differ")


def wick_kernels(omega: OmegaSample, measure: AtomicMeasure, N: int) -> list[SymTensor]:
    """Densities of :omega^n: for n = 0..N: K_n[k] = prod_i q_{k_i}(s_i) / w_i^{k_i}."""
    _check_sample(omega, measure)
    if not 0 <= N <= WICK_MAX_DEGREE:
        raise SizeError(f"Wick degree must be in 0..{WICK_MAX_DEGREE}")
    w = measure.weights
    q = _atom_table(Basis.GAMMA_WICK, omega.masses[:, None], w, N)[..., 0] \
        / w[:, None] ** np.arange(N + 1)
    P = atom_products(q, N)
    return [SymTensor(measure.m, n, P[_degree(measure.m, n)]) for n in range(N + 1)]


def wick_kernel(omega: OmegaSample, measure: AtomicMeasure, n: int) -> SymTensor:
    """Density of :omega^n: with respect to the n-fold product measure."""
    return wick_kernels(omega, measure, n)[n]


def wick_pair_rank_one(omega: OmegaSample, xi, measure: AtomicMeasure,
                       N: int) -> np.ndarray:
    """q_n = <:omega^n:, xi^(x)n> for n = 0..N by the scalar route.

    The q_n/n! are the Taylor coefficients of the Wick exponential, whose
    log is a sum over atoms (see wick_pair_rank_one_batch).  This path never
    touches the kernel recurrence, so the two can cross-check.
    """
    _check_sample(omega, measure)
    return wick_pair_rank_one_batch(omega.masses[None, :], xi, measure, N)[0]


def wick_pair_rank_one_batch(masses: np.ndarray, xi, measure: AtomicMeasure,
                             N: int) -> np.ndarray:
    """wick_pair_rank_one for every row of a (B, m) mass matrix and every
    direction of xi: a 1-d xi gives (B, N+1), an (F, m) stack (B, F, N+1).

    The Wick exponential sum_n t^n/n! q_n is exp(C(t)) with
    C(t) = sum_i [s_i t xi_i/(1 + t xi_i) - w_i log(1 + t xi_i)], so
    C = sum_k c_k t^k with c_k = (-1)^(k+1) sum_i xi_i^k (s_i - w_i/k).
    The k c_k of all directions and rows are one (N F, m) @ (m, B) product
    less the row-independent (-1)^(k+1) w @ xi^k; the Taylor coefficients
    e_n = q_n/n! of the exponential follow from n e_n = sum_{k<=n} k c_k
    e_{n-k}, N(N+1)/2 vector operations over the rows whatever m is.
    """
    S = np.asarray(masses, dtype=float)
    if S.ndim != 2 or S.shape[1] != measure.m:
        raise DimensionError("mass matrix must have one column per atom")
    X = np.asarray(xi)
    if X.ndim not in (1, 2) or X.shape[-1] != measure.m:
        raise DimensionError(f"xi has shape {X.shape}, expected ({measure.m},) "
                             f"or (F, {measure.m})")
    X = real_values(X, "xi")
    Xs = np.atleast_2d(X)
    F, B = len(Xs), len(S)
    k = np.arange(1, N + 1)
    # [k-1, f, i] = (-1)^(k+1) xi_{f,i}^k
    P = ((-1.0) ** (k + 1))[:, None, None] * Xs ** k[:, None, None]
    # [k-1] = k c_k as (F, B): k P @ S^T less the row-free P @ w
    kc = ((k[:, None, None] * P).reshape(N * F, measure.m) @ S.T).reshape(N, F, B) \
        - (P @ measure.weights)[..., None]
    e = np.empty((N + 1, F, B))
    e[0] = 1.0
    for n in range(1, N + 1):
        acc = kc[0] * e[n - 1]
        for j in range(2, n + 1):
            acc += kc[j - 1] * e[n - j]
        e[n] = acc / n
    fact = np.array([math.factorial(n) for n in range(N + 1)], dtype=float)
    q = (e * fact[:, None, None]).T                 # (B, F, N+1)
    return q[:, 0] if X.ndim == 1 else q


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
        _check_degree(N)   # before any kernel is built
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


def _convert(p: PolyFunctional, measure: AtomicMeasure, expect: Basis,
             target: Basis) -> PolyFunctional:
    """Per-atom change of basis of the stored coefficients A, on a copy."""
    if p.basis is not expect:
        raise ContractError(f"expected a functional in the {expect.value} basis")
    if p.m != measure.m:
        raise DimensionError("functional and measure atom counts differ")
    N = p.degree
    if N > WICK_MAX_DEGREE:
        raise SizeError(f"basis conversion capped at degree {WICK_MAX_DEGREE}")
    # A on the flat layout of degrees 0..N.  Along atom i, entry e sits in
    # row "e with its atom-i run removed" (e itself when i is absent) and
    # column k_i.  The rows are entries of degree < N; a degree-N entry
    # without atom i is alone in its row, at column 0, where T is 1.
    a = p.kernels.coeffs.copy()
    mats = _wick_coefficients(measure.weights, N)
    if target is Basis.GAMMA_WICK:
        mats = np.abs(mats)
    lo = _degree(p.m, N).start
    for T, e, col, row in zip(mats, *_atom_runs(p.m, N)):
        grid = np.zeros((lo, N + 1), dtype=a.dtype)
        grid[:, 0] = a[:lo]
        grid[row, col] = a[e]
        grid = grid @ T
        a[:lo] = grid[:, 0]
        a[e] = grid[row, col]
    return PolyFunctional(target, FockVector._from_coeffs(p.m, N, a))


def wick_to_monomial(p: PolyFunctional, measure: AtomicMeasure) -> PolyFunctional:
    """Re-express Gamma-Wick kernels in the monomial basis (same functional)."""
    return _convert(p, measure, Basis.GAMMA_WICK, Basis.MONOMIAL)


def monomial_to_wick(p: PolyFunctional, measure: AtomicMeasure) -> PolyFunctional:
    """Re-express monomial kernels in the Gamma-Wick basis (same functional)."""
    return _convert(p, measure, Basis.MONOMIAL, Basis.GAMMA_WICK)


def _atom_table(basis: Basis, s: np.ndarray, weights: np.ndarray,
                N: int) -> np.ndarray:
    """[i, k, b] = t_i(k; s[i, b]) for an (m, B) array s, the one-atom
    table of each basis: s^k, or the Wick powers q_k(s; w_i) by the
    three-term recurrence q_{k+1} = (s - beta_k) q_k - alpha_k^2 q_{k-1}.
    Each t(k) is stored contiguously, so the table is k-major and
    ``atom_products`` reads t_i(k) as row k m + i of a view, with no copy."""
    table = np.empty((N + 1,) + s.shape)
    table[0] = 1.0
    if basis is Basis.MONOMIAL:
        table[1:] = s
        for k in range(2, N + 1):   # repeated products: faster than pow
            table[k] *= table[k - 1]
    elif N >= 1:
        alpha_sq, betas = _three_term(weights[:, None], N)
        table[1] = s - betas[..., 0]
        for k in range(1, N):
            table[k + 1] = (s - betas[..., k]) * table[k] - alpha_sq[..., k] * table[k - 1]
    return table.swapaxes(0, 1)


def evaluate_batch(p, masses: np.ndarray, measure: AtomicMeasure) -> np.ndarray:
    """Vectorized evaluation over rows of a (B, m) mass matrix, in the
    functionals' own basis: sum_k A[k] prod_i b_{k_i}(s_i) with the
    per-atom table b = s^k or q_k(s; w_i) multiplied out by atom_products.
    p is one PolyFunctional, giving (B,) values, or a non-empty sequence of
    them in one basis, giving (B, F) values from one table and product."""
    return _taylor_at(p, masses, measure, ())[0]


def _taylor_at(p, masses: np.ndarray, measure: AtomicMeasure, atoms,
               order: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """evaluate_batch's values phi, and the Taylor coefficients D_{a,j} =
    nabla_a^j phi / j!, j <= max(N, order), of every functional and row at
    each atom a of ``atoms``, in the functionals' own basis.  Along atom a
    phi is sum_k C_{a,k} t_a(k; s_a), t the one-atom table; C_{a,k},
    k >= 1, sums A[entry] P[base] over the runs of k copies of a in the run
    table, A the stacked coefficients padded to degree N and P the
    atom_products of the rows, both on the flat layout.  The j-th
    derivative of t(k) is k!/(k-j)! t(k-j) at the shape w_a + j (q_k' =
    k q_{k-1}(.; w+1); s^k has no shape), so D_{a,0} = phi and D_{a,j} =
    sum_{k>=j} C(k, j) C_{a,k} t(k-j; s_a) at w_a + j.  D is
    (K, max(N, order)+1, B), or (K, F, max(N, order)+1, B) for a sequence."""
    ps = [p] if isinstance(p, PolyFunctional) else list(p)
    if not ps or any(q.basis is not ps[0].basis for q in ps):
        raise ContractError("evaluate_batch takes one or more functionals in one basis")
    S = np.asarray(masses, dtype=float)
    if S.ndim != 2 or any(q.m != S.shape[1] for q in ps) or S.shape[1] != measure.m:
        raise DimensionError("masses, functionals and measure differ in atom count")
    (F, B), N = (len(ps), len(S)), max(q.degree for q in ps)
    J = max(N, order)
    R = math.comb(N + measure.m, N)
    _check_entries(R * B, f"evaluation of {B} rows at degree {N}")
    _check_entries(R * F, f"a stack of {F} functionals at degree {N}")
    _check_entries(len(atoms) * F * (J + 1) * B,
                   f"Taylor coefficients of {F} functionals at {len(atoms)} atoms")
    basis, s = ps[0].basis, np.ascontiguousarray(S.T)
    P = atom_products(_atom_table(basis, s, measure.weights, N), N)
    A = np.zeros((F, R))   # entries past a functional's degree stay 0
    for f, q in enumerate(ps):
        np.copyto(A[f, :q.kernels.coeffs.size], q.kernels.coeffs)
    # degree by degree, which keeps the rounding of the summation order
    values = sum(A[:, _degree(measure.m, n)] @ P[_degree(measure.m, n)]
                 for n in range(N + 1))
    D = np.zeros((len(atoms), F, J + 1, B))
    D[:, :, 0] = values
    if len(atoms):
        entry, copies, base = _atom_runs(measure.m, N)
        ks = np.arange(N + 1)
        binom = np.array([[math.comb(k, j) for k in ks] for j in ks], dtype=float)
        for d, a in zip(D, atoms):
            # [f, k - 1, b] = C_{a,k}: each run's coefficient where it holds k copies
            C = (A[:, None, entry[a]] * (copies[a] == ks[1:, None])) @ P[base[a]]
            for j in range(1, N + 1):
                t = _atom_table(basis, s[a:a + 1], measure.weights[a:a + 1] + j,
                                N - j)[0]
                d[:, j] = np.einsum("k,fkb,kb->fb", binom[j, j:], C[:, j - 1:], t)
    return (values[0], D[:, 0]) if isinstance(p, PolyFunctional) else (values.T, D)


def wick_exp(omega: OmegaSample, phi, measure: AtomicMeasure,
             N: int) -> tuple[float, float]:
    """Truncated Wick exponential sum_{n<=N} q_n/n! and its closed form.

    The closed form is exp[<omega, phi/(1+phi)> - Integral(log(1+phi))];
    requires max |phi| < 1 so the truncated series converges to it.  The
    q_n come from the Taylor coefficients of this same closed form
    (wick_pair_rank_one_batch), so the comparison here checks only the
    truncation of the series.  The Wick-exponential identity itself is
    checked by comparing that route with the Wick kernels paired through
    fock_inner_n and with the product of one-atom series in the tests.
    """
    _check_sample(omega, measure)
    phi = measure.real_function(phi)
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
    out = [SymTensor(p.m, d) for d in range(pw.degree + qw.degree + 1)]
    for a, f in enumerate(pw.kernels.kernels):
        for b, g in enumerate(qw.kernels.kernels):
            out[a + b] = out[a + b] + sym_product(f, g)
    return PolyFunctional(Basis.GAMMA_WICK, FockVector(out))


def s_transform(p: PolyFunctional, theta, measure: AtomicMeasure) -> float:
    """S[p](theta) = sum_n <F^(n), theta^(x)n> with measure weights, where
    F are the Gamma-Wick kernels of p: their monomial value at s = w theta.
    A value past the float range is a DomainError."""
    theta = measure.real_function(theta)
    pm = PolyFunctional(Basis.MONOMIAL, p.to_basis(Basis.GAMMA_WICK, measure).kernels)
    with np.errstate(over="ignore", invalid="ignore"):
        value = evaluate_batch(pm, (measure.weights * theta)[None, :], measure)[0]
    if not np.isfinite(value):
        raise DomainError("the S-transform leaves the float range at this theta")
    return float(value)


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
    return PolyFunctional(Basis.GAMMA_WICK, FockVector(
        [k * (1.0 / math.factorial(n)) for n, k in enumerate(ks)]))
