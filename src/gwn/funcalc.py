"""Difference calculus on polynomial functionals of the random measure.

Two first-order operators act at each atom x:

* nabla_x: the Gateaux derivative in the direction of a unit point mass.
  On monomial kernels it is slot evaluation, <omega^(x)n, f> maps to
  n <omega^(x)(n-1), f(x, .)>.
* the Wick derivative: the same slot evaluation on Gamma-Wick kernels.
  Its adjoint under the dualization sum_n n! <., .> inserts the point-mass
  density delta_x/w_x into the kernel.

They are linked by the exact operator series

    wick_del = sum_{n>=1} nabla^n        nabla = sum_{n>=1} (-1)^(n+1) wick_del^n

which terminate on polynomials since each term lowers degree, and by an
integral representation: applying the Wick derivative equals integrating
phi(omega + s delta_x) - phi(omega) against e^(-s) ds.  Every integral form
uses one 64-node Gauss-Laguerre rule, built once on first use; it is exact
for s-polynomials up to degree 127.

The coordinate multiplication operator omega(x). decomposes into Wick
derivative/adjoint compositions, and the check_* functions compare the
Fock-side creation, neutral, and two annihilation operators against their
gradient-form expressions at sampled configurations.  The reassembly check
applies the Gamma field itself (creation + 2 neutral + <xi> id + both
annihilations) on the Fock side and compares it with multiplication by
<omega, xi>.  D_xi denotes the Gateaux derivative in the direction of the
measure with density xi, i.e. D_xi = sum_i w_i xi_i nabla_i.

A check evaluates the functionals it needs at the same rows together; the
gradient forms take D_xi phi from the per-atom nabla values.  The shifted
rows of an integral form and the S-transform check's functionals are
evaluated one atom at a time, so no call grows with the atom count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_laguerre

from .errors import DimensionError, DomainError
from .fieldops import (_lower, annihilate1, annihilate2, create, gamma_field,
                       neutral)
from .gammasample import (MCEstimate, SamplerConfig, iter_jump_batches,
                          mean_and_se)
from .measure import AtomicMeasure
from .symtensor import FockVector
from .wickcalc import (Basis, OmegaSample, PolyFunctional, evaluate_batch,
                       s_transform)

DEFAULT_QUAD_NODES = 64


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrals against e^(-s) ds on (0, inf)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        n = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if n.shape != w.shape or n.ndim != 1 or n.size == 0:
            raise DimensionError("nodes and weights must be matching vectors")
        if np.any(w <= 0.0) or np.any(n < 0.0):
            raise DomainError("nodes must be >= 0 and weights positive")
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "weights", w)

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ values)


def gauss_laguerre_rule(n_nodes: int = DEFAULT_QUAD_NODES) -> QuadratureRule:
    """Gauss-Laguerre rule: exact for s-polynomials up to degree 2n-1."""
    x, w = roots_laguerre(n_nodes)
    return QuadratureRule(x, w)


@lru_cache(maxsize=None)
def _rule() -> QuadratureRule:
    """The rule of every integral form, built on first use: building it
    loads scipy.linalg, which the MC commands never need."""
    return gauss_laguerre_rule()


def _check_atom(atom: int, m: int) -> None:
    if not 0 <= atom < m:
        raise DimensionError(f"atom index {atom} outside 0..{m - 1}")


def nabla(p: PolyFunctional, atom: int,
          measure: AtomicMeasure | None = None) -> PolyFunctional:
    """Gateaux derivative in the unit point-mass direction at one atom:
    slot evaluation f_n -> n f_n(atom, .) of the monomial kernels."""
    pm = p.to_basis(Basis.MONOMIAL, measure)
    _check_atom(atom, pm.m)
    return PolyFunctional(Basis.MONOMIAL, _lower(pm.kernels, np.ones(pm.m), [atom]))


def d_xi(p: PolyFunctional, xi, measure: AtomicMeasure) -> PolyFunctional:
    """Derivative in the direction of the measure xi dsigma:
    D_xi = sum_i w_i xi_i nabla_i (one fused kernel contraction)."""
    pm = p.to_basis(Basis.MONOMIAL, measure)
    xi = measure.check_function(np.asarray(xi, dtype=float))
    return PolyFunctional(Basis.MONOMIAL, annihilate1(xi, pm.kernels, measure))


def wick_del(p: PolyFunctional, atom: int,
             measure: AtomicMeasure | None = None) -> PolyFunctional:
    """The Wick derivative: slot evaluation on Gamma-Wick kernels."""
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    _check_atom(atom, pw.m)
    return PolyFunctional(Basis.GAMMA_WICK, _lower(pw.kernels, np.ones(pw.m), [atom]))


def del_dagger(p: PolyFunctional, atom: int,
               measure: AtomicMeasure) -> PolyFunctional:
    """Adjoint of the Wick derivative under the dualization pairing: the
    creation operator at the point-mass density delta_atom/w_atom."""
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    _check_atom(atom, pw.m)
    return PolyFunctional(Basis.GAMMA_WICK,
                          create(measure.delta_density(atom), pw.kernels))


def _shifted_integral(ps: list[PolyFunctional], omega: OmegaSample, atom: int,
                      measure: AtomicMeasure) -> np.ndarray:
    """int_0^inf phi(omega + s delta_atom) e^(-s) ds for each functional of
    ps (one basis), (F,), from one evaluation of the rows omega + s_k
    delta_atom over the rule nodes s_k."""
    rule = _rule()
    rows = np.repeat(omega.masses[None, :], rule.nodes.size, axis=0)
    rows[:, atom] += rule.nodes
    return rule.weights @ evaluate_batch(ps, rows, measure)


def _difference_integral(c: np.ndarray, base: float, shifted: np.ndarray) -> float:
    """sum_a c_a int_0^inf (phi(omega + s delta_a) - phi(omega)) e^(-s) ds,
    from phi(omega) = base and phi's shifted integrals, one per atom a."""
    return math.fsum(c * (shifted - base * float(np.sum(_rule().weights))))


def del_integral(p: PolyFunctional, atom: int, omega: OmegaSample,
                 measure: AtomicMeasure) -> float:
    """Integral form of the Wick derivative at one configuration:
    int_0^inf (phi(omega + s delta_atom) - phi(omega)) e^(-s) ds."""
    _check_atom(atom, p.m)
    return _difference_integral(np.ones(1), p.evaluate(omega, measure),
                                _shifted_integral([p], omega, atom, measure))


def annihilate1_integral(p: PolyFunctional, xi, measure: AtomicMeasure,
                         omega: OmegaSample) -> float:
    """Smeared integral form: sum_i w_i xi_i del_integral(p, i), over the
    atoms with xi_i != 0."""
    xi = measure.check_function(np.asarray(xi, dtype=float))
    atoms = np.flatnonzero(xi)
    shifted = [_shifted_integral([p], omega, a, measure)[0] for a in atoms]
    return _difference_integral((measure.weights * xi)[atoms],
                                p.evaluate(omega, measure), np.array(shifted))


def coordinate_multiply(p: PolyFunctional, atom: int,
                        measure: AtomicMeasure) -> PolyFunctional:
    """Multiplication by the configuration density at one atom:
    dagger + 2 dagger del + id + del + dagger del del on Wick kernels."""
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    _check_atom(atom, pw.m)
    d1 = wick_del(pw, atom)
    return _multiply_from(pw, d1, wick_del(d1, atom), atom, measure)


def _multiply_from(pw: PolyFunctional, d1: PolyFunctional, d2: PolyFunctional,
                   atom: int, measure: AtomicMeasure) -> PolyFunctional:
    """coordinate_multiply from pw and its Wick derivatives d1, d2 at atom."""
    return del_dagger(pw, atom, measure) + 2.0 * del_dagger(d1, atom, measure) \
        + pw + d1 + del_dagger(d2, atom, measure)


def functional_max_diff(a: PolyFunctional, b: PolyFunctional,
                        measure: AtomicMeasure) -> float:
    """Kernelwise max abs difference, compared in the monomial basis."""
    am = a.to_basis(Basis.MONOMIAL, measure)
    bm = b.to_basis(Basis.MONOMIAL, measure)
    return (am.kernels - bm.kernels).max_abs()


@dataclass(frozen=True)
class SeriesReport:
    """Exact truncating operator series, compared coefficient-wise."""

    dev_del_as_nabla_series: float   # wick_del vs sum of nabla powers
    dev_nabla_as_del_series: float   # nabla vs alternating wick_del powers
    dev_commutation: float           # nabla_i wick_del_j vs wick_del_j nabla_i

    @property
    def max_deviation(self) -> float:
        return max(self.dev_del_as_nabla_series, self.dev_nabla_as_del_series,
                   self.dev_commutation)


def series_identities_check(p: PolyFunctional, atom: int,
                            measure: AtomicMeasure,
                            other_atom: int | None = None) -> SeriesReport:
    pm = p.to_basis(Basis.MONOMIAL, measure)
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    N = p.degree
    _check_atom(atom, p.m)
    j = atom if other_atom is None else other_atom
    _check_atom(j, p.m)

    acc = PolyFunctional(Basis.MONOMIAL, FockVector.zeros(p.m, 0))
    term = pm
    for _ in range(N):
        term = nabla(term, atom)
        acc = acc + term
    dev1 = functional_max_diff(wick_del(pw, atom), acc, measure)

    acc = PolyFunctional(Basis.GAMMA_WICK, FockVector.zeros(p.m, 0))
    term = pw
    for k in range(1, N + 1):
        term = wick_del(term, atom)
        acc = acc + (-1.0) ** (k + 1) * term
    dev2 = functional_max_diff(nabla(pm, atom), acc, measure)

    ab = nabla(wick_del(pw, j), atom, measure)
    ba = wick_del(nabla(pm, atom), j, measure)
    dev3 = functional_max_diff(ab, ba, measure)
    return SeriesReport(dev1, dev2, dev3)


@dataclass(frozen=True)
class CheckReport:
    lhs: float
    rhs: float

    @property
    def deviation(self) -> float:
        return abs(self.lhs - self.rhs)


def _gradient_terms(pm: PolyFunctional, xi: np.ndarray, omega: OmegaSample,
                    measure: AtomicMeasure
                    ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """phi(omega), the first and second per-atom nabla values at omega, and
    D_xi phi(omega) = sum_i w_i xi_i nabla_i phi(omega), from one evaluation
    of the order-2 Taylor stack over all atoms."""
    values = evaluate_batch(_taylor_stack(pm, range(pm.m), 2),
                            omega.masses[None, :], measure)[0]
    g1, g2 = values[1::2], values[2::2]
    return float(values[0]), g1, g2, float((measure.weights * xi) @ g1)


def creation_gradient_check(p: PolyFunctional, xi, omega: OmegaSample,
                            measure: AtomicMeasure) -> CheckReport:
    """Creation operator vs its gradient form:
    <omega(x), xi (nabla - 1)^2 phi> + (D_xi - <xi>) phi."""
    xi = measure.check_function(np.asarray(xi, dtype=float))
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    lhs = PolyFunctional(Basis.GAMMA_WICK,
                         create(xi, pw.kernels)).evaluate(omega, measure)
    pm = p.to_basis(Basis.MONOMIAL, measure)
    base, g1, g2, dphi = _gradient_terms(pm, xi, omega, measure)
    rhs = float(omega.masses @ (xi * (g2 - 2.0 * g1 + base))) \
        + dphi - measure.integrate(xi) * base
    return CheckReport(lhs, rhs)


def neutral_gradient_check(p: PolyFunctional, xi, omega: OmegaSample,
                           measure: AtomicMeasure) -> CheckReport:
    """Neutral operator vs <omega(x), xi nabla(1 - nabla) phi> - D_xi phi."""
    xi = measure.check_function(np.asarray(xi, dtype=float))
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    lhs = PolyFunctional(Basis.GAMMA_WICK,
                         neutral(xi, pw.kernels)).evaluate(omega, measure)
    pm = p.to_basis(Basis.MONOMIAL, measure)
    _, g1, g2, dphi = _gradient_terms(pm, xi, omega, measure)
    rhs = float(omega.masses @ (xi * (g1 - g2))) - dphi
    return CheckReport(lhs, rhs)


@dataclass(frozen=True)
class SecondAnnihilationReport:
    """The second annihilation operator against three published forms.

    The compensated form <omega(x), xi nabla^2 phi> + D_xi phi minus the
    smeared difference integral, and the equivalent gradient-shift form,
    both agree with the Fock side.  The uncompensated variant that
    additionally subtracts <xi> phi does not: its residual equals
    2 <xi> phi, which is reported rather than hidden; phi is phi(omega).
    """

    phi: float
    lhs: float
    rhs_compensated: float
    rhs_gradient_shift: float
    rhs_uncompensated: float

    @property
    def deviation(self) -> float:
        return max(abs(self.lhs - self.rhs_compensated),
                   abs(self.lhs - self.rhs_gradient_shift))

    @property
    def uncompensated_residual(self) -> float:
        return abs(self.lhs - self.rhs_uncompensated)


def second_annihilation_check(p: PolyFunctional, xi, omega: OmegaSample,
                              measure: AtomicMeasure) -> SecondAnnihilationReport:
    xi = measure.check_function(np.asarray(xi, dtype=float))
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    lhs = PolyFunctional(Basis.GAMMA_WICK,
                         annihilate2(xi, pw.kernels)).evaluate(omega, measure)
    pm = p.to_basis(Basis.MONOMIAL, measure)
    base, _, g2, dphi = _gradient_terms(pm, xi, omega, measure)
    lead = float(omega.masses @ (xi * g2)) + dphi
    atoms = np.flatnonzero(xi)
    shifted = np.reshape([_shifted_integral([pm, nabla(pm, a)], omega, a, measure)
                          for a in atoms], (-1, 2))
    wxi = (measure.weights * xi)[atoms]
    rhs_comp = lead - _difference_integral(wxi, base, shifted[:, 0])
    rhs_grad = lead - wxi @ shifted[:, 1]
    rhs_unc = lead - wxi @ shifted[:, 0] - measure.integrate(xi) * base
    return SecondAnnihilationReport(base, lhs, rhs_comp, rhs_grad, rhs_unc)


def stransform_multiplication_check(p: PolyFunctional, theta,
                                    measure: AtomicMeasure) -> float:
    """S-transform of coordinate multiplication against
    (theta_x + 1) U + (1 + 2 theta_x) grad_x U + theta_x grad_x^2 U,
    maximized over atoms.  grad here differentiates U in theta."""
    theta = measure.check_function(np.asarray(theta, dtype=float))
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    worst = 0.0
    for i in range(pw.m):
        # theta-derivatives toward delta_i: slot evaluation of the kernels
        d1 = wick_del(pw, i)
        d2 = wick_del(d1, i)
        U, dU, d2U, lhs = s_transform(
            [pw, d1, d2, _multiply_from(pw, d1, d2, i, measure)], theta, measure)
        rhs = (theta[i] + 1.0) * U + (1.0 + 2.0 * theta[i]) * dU + theta[i] * d2U
        worst = max(worst, abs(lhs - rhs))
    return float(worst)


def a1_plus_explicit(p: PolyFunctional, xi, omega: OmegaSample,
                     measure: AtomicMeasure) -> float:
    """Adjoint of the smeared difference operator at an explicit
    configuration: sum_i s_i xi_i phi(omega with atom i removed) - <xi> phi,
    evaluated on omega and its m removed configurations as one batch."""
    xi = measure.check_function(np.asarray(xi, dtype=float))
    rows = np.repeat(omega.masses[None, :], p.m + 1, axis=0)
    rows[np.arange(1, p.m + 1), np.arange(p.m)] = 0.0
    values = evaluate_batch(p, rows, measure)
    return float((omega.masses * xi) @ values[1:]) \
        - measure.integrate(xi) * float(values[0])


def _taylor_stack(phi_m: PolyFunctional, atoms,
                  J: int) -> list[PolyFunctional]:
    """[phi, nabla_a^j phi for j = 1..J] for each atom a of atoms, in that
    order: the Taylor coefficients of a monomial phi along the mass of
    each of those atoms, up to order J."""
    stack = [phi_m]
    for a in atoms:
        d = phi_m
        for _ in range(J):
            d = nabla(d, int(a))
            stack.append(d)
    return stack


def _jump_removal_sum(taylor: np.ndarray, xi: np.ndarray, owners: np.ndarray,
                      bounds: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per sample row b, the sum of s xi_a phi(omega_b - s e_a) over the
    jumps (a, s) of row b, by the Taylor identity stated in
    a1_plus_mc_adjointness_check.  taylor holds the values of
    _taylor_stack(phi, support of xi, N) on the rows.  Jumps are atom-major,
    so each atom a of the support owns the segment bounds[a]:bounds[a+1]
    of the flat arrays; its power sums P_{a,r}, r = 1..N+1, take one
    bincount per r over the segment's owners."""
    support = np.flatnonzero(xi)
    rows, K = taylor.shape[0], support.size
    N = (taylor.shape[1] - 1) // max(K, 1)
    cols = np.hstack([np.zeros((K, 1), dtype=int),    # [k, j]: nabla_a^j phi
                      1 + np.arange(K * N).reshape(K, N)])
    sums = np.empty((N + 1, rows, K))
    for k, a in enumerate(support):
        seg = slice(bounds[a], bounds[a + 1])
        own, s = owners[seg], sizes[seg]
        power = s
        for j in range(N + 1):
            sums[j, :, k] = np.bincount(own, weights=power, minlength=rows)
            power = power * s
    signs = np.array([(-1.0) ** j / math.factorial(j) for j in range(N + 1)])
    return np.einsum("bkj,jbk,j,k->b", taylor[:, cols], sums, signs,
                     xi[support])


def a1_plus_mc_adjointness_check(phi: PolyFunctional, psi: PolyFunctional, xi,
                                 measure: AtomicMeasure,
                                 cfg: SamplerConfig) -> MCEstimate:
    """MC estimate of E[(a1+ phi) psi - phi (a1- psi)]; target 0.

    The adjoint formula removes one configuration point at a time, so the
    expectation must run over jump-resolved compound-Poisson samples:
    zeroing an atom's whole aggregated mass is not the adjoint (removal of
    a point of the configuration means removal of a single jump).  The
    smeared difference operator a1- is applied to psi on the kernel side.

    The removals are summed without forming one configuration per jump:
    phi is a polynomial of degree N, so by Taylor's formula the jump sum
    of a sample is sum_a xi_a sum_{j<=N} (-1)^j/j! (nabla_a^j phi)(omega)
    P_{a,j+1}, with P_{a,r} the sum of s^r over the sample's jumps at
    atom a.  Each batch takes two evaluate_batch calls: the monomial stack
    [phi, nabla_a^j phi for xi_a != 0, j <= N] and the Gamma-Wick pair
    [psi, a1- psi].  Jump removal is thereby exact up to rounding;
    truncating jumps below cfg.cp_truncation still biases the identity by
    O(eps).
    """
    xi = measure.check_function(np.asarray(xi, dtype=float))
    phi_m = phi.to_basis(Basis.MONOMIAL, measure)
    stack = _taylor_stack(phi_m, np.flatnonzero(xi), phi_m.degree)
    psi_w = psi.to_basis(Basis.GAMMA_WICK, measure)
    wick = [psi_w, PolyFunctional(Basis.GAMMA_WICK,
                                  annihilate1(xi, psi_w.kernels, measure))]
    xi_mass = measure.integrate(xi)

    def stat(masses, owners, bounds, sizes):
        taylor = evaluate_batch(stack, masses, measure)
        psi0, a1v = evaluate_batch(wick, masses, measure).T
        phi0 = taylor[:, 0]
        aplus = _jump_removal_sum(taylor, xi, owners, bounds, sizes) - xi_mass * phi0
        return aplus * psi0 - phi0 * a1v

    mean, se = mean_and_se(stat(*batch)
                           for batch in iter_jump_batches(measure, cfg))
    return MCEstimate(float(mean[0]), float(se[0]), cfg.n_samples)


def multiplication_reassembly_check(p: PolyFunctional, xi, omega: OmegaSample,
                                    measure: AtomicMeasure) -> CheckReport:
    """The Gamma field applied on the Fock side (creation + 2 neutral +
    <xi> id + both annihilations) against multiplication by <omega, xi>."""
    xi = measure.check_function(np.asarray(xi, dtype=float))
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    field = PolyFunctional(Basis.GAMMA_WICK,
                           gamma_field(xi, pw.kernels, measure))
    lhs, phi = evaluate_batch([field, pw], omega.masses[None, :], measure)[0]
    return CheckReport(float(lhs), omega.pair(xi) * float(phi))
