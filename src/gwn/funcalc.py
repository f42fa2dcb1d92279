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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_laguerre

from .errors import DimensionError, DomainError
from .fieldops import annihilate1, annihilate2, create, gamma_field, neutral
from .gammasample import (MCEstimate, SamplerConfig, iter_jump_batches,
                          mean_and_se)
from .measure import AtomicMeasure
from .symtensor import FockVector, SymTensor, _merge_ranks, sym_product
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


def _slot_lower(kernels: FockVector, atom: int) -> FockVector:
    """f_n -> n f_n(atom, .) degreewise; shared by both derivative bases."""
    m = kernels.m
    if kernels.degree == 0:
        return FockVector.zeros(m, 0)
    out = []
    for n in range(1, kernels.degree + 1):
        tab = _merge_ranks(m, n - 1, 1)
        out.append(SymTensor(m, n - 1, n * kernels.get(n).values[tab[:, atom]]))
    return FockVector(out)


def nabla(p: PolyFunctional, atom: int,
          measure: AtomicMeasure | None = None) -> PolyFunctional:
    """Gateaux derivative in the unit point-mass direction at one atom."""
    pm = p.to_basis(Basis.MONOMIAL, measure)
    _check_atom(atom, pm.m)
    return PolyFunctional(Basis.MONOMIAL, _slot_lower(pm.kernels, atom))


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
    return PolyFunctional(Basis.GAMMA_WICK, _slot_lower(pw.kernels, atom))


def del_dagger(p: PolyFunctional, atom: int,
               measure: AtomicMeasure) -> PolyFunctional:
    """Adjoint of the Wick derivative under the dualization pairing:
    symmetrized insertion of the point-mass density delta_atom/w_atom."""
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    _check_atom(atom, pw.m)
    dens = SymTensor(pw.m, 1, measure.delta_density(atom))
    out = [SymTensor(pw.m, 0)]
    for n in range(pw.degree + 1):
        out.append(sym_product(dens, pw.kernels.get(n)))
    return PolyFunctional(Basis.GAMMA_WICK, FockVector(out))


def _shifted_integral(pm: PolyFunctional, omega: OmegaSample, atom: int,
                      measure: AtomicMeasure) -> float:
    """int_0^inf phi(omega + s delta_atom) e^(-s) ds for a monomial phi."""
    rule = _rule()
    masses = np.repeat(omega.masses[None, :], rule.nodes.size, axis=0)
    masses[:, atom] += rule.nodes
    return rule.integrate(evaluate_batch(pm, masses, measure))


def del_integral(p: PolyFunctional, atom: int, omega: OmegaSample,
                 measure: AtomicMeasure) -> float:
    """Integral form of the Wick derivative at one configuration:
    int_0^inf (phi(omega + s delta_atom) - phi(omega)) e^(-s) ds."""
    pm = p.to_basis(Basis.MONOMIAL, measure)
    _check_atom(atom, pm.m)
    base = pm.evaluate(omega, measure)
    return _shifted_integral(pm, omega, atom, measure) \
        - base * float(np.sum(_rule().weights))


def annihilate1_integral(p: PolyFunctional, xi, measure: AtomicMeasure,
                         omega: OmegaSample) -> float:
    """Smeared integral form: sum_i w_i xi_i del_integral(p, i)."""
    xi = measure.check_function(np.asarray(xi, dtype=float))
    return math.fsum(float(w * x) * del_integral(p, i, omega, measure)
                     for i, (w, x) in enumerate(zip(measure.weights, xi))
                     if x != 0.0)


def coordinate_multiply(p: PolyFunctional, atom: int,
                        measure: AtomicMeasure) -> PolyFunctional:
    """Multiplication by the configuration density at one atom:
    dagger + 2 dagger del + id + del + dagger del del on Wick kernels."""
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    _check_atom(atom, pw.m)
    d1 = wick_del(pw, atom)
    d2 = wick_del(d1, atom)
    out = del_dagger(pw, atom, measure) + 2.0 * del_dagger(d1, atom, measure) \
        + pw + d1 + del_dagger(d2, atom, measure)
    return out


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


def _gradient_terms(pm: PolyFunctional, omega: OmegaSample,
                    measure: AtomicMeasure) -> tuple[float, np.ndarray, np.ndarray]:
    """phi(omega), first and second per-atom nabla values at omega."""
    base = pm.evaluate(omega, measure)
    g1 = np.empty(pm.m)
    g2 = np.empty(pm.m)
    for i in range(pm.m):
        ni = nabla(pm, i)
        g1[i] = ni.evaluate(omega, measure)
        g2[i] = nabla(ni, i).evaluate(omega, measure)
    return base, g1, g2


def creation_gradient_check(p: PolyFunctional, xi, omega: OmegaSample,
                            measure: AtomicMeasure) -> CheckReport:
    """Creation operator vs its gradient form:
    <omega(x), xi (nabla - 1)^2 phi> + (D_xi - <xi>) phi."""
    xi = measure.check_function(np.asarray(xi, dtype=float))
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    lhs = PolyFunctional(Basis.GAMMA_WICK,
                         create(xi, pw.kernels)).evaluate(omega, measure)
    pm = p.to_basis(Basis.MONOMIAL, measure)
    base, g1, g2 = _gradient_terms(pm, omega, measure)
    dphi = d_xi(pm, xi, measure).evaluate(omega, measure)
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
    _, g1, g2 = _gradient_terms(pm, omega, measure)
    dphi = d_xi(pm, xi, measure).evaluate(omega, measure)
    rhs = float(omega.masses @ (xi * (g1 - g2))) - dphi
    return CheckReport(lhs, rhs)


@dataclass(frozen=True)
class SecondAnnihilationReport:
    """The second annihilation operator against three published forms.

    The compensated form <omega(x), xi nabla^2 phi> + D_xi phi minus the
    smeared difference integral, and the equivalent gradient-shift form,
    both agree with the Fock side.  The uncompensated variant that
    additionally subtracts <xi> phi does not: its residual equals
    2 <xi> phi, which is reported rather than hidden.
    """

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
    base, _, g2 = _gradient_terms(pm, omega, measure)
    dphi = d_xi(pm, xi, measure).evaluate(omega, measure)
    lead = float(omega.masses @ (xi * g2)) + dphi
    rhs_comp = lead - annihilate1_integral(pm, xi, measure, omega)
    shift = uncomp = 0.0
    for i in np.flatnonzero(xi):
        c = float(measure.weights[i] * xi[i])
        shift += c * _shifted_integral(nabla(pm, i), omega, i, measure)
        uncomp += c * _shifted_integral(pm, omega, i, measure)
    rhs_grad = lead - shift
    rhs_unc = lead - uncomp - measure.integrate(xi) * base
    return SecondAnnihilationReport(lhs, rhs_comp, rhs_grad, rhs_unc)


def stransform_multiplication_check(p: PolyFunctional, theta,
                                    measure: AtomicMeasure) -> float:
    """S-transform of coordinate multiplication against
    (theta_x + 1) U + (1 + 2 theta_x) grad_x U + theta_x grad_x^2 U,
    maximized over atoms.  grad here differentiates U in theta."""
    theta = measure.check_function(np.asarray(theta, dtype=float))
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    U = s_transform(pw, theta, measure)
    worst = 0.0
    for i in range(pw.m):
        # theta-derivative toward delta_i: slot evaluation of the kernels
        dU_f = PolyFunctional(Basis.GAMMA_WICK, _slot_lower(pw.kernels, i))
        d2U_f = PolyFunctional(Basis.GAMMA_WICK, _slot_lower(dU_f.kernels, i))
        dU = s_transform(dU_f, theta, measure)
        d2U = s_transform(d2U_f, theta, measure)
        lhs = s_transform(coordinate_multiply(pw, i, measure), theta, measure)
        rhs = (theta[i] + 1.0) * U + (1.0 + 2.0 * theta[i]) * dU + theta[i] * d2U
        worst = max(worst, abs(lhs - rhs))
    return worst


def a1_plus_explicit(p: PolyFunctional, xi, omega: OmegaSample,
                     measure: AtomicMeasure) -> float:
    """Adjoint of the smeared difference operator at an explicit
    configuration: sum_i s_i xi_i phi(omega with atom i removed) - <xi> phi."""
    xi = measure.check_function(np.asarray(xi, dtype=float))
    pm = p.to_basis(Basis.MONOMIAL, measure)
    total = 0.0
    for i in range(pm.m):
        if omega.masses[i] == 0.0 or xi[i] == 0.0:
            continue
        total += omega.masses[i] * xi[i] * pm.evaluate(omega.without_atom(i), measure)
    return total - measure.integrate(xi) * pm.evaluate(omega, measure)


def _removal_derivatives(phi_m: PolyFunctional, xi: np.ndarray):
    """(a, [nabla_a^j phi for j = 1..N]) for each atom a with xi_a != 0:
    the Taylor coefficients of a monomial phi along the mass of atom a."""
    out = []
    for a in np.flatnonzero(xi):
        ds = [phi_m]
        for _ in range(phi_m.degree):
            ds.append(nabla(ds[-1], int(a)))
        out.append((int(a), ds[1:]))
    return out


def _jump_removal_sum(phi0: np.ndarray, derivs, xi: np.ndarray,
                      masses: np.ndarray, owners: np.ndarray,
                      atoms: np.ndarray, sizes: np.ndarray,
                      measure: AtomicMeasure) -> np.ndarray:
    """Per sample row b, the sum of s xi_a phi(omega_b - s e_a) over the
    jumps (a, s) of row b, by the Taylor identity stated in
    a1_plus_mc_adjointness_check; phi0 = phi(omega_b) and derivs come from
    _removal_derivatives.  Every evaluation runs on the sample rows."""
    rows = masses.shape[0]
    total = np.zeros(rows)
    for a, ds in derivs:
        mine = atoms == a
        own, s = owners[mine], sizes[mine]
        power = s
        acc = phi0 * np.bincount(own, weights=power, minlength=rows)
        for j, d in enumerate(ds, start=1):
            power = power * s
            acc += ((-1.0) ** j / math.factorial(j)) \
                * evaluate_batch(d, masses, measure) \
                * np.bincount(own, weights=power, minlength=rows)
        total += xi[a] * acc
    return total


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
    atom a.  Jump removal is thereby exact up to rounding; truncating
    jumps below cfg.cp_truncation still biases the identity by O(eps).
    """
    xi = measure.check_function(np.asarray(xi, dtype=float))
    phi_m = phi.to_basis(Basis.MONOMIAL, measure)
    psi_m = psi.to_basis(Basis.MONOMIAL, measure)
    psi_w = psi.to_basis(Basis.GAMMA_WICK, measure)
    a1_psi = PolyFunctional(Basis.GAMMA_WICK, annihilate1(
        xi, psi_w.kernels, measure)).to_basis(Basis.MONOMIAL, measure)
    xi_mass = measure.integrate(xi)
    derivs = _removal_derivatives(phi_m, xi)

    def stat(masses, owners, atoms, sizes):
        phi0 = evaluate_batch(phi_m, masses, measure)
        psi0 = evaluate_batch(psi_m, masses, measure)
        a1v = evaluate_batch(a1_psi, masses, measure)
        aplus = _jump_removal_sum(phi0, derivs, xi, masses, owners, atoms,
                                  sizes, measure) - xi_mass * phi0
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
    return CheckReport(field.evaluate(omega, measure),
                       omega.pair(xi) * p.evaluate(omega, measure))
