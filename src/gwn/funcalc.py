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
phi(omega + s delta_x) - phi(omega) against e^(-s) ds (computed here with
Gauss-Laguerre quadrature, exact for polynomial integrands).

The coordinate multiplication operator omega(x). decomposes into Wick
derivative/adjoint compositions, and the check_* functions compare the
Fock-side creation, neutral, and two annihilation operators against their
gradient-form expressions at sampled configurations.  D_xi denotes the
Gateaux derivative in the direction of the measure with density xi, i.e.
D_xi = sum_i w_i xi_i nabla_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_laguerre

from .errors import ContractError, DimensionError, DomainError
from .fieldops import annihilate1, annihilate2, create, neutral
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


def _as_monomial(p: PolyFunctional, measure: AtomicMeasure | None) -> PolyFunctional:
    if p.basis is Basis.MONOMIAL:
        return p
    if measure is None:
        raise ContractError("basis conversion requires the reference measure")
    return p.to_basis(Basis.MONOMIAL, measure)


def _as_wick(p: PolyFunctional, measure: AtomicMeasure | None) -> PolyFunctional:
    if p.basis is Basis.GAMMA_WICK:
        return p
    if measure is None:
        raise ContractError("basis conversion requires the reference measure")
    return p.to_basis(Basis.GAMMA_WICK, measure)


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
    pm = _as_monomial(p, measure)
    _check_atom(atom, pm.m)
    return PolyFunctional(Basis.MONOMIAL, _slot_lower(pm.kernels, atom))


def d_xi(p: PolyFunctional, xi, measure: AtomicMeasure) -> PolyFunctional:
    """Derivative in the direction of the measure xi dsigma:
    D_xi = sum_i w_i xi_i nabla_i (one fused kernel contraction)."""
    pm = _as_monomial(p, measure)
    xi = measure.check_function(np.asarray(xi, dtype=float))
    return PolyFunctional(Basis.MONOMIAL, annihilate1(xi, pm.kernels, measure))


def wick_del(p: PolyFunctional, atom: int,
             measure: AtomicMeasure | None = None) -> PolyFunctional:
    """The Wick derivative: slot evaluation on Gamma-Wick kernels."""
    pw = _as_wick(p, measure)
    _check_atom(atom, pw.m)
    return PolyFunctional(Basis.GAMMA_WICK, _slot_lower(pw.kernels, atom))


def del_dagger(p: PolyFunctional, atom: int,
               measure: AtomicMeasure) -> PolyFunctional:
    """Adjoint of the Wick derivative under the dualization pairing:
    symmetrized insertion of the point-mass density delta_atom/w_atom."""
    pw = _as_wick(p, measure)
    _check_atom(atom, pw.m)
    dens = SymTensor(pw.m, 1, measure.delta_density(atom))
    out = [SymTensor(pw.m, 0)]
    for n in range(pw.degree + 1):
        out.append(sym_product(dens, pw.kernels.get(n)))
    return PolyFunctional(Basis.GAMMA_WICK, FockVector(out))


def _shifted_values(pm: PolyFunctional, omega: OmegaSample, atom: int,
                    rule: QuadratureRule, measure: AtomicMeasure) -> np.ndarray:
    masses = np.repeat(omega.masses[None, :], rule.nodes.size, axis=0)
    masses[:, atom] += rule.nodes
    return evaluate_batch(pm, masses, measure)


def del_integral(p: PolyFunctional, atom: int, omega: OmegaSample,
                 measure: AtomicMeasure,
                 rule: QuadratureRule | None = None) -> float:
    """Integral form of the Wick derivative at one configuration:
    int_0^inf (phi(omega + s delta_atom) - phi(omega)) e^(-s) ds."""
    if rule is None:
        rule = gauss_laguerre_rule()
    pm = _as_monomial(p, measure)
    _check_atom(atom, pm.m)
    base = pm.evaluate(omega, measure)
    vals = _shifted_values(pm, omega, atom, rule, measure)
    return rule.integrate(vals) - base * float(np.sum(rule.weights))


def annihilate1_integral(p: PolyFunctional, xi, measure: AtomicMeasure,
                         omega: OmegaSample,
                         rule: QuadratureRule | None = None) -> float:
    """Smeared integral form: sum_i w_i xi_i del_integral(p, i)."""
    xi = measure.check_function(np.asarray(xi, dtype=float))
    return math.fsum(float(w * x) * del_integral(p, i, omega, measure, rule)
                     for i, (w, x) in enumerate(zip(measure.weights, xi))
                     if x != 0.0)


def coordinate_multiply(p: PolyFunctional, atom: int,
                        measure: AtomicMeasure) -> PolyFunctional:
    """Multiplication by the configuration density at one atom:
    dagger + 2 dagger del + id + del + dagger del del on Wick kernels."""
    pw = _as_wick(p, measure)
    _check_atom(atom, pw.m)
    d1 = wick_del(pw, atom)
    d2 = wick_del(d1, atom)
    out = del_dagger(pw, atom, measure) + 2.0 * del_dagger(d1, atom, measure) \
        + pw + d1 + del_dagger(d2, atom, measure)
    return out


def functional_max_diff(a: PolyFunctional, b: PolyFunctional,
                        measure: AtomicMeasure) -> float:
    """Kernelwise max abs difference, compared in the monomial basis."""
    am = _as_monomial(a, measure)
    bm = _as_monomial(b, measure)
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
    pm = _as_monomial(p, measure)
    pw = _as_wick(p, measure)
    N = p.degree
    _check_atom(atom, p.m)
    j = atom if other_atom is None else other_atom
    _check_atom(j, p.m)

    acc = None
    term = pm
    for _ in range(1, N + 1):
        term = nabla(term, atom)
        acc = term if acc is None else acc + term
    if acc is None:
        acc = PolyFunctional(Basis.MONOMIAL, FockVector.zeros(p.m, 0))
    dev1 = functional_max_diff(wick_del(pw, atom), acc, measure)

    acc2 = None
    termw = pw
    for k in range(1, N + 1):
        termw = wick_del(termw, atom)
        signed = termw if k % 2 == 1 else (-1.0) * termw
        acc2 = signed if acc2 is None else acc2 + signed
    if acc2 is None:
        acc2 = PolyFunctional(Basis.GAMMA_WICK, FockVector.zeros(p.m, 0))
    dev2 = functional_max_diff(nabla(pm, atom), acc2, measure)

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
    pw = _as_wick(p, measure)
    lhs = PolyFunctional(Basis.GAMMA_WICK,
                         create(xi, pw.kernels)).evaluate(omega, measure)
    pm = _as_monomial(p, measure)
    base, g1, g2 = _gradient_terms(pm, omega, measure)
    dphi = d_xi(pm, xi, measure).evaluate(omega, measure)
    rhs = float(omega.masses @ (xi * (g2 - 2.0 * g1 + base))) \
        + dphi - measure.integrate(xi) * base
    return CheckReport(lhs, rhs)


def neutral_gradient_check(p: PolyFunctional, xi, omega: OmegaSample,
                           measure: AtomicMeasure) -> CheckReport:
    """Neutral operator vs <omega(x), xi nabla(1 - nabla) phi> - D_xi phi."""
    xi = measure.check_function(np.asarray(xi, dtype=float))
    pw = _as_wick(p, measure)
    lhs = PolyFunctional(Basis.GAMMA_WICK,
                         neutral(xi, pw.kernels)).evaluate(omega, measure)
    pm = _as_monomial(p, measure)
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
                              measure: AtomicMeasure,
                              rule: QuadratureRule | None = None
                              ) -> SecondAnnihilationReport:
    if rule is None:
        rule = gauss_laguerre_rule()
    xi = measure.check_function(np.asarray(xi, dtype=float))
    pw = _as_wick(p, measure)
    lhs = PolyFunctional(Basis.GAMMA_WICK,
                         annihilate2(xi, pw.kernels)).evaluate(omega, measure)
    pm = _as_monomial(p, measure)
    base, _, g2 = _gradient_terms(pm, omega, measure)
    dphi = d_xi(pm, xi, measure).evaluate(omega, measure)
    lead = float(omega.masses @ (xi * g2)) + dphi
    a1 = annihilate1_integral(pm, xi, measure, omega, rule)
    rhs_comp = lead - a1
    shift = 0.0
    for i in range(pm.m):
        if xi[i] == 0.0:
            continue
        vals = _shifted_values(nabla(pm, i), omega, i, rule, measure)
        shift += float(measure.weights[i] * xi[i]) * rule.integrate(vals)
    rhs_grad = lead - shift
    uncomp = 0.0
    for i in range(pm.m):
        vals = _shifted_values(pm, omega, i, rule, measure)
        uncomp += float(measure.weights[i] * xi[i]) * rule.integrate(vals)
    rhs_unc = lead - uncomp - measure.integrate(xi) * base
    return SecondAnnihilationReport(lhs, rhs_comp, rhs_grad, rhs_unc)


def stransform_multiplication_check(p: PolyFunctional, theta,
                                    measure: AtomicMeasure) -> float:
    """S-transform of coordinate multiplication against
    (theta_x + 1) U + (1 + 2 theta_x) grad_x U + theta_x grad_x^2 U,
    maximized over atoms.  grad here differentiates U in theta."""
    theta = measure.check_function(np.asarray(theta, dtype=float))
    pw = _as_wick(p, measure)
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
    pm = _as_monomial(p, measure)
    total = 0.0
    for i in range(pm.m):
        if omega.masses[i] == 0.0 or xi[i] == 0.0:
            continue
        total += omega.masses[i] * xi[i] * pm.evaluate(omega.without_atom(i), measure)
    return total - measure.integrate(xi) * pm.evaluate(omega, measure)


def a1_plus_mc_adjointness_check(phi: PolyFunctional, psi: PolyFunctional, xi,
                                 measure: AtomicMeasure,
                                 cfg: SamplerConfig) -> MCEstimate:
    """MC estimate of E[(a1+ phi) psi - phi (a1- psi)]; target 0.

    The adjoint formula removes one configuration point at a time, so the
    expectation must run over jump-resolved compound-Poisson samples:
    zeroing an atom's whole aggregated mass is not the adjoint (removal of
    a point of the configuration means removal of a single jump).  The
    smeared difference operator a1- is applied to psi on the kernel side.
    Truncating jumps below cfg.cp_truncation biases the identity by O(eps).
    """
    xi = measure.check_function(np.asarray(xi, dtype=float))
    phi_m = _as_monomial(phi, measure)
    psi_m = _as_monomial(psi, measure)
    psi_w = _as_wick(psi, measure)
    a1_psi = _as_monomial(PolyFunctional(Basis.GAMMA_WICK,
                                         annihilate1(xi, psi_w.kernels, measure)),
                          measure)
    xi_mass = measure.integrate(xi)

    def stat(masses, owners, atoms, sizes):
        phi0 = evaluate_batch(phi_m, masses, measure)
        psi0 = evaluate_batch(psi_m, masses, measure)
        a1v = evaluate_batch(a1_psi, masses, measure)
        aplus = -xi_mass * phi0
        if owners.size:
            removed = masses[owners]
            removed[np.arange(owners.size), atoms] -= sizes
            np.maximum(removed, 0.0, out=removed)  # clear rounding dust
            contrib = sizes * xi[atoms] * evaluate_batch(phi_m, removed, measure)
            aplus = aplus + np.bincount(owners, weights=contrib,
                                        minlength=masses.shape[0])
        return aplus * psi0 - phi0 * a1v

    mean, se = mean_and_se(stat(*batch)
                           for batch in iter_jump_batches(measure, cfg))
    return MCEstimate(float(mean[0]), float(se[0]), cfg.n_samples)


def multiplication_reassembly_check(p: PolyFunctional, xi, omega: OmegaSample,
                                    measure: AtomicMeasure,
                                    rule: QuadratureRule | None = None
                                    ) -> CheckReport:
    """Creation + 2 neutral + <xi> id + both annihilations, each through its
    gradient/integral form, against multiplication by <omega, xi>."""
    xi = measure.check_function(np.asarray(xi, dtype=float))
    pm = _as_monomial(p, measure)
    base = pm.evaluate(omega, measure)
    aplus = creation_gradient_check(p, xi, omega, measure).rhs
    azero = neutral_gradient_check(p, xi, omega, measure).rhs
    a1 = annihilate1_integral(pm, xi, measure, omega, rule)
    a2 = second_annihilation_check(p, xi, omega, measure, rule).rhs_compensated
    lhs = aplus + 2.0 * azero + measure.integrate(xi) * base + a1 + a2
    rhs = omega.pair(xi) * base
    return CheckReport(lhs, rhs)
