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
phi(omega + s delta_x) - phi(omega) against e^(-s) ds.  Over finitely many
atoms that integrand is a polynomial in s, so the exact moments
int_0^inf s^j e^(-s) ds = j! integrate it from its Taylor coefficients:
the integral form is sum_{j>=1} nabla_x^j phi(omega), the pointwise form
of the series identity above.

The coordinate multiplication operator omega(x). decomposes into Wick
derivative/adjoint compositions, and the check_* functions compare the
Fock-side creation, neutral, and two annihilation operators against their
gradient-form expressions at sampled configurations.  The reassembly check
applies the Gamma field itself (creation + 2 neutral + <xi> id + both
annihilations) on the Fock side and compares it with multiplication by
<omega, xi>.  D_xi denotes the Gateaux derivative in the direction of the
measure with density xi, i.e. D_xi = sum_i w_i xi_i nabla_i.

Every form that varies one atom's mass reads one helper,
``wickcalc._taylor_at``: the Taylor coefficients nabla_a^j phi / j! at
s_a, taken off the run table in phi's own basis (for Gamma-Wick kernels,
by q_k' = k q_{k-1} at shape w + 1), with no change of basis.  The
integral forms weigh those by j!, the gradient forms and the S-transform
check (x = w theta) read the first two, and a jump removal, MC or
explicit, sums them against the jump's power sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .fieldops import (_lower, _raise, annihilate1, annihilate2, create,
                       gamma_field, neutral)
from .gammasample import (MCEstimate, SamplerConfig, _upper_gammas, expectation,
                          mc_jump_accumulate, moment_table)
from .measure import AtomicMeasure
from .symtensor import FockVector, _atom_runs
from .wickcalc import (Basis, OmegaSample, PolyFunctional, _taylor_at,
                       evaluate_batch, s_transform)


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
    xi = measure.real_function(xi)
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
    creation operator at the point-mass density delta_atom/w_atom, which
    raises onto the one column of its atom."""
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    _check_atom(atom, pw.m)
    return PolyFunctional(Basis.GAMMA_WICK,
                          _raise(pw.kernels, measure.delta_density(atom), [atom]))


def _shift_integrals(p: PolyFunctional, omega: OmegaSample, atoms,
                     measure: AtomicMeasure) -> np.ndarray:
    """Per atom a of atoms, with f phi's one-atom restriction at a,
    int_0^inf (f(s_a + s) - f(s_a)) e^(-s) ds = sum_{j>=1} j! D_j from the
    Taylor coefficients D_j of f at s_a, since int s^j e^(-s) ds = j!.
    By parts it is also int_0^inf f'(s_a + s) e^(-s) ds."""
    D = _taylor_at(p, omega.masses[None, :], measure, atoms)[1][..., 0]
    return D[:, 1:] @ np.cumprod(np.arange(1.0, D.shape[1]))


def del_integral(p: PolyFunctional, atom: int, omega: OmegaSample,
                 measure: AtomicMeasure) -> float:
    """Integral form of the Wick derivative at one configuration:
    int_0^inf (phi(omega + s delta_atom) - phi(omega)) e^(-s) ds, exactly:
    the integrand is a polynomial in s, so it is sum_{j>=1} nabla_atom^j
    phi(omega), the pointwise form of wick_del = sum_{n>=1} nabla^n."""
    _check_atom(atom, p.m)
    return float(_shift_integrals(p, omega, [atom], measure)[0])


def annihilate1_integral(p: PolyFunctional, xi, measure: AtomicMeasure,
                         omega: OmegaSample) -> float:
    """Smeared integral form: sum_i w_i xi_i del_integral(p, i), over the
    atoms with xi_i != 0, from one pass over their Taylor coefficients."""
    xi = measure.real_function(xi)
    atoms = np.flatnonzero(xi)
    return math.fsum((measure.weights * xi)[atoms]
                     * _shift_integrals(p, omega, atoms, measure))


def coordinate_multiply(p: PolyFunctional, atom: int,
                        measure: AtomicMeasure) -> PolyFunctional:
    """Multiplication by the configuration density at one atom: the five
    terms dagger + 2 dagger del + id + del + dagger del del on Wick kernels.
    The dagger is linear, so its three terms take one raise:
    dagger(1 + 2 del + del del) + id + del."""
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    _check_atom(atom, pw.m)
    d1 = wick_del(pw, atom)
    d2 = wick_del(d1, atom)
    return del_dagger(pw + 2.0 * d1 + d2, atom, measure) + pw + d1


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


def _gradient_form(op, p: PolyFunctional, xi: np.ndarray, omega: OmegaSample,
                   measure: AtomicMeasure) -> tuple:
    """The Fock side op(xi, .) on p's Gamma-Wick kernels at omega, then, from
    phi's Taylor coefficients D (m, max(N, 2) + 1) at each atom in p's own
    basis, phi(omega), the first and second nabla_a phi(omega), D_xi phi(omega)
    = sum_a w_a xi_a nabla_a phi(omega) of its gradient form, and D."""
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    lhs = PolyFunctional(Basis.GAMMA_WICK, op(xi, pw.kernels)).evaluate(omega, measure)
    (base,), D = _taylor_at(p, omega.masses[None, :], measure, range(p.m), 2)
    D = D[..., 0]
    return (lhs, float(base), D[:, 1], 2.0 * D[:, 2],
            float((measure.weights * xi) @ D[:, 1]), D)


def creation_gradient_check(p: PolyFunctional, xi, omega: OmegaSample,
                            measure: AtomicMeasure) -> CheckReport:
    """Creation operator vs its gradient form:
    <omega(x), xi (nabla - 1)^2 phi> + (D_xi - <xi>) phi."""
    xi = measure.real_function(xi)
    lhs, base, g1, g2, dphi, _ = _gradient_form(create, p, xi, omega, measure)
    rhs = float(omega.masses @ (xi * (g2 - 2.0 * g1 + base))) \
        + dphi - measure.integrate(xi) * base
    return CheckReport(lhs, rhs)


def neutral_gradient_check(p: PolyFunctional, xi, omega: OmegaSample,
                           measure: AtomicMeasure) -> CheckReport:
    """Neutral operator vs <omega(x), xi nabla(1 - nabla) phi> - D_xi phi."""
    xi = measure.real_function(xi)
    lhs, _, g1, g2, dphi, _ = _gradient_form(neutral, p, xi, omega, measure)
    return CheckReport(lhs, float(omega.masses @ (xi * (g1 - g2))) - dphi)


@dataclass(frozen=True)
class SecondAnnihilationReport:
    """The second annihilation operator against two published forms.

    The compensated form <omega(x), xi nabla^2 phi> + D_xi phi minus the
    smeared difference integral agrees with the Fock side.  The
    uncompensated variant that additionally subtracts <xi> phi does not:
    its residual equals 2 <xi> phi, which is reported rather than hidden;
    phi is phi(omega).  The gradient-shift form equals the compensated one
    by parts, from the same exact moments, so it is not computed again;
    the tests integrate it by a quadrature rule against rhs_compensated.
    """

    phi: float
    lhs: float
    rhs_compensated: float
    rhs_uncompensated: float

    @property
    def deviation(self) -> float:
        return abs(self.lhs - self.rhs_compensated)

    @property
    def uncompensated_residual(self) -> float:
        return abs(self.lhs - self.rhs_uncompensated)


def second_annihilation_check(p: PolyFunctional, xi, omega: OmegaSample,
                              measure: AtomicMeasure) -> SecondAnnihilationReport:
    xi = measure.real_function(xi)
    lhs, base, _, g2, dphi, D = _gradient_form(annihilate2, p, xi, omega, measure)
    lead = float(omega.masses @ (xi * g2)) + dphi
    atoms = np.flatnonzero(xi)
    # the difference integrals of _shift_integrals, from the same D
    diff = D[atoms, 1:] @ np.cumprod(np.arange(1.0, D.shape[1]))
    wxi = (measure.weights * xi)[atoms]
    rhs_comp = lead - math.fsum(wxi * diff)
    rhs_unc = lead - wxi @ (diff + base) - measure.integrate(xi) * base
    return SecondAnnihilationReport(base, lhs, rhs_comp, rhs_unc)


def stransform_multiplication_check(p: PolyFunctional, theta,
                                    measure: AtomicMeasure) -> float:
    """S-transform of coordinate multiplication against
    (theta_x + 1) U + (1 + 2 theta_x) grad_x U + theta_x grad_x^2 U,
    maximized over atoms; grad differentiates U in theta toward delta_x/w_x.
    U is the monomial functional with p's Gamma-Wick kernels at s = w theta,
    so grad_x^j U / j! are the Taylor coefficients of its restriction."""
    theta = measure.real_function(theta)
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    lhs = np.array([s_transform(coordinate_multiply(pw, i, measure), theta, measure)
                    for i in range(pw.m)])
    (U,), D = _taylor_at(PolyFunctional(Basis.MONOMIAL, pw.kernels),
                         (measure.weights * theta)[None, :], measure, range(pw.m), 2)
    D = D[..., 0]
    rhs = (theta + 1.0) * U + (1.0 + 2.0 * theta) * D[:, 1] + 2.0 * theta * D[:, 2]
    return float(np.max(np.abs(lhs - rhs)))


def a1_plus_explicit(p: PolyFunctional, xi, omega: OmegaSample,
                     measure: AtomicMeasure) -> float:
    """Adjoint of the smeared difference operator at an explicit
    configuration: sum_i s_i xi_i phi(omega with atom i removed) - <xi> phi.
    The removals are the MC jump sum (_jump_removals) of a configuration
    whose atom i holds one jump of size s_i, power sums P_{i,r} = s_i^r."""
    xi = measure.real_function(xi)
    s = omega.masses
    sums = (s[:, None] ** np.arange(1, p.degree + 2))[..., None]
    (phi,), (removed,) = _jump_removals(p, xi, s[None, :], sums, measure)
    return float(removed) - measure.integrate(xi) * float(phi)


def _jump_removals(phi: PolyFunctional, xi: np.ndarray, masses: np.ndarray,
                   sums: np.ndarray, measure: AtomicMeasure):
    """phi(omega) per sample row, and the row's sum of s xi_a phi(omega -
    s e_a) over its jumps (a, s), by the Taylor identity stated in
    a1_plus_mc_adjointness_check: one einsum of the (K, N+1, B) Taylor
    coefficients nabla_a^j phi / j! at the atoms a of the support of xi,
    their power sums P_{a,j+1} = sums[a, j], xi_a and the signs (-1)^j."""
    support = np.flatnonzero(xi)
    phi0, taylor = _taylor_at(phi, masses, measure, support)
    signs = (-1.0) ** np.arange(taylor.shape[1])
    return phi0, np.einsum("kjb,kjb,j,k->b", taylor, sums[support], signs,
                           xi[support])


def a1_plus_mc_adjointness_check(phi: PolyFunctional, psi: PolyFunctional, xi,
                                 measure: AtomicMeasure,
                                 cfg: SamplerConfig) -> MCEstimate:
    """MC estimate of E[(a1+ phi) psi - phi (a1- psi)], 0 under the Gamma
    law; its target at the truncation the jumps are drawn at is
    adjointness_target(phi, psi, xi, measure, cfg.cp_truncation).

    The adjoint formula removes one configuration point at a time, so the
    expectation must run over jump-resolved compound-Poisson samples:
    zeroing an atom's whole aggregated mass is not the adjoint (removal of
    a point of the configuration means removal of a single jump).  The
    smeared difference operator a1- is applied to psi on the kernel side.

    The removals are summed without forming one configuration per jump:
    phi is a polynomial of degree N, so by Taylor's formula the jump sum
    of a sample is sum_a xi_a sum_{j<=N} (-1)^j/j! (nabla_a^j phi)(omega)
    P_{a,j+1}, with P_{a,r} the sum of s^r over the sample's jumps at
    atom a.  The batches carry those power sums up to r = N + 1, and
    nothing here knows how jumps are laid out.  Each batch takes the
    Taylor coefficients nabla_a^j phi / j! of phi at the atoms with
    xi_a != 0 (_taylor_at), and one evaluate_batch call of the Gamma-Wick
    pair [psi, a1- psi].  Jump removal is thereby exact up to rounding.
    Dropping the jumps below eps = cfg.cp_truncation moves the mean O(eps)
    off 0, and adjointness_target gives it exactly, so eps need not be
    small.  The draw and this statistic run inside the pass of
    mc_jump_accumulate, one batch after another on the caller's thread;
    the batches' sums are reduced in batch order.
    """
    xi = measure.real_function(xi)
    psi_w = psi.to_basis(Basis.GAMMA_WICK, measure)
    wick = [psi_w, PolyFunctional(Basis.GAMMA_WICK,
                                  annihilate1(xi, psi_w.kernels, measure))]
    xi_mass = measure.integrate(xi)

    def stat(masses, sums):
        phi0, removals = _jump_removals(phi, xi, masses, sums, measure)
        psi0, a1v = evaluate_batch(wick, masses, measure).T
        return (removals - xi_mass * phi0) * psi0 - phi0 * a1v

    mean, se = mc_jump_accumulate(measure, cfg, phi.degree + 1, stat)
    return MCEstimate(float(mean[0]), float(se[0]), cfg.n_samples)


def adjointness_target(phi: PolyFunctional, psi: PolyFunctional, xi,
                       measure: AtomicMeasure, eps: float) -> float:
    """The exact mean of the statistic of a1_plus_mc_adjointness_check,
    E[(a1+ phi) psi - phi (a1- psi)], under the compound-Poisson law
    truncated at eps (the Gamma law at eps = 0).

    The jumps at atom a are a Poisson process of intensity w_a e^(-s)/s ds
    on [eps, inf), so by the Mecke formula (Last and Penrose, Lectures on
    the Poisson Process) the jump sum of a1+ phi has

        E[sum_{jumps (a, s)} s xi_a phi(omega - s e_a) psi(omega)]
            = sum_a w_a xi_a int_eps^inf e^(-s) E[phi(omega) psi(omega + s e_a)] ds
            = E[phi sum_a w_a xi_a sum_j Gamma(j+1, eps) D_{a,j} psi],

    D_{a,j} = nabla_a^j / j! the Taylor coefficients of psi along atom a.
    a1- psi is taken in its integral form sum_a w_a xi_a sum_{j>=1} j!
    D_{a,j} psi, and <xi> psi = sum_a w_a xi_a D_{a,0} psi, so the target
    is E[phi chi] with chi = sum_a w_a xi_a sum_{j>=0} (Gamma(j+1, eps) -
    j!) D_{a,j} psi: minus what the jumps below eps would add.  It is 0 at
    eps = 0, the paper's identity.  The Fock-side a1- that the statistic
    applies is not read, so an annihilation that breaks moves the estimate
    and not its target.  chi's monomial coefficients come from psi's by
    lowering all atoms at once through the run table, and E[phi chi] is
    one ``expectation`` against the truncated law's moment table.
    """
    xi = measure.real_function(xi)
    m, A = measure.m, psi.to_basis(Basis.MONOMIAL, measure).kernels.coeffs
    N = psi.degree
    # [j] = Gamma(j+1, eps) - j!, j = 0..N
    c = _upper_gammas(N + 1, eps) - np.cumprod(np.maximum(np.arange(N + 1), 1.0))
    wxi = measure.weights * xi
    chi = c[0] * wxi.sum() * A
    if N:
        entry, copies, _ = _atom_runs(m, N)
        D = np.broadcast_to(A, (m, A.size))   # [a] = D_{a,j} psi, j = 0
        for j in range(1, N + 1):
            # the s^k coefficient of nabla_a D_{a,j-1} is (k_a + 1) times
            # its s^(k + e_a) coefficient
            lowered = np.zeros_like(D)
            lowered[:, :entry.shape[1]] = copies * np.take_along_axis(D, entry, axis=1) / j
            D = lowered
            chi = chi + c[j] * (wxi @ D)
    chi = PolyFunctional(Basis.MONOMIAL, FockVector._from_coeffs(m, N, chi))
    return expectation(phi, measure, moment_table(measure, phi.degree + N, eps), chi)


def multiplication_reassembly_check(p: PolyFunctional, xi, omega: OmegaSample,
                                    measure: AtomicMeasure) -> CheckReport:
    """The Gamma field applied on the Fock side (creation + 2 neutral +
    <xi> id + both annihilations) against multiplication by <omega, xi>."""
    xi = measure.real_function(xi)
    pw = p.to_basis(Basis.GAMMA_WICK, measure)
    field = PolyFunctional(Basis.GAMMA_WICK,
                           gamma_field(xi, pw.kernels, measure))
    lhs, phi = evaluate_batch([field, pw], omega.masses[None, :], measure)[0]
    return CheckReport(float(lhs), omega.pair(xi) * float(phi))
