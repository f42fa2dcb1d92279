"""One-atom Taylor coefficients against whole rows.

Every form that varies one atom's mass reads the Taylor coefficients
D_{a,j} = nabla_a^j phi / j! at s_a, taken off the run table in the
functional's own basis (``wickcalc._taylor_at``).  Each is pinned here to
the route that evaluates whole rows (``oracles``): phi at the
configurations with s_a changed, the 64 shifted rows of an integral form,
the per-atom nabla^j stack of the monomial functional, and the removal
rows of the explicit jump adjoint.  Both bases; zero kernels, one atom,
weights 1e-2 and 1e2, degrees 0..4; the one-atom integral forms also at
weights 1e2 and 1e3 against exact rational values.

A comparison is scaled by the size of the terms summed, from absolute
values: |A| times |s|^k in the monomial basis, and |A| times
(-1)^k q_k(-s) >= |q_k(s)| in the Gamma-Wick basis, whose coefficients
alternate in sign.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from gwn.fieldops import create
from gwn.funcalc import (_gradient_form, a1_plus_explicit,
                         annihilate1_integral, del_integral,
                         second_annihilation_check)
from gwn.measure import AtomicMeasure
from gwn.symtensor import FockVector, SymTensor
from gwn.wickcalc import (Basis, OmegaSample, PolyFunctional, _taylor_at,
                          evaluate_batch)

seeds = st.integers(0, 2 ** 32 - 1)


def random_functional(rng, m: int, N: int, basis: Basis,
                      zero: bool = False) -> PolyFunctional:
    ks = [SymTensor(m, n) for n in range(N + 1)]
    if not zero:
        for k in ks:
            k.values = rng.uniform(-1.0, 1.0, k.values.size)
    return PolyFunctional(basis, FockVector(ks))


def term_size(p: PolyFunctional, rows: np.ndarray, mu: AtomicMeasure) -> np.ndarray:
    """Per row, the sum of the absolute values of the terms of phi(row)."""
    flip = -1.0 if p.basis is Basis.GAMMA_WICK else 1.0
    kernels = [SymTensor(p.m, n, flip ** n * np.abs(k.values))
               for n, k in enumerate(p.kernels.kernels)]
    return np.abs(evaluate_batch(PolyFunctional(p.basis, FockVector(kernels)),
                                 flip * np.abs(rows), mu))


@st.composite
def restriction_cases(draw):
    """A measure with weights in 10^[-2, 2], a functional of degree 0..4 in
    either basis (sometimes all zero), 1-3 rows of masses on the scale of
    their weights with some empty atoms, and a list of atoms."""
    m = draw(st.integers(1, 5))
    w = [10.0 ** draw(st.one_of(st.sampled_from([-2.0, 2.0]), st.floats(-2.0, 2.0)))
         for _ in range(m)]
    mu = AtomicMeasure(w)
    rng = np.random.default_rng(draw(seeds))
    p = random_functional(rng, m, draw(st.integers(0, 4)),
                          draw(st.sampled_from(Basis)),
                          zero=draw(st.booleans()) and draw(st.booleans()))
    B = draw(st.integers(1, 3))
    masses = mu.weights * rng.uniform(0.0, 4.0, (B, m)) * (rng.random((B, m)) < 0.8)
    atoms = draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True))
    return mu, p, masses, atoms


EDGES = [
    # (weights, degree, basis, zero kernels)
    ([1.3], 4, Basis.MONOMIAL, False),
    ([1.3], 4, Basis.GAMMA_WICK, False),
    ([0.8, 1.7, 0.6], 0, Basis.GAMMA_WICK, False),
    ([0.8, 1.7, 0.6], 3, Basis.MONOMIAL, True),
    ([1e-2, 1e-2, 1e-2], 4, Basis.GAMMA_WICK, False),
    ([1e-2, 1e-2, 1e-2], 4, Basis.MONOMIAL, False),
    ([1e2, 1e2, 1e2], 4, Basis.GAMMA_WICK, False),
    ([1e2, 1e2, 1e2], 4, Basis.MONOMIAL, False),
]
EDGE_IDS = ["one_atom_monomial", "one_atom_wick", "degree_0", "zero_kernels",
            "weights_1e-2_wick", "weights_1e-2_monomial", "weights_1e2_wick",
            "weights_1e2_monomial"]


def edge_case(weights, N, basis, zero):
    mu = AtomicMeasure(weights)
    rng = np.random.default_rng(29)
    masses = mu.weights * rng.uniform(0.0, 3.0, (2, mu.m))
    masses[1, 0] = 0.0
    return mu, random_functional(rng, mu.m, N, basis, zero), masses, list(range(mu.m))


def assert_restrictions_match_rows(mu, p, masses, atoms):
    """phi(omega with s_a := x) = sum_j D_{a,j} (x - s_a)^j at each row,
    atom and x, for one functional and the stack [p, 2 p]."""
    values, D = _taylor_at(p, masses, mu, atoms)
    assert values.shape == (len(masses),) and D.shape == (len(atoms), p.degree + 1,
                                                        len(masses))
    # phi(omega) is evaluate_batch's own sum
    assert np.array_equal(values, evaluate_batch(p, masses, mu))
    stacked_values, stacked = _taylor_at([p, 2.0 * p], masses, mu, atoms)
    size = np.maximum(1.0, term_size(p, masses, mu))
    assert np.all(np.abs(stacked_values - values[:, None] * [1.0, 2.0])
                  <= 2e-12 * size[:, None])
    for b, row in enumerate(masses):
        for j, a in enumerate(atoms):
            x = np.array([0.0, row[a], row[a] + 0.7, 0.5 * mu.weights[a],
                          3.0 * mu.weights[a] + 1.0])
            rows = oracles.varied_rows(row, a, x)
            want = evaluate_batch(p, rows, mu)
            table = (x - row[a]) ** np.arange(p.degree + 1)[:, None]
            got = D[j, :, b] @ table
            scale = np.maximum(1.0, term_size(p, rows, mu)
                               + term_size(p, row[None, :], mu))
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
            for f in range(2):
                assert np.all(np.abs(stacked[j, f, :, b] @ table - (f + 1) * want)
                              <= 2e-12 * scale)


@settings(max_examples=150, deadline=None)
@given(restriction_cases())
def test_restrictions_match_varied_rows(case):
    assert_restrictions_match_rows(*case)


@pytest.mark.parametrize("edge", EDGES, ids=EDGE_IDS)
def test_restrictions_edge_inputs(edge):
    assert_restrictions_match_rows(*edge_case(*edge))


def assert_integral_forms_match_rows(mu, p, masses, atoms):
    """del_integral at each atom and annihilate1_integral over a direction
    supported on the atoms, against the 64 shifted rows of each atom."""
    nodes, weights = oracles.RULE_NODES, oracles.RULE_WEIGHTS
    omega = OmegaSample(masses[0])
    base = p.evaluate(omega, mu)
    total = float(np.sum(weights))
    xi = np.zeros(mu.m)
    xi[atoms] = np.linspace(-1.0, 0.9, len(atoms))
    terms, smeared_scale = [], 0.0
    for a in range(mu.m):
        want = oracles.shifted_integral(p, omega, a, mu, nodes,
                                        weights) - base * total
        rows = oracles.varied_rows(omega.masses, a, omega.masses[a] + nodes)
        scale = weights @ term_size(p, rows, mu) \
            + total * term_size(p, omega.masses[None, :], mu)[0]
        assert abs(del_integral(p, a, omega, mu) - want) <= 1e-12 * max(1.0, scale)
        terms.append(mu.weights[a] * xi[a] * want)
        smeared_scale += abs(mu.weights[a] * xi[a]) * scale
    got = annihilate1_integral(p, xi, mu, omega)
    assert abs(got - math.fsum(terms)) <= 1e-12 * max(1.0, smeared_scale)


@settings(max_examples=80, deadline=None)
@given(restriction_cases())
def test_integral_forms_match_shifted_rows(case):
    assert_integral_forms_match_rows(*case)


@pytest.mark.parametrize("edge", EDGES, ids=EDGE_IDS)
def test_integral_forms_edge_inputs(edge):
    assert_integral_forms_match_rows(*edge_case(*edge))


def shift_moments(s: float, N: int, j0: int) -> np.ndarray:
    """[l] = sum_{j0 <= j <= l} C(l, j) j! s^(l-j), l <= N: from j0 = 0 the
    integral of (s + t)^l e^(-t) dt over (0, inf), from j0 = 1 that of
    (s + t)^l - s^l."""
    return np.array([sum(math.comb(l, j) * math.factorial(j) * s ** (l - j)
                         for j in range(j0, l + 1)) for l in range(N + 1)])


def exact_del_integral(basis: Basis, w: float, s: float, k: int) -> Fraction:
    """del_integral of one atom's s^k or q_k(s; w) in rational arithmetic at
    the float inputs: sum_{j>=1} C(k, j) j! s^(k-j), or k q_{k-1}(s; w)
    from its s^l coefficients (-1)^(n-l) C(n, l) rising(w+l, n-l), n = k-1."""
    s, w, n = Fraction(s), Fraction(w), k - 1
    if basis is Basis.MONOMIAL:
        return sum(math.comb(k, j) * math.factorial(j) * s ** (k - j)
                   for j in range(1, k + 1))
    return k * sum((-1) ** (n - l) * math.comb(n, l) * s ** l
                   * math.prod(w + l + i for i in range(n - l)) for l in range(n + 1))


@pytest.mark.parametrize("w", [0.01, 0.5, 1.3, 7.0, 100.0, 1000.0])
@pytest.mark.parametrize("basis", list(Basis))
def test_del_integral_one_atom_closed_forms(basis, w):
    """del_integral of one atom's s^k against sum_{j>=1} C(k, j) j! s^(k-j),
    and of its Wick power q_k(s; w) against k q_{k-1}(s; w), k = 1..8, past
    the degrees the strategies draw.  The bound is scaled by the size of
    the terms of the monomial expansion, from absolute coefficients.  At a
    heavy atom, w >= 100, the result is also within 1e-12 of the exact
    value relative to that value, or absolutely where it is 0 (q_1(w; w))."""
    mu, N = AtomicMeasure([w]), 8
    wick = oracles.wick_monic_table(w, N)
    for s in (0.0, 0.3 * w, w, 3.0 * w + 1.0):
        for k in range(1, N + 1):
            p = PolyFunctional(basis, FockVector(
                [SymTensor(1, n, np.array([float(n == k)])) for n in range(k + 1)]))
            if basis is Basis.GAMMA_WICK:
                coeffs = wick[k]
                want = k * np.polynomial.polynomial.polyval(s, wick[k - 1])
            else:
                coeffs, want = np.eye(N + 1)[k], shift_moments(s, N, 1)[k]
            size = np.abs(coeffs) @ shift_moments(s, N, 0)
            got = del_integral(p, 0, OmegaSample([s]), mu)
            assert abs(got - want) <= 1e-12 * size, (s, k)
            if w >= 100.0:
                exact = exact_del_integral(basis, w, s, k)
                err = abs(Fraction(got) - exact)
                assert err <= 1e-12 * (abs(exact) if exact else 1), (s, k)


def assert_gradient_forms_match_taylor_stack(mu, p, masses, atoms):
    """The gradient terms, the Taylor coefficients of the MC jump sum and
    the two right sides of the second annihilation check, against the
    nabla^j stack and the shifted rows of [phi, nabla_a phi]; the
    compensated right side also against the gradient-shift form, which
    integrates the shifted rows of nabla_a phi instead.  The Taylor
    coefficients of phi with absolute kernels, at the same rows, are the
    term sizes."""
    nodes, weights = oracles.RULE_NODES, oracles.RULE_WEIGHTS
    pm = p.to_basis(Basis.MONOMIAL, mu)
    size = PolyFunctional(Basis.MONOMIAL, FockVector(
        [SymTensor(mu.m, n, np.abs(k.values)) for n, k in enumerate(pm.kernels.kernels)]))
    omega = OmegaSample(masses[0])
    # the Taylor coefficients at every row and atom of the list, read in
    # p's own basis and in the monomial one
    want = oracles.taylor_values(pm, masses, atoms, mu, pm.degree)
    scale = oracles.taylor_values(size, masses, atoms, mu, pm.degree)
    for q in (p, pm):
        D = _taylor_at(q, masses, mu, atoms)[1]
        assert np.all(np.abs(D.transpose(2, 0, 1) - want)
                      <= 1e-12 * np.maximum(1.0, scale))
    # the gradient terms at the first row, over every atom
    xi = np.zeros(mu.m)
    xi[atoms] = np.linspace(-1.0, 0.9, len(atoms))
    _, base, g1, g2, dphi, _ = _gradient_form(create, p, xi, omega, mu)
    D = oracles.taylor_values(pm, masses[:1], range(mu.m), mu, 2)[0]
    Ds = np.maximum(1.0, oracles.taylor_values(size, masses[:1], range(mu.m), mu, 2)[0])
    assert abs(base - D[0, 0]) <= 1e-12 * Ds[0, 0]
    assert np.all(np.abs(g1 - D[:, 1]) <= 1e-12 * Ds[:, 1])
    assert np.all(np.abs(g2 - 2.0 * D[:, 2]) <= 2e-12 * Ds[:, 2])
    wxi = mu.weights * xi
    assert abs(dphi - wxi @ D[:, 1]) <= 1e-12 * (np.abs(wxi) @ Ds[:, 1])
    # the second annihilation check's right sides
    rep = second_annihilation_check(p, xi, omega, mu)
    phi, *forms = oracles.second_annihilation_forms(p, xi, omega, mu,
                                                    nodes, weights)
    lead = omega.masses @ np.abs(xi * 2.0 * Ds[:, 2]) + np.abs(wxi) @ Ds[:, 1]
    comp, grad = lead + abs(mu.integrate(xi)) * Ds[0, 0], lead
    for a in np.flatnonzero(xi):
        rows = oracles.varied_rows(omega.masses, a, omega.masses[a] + nodes)
        shifted = oracles.taylor_values(size, rows, [a], mu, 1)[:, 0]
        comp += abs(wxi[a]) * (weights @ shifted[:, 0] + Ds[0, 0])
        grad += abs(wxi[a]) * (weights @ shifted[:, 1])
    assert abs(rep.phi - phi) <= 1e-12 * Ds[0, 0]
    got = (rep.rhs_compensated, rep.rhs_compensated, rep.rhs_uncompensated)
    for g, f, s in zip(got, forms, (comp, grad, comp)):
        assert abs(g - f) <= 1e-12 * max(1.0, s)


@settings(max_examples=80, deadline=None)
@given(restriction_cases())
def test_gradient_forms_match_taylor_stack(case):
    assert_gradient_forms_match_taylor_stack(*case)


@pytest.mark.parametrize("edge", EDGES, ids=EDGE_IDS)
def test_gradient_forms_edge_inputs(edge):
    assert_gradient_forms_match_taylor_stack(*edge_case(*edge))


def assert_explicit_adjoint_matches_removal_rows(mu, p, masses, atoms):
    """sum_i s_i xi_i phi(omega with s_i := 0) - <xi> phi(omega), each
    removal one explicit row."""
    omega = OmegaSample(masses[0])
    xi = np.zeros(mu.m)
    xi[atoms] = np.linspace(-1.0, 0.9, len(atoms))
    removed = np.array([evaluate_batch(p, oracles.varied_rows(omega.masses, a, 0.0),
                                       mu)[0] for a in range(mu.m)])
    base = p.evaluate(omega, mu)
    want = float((omega.masses * xi) @ removed) - mu.integrate(xi) * base
    sizes = [term_size(p, oracles.varied_rows(omega.masses, a, [0.0, omega.masses[a]]),
                       mu).sum() for a in range(mu.m)]
    scale = float(np.abs(omega.masses * xi) @ sizes) \
        + abs(mu.integrate(xi)) * term_size(p, masses[:1], mu)[0]
    assert abs(a1_plus_explicit(p, xi, omega, mu) - want) <= 1e-12 * max(1.0, scale)


@settings(max_examples=80, deadline=None)
@given(restriction_cases())
def test_a1_plus_explicit_matches_removal_rows(case):
    assert_explicit_adjoint_matches_removal_rows(*case)


@pytest.mark.parametrize("edge", EDGES, ids=EDGE_IDS)
def test_a1_plus_explicit_edge_inputs(edge):
    assert_explicit_adjoint_matches_removal_rows(*edge_case(*edge))
