"""Centered configuration powers, their recurrence, and Laguerre systems.

The Gamma-Wick power of degree n is the kernel that makes monomials of a
mass configuration orthogonal across degrees.  Its pairing against
rank-one directions obeys a three-term recurrence; on a single cell the
values are, up to sign and normalization, generalized Laguerre
polynomials, and summing the whole series gives a closed-form
exponential.
"""

import math

import numpy as np
from scipy.special import eval_genlaguerre, poch

from gwn.extfock import fock_inner_n
from gwn.measure import AtomicMeasure
from gwn.symtensor import rank_one
from gwn.wickcalc import (OmegaSample, laguerre_system, wick_exp,
                          wick_kernel, wick_pair_rank_one)

mu = AtomicMeasure([2.0, 0.5])
om = OmegaSample([3.0, 1.0])

# ------------------------------------------------------- the first kernels
# Degree 1 is the centered density (s_i / w_i) - 1.
k1 = wick_kernel(om, mu, 1)
print("degree-1 kernel (centered density):", k1.values)
print("  by hand:", om.masses / mu.weights - 1.0)

# ------------------------------------------- two routes to the same pairing
# Kernel route: pair the degree-n kernel with xi^(x)n.
# Scalar route: Taylor coefficients of the Wick exponential, whose log is a
# sum over cells.
xi = np.array([0.6, -0.4])
q = wick_pair_rank_one(om, xi, mu, 5)
print("\npairings <:omega^n:, xi^n> by two independent routes:")
for n in range(6):
    kernel_side = fock_inner_n(mu, wick_kernel(om, mu, n), rank_one(xi, n))
    print(f"  n={n}: scalar {q[n]:+.8f}   kernel {kernel_side:+.8f}")

# ------------------------------------------------- single cell = Laguerre
# One cell of mass sigma: the degree-n pairing at direction 1 equals
# c_n P_n(s) with P_n the orthonormal Laguerre-type polynomial, i.e.
# (-1)^n n! L_n^(sigma-1)(s).
sigma, s = 1.7, 2.3
cell = AtomicMeasure([sigma])
q_cell = wick_pair_rank_one(OmegaSample([s]), [1.0], cell, 4)
print(f"\nsingle cell sigma={sigma}, mass s={s}:")
ls = laguerre_system(sigma, 4)
for n in range(5):
    c_n = math.sqrt(math.factorial(n) * poch(sigma, n))
    via_ortho = c_n * ls.evaluate(n, s)
    via_classical = (-1.0) ** n * math.factorial(n) \
        * eval_genlaguerre(n, sigma - 1.0, s)
    print(f"  q_{n} {q_cell[n]:+.8f}   c_n P_n {via_ortho:+.8f}   "
          f"(-1)^n n! L_n {via_classical:+.8f}")

# --------------------------------------------------- the Wick exponential
# Summing q_n / n! converges, for |phi| < 1, to
#   exp[ <omega, phi/(1+phi)> - Integral log(1+phi) ].
phi = np.array([0.1, -0.08])
series, closed = wick_exp(om, phi, mu, 12)
print(f"\nWick exponential at phi={phi}:")
print(f"  truncated series (N=12): {series:.12f}")
print(f"  closed form:             {closed:.12f}")
print(f"  gap: {abs(series - closed):.2e}")
