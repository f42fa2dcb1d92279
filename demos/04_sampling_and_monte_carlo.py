"""Sampling the Gamma configuration law and checking it by Monte Carlo.

Two samplers produce the same law: independent Gamma masses per atom,
and a compound-Poisson cloud of jumps with density e^(-s)/s aggregated
per atom (jumps below a small cutoff dropped).  The Monte Carlo
estimators draw the Gamma masses; the jump batches serve checks that need
the jumps themselves.  Against those samples the closed-form Laplace
transform, the orthogonality of the centered powers, and the
multiple-integral identity can all be verified with standard errors.
"""

import numpy as np

from gwn.gammasample import (SamplerConfig, iter_jump_batches, iter_sample_batches,
                             laplace_target, mc_chaos_gram, mc_laplace,
                             multiple_integral_identity, sample_omega)
from gwn.measure import AtomicMeasure
from gwn.wickcalc import OmegaSample

mu = AtomicMeasure([1.0, 0.5, 2.0])


def draw_matrix(cfg):
    return np.concatenate([S for _, S in iter_sample_batches(mu, cfg)])


# ------------------------------------------------------------- two samplers
print("one configuration, per-atom Gamma masses:")
print(" ", sample_omega(mu, SamplerConfig(seed=11, n_samples=1)).masses)
print("one configuration, aggregated compound-Poisson jumps (same law):")
masses, _ = next(iter_jump_batches(mu, SamplerConfig(seed=11, n_samples=1)))
print(" ", masses[0])

# Marginal moments: atom i has mean w_i and variance w_i.
big = SamplerConfig(seed=1, n_samples=200000)
S = draw_matrix(big)
print("\nempirical mean ", S.mean(axis=0), " target", mu.weights)
print("empirical var  ", S.var(axis=0), " target", mu.weights)

# --------------------------------------------------------- Laplace transform
# E exp <omega, phi> = exp[-Integral log(1 - phi)] for phi < 1.
phi = np.array([0.3, -0.25, 0.2])
est = mc_laplace(mu, phi, big)
target = laplace_target(mu, phi)
z = (est.mean - target) / est.std_error
print(f"\nLaplace transform at phi={phi}:")
print(f"  estimate {est.mean:.5f} +- {est.std_error:.5f}  "
      f"target {target:.5f}  z={z:+.2f}")

# ---------------------------------------------------- chaos orthogonality
# Pairings of different centered degrees are uncorrelated; equal degrees
# reproduce the n!-weighted extended product of the directions.
f = np.array([0.6, -0.3, 0.2])
g = np.array([-0.4, 0.5, 0.3])
rep = mc_chaos_gram(mu, f, g, SamplerConfig(seed=2, n_samples=100000), 3)
print("\nGram matrix E[<:omega^n:, f^n><:omega^k:, g^k>], degrees 0..3:")
for n in range(4):
    row = "  ".join(f"{rep.means[n, k]:+8.4f}" for k in range(4))
    tgt = "  ".join(f"{rep.targets[n, k]:+8.4f}" for k in range(4))
    print(f"  est [{row}]   target [{tgt}]")
print(f"  worst deviation in SE units: {rep.max_sigma_deviation():.2f}")

# ----------------------------------------------- multiple-integral identity
# For disjoint indicator blocks the product of centered block masses is
# exactly the degree-n centered pairing, configuration by configuration.
chis = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, 1.0])]
om = OmegaSample(S[0])
lhs, rhs = multiple_integral_identity(mu, chis, om)
print(f"\nproduct of three centered block masses at one sample:")
print(f"  product {lhs:+.10f}   degree-3 pairing {rhs:+.10f}   "
      f"gap {abs(lhs - rhs):.2e}")
