# The headline identity: under a system-wide shock, clearing losses ARE a
# generalized Katz centrality.
#
# The full-default shock scales every bank's assets into the interval where
# it fails even if everyone else pays in full. The clearing iteration then
# converges in a single round, and the loss vector l - p solves
# (I - r C) sigma = beta with beta_i = (1-m) l_i - (r-m) (C l)_i -- a Katz
# system with the claims matrix as the attenuated adjacency.

import numpy as np

import clearnet as cn

system = cn.generate_random_system(seed=8, n_banks=12, density=0.35)
r, m = 0.8, 0.5
params = cn.ClearingParams(r=r)

# Route one: shock, then clear.
scenario = cn.full_default_shock(system, m)
shocked = cn.shocked_system(system, scenario)
solution = cn.fictitious_default_sequence(shocked, params)
sigma_clearing = cn.systemic_loss(solution, system.total_liabilities)
print("clearing rounds:", solution.iterations, "(always 1 under this shock)")
print("all nodes defaulted:", bool(solution.defaults.flags.all()))

# Route two: one linear solve on the unshocked system.
beta = cn.beta_vector(system, r, m)
katz = cn.generalized_katz(system.claims_csr, r, beta)
print("centrality residual:", katz.residual)

banks = system.banks
gap = np.abs(sigma_clearing - katz.sigma)[banks].max()
print("\nmax |(l - p) - (I - rC)^-1 beta| over banks:", gap)

ranking_clearing = np.argsort(-sigma_clearing[banks])
ranking_katz = np.argsort(-katz.sigma[banks])
print("same loss ranking either way:", np.array_equal(ranking_clearing, ranking_katz))
print("\nmost exposed banks (by either measure):", ranking_clearing[:5])

# The same equivalence, packaged as a pass/fail report:
report = cn.verify_full_shock_equivalence(system, params, m)
print("\nverify_full_shock_equivalence ->",
      "PASS" if report.passed else "FAIL",
      f"(gap {report.max_abs_gap:.2e}, tol {report.tolerance:.2e})")

# Caveat the losses-as-centrality view earns only under these conditions:
# every bank must already be in fundamental default. On the unshocked
# system the clearing model shows no losses at all, while the centrality
# vector is oblivious to capitalization:
quiet = cn.fictitious_default_sequence(system, params)
print("\nunshocked losses:", cn.systemic_loss(quiet, system.total_liabilities)[banks].max(),
      "-- but sigma_katz ignores assets entirely:", katz.sigma[banks].max())
