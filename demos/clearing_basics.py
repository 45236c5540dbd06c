# Clearing basics: who pays what when a shock hits an obligation network.
#
# Two banks owe each other and the outside world (the sink node, stored
# last). We clear the system as-is, then wipe out most of their assets and
# watch both banks fail and pay out only what their remaining assets are
# worth.

import numpy as np

import clearnet as cn

L = [[0, 2, 8],   # bank 1 owes 2 to bank 2 and 8 outside
     [3, 0, 7],   # bank 2 owes 3 to bank 1 and 7 outside
     [0, 0, 0]]   # the sink owes nothing
system = cn.build_system(L, pre_shock_assets=[8.0, 9.0, 1.0])

l = cn.total_liabilities(system)
C = cn.relative_claims(system).matrix
print("total liabilities:", l)
print("claims matrix C (who holds what share of each debtor):")
print(C.toarray())
print("interbank claims (C l):", C @ l)

# Solvent world: everyone pays in full, only the sink is flagged (by
# convention it is always 'in default' so the algebra stays well posed).
params = cn.ClearingParams(r=0.8)   # 80% recovery on claims against failures
solution = cn.fictitious_default_sequence(system, params)
print("\nno shock -> payments:", solution.payments[:2], "defaults:",
      solution.defaults.flags[:2])

# Now a harsh shock: assets drop from (8, 9) to (3.5, 4). Equity at full
# payment would be (3.5 + 3 - 10, 4 + 2 - 10) < 0, so both banks are in
# fundamental default and pay r * (claims value) + assets instead of l.
shocked = system.with_external_assets([3.5, 4.0, 1.0])
solution = cn.fictitious_default_sequence(shocked, params)
print("\nshocked  -> payments:", solution.payments[:2])
print("defaults:", solution.defaults.flags[:2],
      "rounds:", solution.iterations,
      "fixed-point residual:", solution.residual)

sigma = cn.systemic_loss(solution, l)
print("systemic loss l - p:", sigma[:2])

# The slow-but-assumption-free route: iterate the clearing map from full
# payment until it stops moving. It lands on the same vector.
oracle = cn.picard_clearing_oracle(shocked, params)
print("\nfixed-point oracle gap:", np.abs(oracle - solution.payments)[:2].max())

# Losses rescaled by how hard each bank was hit relative to its pre-shock
# resources (shock / (assets + interbank claims)).
adjusted = cn.capitalization_adjusted_loss(solution, shocked)
print("capitalization-adjusted loss:", adjusted[:2])
