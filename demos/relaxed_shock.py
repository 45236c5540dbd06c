# Relaxed shocks: defaulting everyone with less force.
#
# The full-default shock is blunt -- every bank fails on fundamentals. Two
# gentler constructions also end with every node defaulted:
#
#   1. a stepwise search that shrinks assets on a grid until the *cleared*
#      system shows a full default set, and
#   2. a self-referential interpolation s_i = m(l_i - (C p)_i) - o_i whose
#      fixed point has the closed form q = m (I - (r-m) C)^{-1} l.

import numpy as np

import clearnet as cn

system = cn.build_system([[0, 2, 8], [3, 0, 7], [0, 0, 0]], [8.0, 9.0, 1.0])
params = cn.ClearingParams(r=0.8)

# 1. Stepwise search. Step k scales each bank's assets to (1 - k/max_steps)
# of its default headroom l - Cl; the first k whose clearing solution flags
# every node wins. Every bank with l_i > (C l)_i is already in fundamental
# default at k = 1, so here the search accepts k = 1 after one clear; when
# some bank can only fail through contagion, it probes k = max_steps and
# bisects the steps in between.
scenario = cn.relaxed_shock_search(system, params, max_steps=1000)
print("search accepted step:", scenario.search_steps, "of", scenario.max_steps)
print("post-shock assets:", scenario.post_shock_assets[:2])
print("effective interpolation:", scenario.interpolation)

# A bank that owes nothing can never default, no matter the shock; the
# search reports exactly who blocked it.
fortress = cn.build_system([[0, 0, 0], [5, 0, 5], [0, 0, 0]], [4.0, 3.0, 1.0])
try:
    cn.relaxed_shock_search(fortress, params, max_steps=50)
except cn.SearchExhausted as exc:
    print("\nsearch exhausted, solvent banks:", exc.solvent_banks)

# 2. Self-referential interpolation, resolved in closed form and certified
# by rerunning the full clearing model on the induced assets.
cert = cn.relaxed_interpolated_shock(system, cn.ClearingParams(r=0.5), m=0.5)
print("\ncandidate q:", cert.candidate[:2])
print("clearing p: ", cert.clearing.payments[:2])
print("certification gap:", cert.candidate_gap)

# An alternative closed form, (I - (r-m)C)^{-1} m (l + r C l), does not
# reproduce the certified solution; its residual is reported as data so the
# discrepancy stays visible. For r = m = 0.5 on this system it evaluates to
# r l + r^2 C l = (5.75, 5.5) against the certified (5, 5).
print("\nalternative closed form:", cert.printed_payments[:2])
print("its gap to the certified solution:", cert.printed_gap)

# The certified vector satisfies the rearranged self-consistency identity
# p = m l + (r - m) C p:
p = cert.clearing.payments
l = system.total_liabilities
C = system.claims_csr.toarray()
identity_gap = np.abs(p - (0.5 * l + 0.0 * (C @ p)))[:2].max()
print("\nself-consistency residual (r = m):", identity_gap)
