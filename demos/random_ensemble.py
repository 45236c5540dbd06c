# Ensemble sweep: the loss/centrality identity is not a fixture artifact.
#
# Seeded random systems of varying size and density, swept over a grid of
# recovery and interpolation rates. Every run must clear in one round under
# the full-default shock and match the centrality solve to within
# 1e-8 * max(1, ||l||_inf).

import numpy as np

import clearnet as cn

R_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
M_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)

worst = 0.0
runs = 0
for seed in range(40):
    n_banks = 2 + (seed * 7) % 30
    density = 0.2 + 0.6 * ((seed * 0.31) % 1.0)
    system = cn.generate_random_system(seed=seed, n_banks=n_banks, density=density)

    rho = cn.spectral_radius(system.claims_csr)
    assert rho < 1.0, "sink node keeps the radius below one"

    for r in R_GRID:
        params = cn.ClearingParams(r=r)
        for m in M_GRID:
            report = cn.verify_full_shock_equivalence(system, params, m)
            assert report.passed and report.one_step
            worst = max(worst, report.max_abs_gap)
            runs += 1

print(f"{runs} (system, r, m) runs -- all passed, worst gap {worst:.3e}")

# Homogeneity: the whole construction is degree-1 in currency units, so
# redenominating the balance sheets rescales payments exactly.
system = cn.generate_random_system(seed=4, n_banks=15, density=0.5)
scenario = cn.full_default_shock(system, 0.4)
shocked = cn.shocked_system(system, scenario)
params = cn.ClearingParams(r=0.7)
base = cn.fictitious_default_sequence(shocked, params).payments
for c in (1e-3, 1e3):
    scaled_system = cn.build_system(
        c * shocked.liabilities,
        c * shocked.pre_shock_assets,
        c * shocked.external_assets,
    )
    scaled = cn.fictitious_default_sequence(scaled_system, params).payments
    print(f"scale {c:g}: max relative drift "
          f"{np.abs(scaled - c * base).max() / (c * base.max()):.2e}")

# Partial-default stress: hit a random subset of banks and cross-check the
# default-set iteration against the slow fixed-point oracle.
rng = np.random.default_rng(123)
worst = 0.0
for trial in range(25):
    system = cn.generate_random_system(seed=100 + trial, n_banks=20, density=0.3)
    a = system.external_assets.copy()
    hit = rng.choice(20, size=rng.integers(1, 21), replace=False)
    a[hit] *= rng.uniform(0.0, 0.5, size=hit.size)
    stressed = system.with_external_assets(a)
    params = cn.ClearingParams(r=rng.uniform(0.3, 1.0))
    solution = cn.fictitious_default_sequence(stressed, params)
    oracle = cn.picard_clearing_oracle(stressed, params)
    worst = max(worst, np.abs(solution.payments - oracle)[stressed.banks].max())
print(f"25 partial-default scenarios -- worst oracle gap {worst:.3e}")
