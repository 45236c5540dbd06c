# Why the clearing algebra is safe: the sink node pins the claims-matrix
# radius strictly below one.
#
# Every solve in the package inverts I - r C (or a masked block of it).
# Without a sink, a system where every bank has creditors makes C
# column-stochastic: radius exactly 1, so r = 1 is off the table. Adding a
# sink column of zeros drains the matrix and pushes the radius below 1, so
# even full recovery is invertible.

import numpy as np

import clearnet as cn

# No sink: two banks owing only each other -> column-stochastic block.
loop = np.array([[0.0, 1.0], [1.0, 0.0]])
print("radius without sink:", cn.spectral_radius(loop))
ok, report = cn.check_invertibility(loop, r=1.0)
print("invertible at r = 1?", ok, "-- admissible interval:", report.invertible_for_r)

# With a sink: same two banks, but each also owes the outside world.
system = cn.build_system([[0, 2, 8], [3, 0, 7], [0, 0, 0]], [8.0, 9.0, 1.0])
C = cn.relative_claims(system).matrix
print("\nclaims matrix with sink column:")
print(C.toarray())
print("radius with sink:", cn.spectral_radius(C))
ok, report = cn.check_invertibility(C, r=1.0)
print("invertible at r = 1?", ok, "-- admissible interval:", report.invertible_for_r)

# The Collatz-Wielandt quotient certifies lower bounds on the radius: for
# any nonnegative test vector x, min_i (xC)_i / x_i <= rho(C). The uniform
# vector on the no-sink loop certifies rho >= 1 exactly -- estimator noise
# can never make that matrix look invertible at r = 1.
print("\ncertified lower bound (uniform x, no sink):",
      cn.collatz_wielandt_value(loop, np.ones(2)))
print("certified lower bound (with sink):", report.collatz_wielandt_lower,
      "<= estimate:", report.radius_estimate)

# Masking rows and columns to a default set only shrinks the radius, which
# is what makes the reduced solves inside the clearing iteration safe too.
rng = np.random.default_rng(0)
for trial in range(3):
    big = cn.generate_random_system(seed=trial, n_banks=20, density=0.4)
    Cb = cn.relative_claims(big).matrix
    flags = rng.random(big.node_count) < 0.5
    flags[big.sink] = True
    masked = Cb * np.outer(flags, flags)
    print(f"trial {trial}: rho(DCD) = {cn.spectral_radius(masked):.4f} "
          f"<= rho(C) = {cn.spectral_radius(Cb):.4f} ->",
          cn.corollary_radius_bound(Cb, cn.DefaultIndicator(flags=flags)))
