#!/usr/bin/env python3
"""Symmetric sign-matrix singularity: exact values, Monte Carlo, exact rank
laws over F_5, identities.

Every Monte Carlo decision is exact.  Switching a sign matrix M so that its
first row and column are all +1 leaves a 0/1 matrix B of order n - 1 (its
switched complement) with det M = +-2^(n-1) det B.  Fraction-free
elimination of B is exact integer arithmetic in float for its first 13
steps (Hadamard's bound on 0/1 minors keeps every value below 2^53, and
below 2^24 for the first 11 steps, which run in float32), which decides
n <= 15; past that, the trailing block gets its rank modulo the prime
16381 and any block flagged there is confirmed with an exact integer
determinant.
The long-run comparison target is the folklore value n^2 2^{1-n} (two equal
rows/columns up to sign).
"""

from fractions import Fraction

from rholab import PrimeModulus, ZpVector
from rholab import matrix_lab as ml
from rholab.rng import substream

print("exact singularity probabilities, one matrix per switching class:")
for n in range(1, 7):
    val = ml.singularity_exact(n)
    print(f"  n = {n}: {val} = {float(val):.6f}")
print()

print("Monte Carlo at 3*10^4 trials vs the n^2 2^(1-n) target:")
print(f"{'n':>3s} {'estimate':>10s} {'wilson 95%':>24s} {'target':>10s}")
for n in (4, 6, 8, 10, 12, 14, 16):
    est = ml.singularity_mc_sharded(n, 30000, master_seed=0)
    lo, hi = est.wilson95
    print(f"{n:3d} {est.point_estimate:10.5f} [{lo:10.5f}, {hi:10.5f}] "
          f"{est.conjecture_value:10.5f}")
print("(the target is asymptotic; at desk n it only sets the decay shape)")
print()

print("exact rank laws over F_5, one matrix per switching class:")
laws = {m: ml.rank_law_exact(m, PrimeModulus(5)) for m in range(1, 7)}
for m, law in laws.items():
    print(f"  m = {m}: Pr(rk M_m = k), k = 0..{m}: {', '.join(map(str, law))}")
checks = [(m, k, 2 * m - k - 1) for m in range(2, 7) for k in range(m) if 2 * m - k - 1 <= 6]
bad = [(m, k) for m, k, m2 in checks if laws[m][k] > 2 * laws[m2][m2 - 1]]
print(f"  Pr(rk M_m = k) <= 2 Pr(rk M_(2m-k-1) = 2m-k-2) on {len(checks)} instances, "
      f"exactly; violations: {bad}")
print()

print("spot checks of the exhaustive identities (n = 4, p = 5):")
p5 = PrimeModulus(5)
g = substream(0, "demo6-id", 0)
v = ZpVector((1, 2, 0, 4))
w = ZpVector((0, 0, 0, 0))
match = ml.match_probability_exact(v, w, p5)
print(f"  Pr(M v = 0) = {match} <= 2^-4 = {Fraction(1, 16)}")
res = ml.block_probability_exact(v, w, [0], [1, 2, 3], p5)
print(f"  row-block: Pr = {res.probability} <= rho(v_Y)^1 = {res.bound}: {res.holds}")
count, holds = ml.odlyzko_check([(1, 1, 1, 1), (1, 4, 1, 4)], 4, p5)
print(f"  sign vectors in a 2-dim span: {count} <= 2^2: {holds}")
q = ml.q_exact(2, p5, Fraction(4, 5), (0, 0))
print(f"  q_2(4/5) at w = 0 over Z_5: {q} (no vector is that concentrated)")
