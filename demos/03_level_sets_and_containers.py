#!/usr/bin/env python3
"""Level sets, frequency fingerprints, and container sets.

For a structured vector the level set T_t(v) collects the few frequencies
that correlate with every coordinate; the container C(S) built from such a
set then captures the coordinates themselves.  The script shows the whole
pipeline and two deterministic facts about it:

  * |C(S)| <= 4p / |S| for every nonempty S,
  * if S lies in T_t(v) with t <= n/128, at most n/4 coordinates escape C(S).

It also demonstrates the sharpness scan for the cosine inequality behind the
container-size argument: the constant 2^4 commonly quoted for
1 - c ||x||^2 <= cos(2 pi x) is too small; the sharp constant is 2 pi^2.
"""

import math
from fractions import Fraction

from rholab import PrimeModulus, container, frequency_set, level_set
from rholab.containers import gen_gap_vector, lemma_contain_check
from rholab.rng import substream

p = PrimeModulus(101)
n = 256
g = substream(0, "demo3", 0)
v = gen_gap_vector(0, [1], [4], n, p, g)  # entries uniform in {1, 2, 3, 4}

print(f"GAP vector, entries in {{1..4}}, n = {n}, p = {p.p}")
for t in (Fraction(1, 2), Fraction(2), Fraction(8), Fraction(32)):
    q = level_set(v, t, p)
    print(f"  |T_{float(t):<4g}(v)| = {len(q):3d}   members near 0: "
          f"{sorted(m if m <= 50 else m - 101 for m in q)[:9]}")

f = frequency_set(v, p)
print(f"frequency fingerprint F(v) = T_log p(v): {sorted(f)}")
b = container(f, p)
print(f"container C(F(v)): size {b.size} (bound 4p/|F| = {4 * p.p / len(f):.1f})")
outside = sum(1 for e in v.entries if e not in b.members)
print(f"coordinates of v outside C(F(v)): {outside} of {n}")
print()

t = Fraction(2)
s = level_set(v, t, p)
count, holds = lemma_contain_check(v, s, t, p)
print(f"containment lemma at t = {t}: escaped = {count} <= n/4 = {n // 4}: {holds}")
print()

print("container-size bound across random frequency sets (p = 61):")
p61 = PrimeModulus(61)
worst = 0.0
for i in range(200):
    gg = substream(0, "demo3-sizes", i)
    size = int(gg.integers(1, 30))
    s = frozenset(int(x) for x in gg.choice(61, size=size, replace=False))
    c = container(s, p61)
    worst = max(worst, c.size * len(s) / (4 * 61))
    assert c.size * len(s) <= 4 * 61
print(f"  200 sets checked, worst |C(S)| * |S| / 4p = {worst:.3f} (must be <= 1)")
print()

print("cosine inequality scan on x = 0, 1/1000, ..., 1:")
bad_16 = [x / 1000 for x in range(1001)
          if 1 - 16 * min(x / 1000, 1 - x / 1000) ** 2 > math.cos(2 * math.pi * x / 1000) + 1e-15]
print(f"  1 - 2^4 ||x||^2 <= cos(2 pi x) FAILS at {len(bad_16)} grid points, "
      f"e.g. x = {bad_16[0]} .. {bad_16[-1]}")
c = 2 * math.pi**2
ok = all(1 - c * min(x / 1000, 1 - x / 1000) ** 2 <= math.cos(2 * math.pi * x / 1000) + 1e-12
         for x in range(1001))
print(f"  1 - 2 pi^2 ||x||^2 <= cos(2 pi x) holds on the whole grid: {ok}")
print("  (the container-size *statement* above survives; only that quoted")
print("   scalar constant needs 2 pi^2 in place of 2^4)")
