#!/usr/bin/env python3
"""The iterative fibre map.

Starting from the full index set, each step certifies a container for the
live restriction, peels off the covered coordinates X_k, and recurses on the
remainder; the certificate's outside-count property forces |X_k| >= |Z_k|/4
so the live set shrinks geometrically.  The audit below re-derives every
invariant from the raw trace.
"""

from rholab import DESK_PROFILE, PrimeModulus, ZpVector, audit_trace, run_fibre
from rholab.fibres import (
    fibre_cases,
    fibre_count_bound,
    k_star_cap,
    support_threshold,
    trace_fingerprint,
)
from rholab.rng import substream

p = PrimeModulus(101)
n = 1024
v = ZpVector((17,) * n)
g = substream(0, "demo5", 0)

trace = run_fibre(v, p, DESK_PROFILE, g)
threshold = support_threshold(n, DESK_PROFILE)
print(f"n = {n}, p = {p.p}, termination threshold = {threshold:.0f}")
print(f"k* = {trace.k_star}, terminal support = {trace.terminal_support}")
print()
print(f"{'step':>4s} {'|Z_k|':>7s} {'|Y_k|':>7s} {'|X_k|':>7s} {'(3/4)^(k-1) n':>14s}")
for k, step in enumerate(trace.steps, start=1):
    print(f"{k:4d} {len(step.z):7d} {len(step.y):7d} {len(step.x):7d} "
          f"{(3 / 4) ** (k - 1) * n:14.1f}")
print()

report = audit_trace(v, trace, DESK_PROFILE)
print("audit:", "all checks pass" if report.ok else report.failures())
for name, ok in report.checks.items():
    print(f"  {name:28s} {'ok' if ok else 'FAIL'}")
print()

print(f"k* = {trace.k_star} <= ceil(log_{{4/3}} n) + 1 = {k_star_cap(n)}")
print()

print("distinct fibres over 40 runs at (n = 128, p = 31):")
p31 = PrimeModulus(31)
prints = {
    trace_fingerprint(case.result)
    for case in fibre_cases(0, "demo5-count", 40, 128, p31, DESK_PROFILE)
    if case.error is None
}
bound = fibre_count_bound(128, p31, DESK_PROFILE)
print(f"  observed {len(prints)} distinct fibres; "
      f"log bound = {bound['log_bound']:.0f} nats (vacuously large at desk scale)")
print(f"  geometric |Z_k| sum = {bound['geometric_sum']:.0f} <= 4n = {bound['geometric_sum_limit']:.0f}")
