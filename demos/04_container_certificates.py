#!/usr/bin/env python3
"""Randomized container certificates.

build_container rejection-samples an index pair (Y, U), forms the container
B = C(F(v_U)), and emits a certificate carrying every measured quantity:
|Y| in [n/4, n/2], |v_Y| >= |v|/4, at most n/4 coordinates of v outside B,
and the size bound |B| * rho(v_Y) * sqrt(|v|) <= 2^16 decided in exact
integer arithmetic.  build_container returns a certificate only after
verify_certificate has re-derived it from (v, Y, U) with zero trust in the
construction path.
"""

from rholab import DESK_PROFILE, PrimeModulus
from rholab.inverse_lo import certificate_cases, certificate_json

p = PrimeModulus(101)
n = 512

print(f"desk profile at p = {p.p}, n = {n}:")
print(f"  support floor  = {DESK_PROFILE.support_floor(p):.1f}")
print(f"  m              = {DESK_PROFILE.m(p)}")
print(f"  t              = {DESK_PROFILE.t(n)} (absolute level threshold)")
print(f"  rho floor      = {float(DESK_PROFILE.rho_floor(p)):.5f}")
print()

for case in certificate_cases(0, "demo4", 3, n, p, DESK_PROFILE):
    c = case.v.entries[0]
    print(f"vector #{case.idx}: constant {c}")
    if case.error is not None:
        print(f"  construction stopped: {case.error}")
        continue
    cert = case.result
    m = cert.measured
    members = sorted(x if x <= 50 else x - 101 for x in cert.b.members)
    print(f"  |Y| = {m['sizeY']}, |v_Y| = {m['supportVY']}, |U| = {len(cert.u)}")
    print(f"  B (as signed residues, scaled by {c}): {members}")
    print(f"  outside B: {m['outsideCount']} of {n}; |B| = {m['sizeB']}; "
          f"rho(v_Y) = {float(m['rhoVY']):.5f}")
    # build_container returns a certificate only once verify_certificate passes
    print("  independent re-verification: PASS")
print()

cert_doc = certificate_json(cert)
print(f"canonical certificate JSON ({len(cert_doc)} bytes, ints as strings):")
print(" ", cert_doc[:120], "...")
