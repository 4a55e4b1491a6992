"""The iterative fibre map: repeated container certificates until the
residual support is small.

Starting from Z_1 = [n], step k builds a certificate for v restricted to the
live index set Z_k, records

    Y_k (mapped back to original indices),
    B_k (the container),
    X_k = { i in Z_k \\ Y_k : v_i in B_k },

and continues on Z_{k+1} = Z_k \\ X_k while the live support stays at or
above the termination threshold coeff * sqrt(n).  Vectors sharing the whole
sequence (X_i, Y_i, B_i) form one fibre; the certificate's outside-count
property forces |X_k| >= |Z_k| / 4, so the live set shrinks geometrically
and the trace has O(log n) steps.

Traces store the finite prefix plus kStar; the infinite tail of empty
triples is implicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anticoncentration import rho
from .containers import ContainerSet, container
from .errors import PreconditionViolated, RetryExhausted
from .harness import canonical_json
from .inverse_lo import ConstantsProfile, _constant_cases, build_container
from .zp_core import PrimeModulus, ZpVector


@dataclass(frozen=True)
class FibreStep:
    x: frozenset[int]
    y: frozenset[int]
    b: ContainerSet
    z: frozenset[int]


@dataclass(frozen=True)
class FibreTrace:
    n: int
    p: int
    steps: tuple[FibreStep, ...]
    k_star: int
    terminal_support: int


def support_threshold(n: int, profile: ConstantsProfile) -> float:
    return profile.support_threshold_coeff * math.sqrt(n)


def k_star_cap(n: int) -> int:
    """ceil(log_{4/3} n) + 1: the most steps a trace of length n can take."""
    return math.ceil(math.log(n) / math.log(4 / 3)) + 1 if n > 1 else 1


def run_fibre(
    v: ZpVector,
    p: PrimeModulus,
    profile: ConstantsProfile,
    rng: np.random.Generator,
) -> FibreTrace:
    """Iterate the container construction on the live restriction of v.

    Requires rho(v) above the profile floor; a vector whose support is
    already below the termination threshold yields the empty trace with
    kStar = 0.  Each step's floor check reuses a rho it already has: rho(v)
    at step 1, and rho(v_{Y_k}) from step k's certificate when Z_{k+1} = Y_k.
    RetryExhausted from a step is re-raised with the step index attached.
    """
    v.validate(p)
    rho_live = rho(v, p)  # rho of the live restriction, when it is known
    if rho_live.value < profile.rho_floor(p):
        raise PreconditionViolated(
            f"rho(v) below the profile floor {profile.rho_floor(p)}"
        )
    n = len(v)
    threshold = support_threshold(n, profile)
    steps: list[FibreStep] = []
    live = frozenset(range(n))
    while True:
        order = sorted(live)
        vz = v.restrict(live)
        if vz.support_size < threshold:
            return FibreTrace(n=n, p=p.p, steps=tuple(steps), k_star=len(steps),
                              terminal_support=vz.support_size)
        try:
            cert = build_container(vz, p, profile, rng, rho_v=rho_live)
        except RetryExhausted as exc:
            raise RetryExhausted(f"step {len(steps) + 1}: {exc}") from exc
        except PreconditionViolated as exc:
            raise PreconditionViolated(f"step {len(steps) + 1}: {exc}") from exc
        y = frozenset(order[j] for j in cert.y)
        x = frozenset(i for i in live - y if v.entries[i] in cert.b.members)
        steps.append(FibreStep(x=x, y=y, b=cert.b, z=live))
        live = live - x
        # v restricted to Y_k is the next live vector when X_k is all of Z_k \ Y_k
        rho_live = cert.rho_vy if live == y else None


@dataclass(frozen=True)
class AuditReport:
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def failures(self) -> list[str]:
        return [k for k, v in self.checks.items() if not v]


def audit_trace(v: ZpVector, trace: FibreTrace, profile: ConstantsProfile) -> AuditReport:
    """Re-verify every structural invariant of a trace, independently.

    Checks, per step k: Z_{k+1} = Z_k \\ X_k with Z_1 = [n]; the X_k
    reconstruction from (Y_k, B_k); disjointness X_i vs X_j and Y_i vs X_j
    for j > i; |X_k| >= |Z_k|/4; |Z_k| <= (3/4)^{k-1} n (checked in exact
    integers); the recomputation B_k = C(S_k); the termination condition;
    and kStar <= ceil(log_{4/3} n) + 1.
    """
    n = trace.n
    p = PrimeModulus(trace.p)
    threshold = support_threshold(n, profile)
    checks: dict[str, bool] = {}

    live = frozenset(range(n))
    chain_ok = True
    recon_ok = True
    shrink_ok = True
    geo_ok = True
    container_ok = True
    running_ok = True
    for k, step in enumerate(trace.steps, start=1):
        chain_ok &= step.z == live
        recon_ok &= step.x == frozenset(
            i for i in step.z - step.y if v.entries[i] in step.b.members
        )
        recon_ok &= step.y <= step.z and step.x <= step.z
        shrink_ok &= 4 * len(step.x) >= len(step.z)
        # 4^{k-1} |Z_k| <= 3^{k-1} n, exact
        geo_ok &= 4 ** (k - 1) * len(step.z) <= 3 ** (k - 1) * n
        container_ok &= container(step.b.s, p).members == step.b.members
        running_ok &= v.restrict(step.z).support_size >= threshold
        live = live - step.x
    checks["z_chain"] = chain_ok
    checks["x_reconstruction"] = recon_ok
    checks["x_shrinkage"] = shrink_ok
    checks["z_geometric_bound"] = geo_ok
    checks["container_recomputation"] = container_ok
    checks["steps_above_threshold"] = running_ok

    xs = [s.x for s in trace.steps]
    ys = [s.y for s in trace.steps]
    disjoint = True
    for i in range(len(xs)):
        for j in range(len(xs)):
            if i != j:
                disjoint &= not (xs[i] & xs[j])
            if j > i:
                disjoint &= not (ys[j] & xs[i])
        disjoint &= not (ys[i] & xs[i])
    checks["disjointness"] = disjoint

    checks["k_star_matches"] = trace.k_star == len(trace.steps)
    checks["terminal_support"] = (
        v.restrict(live).support_size == trace.terminal_support
        and trace.terminal_support < threshold
    )
    checks["k_star_cap"] = trace.k_star <= k_star_cap(n)
    return AuditReport(checks)


def fibre_cases(
    seed: int, label: str, count: int, n: int, p: PrimeModulus, profile: ConstantsProfile
):
    """Run and audit a fibre trace for each constant-vector case."""

    def run(v, g):
        trace = run_fibre(v, p, profile, g)
        return trace, audit_trace(v, trace, profile)

    return _constant_cases(seed, label, count, n, p, run)


def fibre_count_bound(n: int, p: PrimeModulus, profile: ConstantsProfile) -> dict:
    """Log-domain evaluation of the fibre-counting expression.

    Per step k there are at most 2^{|Z_k|} choices each for X_k and Y_k and
    at most p^m for B_k, with |Z_k| <= (3/4)^{k-1} n and at most
    ceil(log_{4/3} n) + 1 steps.  Returns natural-log quantities:

      log_bound      = 2 ln2 * Sum_k (3/4)^{k-1} n  +  k_max * m ln p
      geometric_sum  = Sum_k (3/4)^{k-1} n  (= 4n in the infinite limit)
      log_reference  = (n/64) ln n

    The bound beats the reference only for astronomically large n (the X/Y
    term alone is ~ 8 n ln 2); both sides are reported rather than asserted.
    """
    k_max = k_star_cap(n)
    geo = 0.0
    z = float(n)
    for _ in range(k_max):
        geo += z
        z *= 0.75
    m = profile.m(p)
    log_bound = 2.0 * math.log(2.0) * geo + k_max * m * math.log(p.p)
    return {
        "k_max": k_max,
        "geometric_sum": geo,
        "geometric_sum_limit": 4.0 * n,
        "log_choices_xy": 2.0 * math.log(2.0) * geo,
        "log_choices_b": k_max * m * math.log(p.p),
        "log_bound": log_bound,
        "log_reference_n_pow_n64": n / 64 * math.log(n),
    }


def trace_to_doc(trace: FibreTrace) -> dict:
    return {
        "n": trace.n,
        "p": trace.p,
        "kStar": trace.k_star,
        "terminalSupport": trace.terminal_support,
        "steps": [
            {
                "x": sorted(s.x),
                "y": sorted(s.y),
                "b": {"s": sorted(s.b.s), "members": sorted(s.b.members)},
                "z": sorted(s.z),
            }
            for s in trace.steps
        ],
    }


def trace_fingerprint(trace: FibreTrace) -> str:
    """Hashable fibre identity: vectors in one fibre share this string."""
    doc = trace_to_doc(trace)
    doc.pop("terminalSupport")  # fibre identity is the (X, Y, B) sequence
    return canonical_json(doc)


__all__ = [
    "FibreStep",
    "FibreTrace",
    "AuditReport",
    "run_fibre",
    "audit_trace",
    "fibre_cases",
    "k_star_cap",
    "fibre_count_bound",
    "support_threshold",
    "trace_to_doc",
    "trace_fingerprint",
]
