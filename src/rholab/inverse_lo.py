"""Randomized container construction with verifiable certificates.

Given v in Z_p^n with rho(v) above the profile floor and support above the
profile floor, the construction samples

  * Y: a yDensity-random index subset, accepted when n/4 <= |Y| <= n/2,
    |v_Y| >= |v|/4, and T_ell(v_Y) is inside T_{8 ell}(v);
  * U: a (uDensityCoeff * m / n)-random index subset, accepted when |U| <= m,
    F(v_U) is inside T_t(v), and |T_{8 ell}(v)| <= 2 |F(v_U)|;

and returns B = C(F(v_U)) together with every measured quantity needed to
verify the containment and size properties.  The level sets T_8ell(v) and
T_t(v) depend on v alone: build_container decides them once, from one weight
table, and both samplers test their draws against that one pair.  All
cardinality fractions bind to the ambient length of the vector actually
passed in (the fibre iteration passes restrictions, whose ambient length is
the live index set).

B, rho(v_Y) and the measured quantities are functions of (v, Y, U) alone, and
_certificate is the one place that derives them; B comes from one helper,
_contained, and outsideCount from ContainerSet.outside, which both the
construction and the verifier use.  The construction may discard an attempt
on its B alone: when more than n/4 entries of v fall outside B the verifier
would reject it, so the attempt is dropped before rho(v_Y) is walked (Y and
U are drawn by then, so the random stream is the same).  Only the verifier
accepts: build_container returns a certificate only after verify_certificate
re-derives it from (v, Y, U) with exact arithmetic and re-tests every
property, with zero trust in the construction path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .anticoncentration import FLOAT_SLACK, RhoResult, rho
from .containers import ContainerSet, container, frequency_set, level_set
from .errors import PreconditionViolated, RetryExhausted
from .harness import canonical_json
from .rng import substream
from .zp_core import PrimeModulus, ZpVector, level_members, weight_table


@dataclass(frozen=True)
class ConstantsProfile:
    """All tuning constants of the construction in one place.

    The paper profile reproduces the published constants verbatim; they
    force n > 2^18 log p, so experiments run a desk profile whose values keep
    every *deterministic* statement intact while making the rejection
    sampler's acceptance probability non-vanishing at n <= 1024, p <= 101.
    """

    name: str
    support_floor_coeff: float      # support floor = coeff * log p
    m_coeff: float                  # m = floor(coeff * log p)
    ell_coeff: Fraction             # ell = coeff * |v|
    t_coeff: Fraction               # t = coeff * n
    size_const: int                 # |B| * rho(v_Y) * sqrt(|v|) <= size_const
    y_density: Fraction
    u_density_coeff: Fraction       # U density = coeff * m / n
    rho_floor_coeff: Fraction       # rho(v) >= coeff / p
    support_threshold_coeff: int    # fibre termination at coeff * sqrt(n)
    max_attempts: int = 1000

    def support_floor(self, p: PrimeModulus) -> float:
        return self.support_floor_coeff * math.log(p.p)

    def m(self, p: PrimeModulus) -> int:
        return int(self.m_coeff * math.log(p.p))

    def ell(self, support: int) -> Fraction:
        return self.ell_coeff * support

    def t(self, n: int) -> Fraction:
        return self.t_coeff * n

    def u_density(self, n: int, p: PrimeModulus) -> float:
        return min(1.0, float(self.u_density_coeff) * self.m(p) / n)

    def rho_floor(self, p: PrimeModulus) -> Fraction:
        return self.rho_floor_coeff / p.p


PAPER_PROFILE = ConstantsProfile(
    name="paper",
    support_floor_coeff=2**18,
    m_coeff=2**12,
    ell_coeff=Fraction(1, 2**16),
    t_coeff=Fraction(1, 2**7),
    size_const=2**16,
    y_density=Fraction(3, 8),
    u_density_coeff=Fraction(1, 2),
    rho_floor_coeff=Fraction(4),
    support_threshold_coeff=2**8,
)

# Desk values chosen so the construction certifies at n in [256, 1024],
# p <= 101 (see README): m <= 64 caps the frequency resolution of F(v_U),
# which forces t = n/8 and a fuller U than the published density.
DESK_PROFILE = ConstantsProfile(
    name="desk",
    support_floor_coeff=32,
    m_coeff=13,
    ell_coeff=Fraction(1, 2**16),
    t_coeff=Fraction(1, 8),
    size_const=2**16,
    y_density=Fraction(3, 8),
    u_density_coeff=Fraction(7, 8),
    rho_floor_coeff=Fraction(2),
    support_threshold_coeff=8,
)

PROFILES = {"paper": PAPER_PROFILE, "desk": DESK_PROFILE}


def profile_from_dict(d: dict) -> ConstantsProfile:
    max_attempts = int(d.get("max_attempts", 1000))
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    return ConstantsProfile(
        name=d.get("name", "custom"),
        support_floor_coeff=float(d["support_floor_coeff"]),
        m_coeff=float(d["m_coeff"]),
        ell_coeff=Fraction(d["ell_coeff"]),
        t_coeff=Fraction(d["t_coeff"]),
        size_const=int(d["size_const"]),
        y_density=Fraction(d["y_density"]),
        u_density_coeff=Fraction(d["u_density_coeff"]),
        rho_floor_coeff=Fraction(d["rho_floor_coeff"]),
        support_threshold_coeff=int(d["support_threshold_coeff"]),
        max_attempts=max_attempts,
    )


@dataclass(frozen=True)
class ContainerCertificate:
    """(Y, U, B) plus the measured quantities proving the properties.

    measured keys: sizeY, supportVY, outsideCount, sizeB, rhoVY (exact
    rational), supportV.  B = C(F(v_U)) depends on v_U alone, so v_U padded
    with zeros to length m indexes B in the p^m-sized container family.
    """

    p: int
    n: int
    y: frozenset[int]
    u: frozenset[int]
    b: ContainerSet
    rho_vy: RhoResult
    measured: dict


def _levels(v: ZpVector, p: PrimeModulus, profile: ConstantsProfile):
    """(ell, T_8ell(v), T_t(v)), both level sets read from one weight table."""
    ell = profile.ell(v.support_size)
    weights = weight_table(v, p)
    return ell, level_members(weights, 8 * ell, p), level_members(weights, profile.t(len(v)), p)


def _y_failures(v: ZpVector, y, ell, t8, p: PrimeModulus):
    """Lazily yield the failed Y-properties, in order; a sampler stops at the first."""
    n = len(v)
    if not (n <= 4 * len(y) and 2 * len(y) <= n):
        yield "sizeY outside [n/4, n/2]"
    vy = v.restrict(y)
    if 4 * vy.support_size < v.support_size:
        yield "supportVY below supportV/4"
    if not level_set(vy, ell, p) <= t8:
        yield "T_ell(v_Y) escapes T_8ell(v)"


def _u_failures(u, m: int, t8, tt, f_of):
    """Lazily yield the failed U-properties, in order; a sampler stops at the first.

    F(v_U) = f_of() is computed only once |U| <= m has been tested.
    """
    if len(u) > m:
        yield "sizeU exceeds m"
    f = f_of()
    if not f <= tt:
        yield "F(v_U) escapes T_t(v)"
    if len(t8) > 2 * len(f):
        yield "|T_8ell(v)| exceeds 2|F(v_U)|"


def _draw_until(name: str, profile: ConstantsProfile, n: int, density: float, rng, failures):
    """Draw density-random subsets x of range(n) until failures(x) yields nothing;
    return (x, attempts used)."""
    for attempt in range(1, profile.max_attempts + 1):
        x = frozenset(np.flatnonzero(rng.random(n) < density).tolist())
        if next(failures(x), None) is None:
            return x, attempt
    raise RetryExhausted(
        f"{name} sampler exhausted {profile.max_attempts} attempts (profile {profile.name})"
    )


def sample_Y_with_attempts(
    v: ZpVector, p: PrimeModulus, profile: ConstantsProfile, levels, rng: np.random.Generator
) -> tuple[frozenset[int], int]:
    """Rejection-sample Y until the three Y-properties hold.

    levels is (ell, T_8ell(v), T_t(v)) = _levels(v, p, profile), decided once
    by the caller.  Assumes |v| >= the profile's support floor (enforced by
    build_container, not here, so the sampler can be exercised at paper
    constants on desk inputs).  Returns (Y, attempts used).
    """
    ell, t8, _ = levels
    return _draw_until(
        "Y", profile, len(v), float(profile.y_density), rng,
        lambda y: _y_failures(v, y, ell, t8, p),
    )


def sample_U_with_attempts(
    v: ZpVector, p: PrimeModulus, profile: ConstantsProfile, levels, rng: np.random.Generator
) -> tuple[frozenset[int], int]:
    """Rejection-sample U until |U| <= m, F(v_U) in T_t(v), |T_8ell| <= 2|F|.

    levels is _levels(v, p, profile), as for sample_Y_with_attempts.
    Returns (U, attempts used).
    """
    _, t8, tt = levels
    m = profile.m(p)
    return _draw_until(
        "U", profile, len(v), profile.u_density(len(v), p), rng,
        lambda u: _u_failures(u, m, t8, tt, lambda: frequency_set(v.restrict(u), p)),
    )


def _size_bound_holds(
    size_b: int, rho_vy: RhoResult, support_v: int, size_const: int
) -> bool:
    # size_b * rho * sqrt(support) <= size_const, squared into integers
    lhs = size_b * size_b * rho_vy.count * rho_vy.count * support_v
    rhs = size_const * size_const * (1 << (2 * rho_vy.log2_denominator))
    return lhs <= rhs


def _contained(v: ZpVector, p: PrimeModulus, u) -> ContainerSet:
    """B = C(F(v_U))."""
    return container(frequency_set(v.restrict(u), p), p)


def _certificate(v: ZpVector, p: PrimeModulus, y, u, b=None) -> ContainerCertificate:
    """The certificate (Y, U) fixes: B = C(F(v_U)), rho(v_Y) and the six
    measured quantities, all derived from v.  b is _contained(v, p, u) when
    the caller has it already."""
    b = _contained(v, p, u) if b is None else b
    vy = v.restrict(y)
    rho_vy = rho(vy, p)
    measured = {
        "sizeY": len(y),
        "supportVY": vy.support_size,
        "outsideCount": b.outside(v),
        "sizeB": b.size,
        "rhoVY": rho_vy.value,
        "supportV": v.support_size,
    }
    return ContainerCertificate(
        p=p.p, n=len(v), y=y, u=u, b=b, rho_vy=rho_vy, measured=measured
    )


def build_container(
    v: ZpVector,
    p: PrimeModulus,
    profile: ConstantsProfile,
    rng: np.random.Generator,
    *,
    rho_v: RhoResult | None = None,
) -> ContainerCertificate:
    """Run the full construction and return a verified certificate.

    Preconditions: rho(v) >= rho_floor_coeff / p and |v| >= support floor.
    rho_v, if given, must be rho(v, p) (a caller that has it already saves
    the floor check's walk); it is tested against the floor all the same.
    The level sets of v are decided once; each attempt redraws Y and U from
    scratch.  An attempt whose B leaves more than n/4 entries of v outside
    is discarded before rho(v_Y) is walked, since the verifier would reject
    it on that count alone; a certificate is returned only after
    verify_certificate passes on it.  On exhaustion the error reports how
    many attempts were discarded that way, and the verifier's failure list of
    the last attempt (derived at exhaustion if that attempt was discarded).
    """
    v.validate(p)
    if v.support_size < profile.support_floor(p):
        raise PreconditionViolated(
            f"support {v.support_size} below floor {profile.support_floor(p):.1f}"
        )
    rv = rho(v, p) if rho_v is None else rho_v
    if rv.value < profile.rho_floor(p):
        raise PreconditionViolated(
            f"rho(v) = {rv.value} below floor {profile.rho_floor(p)}"
        )
    levels = _levels(v, p, profile)
    last = None  # the verifier's failures, or (Y, U, B) if discarded
    dropped = 0  # attempts discarded on outsideCount
    for _ in range(profile.max_attempts):
        y = sample_Y_with_attempts(v, p, profile, levels, rng)[0]
        u = sample_U_with_attempts(v, p, profile, levels, rng)[0]
        b = _contained(v, p, u)
        if 4 * b.outside(v) > len(v):
            last, dropped = (y, u, b), dropped + 1
            continue
        cert = _certificate(v, p, y, u, b)
        ok, last = verify_certificate(v, p, profile, cert)
        if ok:
            return cert
    if isinstance(last, tuple):
        last = verify_certificate(v, p, profile, _certificate(v, p, *last))[1]
    raise RetryExhausted(
        f"certificate invariants kept failing after {profile.max_attempts} attempts "
        f"({dropped} dropped on outsideCount before rho(v_Y) was walked); last failures: {last}"
    )


def verify_certificate(
    v: ZpVector,
    p: PrimeModulus,
    profile: ConstantsProfile,
    cert: ContainerCertificate,
) -> tuple[bool, list[str]]:
    """Re-derive the certificate from (v, Y, U) and check it.

    Trusts nothing the construction reported: checks that Y and U index v,
    decides the level sets of v afresh, re-derives B, rho(v_Y) (exact DP)
    and the measured quantities with _certificate, re-tests the Y/U
    properties with the samplers' own predicates, decides the size bound by
    squaring both sides in integers, and fails a certificate whose B,
    rho(v_Y) or measured quantities differ from the re-derived ones.
    """
    n = len(v)
    y, u = cert.y, cert.u
    if not all(0 <= i < n for i in y | u):
        return False, ["Y or U leaves the index range [0, n)"]
    ell, t8, tt = _levels(v, p, profile)
    fresh = _certificate(v, p, y, u)
    failures = list(_y_failures(v, y, ell, t8, p))
    failures += _u_failures(u, profile.m(p), t8, tt, lambda: fresh.b.s)
    if 4 * fresh.measured["outsideCount"] > n:
        failures.append("outsideCount exceeds n/4")
    if not _size_bound_holds(fresh.b.size, fresh.rho_vy, v.support_size, profile.size_const):
        failures.append("size bound |B| rho(v_Y) sqrt(|v|) > sizeConst")
    # Halasz-application inequality; its preconditions (ell >= 4 log p and
    # rho(v) >= 4/p, i.e. paper-profile scales) are vacuous on desk inputs.
    if float(ell) >= 4 * math.log(p.p) and rho(v, p).value >= Fraction(4, p.p):
        size_ell_y = len(level_set(v.restrict(y), ell, p))
        app_bound = 2**13 * size_ell_y / (p.p * math.sqrt(v.support_size))
        if float(fresh.rho_vy.value) > app_bound + FLOAT_SLACK:
            failures.append("Halasz application bound violated")
    if cert.b != fresh.b:
        failures.append("B is not the container of F(v_U)")
    if cert.rho_vy.value != fresh.rho_vy.value:
        failures.append("rhoVY misreported")
    if cert.measured != fresh.measured:
        failures.append("measured quantities do not match recomputation")
    return not failures, failures


@dataclass(frozen=True)
class Case:
    """Case idx of a constant-vector experiment on v = (c,) * n: the certificate
    or fibre trace built (result), the AuditReport of a fibre trace (audit;
    None for a certificate, which build_container has verified), or the
    message of the error that stopped the run."""

    idx: int
    v: ZpVector
    result: object = None
    audit: object = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and (self.audit is None or self.audit.ok)


def _constant_cases(seed: int, label: str, count: int, n: int, p: PrimeModulus, run):
    """Cases 0..count-1: case i draws c from substream(seed, label, i), sets
    v = (c,) * n and calls run(v, g) -> (result, audit) on the same stream."""
    for i in range(count):
        g = substream(seed, label, i)
        v = ZpVector((int(g.integers(1, p.p)),) * n)
        try:
            case = Case(i, v, *run(v, g))
        except (RetryExhausted, PreconditionViolated) as exc:
            case = Case(i, v, error=str(exc))
        yield case


def certificate_cases(
    seed: int, label: str, count: int, n: int, p: PrimeModulus, profile: ConstantsProfile
):
    """Build a certificate, verified by build_container, for each constant-vector case."""
    return _constant_cases(
        seed, label, count, n, p, lambda v, g: (build_container(v, p, profile, g), None)
    )


def certificate_to_doc(cert: ContainerCertificate) -> dict:
    return {
        "p": cert.p,
        "n": cert.n,
        "y": sorted(cert.y),
        "u": sorted(cert.u),
        "b": {"s": sorted(cert.b.s), "members": sorted(cert.b.members)},
        "rhoVY": {
            "atom": cert.rho_vy.atom,
            "count": cert.rho_vy.count,
            "log2Denominator": cert.rho_vy.log2_denominator,
        },
        "measured": dict(cert.measured),
    }


def certificate_json(cert: ContainerCertificate) -> str:
    return canonical_json(certificate_to_doc(cert))
