"""Exact concentration probabilities and the Halasz bound chain.

For v in Z_p^n and u uniform on {-1,1}^n, the object of interest is

    rho(v) = max_a Pr(Sum_i u_i v_i = a),

the largest atom of the signed-sum walk.  The law of the walk is computed
exactly: atom counts are big integers over the implicit denominator 2^n
(4^n for the lazy walk where a step is 0 with probability 1/2), built by n
two-point convolutions.  Every comparison between two such probabilities is
an integer comparison; no atom probability is ever a float.

The bound side (Halasz chain) is evaluated in doubles from exact level-set
cardinalities.  All three bounds read one weight table W(k), k in Z_p;
`halasz_chain` builds it once per vector and evaluates every bound from it.
Callers comparing rho against a bound allow a fixed 1e-12 slack, orders
below any gap seen at these scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GuardExceeded, PreconditionViolated, RangeTooLarge
from .zp_core import PrimeModulus, ZpVector, check_table_size, level_mask, level_members, weight_table

# Absolute slack granted to float-valued bounds when checked against exact rho.
FLOAT_SLACK = 1e-12

_SUMSET_P_GUARD = 10**4
_LATTICE_RANGE_GUARD = 10**6


@dataclass(frozen=True)
class ExactDistribution:
    """Exact law of a signed sum as atom -> count over 2^log2_denominator.

    Atoms are canonical residues for the Z_p walk and plain integers for the
    lattice walk.  Counts always sum to the full denominator.
    """

    counts: dict[int, int]
    log2_denominator: int

    def total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class RhoResult:
    """Maximum atom of an exact distribution: rho = count / 2^log2_denominator.

    Ties break to the smallest atom (smallest canonical residue over Z_p),
    purely for determinism.
    """

    atom: int
    count: int
    log2_denominator: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.count, 2**self.log2_denominator)


def _max_atom(dist: ExactDistribution) -> RhoResult:
    atom = min(dist.counts, key=lambda a: (-dist.counts[a], a))
    return RhoResult(atom, dist.counts[atom], dist.log2_denominator)


def distribution_zp(v: ZpVector, p: PrimeModulus) -> ExactDistribution:
    """Exact law of u . v over Z_p, by n two-point convolutions.

    Step i convolves with (delta_{v_i} + delta_{-v_i}); cost O(n p) big-int
    additions.  The empty vector gives the point mass at 0.
    """
    check_table_size(len(v), p)
    counts = [0] * p.p
    counts[0] = 1
    for e in v.entries:
        counts = [counts[(j - e) % p.p] + counts[(j + e) % p.p] for j in range(p.p)]
    return ExactDistribution(
        {a: c for a, c in enumerate(counts) if c}, len(v)
    )


def distribution_zp_bruteforce(v: ZpVector, p: PrimeModulus) -> ExactDistribution:
    """Independent oracle: enumerate all 2^n sign vectors (n <= ~20).

    Kept free of the convolution path on purpose; acceptance checks compare
    the two atom-for-atom.
    """
    n = len(v)
    if n > 24:
        raise GuardExceeded("brute-force enumeration limited to n <= 24")
    counts: dict[int, int] = {}
    for mask in range(1 << n):
        s = 0
        for i, e in enumerate(v.entries):
            s += e if (mask >> i) & 1 else -e
        a = s % p.p
        counts[a] = counts.get(a, 0) + 1
    return ExactDistribution(counts, n)


def rho(v: ZpVector, p: PrimeModulus) -> RhoResult:
    """rho(v) = max_a Pr(u . v = a), exact."""
    return _max_atom(distribution_zp(v, p))


def distribution_int(entries) -> ExactDistribution:
    """Exact law of u . v over Z by DP on [-Sum|v_i|, Sum|v_i|]."""
    ents = [int(e) for e in entries]
    radius = sum(abs(e) for e in ents)
    if radius > _LATTICE_RANGE_GUARD:
        raise RangeTooLarge(f"lattice range {radius} exceeds guard")
    size = 2 * radius + 1
    counts = [0] * size
    counts[radius] = 1  # offset representation: index = value + radius
    for e in ents:
        new = [0] * size
        for j, c in enumerate(counts):
            if c:
                new[j - e] += c
                new[j + e] += c
        counts = new
    return ExactDistribution(
        {j - radius: c for j, c in enumerate(counts) if c}, len(ents)
    )


def rho_int(entries) -> RhoResult:
    """Exact rho over the integers (Erdos's setting)."""
    return _max_atom(distribution_int(entries))


def distribution_half(v: ZpVector, p: PrimeModulus) -> ExactDistribution:
    """Law of the lazy walk: step 0 w.p. 1/2, +-v_i w.p. 1/4 each.

    Counts live over denominator 4^n = 2^{2n}.
    """
    check_table_size(len(v), p)
    counts = [0] * p.p
    counts[0] = 1
    for e in v.entries:
        counts = [
            2 * counts[j] + counts[(j - e) % p.p] + counts[(j + e) % p.p]
            for j in range(p.p)
        ]
    return ExactDistribution(
        {a: c for a, c in enumerate(counts) if c}, 2 * len(v)
    )


def rho_half(v: ZpVector, p: PrimeModulus) -> RhoResult:
    """Lazy-walk concentration; equals rho(v (+) v) as a value.

    (Equality is of maxima, not maximizers: the doubled walk is the lazy walk
    dilated by 2 mod p, a bijection on atoms.)
    """
    return _max_atom(distribution_half(v, p))


# ---------------------------------------------------------------------------
# Level-set cardinalities and the Halasz bound chain.
# ---------------------------------------------------------------------------


def level_counts(v: ZpVector, p: PrimeModulus) -> np.ndarray:
    """Exact integer weights W(k) = p^2 * Sum_i ||k v_i / p||^2 for all k."""
    return weight_table(v, p)


def halasz_first_bound(weights: np.ndarray, p: PrimeModulus) -> float:
    """(1/p) Sum_k exp(-W(k)/p^2) with W(k) exact; upper bounds rho(v)."""
    pp = float(p.p * p.p)
    return sum(math.exp(-w / pp) for w in weights) / p.p


def halasz_second_bound(weights: np.ndarray, ell, p: PrimeModulus) -> float:
    """1/p + (e/p) Sum_{t=1}^{ceil(ell)} e^-t |T_t(v)| + e^-ell, for v != 0."""
    # W(1) > 0 iff some v_i != 0
    if not weights.any():
        raise PreconditionViolated("second bound needs v != 0 (T_0 = {0})")
    ellf = Fraction(ell)
    if ellf < 1:
        raise PreconditionViolated("ell must be >= 1")
    total = 1.0 / p.p
    for t in range(1, math.ceil(ellf) + 1):
        size_t = int(level_mask(weights, t, p).sum())
        total += math.e / p.p * math.exp(-t) * size_t
    return total + math.exp(-float(ellf))


def halasz_bound(weights: np.ndarray, support: int, ell, p: PrimeModulus) -> float:
    """3/p + 4 |T_ell(v)| / (p sqrt(ell)) + e^-ell, for 1 <= ell <= |v|/64."""
    # float thresholds are frozen to their exact binary rational
    ellf = Fraction(ell)
    if not weights.any():
        raise PreconditionViolated("bound needs v != 0")
    if not (1 <= ellf and 64 * ellf <= support):
        raise PreconditionViolated(f"need 1 <= ell <= |v|/64, got ell={ellf}, |v|={support}")
    size_ell = int(level_mask(weights, ellf, p).sum())
    le = float(ellf)
    return 3.0 / p.p + 4.0 * size_ell / (p.p * math.sqrt(le)) + math.exp(-le)


@dataclass(frozen=True)
class HalaszChain:
    """rho(v) as a float and its bounds; levels = ((ell, second, final) for ell = 1..|v|//64)."""

    rho: float
    first: float
    levels: tuple[tuple[int, float, float], ...]

    def holds(self, bound: float) -> bool:
        return self.rho <= bound + FLOAT_SLACK


def halasz_chain(v: ZpVector, p: PrimeModulus) -> HalaszChain:
    """rho(v), the first bound, and the second and final bound at every ell."""
    w, s = level_counts(v, p), v.support_size
    levels = tuple((ell, halasz_second_bound(w, ell, p), halasz_bound(w, s, ell, p))
                   for ell in range(1, s // 64 + 1))
    return HalaszChain(float(rho(v, p).value), halasz_first_bound(w, p), levels)


# ---------------------------------------------------------------------------
# Deterministic sumset facts behind the bound chain.
# ---------------------------------------------------------------------------


def _fold_sumset(a: set[int], m: int, p: PrimeModulus) -> set[int]:
    """m-fold sumset m.A in Z_p by iterated residue addition."""
    cur = set(a)
    for _ in range(m - 1):
        cur = {(x + y) % p.p for x in cur for y in a}
        if len(cur) == p.p:
            break
    return cur


def sumset_level_check(v: ZpVector, m: int, t, p: PrimeModulus) -> bool:
    """Verify m . T_t(v) is contained in T_{m^2 t}(v); always true."""
    if p.p > _SUMSET_P_GUARD:
        raise GuardExceeded(f"sumset scan limited to p <= {_SUMSET_P_GUARD}")
    if m < 1:
        raise PreconditionViolated("m must be >= 1")
    tf = Fraction(t)
    weights = level_counts(v, p)
    tt = level_members(weights, tf, p)
    return _fold_sumset(tt, m, p) <= level_members(weights, m * m * tf, p)


def cauchy_davenport_check(a: set[int], m: int, p: PrimeModulus) -> bool:
    """Verify m.A = Z_p or |m.A| >= m|A| - m + 1; always true for prime p."""
    if not a:
        raise PreconditionViolated("A must be nonempty")
    if m < 1:
        raise PreconditionViolated("m must be >= 1")
    folded = _fold_sumset({x % p.p for x in a}, m, p)
    return len(folded) == p.p or len(folded) >= m * len(a) - m + 1
