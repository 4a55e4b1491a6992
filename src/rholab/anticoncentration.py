"""Exact concentration probabilities and the Halasz bound chain.

For v in Z_p^n and u uniform on {-1,1}^n, the object of interest is

    rho(v) = max_a Pr(Sum_i u_i v_i = a),

the largest atom of the signed-sum walk.  The law of the walk is computed
exactly: atom counts are big integers over the implicit denominator 2^n
(4^n for the lazy walk where a step is 0 with probability 1/2).  Every
comparison between two such probabilities is an integer comparison; no atom
probability is ever a float.

One kernel, `_walk`, builds every law from entry -> multiplicity counts (a
vector's classes; the walk counts no entries itself), and the law has one
representation: an (m, K) array of 32-bit digits, little end first, whose
row a is the count of residue a of Z_m.  A step by +-e multiplies the law
by x^e + x^-e = x^-e (1 + x^2e) mod x^m - 1.  The x^-e factors add up to a
known offset, so the walk starts its one atom at row -Sum k e mod m, over
the classes of k entries +-e; each step then adds to the law itself moved
by d = 2e rows, two contiguous row ranges of uint64 digit planes:
b[d:] = a[d:] + a[:m-d] and the wrapped b[:d] = a[:d] + a[m-d:].  A carry
pass every 30 steps keeps every digit below 2^63, and K at least doubles
whenever the count total outgrows it.  Classes are taken largest first, so
only the largest can meet the start law while it is still one atom; if it
has k >= _BLOCK entries it joins in one go as the binomial row of
(1 + x^2e)^k times that atom's count, each C(k, i) = C(k, k - i) computed
once for both ends of the row.  A walk with no single step left (a
constant vector) never goes through the planes.  The lattice walk over Z
is the walk over Z_m for m = 2R + 1, R = Sum |v_i|: it never leaves
[-R, R], so nothing wraps.

The lazy walk needs no mode of its own.  Its step x^e + 2 + x^-e is
x^-e (1 + x^e)^2, so with x -> x^2 its law is the plain law of v (+) v, the
multiset of v with every multiplicity doubled: the lazy count of a is the
plain count of 2a, a bijection on atoms for odd p.

`ExactDistribution` is the frozen record (digits, lo, log2_denominator).
`_max_atom` reads the largest atom off the digits, comparing rows from the
top digit down, so that only the winning row becomes an int;
`ExactDistribution.counts` turns every row into an int, one
`int.from_bytes` each, on every read.

The bound side (Halasz chain) is evaluated in doubles from exact level-set
cardinalities.  All three bounds read one weight table W(k), k in Z_p;
`halasz_chain` builds it once per vector and evaluates every bound from it.
Callers comparing rho against a bound allow a fixed 1e-12 slack, orders
below any gap seen at these scales.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GuardExceeded, PreconditionViolated, RangeTooLarge
from .zp_core import PrimeModulus, ZpVector, check_table_size, level_mask, level_members, weight_table
from .zp_core import TABLE_CELL_GUARD

# Absolute slack granted to float-valued bounds when checked against exact rho.
FLOAT_SLACK = 1e-12

_SUMSET_P_GUARD = 10**4
# The largest class of +-e joins the one-atom start law as one binomial row
# from this many entries on.  One class alone, the row is faster than single
# plane steps from 4 entries at p = 101 and always at p = 5, but only from
# about 40 at p = 1009, where the m-long row costs about 100 us.
_BLOCK = 16
# Steps between carry passes on the planes: 2^33 * 2^30 < 2^63.
_CARRY_EVERY = 30
_DIGIT_BITS = np.uint64(32)
_DIGIT_MASK = np.uint64(2**32 - 1)


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """Exact law of a signed sum over 2^log2_denominator, as the walk leaves it.

    digits is an (m, K) array of 32-bit digits, little end first, one row per
    residue of Z_m: the count of atom a is row a mod m.  Atoms are canonical
    residues for the Z_p walk (lo = 0) and the integers lo .. lo + m - 1 for
    the lattice walk.  Counts always sum to the full denominator.  Two laws
    are equal when their counts and denominators are.
    """

    digits: np.ndarray
    lo: int
    log2_denominator: int

    @property
    def counts(self) -> dict[int, int]:
        """atom -> count in atom order, zero atoms omitted: one int.from_bytes per row."""
        w = 4 * self.digits.shape[1]
        raw = np.roll(self.digits, -self.lo, axis=0).tobytes()
        rows = [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)]
        return {self.lo + j: c for j, c in enumerate(rows) if c}

    def __eq__(self, other):
        if not isinstance(other, ExactDistribution):
            return NotImplemented
        return (self.counts, self.log2_denominator) == (other.counts, other.log2_denominator)


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
    """The largest atom: rows compared from the top digit down, ties to the smallest
    atom; one row left, or two equal ones (a pair +-a), settles it early."""
    digits, lo = dist.digits, dist.lo
    m, k = digits.shape
    best = np.arange(m)
    for t in range(k - 1, -1, -1):
        col = digits[best, t]
        best = best[col == col.max()]
        if len(best) == 1 or len(best) == 2 and (digits[best[0], :t] == digits[best[1], :t]).all():
            break
    atom = lo + int(((best - lo) % m).min())
    count = int.from_bytes(digits[atom % m].tobytes(), "little")
    return RhoResult(atom, count, dist.log2_denominator)


def _limb_digits(raw: bytes, m: int, w: int) -> np.ndarray:
    """m little-endian limbs of w bytes, padded to whole 32-bit digits: an (m, K) array."""
    limbs = np.zeros((m, 4 * -(-w // 4)), np.uint8)
    limbs[:, :w] = np.frombuffer(raw, np.uint8).reshape(m, w)
    return limbs.view("<u4")


def _plane_steps(a: np.ndarray, total: int, cap: int, moves) -> np.ndarray:
    """Multiply the law a, an (m, K) array of 32-bit digits, one row per residue,
    by 1 + x^d mod x^m - 1 for each d in moves; with no move a comes back as it is.

    total is log2 of a's count total and cap the digits of the final one.
    The steps run on uint64 digits; a step adds two contiguous row ranges.  A
    step at most doubles a digit, so a carry pass every _CARRY_EVERY steps,
    which leaves each digit below 2^32 + 2^31, keeps all of them below 2^63.
    K at least doubles whenever the count total outgrows it, and the top
    digit never carries out: it is at most a count (<= 2^total < 2^32K) over
    2^(32 (K - 1)).
    """
    if not moves:
        return a
    m, k = a.shape
    a = a.astype(np.uint64)
    b = np.empty_like(a)
    for i, d in enumerate(moves):
        total += 1
        if total >= 32 * k:
            k = min(cap, max(2 * k, total // 32 + 1))
            a = np.concatenate((a, np.zeros((m, k - a.shape[1]), np.uint64)), axis=1)
            b = np.empty_like(a)
        if i and i % _CARRY_EVERY == 0:
            carry = a >> _DIGIT_BITS
            a &= _DIGIT_MASK
            a[:, 1:] += carry[:, :-1]
        np.add(a[d:], a[:m - d], out=b[d:])
        np.add(a[:d], a[m - d:], out=b[:d])
        a, b = b, a
    for t in range(k - 1):
        a[:, t + 1] += a[:, t] >> _DIGIT_BITS
    a &= _DIGIT_MASK
    return a.astype("<u4")


def _walk(counts, m: int) -> np.ndarray:
    """The signed-sum walk over Z_m of entry -> multiplicity counts: an (m, K)
    array of 32-bit digits, little end first, whose row a is the count of residue a.

    Each distinct entry is reduced mod m and folded to its class +-e once, so
    any int entry (negative, or not reduced) steps as its residue.  The start
    atom sits at row -Sum k e, where the x^-e factor of every step puts it;
    the largest class joins it as one binomial row if it has at least
    _BLOCK entries, and every other entry is one step by d = 2e.
    """
    classes: Counter[int] = Counter()  # e -> number of entries +-e
    for e, k in counts.items():
        r = e % m
        classes[min(r, m - r)] += k
    cap = sum(classes.values()) // 32 + 1  # digits for the final count total
    total = classes.pop(0, 0)  # log2 of the count total so far
    order = classes.most_common()
    start = -sum(k * e for e, k in order) % m
    if order and order[0][1] >= _BLOCK:
        e, j = order.pop(0)
        c, total = 1 << total, total + j  # the one atom's count times C(j, i) = C(j, j - i)
        w, row = total // 8 + 1, [0] * m
        for i in range(j // 2 + 1):
            row[(start + 2 * e * i) % m] += c
            if 2 * i < j:
                row[(start + 2 * e * (j - i)) % m] += c
            c = c * (j - i) // (i + 1)
        raw = b"".join(r.to_bytes(w, "little") for r in row)
    else:
        w = total // 8 + 1
        raw = (1 << total << 8 * w * start).to_bytes(m * w, "little")
    moves = [2 * e for e, k in order for _ in range(k)]  # the shift d of every single step
    return _plane_steps(_limb_digits(raw, m, w), total, cap, moves)


def distribution_zp(v: ZpVector, p: PrimeModulus) -> ExactDistribution:
    """Exact law of u . v over Z_p; the empty vector gives the point mass at 0."""
    check_table_size(len(v), p)
    return ExactDistribution(_walk(v.classes, p.p), 0, len(v))


def distribution_zp_bruteforce(v: ZpVector, p: PrimeModulus) -> ExactDistribution:
    """Independent oracle: enumerate all 2^n sign vectors (n <= 24).

    Kept free of the walk kernel on purpose; acceptance checks compare
    the two atom-for-atom.  Every count is at most 2^24, so one 32-bit
    digit per residue holds it.
    """
    n = len(v)
    if n > 24:
        raise GuardExceeded("brute-force enumeration limited to n <= 24")
    check_table_size(n, p)
    counts: Counter[int] = Counter()
    for mask in range(1 << n):
        s = 0
        for i, e in enumerate(v.entries):
            s += e if (mask >> i) & 1 else -e
        counts[s % p.p] += 1
    col = np.zeros((p.p, 1), "<u4")
    col[list(counts), 0] = list(counts.values())
    return ExactDistribution(col, 0, n)


def rho(v: ZpVector, p: PrimeModulus) -> RhoResult:
    """rho(v) = max_a Pr(u . v = a), exact."""
    return _max_atom(distribution_zp(v, p))


def distribution_int(entries) -> ExactDistribution:
    """Exact law of u . v over Z, supported on [-Sum|v_i|, Sum|v_i|]."""
    ents = [int(e) for e in entries]
    radius = sum(abs(e) for e in ents)
    cells = (2 * radius + 1) * max(len(ents), 1)
    if cells > TABLE_CELL_GUARD:
        raise RangeTooLarge(f"lattice table (2R+1) * n = {cells} exceeds the guard {TABLE_CELL_GUARD}")
    return ExactDistribution(_walk(Counter(ents), 2 * radius + 1), -radius, len(ents))


def rho_int(entries) -> RhoResult:
    """Exact rho over the integers (Erdos's setting)."""
    return _max_atom(distribution_int(entries))


def distribution_half(v: ZpVector, p: PrimeModulus) -> ExactDistribution:
    """Law of the lazy walk: step 0 w.p. 1/2, +-v_i w.p. 1/4 each.

    Counts live over denominator 4^n = 2^{2n}.  The walk is the plain one of
    v (+) v (every multiplicity doubled), whose row 2a mod p is atom a.
    """
    check_table_size(len(v), p)
    doubled = _walk({e: 2 * k for e, k in v.classes.items()}, p.p)
    return ExactDistribution(doubled[np.arange(0, 2 * p.p, 2) % p.p], 0, 2 * len(v))


def rho_half(v: ZpVector, p: PrimeModulus) -> RhoResult:
    """Lazy-walk concentration, read off `distribution_half`; equals rho(v (+) v)
    as a value.

    (Equality is of maxima, not maximizers: the lazy law is the doubled walk
    read at 2a, a bijection on atoms.)  For odd prime p it is always atom 0
    with count Sum_b P(b)^2 over 4^n, P the plain law's counts: the lazy law
    at a is (P * P)(2a), and as P is symmetric that is Sum_b P(b) P(b - 2a),
    which Cauchy-Schwarz maximises only at 2a = 0 (equality at 2a != 0 would
    make P uniform on Z_p, but p does not divide its total 2^n).
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
    return sum(map(math.exp, (-weights / pp).tolist())) / p.p


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
