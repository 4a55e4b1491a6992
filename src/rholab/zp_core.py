"""Exact arithmetic over Z_p: prime moduli, residue vectors, integer weights.

The central quantity everywhere downstream is the distance-to-nearest-integer
weight ||r/p||^2 of a residue r.  To keep every comparison exact we never form
that rational: a single term is carried as the integer numerator

    term_weight(r, p) = min(r, p - r)^2        (denominator p^2 implicit),

and a sum of n terms is an integer W over the same denominator.  Level-set
membership "W / p^2 <= t" against a rational threshold t is decided in one
place, level_mask, as the integer comparison W <= floor(t p^2), which is
exact because W is an integer; level_members turns that mask into the member
set, and every level set, frequency set and container downstream is one
weight_table read through it.  Floating point enters only when a bound is
*evaluated* (exp/sqrt in the Halasz expressions), never when membership or an
inequality between exact quantities is decided.

Tables over Z_p (the p x n weight table here, the O(p) atom lists of the
exact laws) are capped by TABLE_CELL_GUARD on p * max(n, 1); past it
check_table_size raises GuardExceeded instead of exhausting memory.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import GuardExceeded, PreconditionViolated

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24,
# which covers every 64-bit input.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Cap on p * max(n, 1) for tables over Z_p: a weight table of that many
# int64 cells takes about 80 MB per intermediate array.
TABLE_CELL_GUARD = 10**7


def is_prime_u64(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^64."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(x: int) -> "PrimeModulus":
    """Smallest prime >= x, as a PrimeModulus.

    Accepts 3 < x < 2^63 and raises OverflowError if the search would leave
    the 63-bit range (unreachable in practice: prime gaps are tiny).
    """
    if not 3 < x < 2**63:
        raise PreconditionViolated(f"need 3 < x < 2**63, got {x}")
    c = x
    while True:
        if c >= 2**63:
            raise OverflowError("no 63-bit prime at or above input")
        if is_prime_u64(c):
            return PrimeModulus(c)
        c += 1


@dataclass(frozen=True)
class PrimeModulus:
    """A prime p > 3."""

    p: int

    def __post_init__(self):
        if self.p <= 3:
            raise PreconditionViolated(f"modulus must exceed 3, got {self.p}")
        if not is_prime_u64(self.p):
            raise PreconditionViolated(f"{self.p} is not prime")

    def __int__(self) -> int:
        return self.p


def term_weight(r: int, p: PrimeModulus) -> int:
    """Numerator of ||r/p||^2 over the implicit denominator p^2.

    min(r, p-r)^2, an integer in [0, floor(p/2)^2].
    """
    if not 0 <= r < p.p:
        raise PreconditionViolated(f"residue {r} outside [0, {p.p - 1}]")
    return min(r, p.p - r) ** 2


@dataclass(frozen=True)
class ZpVector:
    """A length-n vector of residues and the one owner of its entry multiset.

    classes (entry -> multiplicity) is counted on first read and kept, and
    every reader shares it read-only: the law, weight table, support size |v|
    and outsideCount of v.  restrict and concat return new vectors, which
    count their own.
    """

    entries: tuple[int, ...]

    @cached_property
    def classes(self) -> Counter[int]:
        return Counter(self.entries)

    @cached_property
    def support_size(self) -> int:
        return len(self.entries) - self.classes[0]

    def __len__(self) -> int:
        return len(self.entries)

    def validate(self, p: PrimeModulus) -> "ZpVector":
        for e in self.classes:
            if not 0 <= e < p.p:
                raise PreconditionViolated(f"entry {e} outside [0, {p.p - 1}]")
        return self

    def restrict(self, indices) -> "ZpVector":
        """Subvector on the given index set, in increasing index order."""
        return ZpVector(tuple(map(self.entries.__getitem__, sorted(indices))))

    def concat(self, other: "ZpVector") -> "ZpVector":
        return ZpVector(self.entries + other.entries)


def check_table_size(n: int, p: PrimeModulus) -> None:
    """Raise GuardExceeded if an O(p n) table over Z_p would pass the guard."""
    if p.p * max(n, 1) > TABLE_CELL_GUARD:
        raise GuardExceeded(
            f"p * n = {p.p * max(n, 1)} exceeds the table guard {TABLE_CELL_GUARD}"
        )


def weight_table(v: ZpVector, p: PrimeModulus) -> np.ndarray:
    """W[k] = sum_i min(k*v_i mod p, p - ...)^2 for every k in Z_p, as int64.

    Equal entries share a column: W[k] = sum_e mult(e) * w(k*e) over the
    classes e of v, so a constant vector costs one column, not n.  Each
    distinct entry is reduced mod p in Python ints before any array product,
    so any int entry (negative, or past 2^63) weighs as its residue.  The
    table is symmetric, W[p - k] = W[k] because ||-x|| = ||x||, so only the
    rows k = 0..p//2 are computed and the rest are their mirror image.  The
    residues k*e mod p and their weights are computed in place, in int32
    when (p//2)(p - 1) < 2^31 bounds k*e and in int64 otherwise.  The sum
    over the columns is int64 and exact: under the table guard it is at most
    n * (p/2)^2 <= p n * p / 4 <= 2.5 * 10^13, far below 2^63.
    """
    check_table_size(len(v), p)
    q = p.p
    dtype = np.int32 if (q // 2) * (q - 1) < 2**31 else np.int64
    residues = np.array([e % q for e in v.classes], dtype)
    r = np.multiply.outer(np.arange(q // 2 + 1, dtype=dtype), residues)
    r %= q
    np.minimum(r, q - r, out=r)
    r *= r
    half = r @ np.fromiter(v.classes.values(), np.int64, len(v.classes))
    return np.concatenate((half, half[:0:-1]))


def level_mask(weights, t, p: PrimeModulus) -> np.ndarray:
    """Exact membership mask W(k) / p^2 <= t for integer weights W(k).

    W <= t p^2 iff W <= floor(t p^2) because W is an integer.  The cap is a
    Python int, which numpy compares exactly even past int64.
    """
    t = Fraction(t)
    return np.asarray(weights) <= t.numerator * p.p * p.p // t.denominator


def level_members(weights, t, p: PrimeModulus) -> frozenset[int]:
    """The frequencies k with W(k) / p^2 <= t, as a set."""
    return frozenset(np.flatnonzero(level_mask(weights, t, p)).tolist())
