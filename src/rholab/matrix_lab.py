"""Random symmetric sign matrices: exact singularity, ranks over F_p, and
the algebraic identities behind the rank-reduction arguments.

Exactness contract: a matrix is declared singular over Z only when its
integer determinant is exactly zero.  singular_count_block, behind both the
exhaustive and the Monte Carlo counts, switches each sign matrix M so that
its first row and column are all +1 (as singularity_exact does) and counts
on the switched 0/1 complement B of order n - 1, B_ij = b_00 ^ b_0i ^ b_0j
^ b_ij over the packed bits, with det M = +-2^{n-1} det B (the classical
+-1 to 0/1 reduction; J. Williamson, Amer. Math. Monthly 53, 1946).  It runs
fraction-free (Bareiss) elimination on a batch of these B in float
(_float_bareiss).  The operands of step k are (k+1)-order 0/1 minors, at
most (k+2)^{(k+2)/2} / 2^{k+1} by Hadamard's bound, so each numerator
a_kk a_ij - a_ik a_kj is an integer below 2 (k+2)^{k+2} / 4^{k+1}: below
2^24 for the first _FLOAT32_STEPS = 11 steps, which run in float32, and
below 2^53 for the first 19.  The count takes _FLOAT_STEPS = 13 steps, which
decide every n <= 15.  A matrix with no pivot in a column is singular.  For
n >= 16 the trailing (n-14)-square block T of the others holds 14-order
minors, at most 15^{15/2} / 2^14; Sylvester's identity gives
det T = +-det(B_13)^{n-15} det B (rows swapped) with the leading block B_13
nonsingular, so T's rank modulo _BLOCK_PRIME flags every singular B, and
Bareiss on T in Python ints confirms or clears each flag.  _BLOCK_PRIME =
16381 lies above Hadamard's bound 14^7 / 2^13 on det B_13, so a nonsingular
B is flagged only when p | det B, about one matrix in p.  So Monte Carlo
counts are exact counts.  A Monte Carlo block's bits are numpy's bounded
draw g.integers(0, 2), read off Philox's raw words (_bit_chunks).  The CRT
determinant det_exact is an independent cross-check of Bareiss, not part of
the count.

Number formats: per-matrix work (determinants, ranks, RREF, inverses,
adjugates, identity checks) reads every entry into a Python int, held in
numpy object arrays where a matmul reads better; it is exact for every
prime PrimeModulus accepts and needs no guard.  Every reader, batched or
not, takes an integral float as the integer it is, of any size, and raises
PreconditionViolated on 2.5, NaN or an infinity.  A plain-int modulus must
be prime (PreconditionViolated otherwise).  batch_rank_mod_p works in
float64 only, for primes below 2^26 (GuardExceeded otherwise), keeping
every value an integer below 2^53.  odlyzko_check's span product (entries
at most k(p - 1) + 1 for k basis rows) and _solution_counts work in int64
and raise GuardExceeded before a value could reach 2^63.  The float
elimination holds integers below 2^53 by the bound above, which rests on
0/1 entries of B: singular_count_block rejects bits outside {0, 1}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct

import numpy as np

from .anticoncentration import rho
from .errors import (
    DependentBasis,
    GuardExceeded,
    PreconditionViolated,
    SingularMatrix,
)
from .rng import substream
from .zp_core import PrimeModulus, ZpVector, is_prime_u64

_CRT_START = 2**31 - 1  # Mersenne prime: the first CRT prime of det_exact
# The largest prime below 2^14: above Hadamard's bound 14^7 / 2^13 on 13-order
# 0/1 minors, and small enough for a table of its inverses (see _inverse_mod).
_BLOCK_PRIME = 16381
_DET_GUARD = 64
_EXACT_ENUM_GUARD = 6
_MATCH_GUARD = 4
_ODLYZKO_GUARD = 14
_DECOUPLE_SUPPORT_GUARD = 16
_Q_ENUM_GUARD = 10**8
_MC_BLOCK = 20000  # trials per Monte Carlo block
_SUB_BATCH = 1024  # matrices per float64 elimination in singular_count_block
# Bareiss step k on a 0/1 matrix works on (k+1)-order minors, at most
# (k+2)^((k+2)/2) / 2^(k+1) by Hadamard's bound, so its numerator is below
# 2 (k+2)^(k+2) / 4^(k+1): below 2^24 (exact in float32) for the first 11
# steps, below 2^53 for the first 19.  The count runs 13 steps, so n >= 16
# leaves a trailing block to the rank kernel mod _BLOCK_PRIME.
_FLOAT32_STEPS = max(s for s in range(1, 64) if 2 * (s + 1) ** (s + 1) < 2**24 * 4**s)
_FLOAT_STEPS = 13

WILSON_Z = 1.959963984540054  # two-sided 95%


# ---------------------------------------------------------------------------
# Exact determinants: Bareiss (big-int) and CRT (residues past Hadamard).
# ---------------------------------------------------------------------------


def _int(x) -> int:
    """A matrix entry as a Python int: PreconditionViolated unless it is an
    integer (an integral float is; 2.5, NaN and the infinities are not)."""
    try:
        if (i := int(x)) == x:
            return i
    except (ValueError, OverflowError):
        pass
    raise PreconditionViolated(f"matrix entry {x!r} is not an integer")


def _int_rows(mat) -> list[list[int]]:
    """The rows of a matrix as lists of Python ints; an array's through tolist."""
    return [[_int(x) for x in row] for row in (mat.tolist() if isinstance(mat, np.ndarray) else mat)]


def _square_ints(mat) -> list[list[int]]:
    """The entries of a square matrix as Python ints (PreconditionViolated
    unless square, 0 x 0 included, with integer entries)."""
    a = _int_rows(mat)
    n = len(a)
    if any(len(row) != n for row in a) or isinstance(mat, np.ndarray) and mat.shape != (n, n):
        raise PreconditionViolated("matrix must be square")
    return a


def det_bareiss(mat) -> int:
    """Fraction-free elimination; exact integer determinant."""
    a = _square_ints(mat)
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _rref(a: list[list[int]], p: int) -> tuple[list[int], int]:
    """Reduce the rows of `a` (residues mod p) to RREF over F_p, in place.

    Returns the pivot columns and det_factor, the product of the pivots
    times -1 per row swap (mod p): the determinant of a square full-rank a.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    det = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            det = -det
        det = det * a[r][c] % p
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots, det


def _residues(mat, p: int) -> list[list[int]]:
    return [[x % p for x in row] for row in _int_rows(mat)]


def _det_mod(mat, p: int) -> int:
    a = _residues(mat, p)
    pivots, det = _rref(a, p)
    return det if len(pivots) == len(a) else 0


def _crt_primes(bound: int) -> list[int]:
    """Descending word-size primes whose product exceeds 2 * bound."""
    primes: list[int] = []
    prod = 1
    c = _CRT_START
    while prod <= 2 * bound:
        while not is_prime_u64(c):
            c -= 2
        primes.append(c)
        prod *= c
        c -= 2
    return primes


def det_exact(mat) -> int:
    """Exact integer determinant via CRT residues with symmetric lift.

    Valid for integer matrices of dimension <= 64: the Hadamard bound
    prod_i ||row_i|| caps |det|, and the prime set's product exceeds twice
    that bound (for +-1 matrices it is n^{n/2}).
    """
    a = _square_ints(mat)
    n = len(a)
    if n > _DET_GUARD:
        raise GuardExceeded(f"det_exact guard is n <= {_DET_GUARD}")
    if n == 0:
        return 1
    hadamard = math.isqrt(math.prod(sum(x * x for x in row) for row in a)) + 1
    x = 0
    mod = 1
    for p in _crt_primes(hadamard):
        r = _det_mod(a, p)
        # incremental CRT
        t = (r - x) * pow(mod % p, p - 2, p) % p
        x = x + mod * t
        mod *= p
    if x > mod // 2:
        x -= mod
    return x


def _prime(p: PrimeModulus | int) -> int:
    """The modulus as an int; a plain int, 2 and 3 included, must be prime."""
    if isinstance(p, PrimeModulus):
        return p.p
    if not is_prime_u64(int(p)):
        raise PreconditionViolated(f"modulus {p} is not prime")
    return int(p)


def rank_mod_p(mat, p: PrimeModulus | int) -> int:
    """Row-echelon rank over F_p by elimination with division."""
    p = _prime(p)
    return len(_rref(_residues(mat, p), p)[0])


def rref_mod_p(mat, p: PrimeModulus | int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon form and pivot columns."""
    p = _prime(p)
    a = _residues(mat, p)
    return a, _rref(a, p)[0]


# ---------------------------------------------------------------------------
# Batched kernels for Monte Carlo work: exact float64.
# ---------------------------------------------------------------------------


@functools.cache
def _packed_positions(n: int) -> np.ndarray:
    """(n, n) index of each entry's bit in the packed row-major upper
    triangle; one read-only array per n."""
    rows, cols = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(rows.size)
    pos.flags.writeable = False
    return pos


def _bits_to_sym(bits: np.ndarray, n: int) -> np.ndarray:
    """[B, n(n+1)/2] in {0,1} -> [B, n, n] symmetric +-1 matrices, gathered
    through the packed position of each entry."""
    return np.take(np.asarray(bits, dtype=np.int64) * 2 - 1, _packed_positions(n), axis=1)


def _float_bareiss(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fraction-free elimination of the (n, n, B) batch of 0/1 matrices
    (batch innermost, overwritten) for min(n - 1, _FLOAT_STEPS) steps.  The
    entries must be 0 or 1: the exactness bound on each step's numerator
    (below 2^53, and below 2^24 for the first _FLOAT32_STEPS = 11) is
    Hadamard's bound on 0/1 minors.  A float32 batch runs its first
    _FLOAT32_STEPS steps in float32 (half the memory traffic), the rest in
    float64.

    At each step a matrix whose corner is 0 swaps in the first nonzero
    pivot of its column; only those matrices' columns are searched.  One
    with none is singular; it stays in the batch with its previous pivot
    standing in, so the step only drops its zero column and first row
    (every later value is still a 0/1 minor within the bound).  Every
    trailing entry becomes (a_kk a_ij - a_ik a_kj) / (previous pivot), the
    cross products going to one scratch buffer.  The first pivot of a 0/1
    matrix is 1 (a nonzero entry, or the stand-in 1), so step 0 skips the
    product by a_kk and steps 0 and 1 skip the division.  Returns the batch
    indices of the singular matrices, ascending, and the trailing blocks of
    the rest: 1 x 1 blocks (0 x 0 when n = 0) that all hold a nonzero
    determinant when n <= _FLOAT_STEPS + 1, otherwise
    (n - _FLOAT_STEPS)-square blocks T with det T = 0 iff det A = 0
    (Sylvester's identity; the leading pivot block is nonsingular).
    """
    steps = min(a.shape[0] - 1, _FLOAT_STEPS)
    singular = np.zeros(a.shape[2], dtype=bool)
    prev = np.ones(a.shape[2], dtype=a.dtype)
    buf = np.empty_like(a)
    for k in range(steps + 1):
        if k == _FLOAT32_STEPS:
            a, prev = a.astype(np.float64), prev.astype(np.float64)
            buf = np.empty_like(a)
        sw = np.flatnonzero(a[0, 0] == 0)
        if sw.size:
            nz = a[:, 0, sw] != 0
            has = nz.any(axis=0)
            if not has.all():
                lack = sw[~has]
                singular[lack] = True
                a[0, 0, lack] = prev[lack]
            if k < steps:  # a lacking column's argmax is row 0: it stays
                r = nz.argmax(axis=0)
                a[0, :, sw], a[r, :, sw] = a[r, :, sw], a[0, :, sw]
        if k == steps:
            break
        pivot = a[0, 0].copy()
        m = len(a) - 1
        cross = np.multiply(a[1:, :1], a[:1, 1:], out=buf[:m, :m])
        a = a[1:, 1:]
        if k:
            a *= pivot
        a -= cross
        if k > 1:
            a /= prev
        prev = pivot
    flagged = np.flatnonzero(singular)
    return flagged, np.take(a, np.flatnonzero(~singular), axis=2) if flagged.size else a


def _reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Float64 x mod p in place, by subtracting p times the integer nearest
    to x/p as rounded, to |x| <= p/2 + 2, exactly while |x| < 2^52."""
    q = np.rint(x * (1.0 / p))
    q *= p
    x -= q
    return x


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses of the reduced residues x, all nonzero mod p.

    _BLOCK_PRIME, the prime of every Monte Carlo trailing block, reads them
    from a table of its p inverses; a negative residue r indexes from the
    end, at p + r.  Any other prime takes x^(p-2) by squaring, as a table
    for every prime below 2^26 would take up to 512 MiB.
    """
    if p == _BLOCK_PRIME:
        return _block_inverses()[x.astype(np.intp)]
    return _fermat_inverse(x, p)


def _fermat_inverse(x: np.ndarray, p: int) -> np.ndarray:
    inv = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            inv *= x
            _reduce_mod(inv, p)
        e >>= 1
        if e:
            x = _reduce_mod(x * x, p)
    return inv


@functools.cache
def _block_inverses() -> np.ndarray:
    """The float64 table of r^-1 mod _BLOCK_PRIME at index r (128 KiB;
    index 0 is unused)."""
    table = np.zeros(_BLOCK_PRIME)
    table[1:] = _fermat_inverse(np.arange(1.0, _BLOCK_PRIME), _BLOCK_PRIME)
    table.flags.writeable = False
    return table


def batch_rank_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over F_p for a batch of square matrices.

    The batch runs innermost, as an (n, n, B) array.  Each step brings a
    nonzero entry to the corner of every matrix's trailing block: the first
    one of its first column by a row swap or, when that column is zero, the
    first nonzero column by a column swap; neither changes the rank.  The
    other rows lose l_i = a_i0 / a_00 times the first row, whose residues
    are reduced first, and the first row and column are dropped.  A matrix
    whose trailing block is zero has its rank and leaves the batch.

    Entries must be integers, as in rank_mod_p.  A float batch below 2^52
    is reduced in float64 as it is, an int one in int64, and anything else
    (objects, uint64, larger floats) as exact Python ints.  The prime p is
    below 2^26 (GuardExceeded otherwise), so a reduced residue is at most
    p/2 + 2 and each product l_i a_0j is below 2^51.  The trailing block is
    reduced only when one more step could take an entry to 2^52, so every
    value is an exact integer and _reduce_mod, which needs |x| < 2^52,
    stays exact.
    """
    p = _prime(p)
    if p >= 2**26:
        raise GuardExceeded("batch_rank_mod_p runs in float64 and needs p < 2^26")
    # rank_mod_p accepts entries past int64: keep a nested list's big ints
    # exact as objects (np.asarray would make them float64), and reduce
    # object or uint64 entries, NaN, the infinities and floats past 2^52 one
    # by one, before the int64 cast overflows or wraps them.
    a = np.asarray(mats, dtype=None if isinstance(mats, np.ndarray) else object)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise PreconditionViolated("mats must have shape (B, n, n)")
    if a.dtype in (object, np.uint64) or a.dtype.kind == "f" and not (np.abs(a) < 2**52).all():
        a = np.frompyfunc(lambda x: _int(x) % p, 1, 1)(a)
    b, n, _ = a.shape
    if a.dtype.kind == "f":
        if (np.trunc(a) != a).any():
            raise PreconditionViolated("batch_rank_mod_p needs integer entries")
        a = _reduce_mod(np.array(a.transpose(1, 2, 0), dtype=np.float64, order="C"), p)
    else:
        a = np.ascontiguousarray((np.asarray(a, dtype=np.int64) % p).transpose(1, 2, 0), dtype=np.float64)
    step = (p // 2 + 2) ** 2
    top = p  # bound on |entry|: p right after a reduction, + step per step
    buf = np.empty_like(a)
    rank = np.full(b, n, dtype=np.int64)
    live = np.arange(b)
    for k in range(n):
        nz = _reduce_mod(a[:, 0], p) != 0
        has = nz.any(axis=0)
        if not has.all():
            lack = np.flatnonzero(~has)
            a[:, :, lack] = block = _reduce_mod(a[:, :, lack], p)
            cols = (block != 0).any(axis=0)
            found = cols.any(axis=0)
            sw, c = lack[found], cols[:, found].argmax(axis=0)
            a[:, 0, sw], a[:, c, sw] = a[:, c, sw], a[:, 0, sw]
            has[sw] = True
            if not has.all():
                rank[live[~has]] = k
                keep = np.flatnonzero(has)
                a, live, buf = np.take(a, keep, axis=2), live[keep], buf[:, :, : keep.size]
            nz = a[:, 0] != 0
        if k == n - 1:  # a 1 x 1 block: nothing is left to eliminate
            break
        piv = nz.argmax(axis=0)
        sw = np.flatnonzero(piv)
        r = piv[sw]
        a[0, :, sw], a[r, :, sw] = a[r, :, sw], a[0, :, sw]
        row = _reduce_mod(a[:1, 1:], p)
        col = _reduce_mod(a[1:, :1] * _inverse_mod(a[0, 0], p), p)
        a = a[1:, 1:]
        if top + step >= 2**52:
            _reduce_mod(a, p)
            top = p
        a -= np.multiply(col, row, out=buf[: len(a), : len(a)])
        top += step
    return rank


# ---------------------------------------------------------------------------
# Singularity: exhaustive at tiny n, Monte Carlo with exact confirmation.
# ---------------------------------------------------------------------------


def singularity_exact(n: int) -> Fraction:
    """Exact Pr(det M_n = 0), from one matrix per switching class.

    Switching M -> s D M D (D diagonal +-1, s = +-1) gives det(s D M D) =
    s^n det M, so it keeps singularity.  Every entry of M is nonzero, so the
    action is free: its 2^n distinct maps (D and -D act alike) move M to 2^n
    distinct matrices.  Each class has exactly one member whose first row is
    all +1 (s = m_11, then d_j = s d_1 m_1j), so the singular fraction of the
    2^{n(n-1)/2} matrices with that first row is Pr(det M_n = 0).
    """
    singular = sum(singular_count_block(n, bits) for bits in _switching_chunks(n))
    return Fraction(singular, 1 << (n * (n - 1) // 2))


def rank_law_exact(n: int, p: PrimeModulus | int) -> tuple[Fraction, ...]:
    """Exact Pr(rk M_n = k over F_p) for k = 0..n.

    Switching keeps the rank over F_p (s D is invertible), so, as in
    singularity_exact, the law of the rank is its law over the matrices
    whose first row is all +1, ranked by batch_rank_mod_p.
    """
    ranks = np.concatenate([batch_rank_mod_p(_bits_to_sym(b, n), p) for b in _switching_chunks(n)])
    return tuple(Fraction(int(c), len(ranks)) for c in np.bincount(ranks, minlength=n + 1))


def _switching_chunks(n: int):
    """The packed-bit chunks of the switching representatives of the n x n
    symmetric sign matrices (first row all +1), for 1 <= n <=
    _EXACT_ENUM_GUARD (PreconditionViolated or GuardExceeded otherwise)."""
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    if n > _EXACT_ENUM_GUARD:
        raise GuardExceeded(f"exhaustive enumeration guard is n <= {_EXACT_ENUM_GUARD}")
    return _sym_chunks(n, fixed=n)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials <= 0:
        raise PreconditionViolated("trials must be positive")
    if not 0 <= successes <= trials:
        raise PreconditionViolated("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = WILSON_Z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class SingularityEstimate:
    n: int
    trials: int
    singular_count: int
    point_estimate: float
    wilson95: tuple[float, float]
    conjecture_value: float          # n^2 2^{1-n}
    context_bound_shape: float       # exp(-c sqrt(n)) with c = 2^-15, context only


def singular_count_block(n: int, bits: np.ndarray) -> int:
    """Exact count of singular matrices among the [B, n(n+1)/2] packed-bit
    batch, in sub-batches of _SUB_BATCH: float Bareiss on the switched 0/1
    complements decides n <= _FLOAT_STEPS + 2; past that the trailing
    blocks it leaves get their rank mod _BLOCK_PRIME, and Bareiss on Python
    ints confirms each block whose rank drops."""
    bits = np.asarray(bits)
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    if bits.ndim != 2 or bits.shape[1] != n * (n + 1) // 2:
        raise PreconditionViolated("bits must have shape [B, n(n+1)/2]")
    if bits.dtype.kind in "biu":  # bool and integers: two reductions, no temporaries
        in_range = bits.size == 0 or (bits.min() >= 0 and bits.max() <= 1)
    else:  # a float such as 0.5 lies between 0 and 1
        in_range = ((bits == 0) | (bits == 1)).all()
    if not in_range:
        raise PreconditionViolated("bits must be 0 or 1")
    pos = _packed_positions(n)
    return sum(
        _sub_batch_singular(n, bits[start : start + _SUB_BATCH], pos)
        for start in range(0, len(bits), _SUB_BATCH)
    )


def _switched_complement(bits: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The (n-1, n-1, B) uint8 0/1 matrices B_ij = b_00 ^ b_0i ^ b_0j ^ b_ij
    (i, j >= 1) of a packed-bit batch [B, n(n+1)/2], through the packed
    positions pos; det M = +-2^(n-1) det B.

    Switching M to s D M D with s = m_00, d_j = m_00 m_0j (see
    singularity_exact) makes its first row and column all +1 and keeps
    |det M|.  Entry ij becomes m_00 m_0i m_0j m_ij, which is -1 exactly when
    an odd number of the four bits is 1, that is when B_ij = 1.  Subtracting
    the first row from the others leaves -2 B beside the corner 1.
    """
    b = np.ascontiguousarray(bits.astype(np.uint8, copy=False).T)
    first = b[pos[0]]
    c = b[pos[1:, 1:]]
    c ^= first[1:, None]
    c ^= first[None, 1:] ^ first[0]
    return c


def _sub_batch_singular(n: int, bits: np.ndarray, pos: np.ndarray) -> int:
    """Exact count of singular matrices in a packed-bit sub-batch, by
    float32/float64 Bareiss on their switched 0/1 complements B (order
    n - 1), which decides n <= _FLOAT_STEPS + 2."""
    flagged, t = _float_bareiss(_switched_complement(bits, pos).astype(np.float32))
    if n <= _FLOAT_STEPS + 2:
        return int(flagged.size)
    t = t.transpose(2, 0, 1)
    suspects = np.flatnonzero(batch_rank_mod_p(t, _BLOCK_PRIME) < n - 1 - _FLOAT_STEPS)
    return int(flagged.size) + sum(1 for i in suspects if det_bareiss(t[i]) == 0)


def _bit_chunks(g: np.random.Generator, size: int, m: int):
    """The rows of g.integers(0, 2, size=(size, m), dtype=np.int64), as
    uint8 chunks of at most _SUB_BATCH rows, read off Philox's raw words.

    For the range 2, numpy's bounded draw (Lemire's method) keeps the top
    bit of a 32-bit draw, and Philox hands out each 64-bit word low half
    first.  So word w gives the bits (w >> 31) & 1, then w >> 63; the "<u4"
    view of the "<u8" words takes the halves in that order on any host.
    _SUB_BATCH is even, so only the last chunk can end on half a word.
    """
    for start in range(0, size, _SUB_BATCH):
        need = min(_SUB_BATCH, size - start) * m
        words = g.bit_generator.random_raw((need + 1) // 2)
        halves = words.astype("<u8", copy=False).view("<u4")[:need]
        yield (halves >> 31).astype(np.uint8).reshape(-1, m)


def _mc_block_task(args) -> int:
    n, master_seed, block_idx, block_size = args
    g = substream(master_seed, f"singularity-mc:n={n}", block_idx)
    # The chunks are the rows of one (block_size, n(n+1)/2) bounded draw;
    # only one chunk is held at a time.
    return sum(singular_count_block(n, bits) for bits in _bit_chunks(g, block_size, n * (n + 1) // 2))


def singularity_mc_sharded(
    n: int, trials: int, master_seed: int, workers: int = 1
) -> SingularityEstimate:
    """Monte Carlo estimate sharded into counter-keyed trial blocks.

    Block i always draws from substream (seed, "singularity-mc:n=<n>", i), so
    the result is byte-identical for every worker count; workers only change
    scheduling.  Blocks hold _MC_BLOCK trials each, the last one fewer.  The
    pool has at most one worker per block, and one block runs in process.
    """
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    if n > _DET_GUARD:
        raise GuardExceeded(f"guard is n <= {_DET_GUARD}")
    if trials <= 0:
        raise PreconditionViolated("trials must be positive")
    starts = range(0, trials, _MC_BLOCK)
    tasks = [(n, master_seed, i, min(_MC_BLOCK, trials - s)) for i, s in enumerate(starts)]
    workers = min(workers, len(tasks))
    if workers <= 1:
        counts = [_mc_block_task(t) for t in tasks]
    else:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            counts = pool.map(_mc_block_task, tasks)
    singular = int(sum(counts))
    return SingularityEstimate(
        n=n,
        trials=trials,
        singular_count=singular,
        point_estimate=singular / trials,
        wilson95=wilson_interval(singular, trials),
        conjecture_value=n * n * 2.0 ** (1 - n),
        context_bound_shape=math.exp(-(2.0**-15) * math.sqrt(n)),
    )


# ---------------------------------------------------------------------------
# Exhaustive probability checks at tiny n.
# ---------------------------------------------------------------------------


def _sym_chunks(n: int, fixed: int = 0):
    """Symmetric sign matrices in index order, as [B, n(n+1)/2] packed-bit
    chunks (see _bits_to_sym).

    Matrix idx takes bit j of idx as its j-th packed (row-major) upper-triangle
    entry.  The chunks hold every idx whose packed bits 0..fixed-1 are set, so
    fixed=0 gives all 2^{n(n+1)/2} matrices and fixed=n those whose first row
    is all +1.
    """
    m = n * (n + 1) // 2
    total = 1 << (m - fixed)
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64) << fixed
        idx |= (1 << fixed) - 1
        yield (idx[:, None] >> np.arange(m)[None, :]) & 1


def _solution_counts(n: int, p: int, vs, ws, rows=slice(None)) -> list[int]:
    """For each w in ws, the number of symmetric sign n x n matrices M with
    (M v)_rows = w_rows over F_p for some v in vs (length-n int sequences).

    With v and w reduced mod p, |(M v)_i - w_i| <= (n + 1)(p - 1), which must
    stay below 2^63 (GuardExceeded otherwise).
    """
    if (n + 1) * (p - 1) >= 2**63:
        raise GuardExceeded("exhaustive counts need (n + 1)(p - 1) < 2^63 for int64 sums")
    vs = np.array([[int(x) % p for x in v] for v in vs], dtype=np.int64).reshape(len(vs), n)
    ws = [np.array([int(x) % p for x in w], dtype=np.int64) for w in ws]
    hits = [0] * len(ws)
    for bits in _sym_chunks(n):
        mv = _bits_to_sym(bits, n)[:, rows, :] @ vs.T  # [B, |rows|, K]
        for j, w in enumerate(ws):
            hits[j] += int(((mv - w[rows, None]) % p == 0).all(axis=1).any(axis=1).sum())
    return hits


def _match_fraction(v: ZpVector, w: ZpVector, p: PrimeModulus, rows=slice(None)) -> Fraction:
    """Exact Pr((M_n v)_rows = w_rows over F_p), enumerated."""
    n = len(v)
    if n > _MATCH_GUARD:
        raise GuardExceeded(f"enumeration guard is n <= {_MATCH_GUARD}")
    if len(w) != n:
        raise PreconditionViolated("v and w must have equal length")
    (hits,) = _solution_counts(n, p.p, [v.entries], [w.entries], rows)
    return Fraction(hits, 1 << (n * (n + 1) // 2))


def match_probability_exact(v: ZpVector, w: ZpVector, p: PrimeModulus) -> Fraction:
    """Exact Pr(M_n v = w over F_p) by enumerating all symmetric sign matrices."""
    return _match_fraction(v, w, p)


@dataclass(frozen=True)
class BlockProbabilityResult:
    probability: Fraction
    bound: Fraction   # rho(v_Y)^{|X|}
    holds: bool


def block_probability_exact(
    v: ZpVector, w: ZpVector, x_rows, y_cols, p: PrimeModulus
) -> BlockProbabilityResult:
    """Exact Pr(M_{X x [n]} v = w_X) against the row-block bound rho(v_Y)^|X|.

    X and Y must be disjoint; the bound relies on the X x Y block of a
    symmetric matrix being made of |X| * |Y| independent entries.
    """
    xs = sorted(set(int(i) for i in x_rows))
    ys = sorted(set(int(i) for i in y_cols))
    if set(xs) & set(ys):
        raise PreconditionViolated("X and Y must be disjoint")
    if any(not 0 <= i < len(v) for i in xs + ys):
        raise PreconditionViolated("index out of range")
    prob = _match_fraction(v, w, p, xs)
    bound = rho(v.restrict(ys), p).value ** len(xs)
    return BlockProbabilityResult(prob, bound, prob <= bound)


def odlyzko_check(basis, n: int, p: PrimeModulus) -> tuple[int, bool]:
    """Count sign vectors inside span(basis) over F_p; at most 2^|basis|.

    n >= 0 and the k basis rows, of length n (PreconditionViolated
    otherwise), must be independent (DependentBasis otherwise).  Each row of
    the RREF R is 1 at its own pivot and 0 at the others, so x in {-1,1}^n
    is in the span iff x = x[pivots] R mod p: one int64 product, with
    |x[pivots] R - x| <= k(p - 1) + 1 < 2^63 (k >= 1 here, as p is an
    operand too; GuardExceeded otherwise).
    """
    if n < 0:
        raise PreconditionViolated(f"n must be >= 0, got {n}")
    if n > _ODLYZKO_GUARD:
        raise GuardExceeded(f"guard is n <= {_ODLYZKO_GUARD}")
    basis = list(basis)
    k = len(basis)
    if max(k, 1) * (p.p - 1) + 1 >= 2**63:
        raise GuardExceeded("odlyzko_check needs k(p - 1) + 1 < 2^63 for its int64 product")
    if any(len(row) != n for row in basis):
        raise PreconditionViolated("basis rows must have length n")
    rref, pivots = rref_mod_p(basis, p)
    if len(pivots) < k:
        raise DependentBasis("claimed basis is dependent over F_p")
    signs = ((np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1) * 2 - 1
    r = np.array(rref, dtype=np.int64).reshape(k, n)
    count = int(((signs[:, pivots] @ r - signs) % p.p == 0).all(axis=1).sum())
    return count, count <= (1 << k)


# ---------------------------------------------------------------------------
# Adjugate and decoupling identities.
# ---------------------------------------------------------------------------


def adjugate_mod_p(mat, p: PrimeModulus) -> list[list[int]]:
    """Transpose cofactor matrix over F_p, by minor determinants."""
    a = _residues(_square_ints(mat), p.p)
    d = len(a)
    adj = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [r[:i] + r[i + 1 :] for k, r in enumerate(a) if k != j]
            adj[i][j] = (-1) ** (i + j) * _det_mod(minor, p.p) % p.p
    return adj


@dataclass(frozen=True)
class AdjugateReport:
    checks: dict[str, bool]
    nontrivial_column: int
    scale: int

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def adjugate_rank1_check(mat, p: PrimeModulus) -> AdjugateReport:
    """For a symmetric corank-1 matrix: adj has rank 1 and factors as
    lambda * a a^T with a a kernel column.

    The input plays the role of the (n-1)-dimensional principal minor of an
    n-dimensional matrix of corank 2 ("rank n-2"); it must be square and its
    own rank must be dim - 1 (PreconditionViolated otherwise).
    """
    a = np.array(_residues(_square_ints(mat), p.p), dtype=object)
    d = len(a)
    if not (a == a.T).all():
        raise PreconditionViolated("matrix must be symmetric")
    if rank_mod_p(a, p) != d - 1:
        raise PreconditionViolated("matrix rank must be dimension - 1")
    adj = np.array(adjugate_mod_p(a, p), dtype=object)
    checks: dict[str, bool] = {}
    checks["m_adj_zero"] = bool((a @ adj % p.p == 0).all())
    checks["adj_rank_one"] = rank_mod_p(adj, p) == 1
    col = next((j for j in range(d) if adj[:, j].any()), -1)
    checks["nontrivial_column_exists"] = col >= 0
    lam = 0
    factor_ok = False
    kernel_ok = False
    if col >= 0:
        avec = adj[:, col]
        kernel_ok = bool((a @ avec % p.p == 0).all())
        # c_ij = lam a_i a_j; with a = column `col`, lam = inv(a_col)
        lam = pow(avec[col], p.p - 2, p.p)
        factor_ok = bool((adj == lam * np.outer(avec, avec) % p.p).all())
    checks["kernel_column"] = kernel_ok
    checks["rank_one_factorization"] = factor_ok
    return AdjugateReport(checks, col, lam)


def inverse_mod_p(mat, p: PrimeModulus) -> np.ndarray:
    """Inverse over F_p, read off the RREF of [A | I], as an object array of ints."""
    a = _residues(_square_ints(mat), p.p)
    d = len(a)
    aug = [row + [int(i == j) for j in range(d)] for i, row in enumerate(a)]
    if _rref(aug, p.p)[0] != list(range(d)):
        raise SingularMatrix("matrix not invertible over F_p")
    return np.array([row[d:] for row in aug], dtype=object)


def decoupling_identity_check(
    mat, u, u_prime, i_set, j_set, p: PrimeModulus
) -> bool:
    """Verify the hybrid quadratic-form identity

        f(X,Y) - f(X',Y) - f(X,Y') + f(X',Y') = 2 z_I . w_I   (mod p)

    for f(X,Y) = h^T M^{-1} h with h the (I from u / J from u') hybrid,
    w = u - u', z = M^{-1} w*_J.  Must hold for every invertible symmetric M
    and every partition I, J.
    """
    a = inverse_mod_p(mat, p)
    d = len(a)
    i_set, j_set = {int(i) for i in i_set}, {int(j) for j in j_set}
    if i_set & j_set or i_set | j_set != set(range(d)):
        raise PreconditionViolated("I, J must partition the index set")
    if len(u) != d or len(u_prime) != d:
        raise PreconditionViolated("u and u' must have the dimension of the matrix")
    in_i = np.array([i in i_set for i in range(d)], dtype=bool)
    uu = np.array([int(x) for x in u], dtype=object)
    vv = np.array([int(x) for x in u_prime], dtype=object)

    def f(x_from, y_from):
        h = np.where(in_i, x_from, y_from)
        return h @ a @ h

    lhs = (f(uu, uu) - f(vv, uu) - f(uu, vv) + f(vv, vv)) % p.p
    w = uu - vv
    z = a @ np.where(in_i, 0, w)
    rhs = 2 * (z @ np.where(in_i, w, 0)) % p.p
    return lhs == rhs


def decoupling_probability_check(px: dict, py: dict, event) -> bool:
    """Verify Pr(E)^4 <= Pr(E(X,Y) & E(X',Y) & E(X,Y') & E(X',Y')) exactly.

    px, py: value -> Fraction probability (independent X, Y with finite
    supports); event: predicate on (x, y), read once per pair.  Given X and
    X', the copies Y and Y' are independent, so the four-copy probability is
    sum over x, x' of p(x) p(x') c(x, x')^2 with c(x, x') = Pr_Y(E(x, Y) &
    E(x', Y)); all arithmetic in Fractions.
    """
    if len(px) > _DECOUPLE_SUPPORT_GUARD or len(py) > _DECOUPLE_SUPPORT_GUARD:
        raise GuardExceeded("support guard exceeded")
    for d in (px, py):
        if sum(d.values()) != 1:
            raise PreconditionViolated("probabilities must sum to 1")
    rows = [(pxv, [event(x, y) for y in py]) for x, pxv in px.items()]
    pr_e = sum(pxv * pyv for pxv, row in rows for pyv, e in zip(py.values(), row) if e)
    pr_four = sum(
        pxv * pxv2 * sum(pyv for pyv, e, e2 in zip(py.values(), row, row2) if e and e2) ** 2
        for pxv, row in rows
        for pxv2, row2 in rows
    )
    return pr_e**4 <= pr_four


# ---------------------------------------------------------------------------
# Exhaustive q_n(beta) at tiny sizes.
# ---------------------------------------------------------------------------


def _structured_vectors(n: int, p: PrimeModulus, beta, strict: bool) -> list[tuple[int, ...]]:
    """The nonzero v in Z_p^n with rho(v) >= beta.

    strict mode enforces the beta >= 4/p floor below which "structured" loses
    meaning (4x the uniform atom); strict=False probes smaller beta.
    """
    beta = Fraction(beta)
    if strict and beta < Fraction(4, p.p):
        raise PreconditionViolated(f"strict mode needs beta >= 4/p = 4/{p.p}")
    return [
        tup for tup in _iproduct(range(p.p), repeat=n)
        if any(tup) and rho(ZpVector(tup), p).value >= beta
    ]


def q_exact(
    n: int, p: PrimeModulus, beta, w, strict: bool = True
) -> Fraction:
    """Exact Pr(exists v != 0 : M_n v = w and rho(v) >= beta), enumerated.

    strict mode (the default) needs beta >= 4/p; pass strict=False to probe
    smaller beta.
    """
    m = n * (n + 1) // 2
    if p.p**n * (1 << m) > _Q_ENUM_GUARD:
        raise GuardExceeded("joint enumeration beyond guard")
    w = tuple(w)
    if len(w) != n:
        raise PreconditionViolated("w must have length n")
    (hits,) = _solution_counts(n, p.p, _structured_vectors(n, p, beta, strict), [w])
    return Fraction(hits, 1 << m)


def q_exact_max(
    n: int, p: PrimeModulus, beta, strict: bool = True
) -> tuple[Fraction, tuple[int, ...]]:
    """Max of q over all w in Z_p^n, with the lexicographically-first argmax."""
    m = n * (n + 1) // 2
    if p.p ** (2 * n) * (1 << m) > _Q_ENUM_GUARD:
        raise GuardExceeded("outer enumeration beyond guard")
    vs = _structured_vectors(n, p, beta, strict)
    ws = list(_iproduct(range(p.p), repeat=n))
    hits = _solution_counts(n, p.p, vs, ws)
    best = max(hits)
    return Fraction(best, 1 << m), ws[hits.index(best)]
