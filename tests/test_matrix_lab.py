import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rholab import matrix_lab as ml
from rholab.errors import (
    DependentBasis,
    GuardExceeded,
    PreconditionViolated,
    SingularMatrix,
)
from rholab.rng import substream
from rholab.zp_core import PrimeModulus, ZpVector, is_prime_u64, next_prime

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)
P64 = 2**64 - 59  # the largest prime below 2^64


def test_det_exact_examples():
    assert ml.det_exact([[1]]) in (-1, 1)
    assert ml.det_exact([[1, 1], [1, 1]]) == 0
    assert ml.det_exact([[1, 1], [1, -1]]) == -2


def test_det_exact_crt_vs_bareiss():
    for i in range(1000):
        g = substream(52, "det", i)
        n = int(g.integers(1, 9))
        m = ml._bits_to_sym(g.integers(0, 2, size=(1, n * (n + 1) // 2)), n)[0]
        assert ml.det_exact(m) == ml.det_bareiss(m)


def test_det_exact_large_entries():
    # the +-1 Hadamard bound n^{n/2} would pick one prime and lift a wrong residue
    m = [[5 * 10**9, 1], [1, 5 * 10**9]]
    assert ml.det_exact(m) == ml.det_bareiss(m) == 24999999999999999999


def test_exact_determinants_of_entries_past_int64():
    # read through np.asarray these rows became float64 and both gave 0
    m = [[2**63 + 1, 2**63], [1, 1]]
    assert ml.det_bareiss(m) == ml.det_exact(m) == 1


def test_determinants_need_square_input():
    for mat in ([[1, 2]], [[1, 2, 3], [4, 5, 6]], [[1], [2]], [[]], [[1, 2], [3]],
                np.zeros((0, 3)), np.zeros((2, 3))):
        for det in (ml.det_bareiss, ml.det_exact):
            with pytest.raises(PreconditionViolated):
                det(mat)
    for det in (ml.det_bareiss, ml.det_exact):
        assert det([]) == det(np.zeros((0, 0))) == 1
        assert det([[-7]]) == -7


def test_rank_and_inverse_at_a_64_bit_prime():
    p = P64
    assert ml.rank_mod_p([[1, p - 1], [p - 1, 1]], p) == 1
    rnd = random.Random(64)
    for d in range(1, 6):
        a = [[rnd.randrange(p) for _ in range(d)] for _ in range(d)]
        inv = ml.inverse_mod_p(a, PrimeModulus(p)).tolist()
        prod = [[sum(a[i][k] * inv[k][j] for k in range(d)) % p for j in range(d)] for i in range(d)]
        assert prod == [[int(i == j) for j in range(d)] for i in range(d)]


def test_rank_examples():
    assert ml.rank_mod_p(np.ones((4, 4), dtype=np.int64), P5) == 1
    eye = np.array([[1, 1], [1, -1]])
    assert ml.rank_mod_p(eye, P5) == 2


def test_rank_against_independent_rref():
    for i in range(80):
        g = substream(52, "rank", i)
        n = int(g.integers(1, 9))
        p = PrimeModulus([5, 7, 13][int(g.integers(0, 3))])
        m = g.integers(0, p.p, size=(n, n))
        rref, pivots = ml.rref_mod_p(m, p)
        nonzero_rows = sum(1 for row in rref if any(row))
        assert ml.rank_mod_p(m, p) == len(pivots) == nonzero_rows


def _largest_batch_prime():
    # the largest prime below 2^26, the bound of the float64 rank kernel
    p = 2**26 - 1
    while not is_prime_u64(p):
        p -= 2
    return p


def test_batch_rank_matches_scalar():
    g = substream(52, "batch", 0)
    mats = g.integers(-1, 2, size=(50, 6, 6))
    p = _largest_batch_prime()
    ranks = ml.batch_rank_mod_p(mats, p)
    for i in range(50):
        assert int(ranks[i]) == ml.rank_mod_p(mats[i], p)


def _low_rank_symmetric(g, n, p):
    """Symmetric n x n matrix over F_p whose rows and columns are copies of a
    smaller random symmetric core, or zero: low rank, with pivot-free columns."""
    k = int(g.integers(1, n + 1))
    core = g.integers(0, p, size=(k, k))
    core = (core + core.T) % p
    src = g.integers(-1, k, size=n)  # -1 marks a zero row and column
    full = np.zeros((k + 1, k + 1), dtype=np.int64)
    full[:k, :k] = core
    return full[np.ix_(src, src)]


def test_batch_rank_low_rank_batches():
    # zero and repeated columns leave columns without a pivot, so each
    # matrix's pivot row falls behind col and the batch's pivot rows differ
    for p in (5, 7):
        for n in range(1, 9):
            g = substream(52, f"batch-low-rank-{p}", n)
            mats = np.array([_low_rank_symmetric(g, n, p) for _ in range(120)])
            ranks = ml.batch_rank_mod_p(mats, p)
            want = [ml.rank_mod_p(m, p) for m in mats]
            assert ranks.tolist() == want, (p, n)
            if n >= 3:
                assert min(want) < max(want)


def test_batch_rank_planted_duplicates():
    p = _largest_batch_prime()
    for n in (2, 6, 11, 16, 20):
        g = substream(52, "batch-planted", n)
        mats = ml._bits_to_sym(g.integers(0, 2, size=(60, n * (n + 1) // 2)), n)
        for m in mats[::2]:
            i, j = g.choice(n, size=2, replace=False)
            m[j, :] = m[i, :]
            m[:, j] = m[:, i]
        ranks = ml.batch_rank_mod_p(mats, p)
        assert ranks.tolist() == [ml.rank_mod_p(m, p) for m in mats]
        assert (ranks[::2] < n).all()


def test_batch_rank_int64_guard():
    # +-1 matrices agree with the scalar rank at the largest prime the
    # float64 kernel takes; the next prime is refused
    g = substream(52, "batch-guard", 0)
    mats = g.integers(0, 2, size=(200, 6, 6)) * 2 - 1
    p = _largest_batch_prime()
    ranks = ml.batch_rank_mod_p(mats, p)
    assert all(int(ranks[i]) == ml.rank_mod_p(mats[i], p) for i in range(200))
    with pytest.raises(GuardExceeded):
        ml.batch_rank_mod_p(mats, next_prime(p + 1).p)


@pytest.mark.parametrize("big", [2**63, 2**64 + 1, -(2**63) - 1])
def test_batch_rank_reduces_entries_past_int64(big):
    for p in (5, 7, _largest_batch_prime()):
        for a in ([[big, 1], [1, 1]], [[big, big], [big, big]], [[big, 0], [0, p]]):
            assert int(ml.batch_rank_mod_p([a], p)[0]) == ml.rank_mod_p(a, p)
            assert int(ml.batch_rank_mod_p(np.array([a], dtype=object), p)[0]) == ml.rank_mod_p(a, p)


def test_batch_rank_reads_float64_as_exact_integers():
    # 5 * 2^62 is an exact float and a multiple of 5; an int64 cast would wrap it
    x = 5 * 2.0**62
    assert ml.batch_rank_mod_p(np.array([[[x]]]), 5).tolist() == [ml.rank_mod_p([[x]], 5)] == [0]
    a = np.array([[[x, 1.0], [1.0, 1.0]], [[2.0**51 + 3, 2.0], [-7.0, 4.0]]])
    assert ml.batch_rank_mod_p(a, 5).tolist() == [ml.rank_mod_p(m, 5) for m in a] == [2, 2]
    for bad in (0.5, float("nan"), float("inf"), 2.0**51 + 0.5):
        with pytest.raises(PreconditionViolated, match="integer"):
            ml.batch_rank_mod_p(np.array([[[1.0, bad], [bad, 1.0]]]), 5)
        with pytest.raises(PreconditionViolated, match="integer"):
            ml.batch_rank_mod_p([[[1.0, bad], [bad, 1.0]]], 5)


def test_batch_rank_leaves_a_float64_view_as_it_was():
    # the Monte Carlo trailing blocks arrive as a (B, n, n) view of a
    # batch-innermost (n, n, B) array, which the Bareiss confirmation reads after
    g = substream(52, "batch-float-view", 0)
    inner = g.integers(-(2**40), 2**40, size=(5, 5, 40)).astype(np.float64)
    kept = inner.copy()
    mats = inner.transpose(2, 0, 1)
    p = ml._BLOCK_PRIME
    assert ml.batch_rank_mod_p(mats, p).tolist() == [ml.rank_mod_p(m, p) for m in mats]
    assert (inner == kept).all()


def test_per_matrix_readers_reject_non_integer_entries():
    for bad in (2.5, float("nan"), float("inf"), np.float64(0.5)):
        mat = [[bad, 1], [1, 1]]
        for read in (ml.det_bareiss, ml.det_exact, lambda m: ml.rank_mod_p(m, 5),
                     lambda m: ml.rref_mod_p(m, 5), lambda m: ml.inverse_mod_p(m, P5)):
            with pytest.raises(PreconditionViolated, match="integer"):
                read(mat)
            with pytest.raises(PreconditionViolated, match="integer"):
                read(np.array(mat, dtype=np.float64))
    # integral floats are integers, read exactly past 2^53
    assert ml.det_bareiss([[2.0, 1], [1, 1.0]]) == ml.det_exact(np.array([[2.0, 1], [1, 1]])) == 1
    assert ml.rank_mod_p([[5 * 2.0**62]], 5) == 0


def test_batch_rank_reduces_uint64_and_keeps_small_dtypes():
    a = [[2**63, 1], [1, 1]]
    assert int(ml.batch_rank_mod_p(np.array([a], dtype=np.uint64), 5)[0]) == ml.rank_mod_p(a, 5) == 2
    b = [[-1, 1, 0], [1, -1, 2], [0, 2, 3]]
    for dtype in (np.int8, np.int32, np.int64):
        assert int(ml.batch_rank_mod_p(np.array([b], dtype=dtype), 7)[0]) == ml.rank_mod_p(b, 7)


@pytest.mark.parametrize("p", [2, 3, 2**20 + 7, 2**26 - 5, 2**26 + 15])
def test_batch_rank_either_side_of_the_float64_bound(p):
    # below 2^26 the kernel runs in float64 (near 2^26 the trailing block
    # needs a reduction every few steps); the first prime from 2^26 on,
    # 2^26 + 15, is refused
    assert is_prime_u64(p) and (p < 2**26) == (p in (2, 3, 2**20 + 7, _largest_batch_prime()))
    for n in (1, 2, 9, 17):
        g = substream(52, f"batch-float-{p}", n)
        full = g.integers(-(2**40), 2**40, size=(30, n, n))
        low = np.array([_low_rank_symmetric(g, n, p) for _ in range(30)])
        for mats in (full, low):
            if p > 2**26:
                with pytest.raises(GuardExceeded):
                    ml.batch_rank_mod_p(mats, p)
            else:
                assert ml.batch_rank_mod_p(mats, p).tolist() == [ml.rank_mod_p(m, p) for m in mats]


def test_reduce_mod_is_exact_below_2_52():
    p = _largest_batch_prime()
    assert p == 2**26 - 5
    top = np.concatenate((np.arange(2**52 - 3 * p, 2**52, 211), np.arange(2**52 - 10**5, 2**52)))
    for x in (top, -top):
        y = ml._reduce_mod(x.astype(np.float64), p)
        assert (y == np.rint(y)).all() and (np.abs(y) <= p // 2 + 2).all()
        assert ((x - y.astype(np.int64)) % p == 0).all()
    # within p/2 of 2^53 the product q p rounds: this x does not reduce to x mod p
    x = 9007199247739155
    assert 2**52 < x < 2**53 and (x - int(ml._reduce_mod(np.array([float(x)]), 67104361)[0])) % 67104361


def _growing_lu(n, p):
    """L U mod p with unit diagonals, L = 1/2 below and U = -1/2 above: every
    elimination step has pivot 1, column 1/2 and row -1/2, centred to
    -(p - 1)/2 and (p - 1)/2, so each trailing entry grows by ((p - 1)/2)^2
    per step until it is reduced: the kernel's worst case."""
    h = pow(2, -1, p)
    lo = [[1 if i == j else h if i > j else 0 for j in range(n)] for i in range(n)]
    up = [[1 if i == j else p - h if i < j else 0 for j in range(n)] for i in range(n)]
    return [[sum(lo[i][k] * up[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]


def test_batch_rank_keeps_every_reduction_below_2_52(monkeypatch):
    # at the largest prime the trailing block nears 2^52 every few steps,
    # so n >= 12 forces reductions; each value reduced must stay below 2^52
    p, real, seen = _largest_batch_prime(), ml._reduce_mod, []

    def spy(x, q):
        seen.append(float(np.abs(x).max(initial=0)))
        return real(x, q)

    monkeypatch.setattr(ml, "_reduce_mod", spy)
    for n in (12, 13, 20, 31):
        g = substream(52, "batch-2^52", n)
        full = g.integers(-(2**40), 2**40, size=(20, n, n))
        low = np.array([_low_rank_symmetric(g, n, p) for _ in range(20)])
        grow = np.array([_growing_lu(n, p)], dtype=np.int64)
        for mats in (full, low, grow):
            assert ml.batch_rank_mod_p(mats, p).tolist() == [ml.rank_mod_p(m, p) for m in mats]
    assert 2**51 < max(seen) < 2**52


@pytest.mark.parametrize("p", [2, 3, 5, 101, ml._BLOCK_PRIME, 2**20 + 7, 2**25 + 35, 2**26 - 5])
def test_inverse_mod(p):
    x = np.unique(np.linspace(1, p - 1, 300).astype(np.int64))
    x = np.where(x > p // 2, x - p, x)  # float64 residues may be centred, so negative
    inv = ml._inverse_mod(x.astype(np.float64), p).astype(np.int64)
    assert (x * inv % p == 1).all()


def test_block_prime_inverse_table():
    # above Hadamard's bound on 13-order 0/1 minors, so the leading pivot
    # block of a trailing block is never singular mod p
    p = ml._BLOCK_PRIME
    assert is_prime_u64(p) and p < 2**14 and p * 2**13 > 14**7
    # every residue _reduce_mod can leave, negative ones included
    r = np.arange(-(p // 2 + 2), p // 2 + 3)
    r = r[r != 0]
    inv = ml._inverse_mod(r.astype(np.float64), p).astype(np.int64)
    assert (r * inv % p == 1).all()


def test_plain_int_moduli_must_be_prime():
    a = [[2, 0], [0, 1]]
    for p in (-5, 0, 1, 4, 9, 2**20 + 9):
        for call in (ml.rank_mod_p, ml.rref_mod_p):
            with pytest.raises(PreconditionViolated, match="not prime"):
                call(a, p)
        with pytest.raises(PreconditionViolated, match="not prime"):
            ml.batch_rank_mod_p([a], p)
    for p in (2, 3):
        assert ml.batch_rank_mod_p([a], p).tolist() == [ml.rank_mod_p(a, p)]
    assert ml.rank_mod_p(a, 2) == 1 and ml.rank_mod_p(a, 3) == 2


def test_batch_rank_needs_a_batch_of_square_matrices():
    for mats in ([[1, 0], [0, 1]], np.zeros((3, 2, 3)), np.zeros((2, 2, 2, 2)), [[[1, 0], [0]]]):
        with pytest.raises(PreconditionViolated, match="shape"):
            ml.batch_rank_mod_p(mats, 5)
    assert ml.batch_rank_mod_p(np.zeros((0, 3, 3)), 5).tolist() == []


_PRIMES = st.one_of(st.integers(5, 2**16), st.integers(2**32, 2**62)).map(
    lambda x: next_prime(x).p
)
_SQUARE = st.integers(1, 6).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(-50, 50), min_size=d, max_size=d), min_size=d, max_size=d
    )
)


@settings(max_examples=200, deadline=None)
@given(_SQUARE, _PRIMES)
def test_elimination_core_differential(a, p):
    d = len(a)
    det = ml._det_mod(a, p)
    assert det == ml.det_bareiss(a) % p
    rref, pivots = ml.rref_mod_p(a, p)
    assert ml.rank_mod_p(a, p) == len(pivots)
    if p < 2**26:
        assert int(ml.batch_rank_mod_p(np.array([a]), p)[0]) == len(pivots)
    if det == 0:
        with pytest.raises(SingularMatrix):
            ml.inverse_mod_p(a, PrimeModulus(p))
        return
    inv = ml.inverse_mod_p(a, PrimeModulus(p)).tolist()
    prod = [[sum(a[i][k] * inv[k][j] for k in range(d)) % p for j in range(d)] for i in range(d)]
    assert prod == [[int(i == j) for j in range(d)] for i in range(d)]


def test_singularity_exact_frozen_values():
    assert ml.singularity_exact(1) == 0
    assert ml.singularity_exact(2) == Fraction(1, 2)
    assert ml.singularity_exact(3) == Fraction(1, 2)
    assert ml.singularity_exact(4) == Fraction(1, 2)
    assert ml.singularity_exact(5) == Fraction(31, 64)
    # equal to the count over a full enumeration of all 2^21 matrices
    assert ml.singularity_exact(6) == Fraction(3543, 8192)


def test_singularity_exact_matches_full_enumeration():
    for n in range(1, 6):
        mats = np.concatenate([ml._bits_to_sym(bits, n) for bits in ml._sym_chunks(n)])
        assert len(mats) == 1 << (n * (n + 1) // 2)
        singular = sum(ml.det_bareiss(m) == 0 for m in mats)
        assert ml.singularity_exact(n) == Fraction(singular, len(mats)), n


def test_sym_chunks_switching_representatives():
    for n in range(1, 6):
        mats = np.concatenate([ml._bits_to_sym(bits, n) for bits in ml._sym_chunks(n, fixed=n)])
        assert len(mats) == 1 << (n * (n - 1) // 2)
        assert len({m.tobytes() for m in mats}) == len(mats)
        assert (mats[:, 0, :] == 1).all()


_SWITCHED = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2),
        st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n),
        st.sampled_from((-1, 1)),
    )
)


@settings(max_examples=200, deadline=None)
@given(_SWITCHED)
def test_switching_keeps_determinant_up_to_sign(case):
    bits, d, s = case
    m = ml._bits_to_sym(np.array([bits]), len(d))[0]
    dm = np.diag(d)
    assert ml.det_bareiss(s * dm @ m @ dm) == s ** len(d) * ml.det_bareiss(m)


def test_singularity_exact_guard():
    with pytest.raises(GuardExceeded):
        ml.singularity_exact(7)


_PACKED_BITS = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
)


def _det_and_complement_det(bits: list[int]) -> tuple[int, int, int]:
    n = math.isqrt(2 * len(bits))
    row = np.array([bits])
    b = ml._switched_complement(row, ml._packed_positions(n))
    assert b.shape == (n - 1, n - 1, 1) and b.dtype == np.uint8 and b.max(initial=0) <= 1
    return n, ml.det_bareiss(ml._bits_to_sym(row, n)[0]), ml.det_bareiss(b[:, :, 0])


@settings(max_examples=200, deadline=None)
@given(_PACKED_BITS)
def test_switched_complement_scales_the_determinant(bits):
    n, det_m, det_b = _det_and_complement_det(bits)
    assert det_m in (2 ** (n - 1) * det_b, -(2 ** (n - 1)) * det_b)


def test_packed_positions_are_one_read_only_array_per_n():
    for n in (1, 5, 20):
        pos = ml._packed_positions(n)
        assert ml._packed_positions(n) is pos and not pos.flags.writeable
        with pytest.raises(ValueError):
            pos[0, 0] = 1


def test_switched_complement_at_n_one_and_two():
    # n = 1: B is 0 x 0 (det 1) and M = (+-1) is never singular
    for bits in product((0, 1), repeat=1):
        assert _det_and_complement_det(list(bits))[1:] in ((1, 1), (-1, 1))
    for bits in product((0, 1), repeat=3):
        n, det_m, det_b = _det_and_complement_det(list(bits))
        assert n == 2 and det_m in (2 * det_b, -2 * det_b) and det_b in (0, 1)


def test_singularity_entry_points_reject_n_below_one(capsys):
    import json

    from rholab.cli import cli_dispatch

    for call in (
        lambda: ml.singularity_exact(0),
        lambda: ml.singularity_mc_sharded(-3, 10, 1),
        lambda: ml.rank_law_exact(0, P5),
    ):
        with pytest.raises(PreconditionViolated, match="n must be >= 1"):
            call()
    code = cli_dispatch(["singularity", "--mc", "--n", "-3", "--trials", "10"])
    err = capsys.readouterr().err
    assert code == 1
    assert json.loads(err) == {"failures": {"error": "n must be >= 1"}}


def _planted_bits(n: int, size: int) -> np.ndarray:
    """Packed bits of random symmetric sign matrices: every third one with
    row and column k a copy of row and column j, every third + 1 with them
    negated, and the all-ones matrix last."""
    g = substream(52, "screen-planted", n)
    iu = np.triu_indices(n)
    bits = g.integers(0, 2, size=(size, len(iu[0])), dtype=np.int64)
    mats = ml._bits_to_sym(bits, n)
    for i in range(0, size - 1 if n >= 2 else 0, 3):
        for m, sign in ((mats[i], 1), (mats[i + 1], -1)):
            j, k = g.choice(n, size=2, replace=False)
            row = m[j].copy()
            m[k, :] = m[:, k] = sign * row
            m[k, k] = row[j]
            m[j, k] = m[k, j] = sign * row[j]
    bits = (mats[:, iu[0], iu[1]] + 1) // 2
    return np.vstack([bits, np.ones((1, len(iu[0])), dtype=np.int64)])


@pytest.mark.parametrize("n", [1, 2, 5, 12, 13, 14, 15, 16, 20, 40, 64])
def test_singular_count_block_matches_bareiss(n):
    bits = _planted_bits(n, {40: 20, 64: 8}.get(n, 120))
    dets = [ml.det_bareiss(m) for m in ml._bits_to_sym(bits, n)]
    if n >= 2:
        assert dets[0] == dets[1] == dets[-1] == 0  # the planted pairs and all-ones
    with np.errstate(all="raise"):
        assert ml.singular_count_block(n, bits) == sum(d == 0 for d in dets)
        assert ml.singular_count_block(n, bits[:0]) == 0


def test_singular_count_block_across_sub_batches():
    # the last sub-batch holds only the all-ones matrix, which the float
    # stage drops, so no trailing block is left there
    n = 15
    bits = _planted_bits(n, ml._SUB_BATCH)
    want = sum(ml.det_bareiss(m) == 0 for m in ml._bits_to_sym(bits, n))
    assert ml.singular_count_block(n, bits) == want


@pytest.mark.parametrize("n", [14, 15, 20])
def test_singular_count_block_when_every_matrix_is_singular(n):
    ones = np.ones((2, n * (n + 1) // 2), dtype=np.int64)
    assert ml.singular_count_block(n, ones[:1]) == 1
    assert ml.singular_count_block(n, ones) == 2


@pytest.mark.parametrize("n", [1, 2, 5, 13, 14, 15, 20])
def test_float_stage_flags_only_singular_matrices(n):
    bits = _planted_bits(n, 60)
    dets = [ml.det_bareiss(m) for m in ml._bits_to_sym(bits, n)]
    singular = [i for i, d in enumerate(dets) if d == 0]
    b = ml._switched_complement(bits, ml._packed_positions(n))
    flagged, t = ml._float_bareiss(b.astype(np.float32))
    m = min(n - 1, max(n - 1 - ml._FLOAT_STEPS, 1))
    assert t.shape == (m, m, len(bits) - flagged.size)
    if n <= ml._FLOAT_STEPS + 2:
        assert flagged.tolist() == singular  # all exact: no pivot iff det = 0
    else:
        assert set(flagged.tolist()) <= set(singular)
    # the matrices flagged singular stay in the batch and leave the others be
    kept = np.setdiff1d(np.arange(len(bits)), flagged)
    for j, i in enumerate(kept[:10]):
        alone = ml._float_bareiss(b[:, :, [i]].astype(np.float32))[1]
        assert np.array_equal(alone[:, :, 0], t[:, :, j])


def test_mod_p_flags_are_confirmed_by_bareiss(monkeypatch):
    # A rank drop mod p1 is only a flag: with every trailing block flagged,
    # the Bareiss confirmation alone must give the count.
    monkeypatch.setattr(ml, "batch_rank_mod_p", lambda mats, p: np.zeros(len(mats), dtype=np.int64))
    for n in (15, 20):
        bits = _planted_bits(n, 60)
        want = sum(ml.det_bareiss(m) == 0 for m in ml._bits_to_sym(bits, n))
        assert ml.singular_count_block(n, bits) == want


def _sylvester_hadamard(order: int) -> np.ndarray:
    h = np.ones((1, 1), dtype=np.int64)
    while len(h) < order:
        h = np.block([[h, h], [h, -h]])
    return h


def test_singular_count_block_on_hadamard_matrices():
    # Symmetric Hadamard matrices reach Hadamard's bound |det| = n^{n/2},
    # the bound that the float stage's exactness rests on.
    for n in (2, 4, 8, 16):
        h = _sylvester_hadamard(n)
        iu = np.triu_indices(n)
        singular = h.copy()
        singular[-1] = singular[:, -1] = h[0]
        bits = (np.stack([h[iu], singular[iu]]) + 1) // 2
        assert ml.det_bareiss(h) ** 2 == n**n
        assert ml.singular_count_block(n, bits) == 1


def test_float_stage_takes_thirteen_exact_steps(monkeypatch):
    def exact(steps, mantissa):
        # step k's numerator on a 0/1 matrix is below 2 (k+2)^(k+2) / 4^(k+1)
        return 2 * (steps + 1) ** (steps + 1) < 2**mantissa * 4**steps

    k32 = ml._FLOAT32_STEPS
    assert k32 == 11 and exact(k32, 24) and not exact(k32 + 1, 24)
    assert ml._FLOAT_STEPS == 13 and exact(19, 53) and not exact(20, 53)
    seen = []
    real = ml.batch_rank_mod_p

    def spy(mats, p):
        seen.append((mats.shape, mats.dtype, int(np.abs(mats).max(initial=0))))
        assert (np.trunc(mats) == mats).all()
        return real(mats, p)

    monkeypatch.setattr(ml, "batch_rank_mod_p", spy)
    for n in (1, 2, 5, 14, 15):
        ml.singular_count_block(n, _planted_bits(n, 60))
    assert seen == []  # n <= 15: the float stage decides every matrix
    ml.singular_count_block(20, _planted_bits(20, 60))
    (shape, dtype, top), = seen
    # order-14 0/1 minors, handed over as the float64 integers the float stage
    # left: at most 15^(15/2) / 2^14 by Hadamard's bound
    assert shape[1:] == (6, 6) and dtype == np.float64 and top**2 * 4**14 <= 15**15


@pytest.mark.parametrize(
    "n, bits",
    [
        (0, np.zeros((2, 0), dtype=np.int64)),
        (3, np.ones((2, 10), dtype=np.int64)),
        (3, np.ones((2, 5), dtype=np.int64)),
        (3, np.ones((2, 1, 6), dtype=np.int64)),
        (3, np.ones(6, dtype=np.int64)),
        (3, np.array([[1, 0, 2, 1, 0, 1]])),
        (3, np.array([[1, 0, -1, 1, 0, 1]])),
        (3, np.array([[1, 0, 0.5, 1, 0, 1]])),
        (3, np.array([[1, 0, 2, 1, 0, 1]], dtype=np.int8)),
        (3, np.array([[1, 0, -1, 1, 0, 1]], dtype=np.int8)),
        (3, np.array([[1, 0, 255, 1, 0, 1]], dtype=np.uint8)),
    ],
)
def test_singular_count_block_rejects_what_it_cannot_count(n, bits):
    with pytest.raises(PreconditionViolated):
        ml.singular_count_block(n, bits)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, bool, np.float64])
def test_singular_count_block_takes_bits_of_any_dtype(dtype):
    bits = _planted_bits(5, 60)
    assert ml.singular_count_block(5, bits.astype(dtype)) == ml.singular_count_block(5, bits)
    assert ml.singular_count_block(5, bits[:0].astype(dtype)) == 0


@pytest.mark.parametrize("n", [1, 2, 5, 6, 12, 20, 40])
def test_monte_carlo_chunks_continue_one_stream(n):
    # _mc_block_task reads its bits off Philox's raw words; they must be the
    # rows of numpy's one-shot bounded draw, so a numpy release that changes
    # its bounded method fails here (odd m ends the last chunk on half a word)
    m = n * (n + 1) // 2
    for size in (1, 7, 1023, 1024, 1025, 2 * 1024 + 5):
        whole = substream(54, "chunks", n).integers(0, 2, size=(size, m), dtype=np.int64)
        chunks = list(ml._bit_chunks(substream(54, "chunks", n), size, m))
        assert all(c.dtype == np.uint8 and 0 < len(c) <= ml._SUB_BATCH for c in chunks)
        assert np.array_equal(np.vstack(chunks), whole)


def test_monte_carlo_block_counts_the_one_shot_draw():
    n, size = 6, 2 * ml._SUB_BATCH + 5
    g = substream(55, f"singularity-mc:n={n}", 3)
    want = ml.singular_count_block(n, g.integers(0, 2, size=(size, n * (n + 1) // 2), dtype=np.int64))
    assert want > 0
    assert ml._mc_block_task((n, 55, 3, size)) == want


def test_wilson_interval():
    lo, hi = ml.wilson_interval(50, 100)
    assert lo < 0.5 < hi
    for successes in (0, 10):
        lo, hi = ml.wilson_interval(successes, 10)
        assert 0.0 <= lo < hi <= 1.0
    for successes, trials in ((0, 0), (5, 3), (-1, 10), (11, 10)):
        with pytest.raises(PreconditionViolated):
            ml.wilson_interval(successes, trials)


def test_singularity_mc_small():
    est = ml.singularity_mc_sharded(2, 20000, 53)
    assert est.wilson95[0] <= 0.5 <= est.wilson95[1]
    assert est.conjecture_value == 4 * 2.0 ** (-1)
    with pytest.raises(PreconditionViolated):
        ml.singularity_mc_sharded(2, 0, 53)


def test_singularity_mc_sharded_worker_invariant():
    # 30000 trials make two blocks, one per worker
    a = ml.singularity_mc_sharded(3, 30000, 99, workers=1)
    b = ml.singularity_mc_sharded(3, 30000, 99, workers=2)
    assert a.singular_count == b.singular_count


def test_singularity_mc_pool_has_one_worker_per_block(monkeypatch):
    import multiprocessing

    asked = []

    class RecordingPool:  # runs the blocks in process; starts no process
        def __init__(self, workers):
            asked.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, f, tasks):
            return [f(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    want = ml.singularity_mc_sharded(3, 500, 99, workers=1).singular_count
    assert ml.singularity_mc_sharded(3, 500, 99, workers=64).singular_count == want
    assert asked == []  # one block runs in process
    want = ml.singularity_mc_sharded(3, 45000, 99, workers=1).singular_count
    assert ml.singularity_mc_sharded(3, 45000, 99, workers=8).singular_count == want
    assert asked == [3]


def test_match_probability_examples():
    v0 = ZpVector((0, 0, 0))
    assert ml.match_probability_exact(v0, v0, P5) == 1
    e1 = ZpVector((1, 0, 0))
    w0 = ZpVector((0, 0, 0))
    got = ml.match_probability_exact(e1, w0, P5)
    assert got == 0 <= Fraction(1, 8)


def test_match_probability_bound_harness():
    for i in range(30):
        g = substream(54, "match", i)
        ents = [int(x) for x in g.integers(0, 5, size=4)]
        if not any(ents):
            ents[0] = 1
        v = ZpVector(tuple(ents))
        w = ZpVector(tuple(int(x) for x in g.integers(0, 5, size=4)))
        assert ml.match_probability_exact(v, w, P5) <= Fraction(1, 16)


def test_block_probability_empty_x():
    v = ZpVector((1, 2, 3, 4))
    w = ZpVector((0, 0, 0, 0))
    res = ml.block_probability_exact(v, w, [], [0, 1], P5)
    assert res.probability == 1 == res.bound and res.holds


def test_block_probability_single_row_bound():
    from rholab.anticoncentration import rho

    v = ZpVector((0, 2, 3, 4))  # supported away from row 0
    w = ZpVector((1, 0, 0, 0))
    ys = [1, 2, 3]
    res = ml.block_probability_exact(v, w, [0], ys, P5)
    assert res.bound == rho(v.restrict(ys), P5).value
    assert res.holds


def test_block_probability_rejects_overlap():
    v = ZpVector((1, 1, 1, 1))
    with pytest.raises(PreconditionViolated):
        ml.block_probability_exact(v, v, [0, 1], [1, 2], P5)


def test_block_probability_rejects_length_mismatch():
    v = ZpVector((1, 2, 3))
    for w, xs in ((ZpVector((1, 2, 3, 4, 0)), [0]), (ZpVector((1,)), [0, 2])):
        with pytest.raises(PreconditionViolated, match="equal length"):
            ml.block_probability_exact(v, w, xs, [1], P5)


def test_exhaustive_counts_guard_int64_sums():
    # (M v)_i - w_i reaches 5 (p - 1) at n = 4; at p = 2^62 + 135 it wrapped
    # and matched w = 536 for 1/1024 of the matrices, though every row sum of
    # M lies in [-4, 4]
    def const(e):
        return ZpVector((e,) * 4)

    p = next_prime(2**62)
    with pytest.raises(GuardExceeded):
        ml.match_probability_exact(const(p.p - 1), const(536), p)
    with pytest.raises(GuardExceeded):  # entries past int64 raised OverflowError
        ml.match_probability_exact(const(P64 - 1), const(0), PrimeModulus(P64))
    p = (2**63 - 1) // 5 + 1
    while not is_prime_u64(p):
        p -= 1
    assert ml.match_probability_exact(const(p - 1), const(536), PrimeModulus(p)) == 0
    # M (-1, ..., -1) = (-4, ..., -4) only for the all-ones matrix
    assert ml.match_probability_exact(const(p - 1), const(p - 4), PrimeModulus(p)) == Fraction(1, 1024)


def test_odlyzko_examples():
    count, holds = ml.odlyzko_check([(1, 1)], 2, P5)
    assert count == 2 and holds
    count, holds = ml.odlyzko_check([], 3, P5)
    assert count == 0 and holds
    with pytest.raises(DependentBasis):
        ml.odlyzko_check([(1, 2), (2, 4)], 2, P5)


def test_odlyzko_int64_guard():
    # span{(1, -1)} holds both (1, -1) and (-1, 1); int64 reduction at
    # p ~ 2^40 overflowed and counted only one of them
    with pytest.raises(GuardExceeded):
        ml.odlyzko_check([(1, -1)], 2, next_prime(2**40))
    p = math.isqrt(2**63)
    while not ((p - 1) * p < 2**63 and is_prime_u64(p)):
        p -= 1
    assert ml.odlyzko_check([(1, p - 1)], 2, PrimeModulus(p)) == (2, True)
    with pytest.raises(GuardExceeded):
        ml.odlyzko_check([(1, p - 1)], 2, next_prime(p + 1))


def test_odlyzko_rejects_rows_of_the_wrong_length():
    # these reached the int64 reduction and raised numpy's broadcast ValueError
    for basis in ([(1, 0, 1)], [(1, 0, 1, 1, 0)], [(1, 0, 1, 1), (1, 1, 0)]):
        with pytest.raises(PreconditionViolated, match="length n"):
            ml.odlyzko_check(basis, 4, P5)
    assert ml.odlyzko_check([(1, 0, 1, 1)], 4, P5) == ml.odlyzko_check(iter([(1, 0, 1, 1)]), 4, P5)


def test_odlyzko_standard_like_basis():
    # k standard basis vectors: exactly the sign patterns on those coords
    # never lie in the span unless the other coordinates vanish -> count 0
    basis = [tuple(1 if i == j else 0 for i in range(10)) for j in range(4)]
    count, holds = ml.odlyzko_check(basis, 10, P5)
    assert count == 0 and holds


def test_adjugate_rank1_check():
    m = [[1, 1], [1, 1]]  # symmetric, rank 1 = dim - 1 over F_7
    report = ml.adjugate_rank1_check(m, P7)
    assert report.ok
    with pytest.raises(PreconditionViolated):
        ml.adjugate_rank1_check([[1, 0], [0, 1]], P7)  # full rank
    for i in range(25):
        g = substream(55, "adj", i)
        d = int(g.integers(2, 6))
        while True:
            m = g.integers(0, 7, size=(d, d))
            m = (m + m.T) % 7
            if ml.rank_mod_p(m, P7) == d - 1:
                break
        assert ml.adjugate_rank1_check(m, P7).ok


def test_adjugate_rank1_check_needs_a_square_matrix():
    # a 2 x 3 matrix reached the symmetry test and raised numpy's broadcast ValueError
    for mat in ([[1, 1, 0], [1, 1, 0]], [[1, 1], [1, 1], [0, 0]], [[1, 1], [1]]):
        with pytest.raises(PreconditionViolated, match="square"):
            ml.adjugate_rank1_check(mat, P7)


def test_decoupling_identity_trivial_cases():
    m = [[1, 2], [2, 1]]  # invertible over F_5 (det = 1 - 4 = -3)
    u = [1, -1]
    assert ml.decoupling_identity_check(m, u, u, [0], [1], P5)  # u = u'
    u2 = [-1, 1]
    assert ml.decoupling_identity_check(m, u, u2, [0, 1], [], P5)  # J empty


def test_decoupling_identity_random():
    for i in range(60):
        g = substream(55, "dec", i)
        p = PrimeModulus([5, 7, 13][int(g.integers(0, 3))])
        d = int(g.integers(1, 8))
        while True:
            m = g.integers(0, p.p, size=(d, d))
            m = (m + m.T) % p.p
            if ml.rank_mod_p(m, p) == d:
                break
        u = g.integers(0, 2, size=d) * 2 - 1
        u2 = g.integers(0, 2, size=d) * 2 - 1
        mask = g.random(d) < 0.5
        i_set = [j for j in range(d) if mask[j]]
        j_set = [j for j in range(d) if not mask[j]]
        assert ml.decoupling_identity_check(m, u, u2, i_set, j_set, p)


def _congruent_symmetric(rnd, d: int, p: int, corank: int) -> list[list[int]]:
    """C^T diag(s) C mod p, C unit upper triangular, `corank` zeros in s."""
    c = [[rnd.randrange(p) if j > i else int(i == j) for j in range(d)] for i in range(d)]
    s = [rnd.randrange(1, p) for _ in range(d)]
    for k in rnd.sample(range(d), corank):
        s[k] = 0
    return [
        [sum(c[k][i] * s[k] * c[k][j] for k in range(d)) % p for j in range(d)]
        for i in range(d)
    ]


@pytest.mark.parametrize("p", [next_prime(2**31).p, next_prime(2**40).p, P64])
def test_identity_checks_hold_at_word_size_primes(p):
    # rank rejection at such p never draws corank 1, so build the matrices;
    # int64 products here used to report violations of identities that hold
    rnd = random.Random(p)
    for _ in range(10):
        d = rnd.randint(2, 6)
        u = [rnd.choice((-1, 1)) for _ in range(d)]
        u2 = [rnd.choice((-1, 1)) for _ in range(d)]
        i_set = [j for j in range(d) if rnd.random() < 0.5]
        j_set = [j for j in range(d) if j not in i_set]
        m = _congruent_symmetric(rnd, d, p, 0)
        assert ml.decoupling_identity_check(m, u, u2, i_set, j_set, PrimeModulus(p))
        m = _congruent_symmetric(rnd, d, p, 1)
        assert ml.rank_mod_p(m, p) == d - 1
        assert ml.adjugate_rank1_check(m, PrimeModulus(p)).ok


def test_decoupling_identity_rejects_singular():
    with pytest.raises(SingularMatrix):
        ml.decoupling_identity_check([[1, 1], [1, 1]], [1, 1], [1, 1], [0], [1], P5)


def test_inverse_and_adjugate_need_square_input():
    # a 2 x 3 input used to give a 2 x 3 "inverse" and a 2 x 2 "adjugate"
    for mat in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [1, 1]], [[1, 2], [3]], np.eye(2, 3)):
        for call in (ml.inverse_mod_p, ml.adjugate_mod_p):
            with pytest.raises(PreconditionViolated, match="square"):
                call(mat, P5)


def test_decoupling_identity_needs_vectors_of_the_matrix_dimension():
    m = [[1, 2], [2, 1]]
    for u, u2 in (([1], [1, -1]), ([1, -1], [1, -1, 1]), ([1, 1, 1], [1, 1, 1])):
        with pytest.raises(PreconditionViolated, match="dimension"):
            ml.decoupling_identity_check(m, u, u2, [0], [1], P5)


def test_decoupling_probability_edge_events():
    px = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    py = {0: Fraction(1, 3), 1: Fraction(2, 3)}
    assert ml.decoupling_probability_check(px, py, lambda x, y: True)
    assert ml.decoupling_probability_check(px, py, lambda x, y: False)


def test_decoupling_probability_random_events():
    for i in range(40):
        g = substream(55, "decp", i)
        table = g.random((4, 4)) < 0.5
        px = {x: Fraction(1, 4) for x in range(4)}
        py = {y: Fraction(1, 4) for y in range(4)}
        assert ml.decoupling_probability_check(px, py, lambda x, y: bool(table[x][y]))


def test_q_exact_frozen_values():
    # no nonzero v in Z_5^2 reaches rho >= 4/5, so q = 0
    assert ml.q_exact(2, P5, Fraction(4, 5), (0, 0)) == 0
    # exploratory beta below the contract needs strict=False
    with pytest.raises(PreconditionViolated):
        ml.q_exact(2, P5, Fraction(1, 2), (0, 0))
    assert ml.q_exact(2, P5, Fraction(1, 2), (0, 0), strict=False) == Fraction(1, 2)
    value, w = ml.q_exact_max(2, P5, Fraction(1, 2), strict=False)
    assert value == Fraction(3, 4) and w == (1, 1)


def test_q_exact_majority_atom_at_high_beta():
    # beta > 1/2 with n = 2: only vectors with a forced majority atom remain,
    # i.e. none with two nonzero coordinates; enumeration confirms q
    got = ml.q_exact(2, P5, Fraction(4, 5), (1, 1))
    assert got == 0


def _all_sym_lists(n):
    """Reference enumeration: every symmetric sign matrix as nested lists."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for signs in product((-1, 1), repeat=len(cells)):
        m = [[0] * n for _ in range(n)]
        for (i, j), s in zip(cells, signs):
            m[i][j] = m[j][i] = s
        yield m


def _solves(m, rows, v, w, p):
    return all(sum(a * b for a, b in zip(m[r], v)) % p == w[r] % p for r in rows)


def test_exhaustive_probabilities_match_loop_reference():
    mats = list(_all_sym_lists(3))
    for i in range(10):
        g = substream(57, "enum-ref", i)
        v = tuple(int(x) for x in g.integers(0, 5, size=3))
        w = tuple(int(x) for x in g.integers(0, 5, size=3))
        want = Fraction(sum(_solves(m, range(3), v, w, 5) for m in mats), len(mats))
        assert ml.match_probability_exact(ZpVector(v), ZpVector(w), P5) == want
        want = Fraction(sum(_solves(m, [0], v, w, 5) for m in mats), len(mats))
        got = ml.block_probability_exact(ZpVector(v), ZpVector(w), [0], [1, 2], P5)
        assert got.probability == want
    from rholab.anticoncentration import rho

    mats = list(_all_sym_lists(2))
    beta = Fraction(1, 2)
    vs = [v for v in product(range(5), repeat=2) if any(v) and rho(ZpVector(v), P5).value >= beta]
    qs = {}
    for w in product(range(5), repeat=2):
        hits = sum(any(_solves(m, range(2), v, w, 5) for v in vs) for m in mats)
        qs[w] = Fraction(hits, len(mats))
        assert ml.q_exact(2, P5, beta, w, strict=False) == qs[w]
    best = max(qs.values())
    assert ml.q_exact_max(2, P5, beta, strict=False) == (best, min(w for w in qs if qs[w] == best))


def test_rank_law_exact_matches_full_enumeration():
    for p in (5, 7):
        for n in range(1, 5):
            mats = np.concatenate([ml._bits_to_sym(bits, n) for bits in ml._sym_chunks(n)])
            counts = np.bincount([ml.rank_mod_p(m, p) for m in mats], minlength=n + 1)
            want = tuple(Fraction(int(c), len(mats)) for c in counts)
            assert ml.rank_law_exact(n, p) == want, (p, n)


def test_rank_law_exact_frozen_at_n6():
    assert ml.rank_law_exact(6, P5) == tuple(
        Fraction(*f) for f in ((0, 1), (1, 32768), (31, 32768), (45, 4096), (745, 8192),
                               (2755, 8192), (2297, 4096))
    )


def test_rank_law_growth_inequality():
    # Pr(rk M_m = k) <= 2 Pr(rk M_{2m-k-1} = 2m-k-2) over F_p, exactly, on
    # every instance the exact laws reach
    for p in (P5, P7):
        laws = {m: ml.rank_law_exact(m, p) for m in range(1, ml._EXACT_ENUM_GUARD + 1)}
        instances = [(m, k, 2 * m - k - 1) for m in range(2, 7) for k in range(m)
                     if 2 * m - k - 1 <= ml._EXACT_ENUM_GUARD]
        assert len(instances) == 11
        for m, k, m2 in instances:
            assert laws[m][k] <= 2 * laws[m2][m2 - 1], (p.p, m, k)


def test_rank_law_exact_guards():
    for n in (-3, 0):
        with pytest.raises(PreconditionViolated, match="n must be >= 1"):
            ml.rank_law_exact(n, P5)
    with pytest.raises(GuardExceeded):
        ml.rank_law_exact(ml._EXACT_ENUM_GUARD + 1, P5)
    with pytest.raises(GuardExceeded):
        ml.rank_law_exact(3, next_prime(2**26))
