import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rholab.containers import level_set
from rholab.errors import GuardExceeded, PreconditionViolated
from rholab.zp_core import (
    TABLE_CELL_GUARD,
    PrimeModulus,
    ZpVector,
    check_table_size,
    is_prime_u64,
    level_mask,
    level_members,
    next_prime,
    term_weight,
    weight_table,
)


def sieve_primes(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i, f in enumerate(flags) if f]


def test_primality_against_sieve():
    primes = set(sieve_primes(5000))
    for n in range(5000):
        assert is_prime_u64(n) == (n in primes)


def test_next_prime_examples():
    assert next_prime(4).p == 5
    assert next_prime(7).p == 7  # prime fixed point
    # sieve oracle for 90 -> 97
    assert next_prime(90).p == min(q for q in sieve_primes(200) if q >= 90) == 97


def test_next_prime_rejects_small():
    with pytest.raises(PreconditionViolated):
        next_prime(3)


def test_prime_modulus_validation():
    with pytest.raises(PreconditionViolated):
        PrimeModulus(9)
    with pytest.raises(PreconditionViolated):
        PrimeModulus(3)  # structural requirement p > 3


def test_term_weight_examples():
    assert term_weight(0, PrimeModulus(11)) == 0
    assert term_weight(1, PrimeModulus(5)) == 1
    assert term_weight(6, PrimeModulus(7)) == 1  # min(6, 1)^2


@given(st.integers(min_value=1, max_value=100))
def test_term_weight_symmetry(r):
    p = PrimeModulus(101)
    assert term_weight(r, p) == term_weight(101 - r, p)


@given(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=100))
def test_weight_of_product_bounded(k, x):
    p = PrimeModulus(101)
    assert term_weight(k * x % p.p, p) <= (p.p // 2) ** 2


def test_level_mask_exact_threshold():
    p = PrimeModulus(5)
    # 2/25 <= 1/10 iff 20 <= 25
    assert level_mask(np.array([2, 3]), Fraction(1, 10), p).tolist() == [True, False]
    assert level_members(np.array([2, 3, 0]), Fraction(1, 10), p) == {0, 2}
    # a cap past int64 still compares exactly
    assert level_mask(np.array([2**62]), Fraction(2**70, 3), p).all()


@given(
    st.integers(min_value=0, max_value=2**40),
    st.fractions(min_value=0, max_value=2**20),
    st.sampled_from([5, 7, 101, 1009, 2**31 - 1]),
)
def test_level_mask_matches_cross_multiplication(w, t, p):
    got = bool(level_mask(np.array([w], dtype=np.int64), t, PrimeModulus(p))[0])
    assert got == (w * t.denominator <= t.numerator * p * p)


def test_zp_vector_support_and_restrict():
    v = ZpVector((0, 3, 0, 2, 1))
    assert len(v) == 5
    assert v.classes == {0: 2, 3: 1, 2: 1, 1: 1}
    assert v.support_size == 3
    assert v.restrict({1, 3}).entries == (3, 2)
    assert len(v.concat(v)) == 10
    with pytest.raises(PreconditionViolated):
        v.validate(PrimeModulus(2**31 - 1)) and ZpVector((5,)).validate(PrimeModulus(5))


def test_restrict_empty_and_single_index():
    v = ZpVector((0, 3, 0, 2, 1))
    empty = v.restrict(set())
    assert empty == ZpVector(()) and empty.classes == {} and empty.support_size == 0
    one = v.restrict({3})
    assert one.entries == (2,) and one.classes == {2: 1} and one.support_size == 1
    assert v.restrict(frozenset({2})).support_size == 0


@pytest.mark.parametrize("entries", [(), (0,), (0, 0), (5, 0, 5, 101, -5, 5), (7,) * 300])
def test_zp_vector_classes_are_counted_once_per_vector(entries):
    v = ZpVector(entries)
    assert v.classes == Counter(entries)
    assert v.classes is v.classes  # a second read returns the cached count
    assert v.support_size == sum(1 for e in entries if e != 0)
    # a restriction or concatenation is a new vector that counts its own classes
    half = v.restrict(range(0, len(entries), 2))
    assert half.classes == Counter(entries[::2]) and half.classes is not v.classes
    both = v.concat(ZpVector((0, 9)))
    assert both.classes == Counter(entries + (0, 9)) and both.classes is not v.classes
    assert both.support_size == v.support_size + 1
    # the cache is not a field: equality and hashing still read the entries alone
    assert v == ZpVector(entries) and hash(v) == hash(ZpVector(entries))


def test_validate_checks_each_distinct_entry():
    p = PrimeModulus(101)
    assert ZpVector((100, 0) * 50).validate(p).classes == {100: 50, 0: 50}
    for bad in ((5,) * 10 + (101,), (-1, 3), (3,) * 7 + (2**64,)):
        with pytest.raises(PreconditionViolated, match="outside"):
            ZpVector(bad).validate(p)


def test_weight_table_reduces_entries_before_any_product():
    # 2^62 + 7 wrapped int64 in k * e, and 2^64 + 5 did not fit in int64 at all
    p = PrimeModulus(101)
    for entries in [(2**62 + 7,), (-3,), (2**64 + 5,), (2**62 + 7, -3, 2**64 + 5, 5, 0)]:
        reduced = ZpVector(tuple(e % p.p for e in entries))
        assert weight_table(ZpVector(entries), p).tolist() == weight_table(reduced, p).tolist()
    big = ZpVector((2**62 + 7,) * 8)
    assert level_set(big, 1, p) == level_set(ZpVector(((2**62 + 7) % p.p,) * 8), 1, p)


@pytest.mark.parametrize("p", [65521, 65537])
def test_weight_table_on_each_side_of_the_int32_bound(p):
    # 65521 is the largest prime with (p//2)(p - 1) < 2^31, which is when the
    # residues k * e fit int32; 65537 is the next prime, computed in int64
    assert ((p // 2) * (p - 1) < 2**31) == (p == 65521)
    assert next_prime(65522).p == 65537
    entries = (p - 1, p - 2, p // 2, p // 2 + 1, 1, 2, 3 * p + 7, -5)
    table = weight_table(ZpVector(entries), PrimeModulus(p))
    ks = np.arange(p, dtype=object)  # Python ints: exact reference sums
    want = sum(np.minimum(ks * e % p, p - ks * e % p) ** 2 for e in entries)
    assert table.dtype == np.int64 and table.tolist() == want.tolist()


def test_weight_table_matches_scalar():
    p = PrimeModulus(13)
    v = ZpVector((1, 5, 0, 12))
    table = weight_table(v, p)
    for k in range(13):
        expected = sum(term_weight(k * e % p.p, p) for e in v.entries)
        assert int(table[k]) == expected


@st.composite
def _repeating_vectors(draw):
    p = draw(st.sampled_from([5, 13, 101, 1009, 9973]))
    pool = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8))
    entries = draw(st.lists(st.one_of(st.sampled_from(pool), st.integers(0, p - 1)), max_size=100))
    return PrimeModulus(p), ZpVector(tuple(entries))


@settings(max_examples=200, deadline=None)
@given(_repeating_vectors())
def test_weight_table_matches_full_product(case):
    # reference: one column per coordinate, the p x n product before grouping
    p, v = case
    ks = np.arange(p.p, dtype=np.int64)
    r = ks[:, None] * np.asarray(v.entries, dtype=np.int64)[None, :] % p.p
    full = (np.minimum(r, p.p - r) ** 2).sum(axis=1)
    table = weight_table(v, p)
    assert table.dtype == np.int64 and table.tolist() == full.tolist()


def test_table_size_guard():
    p = PrimeModulus(101)
    check_table_size(TABLE_CELL_GUARD // 101, p)
    check_table_size(128, PrimeModulus(1009))
    with pytest.raises(GuardExceeded):
        check_table_size(TABLE_CELL_GUARD // 101 + 1, p)
    with pytest.raises(GuardExceeded):
        weight_table(ZpVector(()), next_prime(TABLE_CELL_GUARD + 1))


# Scalar inequality scans backing the container-size argument.  The grid is
# x = 0, 1/1000, ..., 1.


def test_cos_exp_inequality_on_grid():
    for i in range(1001):
        x = i / 1000
        dist = min(x, 1 - x)
        assert abs(math.cos(math.pi * x)) <= math.exp(-(dist**2)) + 1e-15


def test_cos_quadratic_lower_bound_constant():
    # The 2^4 constant is too small: x = 0.1 is a counterexample.
    x = 0.1
    assert 1 - 16 * min(x, 1 - x) ** 2 > math.cos(2 * math.pi * x)
    # The sharp constant 2*pi^2 works on the whole grid.
    c = 2 * math.pi**2
    for i in range(1001):
        x = i / 1000
        dist = min(x, 1 - x)
        assert 1 - c * dist**2 <= math.cos(2 * math.pi * x) + 1e-12
