import math
from fractions import Fraction

import pytest

from rholab.containers import (
    ContainerSet,
    container,
    frequency_set,
    frozen_log_threshold,
    gap_elements,
    gen_gap_vector,
    lemma_contain_check,
    level_set,
)
from rholab.errors import GuardExceeded, PreconditionViolated
from rholab.rng import substream
from rholab.zp_core import PrimeModulus, ZpVector, next_prime, term_weight

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


def test_level_set_zero_threshold():
    assert level_set(ZpVector((1, 3)), 0, P7) == {0}


def test_level_set_zero_vector_is_everything():
    assert level_set(ZpVector((0, 0)), 0, P7) == set(range(7))
    assert level_set(ZpVector((0, 0)), Fraction(3, 2), P7) == set(range(7))


def test_level_set_pair_at_tenth():
    # weight of k=1 is 2/25 <= 1/10, k=2 is 8/25 > 1/10
    assert level_set(ZpVector((1, 1)), Fraction(1, 10), P5) == {0, 1, 4}


def test_level_set_monotone_in_threshold():
    for i in range(30):
        g = substream(21, "mono", i)
        p = PrimeModulus([5, 7, 11, 13, 101][int(g.integers(0, 5))])
        n = int(g.integers(0, 12))
        v = ZpVector(tuple(int(x) for x in g.integers(0, p.p, size=n)))
        t1 = Fraction(int(g.integers(0, 20)), 8)
        t2 = t1 + Fraction(int(g.integers(0, 20)), 8)
        assert level_set(v, t1, p) <= level_set(v, t2, p)


def test_frequency_set_zero_vector():
    assert frequency_set(ZpVector((0, 0, 0)), P7) == set(range(7))


def test_frequency_set_contains_zero():
    for i in range(20):
        g = substream(22, "freq", i)
        v = ZpVector(tuple(int(x) for x in g.integers(0, 7, size=6)))
        assert 0 in frequency_set(v, P7)


def test_frequency_set_ones_20():
    v = ZpVector((1,) * 20)
    want = {k for k in range(7) if 20 * min(k, 7 - k) ** 2 <= math.log(7) * 49}
    got = frequency_set(v, P7)
    assert got == want == {0, 1, 2, 5, 6}
    # and F(w) is the log-p level set by construction
    assert got == level_set(v, frozen_log_threshold(P7), P7)


def test_container_empty_and_zero_frequency():
    assert container(set(), P7).members == set(range(7))
    assert container({0}, P7).members == set(range(7))


def test_container_matches_definition():
    # C(S) = {a : 32 Sum_{k in S} ||a k / p||^2 <= |S|}, summed term by term
    p = PrimeModulus(31)
    for i in range(20):
        g = substream(23, "cdef", i)
        size = int(g.integers(1, 31))
        s = frozenset(int(x) for x in g.choice(31, size=size, replace=False))
        want = {
            a for a in range(31)
            if 32 * sum(term_weight(a * k % 31, p) for k in s) <= len(s) * 31 * 31
        }
        assert container(s, p).members == want


def test_level_set_size_guard():
    with pytest.raises(GuardExceeded):
        level_set(ZpVector((1, 2, 3)), 1, next_prime(10**9))


def test_container_size_bound_random():
    p = PrimeModulus(61)
    for i in range(40):
        g = substream(23, "csize", i)
        size = int(g.integers(1, 25))
        s = frozenset(int(x) for x in g.choice(61, size=size, replace=False))
        c = container(s, p)
        assert c.size * len(s) <= 4 * 61


@pytest.mark.parametrize("entries", [
    (), (0,) * 5, (0, 3, 3, 101, 104, -3, 7, 0), (3,) * 40 + (97,) * 9 + (2**64 + 3,),
])
def test_outside_count_is_the_per_entry_count(entries):
    # entries are compared raw: 101, 104, -3 and 2^64 + 3 are not their residues
    c = ContainerSet(frozenset({0, 1}), frozenset({0, 3, 7}))
    v = ZpVector(entries)
    assert c.outside(v) == sum(1 for e in entries if e not in c.members)
    assert container(set(), P7).outside(ZpVector((1, 6, 7))) == 1  # C(empty) = Z_7, 7 is raw


def test_lemma_contain_zero_frequency_set():
    v = ZpVector(tuple(range(1, 200)))
    n = len(v)
    count, holds = lemma_contain_check(v, {0}, Fraction(n, 128), PrimeModulus(211))
    assert count == 0 and holds


def test_lemma_contain_gap_vector():
    p = PrimeModulus(101)
    g = substream(23, "gapcontain", 0)
    v = gen_gap_vector(0, [1], [4], 256, p, g)  # entries in {1..4}
    t = Fraction(2)
    s = level_set(v, t, p)
    count, holds = lemma_contain_check(v, s, t, p)
    assert holds


def test_lemma_contain_preconditions():
    v = ZpVector((1, 2, 3, 4))
    with pytest.raises(PreconditionViolated):
        lemma_contain_check(v, {0}, Fraction(1), P7)  # t > n/128
    v2 = ZpVector((1,) * 256)
    with pytest.raises(PreconditionViolated):
        lemma_contain_check(v2, {3}, Fraction(0), P7)  # S not inside T_0


def test_gap_elements_and_vectors():
    p = PrimeModulus(101)
    g = substream(24, "gap", 0)
    const = gen_gap_vector(9, [0], [1], 5, p, g)
    assert const.entries == (9, 9, 9, 9, 9)
    v = gen_gap_vector(0, [1], [3], 64, p, g)
    assert set(v.entries) <= {1, 2, 3}
    # 2-dimensional progression: every entry is a member of Q
    q = set(gap_elements(5, [3, 10], [2, 4], p))
    w = gen_gap_vector(5, [3, 10], [2, 4], 50, p, g)
    assert set(w.entries) <= q


def test_gap_rejects_bad_shape():
    p = PrimeModulus(7)
    g = substream(24, "gapbad", 0)
    with pytest.raises(PreconditionViolated):
        gen_gap_vector(1, [], [], 4, p, g)
    with pytest.raises(PreconditionViolated):
        gen_gap_vector(1, [2], [0], 4, p, g)
