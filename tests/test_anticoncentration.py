import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rholab import anticoncentration as ac
from rholab.acceptance import SMALL_PRIMES
from rholab.errors import GuardExceeded, PreconditionViolated, RangeTooLarge
from rholab.rng import substream
from rholab.zp_core import PrimeModulus, ZpVector, next_prime

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)
P101 = PrimeModulus(101)


def binom(n, k):
    return math.comb(n, k)


def test_distribution_empty_vector():
    d = ac.distribution_zp(ZpVector(()), P5)
    assert d.counts == {0: 1}
    assert d.log2_denominator == 0


def test_distribution_two_ones():
    d = ac.distribution_zp(ZpVector((1, 1)), P5)
    assert d.counts == {0: 2, 2: 1, 3: 1}  # -2 = 3 mod 5
    assert d.log2_denominator == 2


def test_distribution_matches_bruteforce():
    v = ZpVector((1, 2, 3))
    fast = ac.distribution_zp(v, P7)
    brute = ac.distribution_zp_bruteforce(v, P7)
    assert fast.counts == brute.counts


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_distribution_total_and_oracle(p, data):
    # criterion 1's primes and sizes (n <= 12): the oracle's one-digit column
    # and the walk's digits are equal laws with one largest atom
    P = PrimeModulus(p)
    entries = data.draw(st.lists(st.integers(0, p - 1), max_size=12))
    v = ZpVector(tuple(entries))
    d, brute = ac.distribution_zp(v, P), ac.distribution_zp_bruteforce(v, P)
    assert sum(d.counts.values()) == 2 ** len(entries)
    assert d == brute and d.counts == brute.counts
    assert ac._max_atom(d) == ac._max_atom(brute)


def _dp_reference(entries, m, lazy=False):
    """Per-residue list DP of the (lazy) walk over Z_m, independent of the walk kernel."""
    counts = [1] + [0] * (m - 1)
    for e in entries:
        counts = [(2 * counts[j] if lazy else 0) + counts[(j - e) % m] + counts[(j + e) % m]
                  for j in range(m)]
    return {a: c for a, c in enumerate(counts) if c}


def _walk_counts(entries, m, lazy):
    """The kernel's walk over Z_m as an atom -> count dict, zero atoms omitted.  The
    lazy law is the walk of the doubled multiset read at row 2a (m odd)."""
    if not lazy:
        return ac.ExactDistribution(ac._walk(Counter(entries), m), 0, 0).counts
    digits = ac._walk(Counter(list(entries) * 2), m)
    return ac.ExactDistribution(digits[2 * np.arange(m) % m], 0, 0).counts


def _lattice_reference(entries):
    counts = Counter({0: 1})
    for e in entries:
        step = Counter()
        for a, c in counts.items():
            step[a + e] += c
            step[a - e] += c
        counts = step
    return {a: c for a, c in counts.items() if c}


# a few free entries plus up to two classes of repeated entries, so that class
# sizes cross the kernel's block threshold
walk_inputs = st.tuples(
    st.sampled_from([5, 7, 101, 1009]),
    st.lists(st.integers(min_value=-3000, max_value=3000), max_size=16),
    st.lists(st.tuples(st.integers(min_value=-3000, max_value=3000),
                       st.integers(min_value=0, max_value=130)), max_size=2),
)


@settings(max_examples=40, deadline=None)
@given(walk_inputs)
def test_walks_match_references(case):
    p, free, blocks = case
    entries = free + [e for e, k in blocks for _ in range(k)]
    P, v = PrimeModulus(p), ZpVector(tuple(entries))
    plain, lazy = ac.distribution_zp(v, P), ac.distribution_half(v, P)
    assert (plain.counts, plain.log2_denominator) == (_dp_reference(entries, p), len(v))
    assert (lazy.counts, lazy.log2_denominator) == (_dp_reference(entries, p, True), 2 * len(v))
    if len(v) <= 16:
        assert plain.counts == ac.distribution_zp_bruteforce(v, P).counts
    if len(v) <= 8:
        # lazy law at a = plain law of v (+) v at 2a
        doubled = ac.distribution_zp_bruteforce(v.concat(v), P).counts
        assert lazy.counts == {a: doubled[2 * a % p] for a in range(p) if 2 * a % p in doubled}
    small = [e % 9 - 4 for e in entries]
    assert ac.distribution_int(small).counts == _lattice_reference(small)
    if len(small) <= 12:
        big = next_prime(2 * sum(map(abs, small)) + 5)
        brute = ac.distribution_zp_bruteforce(ZpVector(tuple(small)), big).counts
        assert ac.distribution_int(small).counts == {
            a if a <= big.p // 2 else a - big.p: c for a, c in brute.items()}


@pytest.mark.parametrize("entries", [
    (), (0,), (0, 0, 3), (3, 98, 3), (3, 98, 0, 101, -3, 205),
    (7,) * (ac._BLOCK - 1), (7,) * ac._BLOCK, (7,) * (ac._BLOCK + 1), (7,) * 100 + (94,) * 101 + (0, 5, 96),
])
def test_walks_edge_cases(entries):
    """Empty and zero entries, e and p - e in one class, classes around the block
    threshold, and non-canonical entries (reduced mod p like canonical ones)."""
    v = ZpVector(entries)
    assert ac.distribution_zp(v, P101).counts == _dp_reference(entries, 101)
    assert ac.distribution_half(v, P101).counts == _dp_reference(entries, 101, True)
    canonical = ZpVector(tuple(e % 101 for e in entries))
    assert ac.distribution_zp(v, P101) == ac.distribution_zp(canonical, P101)
    small = [e % 5 - 2 for e in entries]
    assert ac.distribution_int(small).counts == _lattice_reference(small)


@pytest.mark.parametrize("j", [ac._BLOCK - 1, ac._BLOCK, ac._BLOCK + 1, 99, 100, 101, 1024])
def test_one_class_join_against_the_list_dp(j):
    """j equal entries alone: single steps below _BLOCK, one binomial row from
    it on (the lazy walk's doubled class joins from _BLOCK / 2), whose two ends
    C(j, i) = C(j, j - i) share one coefficient (odd and even rows, and a row
    that wraps mod m)."""
    for m, e in ((101, 7), (101, 50), (5, 2)):
        for lazy in (False, True):
            got = _walk_counts((e,) * j, m, lazy)
            assert got == _dp_reference((e,) * j, m, lazy)


def test_walks_reduce_negative_and_unreduced_entries():
    entries = (2**62 + 7, -3, 2**64 + 5, -(2**70) + 1, 5, 0) + (-96,) * 120
    reduced = tuple(e % 101 for e in entries)
    for law in (ac.distribution_zp, ac.distribution_half):
        assert law(ZpVector(entries), P101) == law(ZpVector(reduced), P101)
    assert ac.distribution_zp(ZpVector(entries), P101).counts == _dp_reference(reduced, 101)
    lattice = [-3, 4, -3, 0, 7] + [-2] * 110
    assert ac.distribution_int(lattice).counts == _lattice_reference(lattice)
    assert ac.rho_int(lattice) == ac.rho_int([abs(e) for e in lattice])


@pytest.fixture
def plane_moves(monkeypatch):
    """The number of steps of each walk that ran on digit planes."""
    seen, real = [], ac._plane_steps

    def spy(a, total, cap, moves):
        seen.append(len(moves))
        return real(a, total, cap, moves)

    monkeypatch.setattr(ac, "_plane_steps", spy)
    return seen


@pytest.mark.parametrize("m", [1, 2, 3])
def test_walk_kernel_tiny_moduli(m, monkeypatch):
    # PrimeModulus admits p > 3 only, so the moduli below reach the kernel
    # directly; at m = 2 a step by 1 shifts by d = m.  Each walk runs in
    # single steps and with its largest class joined as one binomial row.
    for block in (10**9, 1):
        monkeypatch.setattr(ac, "_BLOCK", block)
        for entries in [(), (0,), (1,), (1, 2), (1, 1, 2, 5), (1,) * 99, (1,) * 101, (2,) * 120 + (1,) * 7]:
            assert _walk_counts(entries, m, False) == _dp_reference(entries, m)


@pytest.mark.parametrize("block", [10**9, ac._BLOCK, 1], ids=["planes", "default", "join"])
def test_walk_on_each_side_of_the_switch(block, monkeypatch):
    # every class in single plane steps, the default, and the largest class
    # always joined as one binomial row
    monkeypatch.setattr(ac, "_BLOCK", block)
    for i in range(30):
        g = substream(17, "switch", i)
        m = int(g.choice([5, 7, 101, 1009]))
        entries = [int(x) for x in g.integers(-3000, 3000, size=int(g.integers(0, 40)))]
        if m <= 101 and i % 3 == 0:
            entries += [int(g.integers(1, 3000))] * int(g.integers(90, 160))
        for lazy in (False, True):
            got = _walk_counts(entries, m, lazy)
            assert got == _dp_reference(entries, m, lazy)
        small = [e % 9 - 4 for e in entries]
        assert ac.distribution_int(small).counts == _lattice_reference(small)


def test_planes_after_a_binomial_row_join(plane_moves):
    entries = (7,) * 150 + (1, 2, 5, 9, 99)
    assert ac.distribution_zp(ZpVector(entries), P101).counts == _dp_reference(entries, 101)
    assert ac.distribution_half(ZpVector(entries), P101).counts == _dp_reference(entries, 101, True)
    assert plane_moves == [5, 10]  # the class of 7 joined before the steps


@pytest.mark.parametrize("steps", [30, 31])
def test_planes_around_the_carry_pass(plane_moves, steps):
    # after the join every digit of the law is a full 32-bit word; the first
    # carry pass comes before step _CARRY_EVERY + 1
    assert ac._CARRY_EVERY == 30
    entries = (3,) * 150 + tuple(range(4, 4 + steps))
    assert ac.distribution_zp(ZpVector(entries), P101).counts == _dp_reference(entries, 101)
    lazy = entries[:150 + (steps + 1) // 2]  # two steps per entry
    assert ac.distribution_half(ZpVector(lazy), P101).counts == _dp_reference(lazy, 101, True)
    assert plane_moves == [steps, (steps + 1) // 2 * 2]


def test_walk_with_n_much_larger_than_p(plane_moves):
    # n / p = 20: on a 2-vCPU x86-64 VM both walks take 0.03-0.05 s; the
    # largest class, 53 entries +-31, joins as one binomial row
    entries = [int(x) for x in substream(18, "n>>p", 0).integers(1, 101, size=2000)]
    v = ZpVector(tuple(entries))
    t0 = time.perf_counter()
    plain, lazy = ac.distribution_zp(v, P101), ac.distribution_half(v, P101)
    elapsed = time.perf_counter() - t0
    assert plane_moves == [2000 - 53, 4000 - 2 * 53]
    assert plain.counts == _dp_reference(entries, 101)
    assert lazy.counts == _dp_reference(entries, 101, True)
    assert elapsed < 0.5, f"both walks took {elapsed:.3f} s, budget 0.5 s"


def test_walk_starts_a_wide_atom_at_its_final_row(plane_moves):
    # the zeros make the start atom 2^70, three digits wide, and it starts at
    # row -(3 + 5) = 93, where the x^-3 and x^-5 factors of the two steps put it
    entries = (0,) * 70 + (3, 5)
    d = ac.distribution_zp(ZpVector(entries), P101)
    assert d.counts == _dp_reference(entries, 101)
    assert d.digits.shape[1] == 3 and plane_moves == [2]


def _max_over_counts(d):
    """The largest atom read off the materialised counts, ties to the smallest atom."""
    best = max(d.counts.values())
    return ac.RhoResult(min(a for a, c in d.counts.items() if c == best), best, d.log2_denominator)


@pytest.mark.parametrize("entries, p, lazy, digits", [
    ((), 101, False, 1),                      # the empty vector: one digit per atom
    ((3, 5, 8, 40) * 14, 101, False, 2),      # exactly 64 bits per row
    ((3, 5, 8, 40, 77) * 24, 101, False, 4),  # exactly 128 bits per row
    (tuple(range(1, 129)), 1009, True, 9),    # lazy n = 128 mod 1009: 256 steps
    ((1, 2) * 100 + (7,) * 150, 101, True, 22),  # planes after a binomial row join
    ((5,) * 1024, 101, False, 33),            # constant laws: one row left after two digits,
    ((5,) * 384, 101, True, 25),              # the lazy one's at atom 0,
    ((5,) * 1023, 101, False, 32),            # and at odd n two equal rows +-a after one
])
def test_max_atom_reads_the_digits_like_the_counts(entries, p, lazy, digits):
    assert ac._walk(Counter(entries * 2 if lazy else entries), p).shape[1] == digits
    law = ac.distribution_half if lazy else ac.distribution_zp
    d = law(ZpVector(entries), PrimeModulus(p))
    assert ac._max_atom(d) == _max_over_counts(d)


def test_max_atom_reads_lower_digits_when_two_rows_tie_on_top():
    # two rows that agree on the top digit but not below it: the comparison
    # goes on past the two-row stop (walk laws are symmetric, a built one need not be)
    digits = np.array([[0, 1], [5, 1], [7, 0]], "<u4")
    d = ac.ExactDistribution(digits, 0, 40)
    assert ac._max_atom(d) == _max_over_counts(d) == ac.RhoResult(1, 5 + 2**32, 40)


def test_max_atom_lattice_tie_goes_to_the_smallest_atom():
    d = ac.distribution_int((1, 2))
    assert d.counts == {-3: 1, -1: 1, 1: 1, 3: 1}
    assert ac._max_atom(d) == ac.rho_int((1, 2)) == ac.RhoResult(-3, 1, 2)
    # a Z_p tie between atoms 1 and 4 = -1, each in the row of its residue
    d = ac.distribution_zp(ZpVector((1,)), P5)
    assert (d.counts, d.digits[:, 0].tolist()) == ({1: 1, 4: 1}, [0, 1, 0, 0, 1])
    assert ac._max_atom(d) == ac.rho(ZpVector((1,)), P5) == ac.RhoResult(1, 1, 1)


@settings(max_examples=60, deadline=None)
@given(walk_inputs, st.sampled_from(["plain", "lazy", "lattice"]))
def test_max_atom_matches_the_counts_on_random_laws(case, kind):
    p, free, blocks = case
    entries = free + [e for e, k in blocks for _ in range(k)]
    if kind == "lattice":
        d = ac.distribution_int([e % 9 - 4 for e in entries])
    else:
        law = ac.distribution_half if kind == "lazy" else ac.distribution_zp
        d = law(ZpVector(tuple(entries)), PrimeModulus(p))
    got = ac._max_atom(d)
    assert got == _max_over_counts(d)
    assert ac._max_atom(d) == got  # reading the counts leaves the digits as they were


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7, 11, 13, 101, 1009]),
       st.lists(st.integers(min_value=-2000, max_value=2000), max_size=40))
def test_rho_half_is_atom_zero_with_the_squared_plain_law(p, entries):
    # the lazy law at a is Sum_b P(b) P(b - 2a) for the symmetric plain law P,
    # largest only at a = 0 by Cauchy-Schwarz
    P, v = PrimeModulus(p), ZpVector(tuple(entries))
    plain = ac.distribution_zp(v, P).counts
    assert ac.rho_half(v, P) == ac.RhoResult(0, sum(c * c for c in plain.values()), 2 * len(v))


@pytest.mark.parametrize("n", [512, 1024])
def test_constant_vector_closed_form(n):
    """e.1 of length n at p = 101 (the fibre shape): C(n, j) at (2j - n)e, and
    C(2n, j) at (j - n)e for the lazy walk."""
    e, p = 3, 101
    plain, lazy = Counter(), Counter()
    for j in range(n + 1):
        plain[(2 * j - n) * e % p] += math.comb(n, j)
    for j in range(2 * n + 1):
        lazy[(j - n) * e % p] += math.comb(2 * n, j)
    v = ZpVector((e,) * n)
    assert ac.distribution_zp(v, P101).counts == plain
    assert ac.distribution_half(v, P101).counts == lazy


def test_distributions_size_guard():
    big = next_prime(10**9)
    for law in (ac.distribution_zp, ac.distribution_half):
        with pytest.raises(GuardExceeded):
            law(ZpVector((1, 2, 3)), big)


def test_rho_zero_vector_is_one():
    r = ac.rho(ZpVector((0, 0, 0)), P5)
    assert r.value == 1 and r.atom == 0


def test_rho_pair():
    r = ac.rho(ZpVector((1, 1)), P101)
    assert r.value == Fraction(1, 2) and r.atom == 0


def test_rho_four_ones():
    r = ac.rho(ZpVector((1, 1, 1, 1)), P101)
    assert r.value == Fraction(6, 16) and r.atom == 0


def test_rho_dyadic_vector_attains_floor():
    # distinct subset sums: rho = 2^-n exactly
    v = ZpVector((1, 2, 4))
    assert ac.rho(v, PrimeModulus(17)).value == Fraction(1, 8)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=8))
def test_rho_bounds(entries):
    v = ZpVector(tuple(entries))
    r = ac.rho(v, P101).value
    assert Fraction(1, 2 ** len(entries)) <= r <= 1
    if any(entries):
        assert r < 1


def test_rho_int_single():
    assert ac.rho_int((1,)).value == Fraction(1, 2)


def test_rho_int_all_ones_binomial():
    r = ac.rho_int((1,) * 10)
    assert r.value == Fraction(binom(10, 5), 2**10)
    assert r.atom == 0


def test_rho_int_erdos_bound():
    for i in range(30):
        g = substream(11, "erdos", i)
        n = int(g.integers(1, 13))
        v = [int(x) for x in g.integers(1, 50, size=n)]
        assert ac.rho_int(v).value <= Fraction(binom(n, n // 2), 2**n)


def test_rho_int_guard():
    with pytest.raises(RangeTooLarge):
        ac.rho_int((10**7,))
    # the guard bounds the (2R+1) * n cells, not only the radius R
    for entries in [(100,) * 1000, (1,) * 10**6]:
        with pytest.raises(RangeTooLarge):
            ac.rho_int(entries)


def test_rho_half_zero_vector():
    assert ac.rho_half(ZpVector((0, 0)), P5).value == 1


def test_rho_half_single_step():
    r = ac.rho_half(ZpVector((1,)), P5)
    assert r.value == Fraction(1, 2) and r.atom == 0


def test_rho_half_equals_doubled_vector():
    for i in range(25):
        g = substream(12, "half", i)
        n = int(g.integers(1, 9))
        v = ZpVector(tuple(int(x) for x in g.integers(0, 7, size=n)))
        lazy = ac.rho_half(v, P7)
        doubled = ac.rho(v.concat(v), P7)
        assert lazy.value == doubled.value
        assert lazy.log2_denominator == 2 * n


def test_halasz_first_bound_zero_vector():
    v = ZpVector((0, 0, 0))
    assert ac.halasz_first_bound(ac.level_counts(v, P5), P5) == 1.0


def test_halasz_first_bound_single_entry():
    got = ac.halasz_first_bound(ac.level_counts(ZpVector((1,)), P5), P5)
    want = (1 + 2 * math.exp(-1 / 25) + 2 * math.exp(-4 / 25)) / 5
    assert abs(got - want) < 1e-15


def test_halasz_first_bound_is_the_scalar_sum():
    # summing Python ints rounds exactly like summing numpy int64 scalars
    for i in range(30):
        g = substream(16, "h1sum", i)
        p = PrimeModulus([5, 101, 1009][i % 3])
        w = ac.level_counts(ZpVector(tuple(int(x) for x in g.integers(0, p.p, size=i + 1))), p)
        pp = float(p.p * p.p)
        assert ac.halasz_first_bound(w, p) == sum(math.exp(-x / pp) for x in w) / p.p


def test_halasz_first_bound_dominates_rho():
    for i in range(60):
        g = substream(13, "h1", i)
        n = int(g.integers(1, 12))
        v = ZpVector(tuple(int(x) for x in g.integers(0, 101, size=n)))
        first = ac.halasz_first_bound(ac.level_counts(v, P101), P101)
        assert float(ac.rho(v, P101).value) <= first + ac.FLOAT_SLACK


def test_halasz_second_bound_hand_expanded():
    w = ac.level_counts(ZpVector((1, 2)), P7)
    # T_1((1,2), 7) = Z_7: every weight sum is at most (9+9)/49 < 1
    want = 1 / 7 + math.e / 7 * math.exp(-1) * 7 + math.exp(-1)
    assert abs(ac.halasz_second_bound(w, 1, P7) - want) < 1e-15
    assert ac.halasz_second_bound(w, 1, P7) >= 1 / 7


def test_halasz_second_bound_rejects_zero():
    with pytest.raises(PreconditionViolated):
        ac.halasz_second_bound(ac.level_counts(ZpVector((0,)), P7), 1, P7)


def test_halasz_bound_preconditions():
    p = PrimeModulus(13)
    v = ZpVector((1,) * 64)
    w = ac.level_counts(v, p)
    with pytest.raises(PreconditionViolated):
        ac.halasz_bound(w, v.support_size, 2, p)  # ell > |v|/64
    with pytest.raises(PreconditionViolated):
        ac.halasz_bound(w, v.support_size, Fraction(1, 2), p)  # ell < 1
    zero = ZpVector((0,) * 64)
    with pytest.raises(PreconditionViolated):
        ac.halasz_bound(ac.level_counts(zero, p), zero.support_size, 1, p)


def test_halasz_bound_all_ones_64():
    p = PrimeModulus(13)
    v = ZpVector((1,) * 64)
    b = ac.halasz_bound(ac.level_counts(v, p), v.support_size, 1, p)
    assert b >= 3 / 13
    assert float(ac.rho(v, p).value) <= b + ac.FLOAT_SLACK


def test_halasz_chain_matches_direct_bounds():
    levels_seen = 0
    for i in range(20):
        g = substream(15, "chain", i)
        p = PrimeModulus([5, 7, 13, 101, 1009][int(g.integers(0, 5))])
        n = int(g.integers(0, 200))
        v = ZpVector(tuple(int(x) for x in g.integers(0, p.p, size=n)))
        chain = ac.halasz_chain(v, p)
        w = ac.level_counts(v, p)
        assert chain.rho == float(ac.rho(v, p).value)
        assert chain.first == ac.halasz_first_bound(w, p)
        assert [ell for ell, _, _ in chain.levels] == list(range(1, v.support_size // 64 + 1))
        for ell, second, final in chain.levels:
            assert second == ac.halasz_second_bound(w, ell, p)
            assert final == ac.halasz_bound(w, v.support_size, ell, p)
        levels_seen += len(chain.levels)
    assert levels_seen > 0


def test_halasz_chain_zero_vector_has_first_bound_only():
    chain = ac.halasz_chain(ZpVector((0,) * 70), P7)
    assert (chain.rho, chain.first, chain.levels) == (1.0, 1.0, ())


def test_sumset_level_check_trivial_and_example():
    p = PrimeModulus(11)
    v = ZpVector((1, 1))
    assert ac.sumset_level_check(v, 1, Fraction(1, 10), p)
    assert ac.sumset_level_check(v, 2, Fraction(1, 10), p)


def test_sumset_level_check_harness():
    for i in range(40):
        g = substream(14, "sumset", i)
        p = PrimeModulus([5, 7, 11, 13][int(g.integers(0, 4))])
        n = int(g.integers(1, 8))
        v = ZpVector(tuple(int(x) for x in g.integers(0, p.p, size=n)))
        m = int(g.integers(1, 5))
        t = Fraction(int(g.integers(0, 30)), 10)
        assert ac.sumset_level_check(v, m, t, p)


def test_cauchy_davenport_examples():
    assert ac.cauchy_davenport_check({0, 1}, 2, P5)  # |2A| = 3 = 2*2-1
    assert ac.cauchy_davenport_check(set(range(7)), 3, P7)  # m.A = Z_p


def test_cauchy_davenport_harness():
    for i in range(60):
        g = substream(15, "cd", i)
        p = PrimeModulus([5, 7, 11, 13, 17][int(g.integers(0, 5))])
        size = int(g.integers(1, p.p + 1))
        a = set(int(x) for x in g.choice(p.p, size=size, replace=False))
        m = int(g.integers(1, 4))
        assert ac.cauchy_davenport_check(a, m, p)


def test_cauchy_davenport_rejects_empty():
    with pytest.raises(PreconditionViolated):
        ac.cauchy_davenport_check(set(), 2, P5)
