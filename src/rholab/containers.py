"""Level sets, frequency sets, and container sets over Z_p.

For v in Z_p^n and a threshold t >= 0, the level set

    T_t(v) = { k in Z_p : Sum_i ||k v_i / p||^2 <= t }

collects the frequencies that correlate with v.  The frequency set of a
vector w is F(w) = T_{log p}(w), and for a frequency set S the container

    C(S) = { a in Z_p : 32 * Sum_{k in S} ||a k / p||^2 <= |S| }

collects the residues that correlate with *all* of S on average.  Membership
tests are exact: weights are integer numerators over p^2, thresholds are
rationals, and the single irrational threshold log p is frozen once per p to
its binary-double rational (ties against an integer numerator would need the
weight to hit a 52-bit rational exactly, which never happens in practice, and
freezing makes reruns byte-identical).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GuardExceeded, PreconditionViolated
from .zp_core import PrimeModulus, ZpVector, level_members, weight_table

_GAP_ENUM_GUARD = 10**6


@dataclass(frozen=True)
class ContainerSet:
    """C(S) for a frequency set S, with exact membership."""

    s: frozenset[int]
    members: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.members)

    def outside(self, v: ZpVector) -> int:
        """outsideCount: the number of entries of v not in members, compared raw."""
        return sum(k for e, k in v.classes.items() if e not in self.members)


@functools.cache
def frozen_log_threshold(p: PrimeModulus) -> Fraction:
    """log p evaluated once in double precision, then exact thereafter."""
    return Fraction(math.log(p.p))


def level_set(v: ZpVector, t, p: PrimeModulus) -> frozenset[int]:
    """Exact T_t(v), as its member set; cost O(n p)."""
    tf = Fraction(t)
    if tf < 0:
        raise PreconditionViolated("threshold must be >= 0")
    return level_members(weight_table(v, p), tf, p)


def frequency_set(w: ZpVector, p: PrimeModulus) -> frozenset[int]:
    """F(w) = T_{log p}(w)."""
    return level_set(w, frozen_log_threshold(p), p)


def container(s, p: PrimeModulus) -> ContainerSet:
    """Exact C(S): the level set T_{|S|/32} of the vector sorted(S); C(empty) = Z_p."""
    s = frozenset(int(k) % p.p for k in s)
    weights = weight_table(ZpVector(tuple(sorted(s))), p)
    return ContainerSet(s, level_members(weights, Fraction(len(s), 32), p))


def lemma_contain_check(
    v: ZpVector, s, t, p: PrimeModulus
) -> tuple[int, bool]:
    """Count coordinates of v escaping C(S) for S inside T_t(v), t <= n/128.

    Under the preconditions the count is at most n/4 (the double-counting
    argument gives count <= 32 t); holds is returned for the harness but can
    never legitimately be False.
    """
    tf = Fraction(t)
    n = len(v)
    if 128 * tf > n:
        raise PreconditionViolated(f"need t <= n/128, got t={tf}, n={n}")
    tset = level_set(v, tf, p)
    s = frozenset(int(k) % p.p for k in s)
    if not s <= tset:
        raise PreconditionViolated("S must be a subset of T_t(v)")
    count = container(s, p).outside(v)
    return count, 4 * count <= n


def gap_elements(a: int, steps, sizes, p: PrimeModulus) -> list[int]:
    """The set {a + j_1 l_1 + ... + j_d l_d : 1 <= j_i <= k_i} in Z_p, sorted."""
    if len(steps) != len(sizes) or not steps:
        raise PreconditionViolated("need d >= 1 with matching steps/sizes")
    if any(k < 1 for k in sizes):
        raise PreconditionViolated("every k_i must be >= 1")
    total = 1
    for k in sizes:
        total *= k
        if total > _GAP_ENUM_GUARD:
            raise GuardExceeded("GAP enumeration too large")
    values = {a % p.p}
    for step, size in zip(steps, sizes):
        values = {
            (base + j * step) % p.p for base in values for j in range(1, size + 1)
        }
    return sorted(values)


def gen_gap_vector(
    a: int, steps, sizes, n: int, p: PrimeModulus, rng: np.random.Generator
) -> ZpVector:
    """n entries drawn independently and uniformly from the GAP's value set.

    Structured source for container tests: a d-dimensional progression keeps
    the signed walk confined, so rho stays large.
    """
    values = gap_elements(a, steps, sizes, p)
    idx = rng.integers(0, len(values), size=n)
    return ZpVector(tuple(values[i] for i in idx))
