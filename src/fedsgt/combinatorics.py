"""Exact combinatorial primitives: harmonic numbers, binomials, Stirling
partition numbers.

Everything here is exact. Harmonic numbers are rationals, binomials and
Stirling numbers are arbitrary-precision integers. Callers finish their
alternating sums in exact arithmetic before converting to float, which keeps
those sums free of cancellation error.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import check_at_least


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n as an exact rational. n must be >= 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"harmonic: n must be an int, got {type(n).__name__}")
    check_at_least(1, n=n)
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n. Both arguments must be nonnegative."""
    check_at_least(0, n=n, k=k)
    return math.comb(n, k)


def stirling2(r: int, m: int) -> int:
    """Stirling number of the second kind: partitions of r items into m
    nonempty unlabeled blocks. Zero when m > r; S(0, 0) = 1.

    Counts surjections by inclusion-exclusion and divides out the block
    labels: S(r, m) = sum_j (-1)^j C(m, j) (m - j)^r / m!, exact for any r.
    """
    check_at_least(0, r=r, m=m)
    onto = sum((-1) ** j * math.comb(m, j) * (m - j) ** r for j in range(m + 1))
    return onto // math.factorial(m)
