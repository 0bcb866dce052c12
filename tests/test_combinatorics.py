"""Exact-arithmetic helpers checked against independent oracles."""

from fractions import Fraction
from itertools import combinations

import pytest

from fedsgt.analytics import distinct_count_law
from fedsgt.combinatorics import binomial, harmonic, stirling2


def pascal_triangle(rows: int) -> list[list[int]]:
    tri = [[1]]
    for n in range(1, rows):
        prev = tri[-1]
        tri.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return tri


def partitions_into_blocks(items: tuple, blocks: int):
    """Every way to split `items` into exactly `blocks` nonempty unlabeled
    blocks. Recursive: place the first item, distribute the rest."""
    if blocks == 0:
        if not items:
            yield ()
        return
    if len(items) < blocks:
        return
    first, rest = items[0], items[1:]
    # first item alone in its own block
    for part in partitions_into_blocks(rest, blocks - 1):
        yield ((first,),) + part
    # first item joins an existing block
    for part in partitions_into_blocks(rest, blocks):
        for i in range(len(part)):
            yield part[:i] + ((first,) + part[i],) + part[i + 1:]


class TestHarmonic:
    def test_small_values_exact(self):
        assert harmonic(1) == 1
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic(4) == Fraction(25, 12)
        assert harmonic(5) == Fraction(137, 60)

    def test_matches_direct_sum(self):
        for n in range(1, 40):
            assert harmonic(n) == sum(Fraction(1, k) for k in range(1, n + 1))

    def test_returns_fraction(self):
        assert isinstance(harmonic(7), Fraction)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            harmonic(0)
        with pytest.raises(TypeError):
            harmonic(2.5)


class TestBinomial:
    def test_against_pascal(self):
        tri = pascal_triangle(15)
        for n, row in enumerate(tri):
            for k, value in enumerate(row):
                assert binomial(n, k) == value

    def test_out_of_range_is_zero(self):
        assert binomial(4, 9) == 0
        assert binomial(0, 3) == 0

    def test_known_value(self):
        assert binomial(9, 4) == 126

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)
        with pytest.raises(ValueError):
            binomial(3, -2)


class TestStirling2:
    def test_against_partition_enumeration(self):
        for n in range(0, 8):
            items = tuple(range(n))
            for m in range(0, n + 1):
                count = sum(1 for _ in partitions_into_blocks(items, m))
                assert stirling2(n, m) == count, (n, m)

    def test_known_values(self):
        assert stirling2(0, 0) == 1
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(6, 3) == 90
        assert stirling2(10, 5) == 42525

    def test_boundary_cases(self):
        assert stirling2(5, 0) == 0
        assert stirling2(0, 3) == 0
        assert stirling2(3, 7) == 0
        assert stirling2(9, 9) == 1
        assert stirling2(9, 1) == 1

    def test_surjection_identity(self):
        # m! * S(n, m) counts surjections {1..n} -> {1..m}; inclusion-
        # exclusion gives the same count independently.
        import math
        for n in range(1, 9):
            for m in range(1, n + 1):
                surj = sum((-1) ** j * math.comb(m, j) * (m - j) ** n
                           for j in range(m + 1))
                assert math.factorial(m) * stirling2(n, m) == surj

    def test_recurrence_far_past_small_r(self):
        # S(r, m) = m S(r-1, m) + S(r-1, m-1), checked well past r = 256
        for m in (1, 2, 3, 7, 10, 64, 150, 299, 300):
            assert stirling2(300, m) == \
                m * stirling2(299, m) + stirling2(299, m - 1), m

    def test_occupancy_sums_to_one_at_large_r(self):
        for L in (1, 10, 64):
            assert sum(distinct_count_law(L, 300)) == Fraction(1), L

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stirling2(-1, 2)
