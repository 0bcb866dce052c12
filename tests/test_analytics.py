"""Closed forms pinned against enumeration oracles and reference values.

Each frozen constant below was produced by the brute-force oracle in the
same test (or by exact rational arithmetic spelled out inline), never by
calling the function under test.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from fedsgt import analytics
from fedsgt.analytics import (AnalyticParams, _expected_span_given_m_exact,
                              deletion_rate_fedcio, deletion_rate_fedsgt,
                              distinct_count_law, expected_comm_cost,
                              expected_remaining_fedcio,
                              expected_remaining_fedsgt, expected_span,
                              expected_span_curve, matched_budget,
                              prob_m_distinct, prob_max_gap_le, training_cost)
from fedsgt.combinatorics import stirling2

# Every (L, r) with L <= 6 and r <= 6: small enough to enumerate all L^r
# equally likely request sequences.
SMALL_GRID = [(L, r) for L in range(1, 7) for r in range(7)]


def max_circular_gap(L: int, occupied: frozenset) -> int:
    pos = sorted(occupied)
    if not pos:
        return L
    gaps = [pos[i + 1] - pos[i] for i in range(len(pos) - 1)]
    gaps.append(pos[0] + L - pos[-1])
    return max(gaps)


def enumerate_occupancy(L: int, r: int) -> Counter:
    """The hit sets of all L^r equally likely assignments of r requests to
    L groups, with the number of assignments giving each."""
    return Counter(frozenset(draw) for draw in product(range(L), repeat=r))


def span_of(L: int, occupied: frozenset) -> int:
    return 0 if not occupied else L - max_circular_gap(L, occupied) + 1


class TestDeletionRates:
    def test_fedsgt_reference_value(self):
        assert deletion_rate_fedsgt(10, 10) == pytest.approx(29.2897, abs=1e-4)

    def test_fedcio_reference_value(self):
        assert deletion_rate_fedcio(5) == pytest.approx(11.4167, abs=1e-4)

    def test_fedsgt_exact_small(self):
        # L * H_min(L,B); L=4, B=4: 4 * 25/12 = 25/3
        assert deletion_rate_fedsgt(4, 4) == pytest.approx(25 / 3)
        # budget below L truncates the harmonic sum: L=4, B=2: 4 * 3/2
        assert deletion_rate_fedsgt(4, 2) == pytest.approx(6.0)

    def test_fedcio_exact_small(self):
        assert deletion_rate_fedcio(2) == pytest.approx(3.0)

    def test_fedsgt_monotone_in_budget(self):
        values = [deletion_rate_fedsgt(8, b) for b in range(1, 9)]
        assert all(a < b for a, b in zip(values, values[1:]))
        # saturates at B = L
        assert deletion_rate_fedsgt(8, 8) == deletion_rate_fedsgt(8, 20)

    def test_dominance_at_reference_operating_point(self):
        assert deletion_rate_fedsgt(10, 10) > 2.5 * deletion_rate_fedcio(5)


class TestOccupancyDistribution:
    def test_prob_m_distinct_enumeration(self):
        for L, r in SMALL_GRID:
            counts = Counter()
            for occ, n in enumerate_occupancy(L, r).items():
                counts[len(occ)] += n
            for m in range(-1, L + 2):
                want = Fraction(counts[m], L ** r)
                assert prob_m_distinct(L, r, m) == want, (L, r, m)

    def test_matches_stirling_surjection_count(self):
        # C(L, m) * m! * S(r, m) / L^r: choose the m groups hit, then map
        # the r requests onto them. One chain pass per (L, r); m = L + 1
        # checks the out-of-range zero.
        for L in (1, 10, 64):
            for r in (0, 1, 50, 300):
                law = distinct_count_law(L, r)
                assert len(law) == L + 1
                for m in range(L + 2):
                    want = Fraction(math.comb(L, m) * math.factorial(m) *
                                    stirling2(r, m), L ** r)
                    got = law[m] if m <= L else prob_m_distinct(L, r, m)
                    assert got == want, (L, r, m)

    def test_reference_values(self):
        # L=6, r=2: both requests in one group w.p. 1/6
        assert prob_m_distinct(6, 2, 1) == Fraction(1, 6)
        assert prob_m_distinct(6, 2, 2) == Fraction(5, 6)

    def test_zero_requests(self):
        assert prob_m_distinct(5, 0, 0) == 1
        assert prob_m_distinct(5, 0, 1) == 0

    def test_sums_to_one(self):
        for L, r in [(4, 6), (7, 3), (10, 10)]:
            assert sum(prob_m_distinct(L, r, m) for m in range(L + 1)) == 1

    def test_law_is_the_per_m_probability(self):
        # the whole row in one pass equals C(L, m) m! S(r, m) / L^r, the
        # value prob_m_distinct gave one m at a time
        for L in range(1, 9):
            for r in range(9):
                law = distinct_count_law(L, r)
                assert len(law) == L + 1
                assert sum(law) == 1
                for m, p in enumerate(law):
                    want = Fraction(math.comb(L, m) * math.factorial(m) *
                                    stirling2(r, m), L ** r)
                    assert p == want, (L, r, m)
                    assert prob_m_distinct(L, r, m) == p, (L, r, m)

    def test_law_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            distinct_count_law(0, 3)
        with pytest.raises(ValueError):
            distinct_count_law(4, -1)


class TestMaxGap:
    def gap_oracle(self, L: int, m: int, s: int) -> Fraction:
        """Place m occupied positions uniformly among the C(L, m) subsets
        with position 0 fixed by symmetry; count subsets whose largest
        circular gap is <= s. Rotation invariance means conditioning on
        0 being occupied changes nothing."""
        from itertools import combinations
        good = total = 0
        for rest in combinations(range(1, L), m - 1):
            total += 1
            if max_circular_gap(L, frozenset((0,) + rest)) <= s:
                good += 1
        return Fraction(good, total)

    def test_against_enumeration(self):
        for L in (4, 5, 6, 7):
            for m in range(1, L + 1):
                for s in range(0, L + 1):
                    want = (Fraction(0) if s == 0
                            else self.gap_oracle(L, m, s) if m > 1
                            else Fraction(1 if s >= L else 0))
                    assert prob_max_gap_le(L, m, s) == want, (L, m, s)

    def test_reference_values(self):
        # the formula's own value at L=6, m=2, s=3 is 1/5; at s=4 it is 3/5
        assert prob_max_gap_le(6, 2, 3) == Fraction(1, 5)
        assert prob_max_gap_le(6, 2, 4) == Fraction(3, 5)

    def test_degenerate(self):
        assert prob_max_gap_le(6, 2, 0) == 0
        assert prob_max_gap_le(6, 6, 1) == 1
        assert prob_max_gap_le(6, 1, 5) == 0
        assert prob_max_gap_le(6, 1, 6) == 1

    def test_monotone_in_bound(self):
        vals = [prob_max_gap_le(8, 3, s) for s in range(9)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_out_of_range_occupied(self):
        with pytest.raises(ValueError):
            prob_max_gap_le(6, 0, 3)
        with pytest.raises(ValueError):
            prob_max_gap_le(6, 7, 3)


class TestExpectedSpan:
    def span_oracle(self, L: int, m: int) -> Fraction:
        """E[L - maxgap + 1] over uniform m-subsets containing position 0."""
        from itertools import combinations
        total = Fraction(0)
        count = 0
        for rest in combinations(range(1, L), m - 1):
            total += L - max_circular_gap(L, frozenset((0,) + rest)) + 1
            count += 1
        return total / count

    def test_given_m_against_enumeration(self):
        for L in (1, 2, 4, 5, 6, 8, 9, 12):
            for m in range(1, L + 1):
                assert _expected_span_given_m_exact(L, m) == \
                    self.span_oracle(L, m), (L, m)

    def test_reference_value(self):
        # L=6, m=2: oracle gives 42/15 = 2.8
        assert self.span_oracle(6, 2) == Fraction(14, 5)
        assert _expected_span_given_m_exact(6, 2) == Fraction(14, 5)

    def test_unconditional_mixture(self):
        # E[U] at L=6, r=2 mixes m=1 (w.p. 1/6, span 1) and m=2 (span 2.8)
        assert expected_span(6, 2) == pytest.approx(1 / 6 + 2.8 * 5 / 6)

    def test_full_occupancy(self):
        assert _expected_span_given_m_exact(5, 5) == 5

    def test_zero_requests(self):
        assert expected_span(6, 0) == 0.0
        assert expected_span_curve(6, 0) == [0.0]

    def test_curve_matches_stirling_mixture(self):
        # The surjection-count mixture the occupancy chain replaced: for each
        # r, sum_m C(L, m) m! S(r, m) / L^r * E[U | M=m], in exact rationals.
        L, top = 16, 40
        given_m = {m: 1 + sum(prob_max_gap_le(L, m, s) for s in range(1, L))
                   for m in range(1, L + 1)}
        want = [float(sum(Fraction(math.comb(L, m) * math.factorial(m) *
                                   stirling2(r, m), L ** r) * given_m[m]
                          for m in range(1, min(r, L) + 1)))
                for r in range(top + 1)]
        assert expected_span_curve(L, top) == want
        assert [expected_span(L, r) for r in (0, 1, 16, 40)] == \
            [want[r] for r in (0, 1, 16, 40)]

    def test_negative_requests_rejected(self):
        with pytest.raises(ValueError):
            expected_span_curve(6, -1)
        with pytest.raises(ValueError):
            expected_span(6, -1)

    def test_given_m_rejects_out_of_range_occupied(self):
        for L, m in [(6, 0), (6, 7), (1, 2), (0, 1)]:
            with pytest.raises(ValueError):
                _expected_span_given_m_exact(L, m)


KERNEL_SIZES = [*range(1, 21), 32, 64]


class TestSpanKernel:
    """The integer span curve gives the float of the exact rational: the
    Fraction mixture of 1 + sum_s P(max gap <= s | M=m) over the law of the
    distinct count, bit for bit, at every length."""

    @pytest.mark.parametrize("L", KERNEL_SIZES)
    def test_curve_equals_fraction_oracle(self, L):
        top = 50
        given_m = [1 + sum((prob_max_gap_le(L, m, s) for s in range(1, L)),
                           Fraction(0))
                   for m in range(1, min(L, top) + 1)]
        oracle = [float(sum(p * u for p, u in
                            zip(distinct_count_law(L, r)[1:], given_m)))
                  for r in range(top + 1)]
        for R in (0, 1, 2, 5, 17, 50):
            got = expected_span_curve(L, R)
            assert [v.hex() for v in got] == \
                [v.hex() for v in oracle[:R + 1]], (L, R)

    @pytest.mark.parametrize("L", [1, 2, 7, 32, 64])
    def test_curve_is_prefix_stable(self, L):
        long = expected_span_curve(L, 50)
        for r in range(51):
            assert expected_span_curve(L, r) == long[:r + 1], (L, r)


class TestExpectedRemaining:
    def span_after_requests(self, L: int, r: int) -> Fraction:
        """E[cyclic span of the hit set] over all L^r request sequences."""
        return sum((n * span_of(L, occ)
                    for occ, n in enumerate_occupancy(L, r).items()),
                   Fraction(0)) / L ** r

    def test_fedsgt_against_enumeration(self):
        D = 50_000
        curves = {L: expected_span_curve(L, 6) for L in range(1, 7)}
        for L, r in SMALL_GRID:
            span = self.span_after_requests(L, r)
            assert expected_span(L, r) == curves[L][r] == float(span), (L, r)
            # The remaining data is (D/L) * (L - E[U]) taken in float after
            # the exact span, so it can sit one ulp from the exact rational.
            remaining = expected_remaining_fedsgt(D, L, r)
            assert remaining == D / L * (L - float(span)), (L, r)
            assert remaining == pytest.approx(float(Fraction(D, L) * (L - span)),
                                              rel=1e-15, abs=0), (L, r)

    def test_fedcio_matches_direct_formula(self):
        for c, r in [(2, 1), (5, 3), (5, 10)]:
            assert expected_remaining_fedcio(50_000, c, r) == pytest.approx(
                50_000 * (1 - 1 / c) ** r)

    def test_fedsgt_dominates_fedcio_on_reference_range(self):
        # L=10, B=10 vs c=5, D=50000, r = 1..25
        for r in range(1, 26):
            sgt = expected_remaining_fedsgt(50_000, 10, r)
            cio = expected_remaining_fedcio(50_000, 5, r)
            assert sgt >= cio, r

    def test_zero_requests(self):
        assert expected_remaining_fedsgt(1000, 4, 0) == pytest.approx(1000.0)
        assert expected_remaining_fedcio(1000, 4, 0) == pytest.approx(1000.0)


class TestCommCost:
    def comm_oracle(self, L: int, S: int) -> Fraction:
        """Enumerate all L^S ownership assignments for one client; for each,
        sum the cost L - entry + 1 over the L rotations."""
        total = 0
        for owned, n in enumerate_occupancy(L, S).items():
            for t in range(L):
                entry = min(((g + t) % L) + 1 for g in owned)
                total += n * (L - entry + 1)
        return Fraction(total, L ** S)

    def test_against_enumeration(self):
        for L, S in SMALL_GRID:
            if S >= 1:
                assert expected_comm_cost(L, S) == float(self.comm_oracle(L, S)), \
                    (L, S)

    def test_reference_values(self):
        assert expected_comm_cost(2, 2) == pytest.approx(3.5)
        assert expected_comm_cost(10, 2) == pytest.approx(71.5)

    def test_single_group(self):
        # one group: every sequence is (0,), client joins at phase 1 and
        # pays exactly one round
        assert expected_comm_cost(1, 1) == pytest.approx(1.0)

    def test_k_distribution_reuses_occupancy(self):
        assert prob_m_distinct(6, 2, 1) == Fraction(1, 6)
        assert sum(prob_m_distinct(10, 2, k) for k in range(11)) == 1


class TestBudgetAndCost:
    def test_matched_budget_reference(self):
        assert matched_budget(10, 10) == pytest.approx(18.1818, abs=1e-4)

    def test_matched_budget_small(self):
        assert matched_budget(3, 2) == pytest.approx(4.0)
        assert matched_budget(1, 1) == pytest.approx(1.0)

    def test_training_cost_reference(self):
        # T=10, E=3, D=50000, P=1, L=10: baselines 10*3*50000*10 = 1.5e7
        params = AnalyticParams(group_count=10, budget=10,
                                total_samples=50_000, rounds=10, epochs=3,
                                adapter_params=1)
        assert training_cost("FedAvg", params) == pytest.approx(1.5e7)
        assert training_cost("FedCIO", params) == pytest.approx(1.5e7)
        # FedSGT: B*E*(L+1)/2*D*P = 10*3*5.5*50000 = 8.25e6
        assert training_cost("FedSGT", params) == pytest.approx(8.25e6)

    def test_cost_ratio_closed_form(self):
        params = AnalyticParams(group_count=10, budget=10,
                                total_samples=50_000, rounds=10, epochs=3)
        ratio = training_cost("FedSGT", params) / training_cost("FedAvg", params)
        assert ratio == pytest.approx(10 * 11 / (2 * 10 * 10))

    def test_matched_budget_equalizes_cost(self):
        # at B = 2TL/(L+1) the FedSGT cost equals the FedAvg cost
        T, L = 10, 10
        b = matched_budget(T, L)
        params = AnalyticParams(group_count=L, budget=1,
                                total_samples=1000, rounds=T, epochs=2)
        fedavg = training_cost("FedAvg", params)
        sgt_per_budget = training_cost("FedSGT", params)
        assert sgt_per_budget * b == pytest.approx(fedavg)

    def test_unknown_method_rejected(self):
        params = AnalyticParams()
        with pytest.raises(ValueError):
            training_cost("sgd", params)

    @pytest.mark.parametrize("field, message", [
        ("epochs", "epochs must be >= 0, got -1"),
        ("total_samples", "total_samples must be >= 0, got -1"),
    ])
    def test_negative_work_rejected(self, field, message):
        params = AnalyticParams(**{field: -1})
        with pytest.raises(ValueError, match=message):
            training_cost("FedSGT", params)

    def test_method_case_insensitive(self):
        params = AnalyticParams()
        assert training_cost("fedavg", params) == training_cost("FedAvg", params)
