"""Closed-form expectations for the sequential-group unlearning protocol.

The serving system trains ``budget`` sequences over ``group_count`` groups;
the first ``min(group_count, budget)`` sequences are the cyclic rotations of
the identity order. Uniform deletion requests kill every sequence whose
prefix touches a deleted group, and the quantities below describe how long
the system lasts and how much data the surviving prefixes still cover.

Probabilities are computed exactly, in integers or rationals, and each
returned value is rounded once from its exact value, with one exception:
``expected_remaining_curve`` (and so ``expected_remaining_fedsgt``) takes
the rounded span and applies (|D|/L) * (L - E[U]) in float, a second
rounding that can leave the result one ulp from the exact rational.
Request targets are modeled as uniform over groups. This is what
``unlearn.request_stream`` (uniform over slices, with replacement) induces
when every group holds the same number of slices; plans whose groups hold
unequal slice counts are outside these closed forms. The Monte Carlo module
cross-checks every formula here by sampling the same model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .combinatorics import binomial, harmonic
from .core import METHOD_FEDCIO, METHOD_FEDSGT, check_at_least

METHOD_FEDAVG = "FedAvg"


@dataclass(frozen=True)
class AnalyticParams:
    """Inputs for cost formulas, named for what they are.

    adapter_params is the trainable parameter count of one adapter module;
    the FedAvg / FedCIO baselines fine-tune the whole stack of
    ``group_count`` modules every round, FedSGT trains one module per phase.
    """

    group_count: int = 10
    budget: int = 10
    total_samples: int = 50_000
    rounds: int = 10
    epochs: int = 3
    adapter_params: int = 1


def deletion_rate_fedsgt(group_count: int, budget: int) -> float:
    """Expected uniform deletion requests before every sequence is dead.

    The system fails once all min(group_count, budget) distinct head groups
    of the cyclic rotations have been hit: a partial coupon collection,
    group_count * H_min(group_count, budget).
    """
    check_at_least(1, group_count=group_count, budget=budget)
    effective = min(group_count, budget)
    return float(group_count * harmonic(effective))


def deletion_rate_fedcio(clusters: int) -> float:
    """Expected uniform deletion requests before every cluster is hit:
    the full coupon collection clusters * H_clusters."""
    check_at_least(1, clusters=clusters)
    return float(clusters * harmonic(clusters))


def _distinct_counts(group_count: int, requests: int) -> Iterator[list[int]]:
    """Yield N_0, ..., N_requests, where N_r[m] counts the length-r request
    sequences that hit exactly m groups: the occupancy birth chain (Feller,
    Vol. 1, ch. II) N_{r+1}(m) = m N_r(m) + (L-m+1) N_r(m-1), N_0 = [1, 0, ...]."""
    check_at_least(1, group_count=group_count)
    check_at_least(0, requests=requests)
    counts = [1] + [0] * group_count
    yield counts
    for _ in range(requests):
        counts = [0] + [m * counts[m] + (group_count - m + 1) * counts[m - 1]
                        for m in range(1, group_count + 1)]
        yield counts


def distinct_count_law(group_count: int, requests: int) -> list[Fraction]:
    """The law of the number of distinct groups hit by ``requests`` uniform
    draws: entry m is N_r(m) / L^r, m = 0..group_count, from one pass of the
    occupancy chain. Callers that need every m read this once instead of
    paying a chain pass per m."""
    *_, counts = _distinct_counts(group_count, requests)
    total = group_count ** requests
    return [Fraction(n, total) for n in counts]


def prob_m_distinct(group_count: int, requests: int, distinct: int) -> Fraction:
    """P(exactly ``distinct`` groups are hit by ``requests`` uniform draws):
    entry ``distinct`` of :func:`distinct_count_law`. Out-of-range
    ``distinct`` has probability zero; zero requests put all mass on zero
    distinct groups.
    """
    law = distinct_count_law(group_count, requests)
    return law[distinct] if 0 <= distinct <= group_count else Fraction(0)


def _check_occupied(group_count: int, occupied: int) -> None:
    check_at_least(1, group_count=group_count)
    if occupied < 1 or occupied > group_count:
        raise ValueError(
            f"occupied must be in [1, {group_count}], got {occupied}")


def prob_max_gap_le(group_count: int, occupied: int, gap_bound: int) -> Fraction:
    """P(max cyclic gap <= gap_bound | ``occupied`` distinct positions).

    Conditioned on m occupied positions on a cycle of length L, the gaps
    between cyclically consecutive occupied positions form a uniform positive
    composition of L into m parts; inclusion-exclusion over parts that exceed
    the bound gives

        (1 / C(L-1, m-1)) * sum_j (-1)^j C(m, j) C(L-1-j*s, m-1).
    """
    _check_occupied(group_count, occupied)
    check_at_least(0, gap_bound=gap_bound)
    if gap_bound == 0:
        return Fraction(0)
    total = binomial(group_count - 1, occupied - 1)
    acc = 0
    sign = 1
    for j in range((group_count - occupied) // gap_bound + 1):
        acc += sign * binomial(occupied, j) * binomial(
            group_count - 1 - j * gap_bound, occupied - 1)
        sign = -sign
    return Fraction(acc, total)


def _span_pair(group_count: int, occupied: int) -> tuple[int, int]:
    """E[U | M=m] as the integer pair (S_m, T_m), T_m = C(L-1, m-1): the
    numerator of 1 + sum_{s=1..L-1} P(max gap <= s | M=m) over the common
    denominator of every term of :func:`prob_max_gap_le`. Its j = 0 terms
    give L T_m; the rest group by j, where s runs up to (L-m) // j. Every
    binomial is a lookup in one column C(n, m-1), n < L, built up n by the
    exact C(n, k) = C(n-1, k) n / (n-k), or a step of C(m, j) =
    C(m, j-1) (m-j+1) / j, which is 0 past j = m, so j stops there. Entries
    of the column below m-1 are never read."""
    k = occupied - 1
    column = [0] * group_count
    column[k] = 1
    for n in range(k + 1, group_count):
        column[n] = column[n - 1] * n // (n - k)
    total = column[-1]
    spare = group_count - occupied
    acc = group_count * total
    choose = 1
    sign = -1
    for j in range(1, min(spare, occupied) + 1):
        choose = choose * (occupied - j + 1) // j
        acc += sign * choose * sum(column[group_count - 1 - j * s]
                                   for s in range(1, spare // j + 1))
        sign = -sign
    return acc, total


def _expected_span_given_m_exact(group_count: int, occupied: int) -> Fraction:
    # E[U | M=m] = 1 + sum_{s=1..L-1} P(max gap <= s | M=m), via
    # E[X] = sum P(X > s) applied to the max gap and U = L - maxgap + 1.
    _check_occupied(group_count, occupied)
    return Fraction(*_span_pair(group_count, occupied))


def expected_span_curve(group_count: int, max_requests: int) -> list[float]:
    """E[cyclic span of the hit set] after r uniform draws, r = 0..max_requests:
    E[U | M=m] = S_m / T_m, computed once per m, mixed over the occupancy
    chain's law at each r. Every term sits over den = lcm(T_m), so point r is
    sum_m N_r(m) S_m (den / T_m) / (den L^r), one correctly rounded division
    of two integers: the float of the exact rational. Zero requests give span
    zero."""
    pairs = [_span_pair(group_count, m)
             for m in range(1, min(group_count, max_requests) + 1)]
    den = math.lcm(*(t for _, t in pairs))
    weights = [s * (den // t) for s, t in pairs]
    return [sum(n * w for n, w in zip(counts[1:], weights)) / (den * group_count ** r)
            for r, counts in enumerate(_distinct_counts(group_count, max_requests))]


def expected_span(group_count: int, requests: int) -> float:
    """E[cyclic span of the hit set] after ``requests`` uniform draws."""
    return expected_span_curve(group_count, requests)[-1]


def expected_remaining_curve(total_samples: int, group_count: int,
                             max_requests: int) -> list[float]:
    """E[samples still covered by the best surviving prefix] after r uniform
    deletions, r = 0..max_requests, assuming balanced groups. With the full
    rotation family the longest surviving prefix has length L - U, where U is
    the cyclic span of the deleted set, so each point is (|D|/L) * (L - E[U]).
    That product is taken in float after E[U] is rounded, so a point can sit
    one ulp from the correctly rounded exact value (L = 6, r = 1, |D| =
    50,000 gives 41666.66666666667 for 125000/3).
    """
    check_at_least(0, total_samples=total_samples)
    return [total_samples / group_count * (group_count - span)
            for span in expected_span_curve(group_count, max_requests)]


def expected_remaining_fedsgt(total_samples: int, group_count: int,
                              requests: int) -> float:
    """E[samples still covered by the best surviving prefix] after
    ``requests`` uniform deletions: the last point of
    :func:`expected_remaining_curve`. The identity holds for the full
    rotation family, one rotation per group (budget >= group_count); it does
    not give the remaining data of a smaller budget, for which ``analyze``
    leaves the column empty.
    """
    return expected_remaining_curve(total_samples, group_count, requests)[-1]


def expected_remaining_fedcio(total_samples: int, clusters: int, requests: int) -> float:
    """E[data mass of untouched clusters] after ``requests`` uniform
    deletions with balanced clusters: |D| * (1 - 1/c)^r."""
    check_at_least(0, total_samples=total_samples)
    check_at_least(1, clusters=clusters)
    check_at_least(0, requests=requests)
    return total_samples * (1.0 - 1.0 / clusters) ** requests


def expected_comm_cost(group_count: int, slices_per_client: int) -> float:
    """Expected per-client communication rounds across all group_count cyclic
    sequences.

    A client joins a sequence at the first position holding one of its K
    distinct groups; those K positions are a uniform K-subset, so the entry
    position averages (L+1)/(K+1) and the per-sequence cost L - V + 1 sums to
    L(L+1) * E[K/(K+1)] over the whole rotation family.
    """
    check_at_least(1, group_count=group_count, slices_per_client=slices_per_client)
    *_, counts = _distinct_counts(group_count, slices_per_client)
    acc = sum(Fraction(n * k, k + 1) for k, n in enumerate(counts))
    return float(group_count * (group_count + 1) * acc / group_count ** slices_per_client)


def matched_budget(rounds: int, group_count: int) -> float:
    """Sequence budget that matches the FedAvg training budget of ``rounds``
    rounds: B = 2*T*L / (L+1), from equating B * (L+1)/2 phase-rounds with
    T * L."""
    check_at_least(1, rounds=rounds, group_count=group_count)
    return 2.0 * rounds * group_count / (group_count + 1)


def training_cost(method: str, params: AnalyticParams) -> float:
    """Total parameter-update count for one full training run.

    FedAvg and FedCIO fine-tune the whole module stack on all data every
    round: T * E * |D| * P * L (FedCIO partitions clients, which leaves the
    total unchanged). FedSGT trains one module per phase on the cumulative
    prefix, which telescopes to B * E * (L+1)/2 * |D| * P with balanced
    groups.
    """
    name = method.strip().lower()
    p = params
    check_at_least(1, group_count=p.group_count, budget=p.budget,
                   rounds=p.rounds, adapter_params=p.adapter_params)
    check_at_least(0, epochs=p.epochs, total_samples=p.total_samples)
    base = p.epochs * p.total_samples * p.adapter_params
    if name == METHOD_FEDAVG.lower() or name == METHOD_FEDCIO.lower():
        return float(p.rounds * base * p.group_count)
    if name == METHOD_FEDSGT.lower():
        return float(p.budget * base * (p.group_count + 1) / 2.0)
    raise ValueError(f"unknown method {method!r}; expected FedAvg, FedCIO, or FedSGT")
