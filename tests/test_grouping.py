"""Grouping: balance, determinism, and the occupancy distribution."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsgt.analytics import prob_m_distinct
from fedsgt.grouping import (SliceRef, SplitMix64, build_grouping,
                             fisher_yates, group_of, near_equal_runs,
                             plan_to_json)


def catalog(clients: int, slices: int, size: int = 10):
    return [(SliceRef(c, s), size) for c in range(clients)
            for s in range(slices)]


def client_group_counts(plan):
    """Number of distinct groups each client's slices landed in."""
    seen = {}
    for gid, members in enumerate(plan.groups):
        for ref in members:
            seen.setdefault(ref.client_id, set()).add(gid)
    return {client: len(groups) for client, groups in seen.items()}


def run_sizes(count: int, parts: int) -> list[int]:
    return [stop - start for start, stop in near_equal_runs(count, parts)]


class TestNearEqualRuns:
    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(0, 500), parts=st.integers(1, 60))
    def test_runs_cover_in_order_and_differ_by_one(self, count, parts):
        runs = near_equal_runs(count, parts)
        assert len(runs) == parts
        assert [start for start, _ in runs] == [0] + [stop for _, stop in runs[:-1]]
        assert runs[-1][1] == count
        sizes = run_sizes(count, parts)
        longer = count % parts
        assert sizes == [count // parts + 1] * longer + [count // parts] * (parts - longer)

    @settings(max_examples=40, deadline=None)
    @given(clients=st.integers(1, 8), slices=st.integers(1, 5),
           data=st.data())
    def test_group_sizes_are_the_runs(self, clients, slices, data):
        groups = data.draw(st.integers(1, clients * slices))
        plan = build_grouping(catalog(clients, slices), groups, seed=3)
        assert [len(g) for g in plan.groups] == run_sizes(clients * slices, groups)


class TestBuildGrouping:
    def test_partition_is_exact(self):
        cat = catalog(7, 3)
        plan = build_grouping(cat, 5, seed=1)
        seen = [ref for group in plan.groups for ref in group]
        assert sorted(seen) == sorted(ref for ref, _ in cat)
        assert len(seen) == len(set(seen))

    def test_balance_within_one(self):
        for clients, slices, L in [(7, 3, 5), (10, 5, 10), (4, 1, 3)]:
            plan = build_grouping(catalog(clients, slices), L, seed=9)
            sizes = [len(g) for g in plan.groups]
            assert max(sizes) - min(sizes) <= 1

    def test_remainder_goes_to_first_groups(self):
        # 11 slices into 3 groups: sizes 4,4,3
        plan = build_grouping(catalog(11, 1), 3, seed=2)
        assert [len(g) for g in plan.groups] == [4, 4, 3]

    def test_deterministic_and_seed_sensitive(self):
        cat = catalog(10, 5)
        a = build_grouping(cat, 10, seed=42)
        b = build_grouping(cat, 10, seed=42)
        c = build_grouping(cat, 10, seed=43)
        assert a.groups == b.groups
        assert a.groups != c.groups

    def test_input_order_irrelevant(self):
        cat = catalog(6, 4)
        plan_fwd = build_grouping(cat, 4, seed=5)
        plan_rev = build_grouping(list(reversed(cat)), 4, seed=5)
        assert plan_fwd.groups == plan_rev.groups

    def test_duplicate_slices_rejected(self):
        cat = catalog(3, 2) + [(SliceRef(0, 0), 10)]
        with pytest.raises(ValueError):
            build_grouping(cat, 2, seed=0)

    def test_too_few_slices_rejected(self):
        with pytest.raises(ValueError):
            build_grouping(catalog(2, 1), 3, seed=0)

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(ValueError):
            build_grouping([(SliceRef(0, 0), 0), (SliceRef(0, 1), 5)], 2, seed=0)


class TestSplitMix64:
    # The published splitmix64 outputs (Steele, Lea and Flood 2014; Vigna's
    # reference C): the plan format pins this generator so any
    # implementation can replay a shuffle, so its words are pinned here.
    @pytest.mark.parametrize("seed, words", [
        (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]),
        (1234567, [6457827717110365317, 3203168211198807973,
                   9817491932198370423]),
    ])
    def test_known_answers(self, seed, words):
        rng = SplitMix64(seed)
        assert [rng.next_uint64() for _ in words] == words

    @pytest.mark.parametrize("n", [0, -1])
    def test_bounded_rejects_an_empty_range(self, n):
        with pytest.raises(ValueError,
                           match=f"bounded: n must be positive, got {n}"):
            SplitMix64(0).bounded(n)


class TestSliceRef:
    """A slice hashes, orders and prints as before its type became a named
    tuple, so every dict, set and digest keyed by slices is unchanged."""

    @pytest.mark.parametrize("ref", [(0, 0), (3, 1), (-2, 7), (10**20, 5)])
    def test_hash_is_the_plain_pair_hash(self, ref):
        assert hash(SliceRef(*ref)) == hash(ref)

    def test_set_order_is_the_pairs_order(self):
        pairs = [(c, s) for c in range(7) for s in range(5)]
        refs = {SliceRef(c, s) for c, s in reversed(pairs)}
        assert ([(r.client_id, r.slice_idx) for r in refs]
                == list(set(reversed(pairs))))

    def test_equals_the_plain_pair(self):
        assert SliceRef(3, 1) == (3, 1) and (3, 1) == SliceRef(3, 1)
        assert {SliceRef(3, 1): "a"}[(3, 1)] == "a"
        assert SliceRef(3, 1) != (1, 3)

    def test_repr_order_and_keywords(self):
        ref = SliceRef(client_id=3, slice_idx=1)
        assert ref == SliceRef(3, 1)
        assert (ref.client_id, ref.slice_idx) == (3, 1)
        assert repr(ref) == str(ref) == "SliceRef(client_id=3, slice_idx=1)"
        refs = [SliceRef(2, 0), SliceRef(1, 5), SliceRef(1, 2), SliceRef(0, 9)]
        assert sorted(refs) == [SliceRef(0, 9), SliceRef(1, 2), SliceRef(1, 5),
                                SliceRef(2, 0)]

    @pytest.mark.parametrize("name", ["client_id", "slice_idx", "extra"])
    def test_attributes_cannot_be_assigned(self, name):
        ref = SliceRef(1, 2)
        with pytest.raises(AttributeError):
            setattr(ref, name, 5)
        assert ref == SliceRef(1, 2)


class TestLookups:
    def test_group_of(self):
        plan = build_grouping(catalog(5, 2), 5, seed=3)
        for gid, group in enumerate(plan.groups):
            for ref in group:
                assert group_of(plan, ref) == gid

    def test_group_of_unknown_slice(self):
        plan = build_grouping(catalog(5, 2), 5, seed=3)
        with pytest.raises(KeyError):
            group_of(plan, SliceRef(99, 0))

    def test_sample_accounting(self):
        cat = [(SliceRef(c, s), 10 * (c + 1)) for c in range(4)
               for s in range(2)]
        plan = build_grouping(cat, 4, seed=7)
        assert plan.total_samples == sum(n for _, n in cat)
        assert sum(plan.group_samples(g) for g in range(4)) == plan.total_samples

    def test_client_group_counts(self):
        plan = build_grouping(catalog(6, 2), 4, seed=1)
        counts = client_group_counts(plan)
        assert set(counts) == set(range(6))
        for distinct in counts.values():
            assert 1 <= distinct <= 2


class TestSerialization:
    def test_round_trip_byte_identical(self):
        # The document holds the whole plan in canonical form: it names
        # every group's slices and sizes, and dumping it again gives the
        # same bytes.
        plan = build_grouping(catalog(8, 3), 6, seed=17)
        text = plan_to_json(plan)
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == text
        assert (doc["group_count"], doc["seed"]) == (6, 17)
        assert [tuple(SliceRef(i["client"], i["slice"]) for i in members)
                for members in doc["groups"]] == list(plan.groups)
        assert all(i["samples"] == plan.sizes[SliceRef(i["client"], i["slice"])]
                   for members in doc["groups"] for i in members)

    def test_json_is_versioned(self):
        doc = json.loads(plan_to_json(build_grouping(catalog(4, 2), 4, seed=0)))
        assert doc["format"] == "fedsgt-plan"
        assert doc["version"] == 1


class TestShuffleQuality:
    def test_fisher_yates_is_permutation_and_deterministic(self):
        items = list(range(50))
        a = list(items)
        fisher_yates(a, seed=12)
        b = list(items)
        fisher_yates(b, seed=12)
        assert a == b
        assert sorted(a) == items
        assert a != items  # astronomically unlikely to be identity

    def test_shuffle_uniformity_chi2(self):
        # every permutation of 4 items should appear ~equally often over
        # seeds; chi-squared against uniform over 24 cells
        from itertools import permutations
        counts = Counter()
        for seed in range(12000):
            arr = [0, 1, 2, 3]
            fisher_yates(arr, seed)
            counts[tuple(arr)] += 1
        assert len(counts) == 24
        expected = 12000 / 24
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # 23 dof: mean 23, sd ~6.8; 60 is beyond 5 sigma
        assert chi2 < 60, chi2

    def test_k_distribution_matches_closed_form(self):
        # independent-uniform assignment (the analysis model): distinct
        # groups hit by one client's S slices follows prob_m_distinct exactly
        L, S, trials = 6, 2, 200_000
        rng = np.random.default_rng(123)
        draws = rng.integers(0, L, size=(trials, S))
        distinct = np.array([len(set(row)) for row in draws])
        for k in (1, 2):
            p = float(prob_m_distinct(L, S, k))
            freq = float(np.mean(distinct == k))
            sd = (p * (1 - p) / trials) ** 0.5
            assert abs(freq - p) < 4 * sd, (k, freq, p)

    def test_balanced_plan_spreads_clients(self):
        # the balanced partition is not the independent model, but a
        # client's slices should still often land in distinct groups
        hits = []
        for seed in range(200):
            plan = build_grouping(catalog(10, 2), 10, seed=seed)
            hits.extend(client_group_counts(plan).values())
        mean_distinct = sum(hits) / len(hits)
        # independent model gives 1 + 1 - 1/L = 1.9; balanced placement
        # stays in a loose band around it
        assert 1.6 < mean_distinct <= 2.0, mean_distinct
