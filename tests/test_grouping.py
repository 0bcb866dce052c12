"""Grouping: balance, determinism, and the occupancy distribution."""

import json
from collections import Counter

import numpy as np
import pytest

from fedsgt.analytics import prob_m_distinct
from fedsgt.grouping import (SliceRef, build_grouping, client_group_counts,
                             fisher_yates, group_of, plan_from_json,
                             plan_to_json)


def catalog(clients: int, slices: int, size: int = 10):
    return [(SliceRef(c, s), size) for c in range(clients)
            for s in range(slices)]


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
        plan = build_grouping(catalog(8, 3), 6, seed=17)
        text = plan_to_json(plan)
        again = plan_to_json(plan_from_json(text))
        assert text == again
        assert plan_from_json(text).groups == plan.groups

    def test_json_is_versioned(self):
        doc = json.loads(plan_to_json(build_grouping(catalog(4, 2), 4, seed=0)))
        assert doc["format"] == "fedsgt-plan"
        assert doc["version"] == 1

    def test_bad_format_rejected(self):
        doc = json.loads(plan_to_json(build_grouping(catalog(4, 2), 4, seed=0)))
        doc["format"] = "other"
        with pytest.raises(ValueError):
            plan_from_json(json.dumps(doc))

    def contradict(self, change):
        doc = json.loads(plan_to_json(build_grouping(catalog(4, 2), 4, seed=0)))
        change(doc)
        return json.dumps(doc)

    @pytest.mark.parametrize("change, message", [
        (lambda d: d["groups"].pop(), "declares 4 groups but lists 3"),
        (lambda d: d.update(group_count=5), "declares 5 groups but lists 4"),
        (lambda d: d["groups"][2].clear(), "group 2 is empty"),
        (lambda d: d["groups"][1].append(dict(d["groups"][0][0])), "twice"),
        (lambda d: d["groups"][3][1].update(samples=0), "nonpositive sample"),
        (lambda d: d["groups"][0][0].update(samples=-4), "nonpositive sample"),
    ], ids=["missing-group", "extra-count", "empty-group", "duplicate-slice",
            "zero-samples", "negative-samples"])
    def test_self_contradicting_document_rejected(self, change, message):
        # Each document parses, but build_grouping never makes such a plan;
        # loading it used to succeed and fail later (group_samples(3) raised
        # IndexError on the missing group).
        with pytest.raises(ValueError, match=message):
            plan_from_json(self.contradict(change))

    def test_only_groups_must_agree_with_the_count(self):
        # Unequal group sizes are a legal plan (the first slices % L groups
        # take one extra slice), so moving a slice is not a contradiction.
        text = self.contradict(
            lambda d: d["groups"][1].append(d["groups"][0].pop()))
        plan = plan_from_json(text)
        assert [len(g) for g in plan.groups] == [1, 3, 2, 2]
        assert json.loads(plan_to_json(plan)) == json.loads(text)


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
