"""Sequence construction, deletion propagation, and serving selection.

The survival-table cells below are derived by hand from the rotation
structure at L=6, B=6 and frozen; the span/prefix duality then cross-checks
every cell exhaustively.
"""

import itertools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsgt.sequencing import (apply_deletion, build_sequences, cyclic_span,
                               fresh_state, rotation, select_allseq,
                               select_longseq, select_minseq,
                               state_from_deleted, state_to_json)


def out_of_range(group, group_count):
    """What the group-id rule says of an integer id outside [0, group_count):
    a negative id fails ``core.check_at_least``, a large one the range."""
    if group < 0:
        return rf"group must be >= 0, got {group}"
    return rf"group {group} out of range \[0, {group_count}\)"


class TestConstruction:
    def test_rotations_cover_all_heads(self):
        seqs = build_sequences(6, 6)
        heads = [perm[0] for perm in seqs.perms]
        assert sorted(heads) == list(range(6))

    def test_rotation_layout(self):
        # rotation t puts group (p - t) mod L at position p
        assert rotation(6, 0) == (0, 1, 2, 3, 4, 5)
        assert rotation(6, 1) == (5, 0, 1, 2, 3, 4)
        assert rotation(6, 4) == (2, 3, 4, 5, 0, 1)
        seqs = build_sequences(6, 6)
        assert seqs.perms == tuple(rotation(6, t) for t in range(6))

    def test_each_perm_is_permutation(self):
        seqs = build_sequences(5, 9, seed=4)
        for perm in seqs.perms:
            assert sorted(perm) == list(range(5))

    def test_budget_below_groups_truncates(self):
        seqs = build_sequences(8, 3)
        assert seqs.perms == tuple(rotation(8, t) for t in range(3))

    def test_extras_beyond_rotations_are_distinct_and_seeded(self):
        a = build_sequences(4, 10, seed=1)
        b = build_sequences(4, 10, seed=1)
        c = build_sequences(4, 10, seed=2)
        assert a.perms == b.perms
        assert len(set(a.perms)) == 10
        assert a.perms[:4] == c.perms[:4]  # rotations are seed-independent
        assert a.perms != c.perms

    def test_budget_exceeding_permutation_count(self):
        with pytest.raises(ValueError):
            build_sequences(3, 7)  # 3! = 6 < 7

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_sequences(0, 1)
        with pytest.raises(ValueError):
            build_sequences(4, 0)


class TestDeletionTable:
    """L=6, B=6, deleting groups 1, then 5, then 2.

    Sequence t reads (0-t, 1-t, ...) mod 6:
        s0=(0,1,2,3,4,5) s1=(5,0,1,2,3,4) s2=(4,5,0,1,2,3)
        s3=(3,4,5,0,1,2) s4=(2,3,4,5,0,1) s5=(1,2,3,4,5,0)
    Surviving prefix lengths, worked position by position:
        after {1}:      (1, 2, 3, 4, 5, 0)
        after {1,5}:    (1, 0, 1, 2, 3, 0)
        after {1,5,2}:  (1, 0, 1, 2, 0, 0)
    """

    def setup_method(self):
        self.seqs = build_sequences(6, 6)

    def walk(self):
        state = fresh_state(self.seqs)
        out = []
        for g in (1, 5, 2):
            state = apply_deletion(state, self.seqs, g)
            out.append(state)
        return out

    def test_active_lengths_after_each_deletion(self):
        s1, s2, s3 = self.walk()
        assert s1.active_len == (1, 2, 3, 4, 5, 0)
        assert s2.active_len == (1, 0, 1, 2, 3, 0)
        assert s3.active_len == (1, 0, 1, 2, 0, 0)

    def test_longseq_selection(self):
        s1, s2, s3 = self.walk()
        assert select_longseq(s1, self.seqs) == 4  # prefix 2,3,4,5,0
        assert select_longseq(s2, self.seqs) == 4  # prefix 2,3,4
        assert select_longseq(s3, self.seqs) == 3  # prefix 3,4

    def test_minseq_selection(self):
        s1, s2, s3 = self.walk()
        # active prefix group sets: s4's {2,3,4,5,0} covers all others
        assert select_minseq(s1, self.seqs) == {4}
        # {0} and {2,3,4} are incomparable maximal sets
        assert select_minseq(s2, self.seqs) == {0, 4}
        # {0} and {3,4}
        assert select_minseq(s3, self.seqs) == {0, 3}

    def test_allseq_weights(self):
        s1, _, s3 = self.walk()
        w1 = dict(select_allseq(s1, self.seqs))
        assert w1[4] == pytest.approx(5 / 15)
        assert sum(w1.values()) == pytest.approx(1.0)
        assert set(w1) == {0, 1, 2, 3, 4}
        w3 = dict(select_allseq(s3, self.seqs))
        assert w3 == {0: pytest.approx(1 / 4), 2: pytest.approx(1 / 4),
                      3: pytest.approx(1 / 2)}

    def test_surviving_counts(self):
        s1, s2, s3 = self.walk()
        assert (s1.surviving, s2.surviving, s3.surviving) == (5, 4, 3)
        assert not s3.all_dead

    def test_spans_via_duality(self):
        # span + longest surviving prefix = L when all rotations are present
        s1, s2, s3 = self.walk()
        for state in (s1, s2, s3):
            span = cyclic_span(6, state.deleted)
            assert span + max(state.active_len) == 6

    def test_span_values(self):
        assert cyclic_span(6, frozenset({1})) == 1
        assert cyclic_span(6, frozenset({1, 5})) == 3
        assert cyclic_span(6, frozenset({1, 5, 2})) == 4

    @pytest.mark.parametrize("group", [6, -1])
    def test_span_rejects_groups_out_of_range(self, group):
        with pytest.raises(ValueError, match=out_of_range(group, 6)):
            cyclic_span(6, {group})


class TestDeletionAlgebra:
    def test_order_independent(self):
        seqs = build_sequences(6, 6)
        targets = (1, 5, 2)
        final = None
        for order in itertools.permutations(targets):
            state = fresh_state(seqs)
            for g in order:
                state = apply_deletion(state, seqs, g)
            if final is None:
                final = state
            assert state == final

    def test_idempotent(self):
        seqs = build_sequences(5, 5)
        s1 = apply_deletion(fresh_state(seqs), seqs, 2)
        s2 = apply_deletion(s1, seqs, 2)
        assert s2 is s1  # the same object: nothing is rebuilt or recounted

    def test_duality_exhaustive(self):
        # every deletion subset at L=6, B=6: cyclic span of the deleted set
        # plus the longest surviving prefix equals L (span 0 + L if empty)
        seqs = build_sequences(6, 6)
        for mask in range(64):
            deleted = frozenset(g for g in range(6) if mask >> g & 1)
            state = state_from_deleted(seqs, deleted)
            assert cyclic_span(6, deleted) + max(state.active_len) == 6, deleted
        # nothing deleted: every sequence serves its whole length, B != L too
        assert fresh_state(build_sequences(4, 9)).active_len == (4,) * 9

    def test_all_dead(self):
        seqs = build_sequences(4, 4)
        state = state_from_deleted(seqs, frozenset(range(4)))
        assert state.all_dead
        assert select_longseq(state, seqs) is None
        assert select_minseq(state, seqs) == set()
        assert select_allseq(state, seqs) == []

    def test_unknown_group_rejected(self):
        seqs = build_sequences(4, 4)
        for state in (fresh_state(seqs), state_from_deleted(seqs, {1})):
            for group in (4, -1):
                with pytest.raises(ValueError, match=out_of_range(group, 4)):
                    apply_deletion(state, seqs, group)


class TestSelectionInvariants:
    def test_longseq_member_of_minseq(self):
        seqs = build_sequences(7, 7)
        rng_masks = [0b0000001, 0b0010010, 0b1010100, 0b0111000]
        for mask in rng_masks:
            deleted = frozenset(g for g in range(7) if mask >> g & 1)
            state = state_from_deleted(seqs, deleted)
            if state.all_dead:
                continue
            assert select_longseq(state, seqs) in select_minseq(state, seqs)

    def test_minseq_no_strict_inclusion(self):
        seqs = build_sequences(6, 6)
        for mask in range(64):
            deleted = frozenset(g for g in range(6) if mask >> g & 1)
            state = state_from_deleted(seqs, deleted)
            chosen = sorted(select_minseq(state, seqs))
            sets = {sid: set(seqs.perms[sid][:state.active_len[sid]])
                    for sid in chosen}
            for a in chosen:
                for b in chosen:
                    if a != b:
                        assert not sets[a] < sets[b], (deleted, a, b)

    def test_longseq_tie_breaks_to_lowest_id(self):
        seqs = build_sequences(6, 6)
        # deleting group 3 gives prefixes of lengths (3,4,5,0,1,2):
        # unique max. Deleting {0,3} gives (0,1,2,0,1,2): tie between
        # sequences 2 and 5 at length 2 -> pick 2.
        state = state_from_deleted(seqs, frozenset({0, 3}))
        assert state.active_len == (0, 1, 2, 0, 1, 2)
        assert select_longseq(state, seqs) == 2


class TestSurvivingCount:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda groups: st.tuples(
        st.just(groups), st.integers(1, 14),
        st.frozensets(st.integers(0, groups - 1)))))
    def test_cached_count_is_the_recount_and_no_field(self, drawn):
        groups, budget, deleted = drawn
        seqs = build_sequences(groups, min(budget, math.factorial(groups)),
                               seed=3)
        state = state_from_deleted(seqs, deleted)
        twin = state_from_deleted(seqs, deleted)
        before = (hash(state), repr(state), state_to_json(state))
        recount = sum(1 for n in state.active_len if n > 0)
        assert state.surviving == recount == twin.surviving
        assert state.all_dead == (recount == 0)
        # reading the count leaves equality, hash, repr and JSON as they were
        assert (hash(state), repr(state), state_to_json(state)) == before
        assert state == twin and hash(state) == hash(twin)
        with pytest.raises(AttributeError):
            state.surviving = recount + 1


class TestStateSerialization:
    def test_round_trip(self):
        # The document holds the whole state: its deleted groups rebuild
        # the stored prefix lengths.
        seqs = build_sequences(6, 6)
        state = state_from_deleted(seqs, frozenset({1, 5}))
        doc = json.loads(state_to_json(state))
        assert (doc["format"], doc["version"]) == ("fedsgt-state", 1)
        assert state_from_deleted(seqs, doc["deleted"]) == state
        assert tuple(doc["active_len"]) == state.active_len
