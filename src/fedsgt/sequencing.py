"""Group training orders, deletion bookkeeping, and serving strategies.

A sequence is a permutation of group ids; position p's module was trained on
the cumulative data of the first p+1 groups, so a deletion of group g
invalidates every position at or after g's position. The surviving prefix of
each sequence is therefore the longest head that avoids all deleted groups.

The first min(group_count, budget) sequences are the cyclic right-rotations
of the identity order; rotation t places group (p - t) mod L at position p.
Rotations make the family's worst case analyzable: with the full family, the
longest surviving prefix always has length L minus the cyclic span of the
deleted set. Budgets beyond L are filled with seeded random distinct
permutations and sit outside the closed-form claims.

States are immutable snapshots; ``apply_deletion`` returns a new state, so a
single writer can advance the system while readers keep serving an old
snapshot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .core import STREAM_TAGS, budget_error, check_at_least, keyed_stream


@dataclass(frozen=True)
class SequenceSet:
    """The trained family of group orders: ``perms[t]`` is rotation t for
    t < min(group_count, len(perms)) (the analyzable core). The group count
    is the length of an order, so it cannot disagree with the orders."""

    perms: tuple[tuple[int, ...], ...]

    @property
    def group_count(self) -> int:
        return len(self.perms[0])


@dataclass(frozen=True)
class SequenceState:
    """Deletion snapshot: the deleted groups and each sequence's surviving
    prefix length.

    ``surviving`` is counted once per state, on first read, and kept beside
    the fields: it is no field, so ``==``, ``hash``, ``repr`` and
    ``state_to_json`` see only ``deleted`` and ``active_len``."""

    deleted: frozenset[int]
    active_len: tuple[int, ...]

    @cached_property
    def surviving(self) -> int:
        return sum(1 for n in self.active_len if n > 0)

    @property
    def all_dead(self) -> bool:
        return self.surviving == 0


def rotation(group_count: int, t: int) -> tuple[int, ...]:
    """Right-rotation t of the identity order: position p holds group
    (p - t) mod group_count."""
    return tuple((p - t) % group_count for p in range(group_count))


def build_sequences(group_count: int, budget: int, seed: int = 0) -> SequenceSet:
    """Build the sequence family: min(L, budget) rotations first, then seeded
    random distinct permutations for any budget beyond L."""
    check_at_least(1, group_count=group_count, budget=budget)
    if (problem := budget_error(group_count, budget)) is not None:
        raise ValueError(f"budget {problem}")
    rotations = min(group_count, budget)
    perms = [rotation(group_count, t) for t in range(rotations)]
    seen = set(perms)
    rng = keyed_stream((seed, STREAM_TAGS["sequence_orders"]))
    while len(perms) < budget:
        candidate = tuple(int(g) for g in rng.permutation(group_count))
        if candidate not in seen:
            seen.add(candidate)
            perms.append(candidate)
    return SequenceSet(tuple(perms))


def _prefix_len(perm: tuple[int, ...], deleted: frozenset[int]) -> int:
    for i, g in enumerate(perm):
        if g in deleted:
            return i
    return len(perm)


def fresh_state(seqs: SequenceSet) -> SequenceState:
    return state_from_deleted(seqs, ())


def _group_ids(group_count: int, groups: Iterable[int]) -> frozenset[int]:
    """``groups`` as plain ints, each first checked by ``core``'s integer
    rule (a bool, a float such as 2.0 or a string is refused) and then
    against the range [0, group_count)."""
    ids = []
    for g in groups:
        check_at_least(0, group=g)
        if g >= group_count:
            raise ValueError(f"group {g} out of range [0, {group_count})")
        ids.append(int(g))
    return frozenset(ids)


def state_from_deleted(seqs: SequenceSet, deleted: Iterable[int]) -> SequenceState:
    dead = _group_ids(seqs.group_count, deleted)
    return SequenceState(deleted=dead,
                         active_len=tuple(_prefix_len(p, dead) for p in seqs.perms))


def apply_deletion(state: SequenceState, seqs: SequenceSet, group: int) -> SequenceState:
    """New state with ``group`` deleted, checked as ``state_from_deleted``
    checks it. Idempotent, and order-independent across a set of deletions:
    a repeat deletion returns ``state`` itself, the same object, so nothing
    is recounted. The integer rule runs before the repeat test (a plain
    ``int`` passes it by a type test alone), so a value merely equal to a
    deleted group, such as ``True`` or ``1.0`` once group 1 is deleted, is
    refused as it is on any other state."""
    if type(group) is not int:
        check_at_least(0, group=group)
    if group in state.deleted:
        return state
    return state_from_deleted(seqs, state.deleted | {group})


def active_prefix(seqs: SequenceSet, state: SequenceState, seq_id: int) -> tuple[int, ...]:
    """Groups in the surviving prefix of ``seq_id``, in training order."""
    return seqs.perms[seq_id][:state.active_len[seq_id]]


def select_longseq(state: SequenceState, seqs: SequenceSet) -> int | None:
    """Single sequence with the longest surviving prefix; ties go to the
    lowest sequence id. None when everything is dead."""
    best = None
    best_len = 0
    for sid, n in enumerate(state.active_len):
        if n > best_len:
            best, best_len = sid, n
    return best


def select_minseq(state: SequenceState, seqs: SequenceSet) -> set[int]:
    """Sequences whose surviving-prefix group sets are inclusion-maximal
    among survivors: the smallest ensemble that still covers every group any
    survivor covers."""
    prefix_sets = {sid: frozenset(active_prefix(seqs, state, sid))
                   for sid, n in enumerate(state.active_len) if n > 0}
    chosen = set()
    for sid, groups in prefix_sets.items():
        if not any(groups < other for other in prefix_sets.values()):
            chosen.add(sid)
    return chosen


def select_allseq(state: SequenceState, seqs: SequenceSet) -> list[tuple[int, float]]:
    """All surviving sequences with ensemble weights proportional to their
    surviving prefix lengths."""
    alive = [(sid, n) for sid, n in enumerate(state.active_len) if n > 0]
    total = sum(n for _, n in alive)
    return [(sid, n / total) for sid, n in alive]


def cyclic_span(group_count: int, deleted: Iterable[int]) -> int:
    """Shortest cyclic window covering the deleted set: L - maxgap + 1 where
    maxgap is the largest cyclic distance between consecutive deleted
    positions. Zero for the empty set."""
    dead = sorted(_group_ids(group_count, deleted))
    if not dead:
        return 0
    max_gap = dead[0] + group_count - dead[-1]
    for a, b in zip(dead, dead[1:]):
        max_gap = max(max_gap, b - a)
    return group_count - max_gap + 1


def state_to_json(state: SequenceState) -> str:
    doc = {
        "format": "fedsgt-state",
        "version": 1,
        "deleted": sorted(state.deleted),
        "active_len": list(state.active_len),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
