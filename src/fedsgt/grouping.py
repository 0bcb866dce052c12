"""Balanced assignment of client slices to groups.

The plan is the root of every exactness argument downstream, so its
construction is fully deterministic and portable: slices are sorted
lexicographically by (client_id, slice_idx), shuffled by a Fisher-Yates pass
driven by SplitMix64 (a fixed, documented 64-bit generator), and cut into
``group_count`` contiguous blocks whose sizes differ by at most one. The
serialized form is byte-stable so two plans built from identical inputs
compare equal as files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import check_at_least

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 PRNG. Small, portable, and stable across platforms; the
    plan format pins this generator so any implementation can replay a
    shuffle from (inputs, seed)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bounded(self, n: int) -> int:
        """Uniform integer in [0, n) by 64-bit modulo; the bias at these
        sizes is far below anything observable and the rule is trivially
        portable. ``n`` follows ``core``'s integer rule, at least 1; a
        plain ``int`` of at least 1 passes by a type test and a compare,
        since a shuffle calls this once per slice. A numpy integer is taken
        as a plain one: the 64-bit word overflows numpy's ``%``."""
        if type(n) is not int or n < 1:
            check_at_least(1, n=n)
            n = int(n)
        return self.next_uint64() % n


def fisher_yates(items: list, seed: int) -> None:
    """In-place Fisher-Yates shuffle using SplitMix64(seed)."""
    rng = SplitMix64(seed)
    for i in range(len(items) - 1, 0, -1):
        j = rng.bounded(i + 1)
        items[i], items[j] = items[j], items[i]


def near_equal_runs(count: int, parts: int) -> list[tuple[int, int]]:
    """``[start, stop)`` bounds that cut ``range(count)`` into ``parts`` runs
    in order; the first ``count % parts`` runs are one longer than the rest.
    Groups, a client's slices and the test split's classes use this cut."""
    base, extra = divmod(count, parts)
    bounds = [i * base + min(i, extra) for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


class SliceRef(NamedTuple):
    """One client-held data slice, the unit of deletion requests.

    A named pair: it hashes, compares and orders as the plain tuple
    ``(client_id, slice_idx)``, and equals it, so the dicts and sets keyed
    by slices hash in C.
    """

    client_id: int
    slice_idx: int


@dataclass(frozen=True)
class GroupingPlan:
    """Immutable slice-to-group assignment.

    ``groups[g]`` preserves the shuffled order of its slices; training
    consumes slices in that order, so the order is part of the plan's
    identity and of its serialized form. The group count is the number of
    groups, so it cannot disagree with them.
    """

    seed: int
    groups: tuple[tuple[SliceRef, ...], ...]
    sizes: dict  # SliceRef -> sample count

    def __post_init__(self):
        lookup = {}
        for gid, members in enumerate(self.groups):
            for ref in members:
                lookup[ref] = gid
        object.__setattr__(self, "_group_lookup", lookup)
        object.__setattr__(self, "_total_samples", sum(self.sizes.values()))

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def total_samples(self) -> int:
        return self._total_samples

    def group_samples(self, group: int) -> int:
        return sum(self.sizes[ref] for ref in self.groups[group])

    def clients(self) -> set[int]:
        return {ref.client_id for g in self.groups for ref in g}


def build_grouping(slice_catalog: Sequence[tuple[SliceRef, int]],
                   group_count: int, seed: int) -> GroupingPlan:
    """Partition the shuffled catalog into ``group_count`` groups cut by
    ``near_equal_runs``. The catalog must contain at least one slice per
    group and no duplicate refs."""
    check_at_least(1, group_count=group_count)
    refs = [ref for ref, _ in slice_catalog]
    if len(set(refs)) != len(refs):
        raise ValueError("slice_catalog contains duplicate slice refs")
    if len(refs) < group_count:
        raise ValueError(
            f"need at least {group_count} slices for {group_count} groups, "
            f"got {len(refs)}")
    sizes = {ref: int(n) for ref, n in slice_catalog}
    for ref, n in sizes.items():
        if n < 1:
            raise ValueError(f"slice {ref} has nonpositive sample count {n}")

    order = sorted(refs)
    fisher_yates(order, seed)

    groups = tuple(tuple(order[start:stop])
                   for start, stop in near_equal_runs(len(order), group_count))
    return GroupingPlan(seed=seed, groups=groups, sizes=sizes)


def group_of(plan: GroupingPlan, ref: SliceRef) -> int:
    """Group id owning ``ref``; raises KeyError for unknown slices."""
    return plan._group_lookup[ref]


def plan_to_json(plan: GroupingPlan) -> str:
    """Byte-stable JSON serialization of a plan."""
    doc = {
        "format": "fedsgt-plan",
        "version": 1,
        "group_count": plan.group_count,
        "seed": plan.seed,
        "groups": [
            [{"client": ref.client_id, "slice": ref.slice_idx,
              "samples": plan.sizes[ref]} for ref in members]
            for members in plan.groups
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
