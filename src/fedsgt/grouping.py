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
from typing import Iterable, Sequence

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
        portable."""
        if n <= 0:
            raise ValueError(f"bounded: n must be positive, got {n}")
        return self.next_uint64() % n


def fisher_yates(items: list, seed: int) -> None:
    """In-place Fisher-Yates shuffle using SplitMix64(seed)."""
    rng = SplitMix64(seed)
    for i in range(len(items) - 1, 0, -1):
        j = rng.bounded(i + 1)
        items[i], items[j] = items[j], items[i]


@dataclass(frozen=True, order=True)
class SliceRef:
    """One client-held data slice, the unit of deletion requests."""

    client_id: int
    slice_idx: int


@dataclass(frozen=True)
class GroupingPlan:
    """Immutable slice-to-group assignment.

    ``groups[g]`` preserves the shuffled order of its slices; training
    consumes slices in that order, so the order is part of the plan's
    identity and of its serialized form.
    """

    group_count: int
    seed: int
    groups: tuple[tuple[SliceRef, ...], ...]
    sizes: dict  # SliceRef -> sample count

    def __post_init__(self):
        lookup = {}
        for gid, members in enumerate(self.groups):
            for ref in members:
                lookup[ref] = gid
        object.__setattr__(self, "_group_lookup", lookup)

    @property
    def total_samples(self) -> int:
        return sum(self.sizes.values())

    def group_samples(self, group: int) -> int:
        return sum(self.sizes[ref] for ref in self.groups[group])

    def clients(self) -> set[int]:
        return {ref.client_id for g in self.groups for ref in g}


def build_grouping(slice_catalog: Sequence[tuple[SliceRef, int]],
                   group_count: int, seed: int) -> GroupingPlan:
    """Partition the catalog into ``group_count`` groups of near-equal
    cardinality (difference at most one slice).

    The catalog must contain at least one slice per group and no duplicate
    refs. When the slice count is not divisible by the group count, the
    first (count % group_count) groups take one extra slice.
    """
    if group_count < 1:
        raise ValueError(f"group_count must be >= 1, got {group_count}")
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

    base, extra = divmod(len(order), group_count)
    groups = []
    cursor = 0
    for g in range(group_count):
        take = base + (1 if g < extra else 0)
        groups.append(tuple(order[cursor:cursor + take]))
        cursor += take
    return GroupingPlan(group_count=group_count, seed=seed,
                        groups=tuple(groups), sizes=sizes)


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


def plan_from_json(text: str) -> GroupingPlan:
    """The plan a ``plan_to_json`` document holds. A document that breaks an
    invariant ``build_grouping`` keeps (one listed group per declared group,
    none empty, no slice twice, every slice at least one sample) raises
    ValueError."""
    doc = json.loads(text)
    if (not isinstance(doc, dict) or doc.get("format") != "fedsgt-plan"
            or doc.get("version") != 1):
        raise ValueError("not a version-1 fedsgt plan document")
    groups = []
    sizes = {}
    for gid, members in enumerate(doc["groups"]):
        if not members:
            raise ValueError(f"plan group {gid} is empty")
        refs = []
        for item in members:
            ref = SliceRef(int(item["client"]), int(item["slice"]))
            if ref in sizes:
                raise ValueError(f"plan lists slice {ref} twice")
            refs.append(ref)
            sizes[ref] = int(item["samples"])
            if sizes[ref] < 1:
                raise ValueError(
                    f"slice {ref} has nonpositive sample count {sizes[ref]}")
        groups.append(tuple(refs))
    group_count = int(doc["group_count"])
    if group_count != len(groups):
        raise ValueError(f"plan declares {group_count} groups but lists "
                         f"{len(groups)}")
    return GroupingPlan(group_count=group_count, seed=int(doc["seed"]),
                        groups=tuple(groups), sizes=sizes)


def client_group_counts(plan: GroupingPlan) -> dict[int, int]:
    """Number of distinct groups each client's slices landed in."""
    seen: dict[int, set[int]] = {}
    for gid, members in enumerate(plan.groups):
        for ref in members:
            seen.setdefault(ref.client_id, set()).add(gid)
    return {client: len(groups) for client, groups in seen.items()}
