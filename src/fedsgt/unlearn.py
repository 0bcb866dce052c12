"""Deletion-request processing for the three serving regimes.

FedSGT deactivates every module downstream of the deleted group; deletion is
a metadata update and the exactness audit can certify, by retraining from
scratch, that what is still served never saw the deleted data. FedCIO marks
the whole affected cluster dead, which is what makes quantitative
comparisons fair: neither side retrains. FedRetrain retrains a single global
model and pays full downtime for every request.

Record-level requests are conservative: deleting any records from a slice
invalidates everything dependent on the slice's group, while the
remaining-sample accounting subtracts only the records actually deleted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import accumulate, islice
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .core import (METHOD_FEDCIO, METHOD_FEDSGT, STREAM_TAGS, TrainingError,
                   _count, check_at_least, check_fields, keyed_stream,
                   strategy_name)
from .dataset import Dataset
from .fltrain import (CostMeter, Reuse, ToyModel, TrainConfig, client_data,
                      evaluate, fedavg_lockstep, matrix_accuracy, train_prefixes)
from .grouping import GroupingPlan, SliceRef, group_of
from .sequencing import (SequenceSet, SequenceState, apply_deletion,
                         fresh_state, state_from_deleted)

METHOD_FEDRETRAIN = "FedRetrain"

TIMELINE_HEADER = ("step", "method", "affected_unit", "status", "utility",
                   "surviving", "notes")


@dataclass(frozen=True)
class UnlearnRequest:
    """Delete ``record_count`` records from one client slice. The count is
    checked when built by the rule a request script is read by: a plain
    integer of at least 1."""

    target: SliceRef
    record_count: int = _count(100, 1)

    __post_init__ = check_fields


@dataclass
class TimelineRecord:
    step: int
    method: str
    affected_unit: str
    surviving: int
    utility: float | None
    notes: str = ""


def write_timeline(path: str | Path, records: Iterable[TimelineRecord]) -> None:
    """RFC-4180 CSV with one row per timeline record. The status column is
    ``available`` while anything survives and ``failed`` once nothing does."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMELINE_HEADER)
        for r in records:
            writer.writerow([r.step, r.method, r.affected_unit,
                             "available" if r.surviving else "failed",
                             "" if r.utility is None else repr(r.utility),
                             r.surviving, r.notes])


def timeline_summary(records: list[TimelineRecord]) -> dict:
    """Failure step (first step with zero survivors) and mean utility over
    the steps that produced one."""
    failure = next((r.step for r in records if r.surviving == 0), None)
    utilities = [r.utility for r in records if r.utility is not None]
    return {
        "failure_step": failure,
        "mean_utility": float(np.mean(utilities)) if utilities else None,
        "steps": max((r.step for r in records), default=0),
    }


# ---------------------------------------------------------------------------
# Request streams
# ---------------------------------------------------------------------------


def request_stream(catalog: list[tuple[SliceRef, int]], seed: int,
                   record_count: int = 100) -> Iterator[UnlearnRequest]:
    """Infinite stream of uniform requests over the slice catalog. Record
    counts are capped at the slice size so every request is valid. The
    catalog and the seed are checked at the first draw."""
    if not catalog:
        raise ValueError("empty slice catalog")
    check_at_least(0, seed=seed)
    rng = keyed_stream((seed, STREAM_TAGS["requests"]))
    while True:
        ref, size = catalog[int(rng.integers(len(catalog)))]
        yield UnlearnRequest(target=ref, record_count=min(record_count, size))


def uniform_requests(catalog: list[tuple[SliceRef, int]], count: int, seed: int,
                     record_count: int = 100) -> list[UnlearnRequest]:
    check_at_least(0, count=count, seed=seed)
    stream = request_stream(catalog, seed, record_count)
    return [next(stream) for _ in range(count)]


def record_removal(removed: dict[SliceRef, int], sizes: Mapping[SliceRef, int],
                   req: UnlearnRequest) -> int:
    """Book a request's records against its slice in ``removed``, capped at
    the slice size, and return how many records it newly booked. An unknown
    slice raises KeyError and a request larger than its slice raises
    ValueError, both before ``removed`` changes."""
    target = req.target
    size = sizes.get(target)
    if size is None:
        raise KeyError(f"unknown slice {target}")
    if req.record_count > size:
        raise ValueError(
            f"request for {req.record_count} records exceeds slice size {size}")
    before = removed.get(target, 0)
    after = removed[target] = min(size, before + req.record_count)
    return after - before


# ---------------------------------------------------------------------------
# FedSGT serving system
# ---------------------------------------------------------------------------


@dataclass
class _Service:
    """A system's serving record, its one mutable part: the deletion state,
    the step count, the booking of deleted records and its running total,
    and the last evaluation. ``process_request`` is its only writer."""

    state: SequenceState
    steps: int = 0
    removed: dict[SliceRef, int] = field(default_factory=dict)
    removed_total: int = field(default=0, compare=False)
    # (active_len, utility) of the last evaluation.
    scored: tuple = field(default=((), None), repr=False, compare=False)
    # Each served sequence's (prefix length, test-set softmax); see
    # ``fltrain.predict_proba``.
    probs: Reuse = field(default_factory=dict, repr=False, compare=False)


def _check_inputs(plan: GroupingPlan, seqs: SequenceSet, model: ToyModel | None,
                  dataset: Dataset | None) -> None:
    """Raise ValueError, naming both values, for the first way the inputs
    contradict one run: the plan's group count against the family's; the
    model's sequences against the family (their count and group count, then
    each order); the dataset's classes and features against the model's;
    and each module's sample count, in (sequence, phase) order, against the
    plan's running total along the family's order."""
    if plan.group_count != seqs.group_count:
        raise ValueError(f"the plan has {plan.group_count} groups, the "
                         f"sequence family {seqs.group_count}")
    if model is None:
        return
    shape = (len(model.sequences.perms), model.sequences.group_count)
    if shape != (len(seqs.perms), seqs.group_count):
        raise ValueError(f"the model has {shape[0]} sequences of {shape[1]} "
                         f"groups, the family {len(seqs.perms)} of {seqs.group_count}")
    for sid, (mine, theirs) in enumerate(zip(model.sequences.perms, seqs.perms)):
        if mine != theirs:
            raise ValueError(f"sequence {sid}: the model was trained in order "
                             f"{mine}, the family gives {theirs}")
    k, d = model.backbone.shape
    if dataset is not None and (dataset.classes, dataset.dim) != (k, d):
        raise ValueError(f"the dataset has {dataset.classes} classes of {dataset.dim} "
                         f"features, the model {k} classes of {d} features")
    for sid, (perm, stack) in enumerate(zip(seqs.perms, model.modules)):
        totals = accumulate(map(plan.group_samples, perm))
        for phase, (module, total) in enumerate(zip(stack, totals)):
            if module.samples != total:
                raise ValueError(f"sequence {sid}, phase {phase}: the model's module "
                                 f"saw {module.samples} samples, the plan gives {total}")


@dataclass(frozen=True)
class FedSGTSystem:
    """A serving system: a frozen configuration around one serving record.
    ``model`` and ``dataset`` are optional: without them the system still
    tracks service structure (survivors, failure), it just cannot report
    utility.

    Building a system is the one consistency check of its inputs: an
    unknown strategy, a plan whose group count is not the family's, a model
    of another family, a dataset of other class or feature counts than the
    model, and a module whose sample count is not the plan's running total
    each raise ``ValueError``. None of the five can be reassigned
    afterwards, so what was checked is what is served.

    A new system is the fresh one: no group deleted, no step taken and no
    record booked. ``state``, ``steps`` and ``removed`` (the records
    deleted so far, by slice, as a read-only view) are read-only;
    ``process_request`` is their only writer. A shallow copy shares the
    whole serving record with its original, and ``dataclasses.replace``
    builds a fresh system."""

    plan: GroupingPlan
    seqs: SequenceSet
    strategy: str = "allseq"
    model: ToyModel | None = None
    dataset: Dataset | None = None
    _service: _Service = field(init=False)

    def __post_init__(self):
        strategy_name(self.strategy)
        # The state's prefixes come from ``seqs`` and the served modules
        # from ``model``: a contradiction would serve deleted groups' data.
        _check_inputs(self.plan, self.seqs, self.model, self.dataset)
        object.__setattr__(self, "_service", _Service(fresh_state(self.seqs)))

    @property
    def state(self) -> SequenceState:
        return self._service.state

    @property
    def steps(self) -> int:
        return self._service.steps

    @property
    def removed(self) -> Mapping[SliceRef, int]:
        return MappingProxyType(self._service.removed)

    @property
    def remaining_samples(self) -> int:
        return self.plan.total_samples - self._service.removed_total

    def utility(self) -> float | None:
        """Test accuracy of the served ensemble; None without a model, a
        dataset or a survivor.

        The served function reads the state only through ``active_len``, so
        the one kept value is keyed on it and returned again while every
        surviving prefix is unchanged. The key is first compared by
        identity: a repeat deletion keeps the very state object last
        scored, so it costs no tuple compare and no rescoring. Deletions only accumulate, so the
        last state is the only one that can come back and one slot
        suffices. Otherwise only the sequences whose surviving prefix
        changed are scored again: each served sequence's test-set softmax
        is kept, since the model and dataset cannot change.
        """
        service = self._service
        state = service.state
        if self.model is None or self.dataset is None or state.all_dead:
            return None
        prefixes, value = service.scored
        if prefixes is not state.active_len and prefixes != state.active_len:
            value = evaluate(self.model, state, self.strategy, self.dataset.test_x,
                             self.dataset.test_y, service.probs)
            service.scored = (state.active_len, value)
        return value


def fedsgt_system(plan: GroupingPlan, seqs: SequenceSet, strategy: str = "allseq",
                  model: ToyModel | None = None,
                  dataset: Dataset | None = None) -> FedSGTSystem:
    return FedSGTSystem(plan, seqs, strategy, model, dataset)


def process_request(system: FedSGTSystem, req: UnlearnRequest) -> TimelineRecord:
    """Apply one deletion request. Invalid targets are rejected (raised)
    before any state changes."""
    service = system._service
    service.removed_total += record_removal(service.removed, system.plan.sizes, req)
    gid = group_of(system.plan, req.target)
    service.state = apply_deletion(service.state, system.seqs, gid)
    service.steps += 1
    return TimelineRecord(
        step=service.steps, method=METHOD_FEDSGT, affected_unit=f"group:{gid}",
        surviving=service.state.surviving, utility=system.utility(),
        notes=f"slice=({req.target.client_id},{req.target.slice_idx}) "
              f"records={req.record_count} remaining={system.remaining_samples}")


def run_stream(system: FedSGTSystem,
               requests: Iterable[UnlearnRequest]) -> list[TimelineRecord]:
    """Baseline evaluation row (step 0) followed by one row per request."""
    records = [TimelineRecord(step=0, method=METHOD_FEDSGT, affected_unit="",
                              surviving=system.state.surviving,
                              utility=system.utility(), notes="baseline")]
    for req in requests:
        records.append(process_request(system, req))
    return records


# ---------------------------------------------------------------------------
# FedCIO baseline
# ---------------------------------------------------------------------------


def cluster_of(client: int, clusters: int) -> int:
    """Round-robin cluster assignment by client id."""
    return client % clusters


def train_clusters(dataset: Dataset, clusters: int, cfg: TrainConfig,
                   rounds: int, meter: CostMeter | None = None,
                   adapter_stack: int = 1) -> dict[int, np.ndarray]:
    """Per-cluster FedAvg models. ``adapter_stack`` books the cost of the
    jointly trained module stack the collapsed matrix stands in for."""
    check_at_least(1, clusters=clusters)
    refs = [ref for ref, _ in dataset.slice_catalog()]
    runs = []
    for cid in range(clusters):
        data = client_data(dataset, (ref for ref in refs
                                     if cluster_of(ref.client_id, clusters) == cid))
        if not data:
            raise TrainingError(f"cluster {cid} has no data")
        runs.append((data, (STREAM_TAGS["fedcio"], cid)))
    return dict(enumerate(fedavg_lockstep(runs, dataset.classes, dataset.dim,
                                          rounds, cfg, meter, adapter_stack)))


def fedcio_simulate(dataset: Dataset, clusters: int, cfg: TrainConfig,
                    requests: Iterable[UnlearnRequest],
                    rounds: int) -> list[TimelineRecord]:
    """Clustered baseline under the same request stream. It never retrains:
    a request kills the containing cluster and service fails once every
    cluster is hit.

    The ensemble is scored again only when a request kills a cluster that
    was still alive; every other request leaves the served function as it
    was.
    """
    models = train_clusters(dataset, clusters, cfg, rounds)
    alive = set(range(clusters))
    removed: dict[SliceRef, int] = {}
    sizes = dict(dataset.slice_catalog())

    def score() -> float | None:
        if not alive:
            return None
        return matrix_accuracy([models[c] for c in sorted(alive)],
                               dataset.test_x, dataset.test_y)

    utility = score()
    records = [TimelineRecord(step=0, method=METHOD_FEDCIO, affected_unit="",
                              surviving=len(alive), utility=utility,
                              notes="baseline")]
    for step, req in enumerate(requests, start=1):
        record_removal(removed, sizes, req)
        cid = cluster_of(req.target.client_id, clusters)
        if cid in alive:
            alive.remove(cid)
            utility = score()
        records.append(TimelineRecord(
            step=step, method=METHOD_FEDCIO, affected_unit=f"cluster:{cid}",
            surviving=len(alive), utility=utility, notes="cluster marked dead"))
    return records


# ---------------------------------------------------------------------------
# FedRetrain baseline
# ---------------------------------------------------------------------------


# The refits of one FedRetrain stream train in stacks of consecutive refits
# whose arrays stay at or below this many bytes, so a stack does not grow
# with the stream. A refit is counted as 2d + k floats a row (its data, the
# stacked copy, the one-hot labels) and 4kd floats a member (a client's
# module, frozen weights and step temporaries); the batch orders and the
# round's small arrays are left out, and a stack's traced peak stayed below
# 1.06 times the count. A stack holds as many refits as this bound has room
# for baseline refits (every row, every client), which no later refit
# exceeds. About 40 us of a stacked step does not depend on its member
# count (41 us with one 32-row batch, 80 us with ten), and a stack pays
# that, and builds its arrays, once for all its refits. Measured in process
# at the acceptance point (2,000 rows, d = 20, k = 5, 10 rounds; 2-CPU
# x86-64 VM), median ms per call, with stacks then cut by summed bytes:
#   7 refits (stride 5, about 4 MB together), g refits per stack:
#     1 -> 142, 2 -> 104, 3 -> 98, 4 -> 82, 7 -> 74;
#   31 refits (stride 1, about 19 MB together), by this bound in MiB:
#     1 -> 518, 2 -> 374, 4 -> 340, 8 -> 313, 16 -> 313, 32 (one stack)
#     -> 290.
# At this bound the acceptance point's baseline refit (0.75 MB) gives 11
# refits a stack: the stride-5 stream's 7 form one stack.
_REFIT_STACK_BYTES = 8 << 20


def fedretrain_simulate(dataset: Dataset, cfg: TrainConfig,
                        requests: Iterable[UnlearnRequest], eval_every: int,
                        rounds: int) -> list[TimelineRecord]:
    """Full retraining baseline: every request charges a complete retraining
    (``rounds`` rounds of downtime); the model is re-fit and evaluated every
    ``eval_every``-th request. Zero requests reduce to plain FedAvg.

    One model serves while any record remains. From the first request that
    leaves none, each row has ``surviving`` 0 and no utility, and nothing is
    retrained or charged.

    The whole stream is booked first, so an invalid request raises before
    any training, and fixes which steps refit. The refits train through
    ``fedavg_lockstep`` in stacks of consecutive refits, as many as
    ``_REFIT_STACK_BYTES`` holds of the baseline refit's stacked arrays
    (every row, every client), which no later refit exceeds; a second
    booking pass gives each stack its data as it is trained, so memory
    stays flat in the stream length. A FedAvg round is a weighted average
    of independent local runs, so each model has the bytes it has trained
    alone.
    """
    check_at_least(1, eval_every=eval_every)
    requests = list(requests)
    sizes = dict(dataset.slice_catalog())
    total = sum(sizes.values())
    removed: dict[SliceRef, int] = {}
    booked = 0
    refits = [0]  # the timeline steps that refit, in order
    records = [TimelineRecord(step=0, method=METHOD_FEDRETRAIN, affected_unit="",
                              surviving=1, utility=None, notes="baseline")]
    downtime = 0
    for step, req in enumerate(requests, start=1):
        booked += record_removal(removed, sizes, req)
        surviving = int(booked < total)
        if not surviving:
            notes = "no records left to retrain on"
        else:
            downtime += rounds
            if step % eval_every == 0:
                refits.append(step)
                notes = f"retrained (cumulative downtime {downtime} rounds)"
            else:
                notes = f"retraining charged (cumulative downtime {downtime} rounds)"
        records.append(TimelineRecord(
            step=step, method=METHOD_FEDRETRAIN,
            affected_unit=f"slice:({req.target.client_id},{req.target.slice_idx})",
            surviving=surviving, utility=None, notes=notes))

    # The baseline refit's bytes; an empty dataset counts 1 and fails in
    # training, as any refit of nothing does.
    clients = len({ref.client_id for ref in sizes})
    largest = 8 * (total * (2 * dataset.dim + dataset.classes)
                   + clients * 4 * dataset.classes * dataset.dim)
    size = max(1, _REFIT_STACK_BYTES // max(1, largest))
    removed.clear()
    replay, booked_to = iter(requests), 0
    for first in range(0, len(refits), size):
        stack = refits[first:first + size]
        runs = []
        for step in stack:
            for req in islice(replay, step - booked_to):
                record_removal(removed, sizes, req)
            booked_to = step
            runs.append((client_data(dataset, sizes, removed),
                         (STREAM_TAGS["fedretrain"],)))
        models = fedavg_lockstep(runs, dataset.classes, dataset.dim, rounds, cfg)
        for step, w in zip(stack, models):
            records[step].utility = matrix_accuracy([w], dataset.test_x,
                                                    dataset.test_y)
    return records


# ---------------------------------------------------------------------------
# Exactness audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    passed: bool
    sequences_checked: int
    modules_checked: int
    modules_served: int  # every module of the bank, served before any deletion
    first_mismatch: tuple[int, int] | None = None


def exactness_audit(model: ToyModel, plan: GroupingPlan, cfg: TrainConfig,
                    dataset: Dataset, deleted: Iterable[int]) -> AuditReport:
    """Certify that the served model is exactly what retraining without the
    deleted groups would produce.

    Every surviving sequence's active prefix is retrained from scratch with
    the same seeds, all of them in one ``train_prefixes`` call (round r of
    every prefix still training in a phase steps in one row-bounded stack),
    and then compared byte-for-byte (weights, group ids, sample counts)
    against the bank in (sequence, phase) order. Any influence of a deleted
    group on a served module would surface as a mismatch. The report counts
    the sequences and modules up to and including the first mismatch. A
    retraining error in any surviving prefix raises ``TrainingError``, even
    where an earlier module would have mismatched.
    """
    seqs = model.sequences
    state = state_from_deleted(seqs, deleted)
    modules_served = sum(len(stack) for stack in model.modules)
    jobs = {sid: (seqs.perms[sid], active)
            for sid, active in enumerate(state.active_len) if active}
    fresh = train_prefixes(dataset, plan, jobs, cfg)
    sequences_checked = 0
    modules_checked = 0
    for sid, (_, active) in jobs.items():
        sequences_checked += 1
        for p in range(active):
            modules_checked += 1
            served = model.modules[sid][p]
            redone = fresh[sid][p]
            same = (served.group == redone.group
                    and served.samples == redone.samples
                    and served.weights.tobytes() == redone.weights.tobytes())
            if not same:
                return AuditReport(passed=False,
                                   sequences_checked=sequences_checked,
                                   modules_checked=modules_checked,
                                   modules_served=modules_served,
                                   first_mismatch=(sid, p))
    return AuditReport(passed=True, sequences_checked=sequences_checked,
                       modules_checked=modules_checked,
                       modules_served=modules_served)


# ---------------------------------------------------------------------------
# Structure-only failure race
# ---------------------------------------------------------------------------


def race_failure_steps(plan: GroupingPlan, seqs: SequenceSet, clusters: int,
                       seed: int, cap: int = 1_000_000) -> tuple[int, int]:
    """Failure steps of FedSGT and FedCIO (no-retrain) under one shared
    uniform request stream. No models involved: failure is structural, so
    FedSGT is a structure-only system and FedCIO the clusters not yet hit."""
    check_at_least(1, clusters=clusters, cap=cap)
    catalog = sorted(plan.sizes.items())
    system = fedsgt_system(plan, seqs)
    alive = {cluster_of(c, clusters) for c in plan.clients()}
    sgt_step = cio_step = None
    stream = request_stream(catalog, seed)
    for step in range(1, cap + 1):
        req = next(stream)
        if sgt_step is None and process_request(system, req).surviving == 0:
            sgt_step = step
        alive.discard(cluster_of(req.target.client_id, clusters))
        if cio_step is None and not alive:
            cio_step = step
        if sgt_step is not None and cio_step is not None:
            return sgt_step, cio_step
    raise RuntimeError(f"race did not finish within {cap} requests")
