"""Deterministic toy federated trainer.

The model is linear: a frozen zero backbone (k x d) plus one additive adapter
module (k x d) per sequence position. Phase p of a sequence zero-initializes
a fresh module and fits it by federated mini-batch gradient descent on the
cumulative data of the first p+1 groups, with every earlier module frozen.
Additivity means the composite starts phase p+1 computing exactly the same
function it ended phase p with.

Determinism is the point, not a nicety: the exactness audit recomputes
modules from scratch and compares bytes. Every stochastic choice (batch
order) is drawn from a per-client PCG64 stream keyed by (seed, sequence,
phase, round), independent of anything later in the run; client updates are
aggregated in ascending client id with a fixed summation order. Training the
prefix of a sequence therefore reproduces the full run's leading modules bit
for bit on the same platform (cross-platform equality is not promised).

A round steps all its participants together: at each batch offset the
clients that share a batch length take one stacked step, whose per-client
matmuls and reductions are the ones a client-by-client loop would make.
Independent runs may step in one stack the same way: each run keeps its
own batch-order streams, frozen weights and average, and gets the bytes it
has alone. One runner, ``_run_rounds``, holds the rounds loop for every
trainer here: the prefixes of ``train_prefixes`` (FedSGT training and the
exactness audit's retraining) and the FedAvg runs of the baselines (FedAvg,
the FedCIO clusters, the FedRetrain refits). It builds a stack once per
call (``_build_stack``: the member ranking, the stacked rows and one-hot
labels, the batch plan, the averaging positions) and steps it once per
round (``_step_stack``: the batch orders drawn from the round keys, the
epochs, the averages). A lone run's rounds are ``federated_round`` calls,
each a one-run stack built and stepped once. Training runs on one thread.
The step is where training spends its time: at the acceptance point
``train_fedsgt`` makes 2,226 stacked steps of 5.2 members on average in 100
``_step_stack`` calls, which take about 80 % of its time (2-CPU x86-64 VM).
Each step is about fifteen numpy calls on small arrays, so the cost is call
overhead, not arithmetic; ``_step_stack`` says what that shaped.

Every stacked trainer cuts its runs, in order, by one rule: a stack holds
``max(1, bound // largest)`` consecutive runs, where ``largest`` is the
biggest run the cut can meet, so no stack of several runs exceeds its
bound. ``train_prefixes`` counts rows: its bound is the plan's total
samples, the rows of one full-length round and so the largest kernel call
single-sequence training makes, and ``largest`` is the most rows among the
prefixes still training in the phase. The bound comes from a measurement:
with unbounded stacks the audit was no faster than with the bound, and the
FedSGT training and baseline stages that ran after it in the same process
slowed by 14-16 % (acceptance point, 2-CPU x86-64 VM), so large transient
stacks cost the code that runs after them. ``train_fedsgt`` trains one
sequence at a time. The FedRetrain refits count stacked bytes, under a
bound of their own (``unlearn._REFIT_STACK_BYTES``), chosen by its own
measurements.

Phase p of a sequence trains on phase p-1's data plus one group, so
``train_prefixes`` lays its rows out once per call: one ``client_data``
table per distinct cyclic order among its jobs, and every phase's clients
are row ranges (views) of their table. A lone sequence's table is exactly
the prefix it trains, so ``train_fedsgt``'s peak does not move; the
rotations of a family share one table continued cyclically as far as any
member's window reaches, fewer than twice the plan's rows, which is all
the audit adds to its peak. Copying each phase's data afresh took O(L^2)
slice copies per sequence and most of training's page faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping

import numpy as np

from .core import (ModuleTrainerSpec, ServiceUnavailable, TrainingError,
                   _count, check_at_least, check_fields, keyed_stream)
from .dataset import Dataset
from .grouping import GroupingPlan, SliceRef
from .sequencing import (SequenceSet, SequenceState, select_allseq,
                         select_longseq, select_minseq)


@dataclass(frozen=True)
class TrainConfig(ModuleTrainerSpec):
    """``ModuleTrainerSpec`` (its keys, defaults and minimums; epochs may be
    zero: modules stay zero) plus the run seed, checked when built by the
    rules a config file is read by: every count and the seed a plain
    integer at its minimum, lr a finite positive number."""

    seed: int = _count(0, 0)

    __post_init__ = check_fields


@dataclass
class AdapterModule:
    """One trained position: the group it appended, the cumulative sample
    count it saw, and its weight matrix."""

    group: int
    samples: int
    weights: np.ndarray  # (classes, dim) float64


@dataclass
class ToyModel:
    """Frozen zero backbone plus per-sequence module stacks; carries its
    sequence family so serving needs no extra context."""

    backbone: np.ndarray
    sequences: SequenceSet
    modules: list[list[AdapterModule]]  # [sequence][phase]


@dataclass
class CostMeter:
    """Counts parameter updates: params * samples * epochs per module
    trained.

    The FedAvg / FedCIO baselines are represented by one collapsed matrix
    (jointly trained additive modules are function-equivalent to their sum),
    but they stand in for a full stack of ``group_count`` adapters, so their
    rounds are booked with ``modules=group_count``.
    """

    updates: int = 0

    def charge(self, samples: int, params: int, modules: int = 1,
               epochs: int = 1) -> None:
        check_at_least(0, samples=samples, params=params, modules=modules,
                       epochs=epochs)
        self.updates += samples * params * modules * epochs


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last (class) axis, byte-identical to the textbook
    ``e = exp(z - z.max(-1, keepdims=True)); e / e.sum(-1, keepdims=True)``
    on C-ordered logits, for every class count and whatever ``z``'s memory
    layout. Training, the audit's retraining, the baselines and serving all
    call it, so its bytes are part of the bank bytes. The input is left
    unchanged; the result is a new C-contiguous array of ``z``'s shape.

    Every step runs on one class-leading contiguous copy, where a reduction
    over the k classes is an elementwise operation across k contiguous rows.
    numpy's reductions along a short inner axis cost far more per row: the
    whole softmax takes 0.12 ms against 0.25 ms on 5,000 x 5 (numpy 2.4,
    2-CPU x86-64 VM). The max does not depend on order. A max of +0 against
    -0 shifts by zero either way and exp(+-0) == 1; a row holding a NaN with
    its sign bit set may come out with either NaN sign bit, in the same
    places. The copy is made by ``transpose(...).copy()`` rather than
    ``np.moveaxis``, whose argument handling costs a few microseconds per
    call: most calls come from training, on batches of a few hundred rows.

    The sum is numpy's own sum over a contiguous class axis, which adds
    left to right below 8 values and in another order from 8. So below 8
    classes the rows are added left to right; from 8 the exponentials are
    copied back to class-last C order and numpy sums them, which keeps the
    textbook's bytes on any numpy without restating its order. That copy
    costs time: on 5,000 x 10 a call takes 0.83 ms, against 0.69 ms for a
    hand-written replay of numpy's lanes (median of 41 paired reps, same
    VM). No workload, demo or CLI default goes above k = 5. The textbook's
    bytes themselves depend on layout from k = 8: numpy sums the class axis
    of an F-ordered array left to right.
    """
    lead = (z.ndim - 1, *range(z.ndim - 1))
    e = z.transpose(lead).copy()
    e -= e.max(axis=0)
    np.exp(e, out=e)
    if len(e) < 8:
        total = e.sum(axis=0)
    else:
        total = np.ascontiguousarray(np.moveaxis(e, 0, -1)).sum(-1)
    out = np.empty(z.shape, dtype=e.dtype)
    np.divide(e, total, out=out.transpose(lead))
    return out


def _batch_plan(sizes: list[int], batch_size: int) -> list[tuple[int, int, int, int]]:
    """The stacked steps of one epoch as (start, first, stop, length).

    ``sizes`` are the participants' sample counts, largest first. At batch
    offset ``start`` the clients still stepping form a prefix, and clients
    whose batch length ``min(batch_size, n - start)`` agrees sit next to each
    other, so each step is the slice ``first:stop`` of that prefix.
    """
    steps = []
    for start in range(0, sizes[0], batch_size):
        first = 0
        for length, run in groupby(min(batch_size, n - start)
                                   for n in sizes if n > start):
            stop = first + len(list(run))
            steps.append((start, first, stop, length))
            first = stop
    return steps


_Data = dict[int, tuple[np.ndarray, np.ndarray]]
_Run = tuple[np.ndarray, _Data, tuple[int, ...]]


@dataclass
class _Stack:
    """The round-invariant arrays of independent runs ``(frozen, data,
    key)`` that step together, built once by ``_build_stack``.

    Every participant of every run is one member, ranked largest first with
    ties in (run, client id) order, so the members still stepping at any
    batch offset are a prefix, grouped by batch length.
    """

    xs: np.ndarray  # every member's rows, member after member
    onehot: np.ndarray  # the one-hot labels of ``xs``
    owner: list[int]  # the run of each member
    offsets: np.ndarray  # the first row of each member in ``xs``
    draws: list[tuple[int, int, int, int]]  # (size, run, first, stop)
    steps: list[tuple[int, int, int, int, np.ndarray]]  # _batch_plan + frozen
    order: np.ndarray  # (epochs, members, largest size), refilled each round
    # Per run: the positions of its members, its averaging weights, samples.
    averages: list[tuple[np.ndarray, np.ndarray, int]]


def _build_stack(runs: list[_Run], cfg: TrainConfig) -> _Stack:
    """Rank the participants of ``runs`` and lay out what every round of
    the stack reuses; ``runs`` must not be empty."""
    owners: list[int] = []
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for r, (_, data, _) in enumerate(runs):
        if not data:
            raise TrainingError("federated_round: no participants")
        owners += [r] * len(data)
        parts += [data[c] for c in sorted(data)]
    counts = np.array([len(y) for _, y in parts], dtype=np.float64)
    if np.any(counts == 0):
        raise TrainingError("federated_round: participant with empty data")
    # Largest first; the stable sort keeps ties in (run, client id) order.
    rank = np.argsort(-counts, kind="stable")
    sizes = [int(counts[i]) for i in rank]
    owner = [owners[i] for i in rank]
    xs = np.concatenate([parts[i][0] for i in rank])
    ys = np.concatenate([parts[i][1] for i in rank])
    # Contiguous per-member copies: adding two contiguous stacks costs about
    # half of broadcasting one matrix over the stack.
    frozen = np.array([f for f, _, _ in runs])[owner]
    onehot = np.zeros((len(ys), frozen.shape[1]))
    onehot[np.arange(len(ys)), ys] = 1.0
    # A member's batch order depends only on its round key and size, so it
    # is drawn once per (size, run) group of consecutive members.
    draws = []
    first = 0
    for (n, r), group in groupby(zip(sizes, owner)):
        stop = first + len(list(group))
        draws.append((n, r, first, stop))
        first = stop
    steps = [(start, first, stop, length, frozen[first:stop])
             for start, first, stop, length in _batch_plan(sizes, cfg.batch_size)]
    # Each run averages its own members in ascending client id.
    position = np.argsort(rank)
    averages = []
    first = 0
    for _, data, _ in runs:
        stop = first + len(data)
        mine = counts[first:stop]
        averages.append((position[first:stop], mine / mine.sum(), int(mine.sum())))
        first = stop
    return _Stack(xs=xs, onehot=onehot, owner=owner,
                  offsets=np.cumsum([0] + sizes), draws=draws, steps=steps,
                  order=np.zeros((cfg.epochs, len(sizes), sizes[0]), dtype=np.intp),
                  averages=averages)


def _step_stack(stack: _Stack, actives: list[np.ndarray],
                keys: list[tuple[int, ...]], cfg: TrainConfig,
                meter: CostMeter | None,
                cost_modules: int) -> list[np.ndarray]:
    """One round of every run of ``stack``, run r from ``actives[r]`` keyed
    ``keys[r]``: each run's averaged update, with the bytes
    ``federated_round`` gives it alone. Each member steps against its own
    run's frozen weights; per-member matmuls and softmax rows do not depend
    on the rest of the stack.

    A step is about fifteen numpy calls on small arrays, so call overhead,
    not arithmetic, sets its cost. Hence the gathers are ``take`` (2.8
    against 5.8 us for ``xs[idx]`` at 10 x 32 x 20, 1.2 against 4.7 us for
    the one-hot rows; numpy 2.4, 2-CPU x86-64 VM), and the residual and the
    update are formed in place, in the order of ``a -= lr * ((probs -
    onehot)^T @ xb / length)``, so the bytes are that expression's. Each
    round key's stream is seeded once per call (about 12 us) and rewound to
    its seeded state (about 1 us) before each further size draws, so every
    size draws what a fresh stream would.
    """
    modules = np.array(actives)[stack.owner]
    # order[e, i, :n_i] holds the rows of xs that member i visits in epoch
    # e. Runs that share a round key (FedRetrain's refits) share the draws
    # of a size.
    order, drawn, streams = stack.order, {}, {}
    for n, r, first, stop in stack.draws:
        perms = drawn.get((n, keys[r]))
        if perms is None:
            if keys[r] in streams:
                rng, seeded = streams[keys[r]]
                rng.bit_generator.state = seeded
            else:
                rng = keyed_stream((cfg.seed, *keys[r]))
                streams[keys[r]] = rng, rng.bit_generator.state
            perms = drawn[n, keys[r]] = np.array(
                [rng.permutation(n) for _ in range(cfg.epochs)],
                dtype=np.intp).reshape(cfg.epochs, 1, n)
        order[:, first:stop, :n] = perms + stack.offsets[first:stop, None]

    xs, onehot = stack.xs, stack.onehot
    for epoch in range(cfg.epochs):
        for start, first, stop, length, fz in stack.steps:
            idx = order[epoch, first:stop, start:start + length]
            xb = xs.take(idx, axis=0)
            a = modules[first:stop]
            probs = _softmax(xb @ (fz + a).transpose(0, 2, 1))
            if not np.isfinite(probs).all():
                raise TrainingError(
                    f"non-finite loss (lr={cfg.lr}, batch={length} samples)")
            probs -= onehot.take(idx, axis=0)
            grad = probs.transpose(0, 2, 1) @ xb
            grad /= length
            grad *= cfg.lr
            a -= grad

    results = []
    for members, weights, samples in stack.averages:
        if meter is not None:
            meter.charge(samples=samples, params=modules[0].size,
                         modules=cost_modules, epochs=cfg.epochs)
        results.append(np.sum(weights[:, None, None] * modules[members], axis=0))
    return results


def federated_round(active: np.ndarray, frozen: np.ndarray,
                    data: _Data, cfg: TrainConfig, round_key: tuple[int, ...],
                    meter: CostMeter | None = None,
                    cost_modules: int = 1) -> np.ndarray:
    """One synchronous round: every participant copies the active module,
    runs E epochs of mini-batch gradient descent on the cross-entropy of
    (frozen + module) @ x, and the server returns the sample-count-weighted
    average, accumulated in ascending client id order.

    Participant c's epoch-e batch order is the e-th ``permutation(n_c)`` of a
    fresh stream keyed by (seed, *round_key); participants with identical
    data therefore produce identical updates. All participants step
    together: each step is one stacked matmul over the clients that share a
    batch length, and gives the same bytes as stepping them one by one. This
    is the lockstep kernel's one-run stack, built and stepped once.
    """
    stack = _build_stack([(frozen, data, round_key)], cfg)
    return _step_stack(stack, [active], [round_key], cfg, meter,
                       cost_modules)[0]


def client_data(dataset: Dataset, refs: Iterable[SliceRef],
                removed: Mapping[SliceRef, int] | None = None
                ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per-client concatenation of the given slices in the order given, each
    without its first ``removed[ref]`` records. Clients left holding no
    records are absent. The order is part of the determinism contract."""
    parts: dict[int, tuple[list[np.ndarray], list[np.ndarray]]] = {}
    for ref in refs:
        x, y = dataset.slice_data(ref)
        drop = removed.get(ref, 0) if removed else 0
        if drop < len(y):
            xs, ys = parts.setdefault(ref.client_id, ([], []))
            xs.append(x[drop:])
            ys.append(y[drop:])
    return {client: (np.concatenate(xs), np.concatenate(ys))
            for client, (xs, ys) in parts.items()}


def _run_rounds(runs: list[_Run], rounds: int, cfg: TrainConfig,
                meter: CostMeter | None = None,
                cost_modules: int = 1) -> list[np.ndarray]:
    """Run ``rounds`` FedAvg rounds of independent runs ``(frozen, data,
    key)``, each from a zero module, and return each run's module. Round t
    of a run is keyed ``(*key, t)``. Several runs form one stack, built once
    per call by ``_build_stack``, and round t of every run is one
    ``_step_stack`` call on it. A lone run's rounds are ``federated_round``
    calls, because the benchmark harness gates on counting them (100 inside
    ``train_fedsgt`` at the acceptance point; ROADMAP items 4 and 5). This
    is the only place that makes that choice."""
    if not runs:
        return []
    active = [np.zeros(frozen.shape) for frozen, _, _ in runs]
    if len(runs) == 1:
        (frozen, data, key), = runs
        for t in range(rounds):
            active = [federated_round(active[0], frozen, data, cfg, (*key, t),
                                      meter, cost_modules)]
        return active
    stack = _build_stack(runs, cfg)
    for t in range(rounds):
        active = _step_stack(stack, active, [(*key, t) for _, _, key in runs],
                             cfg, meter, cost_modules)
    return active


def _row_tables(dataset: Dataset, plan: GroupingPlan,
                jobs: Mapping[int, tuple[tuple[int, ...], int]]
                ) -> dict[int, tuple[_Data, list[list[int]], int]]:
    """One row table per cyclic order among the jobs that train, and each
    such job's place in it: ``(table, starts, offset)``.

    Jobs whose perms are rotations of one another share a table: the
    ``client_data`` of the first such perm's groups, continued cyclically
    as far as any member's last window reaches. A member at ``offset``
    reads perm position p as table position ``offset + p``, so its phase-p
    data is client c's rows ``starts[offset][c]:starts[offset + p + 1][c]``
    of the table, where ``starts[k][c]`` counts c's rows in the table's
    first k positions. A table holds fewer than twice the plan's rows."""
    families: dict[tuple[int, ...], tuple[tuple[int, ...], int, list]] = {}
    for sid, (perm, upto) in jobs.items():
        if upto:
            lead = perm.index(min(perm))
            base, base_lead, members = families.setdefault(
                perm[lead:] + perm[:lead], (perm, lead, []))
            members.append((sid, (base_lead - lead) % len(perm)))
    windows = {}
    for base, _, members in families.values():
        order = [base[k % len(base)]
                 for k in range(max(offset + jobs[sid][1] for sid, offset in members))]
        table = client_data(dataset, (ref for g in order for ref in plan.groups[g]))
        held = np.zeros((len(order) + 1, dataset.client_count), dtype=np.intp)
        for k, g in enumerate(order, start=1):
            for ref in plan.groups[g]:
                held[k, ref.client_id] += len(dataset.slice_data(ref)[1])
        starts = held.cumsum(axis=0).tolist()
        for sid, offset in members:
            windows[sid] = table, starts, offset
    return windows


def train_prefixes(dataset: Dataset, plan: GroupingPlan,
                   jobs: Mapping[int, tuple[tuple[int, ...], int]],
                   cfg: TrainConfig, meter: CostMeter | None = None
                   ) -> dict[int, list[AdapterModule]]:
    """Train the leading modules of several sequences on the zero backbone:
    ``jobs`` maps a sequence id to ``(perm, upto)``, and the result maps it
    to its modules of phases 0..upto-1.

    The sequences are independent, so in each phase the sequences still
    training are cut, in ``jobs`` order, into stacks of
    ``max(1, plan.total_samples // largest)`` sequences, where ``largest``
    is the most rows any of them holds in the phase, so a stack holds no
    more rows than one full-length round. Each stack's rounds run through
    ``_run_rounds``: round r of every member steps in one stack, and a
    stack of one trains round by round through ``federated_round``. Each
    stack runs all its rounds before the next stack is built.

    A member's data is a set of views, not a copy. Phase p's data is phase
    p-1's plus one group, so the rows are laid out once per call, in one
    ``client_data`` table per cyclic order among the jobs
    (``_row_tables``), and each phase's client c holds the rows
    ``x_c[lo:hi], y_c[lo:hi]`` of its table, the bytes ``client_data`` of
    the prefix would give; a client with no rows in the window is left
    out. A lone job's table is exactly its ``upto`` prefix, and the
    rotations of a family share one table of fewer than twice the plan's
    rows, so training lays out O(L) slices per sequence where a fresh
    ``client_data`` per phase took O(L^2), and the tables add at most
    twice the plan's rows per distinct cyclic order to the peak.

    Truncation is exact: the modules returned for a prefix are bit-identical
    to the leading modules of a full run, because phase p of sequence s
    consumes only (seed, s, p, round) streams and prefix data, whatever
    else steps beside it.
    """
    for perm, upto in jobs.values():
        if not 0 <= upto <= len(perm):
            raise ValueError(f"upto_phase must be in [0, {len(perm)}], got {upto}")
    windows = _row_tables(dataset, plan, jobs)
    modules: dict[int, list[AdapterModule]] = {sid: [] for sid in jobs}
    frozen = {sid: np.zeros((dataset.classes, dataset.dim)) for sid in jobs}
    for phase in range(max((upto for _, upto in jobs.values()), default=0)):
        training = [sid for sid, (_, upto) in jobs.items() if phase < upto]
        data: dict[int, _Data] = {}
        rows: dict[int, int] = {}
        for sid in training:
            table, starts, offset = windows[sid]
            lo, hi = starts[offset], starts[offset + phase + 1]
            data[sid] = {c: (x[lo[c]:hi[c]], y[lo[c]:hi[c]])
                         for c, (x, y) in table.items() if hi[c] > lo[c]}
            rows[sid] = sum(hi) - sum(lo)
            if not rows[sid]:
                raise TrainingError(f"phase {phase}: cumulative groups hold no data")
        size = max(1, plan.total_samples // max(rows[sid] for sid in training))
        for first in range(0, len(training), size):
            stack = training[first:first + size]
            runs = [(frozen[sid], data[sid], (sid, phase)) for sid in stack]
            trained = _run_rounds(runs, cfg.rounds_per_phase, cfg, meter)
            for sid, weights in zip(stack, trained):
                modules[sid].append(AdapterModule(
                    group=jobs[sid][0][phase], samples=rows[sid], weights=weights))
                frozen[sid] = frozen[sid] + weights
    return modules


def train_sequence(dataset: Dataset, plan: GroupingPlan, perm: tuple[int, ...],
                   cfg: TrainConfig, sequence_index: int = 0,
                   upto_phase: int | None = None,
                   meter: CostMeter | None = None) -> list[AdapterModule]:
    """Train the module stack of one sequence, phases 0..upto_phase-1, on
    the zero backbone: the one-sequence call of ``train_prefixes``, so each
    round is a ``federated_round``."""
    upto = len(perm) if upto_phase is None else upto_phase
    return train_prefixes(dataset, plan, {sequence_index: (perm, upto)}, cfg,
                          meter)[sequence_index]


def train_fedsgt(dataset: Dataset, plan: GroupingPlan, seqs: SequenceSet,
                 cfg: TrainConfig, meter: CostMeter | None = None) -> ToyModel:
    """Train every sequence in the family, in sequence-index order."""
    stacks = [train_sequence(dataset, plan, perm, cfg, sequence_index=sid,
                             meter=meter)
              for sid, perm in enumerate(seqs.perms)]
    return ToyModel(backbone=np.zeros((dataset.classes, dataset.dim)),
                    sequences=seqs, modules=stacks)


# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


def sequence_logits(model: ToyModel, seq_id: int, active_len: int,
                    x: np.ndarray) -> np.ndarray:
    w = model.backbone.copy()
    for module in model.modules[seq_id][:active_len]:
        w = w + module.weights
    return x @ w.T


Reuse = dict[int, tuple[int, np.ndarray]]


def predict_proba(model: ToyModel, state: SequenceState, strategy: str,
                  x: np.ndarray, reuse: Reuse | None = None) -> np.ndarray:
    """Class probabilities under a serving strategy.

    longseq: softmax of the single chosen sequence's truncated logits.
    minseq: uniform average of probabilities over inclusion-maximal
    sequences. allseq: prefix-length-weighted average over all survivors.
    Raises ServiceUnavailable when no sequence survives.

    ``reuse`` maps a sequence id to (prefix length, unweighted softmax on
    this ``x``) from an earlier call with the same model and ``x``; keeping
    it valid across calls is the caller's job. A sequence whose prefix
    length is unchanged is not scored again, since its prefix computes the
    same function. A rescored sequence's entry is replaced at once, which
    frees the old array for the next sequence's softmax (keeping it to the
    end of the call took about 20 % more page faults and a slower p99), and
    on return the dict holds exactly the sequences this call served. An
    unknown strategy or an all-dead state leaves it unchanged. The stored
    arrays are never written: allseq weights a product, minseq averages a
    new array and longseq returns a copy, so the bytes are those of
    scoring every sequence afresh.
    """
    if state.all_dead:
        raise ServiceUnavailable("all sequences dead")
    seqs = model.sequences
    stored = {} if reuse is None else reuse
    served = set()

    def probs(sid: int) -> np.ndarray:
        n = state.active_len[sid]
        kept = stored.get(sid)
        if kept is None or kept[0] != n:
            kept = stored[sid] = (n, _softmax(sequence_logits(model, sid, n, x)))
        served.add(sid)
        return kept[1]

    name = strategy.lower()
    if name == "longseq":
        out = probs(select_longseq(state, seqs)).copy()
    elif name == "minseq":
        out = np.mean([probs(sid) for sid in sorted(select_minseq(state, seqs))],
                      axis=0)
    elif name == "allseq":
        out = None
        for sid, weight in select_allseq(state, seqs):
            p = probs(sid) * weight
            if out is None:
                out = p
            else:
                out += p
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    for sid in stored.keys() - served:
        del stored[sid]
    return out


def evaluate(model: ToyModel, state: SequenceState, strategy: str,
             x: np.ndarray, y: np.ndarray, reuse: Reuse | None = None) -> float:
    """Accuracy on (x, y); deterministic, ties to the lowest label.
    ``reuse`` is passed to ``predict_proba``."""
    probs = predict_proba(model, state, strategy, x, reuse)
    return float(np.mean(np.argmax(probs, axis=1) == y))


# ---------------------------------------------------------------------------
# FedAvg baseline trainer (also the per-cluster trainer for FedCIO and the
# full-retrain trainer for FedRetrain)
# ---------------------------------------------------------------------------


def fedavg_train(data: dict[int, tuple[np.ndarray, np.ndarray]], classes: int,
                 dim: int, rounds: int, cfg: TrainConfig,
                 namespace: tuple[int, ...] = (), meter: CostMeter | None = None,
                 cost_modules: int = 1) -> np.ndarray:
    """T rounds of plain FedAvg on one weight matrix over the given clients.

    ``namespace`` keys the RNG streams so concurrent baselines (for example
    per-cluster models) stay independent and reproducible.
    """
    return fedavg_lockstep([(data, namespace)], classes, dim, rounds, cfg,
                           meter, cost_modules)[0]


def fedavg_lockstep(runs: list[tuple[dict[int, tuple[np.ndarray, np.ndarray]],
                                     tuple[int, ...]]],
                    classes: int, dim: int, rounds: int, cfg: TrainConfig,
                    meter: CostMeter | None = None,
                    cost_modules: int = 1) -> list[np.ndarray]:
    """``fedavg_train`` for several independent ``(data, namespace)`` runs
    at once, through ``_run_rounds`` on the zero backbone: round t of every
    run steps in one stack, a lone run steps through ``federated_round``,
    and each model has the bytes ``fedavg_train`` gives it alone."""
    check_at_least(1, rounds=rounds)
    frozen = np.zeros((classes, dim))
    return _run_rounds([(frozen, data, namespace) for data, namespace in runs],
                       rounds, cfg, meter, cost_modules)


def matrix_accuracy(weights: list[np.ndarray], x: np.ndarray,
                    y: np.ndarray) -> float:
    """Accuracy of a probability ensemble of plain linear models."""
    if not weights:
        raise ServiceUnavailable("no models to serve")
    probs = np.mean([_softmax(x @ w.T) for w in weights], axis=0)
    return float(np.mean(np.argmax(probs, axis=1) == y))
