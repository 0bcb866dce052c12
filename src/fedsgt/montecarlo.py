"""Monte Carlo estimators that cross-check every closed form.

Each estimator simulates the mechanism directly (draw requests, watch
coverage) and never reuses the formula it is checking. Trials are split into
fixed-size chunks; chunk i draws from a PCG64 stream keyed by (seed, tag,
params, i) and chunk statistics are merged in index order, so estimates are
bit-reproducible for a given (seed, trials) no matter how many workers ran
the chunks. One runner, ``_estimates``, takes a list of (key, sampler) jobs
and sends every chunk of every job through one thread pool; each public
estimator is its one-job call, and ``validation_grid`` (what ``fedsgt
validate`` runs) passes all of its rows at once, so its bytes do not depend
on ``--workers`` either. Every sampler is vectorized over the trials of a
chunk; none loops over trials in Python. A job builder checks its sizes
once, with the ValueError its closed form raises, before any chunk runs.

The deletion-rate sampler, ``_coverage_times``, draws blocks of 64
requests per trial: a chunk's first block in one ``rng.integers`` call,
each later block ``_SLAB`` trials at a time, in trial order. Both read the
same stream as one call per block; the stream decides which draw of the
chunk each trial sees, so changing its order changes every estimate. How
a block is folded is free. Each head owns one bit of a word in the
narrowest unsigned type that holds min(H, 64) bits (uint8 or uint16 on the
validate grid, uint32 at L=32), with ceil(H/64) uint64 words past 64
heads. A block's words are laid out draw-major, (64, trials), so the
running OR down the draws is a few long vector calls.

The span, comm-cost and remaining-data samplers draw
``rng.integers(0, L, size=(trials, r))`` and fold each row to one integer
that depends only on the set of units the row drew: ``_spans`` and
``_comm_costs`` sort the rows and fold their cyclic gaps, and
``_distinct_units`` scatters them into bools. Up to ``_TABLE_UNITS`` = 12
units a set fits a 4,096-entry table, so ``_set_sampler`` ORs
``1 << draws[:, j]`` over the r columns into one int64 hit mask per trial
and takes the table entry at it, in under half the time of the sort
fold at L=10, r=20. The table is the fold itself, run once on a matrix
that holds every set, so each statistic has one definition and the folds
stay the path above the bound. Tables are cached per (fold, L) for the
life of the process and built by the job builders on the calling thread:
never at import, and never in a worker, which only reads them.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import analytics
from .core import (METHOD_FEDCIO, METHOD_FEDSGT, STREAM_TAGS, _count,
                   check_at_least, check_fields, keyed_stream)

CHUNK_TRIALS = 8192
_BLOCK = 64  # draws per vectorized coverage step
_SLAB = 1024  # trials per draw slab and per gather: its draws stay in cache
ZERO_VARIANCE_ULPS = 4  # rounding slack of a deterministic row (MCEstimate.zscore)


@dataclass(frozen=True)
class MCConfig:
    """Trial count and seed: plain integers at their minimums, checked by
    ``core.check_fields``."""

    trials: int = _count(200_000, 1)
    seed: int = _count(0, 0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    stderr: float
    trials: int

    def zscore(self, reference: float) -> float:
        """Standardized distance to a reference value. An estimate without
        a finite stderr (one trial) is uninformative and scores 0. A
        zero-variance estimate scores 0 when it is within
        ``ZERO_VARIANCE_ULPS`` ulps of the reference and inf otherwise: the
        Monte Carlo mean and the closed form round a deterministic value
        along different paths (833.3333333333335 against 833.3333333333333
        for the remaining data at L=6, r=1 and 1,000 samples)."""
        diff = self.mean - reference
        if not np.isfinite(self.stderr):
            return 0.0
        if self.stderr == 0:
            slack = ZERO_VARIANCE_ULPS * np.spacing(abs(float(reference)))
            return 0.0 if abs(diff) <= slack else float("inf")
        return diff / self.stderr


Sampler = Callable[[np.random.Generator, int], np.ndarray]
Job = tuple[tuple[int, ...], Sampler]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _estimates(jobs: Sequence[Job], cfg: MCConfig,
               workers: int) -> list[MCEstimate]:
    """One estimate per ``(key, sampler)`` job. Every chunk of every job goes
    through one pool; chunk i of a job draws from the stream keyed by
    (seed, *key, i), and each job's chunk stats are summed in index order.
    The pool has at most one thread per usable CPU: more only contend for
    the interpreter lock, and the estimates do not depend on the count."""
    sizes = [min(CHUNK_TRIALS, cfg.trials - start)
             for start in range(0, cfg.trials, CHUNK_TRIALS)]
    specs = [(key, sampler, index, n) for key, sampler in jobs
             for index, n in enumerate(sizes)]

    def run(spec: tuple[tuple[int, ...], Sampler, int, int]) -> tuple[float, float]:
        key, sampler, index, n = spec
        values = np.asarray(sampler(keyed_stream((cfg.seed, *key, index)), n),
                            dtype=np.float64)
        return float(values.sum()), float(np.square(values).sum())

    workers = min(workers, _usable_cpus())
    if workers > 1 and len(specs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(run, specs))
    else:
        stats = [run(spec) for spec in specs]

    n = cfg.trials
    estimates = []
    for start in range(0, len(stats), len(sizes)):
        chunks = stats[start:start + len(sizes)]
        mean = sum(s for s, _ in chunks) / n
        stderr = float("inf")
        if n > 1:
            total_sq = sum(q for _, q in chunks)
            var = max(0.0, (total_sq - n * mean * mean) / (n - 1))
            stderr = float(np.sqrt(var / n))
        estimates.append(MCEstimate(mean=mean, stderr=stderr, trials=n))
    return estimates


# ---------------------------------------------------------------------------
# Coverage samplers
# ---------------------------------------------------------------------------


def _head_words(universe: int, heads: list[int]) -> np.ndarray:
    """(ceil(H/64), universe) table in the narrowest unsigned word that holds
    min(H, 64) bits: head i sets bit i % 64 of word i // 64 at its own
    position, so any head count fits."""
    width = np.min_scalar_type((1 << min(len(heads), 64)) - 1)
    words = np.zeros(((len(heads) + 63) // 64, universe), dtype=width)
    for i, h in enumerate(heads):
        words[i // 64, h] |= width.type(1 << (i % 64))
    return words


def _or_scan(bits: np.ndarray) -> None:
    """Running OR down axis 0 of a (_BLOCK, n) array, in place: a running OR
    within each run of eight rows, all eight runs per call, then each run's
    last row into the next run. That is fourteen calls, where a call per row
    is 63 short ones that two Monte Carlo workers contend for the GIL
    between; ``np.bitwise_or.accumulate`` down axis 0 is over ten times
    slower than either."""
    runs = bits.reshape(8, _BLOCK // 8, -1)
    for i in range(1, runs.shape[1]):
        np.bitwise_or(runs[:, i - 1], runs[:, i], out=runs[:, i])
    for k in range(1, runs.shape[0]):
        np.bitwise_or(runs[k], runs[k - 1, -1], out=runs[k])


def _coverage_times(rng: np.random.Generator, n: int, universe: int,
                    heads: list[int]) -> np.ndarray:
    """Per trial: uniform draws over [0, universe) until every head has been
    seen; returns the number of draws needed.

    The draws are one stream: block after block, each block's draws for the
    trials still drawing in trial order. That stream fixes which draw each
    trial sees, so it is the estimate's bytes; how it is cut into
    ``rng.integers(0, universe, size=(rows, _BLOCK))`` calls is free,
    because consecutive slabs give the same values, and leave the
    generator in the same state, as one call over the block
    (``TestSlabStream`` pins this for numpy's PCG64). The first block holds
    every trial and is drawn in one call, one transient per chunk like the
    buffers below; on the validate grid's small universes nearly every
    trial is covered within it, and slabs would only add calls (about
    9 us of interpreter time each, which two workers contend for). Later
    blocks are drawn _SLAB trials at a time: a chunk at 32 heads and more
    draws several wide blocks, and a fresh 2-4 MB array for each would be
    handed back to the kernel and faulted in again.

    Each _SLAB trials' head words are gathered draw-major, ``word[draws.T]``,
    into the block's (words, _BLOCK, active) buffer of narrow words while
    the draws are still in cache; the block is then OR-scanned down the
    draws. Coverage only grows within a block, so a trial's first covered
    draw is _BLOCK less its number of covered rows. The buffers are reused
    from block to block."""
    words = _head_words(universe, heads)
    full = np.bitwise_or.reduce(words, axis=1)
    times = np.zeros(n, dtype=np.int64)
    seen = np.zeros((len(words), n), dtype=words.dtype)
    bits_buf = np.empty(len(words) * _BLOCK * n, dtype=words.dtype)
    covered_buf = np.empty(_BLOCK * n, dtype=bool)
    active = np.arange(n)
    base = 0
    while active.size:
        m = active.size
        bits = bits_buf[:len(words) * _BLOCK * m].reshape(-1, _BLOCK, m)
        covered = covered_buf[:_BLOCK * m].reshape(_BLOCK, m)
        slab = m if base == 0 else _SLAB
        for j in range(0, m, slab):
            draws = rng.integers(0, universe, size=(min(slab, m - j), _BLOCK))
            for k in range(0, len(draws), _SLAB):
                for w, word in enumerate(words):
                    np.copyto(bits[w, :, j + k:j + k + _SLAB],
                              word[draws[k:k + _SLAB].T])
            del draws  # the next slab's draws reuse its pages
        for w, word_bits in enumerate(bits):
            word_bits[0] |= seen[w]
            _or_scan(word_bits)
            seen[w] = word_bits[-1]
            if w == 0:
                np.equal(word_bits, full[w], out=covered)
            else:
                covered &= word_bits == full[w]
        rows = covered.view(np.uint8).sum(axis=0, dtype=np.uint8)
        done = rows > 0
        times[active[done]] = base + _BLOCK + 1 - rows[done].astype(np.int64)
        active = active[~done]
        seen = seen[:, ~done]
        base += _BLOCK
    return times.astype(np.float64)


def _rotation_heads(group_count: int, budget: int) -> list[int]:
    return [(-t) % group_count for t in range(min(group_count, budget))]


def _deletion_fedsgt_job(group_count: int, budget: int) -> Job:
    check_at_least(1, group_count=group_count, budget=budget)
    heads = _rotation_heads(group_count, budget)
    # The trailing 0 is part of the key every estimate's chunk streams were
    # seeded with; dropping it would change the bytes of every estimate.
    return ((STREAM_TAGS["mc_deletion_fedsgt"], group_count, budget, 0),
            lambda rng, n: _coverage_times(rng, n, group_count, heads))


def _deletion_fedcio_job(clusters: int) -> Job:
    check_at_least(1, clusters=clusters)
    heads = list(range(clusters))
    return ((STREAM_TAGS["mc_deletion_fedcio"], clusters),
            lambda rng, n: _coverage_times(rng, n, clusters, heads))


def mc_deletion_rate_fedsgt(group_count: int, budget: int, cfg: MCConfig,
                            workers: int = 1) -> MCEstimate:
    """Requests until every rotation-head group is hit, each request drawing
    a group uniformly: what ``unlearn.request_stream`` (uniform over slices,
    with replacement) induces when every group holds the same number of
    slices."""
    return _estimates([_deletion_fedsgt_job(group_count, budget)], cfg, workers)[0]


def mc_deletion_rate_fedcio(clusters: int, cfg: MCConfig,
                            workers: int = 1) -> MCEstimate:
    """Requests until every cluster is hit: full coupon collection."""
    return _estimates([_deletion_fedcio_job(clusters)], cfg, workers)[0]


# ---------------------------------------------------------------------------
# Span, remaining data, communication cost
# ---------------------------------------------------------------------------


# Each fold maps an (n, requests) draw matrix to one integer per row that
# depends only on the set of units the row drew.
Fold = Callable[[np.ndarray, int], np.ndarray]
_TABLE_UNITS = 12  # largest universe whose folds are looked up by hit mask


def _spans(draws: np.ndarray, group_count: int) -> np.ndarray:
    """Cyclic span L - maxgap + 1 of each row, for any L: sort the rows,
    then fold the largest cyclic gap between neighbours column by column
    (faster on short rows than a ``diff`` reduction)."""
    s = np.sort(draws, axis=1)
    gap = s[:, 0] + group_count - s[:, -1]
    for j in range(1, s.shape[1]):
        np.maximum(gap, s[:, j] - s[:, j - 1], out=gap)
    return group_count - gap + 1


def _comm_costs(draws: np.ndarray, group_count: int) -> np.ndarray:
    """Each row's rounds over all L rotations, L^2 - sum g(g-1)/2 over the
    cyclic gaps g between the sorted draws (see ``mc_comm_cost``)."""
    s = np.sort(draws, axis=1)
    wrap = s[:, 0] + group_count - s[:, -1]
    gaps = np.diff(s, axis=1)
    idle = wrap * (wrap - 1) // 2 + (gaps * (gaps - 1) // 2).sum(axis=1)
    return group_count * group_count - idle


def _distinct_units(draws: np.ndarray, units: int) -> np.ndarray:
    """How many distinct units each row drew, by a bool scatter."""
    hit = np.zeros((len(draws), units), dtype=bool)
    hit[np.arange(len(draws))[:, None], draws] = True
    return hit.sum(axis=1)


@functools.cache
def _fold_table(fold: Fold, universe: int) -> np.ndarray:
    """``fold``'s value for every set of units, indexed by the set's mask:
    the fold itself runs once on a (2^universe, universe) draw matrix whose
    row m holds unit u where bit u of m is set and m's lowest unit
    elsewhere. Entry 0 (no unit) is never read: every trial draws. The
    table is read-only, since every caller shares it."""
    masks = np.arange(1 << universe)
    units = np.arange(universe)
    hit = (masks[:, None] >> units) & 1 == 1
    table = fold(np.where(hit, units, hit.argmax(axis=1)[:, None]), universe)
    table.flags.writeable = False
    return table


def _hit_masks(draws: np.ndarray) -> np.ndarray:
    """Each row's set of units as an int64 mask, one OR per column."""
    mask = np.left_shift(1, draws[:, 0])
    for j in range(1, draws.shape[1]):
        mask |= np.left_shift(1, draws[:, j])
    return mask


def _set_sampler(fold: Fold, universe: int, requests: int) -> Sampler:
    """Per trial, ``fold`` of ``requests`` uniform draws over ``universe``
    units. Up to _TABLE_UNITS units that is the fold's table entry at the
    trial's hit mask; the table is built here, on the calling thread, so
    the chunks that run in worker threads only read it."""
    if universe > _TABLE_UNITS:
        return lambda rng, n: fold(
            rng.integers(0, universe, size=(n, requests)), universe)
    table = _fold_table(fold, universe)
    return lambda rng, n: table.take(
        _hit_masks(rng.integers(0, universe, size=(n, requests))))


def _span_job(group_count: int, requests: int) -> Job:
    check_at_least(1, group_count=group_count, requests=requests)
    return ((STREAM_TAGS["mc_span"], group_count, requests),
            _set_sampler(_spans, group_count, requests))


def mc_expected_span(group_count: int, requests: int, cfg: MCConfig,
                     workers: int = 1) -> MCEstimate:
    """Cyclic span of the set hit by uniform requests, for any L."""
    return _estimates([_span_job(group_count, requests)], cfg, workers)[0]


def _remaining_job(method: str, total_samples: int, units: int,
                   requests: int) -> Job:
    check_at_least(0, total_samples=total_samples)
    check_at_least(1, units=units, requests=requests)
    name = method.strip().lower()
    if name == METHOD_FEDSGT.lower():
        lost = _set_sampler(_spans, units, requests)
    elif name == METHOD_FEDCIO.lower():
        lost = _set_sampler(_distinct_units, units, requests)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ((STREAM_TAGS["mc_remaining"], 1 if name == "fedsgt" else 2, units,
             requests, total_samples),
            lambda rng, n: total_samples / units * (units - lost(rng, n)))


def mc_expected_remaining(method: str, total_samples: int, units: int,
                          requests: int, cfg: MCConfig,
                          workers: int = 1) -> MCEstimate:
    """Remaining serviceable data after ``requests`` uniform deletions.

    FedSGT: best surviving prefix covers L - span groups of |D|/L samples.
    FedCIO: untouched clusters keep their full |D|/c shares.
    """
    return _estimates([_remaining_job(method, total_samples, units, requests)],
                      cfg, workers)[0]


def _comm_cost_job(group_count: int, slices_per_client: int) -> Job:
    check_at_least(1, group_count=group_count, slices_per_client=slices_per_client)
    return ((STREAM_TAGS["mc_comm"], group_count, slices_per_client),
            _set_sampler(_comm_costs, group_count, slices_per_client))


def mc_comm_cost(group_count: int, slices_per_client: int, cfg: MCConfig,
                 workers: int = 1) -> MCEstimate:
    """Per-client rounds across all rotations: a client with slices assigned
    independently uniformly joins each rotation at its first owned group.

    In rotation t the client trains from its first owned group on, L - d
    rounds where d is the distance from the rotation's start to that group.
    Over the L starts, the starts just past an owned group p and up to the
    next owned group q = p + g see d = g - 1, ..., 0, so the trial's total
    is exactly L^2 - sum g(g-1)/2 over the cyclic gaps g of its sorted
    draws (a repeated draw leaves a gap of 0, which adds nothing). That is
    the per-trial rotation sum in integers, not ``expected_comm_cost``,
    which averages over the occupancy law instead of simulating draws."""
    return _estimates([_comm_cost_job(group_count, slices_per_client)], cfg,
                      workers)[0]


# ---------------------------------------------------------------------------
# Validation grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridRow:
    quantity: str
    params: str
    closed_form: float
    estimate: MCEstimate

    @property
    def zscore(self) -> float:
        return self.estimate.zscore(self.closed_form)


def validation_grid(cfg: MCConfig, workers: int = 1,
                    total_samples: int = 50_000) -> list[GridRow]:
    """The standard closed-form-versus-simulation sweep: deletion rates,
    spans, remaining data, and communication cost over a small grid. Every
    row's chunks run through one pool; each row's estimate is the one its
    public estimator returns alone."""
    specs: list[tuple[str, str, float, Job]] = []

    def add(quantity: str, params: str, closed: float, job: Job) -> None:
        specs.append((quantity, params, closed, job))

    group_counts = (4, 6, 10)
    request_counts = (1, 3, 5, 10, 20)
    cluster_counts = (2, 5)
    slice_counts = (1, 2, 5)

    for L in group_counts:
        for B in sorted({2, L}):
            add("deletion_rate_fedsgt", f"L={L};B={B}",
                analytics.deletion_rate_fedsgt(L, B),
                _deletion_fedsgt_job(L, B))
    for c in cluster_counts:
        add("deletion_rate_fedcio", f"c={c}",
            analytics.deletion_rate_fedcio(c), _deletion_fedcio_job(c))
    # The curves are prefix-stable: point r of a longer curve is the value
    # expected_span(L, r) and expected_remaining_fedsgt(D, L, r) return.
    top = max(request_counts)
    for L in group_counts:
        curve = analytics.expected_span_curve(L, top)
        for r in request_counts:
            add("expected_span", f"L={L};r={r}", curve[r], _span_job(L, r))
    for L in group_counts:
        curve = analytics.expected_remaining_curve(total_samples, L, top)
        for r in request_counts:
            add("expected_remaining_fedsgt", f"D={total_samples};L={L};r={r}",
                curve[r], _remaining_job("FedSGT", total_samples, L, r))
    for c in cluster_counts:
        for r in request_counts:
            # The z-test needs the sample mean to be approximately normal.
            # Once expected surviving clusters c(1-1/c)^r drops below ~0.05
            # the estimate is a rare-event sum and the test is meaningless.
            if c * (1.0 - 1.0 / c) ** r < 0.05:
                continue
            add("expected_remaining_fedcio", f"D={total_samples};c={c};r={r}",
                analytics.expected_remaining_fedcio(total_samples, c, r),
                _remaining_job("FedCIO", total_samples, c, r))
    for L in group_counts:
        for S in slice_counts:
            add("expected_comm_cost", f"L={L};S={S}",
                analytics.expected_comm_cost(L, S), _comm_cost_job(L, S))
    estimates = _estimates([job for *_, job in specs], cfg, workers)
    return [GridRow(quantity=quantity, params=params, closed_form=closed,
                    estimate=est)
            for (quantity, params, closed, _), est in zip(specs, estimates)]
