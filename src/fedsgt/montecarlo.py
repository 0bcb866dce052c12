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
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import analytics

CHUNK_TRIALS = 8192
_BLOCK = 64  # draws per vectorized coverage step
ZERO_VARIANCE_ULPS = 4  # rounding slack of a deterministic row (MCEstimate.zscore)

_TAG_DELETION_SGT = 1
_TAG_DELETION_CIO = 2
_TAG_SPAN = 3
_TAG_REMAINING = 4
_TAG_COMM = 5


@dataclass(frozen=True)
class MCConfig:
    trials: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


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

    def consistent_with(self, reference: float, k: float = 3.0) -> bool:
        return abs(self.zscore(reference)) <= k


Sampler = Callable[[np.random.Generator, int], np.ndarray]
Job = tuple[tuple[int, ...], Sampler]


def _estimates(jobs: Sequence[Job], cfg: MCConfig,
               workers: int) -> list[MCEstimate]:
    """One estimate per ``(key, sampler)`` job. Every chunk of every job goes
    through one pool; chunk i of a job draws from the stream keyed by
    (seed, *key, i), and each job's chunk stats are summed in index order."""
    sizes = [min(CHUNK_TRIALS, cfg.trials - start)
             for start in range(0, cfg.trials, CHUNK_TRIALS)]
    specs = [(key, sampler, index, n) for key, sampler in jobs
             for index, n in enumerate(sizes)]

    def run(spec: tuple[tuple[int, ...], Sampler, int, int]) -> tuple[float, float]:
        key, sampler, index, n = spec
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((cfg.seed, *key, index))))
        values = np.asarray(sampler(rng, n), dtype=np.float64)
        return float(values.sum()), float(np.square(values).sum())

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
    """(ceil(H/64), universe) uint64 table: head i sets bit i % 64 of word
    i // 64 at its own position, so any head count fits."""
    words = np.zeros(((len(heads) + 63) // 64, universe), dtype=np.uint64)
    for i, h in enumerate(heads):
        words[i // 64, h] |= np.uint64(1 << (i % 64))
    return words


def _coverage_times(rng: np.random.Generator, n: int, universe: int,
                    heads: list[int]) -> np.ndarray:
    """Per trial: uniform draws over [0, universe) until every head has been
    seen; returns the number of draws needed. Each block of draws is folded
    into the trial's seen-heads words with a running OR, one word at a time."""
    words = _head_words(universe, heads)
    full = np.bitwise_or.reduce(words, axis=1)
    times = np.zeros(n, dtype=np.int64)
    seen = np.zeros((n, len(words)), dtype=np.uint64)
    active = np.arange(n)
    base = 0
    while active.size:
        draws = rng.integers(0, universe, size=(active.size, _BLOCK))
        covered = None
        for w, word in enumerate(words):
            bits = word[draws]
            np.bitwise_or.accumulate(bits, axis=1, out=bits)
            bits |= seen[:, w, None]
            seen[:, w] = bits[:, -1]
            hit = bits == full[w]
            covered = hit if covered is None else np.logical_and(covered, hit,
                                                                 out=covered)
        done = covered[:, -1]
        first = covered.argmax(axis=1)
        times[active[done]] = base + first[done] + 1
        active = active[~done]
        seen = seen[~done]
        base += _BLOCK
    return times.astype(np.float64)


def _rotation_heads(group_count: int, budget: int) -> list[int]:
    return [(-t) % group_count for t in range(min(group_count, budget))]


def _deletion_fedsgt_job(group_count: int, budget: int) -> Job:
    analytics._check_positive(group_count=group_count, budget=budget)
    heads = _rotation_heads(group_count, budget)
    # The trailing 0 is part of the key every estimate's chunk streams were
    # seeded with; dropping it would change the bytes of every estimate.
    return ((_TAG_DELETION_SGT, group_count, budget, 0),
            lambda rng, n: _coverage_times(rng, n, group_count, heads))


def _deletion_fedcio_job(clusters: int) -> Job:
    analytics._check_positive(clusters=clusters)
    heads = list(range(clusters))
    return ((_TAG_DELETION_CIO, clusters),
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


def _span_samples(rng: np.random.Generator, n: int, group_count: int,
                  requests: int) -> np.ndarray:
    """Cyclic span L - maxgap + 1 of each trial's draws, for any L: sort the
    rows, then fold the largest cyclic gap between neighbours column by
    column (faster on short rows than a ``diff`` reduction)."""
    s = np.sort(rng.integers(0, group_count, size=(n, requests)), axis=1)
    gap = s[:, 0] + group_count - s[:, -1]
    for j in range(1, requests):
        np.maximum(gap, s[:, j] - s[:, j - 1], out=gap)
    return (group_count - gap + 1).astype(np.float64)


def _span_job(group_count: int, requests: int) -> Job:
    analytics._check_positive(group_count=group_count, requests=requests)
    return ((_TAG_SPAN, group_count, requests),
            lambda rng, n: _span_samples(rng, n, group_count, requests))


def mc_expected_span(group_count: int, requests: int, cfg: MCConfig,
                     workers: int = 1) -> MCEstimate:
    """Cyclic span of the set hit by uniform requests, for any L."""
    return _estimates([_span_job(group_count, requests)], cfg, workers)[0]


def _remaining_job(method: str, total_samples: int, units: int,
                   requests: int) -> Job:
    analytics._check_total_samples(total_samples)
    analytics._check_positive(units=units, requests=requests)
    name = method.strip().lower()
    if name == analytics.METHOD_FEDSGT.lower():
        def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            spans = _span_samples(rng, n, units, requests)
            return total_samples / units * (units - spans)
    elif name == analytics.METHOD_FEDCIO.lower():
        def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
            draws = rng.integers(0, units, size=(n, requests))
            hit = np.zeros((n, units), dtype=bool)
            hit[np.arange(n)[:, None], draws] = True
            return total_samples / units * (units - hit.sum(axis=1))
    else:
        raise ValueError(f"unknown method {method!r}")
    return ((_TAG_REMAINING, 1 if name == "fedsgt" else 2, units, requests,
             total_samples), sampler)


def mc_expected_remaining(method: str, total_samples: int, units: int,
                          requests: int, cfg: MCConfig,
                          workers: int = 1) -> MCEstimate:
    """Remaining serviceable data after ``requests`` uniform deletions.

    FedSGT: best surviving prefix covers L - span groups of |D|/L samples.
    FedCIO: untouched clusters keep their full |D|/c shares.
    """
    return _estimates([_remaining_job(method, total_samples, units, requests)],
                      cfg, workers)[0]


def _comm_cost_samples(rng: np.random.Generator, n: int, group_count: int,
                       slices_per_client: int) -> np.ndarray:
    """Each trial's rounds over all L rotations, L^2 - sum g(g-1)/2 over the
    cyclic gaps g between the sorted draws (see ``mc_comm_cost``)."""
    s = np.sort(rng.integers(0, group_count, size=(n, slices_per_client)), axis=1)
    wrap = s[:, 0] + group_count - s[:, -1]
    gaps = np.diff(s, axis=1)
    idle = wrap * (wrap - 1) // 2 + (gaps * (gaps - 1) // 2).sum(axis=1)
    return (group_count * group_count - idle).astype(np.float64)


def _comm_cost_job(group_count: int, slices_per_client: int) -> Job:
    analytics._check_positive(group_count=group_count,
                              slices_per_client=slices_per_client)
    return ((_TAG_COMM, group_count, slices_per_client),
            lambda rng, n: _comm_cost_samples(rng, n, group_count,
                                              slices_per_client))


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
    for L in group_counts:
        for r in request_counts:
            add("expected_span", f"L={L};r={r}",
                analytics.expected_span(L, r), _span_job(L, r))
    for L in group_counts:
        for r in request_counts:
            add("expected_remaining_fedsgt", f"D={total_samples};L={L};r={r}",
                analytics.expected_remaining_fedsgt(total_samples, L, r),
                _remaining_job("FedSGT", total_samples, L, r))
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
