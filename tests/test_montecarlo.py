"""Monte Carlo estimators versus the closed forms they certify."""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedsgt import analytics, montecarlo
from fedsgt.montecarlo import (_BLOCK, _TABLE_UNITS, CHUNK_TRIALS,
                               ZERO_VARIANCE_ULPS, MCConfig, MCEstimate,
                               _comm_cost_job, _comm_costs, _coverage_times,
                               _deletion_fedcio_job, _deletion_fedsgt_job,
                               _distinct_units, _estimates, _fold_table,
                               _remaining_job, _rotation_heads, _set_sampler,
                               _span_job, _spans, mc_comm_cost,
                               mc_deletion_rate_fedcio,
                               mc_deletion_rate_fedsgt,
                               mc_expected_remaining, mc_expected_span,
                               validation_grid)
from fedsgt.sequencing import cyclic_span

CFG = MCConfig(trials=60_000, seed=11)


class TestAgreement:
    def test_deletion_rate_fedsgt(self):
        for L, B in [(4, 4), (6, 2), (10, 10)]:
            est = mc_deletion_rate_fedsgt(L, B, CFG)
            ref = analytics.deletion_rate_fedsgt(L, B)
            assert abs(est.zscore(ref)) <= 3, (L, B, est.mean, ref)

    def test_deletion_rate_fedcio(self):
        for c in (2, 3, 5):
            est = mc_deletion_rate_fedcio(c, CFG)
            assert abs(est.zscore(analytics.deletion_rate_fedcio(c))) <= 3

    def test_expected_span(self):
        for L, r in [(4, 2), (6, 2), (10, 7)]:
            est = mc_expected_span(L, r, CFG)
            assert abs(est.zscore(analytics.expected_span(L, r))) <= 3

    def test_expected_remaining_both_methods(self):
        est = mc_expected_remaining("FedSGT", 50_000, 10, 5, CFG)
        assert abs(est.zscore(
            analytics.expected_remaining_fedsgt(50_000, 10, 5))) <= 3
        est = mc_expected_remaining("FedCIO", 50_000, 5, 5, CFG)
        assert abs(est.zscore(
            analytics.expected_remaining_fedcio(50_000, 5, 5))) <= 3

    def test_comm_cost(self):
        for L, S in [(2, 2), (6, 2), (10, 2)]:
            est = mc_comm_cost(L, S, CFG)
            assert abs(est.zscore(analytics.expected_comm_cost(L, S))) <= 3

    def test_span_above_lookup_limit(self):
        # L=20 was beyond the old 2^L lookup table (L <= 16); the row kernel
        # must agree there as well
        est = mc_expected_span(20, 6, MCConfig(trials=20_000, seed=5))
        assert abs(est.zscore(analytics.expected_span(20, 6))) <= 3

    def test_large_l_span_and_remaining(self):
        cfg = MCConfig(trials=20_000, seed=13)
        assert abs(mc_expected_span(64, 5, cfg).zscore(
            analytics.expected_span(64, 5))) <= 3
        assert abs(mc_expected_remaining("FedSGT", 50_000, 64, 5, cfg).zscore(
            analytics.expected_remaining_fedsgt(50_000, 64, 5))) <= 3

    def test_deletion_rates_past_64_heads(self):
        # 64 heads fill one uint64 word; 100 heads take a second
        cfg = MCConfig(trials=20_000, seed=17)
        for L in (64, 100):
            est = mc_deletion_rate_fedsgt(L, L, cfg)
            assert abs(est.zscore(analytics.deletion_rate_fedsgt(L, L))) <= 4
        assert abs(mc_deletion_rate_fedcio(64, cfg).zscore(
            analytics.deletion_rate_fedcio(64))) <= 4


def oracle_span_samples(rng, n, group_count, requests):
    """Reference: the same draws, cyclic_span applied row by row."""
    draws = rng.integers(0, group_count, size=(n, requests))
    return np.array([cyclic_span(group_count, set(row)) for row in draws],
                    dtype=np.float64)


class _FixedDraws:
    """Stands in for a Generator whose next ``integers`` call is known."""

    def __init__(self, draws):
        self.draws = draws

    def integers(self, low, high, size):
        assert (low, size) == (0, self.draws.shape)
        return self.draws


# Both sides of the hit-mask table bound: the table path and the fold path.
TABLE_EDGE = [_TABLE_UNITS, _TABLE_UNITS + 1]


class TestSpanKernel:
    @pytest.mark.parametrize("group_count",
                             [1, 2, 4, 10, *TABLE_EDGE, 16, 17, 32, 64, 100])
    @pytest.mark.parametrize("requests", [1, 2, 10, 300])
    def test_matches_row_oracle(self, group_count, requests):
        seed = 1000 * group_count + requests
        got = _set_sampler(_spans, group_count, requests)(
            np.random.default_rng(seed), 500)
        want = oracle_span_samples(np.random.default_rng(seed), 500,
                                   group_count, requests)
        assert got.astype(np.float64).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_matrix_matches_cyclic_span(self, data):
        group_count = data.draw(st.integers(1, 40))
        shape = data.draw(st.tuples(st.integers(1, 12), st.integers(1, 25)))
        draws = data.draw(arrays(np.int64, shape,
                                 elements=st.integers(0, group_count - 1)))
        want = [cyclic_span(group_count, row) for row in draws]
        got = _set_sampler(_spans, group_count, shape[1])(_FixedDraws(draws),
                                                          shape[0])
        assert got.tolist() == want
        assert _spans(draws, group_count).tolist() == want


def oracle_comm_cost(group_count, rows):
    """Reference: per row, each of the L rotations entered at the first
    owned group, summed rotation by rotation."""
    totals = []
    for row in rows:
        owned = {int(g) for g in row}
        totals.append(float(sum(
            group_count - min((p + t) % group_count + 1 for p in owned) + 1
            for t in range(group_count))))
    return np.array(totals, dtype=np.float64)


class TestCommCostKernel:
    @pytest.mark.parametrize("group_count", [1, 2, 4, 10, *TABLE_EDGE, 32, 64])
    @pytest.mark.parametrize("slices", [1, 2, 5, "more-than-L"])
    def test_matches_rotation_oracle(self, group_count, slices):
        slices = group_count + 3 if slices == "more-than-L" else slices
        seed = 1000 * group_count + slices
        got = _set_sampler(_comm_costs, group_count, slices)(
            np.random.default_rng(seed), 500)
        draws = np.random.default_rng(seed).integers(
            0, group_count, size=(500, slices))
        assert (got.astype(np.float64).tobytes()
                == oracle_comm_cost(group_count, draws).tobytes())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_matrix_matches_rotation_oracle(self, data):
        group_count = data.draw(st.integers(1, 40))
        shape = data.draw(st.tuples(st.integers(1, 12), st.integers(1, 25)))
        draws = data.draw(arrays(np.int64, shape,
                                 elements=st.integers(0, group_count - 1)))
        want = oracle_comm_cost(group_count, draws).tolist()
        got = _set_sampler(_comm_costs, group_count, shape[1])(
            _FixedDraws(draws), shape[0])
        assert got.tolist() == want
        assert _comm_costs(draws, group_count).tolist() == want


class TestDistinctKernel:
    @pytest.mark.parametrize("units", [1, 2, 5, *TABLE_EDGE, 40])
    @pytest.mark.parametrize("requests", [1, 3, 20])
    def test_remaining_fedcio_matches_set_oracle(self, units, requests):
        draws = np.random.default_rng(100 * units + requests).integers(
            0, units, size=(300, requests))
        _, sampler = _remaining_job("FedCIO", 50_000, units, requests)
        got = sampler(_FixedDraws(draws), len(draws))
        assert got.tolist() == [50_000 / units * (units - len(set(row.tolist())))
                                for row in draws]


class TestFoldTables:
    @pytest.mark.parametrize("universe", range(1, _TABLE_UNITS + 1))
    def test_every_set_matches_its_oracle(self, universe):
        masks = range(1, 1 << universe)
        sets = [[u for u in range(universe) if mask >> u & 1] for mask in masks]
        spans = _fold_table(_spans, universe)[1:]
        assert spans.tolist() == [cyclic_span(universe, units) for units in sets]
        comm = _fold_table(_comm_costs, universe)[1:]
        assert comm.tolist() == oracle_comm_cost(universe, sets).tolist()
        # The FedCIO remaining sampler's value at each set, as it computes it.
        kept = 50_000 / universe * (universe - _fold_table(_distinct_units,
                                                           universe)[1:])
        assert kept.tolist() == [50_000 / universe * (universe - len(units))
                                 for units in sets]

    def test_tables_are_built_once_before_any_chunk_runs(self):
        job = _span_job(7, 3)
        assert _fold_table(_spans, 7) is _fold_table(_spans, 7)
        assert not _fold_table(_spans, 7).flags.writeable
        before = _fold_table.cache_info()
        _estimates([job], MCConfig(trials=3 * CHUNK_TRIALS, seed=0), workers=2)
        assert _fold_table.cache_info() == before

    def test_import_builds_no_table(self):
        code = ("import fedsgt.cli; from fedsgt.montecarlo import _fold_table; "
                "assert _fold_table.cache_info().currsize == 0")
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120)


def oracle_coverage_times(rows, heads):
    """Reference: per row, one Python set of the heads drawn so far; the
    time is the first draw after which it holds every head."""
    times = []
    for row in rows:
        missing = set(heads)
        for t, draw in enumerate(row, start=1):
            missing.discard(int(draw))
            if not missing:
                times.append(float(t))
                break
    return times


class _BlockDraws:
    """Stands in for a Generator: hands out the columns of a fixed draw
    matrix one block at a time, for the rows still drawing, in consecutive
    slabs of that block's rows."""

    def __init__(self, draws, times):
        self.draws, self.times = draws, np.array(times)
        self.base, self.rows = -_BLOCK, np.array([], dtype=np.intp)

    def integers(self, low, high, size):
        if not self.rows.size:
            self.base += _BLOCK
            self.rows = np.flatnonzero(self.times > self.base)
        count, width = size
        assert (low, width) == (0, _BLOCK) and 0 < count <= self.rows.size
        slab, self.rows = self.rows[:count], self.rows[count:]
        return self.draws[slab, self.base:self.base + _BLOCK]


class _RecordingDraws:
    """Wraps a real Generator and keeps a copy of every slab its
    ``integers`` returns."""

    def __init__(self, rng):
        self.rng, self.slabs = rng, []

    def integers(self, low, high, size):
        slab = self.rng.integers(low, high, size=size)
        self.slabs.append(slab.copy())
        return slab


def rows_from_blocks(slabs, n, heads):
    """Each trial's draws, read back from the recorded slabs: block b is
    the next run of slabs, one row in trial order for each trial the set
    oracle finds still uncovered after b blocks."""
    rows = [[] for _ in range(n)]
    slabs = iter(slabs)
    while drawing := [i for i in range(n)
                      if not oracle_coverage_times([rows[i]], heads)]:
        parts = [next(slabs)]
        while sum(map(len, parts)) < len(drawing):
            parts.append(next(slabs))
        block = np.concatenate(parts)
        assert block.shape == (len(drawing), _BLOCK)
        for i, row in zip(drawing, block):
            rows[i].extend(row.tolist())
    assert next(slabs, None) is None
    return rows


class TestCoverageKernel:
    # Each side of every word-width boundary (8, 16, 32 and 64 heads).
    HEADS = [1, 8, 9, 10, 16, 17, 32, 33, 63, 64, 65, 130]

    @staticmethod
    def shuffled_heads(rng, universe, count):
        return [int(h) for h in rng.permutation(universe)[:count]]

    @pytest.mark.parametrize("spare", [0, 7])
    @pytest.mark.parametrize("head_count", HEADS)
    def test_with_replacement_matches_set_oracle(self, head_count, spare):
        rng = np.random.default_rng(100 * head_count + spare)
        universe = head_count + spare
        heads = self.shuffled_heads(rng, universe, head_count)
        draws = rng.integers(0, universe, size=(40, 40 * _BLOCK))
        draws[:, -head_count:] = heads  # every row covers within the matrix
        want = oracle_coverage_times(draws, heads)
        got = _coverage_times(_BlockDraws(draws, want), 40, universe, heads)
        assert got.tolist() == want

    # The head sets the traffic draws: rotation heads at L=4/B=2, L=10/B=10,
    # L=32/B=32 and L=70, and FedCIO's c=5 clusters.
    @pytest.mark.parametrize("job, universe, heads", [
        (_deletion_fedsgt_job(4, 2), 4, _rotation_heads(4, 2)),
        (_deletion_fedsgt_job(10, 10), 10, _rotation_heads(10, 10)),
        (_deletion_fedsgt_job(32, 32), 32, _rotation_heads(32, 32)),
        (_deletion_fedsgt_job(70, 70), 70, _rotation_heads(70, 70)),
        (_deletion_fedcio_job(5), 5, list(range(5))),
    ], ids=["L4B2", "L10B10", "L32B32", "L70B70", "c5"])
    def test_generator_draws_match_set_oracle(self, job, universe, heads):
        n = 300
        record = _RecordingDraws(np.random.Generator(np.random.PCG64(universe)))
        got = job[1](record, n)
        assert all(s.max() < universe for s in record.slabs)
        want = oracle_coverage_times(rows_from_blocks(record.slabs, n, heads),
                                     heads)
        assert len(want) == n
        assert got.tolist() == want

    # Slabs of 7 trials split every block after the first into many slabs
    # and a short last one, which the full-size slab does not at these
    # trial counts; the first block still comes in one call.
    @pytest.mark.parametrize("head_count", [10, 65])
    def test_many_slabs_per_block_match_set_oracle(self, head_count,
                                                   monkeypatch):
        monkeypatch.setattr(montecarlo, "_SLAB", 7)
        rng = np.random.default_rng(head_count)
        universe = head_count + 7
        heads = self.shuffled_heads(rng, universe, head_count)
        draws = rng.integers(0, universe, size=(40, 40 * _BLOCK))
        draws[:, -head_count:] = heads
        want = oracle_coverage_times(draws, heads)
        got = _coverage_times(_BlockDraws(draws, want), 40, universe, heads)
        assert got.tolist() == want
        record = _RecordingDraws(np.random.Generator(np.random.PCG64(universe)))
        got = _coverage_times(record, 100, universe, heads)
        assert len(record.slabs[0]) == 100
        assert max(map(len, record.slabs[1:])) == 7
        assert got.tolist() == oracle_coverage_times(
            rows_from_blocks(record.slabs, 100, heads), heads)


# Ranges on numpy's 32-bit bounded path (up to 2**32 - 1, including the
# all-ones mask) and its 64-bit path.
SLAB_RANGES = [1, 2, 4, 10, 32, 70, 1000, 2**31 - 1, 2**32 - 1, 2**32, 2**40]


class TestSlabStream:
    """The stream property ``_coverage_times`` rests on: a block drawn in
    consecutive slabs, in trial order, is the block drawn in one call, and
    the generator ends in the same state. A numpy release that breaks this
    fails here, not as drifting estimate bytes."""

    @pytest.mark.parametrize("slab", [1024, 7])
    @pytest.mark.parametrize("height", [1, 1000, 8192])
    @pytest.mark.parametrize("high", SLAB_RANGES)
    def test_slabs_draw_the_block(self, high, height, slab):
        whole = np.random.Generator(np.random.PCG64(height + slab))
        parts = np.random.Generator(np.random.PCG64(height + slab))
        block = whole.integers(0, high, size=(height, _BLOCK))
        slabs = [parts.integers(0, high, size=(min(slab, height - j), _BLOCK))
                 for j in range(0, height, slab)]
        assert np.array_equal(np.concatenate(slabs), block)
        assert parts.bit_generator.state == whole.bit_generator.state
        assert np.array_equal(parts.integers(0, high, size=5),
                              whole.integers(0, high, size=5))


class TestFaultBudget:
    def test_l32_deletion_rate_reuses_its_pages(self):
        # A fresh draw array per block faulted its pages in again on every
        # call: 4,600-9,700 minor faults per call. glibc can still trim a
        # warm worker heap now and then (about one call in fifty on a 2-CPU
        # VM with glibc 2.36), so the measure is the middle of three calls
        # after one warm-up.
        resource = pytest.importorskip("resource")
        cfg = MCConfig(trials=50_000, seed=0)
        mc_deletion_rate_fedsgt(32, 32, cfg, workers=2)
        faults = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            mc_deletion_rate_fedsgt(32, 32, cfg, workers=2)
            faults.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert sorted(faults)[1] < 1000, faults


class TestReproducibility:
    def test_same_seed_same_estimate(self):
        a = mc_expected_span(6, 2, CFG)
        b = mc_expected_span(6, 2, CFG)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_worker_count_does_not_change_estimate(self):
        for workers in (2, 3, 8):
            a = mc_deletion_rate_fedsgt(6, 6, CFG, workers=1)
            b = mc_deletion_rate_fedsgt(6, 6, CFG, workers=workers)
            assert (a.mean, a.stderr) == (b.mean, b.stderr), workers

    def test_seed_changes_estimate(self):
        a = mc_expected_span(6, 2, MCConfig(trials=10_000, seed=1))
        b = mc_expected_span(6, 2, MCConfig(trials=10_000, seed=2))
        assert a.mean != b.mean


def oracle_estimate(job, cfg):
    """Reference: chunk i of ``cfg.trials`` draws from the stream keyed by
    (seed, *key, i); chunk sums are added in index order."""
    key, sampler = job
    sums, squares = [], []
    for index, start in enumerate(range(0, cfg.trials, CHUNK_TRIALS)):
        n = min(CHUNK_TRIALS, cfg.trials - start)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((cfg.seed, *key, index))))
        values = sampler(rng, n)
        sums.append(float(values.sum()))
        squares.append(float(np.square(values).sum()))
    n = cfg.trials
    mean = sum(sums) / n
    if n < 2:
        return mean, float("inf")
    var = max(0.0, (sum(squares) - n * mean * mean) / (n - 1))
    return mean, float(np.sqrt(var / n))


def public_estimate(row, cfg, workers):
    """The row's estimate from its public estimator run alone."""
    p = {k: int(v) for k, v in (kv.split("=") for kv in row.params.split(";"))}
    if row.quantity == "deletion_rate_fedsgt":
        return mc_deletion_rate_fedsgt(p["L"], p["B"], cfg, workers)
    if row.quantity == "deletion_rate_fedcio":
        return mc_deletion_rate_fedcio(p["c"], cfg, workers)
    if row.quantity == "expected_span":
        return mc_expected_span(p["L"], p["r"], cfg, workers)
    if row.quantity == "expected_remaining_fedsgt":
        return mc_expected_remaining("FedSGT", p["D"], p["L"], p["r"], cfg,
                                     workers)
    if row.quantity == "expected_remaining_fedcio":
        return mc_expected_remaining("FedCIO", p["D"], p["c"], p["r"], cfg,
                                     workers)
    assert row.quantity == "expected_comm_cost"
    return mc_comm_cost(p["L"], p["S"], cfg, workers)


def public_closed_form(row):
    """The row's closed form from its public per-point call."""
    p = {k: int(v) for k, v in (kv.split("=") for kv in row.params.split(";"))}
    if row.quantity == "deletion_rate_fedsgt":
        return analytics.deletion_rate_fedsgt(p["L"], p["B"])
    if row.quantity == "deletion_rate_fedcio":
        return analytics.deletion_rate_fedcio(p["c"])
    if row.quantity == "expected_span":
        return analytics.expected_span(p["L"], p["r"])
    if row.quantity == "expected_remaining_fedsgt":
        return analytics.expected_remaining_fedsgt(p["D"], p["L"], p["r"])
    if row.quantity == "expected_remaining_fedcio":
        return analytics.expected_remaining_fedcio(p["D"], p["c"], p["r"])
    assert row.quantity == "expected_comm_cost"
    return analytics.expected_comm_cost(p["L"], p["S"])


def hexes(est):
    return est.mean.hex(), est.stderr.hex(), est.trials


# One chunk, a full chunk less one, a partial last chunk, several chunks.
TRIAL_COUNTS = [1, CHUNK_TRIALS - 1, CHUNK_TRIALS + 1, 30_000]


class TestChunkRunner:
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_grid_rows_equal_their_estimators_alone(self, trials, workers):
        cfg = MCConfig(trials=trials, seed=5)
        rows = validation_grid(cfg, workers=workers)
        assert len(rows) == 55
        for row in rows:
            assert hexes(row.estimate) == hexes(
                public_estimate(row, cfg, workers)), (row.quantity, row.params)

    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunks_merge_in_index_order(self, trials, workers):
        # Integer-valued samples sum exactly in any order; the remaining-data
        # job at D=1000, L=7 and the normal draws give float sums whose bytes
        # depend on the order in which the chunks are added.
        cfg = MCConfig(trials=trials, seed=9)
        jobs = [_deletion_fedsgt_job(6, 6), _span_job(10, 5),
                _remaining_job("FedCIO", 50_000, 5, 3), _comm_cost_job(10, 2),
                _remaining_job("FedSGT", 1_000, 7, 3),
                *(((99, k), lambda rng, n: rng.standard_normal(n) / 3)
                  for k in range(8))]
        got = _estimates(jobs, cfg, workers)
        for job, est in zip(jobs, got):
            assert est.trials == trials
            mean, stderr = oracle_estimate(job, cfg)
            assert (est.mean.hex(), est.stderr.hex()) == (mean.hex(),
                                                          stderr.hex()), job[0]

    def test_pool_has_at_most_one_thread_per_usable_cpu(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records the pool size asked for and runs the chunks inline."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingPool)
        cfg = MCConfig(trials=30_000, seed=9)
        want = hexes(mc_deletion_rate_fedsgt(6, 6, cfg))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert hexes(mc_deletion_rate_fedsgt(6, 6, cfg, workers=64)) == want
        # Without an affinity call the machine's CPU count caps the pool.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert hexes(mc_deletion_rate_fedsgt(6, 6, cfg, workers=64)) == want
        assert hexes(mc_deletion_rate_fedsgt(6, 6, cfg, workers=2)) == want
        # An unknown CPU count runs the chunks in the calling thread.
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert hexes(mc_deletion_rate_fedsgt(6, 6, cfg, workers=64)) == want
        assert sizes == [3, 5, 2]


# Every sample of a deletion-rate estimate is an integer, so its chunk sums
# are exact and these bytes hold on any platform. A kernel that moved a
# single draw-to-time mapping moves them; the z-test would not notice.
PINNED_CFG = MCConfig(trials=20_000, seed=3)
PINNED_GRID_RATES = {
    ("deletion_rate_fedsgt", "L=4;B=2"): ("0x1.7ea0902de00d2p+2", "0x1.ad8d16ee34e80p-6"),
    ("deletion_rate_fedsgt", "L=4;B=4"): ("0x1.0a6e2eb1c432dp+3", "0x1.b36e56846b6adp-6"),
    ("deletion_rate_fedsgt", "L=6;B=2"): ("0x1.1f31f8a0902dep+3", "0x1.5a6e1babdbab1p-5"),
    ("deletion_rate_fedsgt", "L=6;B=6"): ("0x1.d6404ea4a8c15p+3", "0x1.67e21e9689fe9p-5"),
    ("deletion_rate_fedsgt", "L=10;B=2"): ("0x1.decf41f212d77p+3", "0x1.29413ffcad657p-4"),
    ("deletion_rate_fedsgt", "L=10;B=10"): ("0x1.d4683e425aee6p+4", "0x1.47f1631d410d5p-4"),
    ("deletion_rate_fedcio", "c=2"): ("0x1.8231f8a0902dep+1", "0x1.49cec53150237p-7"),
    ("deletion_rate_fedcio", "c=5"): ("0x1.6d19ce075f6fdp+3", "0x1.2302493ddae49p-5"),
}
# Span and comm-cost samples are integers too. These were taken from the
# sort folds, before the hit-mask tables served L <= _TABLE_UNITS.
PINNED_GRID_SETS = {
    ("expected_span", "L=4;r=1"): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("expected_span", "L=4;r=3"): ("0x1.3ff141205bc02p+1", "0x1.19b28b1c6e97bp-8"),
    ("expected_span", "L=4;r=5"): ("0x1.8eacd9e83e426p+1", "0x1.15166c7be17d1p-8"),
    ("expected_span", "L=4;r=10"): ("0x1.e2f1a9fbe76c9p+1", "0x1.8bb2db100e52bp-9"),
    ("expected_span", "L=4;r=20"): ("0x1.fe7381d7dbf48p+1", "0x1.9555f6828d872p-11"),
    ("expected_span", "L=6;r=1"): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("expected_span", "L=6;r=3"): ("0x1.a801a36e2eb1cp+1", "0x1.a55f5b41ff949p-8"),
    ("expected_span", "L=6;r=5"): ("0x1.0e5e353f7ced9p+2", "0x1.665d96ba082a0p-8"),
    ("expected_span", "L=6;r=10"): ("0x1.4a978d4fdf3b6p+2", "0x1.12df1b3058fb9p-8"),
    ("expected_span", "L=6;r=20"): ("0x1.764189374bc6ap+2", "0x1.51565dbb8ddb6p-9"),
    ("expected_span", "L=10;r=1"): ("0x1.0000000000000p+0", "0x0.0p+0"),
    ("expected_span", "L=10;r=3"): ("0x1.383afb7e90ff9p+2", "0x1.4cf38c970ab82p-7"),
    ("expected_span", "L=10;r=5"): ("0x1.9b0be0ded288dp+2", "0x1.1d5f37e309aacp-7"),
    ("expected_span", "L=10;r=10"): ("0x1.01566cf41f213p+3", "0x1.8bb7a1e200b21p-8"),
    ("expected_span", "L=10;r=20"): ("0x1.232f1a9fbe76dp+3", "0x1.0db390130d6adp-8"),
    ("expected_comm_cost", "L=4;S=1"): ("0x1.4000000000000p+3", "0x0.0p+0"),
    ("expected_comm_cost", "L=4;S=2"): ("0x1.8fe2eb1c432cap+3", "0x1.5bb628d2d38c0p-7"),
    ("expected_comm_cost", "L=4;S=5"): ("0x1.dd62b6ae7d567p+3", "0x1.acd097039af1cp-8"),
    ("expected_comm_cost", "L=6;S=1"): ("0x1.5000000000000p+4", "0x0.0p+0"),
    ("expected_comm_cost", "L=6;S=2"): ("0x1.acf212d773190p+4", "0x1.60bee43082452p-6"),
    ("expected_comm_cost", "L=6;S=5"): ("0x1.04b9a6b50b0f2p+5", "0x1.b0ad7a104d8a3p-7"),
    ("expected_comm_cost", "L=10;S=1"): ("0x1.b800000000000p+5", "0x0.0p+0"),
    ("expected_comm_cost", "L=10;S=2"): ("0x1.1d82de00d1b71p+6", "0x1.c7507d51eaf79p-5"),
    ("expected_comm_cost", "L=10;S=5"): ("0x1.5fa1e4f765fd9p+6", "0x1.12d396e33781cp-5"),
}
# One estimate per word layout: 32 heads, 64 heads, two words, 64 clusters.
PINNED_RATES = [
    (mc_deletion_rate_fedsgt, (32, 32), ("0x1.034c226809d49p+7", "0x1.1791473cd8154p-2")),
    (mc_deletion_rate_fedsgt, (64, 64), ("0x1.30b73eab367a1p+8", "0x1.2446bdcb3836cp-1")),
    (mc_deletion_rate_fedsgt, (70, 70), ("0x1.52e8adab9f55ap+8", "0x1.3ffda9a74dc82p-1")),
    (mc_deletion_rate_fedcio, (64,), ("0x1.2f504189374bcp+8", "0x1.1fce914a0adf7p-1")),
]


def grid_hexes():
    return {(r.quantity, r.params): (r.estimate.mean.hex(),
                                     r.estimate.stderr.hex())
            for r in validation_grid(PINNED_CFG, workers=2)}


class TestPinnedBytes:
    def test_grid_deletion_rates(self):
        got = grid_hexes()
        assert {k: got[k] for k in PINNED_GRID_RATES} == PINNED_GRID_RATES

    def test_grid_spans_and_comm_costs(self):
        got = grid_hexes()
        assert {k: got[k] for k in PINNED_GRID_SETS} == PINNED_GRID_SETS

    def test_grid_bytes_do_not_depend_on_the_table_bound(self, monkeypatch):
        tabled = grid_hexes()
        monkeypatch.setattr(montecarlo, "_TABLE_UNITS", 0)
        assert grid_hexes() == tabled

    @pytest.mark.parametrize("estimator, args, want", PINNED_RATES)
    def test_deletion_rate_estimators(self, estimator, args, want):
        est = estimator(*args, PINNED_CFG, workers=2)
        assert (est.mean.hex(), est.stderr.hex()) == want


class TestEstimateSemantics:
    def test_zscore_exact_match_with_zero_variance(self):
        est = MCEstimate(mean=5.0, stderr=0.0, trials=1000)
        assert est.zscore(5.0) == 0.0

    def test_zscore_mismatch_with_zero_variance(self):
        est = MCEstimate(mean=5.0, stderr=0.0, trials=1000)
        assert math.isinf(est.zscore(5.1))

    def test_zero_variance_rounding_is_a_match(self):
        # The L=6, r=1 remaining-data row at 1,000 samples: a deterministic
        # value rounded along two paths, two ulps apart.
        est = MCEstimate(mean=833.3333333333335, stderr=0.0, trials=1000)
        assert est.zscore(833.3333333333333) == 0.0

    @pytest.mark.parametrize("ulps", [ZERO_VARIANCE_ULPS + 1, 8, 64])
    def test_zero_variance_several_ulps_off_is_inf(self, ulps):
        reference = 833.3333333333333
        mean = reference + ulps * np.spacing(reference)
        for value in (mean, reference - (mean - reference)):
            est = MCEstimate(mean=value, stderr=0.0, trials=1000)
            assert math.isinf(est.zscore(reference))

    def test_single_trial_is_uninformative(self):
        est = mc_expected_span(6, 2, MCConfig(trials=1, seed=0))
        assert est.trials == 1
        assert math.isinf(est.stderr)
        assert est.zscore(3.0) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MCConfig(trials=0)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(trials=2.5), "trials: expected an integer, got 2.5"),
        (dict(trials=True), "trials: expected an integer, got True"),
        (dict(seed=-1), "seed must be >= 0, got -1"),
    ], ids=["trials_float", "trials_bool", "seed_negative"])
    def test_config_rejects_what_the_config_reader_rejects(self, kwargs,
                                                           message):
        # Each of these used to be accepted: a float failed inside the
        # sampler, a negative seed at the first stream, and True ran one
        # trial.
        with pytest.raises(ValueError, match=message):
            MCConfig(**kwargs)


SGT_REMAINING = functools.partial(mc_expected_remaining, "FedSGT")
CIO_REMAINING = functools.partial(mc_expected_remaining, "FedCIO")


class TestSizeChecks:
    """Each estimator rejects a size below its minimum with the ValueError
    of its closed form, before it samples (one check per job: with one
    chunk or several, with one worker or two)."""

    RUNS = [(MCConfig(trials=1, seed=0), 1),
            (MCConfig(trials=3 * CHUNK_TRIALS, seed=0), 2)]

    @pytest.mark.parametrize("estimator, closed, args, message", [
        (mc_deletion_rate_fedsgt, analytics.deletion_rate_fedsgt, (4, 0),
         "budget must be >= 1, got 0"),
        (mc_deletion_rate_fedsgt, analytics.deletion_rate_fedsgt, (0, 4),
         "group_count must be >= 1, got 0"),
        (mc_deletion_rate_fedcio, analytics.deletion_rate_fedcio, (0,),
         "clusters must be >= 1, got 0"),
        (mc_deletion_rate_fedcio, analytics.deletion_rate_fedcio, (-3,),
         "clusters must be >= 1, got -3"),
        (mc_expected_span, analytics.expected_span, (0, 3),
         "group_count must be >= 1, got 0"),
        (SGT_REMAINING, analytics.expected_remaining_fedsgt, (-1, 4, 3),
         "total_samples must be >= 0, got -1"),
        (CIO_REMAINING, analytics.expected_remaining_fedcio, (-1, 4, 3),
         "total_samples must be >= 0, got -1"),
        (mc_comm_cost, analytics.expected_comm_cost, (4, 0),
         "slices_per_client must be >= 1, got 0"),
        (mc_comm_cost, analytics.expected_comm_cost, (0, 2),
         "group_count must be >= 1, got 0"),
    ], ids=["sgt-budget", "sgt-groups", "cio-zero", "cio-negative",
            "span-groups", "remaining-sgt-samples", "remaining-cio-samples",
            "comm-slices", "comm-groups"])
    def test_rejected_like_the_closed_form(self, estimator, closed, args,
                                           message):
        with pytest.raises(ValueError, match=message):
            closed(*args)
        for cfg, workers in self.RUNS:
            with pytest.raises(ValueError, match=message):
                estimator(*args, cfg, workers)

    @pytest.mark.parametrize("estimator, closed", [
        (SGT_REMAINING, analytics.expected_remaining_fedsgt),
        (CIO_REMAINING, analytics.expected_remaining_fedcio),
    ], ids=["sgt", "cio"])
    def test_remaining_rejects_no_units(self, estimator, closed):
        # The closed forms name the units group_count and clusters.
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            closed(100, 0, 3)
        for cfg, workers in self.RUNS:
            with pytest.raises(ValueError, match="units must be >= 1, got 0"):
                estimator(100, 0, 3, cfg, workers)

    @pytest.mark.parametrize("estimator, args", [
        (mc_expected_span, (4, 0)), (SGT_REMAINING, (100, 4, 0)),
        (CIO_REMAINING, (100, 4, -2))], ids=["span", "sgt", "cio"])
    def test_sampler_needs_one_request(self, estimator, args):
        # Unlike the closed forms, which accept requests = 0, a sampler
        # needs at least one draw.
        with pytest.raises(ValueError, match="requests must be >= 1"):
            estimator(*args, self.RUNS[0][0])

    def test_zero_samples_is_a_size(self):
        # total_samples = 0 is accepted by both layers: nothing remains.
        est = SGT_REMAINING(0, 4, 3, MCConfig(trials=50, seed=0))
        assert (est.mean, est.stderr) == (0.0, 0.0)
        assert analytics.expected_remaining_fedsgt(0, 4, 3) == 0.0


class TestValidationGrid:
    def test_grid_well_formed_and_passing(self):
        rows = validation_grid(MCConfig(trials=30_000, seed=0), workers=4)
        assert len(rows) >= 40
        quantities = {r.quantity for r in rows}
        assert quantities == {"deletion_rate_fedsgt", "deletion_rate_fedcio",
                              "expected_span", "expected_remaining_fedsgt",
                              "expected_remaining_fedcio",
                              "expected_comm_cost"}
        for row in rows:
            assert row.estimate.trials == 30_000
            assert abs(row.zscore) <= 4.0, (row.quantity, row.params,
                                            row.zscore)

    @pytest.mark.parametrize("total_samples", [50_000, 1_000, 0])
    def test_closed_forms_equal_the_public_calls(self, total_samples):
        # The grid reads the span and remaining rows off one curve per L;
        # each must be the bytes of its own per-point call.
        rows = validation_grid(MCConfig(trials=1, seed=0),
                               total_samples=total_samples)
        for row in rows:
            assert row.closed_form.hex() == public_closed_form(row).hex(), \
                (row.quantity, row.params)

    def test_rare_event_rows_excluded(self):
        rows = validation_grid(MCConfig(trials=1000, seed=0))
        params = [r.params for r in rows
                  if r.quantity == "expected_remaining_fedcio"]
        assert not any("c=2;r=20" in p for p in params)
        assert any("c=5;r=20" in p for p in params)
