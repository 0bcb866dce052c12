"""Monte Carlo estimators versus the closed forms they certify."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedsgt import analytics
from fedsgt.montecarlo import (_BLOCK, CHUNK_TRIALS, ZERO_VARIANCE_ULPS,
                               MCConfig, MCEstimate, _comm_cost_job,
                               _comm_cost_samples, _coverage_times,
                               _deletion_fedsgt_job, _estimates,
                               _remaining_job, _span_job, _span_samples,
                               mc_comm_cost, mc_deletion_rate_fedcio,
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
            assert est.consistent_with(ref), (L, B, est.mean, ref)

    def test_deletion_rate_fedcio(self):
        for c in (2, 3, 5):
            est = mc_deletion_rate_fedcio(c, CFG)
            assert est.consistent_with(analytics.deletion_rate_fedcio(c))

    def test_expected_span(self):
        for L, r in [(4, 2), (6, 2), (10, 7)]:
            est = mc_expected_span(L, r, CFG)
            assert est.consistent_with(analytics.expected_span(L, r))

    def test_expected_remaining_both_methods(self):
        est = mc_expected_remaining("FedSGT", 50_000, 10, 5, CFG)
        assert est.consistent_with(
            analytics.expected_remaining_fedsgt(50_000, 10, 5))
        est = mc_expected_remaining("FedCIO", 50_000, 5, 5, CFG)
        assert est.consistent_with(
            analytics.expected_remaining_fedcio(50_000, 5, 5))

    def test_comm_cost(self):
        for L, S in [(2, 2), (6, 2), (10, 2)]:
            est = mc_comm_cost(L, S, CFG)
            assert est.consistent_with(analytics.expected_comm_cost(L, S))

    def test_span_above_lookup_limit(self):
        # L=20 was beyond the old 2^L lookup table (L <= 16); the row kernel
        # must agree there as well
        est = mc_expected_span(20, 6, MCConfig(trials=20_000, seed=5))
        assert est.consistent_with(analytics.expected_span(20, 6))

    def test_large_l_span_and_remaining(self):
        cfg = MCConfig(trials=20_000, seed=13)
        assert mc_expected_span(64, 5, cfg).consistent_with(
            analytics.expected_span(64, 5))
        assert mc_expected_remaining("FedSGT", 50_000, 64, 5, cfg).consistent_with(
            analytics.expected_remaining_fedsgt(50_000, 64, 5))

    def test_deletion_rates_past_64_heads(self):
        # 64 heads and more take a second mask word
        cfg = MCConfig(trials=20_000, seed=17)
        for L in (64, 100):
            est = mc_deletion_rate_fedsgt(L, L, cfg)
            assert est.consistent_with(analytics.deletion_rate_fedsgt(L, L), 4.0)
        assert mc_deletion_rate_fedcio(64, cfg).consistent_with(
            analytics.deletion_rate_fedcio(64), 4.0)


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


class TestSpanKernel:
    @pytest.mark.parametrize("group_count", [1, 2, 4, 10, 16, 17, 32, 64, 100])
    @pytest.mark.parametrize("requests", [1, 2, 10, 300])
    def test_matches_row_oracle(self, group_count, requests):
        seed = 1000 * group_count + requests
        got = _span_samples(np.random.default_rng(seed), 500, group_count,
                            requests)
        want = oracle_span_samples(np.random.default_rng(seed), 500,
                                   group_count, requests)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_matrix_matches_cyclic_span(self, data):
        group_count = data.draw(st.integers(1, 40))
        shape = data.draw(st.tuples(st.integers(1, 12), st.integers(1, 25)))
        draws = data.draw(arrays(np.int64, shape,
                                 elements=st.integers(0, group_count - 1)))
        got = _span_samples(_FixedDraws(draws), shape[0], group_count, shape[1])
        assert got.tolist() == [cyclic_span(group_count, row) for row in draws]


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
    @pytest.mark.parametrize("group_count", [1, 2, 4, 10, 32, 64])
    @pytest.mark.parametrize("slices", [1, 2, 5, "more-than-L"])
    def test_matches_rotation_oracle(self, group_count, slices):
        slices = group_count + 3 if slices == "more-than-L" else slices
        seed = 1000 * group_count + slices
        got = _comm_cost_samples(np.random.default_rng(seed), 500,
                                 group_count, slices)
        draws = np.random.default_rng(seed).integers(
            0, group_count, size=(500, slices))
        assert got.dtype == np.float64
        assert got.tobytes() == oracle_comm_cost(group_count, draws).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_matrix_matches_rotation_oracle(self, data):
        group_count = data.draw(st.integers(1, 40))
        shape = data.draw(st.tuples(st.integers(1, 12), st.integers(1, 25)))
        draws = data.draw(arrays(np.int64, shape,
                                 elements=st.integers(0, group_count - 1)))
        got = _comm_cost_samples(_FixedDraws(draws), shape[0], group_count,
                                 shape[1])
        assert got.tobytes() == oracle_comm_cost(group_count, draws).tobytes()


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
    matrix one block at a time, for the rows still drawing."""

    def __init__(self, draws, times):
        self.draws, self.times = draws, np.array(times)
        self.base = 0

    def integers(self, low, high, size):
        rows = np.flatnonzero(self.times > self.base)
        assert (low, size) == (0, (rows.size, _BLOCK))
        block = self.draws[rows, self.base:self.base + _BLOCK]
        self.base += _BLOCK
        return block


class TestCoverageKernel:
    HEADS = [1, 10, 63, 64, 65, 130]

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


class TestEstimateSemantics:
    def test_zscore_exact_match_with_zero_variance(self):
        est = MCEstimate(mean=5.0, stderr=0.0, trials=1000)
        assert est.zscore(5.0) == 0.0
        assert est.consistent_with(5.0)

    def test_zscore_mismatch_with_zero_variance(self):
        est = MCEstimate(mean=5.0, stderr=0.0, trials=1000)
        assert math.isinf(est.zscore(5.1))
        assert not est.consistent_with(5.1)

    def test_zero_variance_rounding_is_a_match(self):
        # The L=6, r=1 remaining-data row at 1,000 samples: a deterministic
        # value rounded along two paths, two ulps apart.
        est = MCEstimate(mean=833.3333333333335, stderr=0.0, trials=1000)
        assert est.zscore(833.3333333333333) == 0.0
        assert est.consistent_with(833.3333333333333)

    @pytest.mark.parametrize("ulps", [ZERO_VARIANCE_ULPS + 1, 8, 64])
    def test_zero_variance_several_ulps_off_is_inf(self, ulps):
        reference = 833.3333333333333
        mean = reference + ulps * np.spacing(reference)
        for value in (mean, reference - (mean - reference)):
            est = MCEstimate(mean=value, stderr=0.0, trials=1000)
            assert math.isinf(est.zscore(reference))
            assert not est.consistent_with(reference, k=1e300)

    def test_single_trial_is_uninformative(self):
        est = mc_expected_span(6, 2, MCConfig(trials=1, seed=0))
        assert est.trials == 1
        assert math.isinf(est.stderr)
        assert est.zscore(3.0) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MCConfig(trials=0)


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

    def test_rare_event_rows_excluded(self):
        rows = validation_grid(MCConfig(trials=1000, seed=0))
        params = [r.params for r in rows
                  if r.quantity == "expected_remaining_fedcio"]
        assert not any("c=2;r=20" in p for p in params)
        assert any("c=5;r=20" in p for p in params)
