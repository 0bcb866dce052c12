"""The three benchmark workloads and their correctness gate.

Every workload is a closed loop with one caller. ``setup`` builds the inputs
from the workload seed, ``run_pass`` performs pass ``index`` of the workload's
operations and adds its timings to a ``Timings``, and ``stages`` turns those
into the four stage metrics. Checks never run inside a timed region.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from fedsgt import (analytics, bank, cli, dataset, fltrain, grouping,
                    montecarlo, sequencing, unlearn)

import tracing

clock = time.perf_counter

# Acceptance point (README, criteria 7-10) and the larger serving point.
ACCEPT_POINT = dict(clients=10, samples_per_client=200, dim=20, classes=5,
                    slices_per_client=5, test_samples=500)
SERVE_POINT = dict(clients=32, samples_per_client=200, dim=20, classes=5,
                   slices_per_client=4, test_samples=5000)
ALPHA = 0.3
STRATEGIES = ("allseq", "minseq", "longseq")

# A correct program passes |z| <= 5 at any seed: over the ~53 grid rows and
# three large-L estimates of one pass, P(|z| > 5) is about 3e-5.
Z_BOUND = 5.0


def load_reference() -> dict:
    """Digests and counts pinned for the seed-0 reference case and analyze."""
    return json.loads((Path(__file__).parent / "reference.json").read_text())


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str:
    return sha256(path.read_bytes())


# Wall time on this kind of shared machine swings by up to 1.7x over tens of
# seconds, and every workload slows together. Each stage is therefore paired
# with a fixed calibration kernel timed just before it, and the stage metrics
# are reported at reference speed: wall time * CAL_REF_S / calibration time.
CAL_REF_S = 0.025
_CAL_RNG = np.random.default_rng(20251123)
_CAL_SMALL = (_CAL_RNG.standard_normal((32, 20)), _CAL_RNG.standard_normal((5, 20)))
_CAL_LARGE = _CAL_RNG.standard_normal((5000, 20))
_CAL_INTS = _CAL_RNG.integers(0, 32, size=(8192, 10))


def _calibration_work() -> None:
    x, w = _CAL_SMALL
    acc = Fraction(0)
    for j in range(800):
        acc += Fraction(math.comb(64, j % 40), 64 ** (j % 7) + j)
    for _ in range(1200):
        z = x @ w.T
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
    for _ in range(12):
        z = _CAL_LARGE @ w.T
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z).sum(axis=1)
    for _ in range(4):
        np.diff(np.sort(_CAL_INTS, axis=1), axis=1).max(axis=1)


def calibrate(threads: int = 1) -> float:
    """Seconds for a fixed mix of the work the workloads do (exact rational
    sums of binomials, small matrix steps in a Python loop, a 5,000-row
    softmax, a row-wise sort), run once in each of ``threads`` threads.
    Stages that run two Monte Carlo workers are paired with the two-thread
    form, which also slows when the second CPU is busy."""
    if threads == 1:
        t0 = clock()
        _calibration_work()
        return clock() - t0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        t0 = clock()
        for future in [pool.submit(_calibration_work) for _ in range(threads)]:
            future.result()
        return clock() - t0


class Timings:
    """Wall times per stage. Each is paired with the mean of the calibration
    times measured just before and just after it: ``calibrate()`` must be
    called before the first stage and after the last."""

    def __init__(self):
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.cal: dict[str, list[float]] = defaultdict(list)
        self._before = 0.0
        self._open: list[tuple[str, int]] = []

    def calibrate(self, threads: int = 1) -> None:
        now = calibrate(threads)
        for key, i in self._open:
            self.cal[key][i] = (self._before + now) / 2
        self._open.clear()
        self._before = now

    def add(self, key: str, seconds: float) -> None:
        self.raw[key].append(seconds)
        self.cal[key].append(self._before)
        self._open.append((key, len(self.raw[key]) - 1))

    def scaled(self, key: str) -> list[float]:
        """The stage's samples at reference speed."""
        return [r * CAL_REF_S / c for r, c in zip(self.raw[key], self.cal[key])]

    def center(self, key: str, scaled: bool = True) -> float:
        """Interquartile mean of the stage's samples: the mean of the middle
        half, or the middle value of fewer than four. With ten to twenty
        passes it spreads less between runs than the median does."""
        values = sorted(self.scaled(key) if scaled else self.raw[key])
        n = len(values)
        k = n // 4 if n >= 4 else (n - 1) // 2
        return statistics.mean(values[k:n - k])


@dataclass
class Tally:
    """Operations attempted and failed. An operation fails when any of the
    checks made on its output fails."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, *problems: str | None) -> None:
        self.attempted += 1
        found = [p for p in problems if p]
        if found:
            self.failed += 1
            self.problems.extend(found)


def expect(ok: bool, message: str) -> str | None:
    return None if ok else message


def prefix_lengths(seqs: sequencing.SequenceSet, deleted) -> list[int]:
    """Surviving prefix of each sequence, computed here rather than by the
    package, so the audit's module count is checked independently."""
    out = []
    for perm in seqs.perms:
        n = 0
        while n < len(perm) and perm[n] not in deleted:
            n += 1
        out.append(n)
    return out


def module_steps(ds: dataset.Dataset, plan: grouping.GroupingPlan,
                 seqs: sequencing.SequenceSet,
                 cfg: fltrain.TrainConfig) -> list[list[int]]:
    """Mini-batch steps that training module (sequence, phase) takes:
    epochs * sum over clients of ceil(cumulative samples / batch)."""
    sizes = plan.sizes
    table = []
    for perm in seqs.perms:
        per_client: dict[int, int] = {}
        row = []
        for g in perm:
            for ref in plan.groups[g]:
                per_client[ref.client_id] = per_client.get(ref.client_id, 0) + sizes[ref]
            row.append(cfg.epochs * sum(math.ceil(n / cfg.batch_size)
                                        for n in per_client.values()))
        table.append(row)
    return table


def timeline_sha(records, scratch: Path) -> str:
    path = scratch / "timeline.csv"
    unlearn.write_timeline(path, records)
    return file_sha256(path)


def models_equal(a: fltrain.ToyModel, b: fltrain.ToyModel) -> bool:
    return (a.backbone.tobytes() == b.backbone.tobytes()
            and a.sequences.perms == b.sequences.perms
            and all(x.group == y.group and x.samples == y.samples
                    and x.weights.tobytes() == y.weights.tobytes()
                    for sa, sb in zip(a.modules, b.modules)
                    for x, y in zip(sa, sb)))


def train_point(point: dict, groups: int, seed: int):
    ds = dataset.synth_dataset(alpha=ALPHA, seed=seed, **point)
    plan = grouping.build_grouping(ds.slice_catalog(), groups, seed)
    seqs = sequencing.build_sequences(groups, groups, seed)
    cfg = fltrain.TrainConfig(epochs=3, lr=0.1, batch_size=32, seed=seed)
    return ds, plan, seqs, cfg


def fedsgt_cost(ds: dataset.Dataset, groups: int, cfg: fltrain.TrainConfig) -> float:
    params = analytics.AnalyticParams(
        group_count=groups, budget=groups, total_samples=ds.total_samples,
        epochs=cfg.epochs, adapter_params=ds.dim * ds.classes)
    return analytics.training_cost("FedSGT", params)


def cio_failure_step(requests, clusters: int) -> int | None:
    hit = set()
    for step, req in enumerate(requests, start=1):
        hit.add(unlearn.cluster_of(req.target.client_id, clusters))
        if len(hit) == clusters:
            return step
    return None


# ---------------------------------------------------------------------------
# Reference case: the acceptance point at dataset seed 0, whose outputs are
# pinned in reference.json.
# ---------------------------------------------------------------------------


def reference_check(tally: Tally, scratch: Path) -> dict:
    """Retrain the acceptance point at seed 0 and compare bank, plan,
    timelines and exact counts with reference.json."""
    want = load_reference()["accept_seed0"]
    rec = tracing.Recorder()
    meter = fltrain.CostMeter()
    with rec:
        ds, plan, seqs, cfg = train_point(ACCEPT_POINT, 10, 0)
        model = fltrain.train_fedsgt(ds, plan, seqs, cfg, meter=meter)
    counts = {"rounds": rec.calls("fltrain.federated_round"),
              "participants": int(rec.values.get("participants", 0)),
              "minibatch_steps": int(rec.values.get("minibatch_steps", 0)),
              "updates": meter.updates}
    planned_steps = sum(map(sum, module_steps(ds, plan, seqs, cfg)))
    bank.write_bank(scratch / "reference.fsgt", model)
    got = {"bank": file_sha256(scratch / "reference.fsgt"),
           "plan": sha256(grouping.plan_to_json(plan))}
    requests = unlearn.uniform_requests(ds.slice_catalog(), 30, 7, record_count=40)
    for strategy in STRATEGIES:
        system = unlearn.fedsgt_system(plan, seqs, strategy, model, ds)
        got[f"timeline_{strategy}"] = timeline_sha(
            unlearn.run_stream(system, requests), scratch)
    got["timeline_fedcio"] = timeline_sha(
        unlearn.fedcio_simulate(ds, 5, cfg, requests, rounds=10), scratch)
    got["timeline_fedretrain"] = timeline_sha(
        unlearn.fedretrain_simulate(ds, cfg, requests, eval_every=5, rounds=10),
        scratch)
    rates = [round(analytics.deletion_rate_fedsgt(10, 10), 4),
             round(analytics.deletion_rate_fedcio(5), 4)]
    tally.op(*(expect(got[k] == want["sha256"][k], f"reference {k} digest differs")
               for k in want["sha256"]))
    tally.op(*(expect(counts[k] == want["counts"][k],
                      f"reference {k}: {counts[k]} != {want['counts'][k]}")
               for k in want["counts"]),
             expect(counts["updates"] == fedsgt_cost(ds, 10, cfg),
                    "CostMeter disagrees with training_cost"),
             expect(rec.values.get("updates") == meter.updates,
                    "traced updates disagree with CostMeter"),
             expect(counts["minibatch_steps"] == planned_steps,
                    "traced steps disagree with the plan's step count"))
    tally.op(expect(rates == want["deletion_rates"],
                    f"deletion rates {rates} != {want['deletion_rates']}"))
    return {"sha256": got, "counts": counts, "deletion_rates": rates}


# ---------------------------------------------------------------------------
# accept
# ---------------------------------------------------------------------------


class Accept:
    """Acceptance point: train, bank round trip, the criterion-9 stream with
    an audit after every request, then FedCIO and FedRetrain."""

    name = "accept"
    trace_passes = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.digests: dict[str, str] = {}

    def setup(self) -> None:
        self.ds, self.plan, self.seqs, self.cfg = train_point(
            ACCEPT_POINT, 10, self.seed)

    def prepare_checks(self) -> None:
        self.steps = module_steps(self.ds, self.plan, self.seqs, self.cfg)
        self.cost = fedsgt_cost(self.ds, 10, self.cfg)
        self.requests = unlearn.uniform_requests(
            self.ds.slice_catalog(), 30, self.seed * 1000 + 7, record_count=40)

    def _stable(self, key: str, digest: str) -> str | None:
        first = self.digests.setdefault(key, digest)
        return expect(first == digest, f"{key} differs between passes")

    def run_pass(self, index: int, times: Timings, tally: Tally) -> None:
        ds, plan, seqs, cfg = self.ds, self.plan, self.seqs, self.cfg
        path = self.scratch / "bank.fsgt"

        meter = fltrain.CostMeter()
        times.calibrate()
        t0 = clock()
        model = fltrain.train_fedsgt(ds, plan, seqs, cfg, meter=meter)
        bank.write_bank(path, model)
        loaded = bank.read_bank(path)
        times.add("train", clock() - t0)
        tally.op(self._stable("bank", file_sha256(path)),
                 expect(models_equal(model, loaded), "bank round trip changed the model"),
                 expect(meter.updates == self.cost,
                        f"CostMeter {meter.updates} != training_cost {self.cost}"))

        system = unlearn.fedsgt_system(plan, seqs, "allseq", loaded, ds)
        records, audit_s, certified = [], 0.0, 0
        times.calibrate()
        for req in self.requests:
            record = unlearn.process_request(system, req)
            records.append(record)
            deleted = system.state.deleted
            t0 = clock()
            report = unlearn.exactness_audit(loaded, plan, cfg, ds, deleted)
            audit_s += clock() - t0
            active = prefix_lengths(seqs, deleted)
            certified += sum(sum(row[:n]) for row, n in zip(self.steps, active))
            tally.op(expect(report.passed, f"audit failed at {report.first_mismatch}"),
                     expect(report.modules_checked == sum(active),
                            f"audit checked {report.modules_checked} modules, "
                            f"{sum(active)} survive"),
                     expect(record.surviving == sum(1 for n in active if n),
                            "timeline survivors disagree with the prefixes"))
        times.add("audit", audit_s)
        times.add("audit_per_kstep", 1e3 * audit_s / certified)
        tally.op(self._stable("timeline_fedsgt", timeline_sha(records, self.scratch)))

        times.calibrate()
        t0 = clock()
        cio = unlearn.fedcio_simulate(ds, 5, cfg, self.requests, rounds=10)
        times.add("fedcio", clock() - t0)
        times.calibrate()
        t0 = clock()
        retrain = unlearn.fedretrain_simulate(ds, cfg, self.requests,
                                              eval_every=5, rounds=10)
        times.add("fedretrain", clock() - t0)
        cio_fail = unlearn.timeline_summary(cio)["failure_step"]
        tally.op(self._stable("timeline_fedcio", timeline_sha(cio, self.scratch)),
                 expect(cio_fail == cio_failure_step(self.requests, 5),
                        "FedCIO failure step disagrees with cluster coverage"))
        tally.op(self._stable("timeline_fedretrain", timeline_sha(retrain, self.scratch)),
                 expect(all(r.utility is not None for r in retrain if r.step % 5 == 0),
                        "FedRetrain skipped a refit"))

    def reference(self, tally: Tally) -> dict:
        return reference_check(tally, self.scratch)

    def named(self, times: Timings) -> dict:
        raw = {k: times.center(k, scaled=False) for k in times.raw}
        return {"train_s": (raw["train"], "s"),
                "audit_s": (raw["audit"], "s"),
                "baselines_s": (raw["fedcio"] + raw["fedretrain"], "s"),
                "audit_ms_per_kstep": (1e3 * raw["audit_per_kstep"], "ms")}

    def stages(self, times: Timings) -> list[float]:
        return [1e3 * times.center(k) for k in
                ("train", "audit_per_kstep", "fedcio", "fedretrain")]


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


class Serve:
    """Larger point: the bank is trained in set-up, then deletion streams
    run under each strategy until service fails, and every
    ``process_request`` is timed."""

    name = "serve"
    trace_passes = 6

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.bank_digests: list[str] = []

    def setup(self) -> None:
        self.ds, self.plan, self.seqs, self.cfg = train_point(
            SERVE_POINT, 16, self.seed)
        self.model = fltrain.train_fedsgt(self.ds, self.plan, self.seqs, self.cfg)

    def prepare_checks(self) -> None:
        path = self.scratch / "serve.fsgt"
        bank.write_bank(path, self.model)
        self.bank_digests.append(file_sha256(path))

    def run_pass(self, index: int, times: Timings, tally: Tally) -> None:
        """Stream ``index`` of requests, served under every strategy in turn."""
        catalog = self.ds.slice_catalog()
        survivors = None
        times.calibrate()
        for strategy in STRATEGIES:
            system = unlearn.fedsgt_system(self.plan, self.seqs, strategy,
                                           self.model, self.ds)
            stream = unlearn.request_stream(catalog, self.seed * 100_000 + index)
            deleted, seen = set(), []
            while not system.state.all_dead:
                req = next(stream)
                t0 = clock()
                record = unlearn.process_request(system, req)
                times.add(strategy, clock() - t0)
                deleted.add(grouping.group_of(self.plan, req.target))
                alive = sum(1 for n in prefix_lengths(self.seqs, deleted) if n)
                seen.append(record.surviving)
                tally.op(expect(record.surviving == alive,
                                f"{strategy}: {record.surviving} survivors, expected {alive}"),
                         expect((record.utility is None) == (alive == 0)
                                and (record.utility is None or 0 <= record.utility <= 1),
                                f"{strategy}: bad utility {record.utility}"))
            if survivors is None:
                survivors = seen
            tally.op(expect(seen == survivors,
                            f"{strategy} stream {index} fails at another step"))

    def reference(self, tally: Tally) -> dict:
        tally.op(expect(len(set(self.bank_digests)) == 1,
                        "set-up trained different banks"))
        return reference_check(tally, self.scratch)

    @staticmethod
    def _latencies(times: Timings, scaled: bool) -> list[float]:
        per = {s: times.scaled(s) if scaled else times.raw[s] for s in STRATEGIES}
        pooled = [x for s in STRATEGIES for x in per[s]]
        return [1e3 * float(np.percentile(per[s], 50)) for s in STRATEGIES] + \
            [1e3 * float(np.percentile(pooled, 99))]

    def named(self, times: Timings) -> dict:
        values = self._latencies(times, scaled=False)
        names = [f"delete_{s}_p50_ms" for s in STRATEGIES] + ["delete_p99_ms"]
        out = {n: (v, "ms") for n, v in zip(names, values)}
        out["requests"] = (sum(len(times.raw[s]) for s in STRATEGIES), "count")
        return out

    def stages(self, times: Timings) -> list[float]:
        return self._latencies(times, scaled=True)


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


ANALYZE_RUNS = {
    "analyze10": [],
    "analyze64": ["--groups", "64", "--budget", "64", "--max-requests", "50"],
}
ANALYZE_FILES = ("analyze.json", "deletion_rates.csv", "remaining_curve.csv",
                 "comm_cost.csv", "training_cost.csv")


class MonteCarlo:
    """Analytics and Monte Carlo only, no model: the validate command, both
    analyze commands, and three estimators at L=32 (the Python span path)."""

    name = "mc"
    trace_passes = 1
    # 50k rather than 200k trials, and 50 rather than 100 requests for the
    # L=64 curve, give about ten passes in 30 s instead of three.
    trials = 50_000

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.digests: dict[str, str] = {}
        self.closed = {
            "span": analytics.expected_span(32, 10),
            "remaining": analytics.expected_remaining_fedsgt(50_000, 32, 10),
            "rate": analytics.deletion_rate_fedsgt(32, 32),
        }

    def setup(self) -> None:
        """Start a fresh interpreter and import the CLI: the cost a user pays
        before the first command runs."""
        src = Path(sys.modules["fedsgt"].__file__).parents[1]
        subprocess.run([sys.executable, "-c", "import fedsgt.cli"], check=True,
                       env={**os.environ, "PYTHONPATH": str(src)})

    def prepare_checks(self) -> None:
        pass

    def run_pass(self, index: int, times: Timings, tally: Tally) -> None:
        out = self.scratch / "validate"
        times.calibrate(threads=2)
        t0 = clock()
        rc = _cli(["validate", "--trials", str(self.trials), "--workers", "2",
                   "--seed", str(self.seed), "--out", str(out)])
        times.add("validate", clock() - t0)
        with (out / "validation.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        worst = max(abs(float(r["zscore"])) for r in rows)
        self.worst_z = worst
        first = self.digests.setdefault("validation", file_sha256(out / "validation.csv"))
        tally.op(expect(rc in (cli.EXIT_OK, cli.EXIT_VALIDATION), f"validate exit {rc}"),
                 expect(worst <= Z_BOUND, f"validation max |z| {worst:.2f} > {Z_BOUND}"),
                 expect(first == file_sha256(out / "validation.csv"),
                        "validation.csv differs between passes"))

        cfg = montecarlo.MCConfig(trials=self.trials, seed=self.seed)
        times.calibrate(threads=2)
        t0 = clock()
        est = {"span": montecarlo.mc_expected_span(32, 10, cfg, workers=2),
               "remaining": montecarlo.mc_expected_remaining(
                   "FedSGT", 50_000, 32, 10, cfg, workers=2)}
        times.add("mc_span_path", clock() - t0)
        times.calibrate(threads=2)
        t0 = clock()
        est["rate"] = montecarlo.mc_deletion_rate_fedsgt(32, 32, cfg, workers=2)
        times.add("mc_coverage_path", clock() - t0)
        times.calibrate(threads=2)
        z = {k: abs(e.zscore(self.closed[k])) for k, e in est.items()}
        self.worst_z = max(self.worst_z, *z.values())
        tally.op(*(expect(v <= Z_BOUND, f"L=32 {k}: |z| {v:.2f} > {Z_BOUND}")
                   for k, v in z.items()))

        reference = load_reference()
        want = reference["analyze"]
        times.calibrate()
        analyze_s = 0.0
        for key, extra in ANALYZE_RUNS.items():
            out = self.scratch / key
            t0 = clock()
            rc = _cli(["analyze", *extra, "--out", str(out)])
            analyze_s += clock() - t0
            got = {f: file_sha256(out / f) for f in ANALYZE_FILES}
            self.digests[key] = got
            tally.op(expect(rc == cli.EXIT_OK, f"{key} exit {rc}"),
                     *(expect(got[f] == want[key][f], f"{key} {f} digest differs")
                       for f in ANALYZE_FILES))
        times.add("analyze", analyze_s)
        times.calibrate()
        with (self.scratch / "analyze10" / "deletion_rates.csv").open() as fh:
            rates = [round(float(r["expected_requests_to_failure"]), 4)
                     for r in csv.DictReader(fh)]
        tally.op(expect(rates == reference["accept_seed0"]["deletion_rates"],
                        f"analyze deletion rates {rates}"))

    def reference(self, tally: Tally) -> dict:
        return {"worst_abs_z": self.worst_z, "sha256": self.digests}

    def named(self, times: Timings) -> dict:
        raw = {k: times.center(k, scaled=False) for k in times.raw}
        return {"validate_s": (raw["validate"], "s"),
                "mc_large_s": (raw["mc_span_path"] + raw["mc_coverage_path"], "s"),
                "analyze_s": (raw["analyze"], "s")}

    def stages(self, times: Timings) -> list[float]:
        return [1e3 * times.center(k) for k in
                ("validate", "mc_span_path", "analyze", "mc_coverage_path")]


WORKLOADS = {w.name: w for w in (Accept, Serve, MonteCarlo)}
