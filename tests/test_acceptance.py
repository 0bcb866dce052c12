"""Acceptance gate: ten end-to-end criteria, one test (and one printed
pass/fail line) per criterion. Tolerances are pinned in the assertions.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
verdicts, add ``-s`` for the measured numbers behind them.
"""

import json
import time

import numpy as np
import pytest

from fedsgt import analytics
from fedsgt.cli import main as cli_main
from fedsgt.dataset import synth_dataset
from fedsgt.fltrain import (CostMeter, TrainConfig, evaluate, fedavg_train,
                            matrix_accuracy, train_fedsgt)
from fedsgt.grouping import build_grouping
from fedsgt.montecarlo import MCConfig, validation_grid
from fedsgt.sequencing import (apply_deletion, build_sequences, cyclic_span,
                               fresh_state, select_allseq, select_longseq,
                               select_minseq, state_from_deleted)
from fedsgt.unlearn import (exactness_audit, fedsgt_system, process_request,
                            race_failure_steps, train_clusters,
                            uniform_requests)

ACCEPT = dict(clients=10, samples_per_client=200, dim=20, classes=5,
              slices_per_client=5, test_samples=500)


def report(number: int, detail: str) -> None:
    print(f"\ncriterion-{number:02d} PASS: {detail}")


def test_criterion_01_closed_form_deletion_rates(tmp_path):
    start = time.perf_counter()
    code = cli_main(["analyze", "--groups", "10", "--budget", "10",
                     "--clusters", "5", "--out", str(tmp_path / "a")])
    elapsed = time.perf_counter() - start
    assert code == 0
    doc = json.loads((tmp_path / "a" / "analyze.json").read_text())
    sgt = doc["deletion_rate"]["fedsgt"]
    cio = doc["deletion_rate"]["fedcio"]
    assert sgt == pytest.approx(29.2897, abs=1e-4)
    assert cio == pytest.approx(11.4167, abs=1e-4)
    assert elapsed < 1.0, elapsed
    report(1, f"deletion rates {sgt:.4f} / {cio:.4f} "
              f"(targets 29.2897 / 11.4167), analyze in {elapsed:.2f}s < 1s")


def test_criterion_02_monte_carlo_certifies_closed_forms():
    start = time.perf_counter()
    rows = validation_grid(MCConfig(trials=200_000, seed=0), workers=4)
    elapsed = time.perf_counter() - start
    assert len(rows) >= 40
    worst = max(abs(r.zscore) for r in rows)
    offenders = [(r.quantity, r.params, r.zscore) for r in rows
                 if abs(r.zscore) > 3.0]
    assert not offenders, offenders
    assert elapsed < 120.0, elapsed
    report(2, f"{len(rows)} closed forms at 200k trials, max |z| = "
              f"{worst:.3f} <= 3, {elapsed:.1f}s < 120s")


def test_criterion_03_sequential_survival_table():
    start = time.perf_counter()
    seqs = build_sequences(6, 6)
    state = fresh_state(seqs)
    observed = []
    for g in (1, 5, 2):
        state = apply_deletion(state, seqs, g)
        observed.append(state.active_len)
    assert observed[0] == (1, 2, 3, 4, 5, 0)
    assert observed[1] == (1, 0, 1, 2, 3, 0)
    assert observed[2] == (1, 0, 1, 2, 0, 0)
    assert select_longseq(state, seqs) == 3
    assert select_minseq(state, seqs) == {0, 3}
    weights = dict(select_allseq(state, seqs))
    assert weights == {0: pytest.approx(0.25), 2: pytest.approx(0.25),
                       3: pytest.approx(0.5)}
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(3, "nine survival-table cells for deletions (1,5,2) at L=B=6 "
              f"plus all three serving selections, {elapsed * 1e3:.0f}ms")


def test_criterion_04_span_prefix_duality():
    seqs = build_sequences(6, 6)
    for mask in range(64):
        deleted = frozenset(g for g in range(6) if mask >> g & 1)
        state = state_from_deleted(seqs, deleted)
        assert cyclic_span(6, deleted) + max(state.active_len) == 6, deleted
    seqs10 = build_sequences(10, 10)
    rng = np.random.default_rng(0)
    for _ in range(200):
        deleted = frozenset(int(g) for g in
                            rng.choice(10, size=rng.integers(0, 11),
                                       replace=False))
        state = state_from_deleted(seqs10, deleted)
        assert cyclic_span(10, deleted) + max(state.active_len) == 10
    report(4, "span + longest surviving prefix = L on all 64 subsets at "
              "L=6 and 200 random subsets at L=10")


def test_criterion_05_expected_remaining_dominance():
    margins = []
    for r in range(1, 26):
        sgt = analytics.expected_remaining_fedsgt(50_000, 10, r)
        cio = analytics.expected_remaining_fedcio(50_000, 5, r)
        assert sgt >= cio, (r, sgt, cio)
        margins.append(sgt - cio)
    report(5, "E[remaining] FedSGT >= FedCIO for r = 1..25 at D=50000, "
              f"L=10 vs c=5; tightest margin {min(margins):.0f} samples")


def test_criterion_06_failure_race_over_shared_streams():
    ds = synth_dataset(alpha=0.3, seed=0, **ACCEPT)
    plan = build_grouping(ds.slice_catalog(), 10, 0)
    seqs = build_sequences(10, 10, 0)
    outcomes = [race_failure_steps(plan, seqs, clusters=5, seed=seed)
                for seed in range(50)]
    wins = sum(sgt > cio for sgt, cio in outcomes)
    losses = sum(sgt < cio for sgt, cio in outcomes)
    assert wins >= 48, (wins, losses)  # >= 95% of 50
    report(6, f"FedSGT outlasted FedCIO on {wins}/50 shared request "
              f"streams ({losses} losses); bound is 48")


def test_criterion_07_noniid_accuracy_band():
    def sgt_accuracy(seed, alpha):
        ds = synth_dataset(alpha=alpha, seed=seed, **ACCEPT)
        plan = build_grouping(ds.slice_catalog(), 10, seed)
        seqs = build_sequences(10, 10, seed)
        cfg = TrainConfig(epochs=3, lr=0.1, batch_size=32, seed=seed)
        model = train_fedsgt(ds, plan, seqs, cfg)
        return evaluate(model, fresh_state(seqs), "allseq",
                        ds.test_x, ds.test_y), ds

    noniid, iid, cio = [], [], []
    for seed in range(10):
        acc, ds = sgt_accuracy(seed, 0.3)
        noniid.append(acc)
        iid.append(sgt_accuracy(seed, None)[0])
        cfg = TrainConfig(epochs=3, lr=0.1, batch_size=32, seed=seed)
        models = train_clusters(ds, 5, cfg, rounds=10)
        cio.append(matrix_accuracy([models[c] for c in sorted(models)],
                                   ds.test_x, ds.test_y))
    gap = float(np.mean(iid) - np.mean(noniid))
    lead = float(np.mean(noniid) - np.mean(cio))
    assert gap <= 0.05, gap
    assert lead > 0.0, lead
    report(7, f"10-seed means: non-IID {np.mean(noniid):.4f} vs IID "
              f"{np.mean(iid):.4f} (gap {gap * 100:.1f} < 5 points), "
              f"FedCIO {np.mean(cio):.4f} (+{lead * 100:.1f} points)")


def test_criterion_08_training_reproducibility(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "repro", "seed": 21, "clients": 6,
        "slices_per_client": 2, "groups": 6, "budget": 6, "clusters": 3,
        "dataset": {"kind": "synthetic", "samples_per_client": 80, "dim": 10,
                    "classes": 4, "alpha": 0.3, "test_samples": 100},
        "trainer": {"epochs": 2, "lr": 0.1, "batch_size": 16},
        "requests": {"count": 0, "seed": 0}}))
    assert cli_main(["train", "--config", str(config),
                     "--out", str(tmp_path / "r1")]) == 0
    assert cli_main(["train", "--config", str(tmp_path / "r1/manifest.json"),
                     "--out", str(tmp_path / "r2")]) == 0
    bank1 = (tmp_path / "r1/bank.fsgt").read_bytes()
    bank2 = (tmp_path / "r2/bank.fsgt").read_bytes()
    assert bank1 == bank2
    assert (tmp_path / "r1/plan.json").read_text() == \
        (tmp_path / "r2/plan.json").read_text()
    report(8, f"manifest rerun reproduced the {len(bank1)}-byte bank and "
              "plan byte for byte")


def test_criterion_09_exactness_audit_every_request():
    start = time.perf_counter()
    ds = synth_dataset(alpha=0.3, seed=0, **ACCEPT)
    plan = build_grouping(ds.slice_catalog(), 10, 0)
    seqs = build_sequences(10, 10, 0)
    cfg = TrainConfig(epochs=3, lr=0.1, batch_size=32, seed=0)
    model = train_fedsgt(ds, plan, seqs, cfg)
    system = fedsgt_system(plan, seqs, "allseq", model, ds)
    modules_checked = 0
    for req in uniform_requests(ds.slice_catalog(), 30, seed=7,
                                record_count=40):
        process_request(system, req)
        audit = exactness_audit(model, plan, cfg, ds, system.state.deleted)
        assert audit.passed, audit.first_mismatch
        modules_checked += audit.modules_checked
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, elapsed
    report(9, f"30 requests each followed by a from-scratch retrain audit "
              f"({modules_checked} module comparisons, all bit-exact), "
              f"{elapsed:.1f}s < 300s; {system.state.surviving} sequences "
              "still serving")


def test_criterion_10_cost_bookkeeping_is_exact():
    # N=4 clients x 100 samples, one slice each, L=B=T=4, E=2:
    # closed forms FedAvg = FedCIO = T*E*D*P*L, FedSGT = B*E*(L+1)/2*D*P
    ds = synth_dataset(clients=4, samples_per_client=100, dim=6, classes=3,
                       alpha=None, seed=1, slices_per_client=1,
                       test_samples=60)
    plan = build_grouping(ds.slice_catalog(), 4, 1)
    seqs = build_sequences(4, 4, 1)
    cfg = TrainConfig(epochs=2, lr=0.1, batch_size=32, seed=1)
    P, D, L, B, T, E = 6 * 3, 400, 4, 4, 4, 2

    meter_sgt = CostMeter()
    train_fedsgt(ds, plan, seqs, cfg, meter=meter_sgt)
    assert meter_sgt.updates == B * E * (L + 1) * D * P // 2

    flat = {c: (np.concatenate(list(ds.train_x[c])),
                np.concatenate(list(ds.train_y[c]))) for c in range(4)}
    meter_avg = CostMeter()
    fedavg_train(flat, classes=3, dim=6, rounds=T, cfg=cfg, meter=meter_avg,
                 cost_modules=L)
    assert meter_avg.updates == T * E * D * P * L

    meter_cio = CostMeter()
    train_clusters(ds, 2, cfg, rounds=T, meter=meter_cio, adapter_stack=L)
    assert meter_cio.updates == T * E * D * P * L

    params = analytics.AnalyticParams(group_count=L, budget=B,
                                      total_samples=D, rounds=T, epochs=E,
                                      adapter_params=P)
    assert meter_sgt.updates == analytics.training_cost("FedSGT", params)
    assert meter_avg.updates == analytics.training_cost("FedAvg", params)
    assert meter_cio.updates == analytics.training_cost("FedCIO", params)
    report(10, f"measured updates FedSGT={meter_sgt.updates} "
               f"FedAvg=FedCIO={meter_avg.updates} equal the closed forms "
               "exactly (N=4, L=B=T=4, E=2)")
