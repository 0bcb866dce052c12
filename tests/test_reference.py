"""The benchmark's reference case in tier-1: the acceptance point at seed 0
(10 clients x 5 slices x 200 samples, d = 20, k = 5, L = B = 10), whose
plan, bank and timeline digests ``perfbench/reference.json`` pins. The
file is only read here.

The plan is pure Python and is pinned on every host. The bank and timeline
bytes come from numpy's and OpenBLAS's kernels, whose low bits depend on the
SIMD path (ROADMAP item 6), and the reference was taken on an AVX-512 host;
elsewhere those digests are skipped, not loosened.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fedsgt import bank, fltrain, grouping, unlearn
from fedsgt.dataset import synth_dataset
from fedsgt.sequencing import build_sequences

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def has_avx512() -> bool:
    try:
        with open("/proc/cpuinfo") as fh:
            return any("avx512f" in line.split() for line in fh)
    except OSError:
        return False


@pytest.fixture(scope="module")
def want():
    return json.loads(REFERENCE.read_text())["accept_seed0"]["sha256"]


@pytest.fixture(scope="module")
def point():
    ds = synth_dataset(clients=10, samples_per_client=200, dim=20, classes=5,
                       slices_per_client=5, test_samples=500, alpha=0.3, seed=0)
    plan = grouping.build_grouping(ds.slice_catalog(), 10, 0)
    return ds, plan


def test_plan_digest(want, point):
    _, plan = point
    assert sha256(grouping.plan_to_json(plan).encode()) == want["plan"]


@pytest.mark.skipif(not has_avx512(), reason="the reference bank and timeline "
                    "bytes were taken on an AVX-512 host (ROADMAP item 6)")
def test_bank_and_timeline_digests(want, point, tmp_path):
    ds, plan = point
    seqs = build_sequences(10, 10, 0)
    cfg = fltrain.TrainConfig(epochs=3, lr=0.1, batch_size=32, seed=0)
    model = fltrain.train_fedsgt(ds, plan, seqs, cfg)
    path = tmp_path / "out"
    bank.write_bank(path, model)
    got = {"bank": sha256(path.read_bytes())}

    def timeline(records) -> str:
        unlearn.write_timeline(path, records)
        return sha256(path.read_bytes())

    requests = unlearn.uniform_requests(ds.slice_catalog(), 30, 7, record_count=40)
    for strategy in ("allseq", "minseq", "longseq"):
        system = unlearn.fedsgt_system(plan, seqs, strategy, model, ds)
        got[f"timeline_{strategy}"] = timeline(unlearn.run_stream(system, requests))
    got["timeline_fedcio"] = timeline(
        unlearn.fedcio_simulate(ds, 5, cfg, requests, rounds=10))
    got["timeline_fedretrain"] = timeline(
        unlearn.fedretrain_simulate(ds, cfg, requests, eval_every=5, rounds=10))
    assert got == {key: value for key, value in want.items() if key != "plan"}
