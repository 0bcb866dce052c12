"""End to end: train a sequential system, stream deletion requests at it,
audit exactness after every request, and race the baselines on the same
stream.

The audit is the point of the whole construction: after any deletion, the
modules still being served can be reproduced bit for bit by retraining from
scratch on the surviving prefix data. Nothing served ever depended on the
deleted records.

Run: python demos/train_unlearn_audit.py
"""

import numpy as np

from fedsgt.dataset import synth_dataset
from fedsgt.fltrain import CostMeter, TrainConfig, train_fedsgt
from fedsgt.grouping import build_grouping
from fedsgt.sequencing import build_sequences
from fedsgt.unlearn import (exactness_audit, fedcio_simulate,
                            fedretrain_simulate, fedsgt_system,
                            process_request, timeline_summary,
                            uniform_requests)

ds = synth_dataset(clients=10, samples_per_client=200, dim=20, classes=5,
                   alpha=0.3, seed=0, slices_per_client=5, test_samples=500)
plan = build_grouping(ds.slice_catalog(), 10, seed=0)
seqs = build_sequences(10, 10, seed=0)
cfg = TrainConfig(epochs=3, lr=0.1, batch_size=32, seed=0)

meter = CostMeter()
model = train_fedsgt(ds, plan, seqs, cfg, meter=meter)
print(f"trained {len(seqs.perms)} sequences x {seqs.group_count} phases "
      f"({meter.updates:.2e} parameter updates)")

system = fedsgt_system(plan, seqs, "allseq", model, ds)
print(f"baseline accuracy: {system.utility():.3f}\n")

requests = uniform_requests(ds.slice_catalog(), 12, seed=7, record_count=40)
print(f"{'step':>4} {'deleted':>8} {'surviving':>9} {'accuracy':>8} audit")
records = []
for step, req in enumerate(requests, 1):
    rec = process_request(system, req)
    records.append(rec)
    audit = exactness_audit(model, plan, cfg, ds, system.state.deleted)
    acc = "  down  " if rec.utility is None else f"{rec.utility:8.3f}"
    print(f"{step:>4} {rec.affected_unit:>8} {rec.surviving:>9} {acc} "
          f"{'bit-exact' if audit.passed else 'MISMATCH at %s' % (audit.first_mismatch,)}")

print("\n=== Same request stream against the baselines ===")
requests = uniform_requests(ds.slice_catalog(), 12, seed=7, record_count=40)
cio = timeline_summary(fedcio_simulate(ds, 5, cfg, requests, rounds=10))
ret = timeline_summary(fedretrain_simulate(ds, cfg, requests, eval_every=4,
                                           rounds=10))
sgt = timeline_summary(records)


def verdict(summary):
    fs = summary["failure_step"]
    return "never failed" if fs is None else f"failed at request {fs}"


print(f"FedSGT:     {verdict(sgt)}, "
      f"{system.state.surviving}/{len(seqs.perms)} sequences alive, zero retraining")
print(f"FedCIO:     {verdict(cio)} (a hit cluster goes dark)")
print(f"FedRetrain: {verdict(ret)}, but paid full retraining downtime on "
      "every request")
