"""A serving run's timeline replays to its other outputs.

Every output of a FedSGT serving run is a function of the plan, the
sequences and the request list, and the timeline carries enough to rebuild
the rest: each row's ``group:g`` unit gives the deleted set and its notes
give the slice, the records asked for and the ``remaining=`` count. The
fold below reads only the CSV text, the plan's slices and
``state_from_deleted``, so it derives ``final_state.json`` and the failure
step and step count of ``summary.json`` a second, independent way.
"""

import csv
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fedsgt.cli import build_dataset, build_plan, load_config_file, main
from fedsgt.grouping import SliceRef, build_grouping
from fedsgt.sequencing import build_sequences, state_from_deleted, state_to_json
from fedsgt.unlearn import (UnlearnRequest, fedsgt_system, run_stream,
                            timeline_summary, write_timeline)


def replay(text, plan, seqs):
    """The FedSGT rows of a timeline's CSV text folded in order into
    (step, deleted groups, records booked, surviving, status). Each row's
    slice must lie in its group, its ``remaining=`` note must equal the
    plan's samples less the records booked (a request books at most what
    its slice still holds), and its surviving count and status must be
    those of the deleted set."""
    deleted, booked, folds = set(), {}, []
    for row in csv.DictReader(io.StringIO(text)):
        if row["method"] != "FedSGT":
            continue
        if row["notes"] != "baseline":
            group = int(row["affected_unit"].removeprefix("group:"))
            note = dict(part.split("=") for part in row["notes"].split())
            ref = SliceRef(*map(int, note["slice"].strip("()").split(",")))
            assert ref in plan.groups[group], row
            deleted.add(group)
            booked[ref] = min(plan.sizes[ref],
                              booked.get(ref, 0) + int(note["records"]))
            assert int(note["remaining"]) == \
                plan.total_samples - sum(booked.values()), row
        surviving = state_from_deleted(seqs, deleted).surviving
        status = "available" if surviving else "failed"
        folds.append((int(row["step"]), frozenset(deleted),
                      sum(booked.values()), surviving, status))
        assert (int(row["surviving"]), row["status"]) == (surviving, status), row
    return folds


def check_replay(text, plan, seqs, summary, final_state=None):
    """The fold of ``text`` gives the run's failure step, step count and,
    when given, its ``final_state.json`` text."""
    folds = replay(text, plan, seqs)
    steps, deleted, *_ = folds[-1]
    assert summary["failure_step"] == next(
        (step for step, *_, status in folds if status == "failed"), None)
    assert summary["steps"] == steps
    if final_state is not None:
        assert final_state == state_to_json(state_from_deleted(seqs, deleted))
    return folds


@st.composite
def served_runs(draw):
    """A plan with L, B <= 4 over 1-3 clients of 1-3 slices of 1-5 records,
    and up to 12 requests drawn with repeats; each asks for 1 to 3 records
    more than its slice holds at most, capped at the slice size as a
    request script is, so whole-slice and capped requests both occur."""
    clients = draw(st.integers(1, 3))
    catalog = [(SliceRef(c, s), draw(st.integers(1, 5)))
               for c in range(clients) for s in range(draw(st.integers(1, 3)))]
    groups = draw(st.integers(1, min(4, len(catalog))))
    budget = draw(st.integers(1, min(4, math.factorial(groups))))
    seed = draw(st.integers(0, 3))
    plan = build_grouping(catalog, groups, seed)
    requests = [UnlearnRequest(ref, min(size, draw(st.integers(1, size + 3))))
                for ref, size in draw(st.lists(st.sampled_from(catalog),
                                               max_size=12))]
    return plan, build_sequences(groups, budget, seed), requests


@settings(max_examples=60, deadline=None)
@given(served_runs())
def test_timeline_replays_to_the_run_in_process(tmp_path_factory, run):
    plan, seqs, requests = run
    system = fedsgt_system(plan, seqs)
    records = run_stream(system, requests)
    path = tmp_path_factory.mktemp("replay") / "timeline.csv"
    write_timeline(path, records)
    folds = check_replay(path.read_text(), plan, seqs, timeline_summary(records),
                         state_to_json(system.state))
    assert folds[-1][2] == sum(system.removed.values())


CONFIG = {
    "seed": 3, "clients": 3, "slices_per_client": 2, "groups": 3, "budget": 3,
    "clusters": 3,
    "dataset": {"samples_per_client": 20, "dim": 4, "classes": 2,
                "test_samples": 20},
    "trainer": {"epochs": 0, "fedavg_rounds": 1},
    # Slices hold 10 records: a repeat, a whole slice (no records), a
    # request capped at the slice size and one that empties a slice.
    "requests": {"script": [{"client": 0, "slice": 1, "records": 4},
                            {"client": 0, "slice": 1, "records": 4},
                            {"client": 2, "slice": 0},
                            {"client": 1, "slice": 1, "records": 99},
                            {"client": 0, "slice": 1, "records": 5},
                            {"client": 1, "slice": 0, "records": 1},
                            {"client": 2, "slice": 1, "records": 3}]},
}


def plan_and_sequences(config_path):
    cfg = load_config_file(config_path)
    return (build_plan(cfg, build_dataset(cfg)),
            build_sequences(cfg.groups, cfg.budget, cfg.seed))


def test_unlearn_outputs_replay_from_its_timeline(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main(["train", "--config", str(config), "--out",
                 str(tmp_path / "run")]) == 0
    out = tmp_path / "unlearn"
    assert main(["unlearn", "--bank", str(tmp_path / "run" / "bank.fsgt"),
                 "--count", "12", "--request-seed", "1", "--record-count", "6",
                 "--out", str(out)]) == 0
    plan, seqs = plan_and_sequences(config)
    folds = check_replay((out / "timeline.csv").read_text(), plan, seqs,
                         json.loads((out / "summary.json").read_text()),
                         (out / "final_state.json").read_text())
    assert len(folds) == 13


def test_compare_fedsgt_rows_replay_to_its_summary(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
    plan, seqs = plan_and_sequences(config)
    folds = check_replay((out / "timeline.csv").read_text(), plan, seqs,
                         json.loads((out / "compare.json").read_text())["fedsgt"])
    # Two of the script's requests ask for more than their slice still holds.
    assert folds[-1][2] == 4 + 4 + 10 + 10 + 2 + 1 + 3
