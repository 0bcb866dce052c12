"""Deletion streams, baselines, timelines, and the exactness audit."""

import copy
import csv
import dataclasses
import functools
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsgt.fltrain
import fedsgt.sequencing
import fedsgt.unlearn
from fedsgt.analytics import deletion_rate_fedcio, deletion_rate_fedsgt
from fedsgt.core import STREAM_TAGS, TrainingError
from fedsgt.dataset import synth_dataset
from fedsgt.fltrain import (CostMeter, TrainConfig, _build_stack, client_data,
                            evaluate, fedavg_train, matrix_accuracy,
                            sequence_logits, train_fedsgt)
from fedsgt.grouping import SliceRef, build_grouping, group_of
from fedsgt.sequencing import (SequenceSet, build_sequences, fresh_state,
                               state_from_deleted)
from fedsgt.unlearn import (FedSGTSystem, TimelineRecord, UnlearnRequest,
                            cluster_of,
                            exactness_audit, fedcio_simulate,
                            fedretrain_simulate, fedsgt_system,
                            process_request, race_failure_steps,
                            record_removal, request_stream, run_stream,
                            timeline_summary, train_clusters,
                            uniform_requests, write_timeline)


def build(seed=0, epochs=1, clients=4, groups=4, budget=4):
    ds = synth_dataset(clients=clients, samples_per_client=40, dim=6,
                       classes=3, alpha=None, seed=seed, slices_per_client=2,
                       test_samples=90)
    plan = build_grouping(ds.slice_catalog(), groups, seed)
    seqs = build_sequences(groups, budget, seed)
    cfg = TrainConfig(epochs=epochs, lr=0.1, batch_size=16, seed=seed)
    model = train_fedsgt(ds, plan, seqs, cfg)
    return ds, plan, seqs, cfg, model


class TestRequests:
    def test_stream_is_deterministic_and_capped(self):
        ds, *_ = build()
        cat = ds.slice_catalog()
        a = uniform_requests(cat, 10, seed=3, record_count=1000)
        b = uniform_requests(cat, 10, seed=3, record_count=1000)
        assert a == b
        for req in a:
            assert req.record_count == dict(cat)[req.target]

    def test_stream_seed_sensitivity(self):
        ds, *_ = build()
        cat = ds.slice_catalog()
        a = uniform_requests(cat, 12, seed=1, record_count=5)
        b = uniform_requests(cat, 12, seed=2, record_count=5)
        assert a != b

    def test_infinite_stream_covers_catalog(self):
        ds, *_ = build()
        cat = ds.slice_catalog()
        seen = set()
        stream = request_stream(cat, seed=0, record_count=1)
        for _ in range(300):
            seen.add(next(stream).target)
        assert seen == {ref for ref, _ in cat}

    def test_empty_catalogue_has_no_stream(self):
        with pytest.raises(ValueError, match="^empty slice catalog$"):
            next(request_stream([], seed=0))

    def test_record_count_validation(self):
        with pytest.raises(ValueError, match="record_count must be >= 1, got 0"):
            UnlearnRequest(target=SliceRef(0, 0), record_count=0)

    @pytest.mark.parametrize("count", [2.5, True], ids=["float", "bool"])
    def test_record_count_rejects_what_the_script_reader_rejects(self, count):
        # Both used to be accepted: FedRetrain then failed on 2.5 with a
        # TypeError in client_data, and booked True as one record.
        with pytest.raises(ValueError,
                           match=f"record_count: expected an integer, got {count}"):
            UnlearnRequest(SliceRef(0, 0), count)


class TestProcessRequest:
    def test_deletion_propagates_to_group(self):
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        target = SliceRef(0, 0)
        rec = process_request(system, UnlearnRequest(target, record_count=5))
        gid = group_of(plan, target)
        assert rec.affected_unit == f"group:{gid}"
        assert gid in system.state.deleted
        assert rec.utility is not None
        assert rec.surviving == system.state.surviving

    def test_unknown_slice_rejected_without_mutation(self):
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        before = system.state
        with pytest.raises(KeyError):
            process_request(system, UnlearnRequest(SliceRef(50, 0), 1))
        assert system.state == before and system.steps == 0

    def test_oversized_request_rejected_without_mutation(self):
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        before = system.state
        with pytest.raises(ValueError):
            process_request(system, UnlearnRequest(SliceRef(0, 0), 10_000))
        assert system.state == before and system.removed == {}

    def test_repeat_deletion_is_idempotent_on_state(self):
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        req = UnlearnRequest(SliceRef(1, 0), record_count=3)
        process_request(system, req)
        state_after_one = system.state
        process_request(system, req)
        assert system.state is state_after_one
        # record accounting still advances, capped at the slice size
        assert system.removed[SliceRef(1, 0)] == 6

    def test_repeat_deletion_rescores_and_rebuilds_nothing(self, monkeypatch):
        # A request to an already deleted group keeps the state object, so
        # it neither rebuilds a state nor scores the ensemble again.
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        req = UnlearnRequest(SliceRef(1, 0), record_count=3)
        first = process_request(system, req)
        calls = Counter()

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(fedsgt.unlearn, "evaluate")
        counted(fedsgt.sequencing, "state_from_deleted")
        again = process_request(system, req)
        assert calls == Counter()
        assert (again.surviving, again.utility) == (first.surviving, first.utility)
        # the counters are live: a request to a new group calls both once
        other = next(ref for ref in plan.sizes
                     if group_of(plan, ref) != group_of(plan, req.target))
        process_request(system, UnlearnRequest(other, 1))
        assert calls == Counter(evaluate=1, state_from_deleted=1)

    def test_other_sequence_family_rejected(self):
        # Past the four rotations the extra orders are drawn from the seed.
        # The state's prefixes come from the family passed in and the served
        # modules from the model's, so a mismatch would serve modules
        # trained on deleted groups.
        ds, plan, seqs, cfg, model = build(budget=8)
        other = build_sequences(4, 8, seed=1)
        assert other != seqs
        with pytest.raises(ValueError, match=re.escape(
                f"sequence 4: the model was trained in order {seqs.perms[4]}, "
                f"the family gives {other.perms[4]}")):
            fedsgt_system(plan, other, "allseq", model, ds)
        fedsgt_system(plan, build_sequences(4, 8, seed=0), "allseq", model, ds)

    @pytest.mark.parametrize("kind", ["plan", "budget", "dataset", "samples"])
    def test_contradicting_inputs_rejected_when_built(self, kind):
        # Each used to be accepted, or refused by another message. A 6-group
        # plan on a 4-group family booked a request to group 4 and then
        # raised; the others served modules that no run of these inputs
        # trains.
        ds, plan, seqs, cfg, model = build()
        other = synth_dataset(clients=4, samples_per_client=60, dim=7,
                              classes=2, alpha=None, seed=0,
                              slices_per_client=2, test_samples=90)
        inputs, message = {
            "plan": ((build_grouping(ds.slice_catalog(), 6, 0), seqs),
                     "the plan has 6 groups, the sequence family 4"),
            "budget": ((plan, build_sequences(4, 3), "allseq", model),
                       "the model has 4 sequences of 4 groups, the family 3 "
                       "of 4"),
            "dataset": ((plan, seqs, "allseq", model, other),
                        "the dataset has 2 classes of 7 features, the model 3 "
                        "classes of 6 features"),
            "samples": ((build_grouping(other.slice_catalog(), 4, 0), seqs,
                         "allseq", model),
                        "sequence 0, phase 0: the model's module saw 40 "
                        "samples, the plan gives 60"),
        }[kind]
        with pytest.raises(ValueError, match=f"^{message}$"):
            FedSGTSystem(*inputs)

    @pytest.mark.parametrize("name", ["plan", "seqs", "strategy", "model",
                                      "dataset", "state", "steps"])
    def test_configuration_and_service_state_cannot_be_assigned(self, name):
        # Each used to be assignable. Reversing the orders of ``seqs`` after
        # a build left sequence 0 serving modules trained on a deleted
        # group, and the exactness audit of the deletions still passed.
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        before = getattr(system, name)
        value = {"seqs": SequenceSet(tuple(p[::-1] for p in seqs.perms)),
                 "strategy": "longseq", "steps": 5}.get(name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(system, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(system, name)
        assert getattr(system, name) is before

    def test_shallow_copy_shares_the_whole_serving_record(self):
        # A shallow copy used to share the booking but not its total, the
        # state or the step count: a request served through the copy left
        # the original's remaining samples unchanged.
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        twin = copy.copy(system)
        process_request(twin, UnlearnRequest(SliceRef(0, 0), 2))
        process_request(system, UnlearnRequest(SliceRef(1, 1), 3))
        assert system.remaining_samples == plan.total_samples - sum(
            system.removed.values()) == plan.total_samples - 5
        assert system.state.deleted == {group_of(plan, ref)
                                        for ref in system.removed}
        assert (twin.state, twin.steps, twin.removed, twin.remaining_samples) \
            == (system.state, 2, system.removed, system.remaining_samples)
        assert twin.utility() == system.utility() == evaluate(
            model, system.state, "allseq", ds.test_x, ds.test_y)

    def test_remaining_samples_accounting(self):
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        total = ds.total_samples
        process_request(system, UnlearnRequest(SliceRef(0, 0), 7))
        assert system.remaining_samples == total - 7

    def test_remaining_samples_follows_every_booking(self):
        ds, plan, seqs, cfg, model = build()
        catalog = ds.slice_catalog()
        first, size = catalog[0]
        system = fedsgt_system(plan, seqs)
        # Repeated hits on one slice are capped at its size and book nothing
        # once it is empty.
        requests = [UnlearnRequest(first, size - 3),
                    UnlearnRequest(catalog[1][0], 5),
                    *[UnlearnRequest(first, 2)] * 3,
                    *uniform_requests(catalog, 40, 3, record_count=9)]
        for req in requests:
            before = dict(system.removed)
            process_request(system, req)
            booked = sum(system.removed.values()) - sum(before.values())
            assert record_removal(dict(before), plan.sizes, req) == booked
            assert system.remaining_samples == (
                plan.total_samples - sum(system.removed.values()))
        assert system.removed[first] == size

    @pytest.mark.parametrize("name", ["state", "steps", "removed"])
    def test_service_state_is_no_constructor_input(self, name):
        # Each used to be an input and only ``removed`` was checked: a state
        # of another sequence family ended in an IndexError at utility(),
        # and steps=-5 numbered the first timeline row -4.
        ds, plan, seqs, cfg, model = build()
        value = {"state": fresh_state(seqs), "steps": 0, "removed": {}}[name]
        with pytest.raises(TypeError,
                           match=f"unexpected keyword argument '{name}'"):
            FedSGTSystem(plan=plan, seqs=seqs, **{name: value})

    def test_new_system_is_the_fresh_one(self):
        ds, plan, seqs, cfg, model = build()
        system = FedSGTSystem(plan, seqs, "allseq", model, ds)
        assert (system.state, system.steps, system.removed) == (
            fresh_state(seqs), 0, {})
        assert system.remaining_samples == plan.total_samples
        assert FedSGTSystem(plan, seqs) == fedsgt_system(plan, seqs)

    @pytest.mark.parametrize("ref, count, error, match", [
        # Each used to be accepted as a constructor booking. With the
        # first, remaining_samples went negative, and a later request to
        # slice (0, 0) un-booked records.
        (SliceRef(0, 0), 10**6, ValueError, "exceeds slice size"),
        (SliceRef(99, 9), 5, KeyError, r"unknown slice SliceRef\(client_id=99"),
        (SliceRef(0, 0), -1, ValueError, "must be >= 1, got -1"),
        (SliceRef(0, 0), 2.5, ValueError, "expected an integer, got 2.5"),
        (SliceRef(0, 0), True, ValueError, "expected an integer, got True"),
    ], ids=["oversized", "unknown", "negative", "float", "bool"])
    def test_unbookable_removed_rejected(self, ref, count, error, match):
        # No path books what no request stream could: the booking is no
        # constructor input, cannot be rebound, and a request for it is
        # refused before anything changes.
        ds, plan, seqs, cfg, model = build()
        with pytest.raises(TypeError):
            FedSGTSystem(plan, seqs, removed={ref: count})
        system = fedsgt_system(plan, seqs)
        with pytest.raises(AttributeError):
            system.removed = {ref: count}
        with pytest.raises(error, match=match):
            process_request(system, UnlearnRequest(ref, count))
        assert (system.steps, system.removed) == (0, {})
        assert system.remaining_samples == plan.total_samples

    def test_bookable_removed_accepted_at_its_bounds(self):
        # A request books its slice up to the slice size, a numpy count
        # included, and no further; a slice never asked for books nothing.
        ds, plan, seqs, cfg, model = build()
        (full, size), (empty, _) = ds.slice_catalog()[:2]
        system = fedsgt_system(plan, seqs)
        process_request(system, UnlearnRequest(full, np.int64(size)))
        process_request(system, UnlearnRequest(full, 1))
        assert system.removed == {full: size} and empty not in system.removed
        assert system.remaining_samples == plan.total_samples - size

    def test_removed_cannot_be_rebound(self):
        # Rebinding used to replace the booking, checked and summed; now
        # ``removed`` is a read-only property and only process_request
        # books.
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs)
        process_request(system, UnlearnRequest(SliceRef(0, 0), 5))
        with pytest.raises(AttributeError):
            system.removed = {}
        with pytest.raises(AttributeError):
            del system.removed
        assert system.removed == {SliceRef(0, 0): 5}
        record = process_request(system, UnlearnRequest(SliceRef(0, 0), 3))
        assert f"remaining={plan.total_samples - 8}" in record.notes
        assert system.removed == {SliceRef(0, 0): 8}

    def test_booking_is_read_only_in_place(self):
        # An in-place write used to be accepted unchecked: after
        # removed[(0, 0)] = 10**6 a 3-record request to slice (0, 1)
        # reported remaining=157 on a 160-sample plan.
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs)
        process_request(system, UnlearnRequest(SliceRef(0, 0), 5))
        with pytest.raises(TypeError):
            system.removed[SliceRef(0, 0)] = 10**6
        with pytest.raises(TypeError):
            del system.removed[SliceRef(0, 0)]
        assert system.removed == {SliceRef(0, 0): 5}
        assert system.remaining_samples == plan.total_samples - 5
        record = process_request(system, UnlearnRequest(SliceRef(0, 1), 3))
        assert f"remaining={plan.total_samples - 8}" in record.notes
        # A system built from the same configuration is fresh and books
        # into its own booking.
        twin = dataclasses.replace(system)
        assert twin == fedsgt_system(plan, seqs)
        process_request(twin, UnlearnRequest(SliceRef(0, 0), 1))
        assert system.removed == {SliceRef(0, 0): 5, SliceRef(0, 1): 3}
        assert twin.remaining_samples == plan.total_samples - 1

    @pytest.mark.parametrize("strategy", ["best", "", None])
    def test_unknown_strategy_rejected_before_any_state_change(self, strategy):
        # The strategy is checked once: it cannot be reassigned, so every
        # request serves the one the system was built with.
        ds, plan, seqs, cfg, model = build()
        with pytest.raises(ValueError, match="unknown strategy"):
            fedsgt_system(plan, seqs, strategy, model, ds)
        system = fedsgt_system(plan, seqs, "AllSeq", model, ds)
        process_request(system, UnlearnRequest(plan.groups[0][0], 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.strategy = strategy
        record = process_request(system, UnlearnRequest(plan.groups[1][0], 1))
        assert (system.steps, system.strategy) == (2, "AllSeq")
        assert record.utility == evaluate(model, system.state, "allseq",
                                          ds.test_x, ds.test_y)


@pytest.fixture
def evaluations(monkeypatch):
    """The active_len of every state ``unlearn`` scores with ``evaluate``."""
    scored = []

    def counted(model, state, strategy, x, y, reuse=None):
        scored.append(state.active_len)
        return evaluate(model, state, strategy, x, y, reuse)

    monkeypatch.setattr(fedsgt.unlearn, "evaluate", counted)
    return scored


class TestUtilityReuse:
    @pytest.mark.parametrize("strategy", ["allseq", "minseq", "longseq"])
    def test_every_utility_equals_a_fresh_evaluation(self, strategy, tmp_path):
        ds, plan, seqs, cfg, model = build()
        for seed in range(4):
            requests = uniform_requests(ds.slice_catalog(), 12, seed, 2)
            groups = [group_of(plan, req.target) for req in requests]
            assert len(set(groups)) < len(groups)  # some request repeats a group
            records = run_stream(fedsgt_system(plan, seqs, strategy, model, ds),
                                 requests)
            fresh = []
            for step, record in enumerate(records):
                state = state_from_deleted(seqs, groups[:step])
                expected = None if state.all_dead else evaluate(
                    model, state, strategy, ds.test_x, ds.test_y)
                assert record.utility == expected, (seed, step)
                fresh.append(dataclasses.replace(record, utility=expected))
            write_timeline(tmp_path / "served.csv", records)
            write_timeline(tmp_path / "fresh.csv", fresh)
            assert ((tmp_path / "served.csv").read_bytes()
                    == (tmp_path / "fresh.csv").read_bytes())

    def test_one_evaluation_per_distinct_prefix_state(self, evaluations):
        ds, plan, seqs, cfg, model = build()
        requests = uniform_requests(ds.slice_catalog(), 12, 1, 2)
        run_stream(fedsgt_system(plan, seqs, "allseq", model, ds), requests)
        groups = [group_of(plan, req.target) for req in requests]
        reached = [state_from_deleted(seqs, groups[:step])
                   for step in range(len(groups) + 1)]
        distinct = {s.active_len for s in reached if not s.all_dead}
        assert len(distinct) < len(requests)
        assert sorted(evaluations) == sorted(distinct)

    def test_deletion_outside_every_prefix_reuses_the_value(self, evaluations):
        # Two rotations of six groups: (0..5) and (5, 0..4). Deleting group 3
        # cuts them to prefixes of 3 and 4; group 4 then lies past both.
        ds, plan, seqs, cfg, model = build(groups=6, budget=2)
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        first = process_request(system, UnlearnRequest(plan.groups[3][0], 1))
        before = system.state
        second = process_request(system, UnlearnRequest(plan.groups[4][0], 1))
        assert system.state.deleted == before.deleted | {4}
        assert system.state.active_len == before.active_len == (3, 4)
        assert evaluations == [(3, 4)]
        assert second.utility == first.utility == evaluate(
            model, system.state, "allseq", ds.test_x, ds.test_y)

    def test_new_strategy_or_dataset_is_scored_again(self, evaluations):
        # The configuration cannot change under a system, so another
        # strategy or dataset is another system, with its own cache.
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        req = UnlearnRequest(plan.groups[0][0], 1)
        process_request(system, req)
        process_request(system, req)
        assert len(evaluations) == 1
        longseq = dataclasses.replace(system, strategy="longseq")
        record = process_request(longseq, req)
        assert len(evaluations) == 2
        assert record.utility == evaluate(model, longseq.state, "longseq",
                                          ds.test_x, ds.test_y)
        process_request(dataclasses.replace(system, dataset=dataclasses.replace(ds)),
                        req)
        assert len(evaluations) == 3

    def test_probabilities_kept_for_the_life_of_the_system(self, monkeypatch):
        # Each step scores only the served sequences whose prefix changed
        # since they were last served: the fresh state, then group 0 (which
        # cuts rotation t to prefix t), then group 1 (which cuts rotation 3
        # to nothing and leaves rotations 1 and 2 as they were). Strategies
        # can no longer be switched under a system, so each has its own.
        every = [(0, 4), (1, 4), (2, 4), (3, 4)]
        served = {"allseq": (every, [(1, 1), (2, 2), (3, 3)], []),
                  "minseq": (every, [(3, 3)], [(2, 2)]),
                  "longseq": ([(0, 4)], [(3, 3)], [(2, 2)])}
        scored = []

        def counted(model, seq_id, active_len, x):
            scored.append((seq_id, active_len))
            return sequence_logits(model, seq_id, active_len, x)

        monkeypatch.setattr(fedsgt.fltrain, "sequence_logits", counted)
        ds, plan, seqs, cfg, model = build()
        for strategy, steps in served.items():
            system = fedsgt_system(plan, seqs, strategy, model, ds)
            for step, (group, want) in enumerate(zip((None, 0, 1), steps)):
                scored.clear()
                if group is None:
                    system.utility()
                else:
                    process_request(system,
                                    UnlearnRequest(plan.groups[group][0], 1))
                assert sorted(scored) == want, (strategy, step)
                assert system.utility() == evaluate(
                    model, system.state, strategy, ds.test_x, ds.test_y)


class TestTimeline:
    def test_baseline_row_then_one_per_request(self):
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        requests = uniform_requests(ds.slice_catalog(), 3, 0, 2)
        records = run_stream(system, requests)
        assert len(records) == 4
        assert records[0].step == 0 and records[0].notes == "baseline"
        assert [r.step for r in records] == [0, 1, 2, 3]

    def test_csv_shape(self, tmp_path):
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        records = run_stream(system, uniform_requests(ds.slice_catalog(), 2, 0, 2))
        path = tmp_path / "timeline.csv"
        write_timeline(path, records)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "method", "affected_unit", "status",
                           "utility", "surviving", "notes"]
        assert len(rows) == 4
        assert rows[1][1] == "FedSGT"

    def test_summary(self):
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        # delete one slice from every group: all sequences die
        targets = [group[0] for group in plan.groups]
        records = run_stream(system, [UnlearnRequest(t, 1) for t in targets])
        summary = timeline_summary(records)
        assert summary["steps"] == 4
        assert summary["failure_step"] == 4
        assert summary["mean_utility"] is not None

    def test_status_column_follows_survivors(self, tmp_path):
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        # one slice of every group kills every sequence at step 4; two more
        # requests follow the failure
        targets = [group[0] for group in plan.groups] + [plan.groups[0][0]] * 2
        records = run_stream(system, [UnlearnRequest(t, 1) for t in targets])
        path = tmp_path / "timeline.csv"
        write_timeline(path, records)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["status"] for row in rows] == ["available"] * 4 + ["failed"] * 3
        assert [row["surviving"] for row in rows] == [str(r.surviving) for r in records]
        first_dead = next(int(row["step"]) for row in rows if row["surviving"] == "0")
        assert timeline_summary(records)["failure_step"] == first_dead == 4

    def test_no_failure_when_sequences_survive(self):
        ds, plan, seqs, cfg, model = build()
        system = fedsgt_system(plan, seqs, "allseq", model, ds)
        records = run_stream(system, [UnlearnRequest(plan.groups[0][0], 1)])
        assert timeline_summary(records)["failure_step"] is None


class TestFedCIO:
    def test_first_hit_kills_cluster(self):
        ds, plan, seqs, cfg, model = build()
        requests = [UnlearnRequest(SliceRef(2, 0), 1)]
        records = fedcio_simulate(ds, 2, cfg, requests, rounds=1)
        assert records[0].notes == "baseline"
        assert records[1].affected_unit == f"cluster:{cluster_of(2, 2)}"
        assert records[1].surviving == 1

    def test_timeline_steps_are_the_request_count(self):
        # Row t answers request t: the steps run 0..N with the baseline at 0.
        ds, plan, seqs, cfg, model = build()
        requests = uniform_requests(ds.slice_catalog(), 6, 1, 1)
        records = fedcio_simulate(ds, 2, cfg, requests, rounds=1)
        assert [r.step for r in records] == list(range(len(requests) + 1))
        assert [r.affected_unit for r in records[1:]] == [
            f"cluster:{cluster_of(req.target.client_id, 2)}" for req in requests]

    def test_clusters_match_per_cluster_fedavg(self):
        # 7 clients in 3 clusters of 3, 2 and 2 clients train in one stack;
        # each model and the booked cost must be those of its own run.
        ds = synth_dataset(clients=7, samples_per_client=30, dim=6, classes=3,
                           alpha=0.5, seed=4, slices_per_client=2,
                           test_samples=30)
        cfg = TrainConfig(epochs=2, lr=0.2, batch_size=8, seed=4)
        meter, want_meter = CostMeter(), CostMeter()
        got = train_clusters(ds, 3, cfg, rounds=4, meter=meter, adapter_stack=5)
        assert list(got) == [0, 1, 2]
        refs = [ref for ref, _ in ds.slice_catalog()]
        for cid in range(3):
            data = client_data(ds, [r for r in refs
                                    if cluster_of(r.client_id, 3) == cid])
            want = fedavg_train(data, ds.classes, ds.dim, 4, cfg,
                                namespace=(0xC10, cid), meter=want_meter,
                                cost_modules=5)
            assert got[cid].tobytes() == want.tobytes(), cid
        assert meter.updates == want_meter.updates
        with pytest.raises(ValueError, match="^clusters must be >= 1, got 0$"):
            train_clusters(ds, 0, cfg, rounds=4)

    def test_cluster_without_data_is_a_training_error(self):
        ds, *_ = build(clients=2)
        with pytest.raises(TrainingError, match="^cluster 2 has no data$"):
            train_clusters(ds, 3, TrainConfig(), rounds=1)

    def test_scores_only_when_the_alive_set_changes(self, monkeypatch,
                                                     tmp_path):
        ds, *_ = build(clients=6)
        cfg = TrainConfig(epochs=1, lr=0.1, batch_size=16, seed=0)
        requests = uniform_requests(ds.slice_catalog(), 15, 2, 1)
        scored = []

        def counted(weights, x, y):
            scored.append(len(weights))
            return matrix_accuracy(weights, x, y)

        monkeypatch.setattr(fedsgt.unlearn, "matrix_accuracy", counted)
        records = fedcio_simulate(ds, 3, cfg, requests, rounds=2)

        # The score-every-time form of the same timeline.
        models = train_clusters(ds, 3, cfg, rounds=2)
        alive, fresh, reached = set(range(3)), [], []
        for step, record in enumerate(records):
            if step:
                alive.discard(cluster_of(requests[step - 1].target.client_id, 3))
            utility = None
            if alive:
                reached.append(frozenset(alive))
                utility = matrix_accuracy([models[c] for c in sorted(alive)],
                                          ds.test_x, ds.test_y)
            fresh.append(dataclasses.replace(record, utility=utility))
        assert len(scored) == len(set(reached)) < len(reached)
        write_timeline(tmp_path / "served.csv", records)
        write_timeline(tmp_path / "fresh.csv", fresh)
        assert ((tmp_path / "served.csv").read_bytes()
                == (tmp_path / "fresh.csv").read_bytes())

    def test_mean_failure_step_matches_coupon_collector(self):
        # structure only (epochs=0): expected requests to kill all c=3
        # clusters is 3*H_3 = 5.5; average over seeds must sit nearby
        cfg = TrainConfig(epochs=0, lr=0.1, batch_size=16, seed=0)
        steps = []
        for seed in range(40):
            ds = synth_dataset(clients=6, samples_per_client=12, dim=4,
                               classes=2, alpha=None, seed=seed,
                               slices_per_client=1, test_samples=20)
            requests = uniform_requests(ds.slice_catalog(), 40, seed, 1)
            records = fedcio_simulate(ds, 3, cfg, requests, rounds=1)
            step = timeline_summary(records)["failure_step"]
            assert step is not None
            steps.append(step)
        mean = float(np.mean(steps))
        want = deletion_rate_fedcio(3)  # 5.5
        assert abs(mean - want) < 1.5, mean


class TestFedRetrain:
    def test_stride_and_downtime(self):
        ds, plan, seqs, cfg, model = build()
        requests = uniform_requests(ds.slice_catalog(), 6, 1, 1)
        records = fedretrain_simulate(ds, cfg, requests, eval_every=3,
                                      rounds=2)
        assert len(records) == 7
        # utility is measured at the baseline and every third request
        measured = [r.step for r in records if r.utility is not None]
        assert measured == [0, 3, 6]
        assert all(r.surviving == 1 for r in records)
        assert "downtime" in records[1].notes

    def test_fails_once_no_record_remains(self):
        ds, plan, seqs, cfg, model = build()
        catalog = ds.slice_catalog()
        # Empty every slice in turn, then ask for the first slice again.
        requests = [UnlearnRequest(ref, size) for ref, size in catalog]
        requests.append(requests[0])
        records = fedretrain_simulate(ds, cfg, requests, eval_every=1, rounds=1)
        last = len(catalog)
        assert [r.surviving for r in records] == [1] * last + [0, 0]
        assert [r.utility is None for r in records] == [False] * last + [True, True]
        assert timeline_summary(records)["failure_step"] == last
        assert "downtime" not in records[last].notes

    def test_last_record_fails_service_at_its_own_step(self):
        # Every record but one deleted, then the last one: the step before
        # still serves a refit on one record, and the first "no records
        # left" row is the last step, not one earlier.
        ds, plan, seqs, cfg, model = build()
        catalog = ds.slice_catalog()
        *rest, (last, size) = catalog
        requests = [UnlearnRequest(ref, n) for ref, n in rest]
        requests += [UnlearnRequest(last, size - 1), UnlearnRequest(last, 1)]
        records = fedretrain_simulate(ds, cfg, requests, eval_every=1, rounds=1)
        emptied = [r.step for r in records
                   if r.notes == "no records left to retrain on"]
        assert emptied == [len(requests)]
        assert records[-2].surviving == 1
        assert records[-2].utility is not None

    def test_capped_repeats_do_not_bring_the_failure_forward(self):
        ds, plan, seqs, cfg, model = build()
        catalog = ds.slice_catalog()
        # The first slice is emptied twice over before the rest; the second
        # pass books nothing, so service fails only with the last slice.
        requests = [UnlearnRequest(ref, size) for ref, size in catalog]
        requests[1:1] = [requests[0]]
        records = fedretrain_simulate(ds, cfg, requests, eval_every=100, rounds=1)
        assert [r.surviving for r in records] == [1] * (len(catalog) + 1) + [0]


def fedretrain_oracle(ds, cfg, requests, eval_every, rounds):
    """Per-refit form of the FedRetrain timeline: book the requests one at a
    time and refit alone, ``fedavg_train`` on the records that remain, at
    the baseline and at every ``eval_every``-th request while any remain."""
    sizes = dict(ds.slice_catalog())
    total = sum(sizes.values())
    removed = {}

    def refit():
        w = fedavg_train(client_data(ds, sizes, removed), ds.classes, ds.dim,
                         rounds, cfg, namespace=(STREAM_TAGS["fedretrain"],))
        return matrix_accuracy([w], ds.test_x, ds.test_y)

    records = [TimelineRecord(0, "FedRetrain", "", 1, refit(), "baseline")]
    downtime = 0
    for step, req in enumerate(requests, start=1):
        record_removal(removed, sizes, req)
        utility = None
        if sum(removed.values()) == total:
            surviving, notes = 0, "no records left to retrain on"
        else:
            surviving = 1
            downtime += rounds
            if step % eval_every == 0:
                utility = refit()
                notes = f"retrained (cumulative downtime {downtime} rounds)"
            else:
                notes = f"retraining charged (cumulative downtime {downtime} rounds)"
        ref = req.target
        records.append(TimelineRecord(
            step, "FedRetrain", f"slice:({ref.client_id},{ref.slice_idx})",
            surviving, utility, notes))
    return records


def emptying_stream(catalog):
    """Partial requests, then every slice emptied, then one more request."""
    requests = uniform_requests(catalog, 10, 3, record_count=9)
    requests += [UnlearnRequest(ref, size) for ref, size in catalog]
    return requests + requests[:1]


def capped_stream(catalog):
    """Three requests of all but one record on each of three slices, so the
    repeats are capped, then a uniform stream."""
    requests = [UnlearnRequest(ref, size - 1) for ref, size in catalog[:3]
                for _ in range(3)]
    return requests + uniform_requests(catalog, 8, 5, record_count=15)


class TestFedRetrainStacks:
    """The refits train stacked, within a byte bound, and the timeline keeps
    the bytes of refitting one model at a time."""

    @pytest.mark.parametrize("stream", [emptying_stream, capped_stream],
                             ids=["emptying", "capped"])
    @pytest.mark.parametrize("stride", [1, 3, 5])
    def test_timeline_matches_per_refit_oracle(self, stream, stride, tmp_path):
        ds = build(epochs=2)[0]
        cfg = TrainConfig(epochs=2, lr=0.2, batch_size=8, seed=5)
        requests = stream(ds.slice_catalog())
        got = fedretrain_simulate(ds, cfg, requests, eval_every=stride, rounds=2)
        want = fedretrain_oracle(ds, cfg, requests, stride, 2)
        assert sum(r.utility is not None for r in got) > 1
        write_timeline(tmp_path / "got.csv", got)
        write_timeline(tmp_path / "want.csv", want)
        assert ((tmp_path / "got.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_stacks_stay_within_the_byte_bound(self, monkeypatch, tmp_path):
        # Acceptance-sized data and a stride-1 stream: 31 refits of 800 to
        # 2,000 rows need several stacks. One round, so every stack, lone or
        # not, is built once.
        ds = synth_dataset(clients=10, samples_per_client=200, dim=20,
                           classes=5, alpha=0.3, seed=0, slices_per_client=5,
                           test_samples=50)
        cfg = TrainConfig(epochs=1, lr=0.1, batch_size=32, seed=0)
        requests = uniform_requests(ds.slice_catalog(), 30, 7, record_count=40)
        stacks = []

        def recording(runs, *args):
            rows = sum(len(y) for _, data, _ in runs for _, y in data.values())
            members = sum(len(data) for _, data, _ in runs)
            stacks.append((len(runs), 8 * (rows * (2 * ds.dim + ds.classes)
                                           + members * 4 * ds.classes * ds.dim)))
            return _build_stack(runs, *args)

        monkeypatch.setattr(fedsgt.fltrain, "_build_stack", recording)
        got = fedretrain_simulate(ds, cfg, requests, eval_every=1, rounds=1)
        monkeypatch.undo()
        assert sum(refits for refits, _ in stacks) == len(requests) + 1
        assert len(stacks) > 1
        assert max(refits for refits, _ in stacks) > 1
        assert max(size for _, size in stacks) <= fedsgt.unlearn._REFIT_STACK_BYTES
        want = fedretrain_oracle(ds, cfg, requests, 1, 1)
        write_timeline(tmp_path / "got.csv", got)
        write_timeline(tmp_path / "want.csv", want)
        assert ((tmp_path / "got.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    @pytest.mark.parametrize("room", [1, 3])
    def test_stack_count_comes_from_the_baseline_refit(self, room,
                                                       monkeypatch):
        # A bound just short of room + 1 baseline refits: every stack but the
        # last holds exactly ``room`` refits, whatever the later refits'
        # sizes, and the timeline is unchanged.
        ds, plan, seqs, cfg, model = build()
        sizes = dict(ds.slice_catalog())
        clients = len({ref.client_id for ref in sizes})
        baseline = 8 * (sum(sizes.values()) * (2 * ds.dim + ds.classes)
                        + clients * 4 * ds.classes * ds.dim)
        monkeypatch.setattr(fedsgt.unlearn, "_REFIT_STACK_BYTES",
                            (room + 1) * baseline - 1)
        requests = capped_stream(ds.slice_catalog())
        stacks = []

        def recording(runs, *args):
            stacks.append(len(runs))
            return _build_stack(runs, *args)

        monkeypatch.setattr(fedsgt.fltrain, "_build_stack", recording)
        got = fedretrain_simulate(ds, cfg, requests, eval_every=1, rounds=1)
        monkeypatch.undo()
        full, rest = divmod(len(requests) + 1, room)
        assert stacks == [room] * full + [rest] * (rest > 0)
        assert [r.utility for r in got] == [
            r.utility for r in fedretrain_oracle(ds, cfg, requests, 1, 1)]

    def test_zero_requests_give_one_fedavg_fit(self):
        ds, plan, seqs, cfg, model = build()
        records = fedretrain_simulate(ds, cfg, [], eval_every=5, rounds=2)
        w = fedavg_train(client_data(ds, dict(ds.slice_catalog())), ds.classes,
                         ds.dim, 2, cfg, namespace=(STREAM_TAGS["fedretrain"],))
        assert [(r.step, r.surviving, r.notes) for r in records] \
            == [(0, 1, "baseline")]
        assert records[0].utility == matrix_accuracy([w], ds.test_x, ds.test_y)

    def test_invalid_request_raises_before_any_training(self, monkeypatch):
        ds, plan, seqs, cfg, model = build()
        trained = []
        monkeypatch.setattr(fedsgt.fltrain, "_run_rounds",
                            lambda runs, *args: trained.append(runs))
        valid = UnlearnRequest(SliceRef(0, 0), 1)
        with pytest.raises(KeyError):
            fedretrain_simulate(ds, cfg, [valid, UnlearnRequest(SliceRef(50, 0), 1)],
                                eval_every=5, rounds=10)
        with pytest.raises(ValueError):
            fedretrain_simulate(ds, cfg, [valid, UnlearnRequest(SliceRef(0, 0), 10_000)],
                                eval_every=5, rounds=10)
        assert trained == []


@pytest.mark.parametrize("simulate", [
    lambda ds, cfg, reqs: fedcio_simulate(ds, 2, cfg, reqs, rounds=1),
    lambda ds, cfg, reqs: fedretrain_simulate(ds, cfg, reqs, eval_every=5, rounds=1),
], ids=["fedcio", "fedretrain"])
def test_baselines_reject_invalid_requests(simulate):
    ds, plan, seqs, cfg, model = build()
    with pytest.raises(KeyError):
        simulate(ds, cfg, [UnlearnRequest(SliceRef(50, 0), 1)])
    with pytest.raises(ValueError):
        simulate(ds, cfg, [UnlearnRequest(SliceRef(0, 0), 10_000)])


class TestAudit:
    def test_passes_after_deletions(self):
        ds, plan, seqs, cfg, model = build(seed=3)
        report = exactness_audit(model, plan, cfg, ds, frozenset({1}))
        assert report.passed
        assert report.sequences_checked == 3
        assert report.first_mismatch is None

    @staticmethod
    def survivors(seqs, deleted):
        state = state_from_deleted(seqs, deleted)
        return [(sid, n) for sid, n in enumerate(state.active_len) if n]

    @staticmethod
    def counted_to(survivors, sid, phase):
        """(sequences, modules) an audit walking the survivors in (sid, p)
        order has checked when it reaches module (sid, phase)."""
        ids = [s for s, _ in survivors]
        rank = ids.index(sid)
        return rank + 1, sum(n for _, n in survivors[:rank]) + phase + 1

    def test_detects_tampering(self):
        # One module is changed in each case: a weight at the first
        # survivor, the sample count at the last survivor and the group at
        # the last phase of a longest survivor.
        for where in ("first", "last", "last-phase"):
            ds, plan, seqs, cfg, model = build(seed=3, budget=8)
            deleted = frozenset({1})
            survivors = self.survivors(seqs, deleted)
            if where == "first":
                sid, phase = survivors[0][0], 0
                model.modules[sid][phase].weights[0, 0] += 1e-9
            elif where == "last":
                sid, phase = survivors[-1][0], 0
                model.modules[sid][phase].samples += 1
            else:
                sid, n = max(survivors, key=lambda item: item[1])
                phase = n - 1
                assert phase > 0
                model.modules[sid][phase].group = 1
            report = exactness_audit(model, plan, cfg, ds, deleted)
            assert not report.passed
            assert report.first_mismatch == (sid, phase), where
            assert (report.sequences_checked, report.modules_checked) == \
                self.counted_to(survivors, sid, phase), where

    def test_wrong_learning_rate_fails_at_the_first_survivor(self):
        ds, plan, seqs, cfg, model = build(seed=3, budget=8)
        deleted = frozenset({0})
        survivors = self.survivors(seqs, deleted)
        report = exactness_audit(model, plan, dataclasses.replace(cfg, lr=0.2),
                                 ds, deleted)
        assert not report.passed
        assert report.first_mismatch == (survivors[0][0], 0)
        assert (report.sequences_checked, report.modules_checked) == (1, 1)

    def test_full_survival_checks_everything(self):
        ds, plan, seqs, cfg, model = build(seed=2)
        report = exactness_audit(model, plan, cfg, ds, frozenset())
        assert report.passed
        assert report.sequences_checked == 4
        assert report.modules_checked == 16


class TestRace:
    def test_cap_ends_an_unfinished_race(self):
        ds, plan, seqs, cfg, model = build()
        with pytest.raises(RuntimeError,
                           match="^race did not finish within 1 requests$"):
            race_failure_steps(plan, seqs, clusters=2, seed=0, cap=1)

    def test_shared_stream_comparison(self):
        ds, plan, seqs, cfg, model = build(clients=10, groups=10, budget=10)
        sgt, cio = race_failure_steps(plan, seqs, clusters=5, seed=0)
        assert sgt >= 1 and cio >= 1

    def test_fedsgt_usually_outlasts_fedcio(self):
        ds, plan, seqs, cfg, model = build(clients=10, groups=10, budget=10)
        wins = sum(
            1 for seed in range(25)
            if (lambda r: r[0] > r[1])(
                race_failure_steps(plan, seqs, clusters=5, seed=seed)))
        assert wins >= 20, wins

    @pytest.mark.parametrize("budget", [4, 10, 13])
    def test_matches_set_oracle(self, budget):
        ds = synth_dataset(clients=10, samples_per_client=40, dim=6, classes=3,
                           alpha=None, seed=0, slices_per_client=2,
                           test_samples=30)
        plan = build_grouping(ds.slice_catalog(), 10, 0)
        seqs = build_sequences(10, budget, 0)
        for seed in range(50):
            assert (race_failure_steps(plan, seqs, clusters=5, seed=seed)
                    == race_oracle(plan, seqs, clusters=5, seed=seed)), seed


def mean_failure_step(weights, failed):
    """The exact mean request count until ``failed(hit)`` holds, when each
    request hits unit u with probability weights[u] / N: the absorption
    time of the chain on the set of units hit so far (Kemeny and Snell,
    "Finite Markov Chains", ch. III), in rationals:
    E[S] = (N + sum_{u not in S} w_u E[S | {u}]) / (N - w(S)), and E = 0 on
    failed sets."""
    total = sum(weights)

    @functools.cache
    def mean(hit):
        if failed(hit):
            return Fraction(0)
        ahead = sum(w * mean(hit | {u}) for u, w in enumerate(weights)
                    if u not in hit)
        return (total + ahead) / (total - sum(weights[u] for u in hit))

    return mean(frozenset())


def fedsgt_mean_failure_step(plan, seqs):
    """Requests uniform over slices: group g is hit with weight its slice
    count, and FedSGT fails once the serving state of the deleted groups has
    no survivor."""
    return mean_failure_step([len(members) for members in plan.groups],
                             lambda hit: state_from_deleted(seqs, hit).all_dead)


def fedcio_mean_failure_step(plan, clusters):
    """FedCIO over the occupied clusters, each weighted by its slice count:
    it fails once every one has been hit."""
    weights = list(Counter(cluster_of(ref.client_id, clusters)
                           for ref in plan.sizes).values())
    return mean_failure_step(weights, lambda hit: len(hit) == len(weights))


def single_slice_plan(slices, groups, budget):
    plan = build_grouping([(SliceRef(i, 0), 40) for i in range(slices)],
                          groups, 0)
    return plan, build_sequences(groups, budget, 0)


def ten_client_plan():
    """The FedCIO plans of ROADMAP item 1: 10 clients of 5 slices each."""
    return build_grouping([(SliceRef(c, s), 40) for c in range(10)
                           for s in range(5)], 10, 0)


def test_mean_failure_step_on_hand_solved_plans():
    # By inclusion-exclusion over the units still to hit, E = sum over
    # nonempty sets S of (-1)^(|S|+1) N / w(S).
    # 3 slices, L=B=2: groups of 2 and 1 slices, both heads.
    assert fedsgt_mean_failure_step(*single_slice_plan(3, 2, 2)) == \
        Fraction(3, 2) + 3 - 1
    # 10 clients x 5 slices in 3 clusters of 4, 3, 3 clients.
    assert fedcio_mean_failure_step(ten_client_plan(), 3) == (
        Fraction(50, 20) + 2 * Fraction(50, 15) - 2 * Fraction(50, 35)
        - Fraction(50, 30) + 1)


# Unequal units: ``build_grouping`` gives the first ``slices % L`` groups an
# extra slice, ``cluster_of`` deals clients round-robin, and requests are
# uniform over slices, but the closed forms assume uniform groups and
# clusters (ROADMAP item 1).
UNEQUAL_GROUPS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="deletion_rate_fedsgt assumes equal groups (ROADMAP item 1)")
UNEQUAL_CLUSTERS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="deletion_rate_fedcio assumes equal clusters (ROADMAP item 1)")


@pytest.mark.parametrize("slices, groups, budget", [
    (50, 10, 4), (50, 10, 10), (50, 10, 13), (10, 5, 5),
    pytest.param(11, 10, 10, marks=UNEQUAL_GROUPS),
    pytest.param(3, 2, 2, marks=UNEQUAL_GROUPS),
])
def test_deletion_rate_fedsgt_is_the_exact_mean(slices, groups, budget):
    plan, seqs = single_slice_plan(slices, groups, budget)
    assert deletion_rate_fedsgt(groups, budget) == \
        float(fedsgt_mean_failure_step(plan, seqs))


@pytest.mark.parametrize("clusters", [
    1, 2, 5, 10,
    pytest.param(3, marks=UNEQUAL_CLUSTERS),
    pytest.param(4, marks=UNEQUAL_CLUSTERS),
])
def test_deletion_rate_fedcio_is_the_exact_mean(clusters):
    assert deletion_rate_fedcio(clusters) == \
        float(fedcio_mean_failure_step(ten_client_plan(), clusters))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_closed_forms_are_the_exact_means_on_balanced_plans(data):
    """On drawn balanced plans the closed forms equal the subset recursion,
    as floats: FedSGT with L <= 8 groups of m slices each and B <= L, and
    FedCIO with c <= 8 clusters of k clients holding s slices each."""
    groups = data.draw(st.integers(1, 8), "groups")
    budget = data.draw(st.integers(1, groups), "budget")
    per_group = data.draw(st.integers(1, 3), "slices per group")
    plan, seqs = single_slice_plan(groups * per_group, groups, budget)
    assert deletion_rate_fedsgt(groups, budget) == \
        float(fedsgt_mean_failure_step(plan, seqs))

    clusters = data.draw(st.integers(1, 8), "clusters")
    clients = clusters * data.draw(st.integers(1, 2), "clients per cluster")
    slices = data.draw(st.integers(1, 2), "slices per client")
    plan = build_grouping([(SliceRef(c, s), 40) for c in range(clients)
                           for s in range(slices)], 1, 0)
    assert deletion_rate_fedcio(clusters) == \
        float(fedcio_mean_failure_step(plan, clusters))


@pytest.mark.parametrize("slices, groups, budget, trials", [
    (50, 10, 4, 400), (50, 10, 10, 400), (50, 10, 13, 400), (10, 5, 5, 1000),
    (11, 10, 10, 1000), (3, 2, 2, 3000),
])
def test_simulator_failure_step_matches_deletion_rate(slices, groups, budget,
                                                      trials):
    """The simulator against the exact mean: the mean FedSGT failure step
    of the race over seeds 0..trials-1 lies within three standard errors
    of ``fedsgt_mean_failure_step``, on unequal groups too."""
    plan, seqs = single_slice_plan(slices, groups, budget)
    steps = np.array([race_failure_steps(plan, seqs, clusters=1, seed=seed)[0]
                      for seed in range(trials)], dtype=np.float64)
    z = ((steps.mean() - float(fedsgt_mean_failure_step(plan, seqs)))
         / (steps.std(ddof=1) / np.sqrt(trials)))
    assert abs(z) <= 3, z


def race_oracle(plan, seqs, clusters, seed, record_count=100):
    """The race as set arithmetic: FedSGT fails once every sequence head is
    deleted, FedCIO once every cluster has been hit."""
    catalog = sorted((ref, plan.sizes[ref])
                     for members in plan.groups for ref in members)
    heads = {perm[0] for perm in seqs.perms}
    all_clusters = {cluster_of(c, clusters) for c in plan.clients()}
    deleted, hit = set(), set()
    sgt_step = cio_step = None
    stream = request_stream(catalog, seed, record_count)
    step = 0
    while sgt_step is None or cio_step is None:
        step += 1
        req = next(stream)
        deleted.add(group_of(plan, req.target))
        hit.add(cluster_of(req.target.client_id, clusters))
        if sgt_step is None and heads <= deleted:
            sgt_step = step
        if cio_step is None and hit >= all_clusters:
            cio_step = step
    return sgt_step, cio_step
