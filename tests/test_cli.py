"""Command-line behavior: outputs, reproducibility, exit codes."""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import runpy
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsgt.analytics
import fedsgt.cli
from fedsgt.cli import (_load_requests_file, build_dataset, build_parser,
                        build_requests, main, trainer_config)
from fedsgt.core import (ConfigurationError, ServiceUnavailable, TrainerSpec,
                         validate_config)
from fedsgt.dataset import save_csv_dataset, synth_dataset
from fedsgt.grouping import SliceRef
from fedsgt.unlearn import UnlearnRequest


def run(*argv):
    return main([str(a) for a in argv])


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


# json.loads raises RecursionError, not ValueError, on a document nested
# past the interpreter's recursion limit.
DEEP_JSON = "[" * 100_000

CONFIG = {
    "experiment": "cli-test",
    "seed": 11,
    "clients": 5,
    "slices_per_client": 2,
    "groups": 5,
    "budget": 5,
    "clusters": 3,
    "strategy": "allseq",
    "dataset": {"kind": "synthetic", "samples_per_client": 60, "dim": 8,
                "classes": 3, "alpha": None, "test_samples": 120},
    "trainer": {"epochs": 1, "lr": 0.1, "batch_size": 16,
                "rounds_per_phase": 1, "fedavg_rounds": 3},
    "requests": {"count": 4, "seed": 2, "record_count": 10},
}


@pytest.fixture
def config_file(tmp_path):
    return write_json(tmp_path / "config.json", CONFIG)


@pytest.fixture
def trained(tmp_path, config_file):
    out = tmp_path / "run"
    assert run("train", "--config", config_file, "--out", out) == 0
    return out


class TestAnalyze:
    def test_tables_and_values(self, tmp_path, capsys):
        out = tmp_path / "a"
        assert run("analyze", "--groups", 10, "--budget", 10, "--clusters", 5,
                   "--out", out) == 0
        doc = json.loads((out / "analyze.json").read_text())
        assert doc["deletion_rate"]["fedsgt"] == pytest.approx(29.2897,
                                                               abs=1e-4)
        assert doc["deletion_rate"]["fedcio"] == pytest.approx(11.4167,
                                                               abs=1e-4)
        assert doc["matched_budget"] == pytest.approx(18.1818, abs=1e-4)
        for name in ("deletion_rates.csv", "remaining_curve.csv",
                     "comm_cost.csv", "training_cost.csv", "manifest.json"):
            assert (out / name).exists(), name
        assert "29.2897" in capsys.readouterr().out

    def test_remaining_curve_monotone(self, tmp_path):
        out = tmp_path / "a"
        run("analyze", "--max-requests", 12, "--out", out)
        with (out / "remaining_curve.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        sgt = [float(r["fedsgt_remaining"]) for r in rows]
        assert len(sgt) == 13
        assert all(a >= b for a, b in zip(sgt, sgt[1:]))
        assert sgt[0] == pytest.approx(50_000)

    def test_json_curve_equals_csv(self, tmp_path):
        for budget, has_sgt in ((10, True), (4, False)):
            out = tmp_path / f"b{budget}"
            assert run("analyze", "--groups", 10, "--budget", budget,
                       "--max-requests", 8, "--out", out) == 0
            curve = json.loads((out / "analyze.json").read_text())["remaining_curve"]
            with (out / "remaining_curve.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            assert curve["requests"] == [int(r["requests"]) for r in rows]
            assert curve["fedcio"] == [float(r["fedcio_remaining"]) for r in rows]
            if has_sgt:
                assert curve["fedsgt"] == [float(r["fedsgt_remaining"])
                                           for r in rows]
            else:
                assert curve["fedsgt"] is None
                assert all(r["fedsgt_remaining"] == "" for r in rows)

    def test_single_group_degenerate(self, tmp_path):
        out = tmp_path / "a"
        assert run("analyze", "--groups", 1, "--budget", 1, "--clusters", 1,
                   "--slices-per-client", 1, "--out", out) == 0
        doc = json.loads((out / "analyze.json").read_text())
        assert doc["deletion_rate"]["fedsgt"] == pytest.approx(1.0)
        assert doc["comm_cost"]["fedsgt_expected_client_rounds"] == \
            pytest.approx(1.0)

    def test_bad_arguments(self, tmp_path):
        assert run("analyze", "--groups", 0, "--out", tmp_path / "x") == 2

    def test_budget_beyond_distinct_orders(self, tmp_path, capsys):
        # 3 groups have 3! = 6 orders, the limit train's config also keeps
        out = tmp_path / "a"
        assert run("analyze", "--groups", 3, "--budget", 7, "--out", out) == 2
        assert capsys.readouterr().err == (
            "config error: --budget: 7 exceeds the 6 distinct orders of 3 "
            "groups\n")
        assert not out.exists()
        assert run("analyze", "--groups", 3, "--budget", 6, "--out", out) == 0
        assert (out / "training_cost.csv").is_file()

    @pytest.mark.parametrize("flag", ["--max-requests", "--slices-per-client"])
    def test_past_old_stirling_cap_matches_closed_form(self, tmp_path, flag):
        # 257 needs Stirling numbers S(r, m) past r = 256; the default
        # B = L = 10 draws the FedSGT curve
        sizes = {"--max-requests": 25, "--slices-per-client": 2, flag: 257}
        out = tmp_path / "a"
        assert run("analyze", *(x for kv in sizes.items() for x in kv),
                   "--out", out) == 0
        doc = json.loads((out / "analyze.json").read_text())
        assert doc["remaining_curve"]["fedsgt"] == [
            fedsgt.analytics.expected_remaining_fedsgt(50_000, 10, r)
            for r in range(sizes["--max-requests"] + 1)]
        assert doc["comm_cost"]["fedsgt_expected_client_rounds"] == \
            fedsgt.analytics.expected_comm_cost(10, sizes["--slices-per-client"])

    def test_long_curve_without_fedsgt_closed_form(self, tmp_path):
        # B < L draws only the FedCIO curve, which needs no Stirling numbers
        out = tmp_path / "a"
        assert run("analyze", "--budget", 2, "--max-requests", 257,
                   "--out", out) == 0
        doc = json.loads((out / "analyze.json").read_text())
        assert doc["remaining_curve"]["fedsgt"] is None
        assert len(doc["remaining_curve"]["fedcio"]) == 258

    @pytest.mark.parametrize("key, flags", [
        ("analyze10", []),
        ("analyze64", ["--groups", 64, "--budget", 64, "--max-requests", 50]),
    ])
    def test_output_bytes_match_benchmark_reference(self, tmp_path, key, flags):
        # The benchmark's mc workload checks the same two runs against the
        # same digests; this test notices a changed byte without it.
        reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
        want = json.loads(reference.read_text())["analyze"][key]
        out = tmp_path / "a"
        assert run("analyze", *flags, "--out", out) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in want}
        assert got == want


class TestValidate:
    def test_grid_passes_and_is_well_formed(self, tmp_path):
        out = tmp_path / "v"
        assert run("validate", "--trials", 20_000, "--workers", 4,
                   "--seed", 0, "--out", out) == 0
        with (out / "validation.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0].keys() == {"quantity", "params", "closed_form",
                                  "mc_mean", "mc_stderr", "zscore"}
        assert len(rows) >= 40
        for row in rows:
            assert abs(float(row["zscore"])) <= 3.0
        doc = json.loads((out / "validation.json").read_text())
        assert doc["passed"] is True
        assert doc["failures"] == []

    def test_corrupted_closed_form_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fedsgt.analytics, "deletion_rate_fedcio",
                            lambda c: 99.0)
        out = tmp_path / "v"
        assert run("validate", "--trials", 5_000, "--out", out) == 3
        doc = json.loads((out / "validation.json").read_text())
        assert doc["passed"] is False
        assert any(f["quantity"] == "deletion_rate_fedcio"
                   for f in doc["failures"])

    def test_single_trial_output_well_formed(self, tmp_path):
        out = tmp_path / "v"
        code = run("validate", "--trials", 1, "--out", out)
        assert code in (0, 3)
        with (out / "validation.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            float(row["mc_mean"])  # parses

    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_confidence_k_is_config_error(self, tmp_path, capsys, k):
        out = tmp_path / "v"
        assert run("validate", "--trials", 1, "--confidence-k", k,
                   "--out", out) == 2
        assert capsys.readouterr().err.startswith("config error: --confidence-k")
        assert not (out / "validation.json").exists()

    def test_bad_trials(self, tmp_path):
        assert run("validate", "--trials", 0, "--out", tmp_path / "v") == 2

    def test_deterministic_row_rounding_passes(self, tmp_path):
        # At 1,000 samples the L=6, r=1 remaining-data row has stderr 0 and
        # a mean two ulps from the closed form.
        out = tmp_path / "v"
        assert run("validate", "--trials", 2000, "--data-size", 1000,
                   "--out", out) == 0
        with (out / "validation.csv").open() as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["quantity"] == "expected_remaining_fedsgt"
                    and float(r["mc_stderr"]) == 0.0
                    and r["mc_mean"] != r["closed_form"]]
        assert rows and all(float(r["zscore"]) == 0.0 for r in rows)

    def test_negative_data_size(self, tmp_path, capsys):
        assert run("validate", "--data-size", -5, "--out", tmp_path / "v") == 2
        assert capsys.readouterr().err.startswith("config error: --data-size")


class TestTrain:
    def test_outputs(self, tmp_path, config_file):
        out = tmp_path / "run"
        assert run("train", "--config", config_file, "--out", out) == 0
        for name in ("bank.fsgt", "plan.json", "manifest.json",
                     "training_report.csv", "training_report.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "training_report.json").read_text())
        assert report["ensemble_test_accuracy"] > 0.8
        assert report["parameter_updates"] > 0

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path,
                                                   config_file):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run("train", "--config", config_file, "--out", out1) == 0
        assert run("train", "--config", out1 / "manifest.json",
                   "--out", out2) == 0
        assert (out1 / "bank.fsgt").read_bytes() == \
            (out2 / "bank.fsgt").read_bytes()
        assert (out1 / "plan.json").read_text() == \
            (out2 / "plan.json").read_text()

    def test_workers_flag_is_usage_error(self, tmp_path, config_file):
        for command in ("train", "compare"):
            out = tmp_path / command
            assert run(command, "--config", config_file, "--workers", 1,
                       "--out", out) == 2
            assert not out.exists()

    def test_invalid_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"clients": -3, "strategy": "best"}')
        assert run("train", "--config", bad, "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize("change", [
        {"groups": 3, "budget": 7},  # 3! = 6 distinct orders
        {"dataset": {**CONFIG["dataset"], "alpha": math.nan}},
        {"dataset": {**CONFIG["dataset"], "alpha": 10**400}},
        {"trainer": {**CONFIG["trainer"], "lr": math.inf}},
    ], ids=["budget-beyond-orders", "alpha-nan", "alpha-past-float-range",
            "lr-inf"])
    def test_config_rejected_at_load(self, tmp_path, capsys, change):
        config = write_json(tmp_path / "config.json", {**CONFIG, **change})
        out = tmp_path / "run"
        assert run("train", "--config", config, "--out", out) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (out / "bank.fsgt").exists()

    @pytest.mark.parametrize("doc, error", [
        ({**CONFIG, "trainer": 5}, "trainer: expected an object"),
        ({**CONFIG, "dataset": "x"}, "dataset: expected an object"),
        ({**CONFIG, "requests": []}, "requests: expected an object"),
        ([], "configuration root: expected an object"),
        ({**CONFIG, "out": 5}, "out: expected a nonempty string or null, got 5"),
        ({**CONFIG, "requests": {"script": [{"client": 0, "slice": 0}],
                                 "count": 3}},
         "requests.count: unknown key when 'script' is given"),
    ], ids=["trainer-number", "dataset-string", "requests-list", "root-list",
            "out-number", "script-and-count"])
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, doc,
                                                error):
        config = write_json(tmp_path / "config.json", doc)
        assert run("train", "--config", config, "--out", tmp_path / "run") == 2
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not (tmp_path / "run").exists()

    def test_missing_config(self, tmp_path):
        assert run("train", "--config", tmp_path / "nope.json",
                   "--out", tmp_path / "x") == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("train", "--config", bad, "--out", tmp_path / "x") == 2


class TestUnlearn:
    def test_stream_with_audit(self, tmp_path, trained):
        out = tmp_path / "u"
        assert run("unlearn", "--bank", trained / "bank.fsgt", "--count", 3,
                   "--request-seed", 5, "--record-count", 10, "--audit",
                   "--out", out) == 0
        with (out / "timeline.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["notes"] == "baseline"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["audit"]["passed"] is True
        state = json.loads((out / "final_state.json").read_text())
        assert state["format"] == "fedsgt-state"

    def test_requests_file(self, tmp_path, trained):
        reqs = tmp_path / "reqs.json"
        reqs.write_text(json.dumps([
            {"client": 0, "slice": 0, "records": 5},
            {"client": 3, "slice": 1, "records": 5}]))
        out = tmp_path / "u"
        assert run("unlearn", "--bank", trained / "bank.fsgt",
                   "--requests-file", reqs, "--out", out) == 0
        with (out / "timeline.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3

    def test_unknown_slice_in_requests_file(self, tmp_path, trained):
        reqs = tmp_path / "reqs.json"
        reqs.write_text(json.dumps([{"client": 77, "slice": 0}]))
        assert run("unlearn", "--bank", trained / "bank.fsgt",
                   "--requests-file", reqs, "--out", tmp_path / "u") == 2

    def test_corrupt_bank(self, tmp_path):
        bank = tmp_path / "bad.fsgt"
        bank.write_bytes(b"XXXX" + b"\x00" * 40)
        assert run("unlearn", "--bank", bank, "--out", tmp_path / "u") == 4

    def test_missing_bank(self, tmp_path):
        assert run("unlearn", "--bank", tmp_path / "none.fsgt",
                   "--out", tmp_path / "u") == 4

    @pytest.mark.parametrize("field, value, message", [
        ("weight", math.nan, "sequence 0, phase 0 holds a non-finite weight"),
        ("weight", -math.inf, "sequence 0, phase 0 holds a non-finite weight"),
        ("samples", 0, "sequence 0: sample counts [0, "),
        ("backbone", 0.25, "backbone is not zero"),
    ], ids=["nan-weight", "inf-weight", "zero-samples", "nonzero-backbone"])
    def test_contradictory_bank(self, tmp_path, trained, capsys, field, value,
                                message):
        # The bank parses and matches its plan's shape, but no training run
        # writes these bytes; unlearn must refuse it, not serve it.
        bank = trained / "bank.fsgt"
        raw = bytearray(bank.read_bytes())
        _, _, _, _, d, k = struct.unpack_from("<4sIIIII", raw)
        module = 24 + 8 * k * d
        if field == "weight":
            struct.pack_into("<d", raw, module + 12, value)
        elif field == "backbone":
            struct.pack_into("<d", raw, 24, value)
        else:
            struct.pack_into("<Q", raw, module + 4, value)
        bank.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run("unlearn", "--bank", bank, "--out", tmp_path / "u") == 4
        assert message in capsys.readouterr().err
        assert not (tmp_path / "u").exists()

    @staticmethod
    def manifest_with(trained, tmp_path, **changes):
        """The run's manifest with ``changes`` applied to its config (a key
        ``section__field`` reaches into a section), written in ``tmp_path``."""
        doc = json.loads((trained / "manifest.json").read_text())
        for key, value in changes.items():
            *sections, field = key.split("__")
            target = doc["config"]
            for section in sections:
                target = target[section]
            target[field] = value
        return write_json(tmp_path / "other-manifest.json", doc)

    @pytest.mark.parametrize("audit", [[], ["--audit"]], ids=["serve", "audit"])
    def test_plan_with_other_group_count_is_config_error(self, tmp_path, trained,
                                                         capsys, audit):
        # The plan and sequence family unlearn serves are the ones the
        # manifest determines; a manifest with other groups gives a family
        # the bank contradicts.
        manifest = self.manifest_with(trained, tmp_path, groups=4)
        bank = trained / "bank.fsgt"
        capsys.readouterr()
        assert run("unlearn", "--bank", bank, "--manifest", manifest,
                   "--count", 3, *audit, "--out", tmp_path / "u") == 2
        assert capsys.readouterr().err == (
            f"config error: manifest {manifest} and bank {bank} disagree: the "
            f"model has 5 sequences of 5 groups, the family 5 of 4\n")
        assert not (tmp_path / "u").exists()

    @pytest.mark.parametrize("audit", [[], ["--audit"]], ids=["serve", "audit"])
    def test_manifest_with_other_budget_is_config_error(self, tmp_path, trained,
                                                        capsys, audit):
        # The bank's 5 sequences are not the family the manifest's budget
        # builds; serving them under that manifest used to pass the audit.
        manifest = self.manifest_with(trained, tmp_path, budget=1)
        bank = trained / "bank.fsgt"
        capsys.readouterr()
        assert run("unlearn", "--bank", bank, "--manifest", manifest,
                   "--count", 3, *audit, "--out", tmp_path / "u") == 2
        assert capsys.readouterr().err == (
            f"config error: manifest {manifest} and bank {bank} disagree: the "
            f"model has 5 sequences of 5 groups, the family 1 of 5\n")
        assert not (tmp_path / "u").exists()

    def test_manifest_with_other_seeded_orders_is_config_error(self, tmp_path,
                                                               capsys):
        # Past the 5 rotations the seed draws the orders. Equal slices give
        # every seed's plan the same running totals, so only the orders
        # tell this manifest from the run's.
        out = tmp_path / "run"
        config = write_json(tmp_path / "config.json", {**CONFIG, "budget": 7})
        assert run("train", "--config", config, "--out", out) == 0
        manifest = self.manifest_with(out, tmp_path, seed=12)
        bank = out / "bank.fsgt"
        capsys.readouterr()
        assert run("unlearn", "--bank", bank, "--manifest", manifest,
                   "--count", 3, "--audit", "--out", tmp_path / "u") == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: manifest {manifest} and bank {bank} disagree: "
            f"sequence 5: the model was trained in order ")
        assert err.count("\n") == 1
        assert not (tmp_path / "u").exists()

    def test_plan_with_other_group_totals_is_config_error(self, tmp_path,
                                                          trained, capsys):
        # Other clients or slice sizes give a plan of the bank's shape whose
        # running sample totals the bank's modules did not see. At 40
        # records a request exceeds every slice of the bank's own plan.
        bank = trained / "bank.fsgt"
        for change in ({"clients": 6}, {"dataset__samples_per_client": 120}):
            manifest = self.manifest_with(trained, tmp_path, **change)
            capsys.readouterr()
            assert run("unlearn", "--bank", bank, "--manifest", manifest,
                       "--count", 3, "--record-count", 40, "--audit",
                       "--out", tmp_path / "u") == 2, change
            err = capsys.readouterr().err
            assert err.startswith(
                f"config error: manifest {manifest} and bank {bank} disagree: "
                f"sequence 0, phase "), change
            assert err.count("\n") == 1 and "Traceback" not in err
            assert not (tmp_path / "u").exists()
        assert err.endswith(
            "phase 0: the model's module saw 60 samples, the plan gives 120\n")

    @pytest.mark.parametrize("audit", [[], ["--audit"]], ids=["serve", "audit"])
    @pytest.mark.parametrize("change, gives", [
        ({"dataset__dim": 9}, "3 classes of 9 features"),
        ({"dataset__classes": 4}, "4 classes of 8 features"),
    ], ids=["dim", "classes"])
    def test_manifest_with_other_shape_is_config_error(self, tmp_path, trained,
                                                       capsys, change, gives,
                                                       audit):
        # Other features ended in a matmul traceback (exit 1); other classes
        # served (exit 0), and --audit blamed the modules (exit 5).
        manifest = self.manifest_with(trained, tmp_path, **change)
        bank = trained / "bank.fsgt"
        capsys.readouterr()
        assert run("unlearn", "--bank", bank, "--manifest", manifest,
                   "--count", 3, *audit, "--out", tmp_path / "u") == 2
        assert capsys.readouterr().err == (
            f"config error: manifest {manifest} and bank {bank} disagree: the "
            f"dataset has {gives}, the model 3 classes of 8 features\n")
        assert not (tmp_path / "u").exists()

    def test_plan_file_is_not_read(self, tmp_path, trained):
        # plan.json is an output of train; unlearn derives the same plan
        # from the manifest, so a run directory without it (or with a
        # document that is not a plan) serves and audits unchanged.
        argv = ["--count", 4, "--request-seed", 5, "--record-count", 10,
                "--audit"]
        assert run("unlearn", "--bank", trained / "bank.fsgt", *argv,
                   "--out", tmp_path / "with") == 0
        (trained / "plan.json").unlink()
        assert run("unlearn", "--bank", trained / "bank.fsgt", *argv,
                   "--out", tmp_path / "without") == 0
        (trained / "plan.json").write_text("not a plan")
        assert run("unlearn", "--bank", trained / "bank.fsgt", *argv,
                   "--out", tmp_path / "garbage") == 0
        for name in ("timeline.csv", "summary.json", "final_state.json"):
            expected = (tmp_path / "with" / name).read_bytes()
            assert (tmp_path / "without" / name).read_bytes() == expected
            assert (tmp_path / "garbage" / name).read_bytes() == expected

    def test_plan_flag_is_usage_error(self, tmp_path, trained, capsys):
        # --plan was removed with the plan input; like analyze --clients,
        # passing it is a usage error.
        assert run("unlearn", "--bank", trained / "bank.fsgt", "--plan",
                   trained / "plan.json", "--out", tmp_path / "u") == 2
        assert "unrecognized arguments: --plan" in capsys.readouterr().err
        assert not (tmp_path / "u").exists()

    def test_tampered_bank_fails_audit(self, tmp_path, trained):
        raw = bytearray((trained / "bank.fsgt").read_bytes())
        raw[-4] ^= 0x01  # flip one bit inside the last module's weights
        (trained / "bank.fsgt").write_bytes(bytes(raw))
        out = tmp_path / "u"
        code = run("unlearn", "--bank", trained / "bank.fsgt", "--count", 1,
                   "--request-seed", 5, "--record-count", 5, "--audit",
                   "--out", out)
        summary = json.loads((out / "summary.json").read_text())
        # the flipped bit lands in the highest sequence's last module; the
        # audit only certifies surviving prefixes, so either the audit
        # caught it (exit 5) or the damaged module was already deactivated
        if summary["audit"]["passed"]:
            assert code == 0
        else:
            assert code == 5


    def test_module_one_ulp_off_fails_audit(self, tmp_path, capsys):
        # The nudged bank is finite and consistent, so it loads and serves;
        # only the audit's retrain can tell, and it names the module.
        out = tmp_path / "run"
        config = write_json(tmp_path / "config.json",
                            {**CONFIG, "groups": 4, "budget": 4})
        assert run("train", "--config", config, "--out", out) == 0
        bank = out / "bank.fsgt"
        raw = bytearray(bank.read_bytes())
        _, _, groups, _, d, k = struct.unpack_from("<4sIIIII", raw)
        weight = 24 + 8 * k * d + (1 * groups + 2) * (12 + 8 * k * d) + 12
        (value,) = struct.unpack_from("<d", raw, weight)
        struct.pack_into("<d", raw, weight, math.nextafter(value, math.inf))
        bank.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run("unlearn", "--bank", bank, "--audit",
                   "--out", tmp_path / "u") == 5
        assert capsys.readouterr().err == (
            "unlearn: exactness audit FAILED at sequence/phase (1, 2)\n")
        summary = json.loads((tmp_path / "u" / "summary.json").read_text())
        assert summary["audit"] == {
            "passed": False, "sequences_checked": 2, "modules_checked": 7,
            "modules_served": 16, "first_mismatch": [1, 2]}


@pytest.fixture(scope="module")
def acceptance_bank(tmp_path_factory):
    """A bank trained at the acceptance point: the default config, L=B=10."""
    root = tmp_path_factory.mktemp("acceptance")
    config = write_json(root / "config.json", {"experiment": "acceptance"})
    assert run("train", "--config", config, "--out", root / "run") == 0
    return root / "run" / "bank.fsgt"


@pytest.mark.parametrize("count,checked,line", [
    (5, 16, "audit passed: 16 of 100 served modules retrained"),
    (28, 0, "audit checked 0 of 100 served modules: no module survives"),
])
def test_audit_says_what_it_covered(tmp_path, capsys, acceptance_bank, count,
                                    checked, line):
    # Both cases exit 0, so the audit line is all that tells a stream whose
    # audit retrained 16 served modules from one whose audit checked none.
    out = tmp_path / "u"
    assert run("unlearn", "--bank", acceptance_bank, "--count", count,
               "--audit", "--out", out) == 0
    assert capsys.readouterr().out.rstrip().endswith(f", {line}")
    audit = json.loads((out / "summary.json").read_text())["audit"]
    assert (audit["passed"], audit["modules_checked"],
            audit["modules_served"]) == (True, checked, 100)


def test_trainer_config_carries_every_module_trainer_key():
    # One non-default value per trainer key: each module-training key must
    # reach the library's trainer settings, which declare only the seed;
    # the baselines' T stays in the run config, where `compare` reads it.
    raw = {f.name: (f.default * 2 if isinstance(f.default, float)
                    else f.default + 1) for f in fields(TrainerSpec)}
    cfg = validate_config({"seed": 9, "trainer": raw})
    del raw["fedavg_rounds"]
    assert asdict(trainer_config(cfg)) == {**raw, "seed": 9}
    assert cfg.trainer.fedavg_rounds == 11


class TestCompare:
    def test_merged_timeline(self, tmp_path, config_file):
        out = tmp_path / "c"
        assert run("compare", "--config", config_file, "--out", out) == 0
        with (out / "timeline.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        methods = {r["method"] for r in rows}
        assert methods == {"FedSGT", "FedCIO", "FedRetrain"}
        doc = json.loads((out / "compare.json").read_text())
        assert doc["requests"] == 4
        for key in ("fedsgt", "fedcio", "fedretrain"):
            assert "failure_step" in doc[key]

    @pytest.mark.parametrize("stride", [1, 5])
    def test_fedretrain_fails_when_no_record_remains(self, tmp_path, stride):
        # One 10-record slice and a request for 50: the first request
        # deletes every record, so FedRetrain has nothing left to serve.
        config = write_json(tmp_path / "config.json", {
            "clients": 1, "slices_per_client": 1, "groups": 1, "budget": 1,
            "clusters": 1,
            "dataset": {"samples_per_client": 10, "test_samples": 20},
            "trainer": {"epochs": 1, "fedavg_rounds": 1},
            "requests": {"count": 1, "record_count": 50}})
        out = tmp_path / "c"
        assert run("compare", "--config", config, "--out", out,
                   "--retrain-stride", stride) == 0
        with (out / "timeline.csv").open() as fh:
            rows = [r for r in csv.DictReader(fh) if r["method"] == "FedRetrain"]
        assert [(r["step"], r["status"], r["surviving"], r["utility"])
                for r in rows][1:] == [("1", "failed", "0", "")]
        doc = json.loads((out / "compare.json").read_text())
        assert doc["fedretrain"]["failure_step"] == 1


class TestCsvDataset:
    """Train and compare from a ``dataset.kind: csv`` config."""

    CONFIG = {**CONFIG, "seed": 3, "clients": 4, "slices_per_client": 3,
              "groups": 4, "budget": 4}

    @staticmethod
    def as_csv(tmp_path, config, dataset):
        save_csv_dataset(dataset, tmp_path / "data.csv", tmp_path / "data.json")
        return write_json(tmp_path / "csv-config.json", {
            **config, "dataset": {"kind": "csv", "path": str(tmp_path / "data.csv"),
                                  "manifest": str(tmp_path / "data.json")}})

    def test_train_matches_the_synthetic_run(self, tmp_path):
        synthetic = write_json(tmp_path / "config.json", self.CONFIG)
        dataset = build_dataset(validate_config(self.CONFIG))
        csv_config = self.as_csv(tmp_path, self.CONFIG, dataset)
        assert run("train", "--config", synthetic, "--out", tmp_path / "a") == 0
        assert run("train", "--config", csv_config, "--out", tmp_path / "b") == 0
        for name in ("bank.fsgt", "plan.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_more_groups_than_dataset_slices(self, tmp_path, capsys, command):
        one_slice = synth_dataset(clients=1, samples_per_client=60, dim=8,
                                  classes=3, alpha=None, seed=0)
        config = self.as_csv(tmp_path, {**CONFIG, "groups": 2, "budget": 2,
                                        "clusters": 1}, one_slice)
        assert run(command, "--config", config, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: groups: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_more_clusters_than_dataset_clients(self, tmp_path, capsys, command):
        # The config's own clients field would allow 3 clusters; the
        # dataset's 2 clients do not.
        two_clients = synth_dataset(clients=2, samples_per_client=60, dim=8,
                                    classes=3, alpha=None, seed=0,
                                    slices_per_client=2)
        config = self.as_csv(tmp_path, {**CONFIG, "groups": 2, "budget": 2,
                                        "clusters": 3}, two_clients)
        assert run(command, "--config", config, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: clusters: ") and err.count("\n") == 1
        assert "the 2 clients of dataset" in err
        assert not (tmp_path / "o").exists()

    def test_clusters_checked_against_dataset_not_config_clients(self, tmp_path):
        # A config clients field below clusters says nothing about a csv
        # dataset, which brings its own 4 clients.
        dataset = build_dataset(validate_config(self.CONFIG))
        config = self.as_csv(tmp_path, {**self.CONFIG, "clients": 1,
                                        "clusters": 3}, dataset)
        assert run("compare", "--config", config, "--out", tmp_path / "o") == 0
        assert json.loads((tmp_path / "o" / "compare.json").read_text())["fedcio"]

    @pytest.mark.parametrize("place", ["dim", "classes", "slice", "test"])
    def test_manifest_number_past_float_range(self, tmp_path, capsys, place):
        # json reads 1e400 as inf; bare int() raised OverflowError, a
        # traceback and exit 1.
        dataset = build_dataset(validate_config(self.CONFIG))
        config = self.as_csv(tmp_path, self.CONFIG, dataset)
        manifest = tmp_path / "data.json"
        doc = json.loads(manifest.read_text())
        if place == "slice":
            doc["clients"][1]["slices"][0][1] = "HUGE"
        elif place == "test":
            doc["test"][0] = "HUGE"
        else:
            doc[place] = "HUGE"
        manifest.write_text(json.dumps(doc).replace('"HUGE"', "1e400"))
        assert run("train", "--config", config, "--out", tmp_path / "o") == 5
        err = capsys.readouterr().err
        assert err.startswith("training error: ") and err.count("\n") == 1
        assert "expected an integer, got inf" in err

    def test_empty_test_split(self, tmp_path, capsys):
        # train exited 0 and wrote NaN accuracies, which is not JSON.
        dataset = build_dataset(validate_config(self.CONFIG))
        config = self.as_csv(tmp_path, self.CONFIG, dataset)
        manifest = tmp_path / "data.json"
        doc = json.loads(manifest.read_text())
        doc["test"] = [0, 0]
        manifest.write_text(json.dumps(doc))
        assert run("train", "--config", config, "--out", tmp_path / "o") == 5
        err = capsys.readouterr().err
        assert err.startswith("training error: ") and err.count("\n") == 1
        assert "test: row span [0, 0] holds no rows" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_client_without_slices(self, tmp_path, capsys, command):
        # The empty entry counted toward clusters: train exited 0, and
        # compare exited 5 only once its fifth cluster had no data.
        dataset = build_dataset(validate_config(self.CONFIG))
        config = self.as_csv(tmp_path, {**self.CONFIG, "clusters": 5}, dataset)
        manifest = tmp_path / "data.json"
        doc = json.loads(manifest.read_text())
        doc["clients"].append({"client": 4, "slices": []})
        manifest.write_text(json.dumps(doc))
        assert run(command, "--config", config, "--out", tmp_path / "o") == 5
        err = capsys.readouterr().err
        assert err.startswith("training error: ") and err.count("\n") == 1
        assert "clients[4].slices: expected a list of at least one span" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, error", [
        (lambda row: row[:-1], "csv row 2: expected 9 fields"),
        (lambda row: row[:1] + ["x"] + row[2:],
         "csv row 2: could not convert string to float: 'x'"),
        (lambda row: ["3"] + row[1:], "csv labels outside [0, classes)"),
    ], ids=["field-count", "non-numeric", "label-past-classes"])
    def test_bad_csv_row(self, tmp_path, capsys, edit, error):
        dataset = build_dataset(validate_config(self.CONFIG))
        config = self.as_csv(tmp_path, self.CONFIG, dataset)
        data = tmp_path / "data.csv"
        header, first, *rest = data.read_text().splitlines()
        data.write_text("\n".join(
            [header, ",".join(edit(first.split(","))), *rest]) + "\n")
        assert run("train", "--config", config, "--out", tmp_path / "o") == 5
        assert capsys.readouterr().err == f"training error: {error}\n"
        assert not (tmp_path / "o").exists()

    def test_unlearn_checks_bank_shape_against_csv_dataset(self, tmp_path,
                                                           capsys):
        # The csv files a run's manifest names are rewritten with more
        # features; the bank's modules cannot serve them.
        dataset = build_dataset(validate_config(self.CONFIG))
        config = self.as_csv(tmp_path, self.CONFIG, dataset)
        assert run("train", "--config", config, "--out", tmp_path / "run") == 0
        wider = build_dataset(validate_config({
            **self.CONFIG, "dataset": {**self.CONFIG["dataset"], "dim": 9}}))
        save_csv_dataset(wider, tmp_path / "data.csv", tmp_path / "data.json")
        bank = tmp_path / "run" / "bank.fsgt"
        manifest = tmp_path / "run" / "manifest.json"
        capsys.readouterr()
        assert run("unlearn", "--bank", bank, "--count", 3,
                   "--out", tmp_path / "u") == 2
        assert capsys.readouterr().err == (
            f"config error: manifest {manifest} and bank {bank} disagree: the "
            f"dataset has 3 classes of 9 features, the model 3 classes of 8 "
            f"features\n")
        assert not (tmp_path / "u").exists()

    @pytest.mark.parametrize("text, code", [
        ("{not json", 5), ("[]", 5), ('{"format": "fedsgt-dataset", "version": 1}', 5),
        (None, 2), ("", 2), (DEEP_JSON, 5)],
        ids=["not-json", "list", "no-dim", "missing", "directory", "deep-json"])
    def test_bad_dataset_manifest(self, tmp_path, capsys, text, code):
        dataset = build_dataset(validate_config(self.CONFIG))
        config = self.as_csv(tmp_path, self.CONFIG, dataset)
        manifest = tmp_path / "data.json"
        manifest.unlink()
        if text == "":
            manifest.mkdir()
        elif text is not None:
            manifest.write_text(text)
        assert run("train", "--config", config, "--out", tmp_path / "o") == code
        err = capsys.readouterr().err
        assert err.startswith("training error: " if code == 5 else
                              "config error: ") and err.count("\n") == 1
        assert "Traceback" not in err


UNREADABLE = {"missing": None, "directory": None,
              "non-utf8": b"\xff\xfe{\"client\": 0}", "not-json": b"{not json",
              "deep-json": DEEP_JSON.encode()}
# What a missing file's error line says before its path: the OS reason
# follows, not the exception's repr.
MISSING_PREFIX = {"--config": "config error: config file ",
                  "--manifest": "config error: config file ",
                  "--requests-file": "config error: requests file ",
                  "--bank": "bank error: "}


@pytest.mark.parametrize("kind", UNREADABLE)
@pytest.mark.parametrize("command, flag, code", [
    ("train", "--config", 2), ("compare", "--config", 2),
    ("unlearn", "--manifest", 2),
    ("unlearn", "--requests-file", 2), ("unlearn", "--bank", 4)])
def test_unreadable_input_file(tmp_path, request, capsys, command, flag, code,
                               kind):
    # Each input file the CLI reads fails with its documented exit code and
    # one error line naming the file, never a traceback.
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif UNREADABLE[kind] is not None:
        path.write_bytes(UNREADABLE[kind])
    argv = [command, flag, path]
    if command == "unlearn" and flag != "--bank":
        argv += ["--bank", request.getfixturevalue("trained") / "bank.fsgt"]
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "out") == code
    err = capsys.readouterr().err
    assert err.startswith("bank error: " if code == 4 else "config error: ")
    assert err.count("\n") == 1 and str(path) in err
    assert "Traceback" not in err
    if kind == "missing":
        assert err == f"{MISSING_PREFIX[flag]}{path}: No such file or directory\n"
    assert not (tmp_path / "out").exists()


class TestRequestScripts:
    CATALOG = [(SliceRef(0, 0), 150), (SliceRef(1, 2), 40)]

    def test_config_script_and_requests_file_agree(self, tmp_path):
        entries = [{"client": 0, "slice": 0, "records": 120},
                   {"client": 1, "slice": 2, "records": 90}]
        cfg = validate_config({"requests": {"script": entries}})
        from_file = _load_requests_file(write_json(tmp_path / "r.json", entries),
                                        self.CATALOG)
        assert build_requests(cfg, self.CATALOG) == from_file == [
            UnlearnRequest(SliceRef(0, 0), 120), UnlearnRequest(SliceRef(1, 2), 40)]

    def test_missing_records_defaults(self, tmp_path):
        entries = [{"client": 0, "slice": 0}]
        cfg = validate_config({"requests": {"script": entries}})
        assert build_requests(cfg, self.CATALOG) == [
            UnlearnRequest(SliceRef(0, 0), 100)]
        assert _load_requests_file(write_json(tmp_path / "r.json", entries),
                                   self.CATALOG) == [
            UnlearnRequest(SliceRef(0, 0), 150)]

    def test_unknown_slice_in_config_script(self):
        cfg = validate_config({"requests": {"script": [{"client": 5, "slice": 0}]}})
        with pytest.raises(ConfigurationError):
            build_requests(cfg, self.CATALOG)


@pytest.mark.parametrize("argv", [
    ["unlearn", "--requests-file", [{"client": 0, "slice": 0, "records": 0}]],
    ["unlearn", "--requests-file", [{"client": 0, "slice": 0, "records": -3}]],
    ["unlearn", "--requests-file", [{"client": "x", "slice": 0}]],
    ["unlearn", "--count", 3, "--record-count", 0],
    ["compare", "--retrain-stride", 0],
], ids=["file-records-0", "file-records-negative", "file-client-string",
        "record-count-0", "retrain-stride-0"])
def test_bad_request_input_is_config_error(tmp_path, config_file, trained,
                                           capsys, argv):
    argv = [write_json(tmp_path / "reqs.json", a) if isinstance(a, list) else a
            for a in argv]
    if argv[0] == "unlearn":
        argv += ["--bank", trained / "bank.fsgt"]
    else:
        argv += ["--config", config_file]
    assert run(*argv, "--out", tmp_path / "out") == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["validate", "--seed", -1],
                                  ["unlearn", "--count", 1, "--request-seed", -1]],
                         ids=["validate", "unlearn"])
def test_negative_seed_is_config_error(tmp_path, request, capsys, argv):
    if argv[0] == "unlearn":
        argv = [*argv, "--bank", request.getfixturevalue("trained") / "bank.fsgt"]
    assert run(*argv, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "seed: must be >= 0" in err


@pytest.mark.parametrize("command", ["analyze", "validate", "train", "unlearn",
                                     "compare"])
def test_out_under_regular_file_is_config_error(tmp_path, request, capsys,
                                                command):
    afile = tmp_path / "afile"
    afile.write_text("")
    if command == "unlearn":
        source = ["--bank", request.getfixturevalue("trained") / "bank.fsgt"]
    elif command in ("train", "compare"):
        source = ["--config", request.getfixturevalue("config_file")]
    else:
        source = []
    assert run(command, *source, "--out", afile / "sub") == 2
    assert capsys.readouterr().err.startswith(
        f"config error: --out {afile / 'sub'}: ")


@pytest.fixture(scope="module")
def shared_bank(tmp_path_factory):
    root = tmp_path_factory.mktemp("shared")
    config = write_json(root / "config.json", CONFIG)
    assert run("train", "--config", config, "--out", root / "run") == 0
    return root / "run" / "bank.fsgt"


def contract_run(command, *argv, config=None):
    """Run one subcommand with a fresh ``--out`` (and ``config``, when
    given, as its ``--config`` file) and check the contract every
    subcommand keeps: a documented exit code, never a traceback, and a
    manifest on success. Returns the exit code, stderr and the written
    files' bytes by name."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        if config is not None:
            argv = ("--config", write_json(Path(tmp) / "config.json", config),
                    *argv)
        out = Path(tmp) / "out"
        code = run(command, *argv, "--out", out)
        written = ({p.name: p.read_bytes() for p in out.iterdir()}
                   if out.exists() else {})
    assert code in {0, 2, 3, 4, 5}
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert "manifest.json" in written
    return code, err.getvalue(), written


@settings(max_examples=30, deadline=None)
@given(count=st.integers(-2, 40), request_seed=st.integers(-2, 2**70),
       record_count=st.integers(-2, 10**6),
       strategy=st.sampled_from(["allseq", "minseq", "longseq"]))
def test_unlearn_contract(shared_bank, count, request_seed, record_count,
                          strategy):
    """Any bounded request flags end in a documented exit code, never a
    traceback; success writes the run's files."""
    code, err, written = contract_run(
        "unlearn", "--bank", shared_bank, "--count", count,
        "--request-seed", request_seed, "--record-count", record_count,
        "--strategy", strategy)
    if code == 0:
        assert {"timeline.csv", "summary.json"} <= written.keys()
        # header, baseline, one row per request
        assert len(written["timeline.csv"].splitlines()) == count + 2
    else:
        assert err.startswith("config error:")


@st.composite
def near_bounds(draw, ranges):
    """One small integer per key inside its [low, high] range, where a
    callable bound reads the values drawn before it. At most one key, drawn
    too, sits just below its low end instead, so that draws reach both
    success and each range check."""
    values, lows = {}, {}
    for key, bounds in ranges.items():
        low, high = (b(values) if callable(b) else b for b in bounds)
        lows[key] = low
        values[key] = draw(st.integers(low, max(low, high)))
    broken = draw(st.one_of(st.none(), st.sampled_from(sorted(ranges))))
    if broken is not None:
        values[broken] = lows[broken] - 1
    return values


# The floats include NaN and +-inf, which JSON and argparse both let through.
REALS = st.one_of(st.floats(0.01, 2.0), st.floats())
# Cross-field limits follow the fields drawn before them; budgets pass L
# (seeded extra orders) but not L!.
CONFIG_RANGES = {
    "seed": (0, 3), "clients": (1, 6), "slices_per_client": (1, 3),
    "groups": (1, lambda v: v["clients"] * v["slices_per_client"]),
    "budget": (1, lambda v: math.factorial(min(v["groups"], 4))),
    "clusters": (1, lambda v: v["clients"]),
    "dataset.dim": (2, 6), "dataset.classes": (2, lambda v: v["dataset.dim"]),
    "dataset.samples_per_client": (lambda v: v["slices_per_client"], 30),
    "dataset.test_samples": (1, 20),
    "trainer.epochs": (0, 2), "trainer.batch_size": (1, 8),
    "trainer.rounds_per_phase": (1, 2), "trainer.fedavg_rounds": (1, 2),
    "requests.count": (0, 6), "requests.seed": (0, 3),
    "requests.record_count": (1, 50),
}
ANALYZE_RANGES = {
    "groups": (1, 12), "budget": (1, 14), "clusters": (1, 8),
    "data-size": (0, 10**6), "slices-per-client": (1, 5),
    "rounds": (1, 12), "epochs": (0, 4), "adapter-params": (1, 100),
    "t-cluster": (1, 4), "max-requests": (0, 40),
}


@st.composite
def configs(draw):
    config = {"strategy": draw(st.sampled_from(["allseq", "minseq", "longseq"])),
              "dataset": {"alpha": draw(st.one_of(st.none(), REALS))},
              "trainer": {"lr": draw(REALS)}, "requests": {}}
    for key, value in draw(near_bounds(CONFIG_RANGES)).items():
        section, _, name = key.rpartition(".")
        (config[section] if section else config)[name] = value
    return config


def flag_argv(flags):
    return [x for flag, value in flags.items() for x in (f"--{flag}", value)]


@settings(max_examples=40, deadline=None)
@given(flags=near_bounds(ANALYZE_RANGES))
def test_analyze_contract(flags):
    contract_run("analyze", *flag_argv(flags))


@settings(max_examples=20, deadline=None)
@given(flags=near_bounds({"trials": (1, 40), "workers": (1, 3),
                          "data-size": (0, 1000)}),
       seed=st.integers(-2, 2**70), confidence_k=REALS)
def test_validate_contract(flags, seed, confidence_k):
    # --flag=value keeps argparse from reading "-inf" as an option
    contract_run("validate", *flag_argv(flags), "--seed", seed,
                 f"--confidence-k={confidence_k}")


@settings(max_examples=20, deadline=None)
@given(config=configs())
def test_train_contract(config):
    code, _, written = contract_run("train", config=config)
    if code == 0:
        assert "bank.fsgt" in written


@settings(max_examples=20, deadline=None)
@given(config=configs(), stride=st.integers(0, 4))
def test_compare_contract(config, stride):
    code, _, written = contract_run("compare", "--retrain-stride", stride,
                                    config=config)
    if code == 0:
        assert "compare.json" in written


# Every integer flag as (command, flag, minimum). Written out by hand so
# that it pins the flags independently of how build_parser declares them.
INT_FLAGS = [
    ("analyze", "--groups", 1), ("analyze", "--budget", 1),
    ("analyze", "--clusters", 1), ("analyze", "--data-size", 0),
    ("analyze", "--slices-per-client", 1), ("analyze", "--rounds", 1),
    ("analyze", "--epochs", 0), ("analyze", "--adapter-params", 1),
    ("analyze", "--t-cluster", 1), ("analyze", "--max-requests", 0),
    ("validate", "--trials", 1), ("validate", "--seed", 0),
    ("validate", "--workers", 1), ("validate", "--data-size", 0),
    ("unlearn", "--count", 0), ("unlearn", "--request-seed", 0),
    ("unlearn", "--record-count", 1),
    ("compare", "--retrain-stride", 1),
]

# Every integer flag's default, written out by hand as INT_FLAGS is: a flag
# that takes its default from a field must not move when the field does.
INT_FLAG_DEFAULTS = {
    ("analyze", "--groups"): 10, ("analyze", "--budget"): 10,
    ("analyze", "--clusters"): 5, ("analyze", "--data-size"): 50_000,
    ("analyze", "--slices-per-client"): 2, ("analyze", "--rounds"): 10,
    ("analyze", "--epochs"): 3, ("analyze", "--adapter-params"): 1,
    ("analyze", "--t-cluster"): 2, ("analyze", "--max-requests"): 25,
    ("validate", "--trials"): 200_000, ("validate", "--seed"): 0,
    ("validate", "--workers"): 1, ("validate", "--data-size"): 50_000,
    ("unlearn", "--count"): 0, ("unlearn", "--request-seed"): 0,
    ("unlearn", "--record-count"): 100,
    ("compare", "--retrain-stride"): 5,
}


def test_int_flag_defaults_are_pinned():
    assert list(INT_FLAG_DEFAULTS) == [(c, f) for c, f, _ in INT_FLAGS]
    required = {"unlearn": ["--bank", "b"], "compare": ["--config", "c"]}
    parser = build_parser()
    for (command, flag), default in INT_FLAG_DEFAULTS.items():
        args = parser.parse_args([command, *required.get(command, [])])
        assert getattr(args, flag[2:].replace("-", "_")) == default, (command, flag)


@pytest.mark.parametrize("command, flag, minimum", INT_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in INT_FLAGS])
def test_flag_below_minimum_is_one_config_error(shared_bank, command, flag,
                                                minimum):
    source = ["--bank", shared_bank] if command == "unlearn" else []
    code, err, written = contract_run(
        command, *source, flag, minimum - 1,
        config=CONFIG if command == "compare" else None)
    assert (code, err, written) == (
        2, f"config error: {flag}: must be >= {minimum}\n", {})


def test_every_bad_flag_reported_in_one_pass(tmp_path, capsys):
    assert run("validate", "--trials", 0, "--seed", -1, "--workers", 0,
               "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == (
        "config error: --trials: must be >= 1\n"
        "config error: --seed: must be >= 0\n"
        "config error: --workers: must be >= 1\n")
    assert not (tmp_path / "v").exists()


def test_unlearn_checks_flags_with_requests_file(tmp_path, shared_bank,
                                                 capsys):
    reqs = write_json(tmp_path / "reqs.json",
                      [{"client": 0, "slice": 0, "records": 5}])
    flags = ["--requests-file", reqs, "--count", -7, "--record-count", 0,
             "--request-seed", -3, "--out", tmp_path / "u"]
    assert run("unlearn", "--bank", shared_bank, *flags) == 2
    assert capsys.readouterr().err == (
        "config error: --count: must be >= 0\n"
        "config error: --request-seed: must be >= 0\n"
        "config error: --record-count: must be >= 1\n")
    assert not (tmp_path / "u").exists()
    # The bank is read first: a missing one still exits 4.
    assert run("unlearn", "--bank", tmp_path / "none.fsgt", *flags) == 4


@pytest.mark.parametrize("argv, config", [
    (["analyze", "--groups", 6, "--budget", 8, "--max-requests", 3],
     {"groups": 6, "budget": 8, "clusters": 5, "data_size": 50_000,
      "slices_per_client": 2, "rounds": 10, "epochs": 3, "adapter_params": 1,
      "t_cluster": 2, "max_requests": 3}),
    (["validate", "--trials", 200, "--seed", 4, "--confidence-k", 50,
      "--data-size", 1000],
     {"trials": 200, "seed": 4, "confidence_k": 50.0, "workers": 1,
      "data_size": 1000}),
], ids=["analyze", "validate"])
def test_manifest_config_is_the_parsed_flags(tmp_path, argv, config):
    # "out" is recorded as the directory written, not as spelled. A short
    # validate may exceed its bound (exit 3); the manifest is written anyway.
    out = tmp_path / "out"
    assert run(*argv, "--out", f"{out}/") in (0, 3)
    assert json.loads((out / "manifest.json").read_text()) == {
        "tool": "fedsgt", "version": fedsgt.__version__, "command": argv[0],
        "config": {**config, "out": str(out)}}


class TestModuleEntryPoint:
    def run_module(self, module, *argv):
        src = str(Path(fedsgt.analytics.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-m", module, *map(str, argv)],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    def test_analyze_and_config_error(self, tmp_path):
        done = self.run_module("fedsgt", "analyze", "--out", tmp_path / "a")
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "a" / "analyze.json").is_file()
        done = self.run_module("fedsgt", "validate", "--data-size", -5,
                               "--out", tmp_path / "v")
        assert done.returncode == 2
        assert "config error: --data-size" in done.stderr

    @pytest.mark.parametrize("module", ["fedsgt", "fedsgt.cli"])
    def test_version(self, module):
        done = self.run_module(module, "--version")
        assert (done.returncode, done.stdout, done.stderr) == (
            0, f"{fedsgt.__version__}\n", "")

    def test_cli_module_runs(self, tmp_path):
        done = self.run_module("fedsgt.cli", "validate", "--data-size", -5,
                               "--out", tmp_path / "v")
        assert done.returncode == 2
        assert "config error: --data-size" in done.stderr


class TestRareErrors:
    """Error paths no command reaches with valid package code, driven
    directly so each keeps its exit code and message."""

    def test_version_through_the_package_main(self, monkeypatch, capsys):
        # What ``python -m fedsgt --version`` runs, in this process.
        monkeypatch.setattr(sys, "argv", ["fedsgt", "--version"])
        with pytest.raises(SystemExit) as done:
            runpy.run_module("fedsgt", run_name="__main__")
        assert done.value.code == 0
        assert capsys.readouterr().out == f"{fedsgt.__version__}\n"

    def test_other_package_error_is_one_error_line(self, monkeypatch, capsys,
                                                   tmp_path):
        def fails(args):
            raise ServiceUnavailable("all sequences dead")

        monkeypatch.setattr(fedsgt.cli, "cmd_analyze", fails)
        assert run("analyze", "--out", tmp_path / "a") == 2
        assert capsys.readouterr().err == "error: all sequences dead\n"

    def test_unsupported_dataset_spec(self):
        cfg = dataclasses.replace(validate_config(CONFIG), dataset=None)
        with pytest.raises(ConfigurationError,
                           match="^unsupported dataset spec None$"):
            build_dataset(cfg)

    @pytest.mark.parametrize("field", range(4),
                             ids=["groups", "budget", "dim", "classes"])
    def test_bank_with_a_zero_dimension_exits_4(self, tmp_path, capsys, field):
        dims = [1, 1, 1, 1]
        dims[field] = 0
        bank = tmp_path / "bank.fsgt"
        bank.write_bytes(struct.pack("<4sIIIII", b"FSGT", 1, *dims))
        assert run("unlearn", "--bank", bank, "--out", tmp_path / "u") == 4
        assert capsys.readouterr().err == (
            f"bank error: {bank}: bank header has nonpositive dimensions\n")


class TestParser:
    def test_unknown_command(self):
        assert run("frobnicate") == 2

    def test_no_command(self):
        assert run() == 2

    def test_version_exits_zero(self):
        assert run("--version") == 0

    def test_version_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(),
                             re.MULTILINE)
        assert declared is not None
        assert declared.group(1) == fedsgt.__version__
