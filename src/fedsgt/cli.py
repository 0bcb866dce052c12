"""Command-line front end.

Subcommands:

    analyze    closed-form tables (deletion rates, remaining-data curves,
               communication cost, training cost, matched budget)
    validate   Monte Carlo cross-check of every closed form; fails the run
               when any |z| exceeds the confidence bound
    train      train a full system from a config file and write the module
               bank, grouping plan, and manifest
    unlearn    stream deletion requests against a trained bank and write the
               service timeline
    compare    run FedSGT, FedCIO, and FedRetrain under one request stream

Exit codes: 0 success, 2 configuration problem, 3 validation failure,
4 corrupt module bank, 5 training failure. Every command writes a manifest
echoing its resolved configuration; re-running ``train`` from a manifest
reproduces the bank byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__, analytics, montecarlo
from .bank import read_bank, write_bank
from .core import (STRATEGIES, BankFormatError, ConfigurationError, CsvSpec,
                   FedSGTError, ModuleTrainerSpec, RequestSpec, RunConfig,
                   SyntheticSpec, TrainingError, _count, _positive_number,
                   budget_error, dataset_fit_errors, parse_script,
                   validate_config)
from .dataset import Dataset, load_csv_dataset, synth_dataset
from .fltrain import (CostMeter, TrainConfig, evaluate, sequence_logits,
                      train_fedsgt)
from .grouping import GroupingPlan, SliceRef, build_grouping, plan_to_json
from .montecarlo import MCConfig
from .sequencing import build_sequences, fresh_state, state_to_json
from .unlearn import (UnlearnRequest, exactness_audit, fedcio_simulate,
                      fedretrain_simulate, fedsgt_system, run_stream,
                      timeline_summary, uniform_requests, write_timeline)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_BANK = 4
EXIT_TRAINING = 5


def _write_json(path: Path, doc: Any) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(outdir: Path, command: str, config: dict) -> None:
    _write_json(outdir / "manifest.json",
                {"tool": "fedsgt", "version": __version__,
                 "command": command, "config": config})


def _flag_config(args: argparse.Namespace, outdir: Path) -> dict:
    """The parsed flags as a manifest config, with ``out`` resolved."""
    flags = {name: value for name, value in vars(args).items()
             if name not in ("command", "func", "minimums")}
    return {**flags, "out": str(outdir)}


def _check_flags(args: argparse.Namespace, errors: Sequence[str] = ()) -> None:
    """Raise one ConfigurationError naming every integer flag below its
    declared minimum, in declaration order, followed by ``errors``."""
    errors = [*(f"{flag}: must be >= {minimum}"
                for flag, dest, minimum in args.minimums
                if getattr(args, dest) < minimum), *errors]
    if errors:
        raise ConfigurationError(errors)


def _outdir(raw: str) -> Path:
    path = Path(raw)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError([f"--out {path}: {exc.strerror}"]) from exc
    return path


def _load_json(path: Path, label: str) -> Any:
    """The JSON document in the input file at ``path``. A file that cannot
    be read or is not UTF-8, and text that is not JSON or nests too deeply
    to parse, are one config error naming ``label`` and the file."""
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError([f"{label} {path}: {exc.strerror or exc}"]) from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError([f"{label} {path}: {exc}"]) from exc


def load_config_file(path: str | Path) -> RunConfig:
    """Read a config file; a manifest written by this tool is accepted too
    (its embedded config is used)."""
    doc = _load_json(Path(path), "config file")
    if isinstance(doc, dict) and doc.get("tool") == "fedsgt" and "config" in doc:
        doc = doc["config"]
    return validate_config(doc)


def build_dataset(cfg: RunConfig) -> Dataset:
    spec = cfg.dataset
    if isinstance(spec, SyntheticSpec):
        return synth_dataset(clients=cfg.clients, seed=cfg.seed,
                             slices_per_client=cfg.slices_per_client,
                             **dataclasses.asdict(spec))
    if isinstance(spec, CsvSpec):
        try:
            dataset = load_csv_dataset(spec.path, spec.manifest)
        except OSError as exc:
            raise ConfigurationError(
                [f"dataset file {exc.filename}: {exc.strerror or exc}"]) from exc
        # A csv dataset brings its own clients and slices, so its fit is
        # checked here rather than in validate_config.
        errors = dataset_fit_errors(cfg, len(dataset.slice_catalog()),
                                    dataset.client_count, f"dataset {spec.manifest}")
        if errors:
            raise ConfigurationError(errors)
        return dataset
    raise ConfigurationError([f"unsupported dataset spec {spec!r}"])


def resolve_script(script: Sequence[tuple[int, int, int | None]],
                   catalog: list[tuple[SliceRef, int]], label: str
                   ) -> list[UnlearnRequest]:
    """Requests for parsed script entries. Every slice must be in the
    catalog; record counts are capped at the slice size, and a count of None
    takes the whole slice."""
    sizes = dict(catalog)
    targets = [(SliceRef(client, sl), records) for client, sl, records in script]
    errors = [f"{label}[{i}]: unknown slice ({ref.client_id},{ref.slice_idx})"
              for i, (ref, _) in enumerate(targets) if ref not in sizes]
    if errors:
        raise ConfigurationError(errors)
    return [UnlearnRequest(target=ref, record_count=sizes[ref] if records is None
                           else min(records, sizes[ref]))
            for ref, records in targets]


def build_requests(cfg: RunConfig, catalog: list[tuple[SliceRef, int]]
                   ) -> list[UnlearnRequest]:
    spec = cfg.requests
    if spec.script is not None:
        return resolve_script(spec.script, catalog, "requests.script")
    return uniform_requests(catalog, spec.count, spec.seed, spec.record_count)


def trainer_config(cfg: RunConfig) -> TrainConfig:
    keys = [f.name for f in dataclasses.fields(ModuleTrainerSpec)]
    return TrainConfig(**{k: getattr(cfg.trainer, k) for k in keys}, seed=cfg.seed)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    # A group count below its minimum is reported on its own.
    problem = budget_error(args.groups, args.budget) if args.groups >= 1 else None
    _check_flags(args, [] if problem is None else [f"--budget: {problem}"])
    start = time.perf_counter()
    outdir = _outdir(args.out)
    L, B, c, D, S = args.groups, args.budget, args.clusters, args.data_size, \
        args.slices_per_client

    rate_sgt = analytics.deletion_rate_fedsgt(L, B)
    rate_cio = analytics.deletion_rate_fedcio(c)
    _write_csv(outdir / "deletion_rates.csv",
               ("method", "params", "expected_requests_to_failure"),
               [("FedSGT", f"L={L};B={B}", repr(rate_sgt)),
                ("FedCIO", f"c={c}", repr(rate_cio))])

    requests = range(args.max_requests + 1)
    # The FedSGT closed form needs a rotation for every group (B >= L).
    remaining_sgt = (analytics.expected_remaining_curve(D, L, args.max_requests)
                     if B >= L else None)
    remaining_cio = [analytics.expected_remaining_fedcio(D, c, r) for r in requests]
    _write_csv(outdir / "remaining_curve.csv",
               ("requests", "fedsgt_remaining", "fedcio_remaining"),
               [(r, "" if remaining_sgt is None else repr(remaining_sgt[r]),
                 repr(remaining_cio[r])) for r in requests])

    comm_sgt = analytics.expected_comm_cost(L, S)
    comm_cio = args.rounds + args.t_cluster
    _write_csv(outdir / "comm_cost.csv", ("metric", "value"),
               [("fedsgt_expected_client_rounds", repr(comm_sgt)),
                ("fedcio_client_rounds_incl_clustering", repr(float(comm_cio)))])

    params = analytics.AnalyticParams(
        group_count=L, budget=B, total_samples=D, rounds=args.rounds,
        epochs=args.epochs, adapter_params=args.adapter_params)
    costs = {m: analytics.training_cost(m, params)
             for m in ("FedAvg", "FedCIO", "FedSGT")}
    _write_csv(outdir / "training_cost.csv", ("method", "updates", "ratio_vs_fedavg"),
               [(m, repr(v), repr(v / costs["FedAvg"] if costs["FedAvg"] else 1.0))
                for m, v in costs.items()])

    doc = {
        "deletion_rate": {"fedsgt": rate_sgt, "fedcio": rate_cio,
                          "ratio": rate_sgt / rate_cio},
        "deletion_rate_params": {"groups": L, "budget": B, "clusters": c},
        "remaining_curve": {"requests": list(requests), "fedsgt": remaining_sgt,
                            "fedcio": remaining_cio},
        "comm_cost": {"fedsgt_expected_client_rounds": comm_sgt,
                      "fedcio_client_rounds_incl_clustering": comm_cio},
        "training_cost": costs,
        "matched_budget": analytics.matched_budget(args.rounds, L),
    }
    _write_json(outdir / "analyze.json", doc)
    _write_manifest(outdir, "analyze", _flag_config(args, outdir))
    elapsed = time.perf_counter() - start
    print(f"analyze: FedSGT sustains {rate_sgt:.4f} expected requests, "
          f"FedCIO {rate_cio:.4f} ({rate_sgt / rate_cio:.2f}x); "
          f"tables in {outdir} ({elapsed:.2f}s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    k = args.confidence_k
    _check_flags(args, [] if _positive_number(k) else
                 ["--confidence-k: must be finite and positive"])
    outdir = _outdir(args.out)
    cfg = MCConfig(trials=args.trials, seed=args.seed)
    start = time.perf_counter()
    rows = montecarlo.validation_grid(cfg, workers=args.workers,
                                      total_samples=args.data_size)
    elapsed = time.perf_counter() - start

    _write_csv(outdir / "validation.csv",
               ("quantity", "params", "closed_form", "mc_mean", "mc_stderr",
                "zscore"),
               [(r.quantity, r.params, repr(r.closed_form), repr(r.estimate.mean),
                 repr(r.estimate.stderr), repr(r.zscore)) for r in rows])
    worst = max((abs(r.zscore) for r in rows), default=0.0)
    failures = [r for r in rows if abs(r.zscore) > k]
    doc = {
        "trials": cfg.trials, "seed": cfg.seed,
        "confidence_k": k, "rows": len(rows),
        "max_abs_z": worst, "failures": [
            {"quantity": r.quantity, "params": r.params,
             "closed_form": r.closed_form, "mc_mean": r.estimate.mean,
             "zscore": r.zscore} for r in failures],
        "passed": not failures, "elapsed_seconds": elapsed,
    }
    _write_json(outdir / "validation.json", doc)
    _write_manifest(outdir, "validate", _flag_config(args, outdir))
    verdict = "ok" if not failures else f"{len(failures)} quantities off"
    print(f"validate: {len(rows)} quantities at {cfg.trials} trials, "
          f"max |z| = {worst:.3f} ({verdict}, {elapsed:.1f}s)")
    return EXIT_OK if not failures else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def build_plan(cfg: RunConfig, dataset: Dataset) -> GroupingPlan:
    """The run's slice-to-group plan: a pure function of the dataset's slice
    catalog, ``groups`` and ``seed``, so a run's manifest determines it."""
    return build_grouping(dataset.slice_catalog(), cfg.groups, cfg.seed)


def _train_system(cfg: RunConfig, dataset: Dataset):
    plan = build_plan(cfg, dataset)
    seqs = build_sequences(cfg.groups, cfg.budget, cfg.seed)
    meter = CostMeter()
    model = train_fedsgt(dataset, plan, seqs, trainer_config(cfg), meter=meter)
    return plan, seqs, model, meter


def cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config_file(args.config)
    start = time.perf_counter()
    dataset = build_dataset(cfg)
    outdir = _outdir(args.out or cfg.out or "run")
    plan, seqs, model, meter = _train_system(cfg, dataset)

    write_bank(outdir / "bank.fsgt", model)
    (outdir / "plan.json").write_text(plan_to_json(plan))

    state = fresh_state(seqs)
    per_seq = []
    for sid, perm in enumerate(seqs.perms):
        preds = np.argmax(sequence_logits(model, sid, len(perm), dataset.test_x),
                          axis=1)
        per_seq.append((sid, "-".join(map(str, perm)),
                        float(np.mean(preds == dataset.test_y))))
    _write_csv(outdir / "training_report.csv",
               ("sequence", "order", "test_accuracy"),
               [(sid, order, repr(acc)) for sid, order, acc in per_seq])
    ensemble = evaluate(model, state, cfg.strategy, dataset.test_x, dataset.test_y)
    _write_json(outdir / "training_report.json", {
        "per_sequence_test_accuracy": {str(sid): acc for sid, _, acc in per_seq},
        "ensemble_test_accuracy": ensemble,
        "strategy": cfg.strategy,
        "parameter_updates": meter.updates,
        "total_samples": dataset.total_samples,
    })
    _write_manifest(outdir, "train", cfg.to_dict())
    elapsed = time.perf_counter() - start
    print(f"train: {len(seqs.perms)} sequences x {seqs.group_count} phases, "
          f"{cfg.strategy} test accuracy {ensemble:.3f}, "
          f"bank at {outdir / 'bank.fsgt'} ({elapsed:.1f}s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# unlearn
# ---------------------------------------------------------------------------


def _load_requests_file(path: str, catalog: list[tuple[SliceRef, int]]
                        ) -> list[UnlearnRequest]:
    doc = _load_json(Path(path), "requests file")
    errors: list[str] = []
    script = parse_script(errors, doc, "requests file")
    if errors:
        raise ConfigurationError(errors)
    return resolve_script(script, catalog, "requests file")


def cmd_unlearn(args: argparse.Namespace) -> int:
    bank_path = Path(args.bank)
    model = read_bank(bank_path)

    manifest_path = (Path(args.manifest) if args.manifest
                     else bank_path.parent / "manifest.json")
    cfg = load_config_file(manifest_path)
    _check_flags(args)
    dataset = build_dataset(cfg)
    plan = build_plan(cfg, dataset)
    strategy = args.strategy or cfg.strategy
    # The system's constructor checks the bank against what the manifest
    # builds: the plan, the sequence family ``train`` builds and the dataset.
    seqs = build_sequences(cfg.groups, cfg.budget, cfg.seed)
    try:
        system = fedsgt_system(plan, seqs, strategy, model, dataset)
    except ValueError as exc:
        raise ConfigurationError([f"manifest {manifest_path} and bank "
                                  f"{bank_path} disagree: {exc}"]) from exc

    catalog = dataset.slice_catalog()
    if args.requests_file:
        requests = _load_requests_file(args.requests_file, catalog)
    else:
        requests = uniform_requests(catalog, args.count, args.request_seed,
                                    args.record_count)

    outdir = _outdir(args.out)
    records = run_stream(system, requests)
    write_timeline(outdir / "timeline.csv", records)
    summary = timeline_summary(records)
    summary["strategy"] = strategy

    audit_note = ""
    if args.audit:
        report = exactness_audit(model, plan, trainer_config(cfg), dataset,
                                 system.state.deleted)
        summary["audit"] = dataclasses.asdict(report)
        if not report.passed:
            print(f"unlearn: exactness audit FAILED at sequence/phase "
                  f"{report.first_mismatch}", file=sys.stderr)
        elif report.modules_checked:
            audit_note = (f", audit passed: {report.modules_checked} of "
                          f"{report.modules_served} served modules retrained")
        else:
            audit_note = (f", audit checked 0 of {report.modules_served} "
                          f"served modules: no module survives")
    _write_json(outdir / "summary.json", summary)
    (outdir / "final_state.json").write_text(state_to_json(system.state))
    _write_manifest(outdir, "unlearn", {
        "bank": str(bank_path), "manifest": str(manifest_path),
        "strategy": strategy,
        "requests": {"file": args.requests_file} if args.requests_file else
        {"count": args.count, "seed": args.request_seed,
         "record_count": args.record_count},
        "audit": bool(args.audit), "out": str(outdir)})
    failure = summary["failure_step"]
    print(f"unlearn: {len(records) - 1} requests, "
          f"{system.state.surviving}/{len(model.sequences.perms)} sequences "
          f"surviving"
          + (f", failed at step {failure}" if failure is not None else "")
          + audit_note)
    if args.audit and not summary["audit"]["passed"]:
        return EXIT_TRAINING
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    _check_flags(args)
    cfg = load_config_file(args.config)
    start = time.perf_counter()
    dataset = build_dataset(cfg)
    outdir = _outdir(args.out or cfg.out or "compare")
    plan, seqs, model, _ = _train_system(cfg, dataset)
    requests = build_requests(cfg, dataset.slice_catalog())
    tcfg = trainer_config(cfg)

    system = fedsgt_system(plan, seqs, cfg.strategy, model, dataset)
    sgt_records = run_stream(system, requests)
    cio_records = fedcio_simulate(dataset, cfg.clusters, tcfg, requests,
                                  rounds=cfg.trainer.fedavg_rounds)
    retrain_records = fedretrain_simulate(dataset, tcfg, requests,
                                          eval_every=args.retrain_stride,
                                          rounds=cfg.trainer.fedavg_rounds)

    merged = sgt_records + cio_records + retrain_records
    write_timeline(outdir / "timeline.csv", merged)
    doc = {
        "fedsgt": timeline_summary(sgt_records),
        "fedcio": timeline_summary(cio_records),
        "fedretrain": timeline_summary(retrain_records),
        "requests": len(requests),
        "strategy": cfg.strategy,
    }
    _write_json(outdir / "compare.json", doc)
    _write_manifest(outdir, "compare", cfg.to_dict())
    elapsed = time.perf_counter() - start

    def fmt(summary: dict) -> str:
        fs = summary["failure_step"]
        mu = summary["mean_utility"]
        return (f"failure={'never' if fs is None else fs}, "
                f"utility={'n/a' if mu is None else f'{mu:.3f}'}")

    print(f"compare: {len(requests)} requests | "
          f"FedSGT {fmt(doc['fedsgt'])} | FedCIO {fmt(doc['fedcio'])} | "
          f"FedRetrain {fmt(doc['fedretrain'])} ({elapsed:.1f}s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _int_flag(parser: argparse.ArgumentParser, flag: str,
              count: dataclasses.Field, **kwargs: Any) -> None:
    """Declare an integer flag with the default and the minimum of the
    ``_count`` field ``count``: the field the flag fills, or the flag's own.
    ``_check_flags`` enforces the minimum."""
    dest = parser.add_argument(flag, type=int, default=count.default, **kwargs).dest
    parser.set_defaults(minimums=(*(parser.get_default("minimums") or ()),
                                  (flag, dest, count.metadata["minimum"])))


def _fields(spec: type) -> dict[str, dataclasses.Field]:
    return {f.name: f for f in dataclasses.fields(spec)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsgt",
        description="Exact federated unlearning: analytics, simulation, and "
                    "serving over sequentially trained group modules.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="emit closed-form tables")
    params = _fields(analytics.AnalyticParams)
    _int_flag(p, "--groups", params["group_count"])
    _int_flag(p, "--budget", params["budget"])
    _int_flag(p, "--clusters", _count(5, 1))
    _int_flag(p, "--data-size", params["total_samples"])
    _int_flag(p, "--slices-per-client", _count(2, 1))
    _int_flag(p, "--rounds", params["rounds"])
    _int_flag(p, "--epochs", params["epochs"])
    _int_flag(p, "--adapter-params", params["adapter_params"])
    _int_flag(p, "--t-cluster", _count(2, 1),
              help="clustering overhead rounds charged to FedCIO")
    _int_flag(p, "--max-requests", _count(25, 0))
    p.add_argument("--out", default="analyze-out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("validate", help="Monte Carlo cross-check of closed forms")
    mc = _fields(MCConfig)
    _int_flag(p, "--trials", mc["trials"])
    _int_flag(p, "--seed", mc["seed"])
    p.add_argument("--confidence-k", type=float, default=3.0)
    _int_flag(p, "--workers", _count(1, 1))
    _int_flag(p, "--data-size", _count(50_000, 0))
    p.add_argument("--out", default="validate-out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train a system and write its module bank")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("unlearn", help="stream deletion requests at a bank")
    p.add_argument("--bank", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    requests = _fields(RequestSpec)
    _int_flag(p, "--count", requests["count"])
    _int_flag(p, "--request-seed", requests["seed"])
    _int_flag(p, "--record-count", requests["record_count"])
    p.add_argument("--requests-file", default=None,
                   help="JSON list of {client, slice, records}")
    p.add_argument("--audit", action="store_true",
                   help="retrain surviving prefixes and verify bit-exactness")
    p.add_argument("--out", default="unlearn-out")
    p.set_defaults(func=cmd_unlearn)

    p = sub.add_parser("compare", help="FedSGT vs FedCIO vs FedRetrain")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    _int_flag(p, "--retrain-stride", _count(5, 1))
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        for error in exc.errors:
            print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except BankFormatError as exc:
        print(f"bank error: {exc}", file=sys.stderr)
        return EXIT_BANK
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except FedSGTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
