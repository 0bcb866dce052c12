"""Shared identifiers, error taxonomy, and run configuration.

Everything downstream (grouping, sequencing, training, the CLI) speaks in
terms of the small vocabulary defined here: the serving strategies, the
error taxonomy, and a validated run configuration that is round-trippable
through JSON manifests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping

STRATEGIES = ("allseq", "minseq", "longseq")


class FedSGTError(Exception):
    """Base class for all package errors."""


class ConfigurationError(FedSGTError):
    """Invalid run configuration. Carries the full list of problems found."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class TrainingError(FedSGTError):
    """Training could not proceed (empty data, non-finite loss, ...)."""


class BankFormatError(FedSGTError):
    """A module-bank file is truncated, corrupt, or of an unknown version."""


class ServiceUnavailable(FedSGTError):
    """Every sequence is dead; no model can be served."""


class ClosedFormUnavailable(FedSGTError):
    """The requested closed form does not cover this parameter regime."""


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    dim: int = 20
    classes: int = 5
    samples_per_client: int = 200
    alpha: float | None = 0.3  # Dirichlet concentration; None means IID
    test_samples: int = 500

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "synthetic",
            "dim": self.dim,
            "classes": self.classes,
            "samples_per_client": self.samples_per_client,
            "alpha": self.alpha,
            "test_samples": self.test_samples,
        }


@dataclass(frozen=True)
class CsvSpec:
    path: str
    manifest: str

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "csv", "path": self.path, "manifest": self.manifest}


@dataclass(frozen=True)
class TrainerSpec:
    epochs: int = 3
    lr: float = 0.1
    batch_size: int = 32
    rounds_per_phase: int = 1
    fedavg_rounds: int = 10  # T for the FedAvg / FedCIO / FedRetrain baselines

    def to_dict(self) -> dict[str, Any]:
        return {
            "epochs": self.epochs,
            "lr": self.lr,
            "batch_size": self.batch_size,
            "rounds_per_phase": self.rounds_per_phase,
            "fedavg_rounds": self.fedavg_rounds,
        }


@dataclass(frozen=True)
class RequestSpec:
    """Either a seeded uniform stream (count/seed) or an explicit script."""

    count: int = 0
    seed: int = 0
    record_count: int = 100
    script: tuple[tuple[int, int, int], ...] | None = None  # (client, slice, records)

    def to_dict(self) -> dict[str, Any]:
        if self.script is not None:
            return {
                "script": [
                    {"client": c, "slice": s, "records": n} for c, s, n in self.script
                ]
            }
        return {"count": self.count, "seed": self.seed, "record_count": self.record_count}


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "default"
    seed: int = 0
    clients: int = 10
    slices_per_client: int = 5
    groups: int = 10
    budget: int = 10
    clusters: int = 5
    strategy: str = "allseq"
    dataset: SyntheticSpec | CsvSpec = field(default_factory=SyntheticSpec)
    trainer: TrainerSpec = field(default_factory=TrainerSpec)
    requests: RequestSpec = field(default_factory=RequestSpec)
    out: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "clients": self.clients,
            "slices_per_client": self.slices_per_client,
            "groups": self.groups,
            "budget": self.budget,
            "clusters": self.clusters,
            "strategy": self.strategy,
            "dataset": self.dataset.to_dict(),
            "trainer": self.trainer.to_dict(),
            "requests": self.requests.to_dict(),
            "out": self.out,
        }


def default_config() -> dict[str, Any]:
    """Baseline configuration: 10 clients, 5 slices each, 10 groups, 10
    sequences, 5 clusters, AllSeq serving, Dirichlet(0.3) synthetic data."""
    return RunConfig().to_dict()


def _expect_int(errors: list[str], raw: Mapping[str, Any], key: str, default: int,
                minimum: int, label: str | None = None) -> int:
    label = label or key
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{label}: expected an integer, got {value!r}")
        return default
    if value < minimum:
        errors.append(f"{label}: must be >= {minimum}, got {value}")
        return default
    return value


def _positive_number(value: Any) -> bool:
    """A positive number that converts to a finite float; JSON may carry
    NaN, Infinity and integers past the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def _orders_fewer_than(groups: int, budget: int) -> bool:
    """Whether groups! < budget, stopping the product once it reaches
    budget so that a large group count costs no huge factorial."""
    orders = 1
    for n in range(2, groups + 1):
        orders *= n
        if orders >= budget:
            return False
    return orders < budget


def _validate_dataset(errors: list[str], raw: Any) -> SyntheticSpec | CsvSpec:
    if raw is None:
        return SyntheticSpec()
    if not isinstance(raw, Mapping):
        errors.append("dataset: expected an object")
        return SyntheticSpec()
    kind = raw.get("kind", "synthetic")
    if kind == "synthetic":
        allowed = {"kind", "dim", "classes", "samples_per_client", "alpha", "test_samples"}
        for key in raw:
            if key not in allowed:
                errors.append(f"dataset.{key}: unknown key")
        dim = _expect_int(errors, raw, "dim", 20, 1, "dataset.dim")
        classes = _expect_int(errors, raw, "classes", 5, 2, "dataset.classes")
        samples = _expect_int(errors, raw, "samples_per_client", 200, 1,
                              "dataset.samples_per_client")
        test_samples = _expect_int(errors, raw, "test_samples", 500, 1,
                                   "dataset.test_samples")
        alpha = raw.get("alpha", 0.3)
        if alpha is not None:
            if not _positive_number(alpha):
                errors.append(
                    f"dataset.alpha: must be a finite positive number or null, got {alpha!r}")
                alpha = 0.3
            else:
                alpha = float(alpha)
        return SyntheticSpec(dim=dim, classes=classes, samples_per_client=samples,
                             alpha=alpha, test_samples=test_samples)
    if kind == "csv":
        allowed = {"kind", "path", "manifest"}
        for key in raw:
            if key not in allowed:
                errors.append(f"dataset.{key}: unknown key")
        path = raw.get("path")
        manifest = raw.get("manifest")
        if not isinstance(path, str) or not path:
            errors.append("dataset.path: required for csv datasets")
            path = ""
        if not isinstance(manifest, str) or not manifest:
            errors.append("dataset.manifest: required for csv datasets")
            manifest = ""
        return CsvSpec(path=path, manifest=manifest)
    errors.append(f"dataset.kind: expected 'synthetic' or 'csv', got {kind!r}")
    return SyntheticSpec()


def _validate_trainer(errors: list[str], raw: Any) -> TrainerSpec:
    if raw is None:
        return TrainerSpec()
    if not isinstance(raw, Mapping):
        errors.append("trainer: expected an object")
        return TrainerSpec()
    allowed = {"epochs", "lr", "batch_size", "rounds_per_phase", "fedavg_rounds"}
    for key in raw:
        if key not in allowed:
            errors.append(f"trainer.{key}: unknown key")
    # epochs = 0 is allowed on purpose: it yields all-zero modules and is a
    # useful structure-only mode for fast service-dynamics experiments.
    epochs = _expect_int(errors, raw, "epochs", 3, 0, "trainer.epochs")
    batch = _expect_int(errors, raw, "batch_size", 32, 1, "trainer.batch_size")
    rounds = _expect_int(errors, raw, "rounds_per_phase", 1, 1, "trainer.rounds_per_phase")
    fedavg_rounds = _expect_int(errors, raw, "fedavg_rounds", 10, 1, "trainer.fedavg_rounds")
    lr = raw.get("lr", 0.1)
    if not _positive_number(lr):
        errors.append(f"trainer.lr: must be a finite positive number, got {lr!r}")
        lr = 0.1
    return TrainerSpec(epochs=epochs, lr=float(lr), batch_size=batch,
                       rounds_per_phase=rounds, fedavg_rounds=fedavg_rounds)


def parse_script(errors: list[str], items: Any, label: str
                 ) -> list[tuple[int, int, int | None]]:
    """Request-script entries ``{"client", "slice", "records"}`` as
    (client, slice, records) tuples; records is None when the key is absent.

    Shared by the config ``requests.script`` and the ``--requests-file``;
    each source gives a missing ``records`` its own default. Unknown keys,
    missing client/slice and values that are not plain integers are added
    to ``errors`` and the entry is skipped.
    """
    if not isinstance(items, (list, tuple)):
        errors.append(f"{label}: expected a list")
        return []
    script = []
    for i, item in enumerate(items):
        where = f"{label}[{i}]"
        if not isinstance(item, Mapping):
            errors.append(f"{where}: expected an object")
            continue
        before = len(errors)
        for key in item:
            if key not in ("client", "slice", "records"):
                errors.append(f"{where}.{key}: unknown key")
        for key in ("client", "slice"):
            if key not in item:
                errors.append(f"{where}.{key}: required")
        client = _expect_int(errors, item, "client", 0, 0, f"{where}.client")
        sl = _expect_int(errors, item, "slice", 0, 0, f"{where}.slice")
        records = (_expect_int(errors, item, "records", 1, 1, f"{where}.records")
                   if "records" in item else None)
        if len(errors) == before:
            script.append((client, sl, records))
    return script


def _validate_requests(errors: list[str], raw: Any) -> RequestSpec:
    if raw is None:
        return RequestSpec()
    if not isinstance(raw, Mapping):
        errors.append("requests: expected an object")
        return RequestSpec()
    if "script" in raw:
        for key in raw:
            if key != "script":
                errors.append(f"requests.{key}: unknown key when 'script' is given")
        script = parse_script(errors, raw["script"], "requests.script")
        return RequestSpec(script=tuple((c, s, 100 if n is None else n)
                                        for c, s, n in script))
    allowed = {"count", "seed", "record_count"}
    for key in raw:
        if key not in allowed:
            errors.append(f"requests.{key}: unknown key")
    count = _expect_int(errors, raw, "count", 0, 0, "requests.count")
    seed = _expect_int(errors, raw, "seed", 0, 0, "requests.seed")
    records = _expect_int(errors, raw, "record_count", 100, 1, "requests.record_count")
    return RequestSpec(count=count, seed=seed, record_count=records)


def validate_config(raw: Mapping[str, Any]) -> RunConfig:
    """Validate a raw configuration mapping into a RunConfig.

    All problems are collected in one pass and raised together as a
    ConfigurationError; there is no first-error short-circuit. Unknown keys
    are rejected so that typos cannot silently fall back to defaults.
    """
    errors: list[str] = []
    if not isinstance(raw, Mapping):
        raise ConfigurationError(["configuration root: expected an object"])

    allowed = {"experiment", "seed", "clients", "slices_per_client", "groups",
               "budget", "clusters", "strategy", "dataset", "trainer",
               "requests", "out"}
    for key in raw:
        if key not in allowed:
            errors.append(f"{key}: unknown key")

    experiment = raw.get("experiment", "default")
    if not isinstance(experiment, str) or not experiment:
        errors.append(f"experiment: expected a nonempty string, got {experiment!r}")
        experiment = "default"

    seed = _expect_int(errors, raw, "seed", 0, 0)
    clients = _expect_int(errors, raw, "clients", 10, 1)
    slices_per_client = _expect_int(errors, raw, "slices_per_client", 5, 1)
    groups = _expect_int(errors, raw, "groups", 10, 1)
    budget = _expect_int(errors, raw, "budget", 10, 1)
    clusters = _expect_int(errors, raw, "clusters", 5, 1)

    strategy = raw.get("strategy", "allseq")
    if not isinstance(strategy, str) or strategy.lower() not in STRATEGIES:
        errors.append(f"strategy: expected one of {STRATEGIES}, got {strategy!r}")
        strategy = "allseq"
    strategy = strategy.lower()

    dataset = _validate_dataset(errors, raw.get("dataset"))
    trainer = _validate_trainer(errors, raw.get("trainer"))
    requests = _validate_requests(errors, raw.get("requests"))

    out = raw.get("out")
    if out is not None and (not isinstance(out, str) or not out):
        errors.append(f"out: expected a nonempty string or null, got {out!r}")
        out = None

    # Cross-field constraints.
    if groups > clients * slices_per_client:
        errors.append(
            f"groups: need at least one slice per group "
            f"(groups={groups} > clients*slices_per_client={clients * slices_per_client})")
    if _orders_fewer_than(groups, budget):
        errors.append(
            f"budget: {budget} exceeds the {math.factorial(groups)} distinct "
            f"orders of {groups} groups")
    if clusters > clients:
        errors.append(f"clusters: cannot exceed clients ({clusters} > {clients})")
    if isinstance(dataset, SyntheticSpec):
        if dataset.classes > dataset.dim:
            errors.append(
                f"dataset.classes: class means need classes <= dim "
                f"({dataset.classes} > {dataset.dim})")
        if dataset.samples_per_client < slices_per_client:
            errors.append(
                f"dataset.samples_per_client: need at least one sample per slice "
                f"({dataset.samples_per_client} < slices_per_client={slices_per_client})")

    if errors:
        raise ConfigurationError(errors)

    return RunConfig(experiment=experiment, seed=seed, clients=clients,
                     slices_per_client=slices_per_client, groups=groups,
                     budget=budget, clusters=clusters, strategy=strategy,
                     dataset=dataset, trainer=trainer, requests=requests, out=out)
