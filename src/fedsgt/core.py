"""Shared identifiers, error taxonomy, random streams and run configuration.

Everything downstream (grouping, sequencing, training, the CLI) speaks in
terms of the small vocabulary defined here: the serving strategies, the
error taxonomy, the keyed random streams, and a validated run configuration
that is round-trippable through JSON manifests.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field, fields
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:
    import numpy as np

STRATEGIES = ("allseq", "minseq", "longseq")
METHOD_FEDSGT = "FedSGT"
METHOD_FEDCIO = "FedCIO"

# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------
# Every numpy random draw comes from a stream keyed by a tuple of integers
# that starts with the run (or Monte Carlo) seed. Each domain puts its tag
# second; FedSGT's per-round streams alone are keyed (seed, sequence, phase,
# round) with no tag. The keys are part of the bank and estimate bytes.

STREAM_TAGS: Mapping[str, int] = MappingProxyType({
    "client_data": 0xDA7A,          # (seed, tag, client)
    "test_data": 0x7E57,            # (seed, tag)
    "sequence_orders": 0x5EC5,      # (seed, tag)
    "requests": 0xDE1,              # (seed, tag)
    "fedcio": 0xC10,                # (seed, tag, cluster, round)
    "fedretrain": 0x2E7,            # (seed, tag, round)
    "mc_deletion_fedsgt": 1,        # (seed, tag, L, B, 0, chunk)
    "mc_deletion_fedcio": 2,        # (seed, tag, clusters, chunk)
    "mc_span": 3,                   # (seed, tag, L, requests, chunk)
    "mc_remaining": 4,              # (seed, tag, method, units, requests,
                                    #  D, chunk)
    "mc_comm": 5,                   # (seed, tag, L, slices_per_client, chunk)
})


def keyed_stream(key: tuple[int, ...]) -> np.random.Generator:
    """The generator of the stream keyed by ``key``: PCG64 seeded from the
    key's SeedSequence, independent of every other key and of global RNG
    state. Importing numpy here keeps it out of ``import fedsgt.core``."""
    import numpy as np
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


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


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------
# Each integer field declares its default and minimum once, via ``_count``;
# validation, the unknown-key check and ``to_dict`` walk the fields.


def _count(default: int, minimum: int) -> Any:
    """An integer config field: ``default`` when the key is absent, and
    values below ``minimum`` are rejected."""
    return field(default=default, metadata={"minimum": minimum})


@dataclass(frozen=True)
class SyntheticSpec:
    dim: int = _count(20, 2)  # classes <= dim and classes >= 2
    classes: int = _count(5, 2)
    samples_per_client: int = _count(200, 1)
    alpha: float | None = 0.3  # Dirichlet concentration; None means IID
    test_samples: int = _count(500, 1)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "synthetic", **asdict(self)}


@dataclass(frozen=True)
class CsvSpec:
    path: str
    manifest: str

    def to_dict(self) -> dict[str, Any]:
        return {"kind": "csv", **asdict(self)}


@dataclass(frozen=True)
class ModuleTrainerSpec:
    """The ``trainer`` keys that train a module; ``TrainConfig`` adds the seed."""

    # epochs = 0 is allowed on purpose: it yields all-zero modules and is a
    # useful structure-only mode for fast service-dynamics experiments.
    epochs: int = _count(3, 0)
    lr: float = 0.1
    batch_size: int = _count(32, 1)
    rounds_per_phase: int = _count(1, 1)


@dataclass(frozen=True)
class TrainerSpec(ModuleTrainerSpec):
    fedavg_rounds: int = _count(10, 1)  # T for the FedAvg / FedCIO / FedRetrain baselines


@dataclass(frozen=True)
class RequestSpec:
    """Either a seeded uniform stream (count/seed) or an explicit script."""

    count: int = _count(0, 0)
    seed: int = _count(0, 0)
    record_count: int = _count(100, 1)
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
    seed: int = _count(0, 0)
    clients: int = _count(10, 1)
    slices_per_client: int = _count(5, 1)
    groups: int = _count(10, 1)
    budget: int = _count(10, 1)
    clusters: int = _count(5, 1)
    strategy: str = "allseq"
    dataset: SyntheticSpec | CsvSpec = field(default_factory=SyntheticSpec)
    trainer: TrainerSpec = field(default_factory=TrainerSpec)
    requests: RequestSpec = field(default_factory=RequestSpec)
    out: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "dataset": self.dataset.to_dict(),
                "requests": self.requests.to_dict()}


def plain_int(errors: list[str], value: Any, minimum: int, label: str) -> int | None:
    """``value`` when it is a plain integer of at least ``minimum``. Anything
    else (a bool, a float such as ``2.0``, ``4.7`` or JSON's ``1e400``, a
    string) is added to ``errors`` and gives None. The integers of configs,
    request scripts and dataset manifests are all read here."""
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{label}: expected an integer, got {value!r}")
        return None
    if value < minimum:
        errors.append(f"{label}: must be >= {minimum}, got {value}")
        return None
    return value


def check_at_least(minimum: int, **values: Any) -> None:
    """Raise ValueError ``"<name> must be >= <minimum>, got <value>"`` for
    the first of ``values``, in keyword order, below ``minimum``: the one
    rule for the counts a library call takes. Values are compared only, so
    numpy integers pass as plain ones do."""
    for name, value in values.items():
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_counts(spec: Any) -> None:
    """Raise ValueError for the first ``_count`` field of the dataclass
    instance ``spec`` that ``plain_int`` rejects, so a library config takes
    the integers a config file takes. The message is ``plain_int``'s, and
    one below the minimum reads ``"<field> must be >= <minimum>, got
    <value>"``."""
    errors: list[str] = []
    for f in fields(spec):
        if "minimum" in f.metadata:
            plain_int(errors, getattr(spec, f.name), f.metadata["minimum"], f.name)
    if errors:
        raise ValueError(errors[0].replace(": must", " must", 1))


def _expect_int(errors: list[str], raw: Mapping[str, Any], key: str, default: int,
                minimum: int, label: str) -> int:
    value = plain_int(errors, raw.get(key, default), minimum, label)
    return default if value is None else value


def _object(errors: list[str], raw: Any, label: str) -> Mapping[str, Any] | None:
    """A config section as a mapping: an absent section is empty, and
    anything but an object is reported and gives None."""
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        errors.append(f"{label}: expected an object")
        return None
    return raw


def _unknown_keys(errors: list[str], raw: Mapping[str, Any], spec: type,
                  prefix: str = "", extra: tuple[str, ...] = ()) -> None:
    allowed = {f.name for f in fields(spec)}.union(extra)
    for key in raw:
        if key not in allowed:
            errors.append(f"{prefix}{key}: unknown key")


def _counts(errors: list[str], raw: Mapping[str, Any], spec: type,
            prefix: str = "") -> dict[str, int]:
    """Every ``_count`` field of ``spec`` read from ``raw``, in field order."""
    return {f.name: _expect_int(errors, raw, f.name, f.default,
                                f.metadata["minimum"], prefix + f.name)
            for f in fields(spec) if "minimum" in f.metadata}


def _positive_number(value: Any) -> bool:
    """A positive number that converts to a finite float; JSON may carry
    NaN, Infinity and integers past the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def budget_error(groups: int, budget: int) -> str | None:
    """Why ``budget`` distinct orders of ``groups`` groups cannot exist, or
    None when budget <= groups!. The product stops once it reaches budget,
    so a large group count costs no huge factorial."""
    orders, n = 1, 1
    while orders < budget and n < groups:
        n += 1
        orders *= n
    if orders >= budget:
        return None
    return f"{budget} exceeds the {orders} distinct orders of {groups} groups"


def dataset_fit_errors(cfg: RunConfig, slices: int, clients: int,
                       source: str) -> list[str]:
    """What keeps ``cfg`` from fitting a dataset of ``slices`` slices held by
    ``clients`` clients: every group needs a slice and every cluster a
    client. ``source`` names where the counts come from."""
    errors = []
    if cfg.groups > slices:
        errors.append(f"groups: need at least one slice per group "
                      f"(groups={cfg.groups} > the {slices} slices of {source})")
    if cfg.clusters > clients:
        errors.append(f"clusters: cannot exceed clients (clusters="
                      f"{cfg.clusters} > the {clients} clients of {source})")
    return errors


def _validate_dataset(errors: list[str], raw: Any) -> SyntheticSpec | CsvSpec:
    raw = _object(errors, raw, "dataset")
    if raw is None:
        return SyntheticSpec()
    kind = raw.get("kind", "synthetic")
    if kind == "synthetic":
        _unknown_keys(errors, raw, SyntheticSpec, "dataset.", extra=("kind",))
        counts = _counts(errors, raw, SyntheticSpec, "dataset.")
        alpha = raw.get("alpha", SyntheticSpec.alpha)
        if alpha is not None:
            if not _positive_number(alpha):
                errors.append(
                    f"dataset.alpha: must be a finite positive number or null, got {alpha!r}")
                alpha = SyntheticSpec.alpha
            else:
                alpha = float(alpha)
        return SyntheticSpec(alpha=alpha, **counts)
    if kind == "csv":
        _unknown_keys(errors, raw, CsvSpec, "dataset.", extra=("kind",))
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
    raw = _object(errors, raw, "trainer")
    if raw is None:
        return TrainerSpec()
    _unknown_keys(errors, raw, TrainerSpec, "trainer.")
    counts = _counts(errors, raw, TrainerSpec, "trainer.")
    lr = raw.get("lr", TrainerSpec.lr)
    if not _positive_number(lr):
        errors.append(f"trainer.lr: must be a finite positive number, got {lr!r}")
        lr = TrainerSpec.lr
    return TrainerSpec(lr=float(lr), **counts)


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
    raw = _object(errors, raw, "requests")
    if raw is None:
        return RequestSpec()
    if "script" in raw:
        for key in raw:
            if key != "script":
                errors.append(f"requests.{key}: unknown key when 'script' is given")
        script = parse_script(errors, raw["script"], "requests.script")
        return RequestSpec(script=tuple(
            (c, s, RequestSpec.record_count if n is None else n) for c, s, n in script))
    _unknown_keys(errors, raw, RequestSpec, "requests.")
    return RequestSpec(**_counts(errors, raw, RequestSpec, "requests."))


def validate_config(raw: Mapping[str, Any]) -> RunConfig:
    """Validate a raw configuration mapping into a RunConfig.

    All problems are collected in one pass and raised together as a
    ConfigurationError; there is no first-error short-circuit. Unknown keys
    are rejected so that typos cannot silently fall back to defaults.
    """
    errors: list[str] = []
    if not isinstance(raw, Mapping):
        raise ConfigurationError(["configuration root: expected an object"])

    _unknown_keys(errors, raw, RunConfig)

    experiment = raw.get("experiment", RunConfig.experiment)
    if not isinstance(experiment, str) or not experiment:
        errors.append(f"experiment: expected a nonempty string, got {experiment!r}")
        experiment = RunConfig.experiment

    counts = _counts(errors, raw, RunConfig)

    strategy = raw.get("strategy", RunConfig.strategy)
    if not isinstance(strategy, str) or strategy.lower() not in STRATEGIES:
        errors.append(f"strategy: expected one of {STRATEGIES}, got {strategy!r}")
        strategy = RunConfig.strategy
    strategy = strategy.lower()

    dataset = _validate_dataset(errors, raw.get("dataset"))
    trainer = _validate_trainer(errors, raw.get("trainer"))
    requests = _validate_requests(errors, raw.get("requests"))

    out = raw.get("out")
    if out is not None and (not isinstance(out, str) or not out):
        errors.append(f"out: expected a nonempty string or null, got {out!r}")
        out = None

    cfg = RunConfig(experiment=experiment, strategy=strategy, dataset=dataset,
                    trainer=trainer, requests=requests, out=out, **counts)

    # Cross-field constraints. A csv dataset brings its own clients and
    # slices, so its fit is checked when it is loaded.
    if (problem := budget_error(cfg.groups, cfg.budget)) is not None:
        errors.append(f"budget: {problem}")
    if isinstance(dataset, SyntheticSpec):
        errors += dataset_fit_errors(cfg, cfg.clients * cfg.slices_per_client,
                                     cfg.clients, "the config")
        if dataset.classes > dataset.dim:
            errors.append(
                f"dataset.classes: class means need classes <= dim "
                f"({dataset.classes} > {dataset.dim})")
        if dataset.samples_per_client < cfg.slices_per_client:
            errors.append(
                f"dataset.samples_per_client: need at least one sample per slice "
                f"({dataset.samples_per_client} < slices_per_client={cfg.slices_per_client})")

    if errors:
        raise ConfigurationError(errors)
    return cfg
