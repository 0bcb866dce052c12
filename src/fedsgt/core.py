"""Shared identifiers, error taxonomy, random streams and run configuration.

Everything downstream (grouping, sequencing, training, the CLI) speaks in
terms of the small vocabulary defined here: the serving strategies, the
error taxonomy, the keyed random streams, and a validated run configuration
that is round-trippable through JSON manifests.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import Field, asdict, dataclass, field, fields
from functools import cache
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
# Each integer field declares its default and minimum once, via ``_count``,
# and each number field its default once, via ``_number``. Config files are
# read, library configs checked, and ``to_dict`` written by walking fields.


def _count(default: int, minimum: int) -> Any:
    """An integer config field: ``default`` when the key is absent, and
    values below ``minimum`` are rejected."""
    return field(default=default, metadata={"minimum": minimum})


def _number(default: float | None, nullable: bool = False) -> Any:
    """A number config field: ``default`` when the key is absent; a value
    must be a finite positive number, or None when ``nullable``."""
    return field(default=default, metadata={"nullable": nullable})


@dataclass(frozen=True)
class SyntheticSpec:
    dim: int = _count(20, 2)  # classes <= dim and classes >= 2
    classes: int = _count(5, 2)
    samples_per_client: int = _count(200, 1)
    alpha: float | None = _number(0.3, nullable=True)  # Dirichlet concentration; None means IID
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
    lr: float = _number(0.1)
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


def _count_problem(value: Any, minimum: int) -> str | None:
    """What keeps ``value`` from being a count of at least ``minimum``, or
    None. This is the one integer rule: an integer that is not a bool. A
    float such as ``2.0``, ``4.7`` or JSON's ``1e400`` and a string are
    rejected; numpy integers pass as plain ones do. ``int`` is tried before
    the ``Integral`` ABC, whose check costs several times more."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        return f"expected an integer, got {value!r}"
    if value < minimum:
        return f"must be >= {minimum}, got {value}"
    return None


def _positive_number(value: Any) -> bool:
    """A positive number that converts to a finite float; JSON may carry
    NaN, Infinity and integers past the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def _field_problem(f: Field, value: Any) -> str | None:
    """What keeps ``value`` from filling the declared field ``f``, or None."""
    if "minimum" in f.metadata:
        return _count_problem(value, f.metadata["minimum"])
    nullable = f.metadata["nullable"]
    if _positive_number(value) or (nullable and value is None):
        return None
    return (f"must be a finite positive number{' or null' if nullable else ''}, "
            f"got {value!r}")


@cache
def _declared(spec: type) -> tuple[Field, ...]:
    """The ``_count`` fields of the dataclass ``spec`` in field order, then
    its ``_number`` fields (the fields with metadata): the order their
    problems are reported in."""
    return tuple(sorted((f for f in fields(spec) if f.metadata),
                        key=lambda f: "nullable" in f.metadata))


def _library_error(name: str, problem: str) -> ValueError:
    """A library call's error: ``"<name> must be ..."`` for a value out of
    range, ``"<name>: expected an integer, got ..."`` for a wrong type."""
    return ValueError(f"{name}{' ' if problem.startswith('must') else ': '}{problem}")


def plain_int(errors: list[str], value: Any, minimum: int, label: str) -> int | None:
    """``value`` when it is an integer of at least ``minimum``; anything
    else is added to ``errors`` as ``"<label>: <problem>"`` and gives None.
    The integers of configs, request scripts and dataset manifests are all
    read here."""
    if (problem := _count_problem(value, minimum)) is None:
        return value
    errors.append(f"{label}: {problem}")
    return None


def check_at_least(minimum: int, **values: Any) -> None:
    """Raise ValueError for the first of ``values``, in keyword order, that
    is not an integer of at least ``minimum``: ``"<name> must be >=
    <minimum>, got <value>"``, or ``"<name>: expected an integer, got
    <value>"`` for a bool, a float or any other non-integer. The one rule
    for the counts a library call takes."""
    for name, value in values.items():
        if (problem := _count_problem(value, minimum)) is not None:
            raise _library_error(name, problem)


def check_fields(spec: Any) -> None:
    """Raise ValueError for the first declared field of the dataclass
    instance ``spec`` (its counts, then its numbers) holding a value a
    config file is refused, so a library config takes what a config file
    takes. Counts read as in ``check_at_least``; a number reads ``"<field>
    must be a finite positive number, got <value>"``."""
    for f in _declared(type(spec)):
        if (problem := _field_problem(f, getattr(spec, f.name))) is not None:
            raise _library_error(f.name, problem)


def _object(errors: list[str], raw: Any, label: str) -> Mapping[str, Any]:
    """A config section as a mapping: an absent section is empty, and
    anything but an object is reported and read as empty too, so the
    section takes its defaults."""
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        errors.append(f"{label}: expected an object")
        return {}
    return raw


def _unknown_keys(errors: list[str], raw: Mapping[str, Any], spec: type,
                  prefix: str = "", extra: tuple[str, ...] = ()) -> None:
    allowed = {f.name for f in fields(spec)}.union(extra)
    for key in raw:
        if key not in allowed:
            errors.append(f"{prefix}{key}: unknown key")


def _read_fields(errors: list[str], raw: Mapping[str, Any], spec: type,
                 prefix: str = "") -> dict[str, Any]:
    """Every declared field of ``spec`` read from ``raw``, counts then
    numbers: an absent key takes the field's default, and a refused value
    is added to ``errors`` and takes the default too. Numbers are read as
    floats."""
    values = {}
    for f in _declared(spec):
        value = raw.get(f.name, f.default)
        if (problem := _field_problem(f, value)) is not None:
            errors.append(f"{prefix}{f.name}: {problem}")
            value = f.default
        elif "nullable" in f.metadata and value is not None:
            value = float(value)
        values[f.name] = value
    return values


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
    kind = raw.get("kind", "synthetic")
    if kind == "synthetic":
        _unknown_keys(errors, raw, SyntheticSpec, "dataset.", extra=("kind",))
        return SyntheticSpec(**_read_fields(errors, raw, SyntheticSpec, "dataset."))
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
    _unknown_keys(errors, raw, TrainerSpec, "trainer.")
    return TrainerSpec(**_read_fields(errors, raw, TrainerSpec, "trainer."))


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
        client = plain_int(errors, item.get("client", 0), 0, f"{where}.client")
        sl = plain_int(errors, item.get("slice", 0), 0, f"{where}.slice")
        records = (plain_int(errors, item["records"], 1, f"{where}.records")
                   if "records" in item else None)
        if len(errors) == before:
            script.append((client, sl, records))
    return script


def _validate_requests(errors: list[str], raw: Any) -> RequestSpec:
    raw = _object(errors, raw, "requests")
    if "script" in raw:
        for key in raw:
            if key != "script":
                errors.append(f"requests.{key}: unknown key when 'script' is given")
        script = parse_script(errors, raw["script"], "requests.script")
        return RequestSpec(script=tuple(
            (c, s, RequestSpec.record_count if n is None else n) for c, s, n in script))
    _unknown_keys(errors, raw, RequestSpec, "requests.")
    return RequestSpec(**_read_fields(errors, raw, RequestSpec, "requests."))


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

    counts = _read_fields(errors, raw, RunConfig)

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
