"""Shared identifiers, error taxonomy, random streams and run configuration.

Everything downstream (grouping, sequencing, training, the CLI) speaks in
terms of the small vocabulary defined here: the serving strategies, the
error taxonomy, the keyed random streams, and a validated run configuration
that is round-trippable through JSON manifests.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import MISSING, Field, asdict, dataclass, field, fields
from functools import cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Mapping

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
# Every checked field is declared once, with its default and its rule:
#   _count   an integer of at least a minimum (``_count_problem``);
#   _number  a finite positive number, read as a float (``_positive_number``);
#   _string  a nonempty string (``_nonempty_string``).
# A number or string field may also allow None. Config files are read,
# library configs checked, and ``to_dict`` written by walking fields. The
# strategy and method names have one rule each too (``strategy_name``,
# ``method_name``), and so do the integers a document must hold
# (``required_int``).


def _count(default: int, minimum: int) -> Any:
    """An integer config field: ``default`` when the key is absent, and
    values below ``minimum`` are rejected."""
    return field(default=default, metadata={"minimum": minimum})


def _number(default: float | None, nullable: bool = False) -> Any:
    """A number config field: ``default`` when the key is absent; a value
    must be a finite positive number, or None when ``nullable``."""
    return field(default=default, metadata={"nullable": nullable, "kind": "number"})


def _string(default: str | None = MISSING, nullable: bool = False) -> Any:
    """A string config field: ``default`` when the key is absent, which
    without a default reads as None; a value must be a nonempty string, or
    None when ``nullable``."""
    return field(default=default, metadata={"nullable": nullable, "kind": "string"})


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
    path: str = _string()
    manifest: str = _string()

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
    experiment: str = _string("default")
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
    out: str | None = _string(None, nullable=True)

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


def _nonempty_string(value: Any) -> bool:
    return isinstance(value, str) and value != ""


# Each kind of field but counts: the rule its values pass, and what a
# refused value is told.
_KINDS = {
    "number": (_positive_number, "must be a finite positive number"),
    "string": (_nonempty_string, "expected a nonempty string"),
}


def _field_problem(f: Field, value: Any) -> str | None:
    """What keeps ``value`` from filling the declared field ``f``, or None."""
    if "minimum" in f.metadata:
        return _count_problem(value, f.metadata["minimum"])
    passes, wanted = _KINDS[f.metadata["kind"]]
    nullable = f.metadata["nullable"]
    if passes(value) or (nullable and value is None):
        return None
    return f"{wanted}{' or null' if nullable else ''}, got {value!r}"


@cache
def _declared(spec: type) -> tuple[Field, ...]:
    """The ``_count`` fields of the dataclass ``spec`` in field order, then
    its ``_number`` and ``_string`` fields (the fields with metadata): the
    order their problems are reported in."""
    return tuple(sorted((f for f in fields(spec) if f.metadata),
                        key=lambda f: "kind" in f.metadata))


def _library_error(name: str, problem: str) -> ValueError:
    """A library call's error: ``"<name> must be ..."`` for a value out of
    range, ``"<name>: expected ..., got ..."`` for a wrong type."""
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


def required_int(errors: list[str], doc: Mapping[str, Any], key: str,
                 minimum: int, label: str) -> int | None:
    """``doc[key]`` read by ``plain_int``; an absent key is added to
    ``errors`` as ``"<label>: required"`` and gives None. Request scripts
    and dataset manifests read the integers they must hold here."""
    if key not in doc:
        errors.append(f"{label}: required")
        return None
    return plain_int(errors, doc[key], minimum, label)


def strategy_name(value: Any) -> str:
    """The serving strategy ``value`` names, in any case, as spelled in
    ``STRATEGIES``. Anything else, a value that is not a string too, raises
    ValueError naming it. Configs, the serving system and
    ``fltrain.predict_proba`` read strategies by this one rule."""
    if isinstance(value, str) and (name := value.lower()) in STRATEGIES:
        return name
    raise ValueError(f"unknown strategy {value!r}")


def method_name(value: Any, methods: Iterable[str]) -> str:
    """The name among ``methods`` that ``value`` names, in any case and
    with blanks around it, as spelled in ``methods``. Anything else, a value
    that is not a string too, raises ValueError naming it and the methods."""
    names = {name.lower(): name for name in methods}
    if isinstance(value, str) and (key := value.strip().lower()) in names:
        return names[key]
    raise ValueError(f"unknown method {value!r}; expected one of "
                     f"{tuple(names.values())}")


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
    instance ``spec`` (its counts, then its numbers and strings) holding a
    value a config file is refused, so a library config takes what a
    config file takes. Counts read as in ``check_at_least``; a number reads
    ``"<field> must be a finite positive number, got <value>"`` and a
    string ``"<field>: expected a nonempty string, got <value>"``."""
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


def _read_fields(errors: list[str], raw: Mapping[str, Any], spec: type,
                 prefix: str = "", extra: tuple[str, ...] = ()) -> dict[str, Any]:
    """Every declared field of ``spec`` read from ``raw``, counts then
    numbers and strings, after any key of ``raw`` that is neither a field
    of ``spec`` nor in ``extra`` is reported unknown. An absent key takes
    the field's default (None for a field without one), and a refused value
    is added to ``errors`` and takes the default too. Numbers are read as
    floats."""
    allowed = {f.name for f in fields(spec)}.union(extra)
    errors += [f"{prefix}{key}: unknown key" for key in raw if key not in allowed]
    values = {}
    for f in _declared(spec):
        default = None if f.default is MISSING else f.default
        value = raw.get(f.name, default)
        if (problem := _field_problem(f, value)) is not None:
            errors.append(f"{prefix}{f.name}: {problem}")
            value = default
        elif f.metadata.get("kind") == "number" and value is not None:
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
    if kind in ("synthetic", "csv"):
        spec = SyntheticSpec if kind == "synthetic" else CsvSpec
        return spec(**_read_fields(errors, raw, spec, "dataset.", extra=("kind",)))
    errors.append(f"dataset.kind: expected 'synthetic' or 'csv', got {kind!r}")
    return SyntheticSpec()


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
        client = required_int(errors, item, "client", 0, f"{where}.client")
        sl = required_int(errors, item, "slice", 0, f"{where}.slice")
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

    values = _read_fields(errors, raw, RunConfig)
    strategy = raw.get("strategy", RunConfig.strategy)
    try:
        strategy = strategy_name(strategy)
    except ValueError:
        errors.append(f"strategy: expected one of {STRATEGIES}, got {strategy!r}")
        strategy = RunConfig.strategy
    dataset = _validate_dataset(errors, raw.get("dataset"))
    trainer = TrainerSpec(**_read_fields(
        errors, _object(errors, raw.get("trainer"), "trainer"), TrainerSpec,
        "trainer."))
    cfg = RunConfig(strategy=strategy, dataset=dataset, trainer=trainer,
                    requests=_validate_requests(errors, raw.get("requests")),
                    **values)

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
