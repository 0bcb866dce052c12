"""Synthetic federated datasets and CSV ingestion.

Feature vectors are Gaussian around one of ``classes`` well-separated means
(scaled basis vectors, unit noise). In Non-IID mode each client draws its
label proportions from a symmetric Dirichlet(alpha); IID mode uses uniform
proportions. Each client's samples are split into equal contiguous slices
after a per-client shuffle, so slices share the client's distribution.

Everything is reproducible from (spec, seed): generation uses the keyed
streams of ``core`` and never touches global RNG state.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (STREAM_TAGS, TrainingError, check_at_least, keyed_stream,
                   plain_int)
from .grouping import SliceRef, near_equal_runs

_MEAN_SCALE = 3.0


@dataclass
class Dataset:
    """Per-client, per-slice training arrays plus a shared test split."""

    dim: int
    classes: int
    train_x: list[list[np.ndarray]]  # [client][slice] -> (n, dim)
    train_y: list[list[np.ndarray]]  # [client][slice] -> (n,)
    test_x: np.ndarray
    test_y: np.ndarray

    @property
    def client_count(self) -> int:
        return len(self.train_x)

    def slices_of(self, client: int) -> int:
        return len(self.train_x[client])

    def slice_data(self, ref: SliceRef) -> tuple[np.ndarray, np.ndarray]:
        return (self.train_x[ref.client_id][ref.slice_idx],
                self.train_y[ref.client_id][ref.slice_idx])

    def slice_catalog(self) -> list[tuple[SliceRef, int]]:
        """All slices with sample counts, in lexicographic order."""
        catalog = []
        for c in range(self.client_count):
            for s in range(self.slices_of(c)):
                catalog.append((SliceRef(c, s), len(self.train_y[c][s])))
        return catalog

    @property
    def total_samples(self) -> int:
        return sum(n for _, n in self.slice_catalog())


def _class_means(dim: int, classes: int) -> np.ndarray:
    if classes > dim:
        raise ValueError(f"need classes <= dim for separated means "
                         f"({classes} > {dim})")
    means = np.zeros((classes, dim))
    means[np.arange(classes), np.arange(classes)] = _MEAN_SCALE
    return means


def synth_dataset(clients: int, samples_per_client: int, dim: int, classes: int,
                  alpha: float | None, seed: int, slices_per_client: int = 1,
                  test_samples: int = 500) -> Dataset:
    """Generate a synthetic federated dataset.

    alpha is the Dirichlet concentration for per-client label proportions;
    None selects IID (uniform) proportions. The test split is global and
    label-balanced. Slices and test-class counts follow ``near_equal_runs``.
    """
    check_at_least(1, clients=clients, samples_per_client=samples_per_client,
                   slices_per_client=slices_per_client)
    if samples_per_client < slices_per_client:
        raise ValueError(
            f"cannot cut {samples_per_client} samples into {slices_per_client} slices")
    if alpha is not None and alpha <= 0:
        raise ValueError(f"alpha must be positive or None, got {alpha}")
    means = _class_means(dim, classes)

    train_x: list[list[np.ndarray]] = []
    train_y: list[list[np.ndarray]] = []
    for c in range(clients):
        rng = keyed_stream((seed, STREAM_TAGS["client_data"], c))
        if alpha is None:
            props = np.full(classes, 1.0 / classes)
        else:
            props = rng.dirichlet(np.full(classes, alpha))
        counts = rng.multinomial(samples_per_client, props)
        labels = np.repeat(np.arange(classes), counts)
        rng.shuffle(labels)
        feats = means[labels] + rng.standard_normal((samples_per_client, dim))
        runs = near_equal_runs(samples_per_client, slices_per_client)
        train_x.append([np.ascontiguousarray(feats[a:b]) for a, b in runs])
        train_y.append([labels[a:b].copy() for a, b in runs])

    test_rng = keyed_stream((seed, STREAM_TAGS["test_data"]))
    test_counts = [b - a for a, b in near_equal_runs(test_samples, classes)]
    test_y = np.repeat(np.arange(classes), test_counts)
    test_rng.shuffle(test_y)
    test_x = means[test_y] + test_rng.standard_normal((test_samples, dim))

    return Dataset(dim=dim, classes=classes, train_x=train_x, train_y=train_y,
                   test_x=test_x, test_y=test_y)


# ---------------------------------------------------------------------------
# CSV ingestion: rows are `label,f0,f1,...`; a JSON manifest maps data rows
# (0-based, header excluded) to clients, slices, and the test split.
# ---------------------------------------------------------------------------


def save_csv_dataset(dataset: Dataset, csv_path: str | Path,
                     manifest_path: str | Path) -> None:
    csv_path = Path(csv_path)
    manifest_path = Path(manifest_path)
    rows_written = 0
    clients_doc = []
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i}" for i in range(dataset.dim)])
        for c in range(dataset.client_count):
            slices_doc = []
            for s in range(dataset.slices_of(c)):
                x, y = dataset.train_x[c][s], dataset.train_y[c][s]
                start = rows_written
                for i in range(len(y)):
                    writer.writerow([int(y[i])] + [repr(float(v)) for v in x[i]])
                rows_written += len(y)
                slices_doc.append([start, rows_written])
            clients_doc.append({"client": c, "slices": slices_doc})
        test_start = rows_written
        for i in range(len(dataset.test_y)):
            writer.writerow([int(dataset.test_y[i])] +
                            [repr(float(v)) for v in dataset.test_x[i]])
            rows_written += 1
    manifest = {
        "format": "fedsgt-dataset",
        "version": 1,
        "dim": dataset.dim,
        "classes": dataset.classes,
        "clients": clients_doc,
        "test": [test_start, rows_written],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")


_Span = tuple[str, int, int]  # (manifest location, start row, end row)


def _read_manifest(manifest: dict, path: Path
                   ) -> tuple[int, int, list[list[_Span]], _Span]:
    """dim, classes, each client's slice spans and the test span of a
    dataset manifest. Every value must be a plain integer, each client's
    ``client`` id its position in the list, each client hold at least one
    slice, and each span ``[start, end]`` hold at least one row; all
    problems are raised together as one TrainingError."""
    errors: list[str] = []

    def integer(obj: dict, key: str, minimum: int, label: str) -> int | None:
        if key not in obj:
            errors.append(f"{label}: required")
            return None
        return plain_int(errors, obj[key], minimum, label)

    def span(value, label: str) -> _Span | None:
        if not isinstance(value, list) or len(value) != 2:
            errors.append(f"{label}: expected [start, end], got {value!r}")
            return None
        lo, hi = (plain_int(errors, v, 0, f"{label}[{i}]")
                  for i, v in enumerate(value))
        if lo is None or hi is None:
            return None
        if lo >= hi:
            errors.append(f"{label}: row span [{lo}, {hi}] holds no rows")
            return None
        return label, lo, hi

    dim = integer(manifest, "dim", 1, "dim")
    classes = integer(manifest, "classes", 1, "classes")
    clients = manifest.get("clients")
    if not isinstance(clients, list):
        errors.append(f"clients: expected a list, got {clients!r}")
        clients = []
    client_spans = []
    for c, entry in enumerate(clients):
        label = f"clients[{c}]"
        if not isinstance(entry, dict):
            errors.append(f"{label}: expected an object, got {entry!r}")
            continue
        cid = integer(entry, "client", 0, f"{label}.client")
        if cid is not None and cid != c:
            errors.append(f"{label}.client: expected {c}, its place in the list, "
                          f"got {cid}")
        slices = entry.get("slices")
        if not isinstance(slices, list) or not slices:
            errors.append(f"{label}.slices: expected a list of at least one "
                          f"span, got {slices!r}")
            continue
        client_spans.append([span(s, f"{label}.slices[{j}]")
                             for j, s in enumerate(slices)])
    test = span(manifest.get("test"), "test")
    if errors:
        raise TrainingError(f"dataset manifest {path}: " + "; ".join(errors))
    return dim, classes, client_spans, test


def load_csv_dataset(csv_path: str | Path, manifest_path: str | Path) -> Dataset:
    """Load a dataset saved by save_csv_dataset. Structural problems in the
    csv or manifest raise TrainingError; a file that cannot be opened raises
    OSError."""
    csv_path = Path(csv_path)
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (ValueError, RecursionError) as exc:
        raise TrainingError(f"dataset manifest {manifest_path}: {exc}") from exc
    if (not isinstance(manifest, dict) or manifest.get("format") != "fedsgt-dataset"
            or plain_int([], manifest.get("version"), 1, "version") != 1):
        raise TrainingError("not a version-1 fedsgt dataset manifest")
    dim, classes, client_spans, test_span = _read_manifest(manifest, manifest_path)

    labels = []
    feats = []
    try:
        with csv_path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header[:1] != ["label"] or len(header) != dim + 1:
                raise TrainingError(f"csv header must be label,f0..f{dim - 1}")
            for line, row in enumerate(reader, start=2):
                if len(row) != dim + 1:
                    raise TrainingError(f"csv row {line}: expected {dim + 1} fields")
                try:
                    labels.append(int(row[0]))
                    feats.append([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise TrainingError(f"csv row {line}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise TrainingError(f"dataset csv {csv_path}: {exc}") from exc
    all_y = np.asarray(labels, dtype=np.int64)
    all_x = np.asarray(feats, dtype=np.float64).reshape(len(labels), dim)
    if all_y.size and (all_y.min() < 0 or all_y.max() >= classes):
        raise TrainingError("csv labels outside [0, classes)")
    spans = [span for per_client in client_spans for span in per_client]
    past = [f"{label}: row span [{lo}, {hi}] ends past the {len(all_y)} csv rows"
            for label, lo, hi in spans + [test_span] if hi > len(all_y)]
    if past:
        raise TrainingError(f"dataset manifest {manifest_path}: " + "; ".join(past))

    train_x = [[all_x[lo:hi] for _, lo, hi in spans] for spans in client_spans]
    train_y = [[all_y[lo:hi] for _, lo, hi in spans] for spans in client_spans]
    _, lo, hi = test_span
    return Dataset(dim=dim, classes=classes, train_x=train_x, train_y=train_y,
                   test_x=all_x[lo:hi], test_y=all_y[lo:hi])
