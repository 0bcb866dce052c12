"""Module-bank container: one file holding a trained system's weights.

Layout (all integers and floats little-endian):

    bytes 0..3   magic "FSGT"
    u32          format version (1)
    u32          group count L
    u32          sequence count B
    u32          feature dim d
    u32          class count k
    f64[k*d]     backbone, row-major (all zeros)
    then one packed record for each sequence (B of them) and each phase
    (L of them), sequence-major:
        u32      group id at this position
        u64      cumulative sample count the module saw
        f64[k*d] adapter weights, row-major

Weights round-trip bit-exactly; the per-position group ids reconstruct the
sequence permutations, so a bank plus its run manifest (which determines
the grouping plan) is enough to resume serving and to audit exactness. A
bank that contradicts itself is rejected when read: a non-finite weight, a
backbone that is not all zeros (+0.0, as training writes it), a stored
order that is not a permutation, or sample counts that do not strictly rise
from zero along a sequence (every group holds at least one nonempty slice).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import BankFormatError
from .fltrain import AdapterModule, ToyModel
from .sequencing import SequenceSet

MAGIC = b"FSGT"
VERSION = 1
_HEADER = struct.Struct("<4sIIIII")


def _record(k: int, d: int) -> np.dtype:
    """One stored module: packed, little-endian, no padding."""
    return np.dtype([("group", "<u4"), ("samples", "<u8"),
                     ("weights", "<f8", (k, d))])


def write_bank(path: str | Path, model: ToyModel) -> None:
    seqs = model.sequences
    k, d = model.backbone.shape
    for stack in model.modules:
        if len(stack) != seqs.group_count:
            raise BankFormatError(
                f"can only store full stacks of {seqs.group_count} modules, "
                f"got {len(stack)}")
    table = np.array([[(m.group, m.samples, m.weights) for m in stack]
                      for stack in model.modules], dtype=_record(k, d))
    Path(path).write_bytes(
        _HEADER.pack(MAGIC, VERSION, seqs.group_count, len(model.modules), d, k)
        + np.ascontiguousarray(model.backbone, dtype="<f8").tobytes()
        + table.tobytes())


def read_bank(path: str | Path) -> ToyModel:
    """The model stored at ``path``. A file that cannot be read and one that
    is not a consistent bank both raise BankFormatError naming the file."""
    try:
        return _decode_bank(Path(path).read_bytes())
    except OSError as exc:
        raise BankFormatError(f"{path}: {exc.strerror or exc}") from exc
    except BankFormatError as exc:
        raise BankFormatError(f"{path}: {exc}") from exc


def _decode_bank(raw: bytes) -> ToyModel:
    if len(raw) < _HEADER.size:
        raise BankFormatError("bank file shorter than its header")
    magic, version, group_count, budget, d, k = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise BankFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise BankFormatError(f"unsupported bank version {version}")
    if min(group_count, budget, d, k) < 1:
        raise BankFormatError("bank header has nonpositive dimensions")
    # Checked on Python integers, before the record type exists: a header
    # that inflates k or d must fail here, not in numpy building that type.
    matrix_bytes = 8 * k * d
    expected = (_HEADER.size + matrix_bytes +
                budget * group_count * (4 + 8 + matrix_bytes))
    if len(raw) != expected:
        raise BankFormatError(
            f"bank length {len(raw)} does not match header (expected {expected})")

    backbone = np.frombuffer(raw, dtype="<f8", count=k * d,
                             offset=_HEADER.size).reshape(k, d).copy()
    if not np.isfinite(backbone).all():
        raise BankFormatError("backbone holds a non-finite weight")
    if backbone.tobytes() != bytes(matrix_bytes):
        raise BankFormatError("backbone is not zero; training writes a zero "
                              "backbone")
    table = np.frombuffer(raw, dtype=_record(k, d),
                          offset=_HEADER.size + matrix_bytes
                          ).reshape(budget, group_count)
    weights = table["weights"].copy()
    finite = np.isfinite(weights).all(axis=(2, 3))
    groups, samples = table["group"].tolist(), table["samples"].tolist()
    for sid in range(budget):
        if not finite[sid].all():
            raise BankFormatError(f"sequence {sid}, phase {finite[sid].argmin()} "
                                  f"holds a non-finite weight")
        if sorted(groups[sid]) != list(range(group_count)):
            raise BankFormatError(
                f"stored order {tuple(groups[sid])} is not a permutation")
        counts = [0] + samples[sid]
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise BankFormatError(
                f"sequence {sid}: sample counts {samples[sid]} do not strictly "
                f"rise from zero")
    modules = [[AdapterModule(group=g, samples=n, weights=w)
                for g, n, w in zip(*stack)]
               for stack in zip(groups, samples, weights)]
    return ToyModel(backbone=backbone, modules=modules,
                    sequences=SequenceSet(tuple(map(tuple, groups))))
