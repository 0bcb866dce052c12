"""Module-bank container: one file holding a trained system's weights.

Layout (all integers and floats little-endian):

    bytes 0..3   magic "FSGT"
    u32          format version (1)
    u32          group count L
    u32          sequence count B
    u32          feature dim d
    u32          class count k
    f64[k*d]     backbone, row-major (all zeros)
    then for each sequence (B of them), for each phase (L of them):
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
_MODULE_HEAD = struct.Struct("<IQ")


def write_bank(path: str | Path, model: ToyModel) -> None:
    seqs = model.sequences
    k, d = model.backbone.shape
    blob = bytearray()
    blob += _HEADER.pack(MAGIC, VERSION, seqs.group_count, len(model.modules), d, k)
    blob += np.ascontiguousarray(model.backbone, dtype="<f8").tobytes()
    for stack in model.modules:
        if len(stack) != seqs.group_count:
            raise BankFormatError(
                f"can only store full stacks of {seqs.group_count} modules, "
                f"got {len(stack)}")
        for module in stack:
            blob += _MODULE_HEAD.pack(module.group, module.samples)
            blob += np.ascontiguousarray(module.weights, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


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
    matrix_bytes = 8 * k * d
    expected = (_HEADER.size + matrix_bytes +
                budget * group_count * (_MODULE_HEAD.size + matrix_bytes))
    if len(raw) != expected:
        raise BankFormatError(
            f"bank length {len(raw)} does not match header (expected {expected})")

    def matrix(offset: int, where: str) -> np.ndarray:
        values = np.frombuffer(raw, dtype="<f8", count=k * d,
                               offset=offset).reshape(k, d).copy()
        if not np.isfinite(values).all():
            raise BankFormatError(f"{where} holds a non-finite weight")
        return values

    offset = _HEADER.size
    backbone = matrix(offset, "backbone")
    if backbone.tobytes() != bytes(matrix_bytes):
        raise BankFormatError("backbone is not zero; training writes a zero "
                              "backbone")
    offset += matrix_bytes
    modules: list[list[AdapterModule]] = []
    perms: list[tuple[int, ...]] = []
    for sid in range(budget):
        stack = []
        for phase in range(group_count):
            group, samples = _MODULE_HEAD.unpack_from(raw, offset)
            offset += _MODULE_HEAD.size
            weights = matrix(offset, f"sequence {sid}, phase {phase}")
            offset += matrix_bytes
            stack.append(AdapterModule(group=group, samples=samples,
                                       weights=weights))
        perm = tuple(m.group for m in stack)
        if sorted(perm) != list(range(group_count)):
            raise BankFormatError(f"stored order {perm} is not a permutation")
        counts = [0] + [m.samples for m in stack]
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise BankFormatError(
                f"sequence {sid}: sample counts {counts[1:]} do not strictly "
                f"rise from zero")
        perms.append(perm)
        modules.append(stack)
    seqs = SequenceSet(group_count=group_count, perms=tuple(perms))
    return ToyModel(backbone=backbone, sequences=seqs, modules=modules)
