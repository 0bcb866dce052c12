"""Module bank binary format: round trips and corruption handling."""

import dataclasses
import struct

import numpy as np
import pytest

from fedsgt.bank import read_bank, write_bank
from fedsgt.core import BankFormatError
from fedsgt.dataset import synth_dataset
from fedsgt.fltrain import TrainConfig, train_fedsgt
from fedsgt.grouping import build_grouping
from fedsgt.sequencing import build_sequences


@pytest.fixture(scope="module")
def trained():
    ds = synth_dataset(clients=4, samples_per_client=40, dim=6, classes=3,
                       alpha=None, seed=5, slices_per_client=2,
                       test_samples=60)
    plan = build_grouping(ds.slice_catalog(), 4, 5)
    seqs = build_sequences(4, 5, 5)  # one extra beyond the rotations
    cfg = TrainConfig(epochs=1, lr=0.1, batch_size=16, seed=5)
    return train_fedsgt(ds, plan, seqs, cfg)


class TestRoundTrip:
    def test_bit_exact(self, trained, tmp_path):
        path = tmp_path / "m.fsgt"
        write_bank(path, trained)
        back = read_bank(path)
        assert np.array_equal(back.backbone, trained.backbone)
        assert back.sequences.perms == trained.sequences.perms
        for sa, sb in zip(trained.modules, back.modules):
            for a, b in zip(sa, sb):
                assert a.group == b.group
                assert a.samples == b.samples
                assert a.weights.tobytes() == b.weights.tobytes()

    def test_rewrite_is_byte_identical(self, trained, tmp_path):
        p1, p2 = tmp_path / "a.fsgt", tmp_path / "b.fsgt"
        write_bank(p1, trained)
        write_bank(p2, read_bank(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_sequence_set_round_trips(self, tmp_path):
        # a nonzero seed and orders beyond the rotations: the loaded set is
        # the trained one, not a copy with default fields filled in
        ds = synth_dataset(clients=4, samples_per_client=40, dim=6, classes=3,
                           alpha=None, seed=3, slices_per_client=2,
                           test_samples=60)
        plan = build_grouping(ds.slice_catalog(), 4, 3)
        cfg = TrainConfig(epochs=1, lr=0.1, batch_size=16, seed=3)
        model = train_fedsgt(ds, plan, build_sequences(4, 7, 3), cfg)
        path = tmp_path / "m.fsgt"
        write_bank(path, model)
        assert read_bank(path).sequences == model.sequences

    def test_one_group_one_sequence_round_trips(self, tmp_path):
        # L = B = 1 is the smallest bank the header allows.
        ds = synth_dataset(clients=2, samples_per_client=10, dim=2, classes=2,
                           alpha=None, seed=1, slices_per_client=1,
                           test_samples=10)
        plan = build_grouping(ds.slice_catalog(), 1, 1)
        cfg = TrainConfig(epochs=1, lr=0.1, batch_size=4, seed=1)
        model = train_fedsgt(ds, plan, build_sequences(1, 1, 1), cfg)
        p1, p2 = tmp_path / "a.fsgt", tmp_path / "b.fsgt"
        write_bank(p1, model)
        back = read_bank(p1)
        assert back.sequences == model.sequences
        assert back.modules[0][0].weights.tobytes() == \
            model.modules[0][0].weights.tobytes()
        write_bank(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_fields(self, trained, tmp_path):
        path = tmp_path / "m.fsgt"
        write_bank(path, trained)
        magic, version, L, B, d, k = struct.unpack(
            "<4sIIIII", path.read_bytes()[:24])
        assert magic == b"FSGT"
        assert version == 1
        assert (L, B) == (4, 5)
        assert (d, k) == (6, 3)


class TestCorruption:
    def write(self, trained, tmp_path):
        path = tmp_path / "m.fsgt"
        write_bank(path, trained)
        return path

    def test_partial_stack_is_not_written(self, trained, tmp_path):
        partial = dataclasses.replace(
            trained, modules=[stack[:2] for stack in trained.modules])
        with pytest.raises(BankFormatError,
                           match="^can only store full stacks of 4 modules, got 2$"):
            write_bank(tmp_path / "m.fsgt", partial)
        assert not (tmp_path / "m.fsgt").exists()

    @pytest.mark.parametrize("field", range(4),
                             ids=["groups", "budget", "dim", "classes"])
    def test_zero_dimension_header(self, tmp_path, field):
        dims = [4, 5, 6, 3]
        dims[field] = 0
        path = tmp_path / "m.fsgt"
        path.write_bytes(struct.pack("<4sIIIII", b"FSGT", 1, *dims))
        with pytest.raises(BankFormatError,
                           match="bank header has nonpositive dimensions"):
            read_bank(path)

    def test_bad_magic(self, trained, tmp_path):
        path = self.write(trained, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(BankFormatError):
            read_bank(path)

    def test_bad_version(self, trained, tmp_path):
        path = self.write(trained, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(BankFormatError):
            read_bank(path)

    def test_truncated(self, trained, tmp_path):
        path = self.write(trained, tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 16])
        with pytest.raises(BankFormatError):
            read_bank(path)

    def test_trailing_garbage(self, trained, tmp_path):
        path = self.write(trained, tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(BankFormatError):
            read_bank(path)

    def test_non_permutation_group_ids(self, trained, tmp_path):
        path = self.write(trained, tmp_path)
        raw = bytearray(path.read_bytes())
        # first module header sits right after the header and backbone
        offset = 24 + 3 * 6 * 8
        gid = struct.unpack_from("<I", raw, offset)[0]
        struct.pack_into("<I", raw, offset, gid + 1000)
        path.write_bytes(bytes(raw))
        with pytest.raises(BankFormatError):
            read_bank(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.fsgt"
        path.write_bytes(b"")
        with pytest.raises(BankFormatError):
            read_bank(path)


class TestContradictions:
    """A bank whose bytes parse but contradict how banks are made is
    rejected on load: non-finite weights, and sample counts that do not
    strictly rise along a sequence (every group holds samples)."""

    K, D, L = 3, 6, 4
    MATRIX = 8 * K * D
    MODULE = 12 + MATRIX

    def module_at(self, sid, phase):
        return 24 + self.MATRIX + (sid * self.L + phase) * self.MODULE

    def patched(self, trained, tmp_path, fmt, offset, value):
        path = tmp_path / "m.fsgt"
        write_bank(path, trained)
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        return path

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_backbone(self, trained, tmp_path, value):
        path = self.patched(trained, tmp_path, "<d", 24 + 8 * 5, value)
        with pytest.raises(BankFormatError,
                           match="backbone holds a non-finite"):
            read_bank(path)

    @pytest.mark.parametrize("value", [1e-300, -2.5, -0.0])
    def test_nonzero_backbone(self, trained, tmp_path, value):
        # Training writes a +0.0 backbone and the audit retrains from one.
        path = self.patched(trained, tmp_path, "<d", 24 + 8 * 5, value)
        with pytest.raises(BankFormatError, match="backbone is not zero"):
            read_bank(path)

    @pytest.mark.parametrize("sid, phase", [(0, 0), (2, 1), (4, 3)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_module(self, trained, tmp_path, sid, phase, value):
        last = self.module_at(sid, phase) + self.MODULE - 8
        path = self.patched(trained, tmp_path, "<d", last, value)
        with pytest.raises(BankFormatError,
                           match=f"sequence {sid}, phase {phase} holds"):
            read_bank(path)

    @pytest.mark.parametrize("sid, phase, delta", [
        (0, 0, None),   # the first module saw no samples
        (1, 2, 0),      # equal to the phase before
        (3, 3, -1),     # below the phase before
    ])
    def test_sample_counts_must_rise(self, trained, tmp_path, sid, phase,
                                     delta):
        before = trained.modules[sid][phase - 1].samples if phase else 0
        value = 0 if delta is None else before + delta
        path = self.patched(trained, tmp_path, "<Q",
                            self.module_at(sid, phase) + 4, value)
        with pytest.raises(BankFormatError,
                           match=f"sequence {sid}: sample counts"):
            read_bank(path)


def test_every_corrupt_byte_is_rejected_or_round_trips(tmp_path):
    """Each single-byte flip and each truncation of a small bank either
    raises BankFormatError or loads a model that writes the same bytes back.
    Any other exception fails: a header that inflates k or d must be caught
    by the length check, not by numpy."""
    ds = synth_dataset(clients=3, samples_per_client=30, dim=3, classes=2,
                       alpha=None, seed=1, slices_per_client=1,
                       test_samples=20)
    plan = build_grouping(ds.slice_catalog(), 3, 1)
    cfg = TrainConfig(epochs=1, lr=0.1, batch_size=8, seed=1)
    path, back = tmp_path / "m.fsgt", tmp_path / "back.fsgt"
    write_bank(path, train_fedsgt(ds, plan, build_sequences(3, 3, 1), cfg))
    raw = path.read_bytes()
    assert len(raw) == 24 + 8 * 6 + 9 * (12 + 8 * 6)
    flips = [raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1:]
             for i in range(len(raw)) for mask in (0x01, 0x80, 0xFF)]
    verdicts = {}
    for kind, blobs in (("flip", flips),
                        ("cut", [raw[:n] for n in range(len(raw))])):
        for blob in blobs:
            path.write_bytes(blob)
            try:
                model = read_bank(path)
            except BankFormatError:
                verdict = (kind, "rejected")
            else:
                write_bank(back, model)
                assert back.read_bytes() == blob
                verdict = (kind, "loaded")
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
    # A flipped weight or sample count that stays finite and rising loads;
    # only the exactness audit can tell such a bank from a trained one.
    assert verdicts == {("flip", "rejected"): 462, ("flip", "loaded"): 1374,
                        ("cut", "rejected"): 612}
