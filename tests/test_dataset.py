"""Synthetic data: determinism, slicing, label skew, CSV round trips."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsgt.core import TrainingError
from fedsgt.dataset import (Dataset, load_csv_dataset, save_csv_dataset,
                            synth_dataset)
from fedsgt.grouping import SliceRef, near_equal_runs


def small(seed=0, alpha=None, **kw):
    defaults = dict(clients=5, samples_per_client=60, dim=8, classes=4,
                    alpha=alpha, seed=seed, slices_per_client=3,
                    test_samples=120)
    defaults.update(kw)
    return synth_dataset(**defaults)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a, b = small(seed=9), small(seed=9)
        for c in range(a.client_count):
            for s in range(len(a.train_x[c])):
                assert np.array_equal(a.train_x[c][s], b.train_x[c][s])
                assert np.array_equal(a.train_y[c][s], b.train_y[c][s])
        assert np.array_equal(a.test_x, b.test_x)
        assert np.array_equal(a.test_y, b.test_y)

    def test_different_seed_differs(self):
        a, b = small(seed=1), small(seed=2)
        assert not np.array_equal(a.train_x[0][0], b.train_x[0][0])

    def test_clients_have_independent_streams(self):
        ds = small(seed=3)
        assert not np.array_equal(ds.train_x[0][0], ds.train_x[1][0])


class TestShape:
    def test_slice_sizes_within_one(self):
        ds = synth_dataset(clients=3, samples_per_client=70, dim=5, classes=3,
                           alpha=None, seed=0, slices_per_client=4)
        for c in range(3):
            sizes = [len(y) for y in ds.train_y[c]]
            assert sum(sizes) == 70
            assert max(sizes) - min(sizes) <= 1

    @settings(max_examples=25, deadline=None)
    @given(samples=st.integers(1, 40), classes=st.integers(2, 6),
           test_samples=st.integers(1, 50), data=st.data())
    def test_slices_and_test_classes_are_the_near_equal_runs(
            self, samples, classes, test_samples, data):
        slices = data.draw(st.integers(1, samples))
        ds = synth_dataset(clients=2, samples_per_client=samples, dim=6,
                           classes=classes, alpha=0.5, seed=1,
                           slices_per_client=slices, test_samples=test_samples)
        want = [b - a for a, b in near_equal_runs(samples, slices)]
        for c in range(2):
            assert [len(y) for y in ds.train_y[c]] == want
        test_counts = [b - a for a, b in near_equal_runs(test_samples, classes)]
        assert np.bincount(ds.test_y, minlength=classes).tolist() == test_counts

    def test_catalog_is_sorted_and_complete(self):
        ds = small()
        cat = ds.slice_catalog()
        refs = [ref for ref, _ in cat]
        assert refs == sorted(refs)
        assert len(refs) == 5 * 3
        assert sum(n for _, n in cat) == 5 * 60

    def test_slice_data_matches_catalog(self):
        ds = small()
        for ref, n in ds.slice_catalog():
            x, y = ds.slice_data(ref)
            assert len(x) == len(y) == n
            assert x.shape[1] == 8

    def test_total_samples(self):
        assert small().total_samples == 300

    def test_test_split_balanced(self):
        ds = small(test_samples=120)  # 120 / 4 classes = 30 each
        counts = np.bincount(ds.test_y, minlength=4)
        assert counts.tolist() == [30, 30, 30, 30]

    def test_labels_in_range(self):
        ds = small(alpha=0.3)
        for c in range(ds.client_count):
            for y in ds.train_y[c]:
                assert y.min() >= 0 and y.max() < 4


class TestLabelSkew:
    def max_shares(self, classes, alpha, seed):
        ds = synth_dataset(clients=20, samples_per_client=200, dim=20,
                           classes=classes, alpha=alpha, seed=seed)
        out = []
        for c in range(20):
            hist = np.bincount(np.concatenate(ds.train_y[c]),
                               minlength=classes)
            out.append(max(hist) / sum(hist))
        return out

    def test_dirichlet_concentrates_few_classes(self):
        # alpha=0.3, 5 classes: most clients are dominated by one class
        # (measured 0.65-0.85 across seeds; exact theory ~0.72)
        for seed in (0, 1, 2):
            shares = self.max_shares(5, 0.3, seed)
            frac = np.mean([s > 0.5 for s in shares])
            assert frac >= 0.5, (seed, frac)

    def test_dirichlet_skew_at_ten_classes(self):
        # at 10 classes a >0.5 majority no longer holds for most clients
        # (exact computation gives ~34%); assert the honest skew metric:
        # mean max-class share far above the uniform baseline
        for seed in (0, 1):
            skewed = np.mean(self.max_shares(10, 0.3, seed))
            uniform = np.mean(self.max_shares(10, None, seed))
            assert skewed > 0.35, skewed
            assert uniform < 0.2, uniform
            assert skewed > 2 * uniform

    def test_uniform_alpha_none_is_balanced(self):
        shares = self.max_shares(5, None, 0)
        assert np.mean(shares) < 0.3


class TestSeparability:
    def test_class_means_are_distinct(self):
        ds = small(seed=5)
        # pool all training data; per-class mean vectors should be far apart
        xs, ys = [], []
        for c in range(ds.client_count):
            for s in range(len(ds.train_x[c])):
                xs.append(ds.train_x[c][s])
                ys.append(ds.train_y[c][s])
        x, y = np.concatenate(xs), np.concatenate(ys)
        means = np.stack([x[y == k].mean(axis=0) for k in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) > 1.0


class TestCsvRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = small(seed=11, alpha=0.3)
        save_csv_dataset(ds, tmp_path / "data.csv", tmp_path / "manifest.json")
        back = load_csv_dataset(tmp_path / "data.csv", tmp_path / "manifest.json")
        assert back.dim == ds.dim and back.classes == ds.classes
        for c in range(ds.client_count):
            for s in range(len(ds.train_x[c])):
                assert np.array_equal(back.train_x[c][s], ds.train_x[c][s])
                assert np.array_equal(back.train_y[c][s], ds.train_y[c][s])
        assert np.array_equal(back.test_x, ds.test_x)
        assert np.array_equal(back.test_y, ds.test_y)

    def test_manifest_mismatch_rejected(self, tmp_path):
        ds = small(seed=1)
        save_csv_dataset(ds, tmp_path / "d.csv", tmp_path / "m.json")
        import json
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["dim"] = 99
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(TrainingError):
            load_csv_dataset(tmp_path / "d.csv", tmp_path / "m.json")

    def test_truncated_rows_rejected(self, tmp_path):
        ds = small(seed=1)
        save_csv_dataset(ds, tmp_path / "d.csv", tmp_path / "m.json")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        (tmp_path / "d.csv").write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(TrainingError):
            load_csv_dataset(tmp_path / "d.csv", tmp_path / "m.json")


class TestCsvStructure:
    """Every structural problem in a saved dataset raises TrainingError;
    only a file that cannot be opened raises OSError."""

    @pytest.fixture
    def saved(self, tmp_path):
        save_csv_dataset(small(seed=2), tmp_path / "d.csv", tmp_path / "m.json")
        return tmp_path / "d.csv", tmp_path / "m.json"

    @staticmethod
    def edit_manifest(path, change):
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))

    @pytest.mark.parametrize("text", ["{not json", "[]", '"fedsgt-dataset"',
                                      "null"],
                             ids=["not-json", "list", "string", "null"])
    def test_manifest_not_an_object(self, saved, text):
        saved[1].write_text(text)
        with pytest.raises(TrainingError):
            load_csv_dataset(*saved)

    def test_manifest_not_utf8(self, saved):
        saved[1].write_bytes(b"\xff\xfe{}")
        with pytest.raises(TrainingError):
            load_csv_dataset(*saved)

    @pytest.mark.parametrize("change", [
        lambda doc: doc.pop("dim"),
        lambda doc: doc.pop("classes"),
        lambda doc: doc.update(dim=[8]),
        lambda doc: doc.update(dim="eight"),
        lambda doc: doc.pop("clients"),
        lambda doc: doc.pop("test"),
        lambda doc: doc["clients"][0].pop("slices"),
        lambda doc: doc.update(clients=[3]),
        lambda doc: doc["clients"][0].update(slices=5),
        lambda doc: doc["clients"][0].update(slices=[[0]]),
        lambda doc: doc.update(test="all"),
    ], ids=["no-dim", "no-classes", "dim-list", "dim-text", "no-clients",
            "no-test", "no-slices", "client-not-object", "slices-not-list",
            "short-span", "test-not-span"])
    def test_malformed_manifest(self, saved, change):
        self.edit_manifest(saved[1], change)
        with pytest.raises(TrainingError):
            load_csv_dataset(*saved)

    @pytest.mark.parametrize("change, problem", [
        (lambda doc: doc.update(dim=4.7), "dim: expected an integer, got 4.7"),
        (lambda doc: doc.update(dim=8.0), "dim: expected an integer, got 8.0"),
        (lambda doc: doc.update(classes=True), "classes: expected an integer"),
        (lambda doc: doc.update(dim=0), "dim: must be >= 1, got 0"),
        (lambda doc: doc["clients"][0]["slices"].__setitem__(0, [0.9, 10.2]),
         "clients[0].slices[0][0]: expected an integer, got 0.9"),
        (lambda doc: doc.update(test=[-1, 5]), "test[0]: must be >= 0, got -1"),
        (lambda doc: doc.update(test=[5, 3]), "test: row span [5, 3] holds no rows"),
        (lambda doc: doc.update(test=[0, 0]), "test: row span [0, 0] holds no rows"),
        (lambda doc: doc["clients"].reverse(),
         "clients[0].client: expected 0, its place in the list, got 4"),
        (lambda doc: doc["clients"][2].pop("client"), "clients[2].client: required"),
        (lambda doc: doc["clients"][2].update(client=2.0),
         "clients[2].client: expected an integer, got 2.0"),
        (lambda doc: doc["clients"][2].update(slices=[]),
         "clients[2].slices: expected a list of at least one span, got []"),
        (lambda doc: doc.update(version=True),
         "not a version-1 fedsgt dataset manifest"),
        (lambda doc: doc.update(version=1.0),
         "not a version-1 fedsgt dataset manifest"),
    ], ids=["dim-fraction", "dim-float", "classes-bool", "dim-zero",
            "fractional-span", "negative-start", "reversed-span", "empty-test",
            "swapped-clients", "missing-client-id", "float-client-id",
            "client-without-slices", "version-bool", "version-float"])
    def test_manifest_values_are_checked(self, saved, change, problem):
        # Bare int() truncated 4.7 to 4 and [0.9, 10.2] to [0, 10], an empty
        # test split scored NaN, and client ids were never read: swapped
        # entries were renumbered. A client without slices counted toward
        # clusters, and a version of true or 1.0 read as 1.
        self.edit_manifest(saved[1], change)
        with pytest.raises(TrainingError, match=re.escape(problem)):
            load_csv_dataset(*saved)

    def test_every_manifest_problem_in_one_error(self, saved):
        def change(doc):
            doc.update(dim=4.7, classes="four", test=[0, 0])
            doc["clients"][1]["slices"][2] = [1, "2"]
        self.edit_manifest(saved[1], change)
        with pytest.raises(TrainingError) as info:
            load_csv_dataset(*saved)
        message = str(info.value)
        for problem in ("dim: expected an integer", "classes: expected an integer",
                        "test: row span [0, 0] holds no rows",
                        "clients[1].slices[2][1]: expected an integer, got '2'"):
            assert problem in message

    @pytest.mark.parametrize("data", [b"", b"\xff\xfelabel,f0\n",
                                      b"label," + b"9" * 200_000],
                             ids=["empty", "not-utf8", "field-over-csv-limit"])
    def test_unreadable_csv(self, saved, data):
        saved[0].write_bytes(data)
        with pytest.raises(TrainingError):
            load_csv_dataset(*saved)

    @pytest.mark.parametrize("which", [0, 1], ids=["csv", "manifest"])
    def test_unopenable_file_raises_oserror(self, saved, which):
        paths = list(saved)
        paths[which].unlink()
        with pytest.raises(FileNotFoundError):
            load_csv_dataset(*paths)
        paths[which].mkdir()
        with pytest.raises(OSError):
            load_csv_dataset(*paths)


class TestValidation:
    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            synth_dataset(clients=0, samples_per_client=10, dim=4, classes=2,
                          alpha=None, seed=0)
        with pytest.raises(ValueError):
            synth_dataset(clients=2, samples_per_client=10, dim=4, classes=5,
                          alpha=None, seed=0)  # classes > dim
        with pytest.raises(ValueError):
            synth_dataset(clients=2, samples_per_client=10, dim=4, classes=2,
                          alpha=-1.0, seed=0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0, -1.0, True])
    def test_alpha_takes_the_config_rule(self, alpha):
        with pytest.raises(ValueError, match=re.escape(
                f"alpha must be a finite positive number or None, got {alpha!r}")):
            synth_dataset(clients=2, samples_per_client=10, dim=4, classes=2,
                          alpha=alpha, seed=0)

    def test_too_many_slices_rejected(self):
        with pytest.raises(ValueError):
            synth_dataset(clients=2, samples_per_client=3, dim=4, classes=2,
                          alpha=None, seed=0, slices_per_client=5)
