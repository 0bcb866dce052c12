"""Configuration schema: defaults, round trips, exhaustive error reporting."""

import pytest

from fedsgt.core import (ConfigurationError, CsvSpec, RunConfig,
                         SyntheticSpec, default_config, validate_config)


class TestDefaults:
    def test_default_config_validates(self):
        cfg = validate_config(default_config())
        assert cfg.clients == 10
        assert cfg.groups == 10
        assert cfg.budget == 10
        assert cfg.clusters == 5
        assert cfg.strategy == "allseq"
        assert isinstance(cfg.dataset, SyntheticSpec)

    def test_round_trip(self):
        cfg = validate_config(default_config())
        again = validate_config(cfg.to_dict())
        assert again == cfg

    def test_empty_dict_uses_defaults(self):
        assert validate_config({}) == validate_config(default_config())


class TestErrors:
    def test_all_errors_reported_at_once(self):
        bad = {"experiment": 7, "seed": "x", "clients": 0, "groups": -1,
               "strategy": "best"}
        with pytest.raises(ConfigurationError) as err:
            validate_config(bad)
        text = "\n".join(err.value.errors)
        for field in ("experiment", "seed", "clients", "groups", "strategy"):
            assert field in text
        assert len(err.value.errors) >= 5

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError) as err:
            validate_config({"verbosity": 3})
        assert any("verbosity" in e for e in err.value.errors)

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigurationError) as err:
            validate_config({"trainer": {"momentum": 0.9}})
        assert any("momentum" in e for e in err.value.errors)

    def test_groups_exceeding_slices(self):
        with pytest.raises(ConfigurationError) as err:
            validate_config({"clients": 2, "slices_per_client": 1, "groups": 5})
        assert any("groups" in e for e in err.value.errors)

    def test_clusters_exceeding_clients(self):
        with pytest.raises(ConfigurationError) as err:
            validate_config({"clients": 3, "clusters": 10})
        assert any("clusters" in e for e in err.value.errors)

    def test_fewer_samples_than_slices(self):
        with pytest.raises(ConfigurationError) as err:
            validate_config({"slices_per_client": 5,
                             "dataset": {"kind": "synthetic",
                                         "samples_per_client": 4}})
        assert any("samples_per_client" in e for e in err.value.errors)

    def test_classes_exceeding_dim(self):
        with pytest.raises(ConfigurationError) as err:
            validate_config({"dataset": {"kind": "synthetic", "dim": 3,
                                         "classes": 7}})
        assert any("classes" in e for e in err.value.errors)

    def test_bool_is_not_int(self):
        with pytest.raises(ConfigurationError):
            validate_config({"clients": True})

    def test_bad_lr(self):
        with pytest.raises(ConfigurationError):
            validate_config({"trainer": {"lr": 0}})

    def test_zero_epochs_allowed(self):
        cfg = validate_config({"trainer": {"epochs": 0}})
        assert cfg.trainer.epochs == 0


class TestDatasetSpecs:
    def test_csv_kind(self):
        cfg = validate_config({"dataset": {"kind": "csv", "path": "d.csv",
                                           "manifest": "m.json"}})
        assert isinstance(cfg.dataset, CsvSpec)
        assert cfg.dataset.path == "d.csv"

    def test_csv_requires_paths(self):
        with pytest.raises(ConfigurationError):
            validate_config({"dataset": {"kind": "csv"}})

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            validate_config({"dataset": {"kind": "images"}})

    def test_alpha_null_means_uniform(self):
        cfg = validate_config({"dataset": {"kind": "synthetic", "alpha": None}})
        assert cfg.dataset.alpha is None

    def test_alpha_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            validate_config({"dataset": {"kind": "synthetic", "alpha": -0.5}})


class TestRequestSpecs:
    def test_scripted_requests(self):
        cfg = validate_config({"requests": {"script": [
            {"client": 0, "slice": 1, "records": 50},
            {"client": 2, "slice": 0, "records": 10}]}})
        assert cfg.requests.script == ((0, 1, 50), (2, 0, 10))

    def test_script_shape_validated(self):
        bad_scripts = [
            [[0, 1]],
            [{"client": 0}],
            [{"client": 0, "slice": 1, "recs": 5}],
            [{"client": True, "slice": 1}],
            [{"client": 0, "slice": 1, "records": True}],
            [{"client": 0, "slice": 1, "records": 2.7}],
            [{"client": 0, "slice": 1.5}],
            [{"client": 0, "slice": 1, "records": 0}],
            {"client": 0, "slice": 1},
        ]
        for script in bad_scripts:
            with pytest.raises(ConfigurationError):
                validate_config({"requests": {"script": script}})

    def test_script_records_default_to_100(self):
        cfg = validate_config({"requests": {"script": [{"client": 0, "slice": 1}]}})
        assert cfg.requests.script == ((0, 1, 100),)

    def test_budget_requests_default(self):
        cfg = validate_config({"requests": {"count": 7, "seed": 4}})
        assert cfg.requests.count == 7
        assert cfg.requests.seed == 4
