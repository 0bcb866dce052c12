"""Configuration schema: defaults, round trips, exhaustive error reporting."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsgt.core import (STRATEGIES, STREAM_TAGS, ConfigurationError, CsvSpec,
                         RunConfig, SyntheticSpec, keyed_stream, validate_config)

# Every integer field as (section, key, default, minimum); section None is
# the top level. Written out by hand so that it pins the schema
# independently of how core.py declares it.
INTEGER_FIELDS = [
    (None, "seed", 0, 0),
    (None, "clients", 10, 1),
    (None, "slices_per_client", 5, 1),
    (None, "groups", 10, 1),
    (None, "budget", 10, 1),
    (None, "clusters", 5, 1),
    ("dataset", "dim", 20, 2),
    ("dataset", "classes", 5, 2),
    ("dataset", "samples_per_client", 200, 1),
    ("dataset", "test_samples", 500, 1),
    ("trainer", "epochs", 3, 0),
    ("trainer", "batch_size", 32, 1),
    ("trainer", "rounds_per_phase", 1, 1),
    ("trainer", "fedavg_rounds", 10, 1),
    ("requests", "count", 0, 0),
    ("requests", "seed", 0, 0),
    ("requests", "record_count", 100, 1),
]
FIELD_IDS = [f"{section or 'top'}.{key}" for section, key, _, _ in INTEGER_FIELDS]


def errors_of(raw):
    try:
        validate_config(raw)
    except ConfigurationError as err:
        return err.errors
    return []


class TestDefaults:
    def test_default_config_validates(self):
        cfg = validate_config(RunConfig().to_dict())
        assert cfg.clients == 10
        assert cfg.groups == 10
        assert cfg.budget == 10
        assert cfg.clusters == 5
        assert cfg.strategy == "allseq"
        assert isinstance(cfg.dataset, SyntheticSpec)

    def test_round_trip(self):
        cfg = validate_config(RunConfig().to_dict())
        again = validate_config(cfg.to_dict())
        assert again == cfg

    def test_empty_dict_uses_defaults(self):
        assert validate_config({}) == validate_config(RunConfig().to_dict())

    def test_readme_example_shows_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"## Configuration file\n\n```json\n(.*?)```",
                          readme, re.S).group(1)
        example = json.loads(block)
        validate_config(example)
        example["requests"]["count"] = 0  # the example asks for 10 requests
        assert example == RunConfig().to_dict()


@pytest.mark.parametrize("section, key, default, minimum", INTEGER_FIELDS,
                         ids=FIELD_IDS)
class TestIntegerFields:
    @staticmethod
    def config(section, key, value):
        return {key: value} if section is None else {section: {key: value}}

    @staticmethod
    def label(section, key):
        return key if section is None else f"{section}.{key}"

    def test_absent_key_gives_default(self, section, key, default, minimum):
        cfg = validate_config({})
        assert getattr(cfg if section is None else getattr(cfg, section),
                       key) == default

    def test_minimum_accepted(self, section, key, default, minimum):
        # The smallest config the cross-field rules allow, with this field
        # at its minimum.
        raw = {"clients": 1, "slices_per_client": 1, "groups": 1, "budget": 1,
               "clusters": 1,
               "dataset": {"dim": 2, "classes": 2, "samples_per_client": 1}}
        (raw if section is None else raw.setdefault(section, {}))[key] = minimum
        cfg = validate_config(raw)
        assert getattr(cfg if section is None else getattr(cfg, section),
                       key) == minimum

    def test_below_minimum_rejected(self, section, key, default, minimum):
        label = self.label(section, key)
        assert (f"{label}: must be >= {minimum}, got {minimum - 1}"
                in errors_of(self.config(section, key, minimum - 1)))

    def test_bool_rejected(self, section, key, default, minimum):
        label = self.label(section, key)
        assert (f"{label}: expected an integer, got True"
                in errors_of(self.config(section, key, True)))


@st.composite
def valid_configs(draw):
    """Raw configs that validate: synthetic or csv data, null alpha,
    strategies in mixed case, and scripts with and without records. Keys
    that no cross-field rule reads are sometimes left out."""
    clients = draw(st.integers(1, 6))
    slices = draw(st.integers(1, 4))
    groups = draw(st.integers(1, clients * slices))
    raw = {"clients": clients, "slices_per_client": slices, "groups": groups,
           "budget": draw(st.integers(1, min(math.factorial(groups), 30))),
           "clusters": draw(st.integers(1, clients))}
    optional = {
        "experiment": st.text(min_size=1, max_size=8),
        "seed": st.integers(0, 2**40),
        "strategy": st.sampled_from(STRATEGIES).flatmap(
            lambda name: st.lists(st.booleans(), min_size=len(name),
                                  max_size=len(name)).map(
                lambda upper: "".join(c.upper() if u else c
                                      for c, u in zip(name, upper)))),
        "out": st.none() | st.text(min_size=1, max_size=8),
    }
    positive = (st.floats(min_value=0, exclude_min=True, allow_infinity=False)
                | st.integers(1, 10))
    if draw(st.booleans()):
        raw["dataset"] = {"kind": "csv", "path": draw(st.text(min_size=1)),
                          "manifest": draw(st.text(min_size=1))}
    else:
        dim = draw(st.integers(2, 30))
        raw["dataset"] = {"kind": "synthetic", "dim": dim,
                          "classes": draw(st.integers(2, dim)),
                          "samples_per_client": draw(st.integers(slices, 400))}
        optional["dataset.alpha"] = st.none() | positive
        optional["dataset.test_samples"] = st.integers(1, 1000)
    optional.update({
        "trainer.epochs": st.integers(0, 5),
        "trainer.lr": positive,
        "trainer.batch_size": st.integers(1, 64),
        "trainer.rounds_per_phase": st.integers(1, 4),
        "trainer.fedavg_rounds": st.integers(1, 20),
    })
    if draw(st.booleans()):
        entry = st.fixed_dictionaries(
            {"client": st.integers(0, 9), "slice": st.integers(0, 9)},
            optional={"records": st.integers(1, 500)})
        raw["requests"] = {"script": draw(st.lists(entry, max_size=4))}
    else:
        optional.update({"requests.count": st.integers(0, 50),
                         "requests.seed": st.integers(0, 99),
                         "requests.record_count": st.integers(1, 500)})
    for path, values in optional.items():
        if draw(st.booleans()):
            section, _, key = path.rpartition(".")
            target = raw.setdefault(section, {}) if section else raw
            target[key] = draw(values)
    return raw


@settings(deadline=None, max_examples=200)
@given(raw=valid_configs())
def test_round_trip(raw):
    cfg = validate_config(raw)
    assert validate_config(cfg.to_dict()) == cfg
    assert validate_config(json.loads(json.dumps(cfg.to_dict()))) == cfg


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

    def test_csv_groups_not_checked_against_synthetic_fields(self):
        # clients * slices_per_client describes synthetic data only; a csv
        # dataset's own slice count is checked when it is loaded
        cfg = validate_config({"clients": 1, "slices_per_client": 1,
                               "groups": 3, "budget": 3, "clusters": 1,
                               "dataset": {"kind": "csv", "path": "d.csv",
                                           "manifest": "m.json"}})
        assert cfg.groups == 3

    def test_csv_clusters_not_checked_against_synthetic_fields(self):
        # the config's clients field describes synthetic data only; a csv
        # dataset's own client count is checked when it is loaded
        cfg = validate_config({"clients": 2, "clusters": 5,
                               "dataset": {"kind": "csv", "path": "d.csv",
                                           "manifest": "m.json"}})
        assert cfg.clusters == 5

    def test_synthetic_fit_uses_the_csv_message_template(self):
        # One check serves both dataset kinds; a csv dataset names its
        # manifest where a synthetic one names the config.
        assert errors_of({"clients": 2, "slices_per_client": 1, "groups": 3,
                          "budget": 3, "clusters": 4}) == [
            "groups: need at least one slice per group "
            "(groups=3 > the 2 slices of the config)",
            "clusters: cannot exceed clients "
            "(clusters=4 > the 2 clients of the config)"]

    def test_synthetic_clusters_checked_against_clients(self):
        with pytest.raises(ConfigurationError, match="clusters: cannot exceed"):
            validate_config({"clients": 2, "slices_per_client": 5,
                             "clusters": 5})

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


def test_keyed_stream_and_domain_tags():
    # Every random draw in the package comes from keyed_stream, so its
    # construction and the tags are part of the bank and estimate bytes.
    for key in [(0,), (7, STREAM_TAGS["client_data"], 3), (2, 0, 5, 1)]:
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        assert keyed_stream(key).bit_generator.state == want.bit_generator.state
    assert dict(STREAM_TAGS) == {
        "client_data": 0xDA7A, "test_data": 0x7E57, "sequence_orders": 0x5EC5,
        "requests": 0xDE1, "fedcio": 0xC10, "fedretrain": 0x2E7,
        "mc_deletion_fedsgt": 1, "mc_deletion_fedcio": 2, "mc_span": 3,
        "mc_remaining": 4, "mc_comm": 5}
    assert len(set(STREAM_TAGS.values())) == len(STREAM_TAGS)
