"""Configuration schema: defaults, round trips, exhaustive error reporting."""

import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsgt.analytics import (AnalyticParams, deletion_rate_fedcio,
                              deletion_rate_fedsgt, expected_comm_cost,
                              expected_remaining_fedcio,
                              expected_remaining_fedsgt, expected_span,
                              matched_budget, prob_m_distinct, prob_max_gap_le,
                              training_cost)
from fedsgt.combinatorics import binomial, harmonic, stirling2
from fedsgt.core import (METHOD_FEDCIO, METHOD_FEDSGT, STRATEGIES, STREAM_TAGS,
                         ConfigurationError, CsvSpec, RunConfig, SyntheticSpec,
                         check_at_least, keyed_stream, method_name,
                         required_int, strategy_name, validate_config)
from fedsgt.dataset import synth_dataset
from fedsgt.fltrain import (CostMeter, TrainConfig, evaluate, fedavg_lockstep,
                            predict_proba, train_fedsgt, train_prefixes)
from fedsgt.grouping import SliceRef, SplitMix64, build_grouping
from fedsgt.montecarlo import (MCConfig, mc_comm_cost, mc_deletion_rate_fedcio,
                               mc_deletion_rate_fedsgt, mc_expected_remaining,
                               mc_expected_span, validation_grid)
from fedsgt.sequencing import (apply_deletion, build_sequences, cyclic_span,
                               fresh_state, state_from_deleted, state_to_json)
from fedsgt.unlearn import (exactness_audit, fedcio_simulate,
                            fedretrain_simulate, race_failure_steps,
                            request_stream, train_clusters, uniform_requests)

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

    def test_number_problems_follow_the_count_problems(self):
        # A section reports its counts in field order, then its numbers.
        assert errors_of({
            "dataset": {"alpha": 0, "test_samples": 0},
            "trainer": {"lr": "x", "epochs": -1, "fedavg_rounds": 0}}) == [
            "dataset.test_samples: must be >= 1, got 0",
            "dataset.alpha: must be a finite positive number or null, got 0",
            "trainer.epochs: must be >= 0, got -1",
            "trainer.fedavg_rounds: must be >= 1, got 0",
            "trainer.lr: must be a finite positive number, got 'x'"]

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


# ---------------------------------------------------------------------------
# The one integer rule, as library calls take it
# ---------------------------------------------------------------------------


def _tiny_dataset():
    return synth_dataset(clients=2, samples_per_client=8, dim=3, classes=2,
                         alpha=None, seed=0, slices_per_client=2, test_samples=4)


_MC = MCConfig(trials=1)
_CATALOG = [(SliceRef(0, 0), 4), (SliceRef(0, 1), 4)]


@functools.cache
def _tiny_system():
    """A dataset, plan, trainer config and structure-only model (0 epochs)
    at L = B = 4."""
    ds = _tiny_dataset()
    plan = build_grouping(ds.slice_catalog(), 4, 0)
    cfg = TrainConfig(epochs=0)
    return ds, plan, cfg, train_fedsgt(ds, plan, build_sequences(4, 4), cfg)


def _audit(deleted):
    ds, plan, cfg, model = _tiny_system()
    return exactness_audit(model, plan, cfg, ds, deleted)


def _seqs():
    return _tiny_system()[3].sequences


def _upto(v):
    ds, plan, cfg, model = _tiny_system()
    return train_prefixes(ds, plan, {0: (model.sequences.perms[0], v)}, cfg)


def _race(clusters=2, cap=10):
    ds, plan, cfg, model = _tiny_system()
    return race_failure_steps(plan, model.sequences, clusters, 0, cap=cap)


# Every library call guarded by check_at_least (or, for the config types,
# check_fields), as (call, the argument, a call with that argument set to v).
# Group ids and other indices are checked so before their range test: a
# float used to be truncated (``apply_deletion(state, seqs, 2.9)`` deleted
# group 2), and True passed as group 1.
LIBRARY_COUNTS = [
    ("build_sequences", "group_count", lambda v: build_sequences(v, 1)),
    ("build_sequences", "budget", lambda v: build_sequences(2, v)),
    ("build_grouping", "group_count", lambda v: build_grouping(_CATALOG, v, 0)),
    ("deletion_rate_fedsgt", "group_count", lambda v: deletion_rate_fedsgt(v, 1)),
    ("deletion_rate_fedsgt", "budget", lambda v: deletion_rate_fedsgt(2, v)),
    ("deletion_rate_fedcio", "clusters", lambda v: deletion_rate_fedcio(v)),
    ("prob_m_distinct", "group_count", lambda v: prob_m_distinct(v, 2, 1)),
    ("prob_m_distinct", "requests", lambda v: prob_m_distinct(4, v, 1)),
    ("prob_max_gap_le", "group_count", lambda v: prob_max_gap_le(v, 1, 1)),
    ("prob_max_gap_le", "gap_bound", lambda v: prob_max_gap_le(4, 2, v)),
    ("expected_span", "group_count", lambda v: expected_span(v, 2)),
    ("expected_span", "requests", lambda v: expected_span(4, v)),
    ("expected_remaining_fedsgt", "total_samples",
     lambda v: expected_remaining_fedsgt(v, 4, 2)),
    ("expected_remaining_fedsgt", "requests",
     lambda v: expected_remaining_fedsgt(100, 4, v)),
    ("expected_remaining_fedcio", "total_samples",
     lambda v: expected_remaining_fedcio(v, 4, 2)),
    ("expected_remaining_fedcio", "clusters",
     lambda v: expected_remaining_fedcio(100, v, 2)),
    ("expected_remaining_fedcio", "requests",
     lambda v: expected_remaining_fedcio(100, 4, v)),
    ("expected_comm_cost", "group_count", lambda v: expected_comm_cost(v, 2)),
    ("expected_comm_cost", "slices_per_client", lambda v: expected_comm_cost(4, v)),
    ("matched_budget", "rounds", lambda v: matched_budget(v, 4)),
    ("matched_budget", "group_count", lambda v: matched_budget(10, v)),
    *[("AnalyticParams", name, lambda v, name=name: AnalyticParams(**{name: v}))
      for name in ("group_count", "budget", "total_samples", "rounds", "epochs",
                   "adapter_params")],
    ("harmonic", "n", harmonic),
    ("SplitMix64.bounded", "n", lambda v: SplitMix64(0).bounded(v)),
    ("binomial", "n", lambda v: binomial(v, 1)),
    ("binomial", "k", lambda v: binomial(4, v)),
    ("stirling2", "r", lambda v: stirling2(v, 1)),
    ("stirling2", "m", lambda v: stirling2(4, v)),
    ("mc_deletion_rate_fedsgt", "group_count",
     lambda v: mc_deletion_rate_fedsgt(v, 1, _MC)),
    ("mc_deletion_rate_fedsgt", "budget", lambda v: mc_deletion_rate_fedsgt(2, v, _MC)),
    ("mc_deletion_rate_fedcio", "clusters", lambda v: mc_deletion_rate_fedcio(v, _MC)),
    ("mc_expected_span", "group_count", lambda v: mc_expected_span(v, 2, _MC)),
    ("mc_expected_span", "requests", lambda v: mc_expected_span(4, v, _MC)),
    ("mc_expected_remaining", "total_samples",
     lambda v: mc_expected_remaining("FedSGT", v, 4, 2, _MC)),
    ("mc_expected_remaining", "units",
     lambda v: mc_expected_remaining("FedSGT", 100, v, 2, _MC)),
    ("mc_expected_remaining", "requests",
     lambda v: mc_expected_remaining("FedCIO", 100, 4, v, _MC)),
    ("mc_comm_cost", "group_count", lambda v: mc_comm_cost(v, 2, _MC)),
    ("mc_comm_cost", "slices_per_client", lambda v: mc_comm_cost(4, v, _MC)),
    ("synth_dataset", "clients",
     lambda v: synth_dataset(clients=v, samples_per_client=8, dim=3, classes=2,
                             alpha=None, seed=0)),
    ("synth_dataset", "samples_per_client",
     lambda v: synth_dataset(clients=2, samples_per_client=v, dim=3, classes=2,
                             alpha=None, seed=0)),
    ("synth_dataset", "slices_per_client",
     lambda v: synth_dataset(clients=2, samples_per_client=8, dim=3, classes=2,
                             alpha=None, seed=0, slices_per_client=v)),
    ("CostMeter.charge", "samples", lambda v: CostMeter().charge(v, 1)),
    ("CostMeter.charge", "params", lambda v: CostMeter().charge(1, v)),
    ("CostMeter.charge", "modules", lambda v: CostMeter().charge(1, 1, modules=v)),
    ("CostMeter.charge", "epochs", lambda v: CostMeter().charge(1, 1, epochs=v)),
    ("fedavg_lockstep", "rounds",
     lambda v: fedavg_lockstep([], 2, 3, v, TrainConfig())),
    ("fedretrain_simulate", "eval_every",
     lambda v: fedretrain_simulate(_tiny_dataset(), TrainConfig(), [],
                                   eval_every=v, rounds=1)),
    ("apply_deletion", "group",
     lambda v: apply_deletion(fresh_state(_seqs()), _seqs(), v)),
    ("state_from_deleted", "group", lambda v: state_from_deleted(_seqs(), [0, v])),
    ("cyclic_span", "group", lambda v: cyclic_span(4, {v})),
    ("exactness_audit", "group", lambda v: _audit([v])),
    ("prob_max_gap_le", "occupied", lambda v: prob_max_gap_le(6, v, 3)),
    ("train_prefixes", "upto_phase", _upto),
    # Each count below used to run on a bool, and a float or string raised
    # TypeError; test_counts_below_their_minimum_are_refused has the rest.
    ("mc_deletion_rate_fedsgt", "workers",
     lambda v: mc_deletion_rate_fedsgt(2, 1, _MC, v)),
    ("mc_deletion_rate_fedcio", "workers", lambda v: mc_deletion_rate_fedcio(2, _MC, v)),
    ("mc_expected_span", "workers", lambda v: mc_expected_span(4, 2, _MC, v)),
    ("mc_expected_remaining", "workers",
     lambda v: mc_expected_remaining("FedSGT", 100, 4, 2, _MC, v)),
    ("mc_comm_cost", "workers", lambda v: mc_comm_cost(4, 2, _MC, v)),
    ("validation_grid", "workers", lambda v: validation_grid(_MC, workers=v)),
    ("uniform_requests", "count", lambda v: uniform_requests(_CATALOG, v, 0)),
    ("uniform_requests", "seed", lambda v: uniform_requests(_CATALOG, 1, v)),
    ("request_stream", "seed", lambda v: next(request_stream(_CATALOG, v))),
    ("fedcio_simulate", "clusters",
     lambda v: fedcio_simulate(_tiny_dataset(), v, TrainConfig(), [], rounds=1)),
    ("train_clusters", "clusters",
     lambda v: train_clusters(_tiny_dataset(), v, TrainConfig(), rounds=1)),
    ("race_failure_steps", "clusters", lambda v: _race(clusters=v)),
    ("race_failure_steps", "cap", lambda v: _race(cap=v)),
]


@pytest.mark.parametrize("run, message", [
    # workers 0 and -3 ran on one thread, uniform_requests(count=-1)
    # returned [], fedcio_simulate(clusters=0) a baseline row with nothing
    # served, and race_failure_steps(clusters=0) raised ZeroDivisionError.
    (lambda: mc_expected_span(4, 2, _MC, workers=0), "workers must be >= 1, got 0"),
    (lambda: validation_grid(_MC, workers=-3), "workers must be >= 1, got -3"),
    (lambda: uniform_requests(_CATALOG, -1, 0), "count must be >= 0, got -1"),
    (lambda: next(request_stream(_CATALOG, -1)), "seed must be >= 0, got -1"),
    (lambda: fedcio_simulate(_tiny_dataset(), 0, TrainConfig(), [], rounds=1),
     "clusters must be >= 1, got 0"),
    (lambda: _race(clusters=0), "clusters must be >= 1, got 0"),
    (lambda: _race(cap=0), "cap must be >= 1, got 0"),
], ids=["mc-workers", "grid-workers", "count", "seed", "fedcio-clusters",
        "race-clusters", "race-cap"])
def test_counts_below_their_minimum_are_refused(run, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run()


@pytest.mark.parametrize("value", [True, 2.5], ids=["bool", "float"])
@pytest.mark.parametrize("call, name, run", LIBRARY_COUNTS,
                         ids=[f"{c}.{n}" for c, n, _ in LIBRARY_COUNTS])
def test_library_counts_take_integers_only(call, name, run, value):
    with pytest.raises(ValueError,
                       match=f"^{name}: expected an integer, got {value!r}$"):
        run(value)


def test_numpy_integers_are_counts():
    check_at_least(1, n=np.int64(3), k=np.uint8(1))
    assert build_sequences(np.int64(3), np.int64(2), 0).group_count == 3
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        check_at_least(1, n=np.int64(0))


def test_group_ids_are_kept_as_plain_ints():
    # numpy ids are integers; the state holds them as int, which
    # state_to_json can serialise.
    state = state_from_deleted(_seqs(), [np.int64(2), np.uint8(0)])
    assert json.loads(state_to_json(state))["deleted"] == [0, 2]
    assert cyclic_span(4, [np.int64(1), 3]) == 3


def _served(call):
    def run(v):
        ds, _, _, model = _tiny_system()
        return call(model, fresh_state(model.sequences), v, ds.test_x, ds.test_y)
    return run


# Every library call that takes a strategy or a method name, as (what the
# name is of, a call with the name set to v). A value that is not a string
# used to raise AttributeError from ``.lower()`` or ``.strip()``.
LIBRARY_NAMES = [
    ("strategy", _served(evaluate)),
    ("strategy", _served(lambda model, state, v, x, _: predict_proba(
        model, state, v, x))),
    ("method", lambda v: training_cost(v, AnalyticParams())),
    ("method", lambda v: mc_expected_remaining(v, 100, 4, 2, _MC)),
]


@pytest.mark.parametrize("value", [5, None, b"allseq", ["FedSGT"]],
                         ids=["int", "none", "bytes", "list"])
@pytest.mark.parametrize("kind, run", LIBRARY_NAMES,
                         ids=["evaluate", "predict_proba", "training_cost",
                              "mc_expected_remaining"])
def test_library_names_take_strings_only(kind, run, value):
    with pytest.raises(ValueError,
                       match=f"^unknown {kind} {re.escape(repr(value))}"):
        run(value)


class TestNameRules:
    def test_strategy_in_any_case(self):
        assert [strategy_name(s.upper()) for s in STRATEGIES] == list(STRATEGIES)
        for bad in (" allseq", "all", "", 0):
            with pytest.raises(ValueError, match=f"^unknown strategy {bad!r}$"):
                strategy_name(bad)

    def test_method_in_any_case_and_with_blanks(self):
        methods = (METHOD_FEDSGT, METHOD_FEDCIO)
        assert method_name(" fedsgt\n", methods) == METHOD_FEDSGT
        assert method_name("FEDCIO", iter(methods)) == METHOD_FEDCIO
        with pytest.raises(ValueError, match=re.escape(
                "unknown method 'FedAvg'; expected one of ('FedSGT', 'FedCIO')")):
            method_name("FedAvg", methods)

    def test_the_remaining_stream_key_names_the_method(self):
        # The stream key keeps 1 for FedSGT and 2 for FedCIO, however the
        # method is spelled, so the estimates keep their bytes.
        for spelling in ("FedSGT", " fedsgt "):
            assert (mc_expected_remaining(spelling, 100, 4, 3, _MC)
                    == mc_expected_remaining("FedSGT", 100, 4, 3, _MC))
        a = mc_expected_remaining("fedcio", 100, 4, 3, MCConfig(trials=200))
        b = mc_expected_remaining("FedSGT", 100, 4, 3, MCConfig(trials=200))
        assert a != b

    def test_required_int(self):
        errors = []
        doc = {"a": 3, "b": 2.0, "c": -1}
        assert [required_int(errors, doc, key, 0, f"x.{key}")
                for key in "abcd"] == [3, None, None, None]
        assert errors == ["x.b: expected an integer, got 2.0",
                          "x.c: must be >= 0, got -1", "x.d: required"]


@pytest.mark.parametrize("key, value, error", [
    ("experiment", "", "experiment: expected a nonempty string, got ''"),
    ("experiment", None, "experiment: expected a nonempty string, got None"),
    ("out", "", "out: expected a nonempty string or null, got ''"),
    ("out", ["run"], "out: expected a nonempty string or null, got ['run']"),
])
def test_string_fields(key, value, error):
    assert errors_of({key: value}) == [error]


@pytest.mark.parametrize("doc, errors", [
    ({}, ["dataset.path: expected a nonempty string, got None",
          "dataset.manifest: expected a nonempty string, got None"]),
    ({"path": "", "manifest": 7},
     ["dataset.path: expected a nonempty string, got ''",
      "dataset.manifest: expected a nonempty string, got 7"]),
    ({"path": "d.csv", "manifest": "d.json", "dim": 3},
     ["dataset.dim: unknown key"]),
])
def test_csv_paths_are_string_fields(doc, errors):
    assert errors_of({"dataset": {"kind": "csv", **doc}}) == errors


def test_strategy_is_read_in_any_case():
    assert validate_config({"strategy": "LongSeq"}).strategy == "longseq"
    assert errors_of({"strategy": 3}) == [
        f"strategy: expected one of {STRATEGIES}, got 3"]
