"""The benchmark harness reads fedsgt by name: ``perfbench/tracing.py`` wraps
the functions it lists, its observers read the wrapped calls' arguments by
parameter name, and the workloads call module attributes, some with keyword
arguments. Every such name and keyword must still exist, or a benchmark run
fails where no test looks."""

import ast
import importlib
import importlib.util
import inspect
import json
import math
import textwrap
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fedsgt_imports(tree: ast.AST) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """What the source's imports from fedsgt bind: each local name of a
    module (``from fedsgt import <module>``) to the module, and each local
    name of any other fedsgt name to its ``(module, name)``."""
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "fedsgt"):
            continue
        for alias in node.names:
            full = f"{node.module}.{alias.name}"
            if node.module == "fedsgt" and importlib.util.find_spec(full):
                modules[alias.asname or alias.name] = full
            else:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return modules, names


def fedsgt_reads(path: Path) -> list[tuple[str, str]]:
    """Every ``(module, name)`` of fedsgt that the source at ``path`` reads:
    names imported from fedsgt or one of its modules, and attributes taken
    of a fedsgt module bound by ``from fedsgt import <module>``."""
    tree = ast.parse(path.read_text())
    modules, names = fedsgt_imports(tree)
    reads = list(names.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.append((modules[node.value.id], node.attr))
    return reads


def fedsgt_keywords(path: Path) -> set[tuple[str, str, str]]:
    """Every ``(module, name, keyword)`` where the source at ``path`` calls
    the fedsgt callable ``module.name`` with the explicit keyword argument
    ``keyword`` (``**kwargs`` are not followed)."""
    tree = ast.parse(path.read_text())
    modules, names = fedsgt_imports(tree)
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            target = names[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in modules):
            target = (modules[func.value.id], func.attr)
        else:
            continue
        found |= {(*target, kw.arg) for kw in node.keywords if kw.arg is not None}
    return found


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_traced_functions_exist(table):
    pairs = getattr(load_tracing(), table)
    assert pairs
    missing = [f"{module}.{name}" for module, name in pairs
               if not hasattr(importlib.import_module(f"fedsgt.{module}"), name)]
    assert not missing, missing


@pytest.mark.parametrize("source", ["workloads.py", "tracing.py"])
def test_harness_reads_only_existing_names(source):
    reads = fedsgt_reads(PERFBENCH / source)
    assert reads
    missing = [f"{module}.{name}" for module, name in reads
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, missing


# Keyword calls the workloads made when this test was written; the walk
# must find at least these, so that it cannot silently find nothing.
KEYWORDS = {
    ("fedsgt.fltrain", "TrainConfig", "epochs"),
    ("fedsgt.fltrain", "TrainConfig", "seed"),
    ("fedsgt.unlearn", "uniform_requests", "record_count"),
    ("fedsgt.unlearn", "fedretrain_simulate", "eval_every"),
    ("fedsgt.unlearn", "fedretrain_simulate", "rounds"),
    ("fedsgt.montecarlo", "mc_expected_span", "workers"),
}


@pytest.mark.parametrize("source", ["workloads.py", "tracing.py"])
def test_harness_keywords_are_parameters(source):
    # A keyword the callable does not take is a TypeError in every
    # benchmark run of the workload that makes the call.
    calls = fedsgt_keywords(PERFBENCH / source)
    if source == "workloads.py":
        assert KEYWORDS <= calls
    missing = []
    for module, name, keyword in sorted(calls):
        params = inspect.signature(
            getattr(importlib.import_module(module), name)).parameters
        if keyword not in params and not any(
                p.kind is p.VAR_KEYWORD for p in params.values()):
            missing.append(f"{module}.{name}({keyword}=)")
    assert not missing, missing


def observer_reads(observer) -> set[str]:
    """The argument names an observer looks up in the bound arguments it is
    given as its second parameter."""
    node = ast.parse(textwrap.dedent(inspect.getsource(observer))).body[0]
    args = node.args.args[1].arg
    return {sub.slice.value for sub in ast.walk(node)
            if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
            and sub.value.id == args and isinstance(sub.slice, ast.Constant)}


# What the observers read when this test was written; the walk above must
# find at least these, so that it cannot silently find nothing.
OBSERVED = {
    "fltrain.federated_round": {"active", "data", "cfg", "cost_modules"},
    "fltrain.evaluate": {"model", "strategy", "state"},
    "unlearn.exactness_audit": {"model", "deleted"},
    "bank.write_bank": {"path"},
}


def test_observers_bind_existing_parameters():
    # The recorder binds each traced call's arguments to the function's
    # signature and hands them to the observer, which reads them by name;
    # a renamed parameter is a KeyError in every benchmark run.
    observers = load_tracing().OBSERVERS
    reads = {name: observer_reads(observer) for name, observer in observers.items()}
    for name, names in OBSERVED.items():
        assert names <= reads[name], name
    missing = []
    for name, names in reads.items():
        module, func = name.split(".")
        params = inspect.signature(
            getattr(importlib.import_module(f"fedsgt.{module}"), func)).parameters
        missing += [f"{name}({arg})" for arg in sorted(names - set(params))]
    assert not missing, missing


def test_reference_round_counts(monkeypatch):
    # The harness's reference check counts the calls of
    # fltrain.federated_round that train_fedsgt makes at the acceptance
    # point (seed 0), and the participants and mini-batch steps of those
    # calls, against reference.json; a training loop that steps rounds
    # another way fails every benchmark run.
    from fedsgt import fltrain
    from fedsgt.dataset import synth_dataset
    from fedsgt.grouping import build_grouping
    from fedsgt.sequencing import build_sequences

    want = json.loads((PERFBENCH / "reference.json").read_text())
    want = want["accept_seed0"]["counts"]
    assert (want["rounds"], want["participants"], want["minibatch_steps"]) == \
        (100, 869, 11_550)
    counts = {"rounds": 0, "participants": 0, "minibatch_steps": 0}
    federated_round = fltrain.federated_round

    def counted(active, frozen, data, cfg, *args, **kwargs):
        counts["rounds"] += 1
        counts["participants"] += len(data)
        counts["minibatch_steps"] += cfg.epochs * sum(
            math.ceil(len(y) / cfg.batch_size) for _, y in data.values())
        return federated_round(active, frozen, data, cfg, *args, **kwargs)

    monkeypatch.setattr(fltrain, "federated_round", counted)
    ds = synth_dataset(clients=10, samples_per_client=200, dim=20, classes=5,
                       slices_per_client=5, test_samples=500, alpha=0.3, seed=0)
    plan = build_grouping(ds.slice_catalog(), 10, 0)
    seqs = build_sequences(10, 10, 0)
    cfg = fltrain.TrainConfig(epochs=3, lr=0.1, batch_size=32, seed=0)
    fltrain.train_fedsgt(ds, plan, seqs, cfg)
    assert counts == {key: want[key] for key in counts}
