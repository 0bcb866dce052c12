"""The benchmark harness reads fedsgt by name: ``perfbench/tracing.py`` wraps
the functions it lists, and the workloads call module attributes. Every such
name must still exist, or a traced benchmark run fails where no test looks."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fedsgt_reads(path: Path) -> list[tuple[str, str]]:
    """Every ``(module, name)`` of fedsgt that the source at ``path`` reads:
    names imported from fedsgt or one of its modules, and attributes taken
    of a fedsgt module bound by ``from fedsgt import <module>``."""
    tree = ast.parse(path.read_text())
    modules: dict[str, str] = {}
    reads = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "fedsgt"):
            continue
        for alias in node.names:
            full = f"{node.module}.{alias.name}"
            if node.module == "fedsgt" and importlib.util.find_spec(full):
                modules[alias.asname or alias.name] = full
            else:
                reads.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.append((modules[node.value.id], node.attr))
    return reads


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
