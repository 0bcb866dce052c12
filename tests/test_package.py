"""The package root re-exports nothing, and every module imports on its
own: a public name has exactly one import path, its defining module. The
pure-Python modules import without numpy, and every module reads every name
it imports."""

import ast
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fedsgt

SRC = str(Path(fedsgt.__file__).resolve().parents[1])
MODULES = sorted(m.name for m in pkgutil.iter_modules(fedsgt.__path__)
                 if m.name != "__main__")


def test_root_defines_only_version_and_submodules():
    public = {name: value for name, value in vars(fedsgt).items()
              if not name.startswith("_")}
    assert {name for name, value in public.items()
            if not (isinstance(value, types.ModuleType)
                    and value.__name__ == f"fedsgt.{name}")} == set()
    assert isinstance(fedsgt.__version__, str)


def test_version_matches_pyproject():
    # The version is written in two places; this keeps them in step.
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
    declared = re.search(r'^version\s*=\s*"([^"]+)"', pyproject, re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == fedsgt.__version__


def fresh_interpreter(code: str) -> str:
    """What ``code`` prints when run in a new interpreter; it must succeed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    fresh_interpreter(f"import fedsgt.{module}")


@pytest.mark.parametrize("module", ["core", "analytics", "combinatorics",
                                    "grouping", "sequencing"])
def test_pure_modules_import_without_numpy(module):
    # The closed forms, the grouping plan and the sequence bookkeeping are
    # pure Python; only a keyed stream's draw needs numpy.
    assert fresh_interpreter(f"import sys, fedsgt.{module}; "
                             f"print('numpy' in sys.modules)") == "False\n"


def test_modules_found():
    assert {"core", "cli"} <= set(MODULES)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement of ``tree`` binds, with its line;
    ``from __future__`` imports bind nothing."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def read_names(tree: ast.Module) -> set[str]:
    """Every name ``tree`` reads, in code and in annotations; a quoted
    annotation is parsed for the names it reads too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        for child in (getattr(node, "annotation", None),
                      getattr(node, "returns", None)):
            if isinstance(child, ast.Constant) and isinstance(child.value, str):
                names |= read_names(ast.parse(child.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", sorted(Path(SRC, "fedsgt").glob("*.py")),
                         ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = {name: line for name, line in imported_names(tree).items()
              if name not in read_names(tree)}
    assert unread == {}, f"{path.name} imports names it never reads"


# ``core`` declares the config field and the positive-number rule that the
# trainer and request types share; every other private name stays private
# to its module.
SHARED_PRIVATE = {("core", "_count"), ("core", "_positive_number")}


def private_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """Each (module, name) of another package module's ``_``-prefixed name
    that ``tree`` reads: imported from that module, or read as an attribute
    of the module imported whole. Dunder names are not private."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif private(alias.name):
                    reads.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            reads.add((modules[node.value.id], node.attr))
    return reads


@pytest.mark.parametrize("path", sorted(Path(SRC, "fedsgt").glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_reads_another_modules_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert private_reads(tree) - SHARED_PRIVATE == set()



README = (Path(SRC).parent / "README.md").read_text()

# Top-level definitions with no reader in src/, demos/ or README's
# documented API, each with the reason it stays.
UNREAD_ALLOWED = {
    "combinatorics.stirling2": "perfbench's tracer counts its calls "
                               "(ROADMAP item 4 frees the name, item 7 moves "
                               "it into its test)",
    "fltrain.fedavg_train": "perfbench's tracer times it (item 4 frees the "
                            "name, item 7 deletes it)",
    **{f"montecarlo.{name}": "perfbench's tracer times it, and its mc "
                             "workload calls the span and FedSGT-rate "
                             "estimators (item 4)"
       for name in ("mc_comm_cost", "mc_deletion_rate_fedcio",
                    "mc_deletion_rate_fedsgt", "mc_expected_span")},
    "unlearn.race_failure_steps": "only tests read it until validate does "
                                  "(item 17)",
}


def top_level_definitions(tree: ast.Module) -> set[str]:
    """The functions, classes and assigned names ``tree`` defines at module
    level; dunder names are the interpreter's."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def code_reads(paths) -> set[str]:
    """Every name the code of ``paths`` reads, bare or as an attribute;
    docstrings and comments are not code."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def documented_api() -> set[str]:
    """The names README documents as inline code above its release notes:
    ``name``, ``module.name`` or a call ``name(...)``."""
    current = README.split("\n## Changes by version\n", 1)[0]
    return {found.group(1) for span in re.findall(r"`([^`\n]+)`", current)
            if (found := re.fullmatch(r"(?:\w+\.)?(\w+)(?:\(.*\))?", span))}


def test_every_definition_is_read():
    root = Path(SRC).parent
    sources = sorted(Path(SRC, "fedsgt").glob("*.py"))
    readers = (code_reads([*sources, *root.glob("demos/*.py")])
               | documented_api())
    unread = {f"{path.stem}.{name}" for path in sources
              for name in top_level_definitions(ast.parse(path.read_text()))
              if name not in readers}
    assert unread == set(UNREAD_ALLOWED)
