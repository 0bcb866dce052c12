"""The package root re-exports nothing, and every module imports on its
own: a public name has exactly one import path, its defining module. The
pure-Python modules import without numpy."""

import os
import pkgutil
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
