"""The README's quick starts run as written, so the documented library calls
and CLI commands cannot drift from the package."""

import json
import re
import shlex
from pathlib import Path

from fedsgt.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(heading: str, language: str) -> str:
    """The first ``language`` code block under the ``## heading`` section."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    found = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert found is not None, (heading, language)
    return found.group(1)


def test_library_quick_start(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(block("Quick start (library)", "python"), "README.md", "exec"),
         {"__name__": "readme"})


def test_cli_quick_start(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(block("Configuration file", "json"))
    commands = [shlex.split(line) for line in
                block("Quick start (CLI)", "sh").splitlines() if line.strip()]
    assert [argv[:2] for argv in commands] == [
        ["fedsgt", name] for name in
        ("analyze", "validate", "train", "unlearn", "compare")]
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    for path in ("analyze-out/analyze.json", "validate-out/validation.csv",
                 "run/bank.fsgt", "run/plan.json", "unlearn-out/summary.json",
                 "compare-out/compare.json"):
        assert (tmp_path / path).is_file(), path
    assert json.loads((tmp_path / "unlearn-out/summary.json").read_text()
                      )["audit"]["passed"] is True
