"""Files written by an earlier version still load, and today's code writes
the same bytes from them.

``corpus/0.14.0/`` is a complete tiny run written by version 0.14.0: 2
clients x 3 slices x 30 samples, L = B = 3, d = 2, k = 2, 20 test samples
and 2 clusters. Its inputs are ``config.json`` and ``requests.json``; each
other directory holds what one command wrote, run from the corpus directory
with relative paths:

    fedsgt train    --config config.json --out train
    fedsgt unlearn  --bank train/bank.fsgt --requests-file requests.json --audit --out unlearn
    fedsgt compare  --config config.json --out compare
    fedsgt analyze  --groups 3 --budget 3 --clusters 2 --data-size 60 \\
                    --slices-per-client 3 --max-requests 5 --out analyze
    fedsgt validate --trials 2000 --seed 0 --out validate

The stored bank and manifests are fed to today's commands. The plan,
``final_state.json``, the ``analyze`` tables and ``validation.csv`` are
pure Python or keyed draws, so their bytes are compared on every host. The
bank, the timelines and what reads the served utility come from numpy's
and OpenBLAS's kernels, whose low bits depend on the SIMD path (ROADMAP
item 6); the corpus was written on an AVX-512 host, so they are compared
there only.

A change that alters a stored byte or stops loading a stored input adds a
corpus for its new version and keeps this one's loading test, or says which
file no longer loads and why.
"""

import json
from pathlib import Path

import pytest
from test_reference import has_avx512

from fedsgt.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus" / "0.14.0"
SAME_KERNELS = has_avx512()


def run(*argv) -> int:
    return main([str(a) for a in argv])


def flags(command: str) -> list[str]:
    """The flags a stored ``analyze`` or ``validate`` manifest records, as
    an argument list without ``--out``."""
    config = json.loads((CORPUS / command / "manifest.json").read_text())["config"]
    return [arg for key, value in config.items() if key != "out"
            for arg in (f"--{key.replace('_', '-')}", str(value))]


def assert_same(out: Path, command: str, *names: str) -> None:
    for name in names:
        assert (out / name).read_bytes() == (CORPUS / command / name).read_bytes(), \
            f"{command}/{name}"


def test_corpus_is_complete():
    assert sorted(str(p.relative_to(CORPUS)) for p in CORPUS.rglob("*")
                  if p.is_file()) == sorted([
        "config.json", "requests.json",
        *(f"train/{n}" for n in ("bank.fsgt", "plan.json", "manifest.json",
                                 "training_report.csv", "training_report.json")),
        *(f"unlearn/{n}" for n in ("timeline.csv", "summary.json",
                                   "final_state.json", "manifest.json")),
        *(f"compare/{n}" for n in ("timeline.csv", "compare.json", "manifest.json")),
        *(f"analyze/{n}" for n in ("deletion_rates.csv", "remaining_curve.csv",
                                   "comm_cost.csv", "training_cost.csv",
                                   "analyze.json", "manifest.json")),
        *(f"validate/{n}" for n in ("validation.csv", "validation.json",
                                    "manifest.json"))])


def test_stored_manifest_trains_the_stored_run(tmp_path):
    assert run("train", "--config", CORPUS / "train" / "manifest.json",
               "--out", tmp_path) == 0
    assert_same(tmp_path, "train", "plan.json")
    if SAME_KERNELS:
        assert_same(tmp_path, "train", "bank.fsgt", "training_report.csv",
                    "training_report.json")


def test_stored_bank_and_manifest_serve_the_stored_stream(tmp_path):
    # The stored bank, manifest and requests file load and pass the serving
    # system's consistency check. Elsewhere the audit retrains other bytes
    # and exits 5, but the deletion state does not depend on them.
    code = run("unlearn", "--bank", CORPUS / "train" / "bank.fsgt",
               "--manifest", CORPUS / "train" / "manifest.json",
               "--requests-file", CORPUS / "requests.json", "--audit",
               "--out", tmp_path)
    assert code in ((0,) if SAME_KERNELS else (0, 5))
    assert_same(tmp_path, "unlearn", "final_state.json")
    if SAME_KERNELS:
        assert_same(tmp_path, "unlearn", "timeline.csv", "summary.json")


@pytest.mark.skipif(not SAME_KERNELS, reason="the stored timelines were "
                    "written on an AVX-512 host (ROADMAP item 6)")
def test_stored_config_compares_as_stored(tmp_path):
    assert run("compare", "--config", CORPUS / "config.json",
               "--out", tmp_path) == 0
    assert_same(tmp_path, "compare", "timeline.csv", "compare.json")


def test_stored_flags_analyze_as_stored(tmp_path):
    assert run("analyze", *flags("analyze"), "--out", tmp_path) == 0
    assert_same(tmp_path, "analyze", "deletion_rates.csv", "remaining_curve.csv",
                "comm_cost.csv", "training_cost.csv", "analyze.json")


def test_stored_flags_validate_as_stored(tmp_path):
    assert run("validate", *flags("validate"), "--out", tmp_path) == 0
    assert_same(tmp_path, "validate", "validation.csv")
