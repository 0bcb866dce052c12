"""fedsgt benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload accept --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/``; if it
is missing the run exits with code 2 before measuring anything.

``--trace 0`` sets up the workload several times (``setup_s`` is their
interquartile mean), then repeats passes of the workload's operations for ``--seconds``
seconds and reports the end-to-end metrics. ``--trace 1`` sets up once,
runs a fixed pass untraced, again with every layer wrapped in spans, and
untraced once more, and reports the per-layer metrics; its work is fixed, so
its counts are exact. Both modes check every output and exit 1 if any check fails.
The last line of standard output is the JSON result. A fuller record, with
the machine details and digests, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = {"accept": 21, "serve": 3, "mc": 9}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("accept", "serve", "mc"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["threads"] = getattr(handle, symbol)()
                break
    return info


def git_state() -> dict:
    """Revision and dirtiness of the checkout; unknown outside a git
    working tree (git is not asked to look above the checkout)."""
    def git(*cmd: str) -> str | None:
        if not (ROOT / ".git").exists():
            return None
        try:
            done = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"revision": revision or "unknown",
            "dirty": None if status is None else bool(status)}


def environment(args) -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "machine": platform.machine(),
            **git_state(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, args, tally) -> tuple[dict, dict]:
    import workloads
    times = workloads.Timings()
    for _ in range(SETUP_REPEATS[wl.name]):
        times.calibrate()
        t0 = time.perf_counter()
        wl.setup()
        times.add("setup", time.perf_counter() - t0)
        wl.prepare_checks()
    times.calibrate()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < args.seconds:
        wl.run_pass(passes, times, tally)
        passes += 1
    measured = time.perf_counter() - start
    times.calibrate()
    extra = wl.reference(tally)
    stages = wl.stages(times)
    metrics = {"setup_s": (times.center("setup"), "s")}
    for i, value in enumerate(stages, start=1):
        metrics[f"stage{i}_ms"] = (value, "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    named = {"setup_s": (times.center("setup", scaled=False), "s"),
             **wl.named(times),
             "peak_rss_mb": metrics["peak_rss_mb"],
             "error_rate": (tally.failed / max(tally.attempted, 1), "ratio")}
    detail = {"passes": passes, "measured_s": measured,
              "raw_s": dict(times.raw), "calibration_s": dict(times.cal),
              "named_metrics": named, "checks": extra}
    return metrics, detail


def traced(wl, args, tally) -> tuple[dict, dict]:
    import tracing
    import workloads
    rec = tracing.Recorder()
    with rec:
        wl.setup()
    wl.prepare_checks()
    passes = wl.trace_passes
    timings = {False: [], True: []}
    # Untraced, traced, untraced: the overhead is the traced pass minus the
    # mean of the untraced passes on either side of it.
    for tracing_on in (False, True, False):
        times = workloads.Timings()
        t0 = time.perf_counter()
        with rec if tracing_on else contextlib.nullcontext():
            for index in range(passes):
                wl.run_pass(index, times, tally)
        timings[tracing_on].append(time.perf_counter() - t0)
    extra = wl.reference(tally)
    rec.write(RESULTS / f"{wl.name}-seed{args.seed}-spans.npz")
    metrics = tracing.per_layer(rec)
    metrics["montecarlo.max_abs_z"] = (extra.get("worst_abs_z", 0.0), "z")
    untraced = statistics.mean(timings[False])
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (timings[True][0] - untraced, "s")
    return metrics, {"passes": passes, "checks": extra,
                     "spans": len(rec.start_col)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedsgt" / "__init__.py").is_file():
        print(f"benchmark: package source not found at {SRC}/fedsgt",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f"scratch-{args.workload}-{os.getpid()}"
    scratch.mkdir()
    tally = workloads.Tally()
    wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
    try:
        run = traced if args.trace else end_to_end
        metrics, detail = run(wl, args, tally)
    finally:
        for path in sorted(scratch.rglob("*"), reverse=True):
            path.unlink() if path.is_file() else path.rmdir()
        scratch.rmdir()

    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in detail.get("named_metrics", metrics).items():
        print(f"{name:>40} {value:16.6f} {unit}")
    for name, value in detail["checks"].get("counts", {}).items():
        print(f"{'reference seed 0 ' + name:>40} {value:16d} count")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"environment": environment(args), "result": result,
              "problems": tally.problems, **detail}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, default=str) + "\n")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
