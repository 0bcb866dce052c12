"""Span recorder that times the fedsgt layers from outside the package.

``Recorder.install()`` replaces each traced public function with a wrapper
in every ``fedsgt`` namespace that holds it, because the modules import one
another's functions by name (``unlearn.train_sequence``,
``analytics.binomial``, ``montecarlo.cyclic_span``, ``cli.cmd_analyze``...).
``uninstall()`` puts the originals back.

A span is (name, start, end, parent span). Spans live in flat arrays in
memory and are written out once, when the run ends. Functions that run
millions of times per pass, and calls made from Monte Carlo worker threads,
are counted but not spanned. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np
from fedsgt.sequencing import state_from_deleted

# (module, function) pairs that get a span per call.
SPANNED = (
    ("dataset", "synth_dataset"),
    ("grouping", "build_grouping"),
    ("sequencing", "build_sequences"),
    ("sequencing", "apply_deletion"),
    ("sequencing", "select_allseq"),
    ("sequencing", "select_minseq"),
    ("sequencing", "select_longseq"),
    ("fltrain", "train_fedsgt"),
    ("fltrain", "train_sequence"),
    ("fltrain", "federated_round"),
    ("fltrain", "fedavg_train"),
    ("fltrain", "matrix_accuracy"),
    ("fltrain", "evaluate"),
    ("fltrain", "predict_proba"),
    ("fltrain", "sequence_logits"),
    ("bank", "write_bank"),
    ("bank", "read_bank"),
    ("unlearn", "process_request"),
    ("unlearn", "exactness_audit"),
    ("unlearn", "train_clusters"),
    ("unlearn", "fedcio_simulate"),
    ("unlearn", "fedretrain_simulate"),
    ("montecarlo", "validation_grid"),
    ("montecarlo", "mc_deletion_rate_fedsgt"),
    ("montecarlo", "mc_deletion_rate_fedcio"),
    ("montecarlo", "mc_expected_span"),
    ("montecarlo", "mc_expected_remaining"),
    ("montecarlo", "mc_comm_cost"),
    ("analytics", "expected_remaining_fedsgt"),
    ("analytics", "expected_span"),
    ("analytics", "prob_max_gap_le"),
    ("analytics", "expected_comm_cost"),
    ("cli", "cmd_analyze"),
    ("cli", "cmd_validate"),
)

# Called too often (or from worker threads) for a span each: calls only.
COUNTED = (
    ("analytics", "prob_m_distinct"),
    ("combinatorics", "stirling2"),
    ("combinatorics", "binomial"),
    ("sequencing", "cyclic_span"),
)


class Recorder:
    """In-memory spans and counters for one traced run. Spans are recorded
    on the thread that installed the recorder; other threads only count."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack: list[int] = []
        self._calls: dict[str, itertools.count] = {}
        self.values: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        self.states: set = set()
        self.modules: set = set()

    # -- counters -----------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.values[key] = self.values.get(key, 0) + amount

    def calls(self, name: str) -> int:
        counter = self._calls.get(name)
        # itertools.count.__next__ is atomic under the GIL, so worker
        # threads count without a lock; its repr is "count(<next value>)".
        return 0 if counter is None else int(repr(counter)[len("count("):-1])

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, name: str, fn, observe):
        nid = self._name_id(name)
        signature = inspect.signature(fn)
        counter = self._calls.setdefault(name, itertools.count())
        names, parents = self.name_col, self.parent_col
        starts, ends, stack = self.start_col, self.end_col, self._stack
        home = self._thread
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            if threading.get_ident() != home:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counter = self._calls.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> "Recorder":
        """Wrap every traced function in every fedsgt namespace."""
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "fedsgt" or key.startswith("fedsgt.")]
        targets = [(m, f, True) for m, f in SPANNED] + \
                  [(m, f, False) for m, f in COUNTED]
        for module, func, spanned in targets:
            original = getattr(sys.modules[f"fedsgt.{module}"], func)
            name = f"{module}.{func}"
            if spanned:
                wrapped = self._spanned(name, original, OBSERVERS.get(name))
            else:
                wrapped = self._counted(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, attr, original))
                        setattr(ns, attr, wrapped)
        return self

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ------------------------------------------------------------

    def _arrays(self):
        return (np.array(self.name_col, dtype=np.int32),
                np.array(self.parent_col, dtype=np.int32),
                np.array(self.start_col, dtype=np.float64),
                np.array(self.end_col, dtype=np.float64))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive seconds and self seconds."""
        name, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        self_total = np.bincount(name, weights=own, minlength=len(self.names))
        out = {}
        for module, func in SPANNED + COUNTED:
            key = f"{module}.{func}"
            nid = self._ids.get(key)
            out[key] = {
                "calls": self.calls(key),
                "s": float(total[nid]) if nid is not None else 0.0,
                "self_s": float(self_total[nid]) if nid is not None else 0.0,
            }
        return out

    def write(self, path: Path) -> None:
        name, parent, start, end = self._arrays()
        origin = float(start.min()) if len(start) else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start - origin,
                            end=end - origin)


# ---------------------------------------------------------------------------
# Observers: exact counts taken at the layer boundary from a call's
# arguments (bound by name) and result.
# ---------------------------------------------------------------------------


def _observe_round(rec: Recorder, a: dict, result) -> None:
    data, cfg = a["data"], a["cfg"]
    rec.add("participants", len(data))
    rec.add("minibatch_steps", cfg.epochs * sum(
        math.ceil(len(y) / cfg.batch_size) for _, y in data.values()))
    # What CostMeter.charge books for the round: samples * params * modules
    # * epochs, summed over participants.
    rec.add("updates", sum(len(y) for _, y in data.values())
            * a["active"].size * a["cost_modules"] * cfg.epochs)


def _observe_evaluate(rec: Recorder, a: dict, result) -> None:
    rec.states.add((id(a["model"]), a["strategy"], a["state"].deleted))


def _observe_audit(rec: Recorder, a: dict, result) -> None:
    model = a["model"]
    state = state_from_deleted(model.sequences, a["deleted"])
    for sid, active in enumerate(state.active_len):
        for p in range(active):
            rec.modules.add((id(model), sid, p))
    rec.add("modules_checked", result.modules_checked)


def _observe_write_bank(rec: Recorder, a: dict, result) -> None:
    rec.add("bank_bytes", Path(a["path"]).stat().st_size)


def _observe_mc(rec: Recorder, a: dict, result) -> None:
    rec.add("mc_trials", result.trials)


OBSERVERS = {
    "fltrain.federated_round": _observe_round,
    "fltrain.evaluate": _observe_evaluate,
    "unlearn.exactness_audit": _observe_audit,
    "bank.write_bank": _observe_write_bank,
    **{f"montecarlo.{name}": _observe_mc for name in (
        "mc_deletion_rate_fedsgt", "mc_deletion_rate_fedcio",
        "mc_expected_span", "mc_expected_remaining", "mc_comm_cost")},
}


def _span(key: str, field: str):
    return lambda summary, rec: summary[key][field]


def _value(key: str):
    return lambda summary, rec: rec.values.get(key, 0)


def _distinct_states(summary, rec) -> float:
    calls = summary["fltrain.evaluate"]["calls"]
    return len(rec.states) / calls if calls else 0.0


def _distinct_modules(summary, rec) -> float:
    checked = rec.values.get("modules_checked", 0)
    return len(rec.modules) / checked if checked else 0.0


# (metric, unit, function of (summary, recorder)) in report order.
PER_LAYER = [
    ("dataset.synth_dataset.s", "s", _span("dataset.synth_dataset", "s")),
    ("grouping.build_grouping.s", "s", _span("grouping.build_grouping", "s")),
    ("sequencing.build_sequences.s", "s", _span("sequencing.build_sequences", "s")),
    ("fltrain.train_fedsgt.s", "s", _span("fltrain.train_fedsgt", "s")),
    ("fltrain.train_sequence.calls", "count", _span("fltrain.train_sequence", "calls")),
    ("fltrain.train_sequence.self_s", "s", _span("fltrain.train_sequence", "self_s")),
    ("fltrain.federated_round.calls", "count", _span("fltrain.federated_round", "calls")),
    ("fltrain.federated_round.self_s", "s", _span("fltrain.federated_round", "self_s")),
    ("fltrain.federated_round.participants", "count", _value("participants")),
    ("fltrain.minibatch_steps", "count", _value("minibatch_steps")),
    ("fltrain.updates", "count", _value("updates")),
    ("fltrain.fedavg_train.s", "s", _span("fltrain.fedavg_train", "s")),
    ("fltrain.matrix_accuracy.self_s", "s", _span("fltrain.matrix_accuracy", "self_s")),
    ("fltrain.evaluate.calls", "count", _span("fltrain.evaluate", "calls")),
    ("fltrain.evaluate.self_s", "s", _span("fltrain.evaluate", "self_s")),
    ("fltrain.predict_proba.self_s", "s", _span("fltrain.predict_proba", "self_s")),
    ("fltrain.sequence_logits.calls", "count", _span("fltrain.sequence_logits", "calls")),
    ("fltrain.sequence_logits.self_s", "s", _span("fltrain.sequence_logits", "self_s")),
    ("sequencing.apply_deletion.calls", "count", _span("sequencing.apply_deletion", "calls")),
    ("sequencing.apply_deletion.self_s", "s", _span("sequencing.apply_deletion", "self_s")),
    ("sequencing.select_allseq.self_s", "s", _span("sequencing.select_allseq", "self_s")),
    ("sequencing.select_minseq.self_s", "s", _span("sequencing.select_minseq", "self_s")),
    ("sequencing.select_longseq.self_s", "s", _span("sequencing.select_longseq", "self_s")),
    ("sequencing.cyclic_span.calls", "count", _span("sequencing.cyclic_span", "calls")),
    ("bank.write_bank.s", "s", _span("bank.write_bank", "s")),
    ("bank.read_bank.s", "s", _span("bank.read_bank", "s")),
    ("bank.bytes", "bytes", _value("bank_bytes")),
    ("unlearn.process_request.calls", "count", _span("unlearn.process_request", "calls")),
    ("unlearn.process_request.self_s", "s", _span("unlearn.process_request", "self_s")),
    ("unlearn.utility.distinct_state_ratio", "ratio", _distinct_states),
    ("unlearn.exactness_audit.calls", "count", _span("unlearn.exactness_audit", "calls")),
    ("unlearn.exactness_audit.s", "s", _span("unlearn.exactness_audit", "s")),
    ("unlearn.audit.modules_checked", "count", _value("modules_checked")),
    ("unlearn.audit.distinct_module_ratio", "ratio", _distinct_modules),
    ("unlearn.train_clusters.s", "s", _span("unlearn.train_clusters", "s")),
    ("unlearn.fedcio_simulate.s", "s", _span("unlearn.fedcio_simulate", "s")),
    ("unlearn.fedretrain_simulate.s", "s", _span("unlearn.fedretrain_simulate", "s")),
    *((f"montecarlo.{f}.s", "s", _span(f"montecarlo.{f}", "s")) for f in (
        "validation_grid", "mc_deletion_rate_fedsgt", "mc_deletion_rate_fedcio",
        "mc_expected_span", "mc_expected_remaining", "mc_comm_cost")),
    ("montecarlo.trials", "count", _value("mc_trials")),
    *((f"analytics.{f}.{field}", unit, _span(f"analytics.{f}", field))
      for f in ("expected_remaining_fedsgt", "expected_span", "prob_max_gap_le")
      for field, unit in (("calls", "count"), ("self_s", "s"))),
    ("analytics.prob_m_distinct.calls", "count", _span("analytics.prob_m_distinct", "calls")),
    ("analytics.expected_comm_cost.s", "s", _span("analytics.expected_comm_cost", "s")),
    ("combinatorics.stirling2.calls", "count", _span("combinatorics.stirling2", "calls")),
    ("combinatorics.binomial.calls", "count", _span("combinatorics.binomial", "calls")),
    ("cli.cmd_analyze.self_s", "s", _span("cli.cmd_analyze", "self_s")),
    ("cli.cmd_validate.self_s", "s", _span("cli.cmd_validate", "self_s")),
]


def per_layer(rec: Recorder) -> dict[str, tuple[float, str]]:
    summary = rec.summary()
    return {name: (get(summary, rec), unit) for name, unit, get in PER_LAYER}
