"""Spans and counts around the public functions of each sensopt module.

The program binds names with `from .x import y`, so a wrapper replaces the
function in every sensopt module that holds it. Each wrapped call records a
span (layer, start, end, parent span) in flat in-memory arrays; counts that
need the arguments (rows, flops, bytes, distinct assignments) are taken at
the same boundary. A layer's self time is its spans' durations minus the
part their child spans cover. Nothing here changes what a function returns.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _forward_counts(counts, model, inputs):
    rows = np.shape(inputs)[0]
    counts["nn.forward_rows"] += rows
    counts["nn.forward_flops"] += 2 * rows * sum(
        layer.input_dim * layer.output_dim for layer in model.layers)


def _train_counts(counts, model, X, Y, cfg):
    counts["nn.sgd_steps"] += cfg.epochs * math.ceil(len(X) / cfg.batch_size)


def _clone_counts(counts, reference, assignment):
    counts["sensitivity.clone_bytes"] += reference.features.nbytes


# (module, attribute, layer, kind, count hook). Kind "call" records a span
# per call, "generator" a span per item drawn.
WRAPPED = (
    ("data", "generate_synthetic", "data.generate", "call", None),
    ("data", "load_csv", "data.load_csv", "call", None),
    ("cli", "prepare_data", "cli.prepare_data", "call", None),
    ("cli", "write_json", "cli.write", "call", None),
    ("nn", "save_model", "cli.write", "call", None),
    ("surrogate", "save_surrogate", "cli.write", "call", None),
    ("search", "write_trace_csv", "cli.write", "call", None),
    ("nn", "train", "nn.train", "call", _train_counts),
    ("nn", "forward", "nn.forward", "call", _forward_counts),
    ("sensitivity", "clone_and_fix", "sensitivity.clone", "call", _clone_counts),
    ("sensitivity", "validate_assignment", "sensitivity.validate", "call", None),
    ("sensitivity", "sensitivity_from_predictions", "sensitivity.moments",
     "call", None),
    ("search", "run_search", "search.run_search", "call", None),
    ("search", "expand", "search.expand", "call", None),
    ("search", "prune", "search.prune", "call", None),
    ("search", "top_feature_report", "search.top_features", "call", None),
    ("surrogate", "build_distillation_set", "surrogate.sample", "call", None),
    ("surrogate", "train_surrogate", "surrogate.fit", "call", None),
    ("surrogate", "encode", "surrogate.encode", "call", None),
    ("surrogate", "predict_sensitivity", "surrogate.predict", "call", None),
    ("baseline", "brute_force", "baseline.brute_force", "call", None),
    ("baseline", "sequential_dp", "baseline.sequential", "call", None),
    ("baseline", "enumerate_assignments", "baseline.enumerate", "generator", None),
)

class Tracer:
    def __init__(self):
        self.layers: list = []
        self.layer_ids: dict = {}
        self.layer = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list = []
        self.counts: Counter = Counter()
        self.keys: set = set()  # assignments scored by the current command
        self.patches: list = []

    def _open(self, layer_id: int) -> int:
        i = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layer_ids:
            self.layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self.layer_ids[layer]

    def _wrap(self, fn, layer: str, kind: str, hook):
        layer_id = self._layer_id(layer)
        counts = self.counts

        if kind == "generator":
            def wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    i = self._open(layer_id)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                if hook is not None:
                    hook(counts, *args, **kwargs)
                i = self._open(layer_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(i)
        return functools.wraps(fn)(wrapper)

    def _patch(self, owner, attr: str, replacement):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every listed function wherever a sensopt module binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "sensopt" or name.startswith("sensopt.")]
        for module, attr, layer, kind, hook in WRAPPED:
            original = getattr(sys.modules[f"sensopt.{module}"], attr)
            wrapped = self._wrap(original, layer, kind, hook)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patch(m, attr, wrapped)

        search = sys.modules["sensopt.search"]
        keys = self.keys

        def note_key(counts, scorer, assignment):
            keys.add(assignment.key)
        self._patch(search.Scorer, "score",
                    self._wrap(search.Scorer.score, "search.score", "call",
                               note_key))

        counts = self.counts
        baseline = sys.modules["sensopt.baseline"]
        lambda_of = baseline.lambda_of

        @functools.wraps(lambda_of)
        def counted_lambda_of(*args, **kwargs):
            counts["baseline.evaluations"] += 1
            return lambda_of(*args, **kwargs)
        self._patch(baseline, "lambda_of", counted_lambda_of)

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def end_command(self):
        """Distinct assignments are counted per CLI command, since each
        command is its own process in normal use."""
        self.counts["search.unique_assignments"] += len(self.keys)
        self.keys.clear()

    def self_times(self) -> tuple:
        """(calls, self seconds) per layer, from the recorded spans."""
        layer = np.frombuffer(self.layer, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.int64)
                    - np.frombuffer(self.start, dtype=np.int64))
        parent = np.frombuffer(self.parent, dtype=np.int32)
        covered = np.zeros(len(layer), dtype=np.int64)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        own = duration - covered
        calls, seconds = Counter(), Counter()
        for layer_id, name in enumerate(self.layers):
            mine = layer == layer_id
            calls[name] = int(mine.sum())
            seconds[name] = float(own[mine].sum()) / 1e9
        return calls, seconds

    def metrics(self, spec: list, overhead_s: float) -> dict:
        """Values for the per-layer metrics named in `spec`: counts, calls
        (`<layer>_calls`) and self seconds (`<layer>_s`)."""
        calls, seconds = self.self_times()
        values = dict(self.counts)
        values["search.unique_share"] = (values["search.unique_assignments"]
                                         / max(calls["search.score"], 1))
        values["trace.overhead_s"] = overhead_s
        out = {}
        for metric in spec:
            name = metric["name"]
            if name.endswith("_calls"):
                value = calls[name[: -len("_calls")]]
            elif name in values:
                value = values[name]
            else:
                value = seconds[name[: -len("_s")]]
            out[name] = {"value": value, "unit": metric["unit"]}
        return out

    def save(self, path):
        np.savez_compressed(
            path, layers=np.array(self.layers),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32))
