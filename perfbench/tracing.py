"""Span tracing from outside the package.

The benchmark does not edit sparsekm. Instead it replaces public functions
in the namespaces of the modules that call them (for example
``sparsekm.sparse.run_kmeans`` and ``sparsekm.gap.sparse_kmeans``) with
wrappers that record one span per call: name, start, end, parent, thread
and a few counts read from the call's arguments and return value. Spans
stay in memory until the run ends; ``layer_metrics`` turns them into the
per-layer numbers listed in BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# Worker threads of gap_statistic's pool start with an empty span stack;
# their spans take the innermost open span of this name as their parent.
POOL_ROOT = "gap.gap_statistic"


class Patched:
    """Replace module attributes and put the originals back on exit."""

    def __init__(self):
        self._saved = []

    def set(self, module, name, value):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int            # -1 for a root span
    thread: int
    attrs: dict = field(default_factory=dict)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _kmeans_name(args, kwargs):
    cfg = _arg(args, kwargs, 2, "cfg")
    return "kmeans.run_kmeans_swap" if cfg.refine == "swap" \
        else "kmeans.run_kmeans_plain"


def _kmeans_note(args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    n, p = np.shape(args[0])
    return {"restarts": cfg.restarts, "iters_used": result.iters_used,
            "repairs": result.repairs,
            "input_mb": n * p * 8 * cfg.restarts / 1e6}


def _sparse_note(args, kwargs, result):
    return {"outer_iters": result.outer_iters,
            "converged": int(result.converged)}


def _gap_note(args, kwargs, result):
    b = _arg(args, kwargs, 4, "b", 10)
    return {"cells": result.grid.size * (b + 1),
            "dropped_points": int(np.isnan(result.gap).sum()),
            "threads": _arg(args, kwargs, 6, "threads", 1)}


def _file_note(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (modules whose attribute is replaced, attribute, span name, note).
# Each function is wrapped where its callers look it up, so the spans nest
# the way the calls do.
TRACE_POINTS = (
    (("sparse", "cli"), "run_kmeans", _kmeans_name, _kmeans_note),
    (("gap", "cli"), "sparse_kmeans", "sparse.sparse_kmeans", _sparse_note),
    (("lab",), "l0_kmeans", "sparse.sparse_kmeans", _sparse_note),
    (("sparse",), "l0_weight_update", "sparse.l0_weight_update", None),
    (("sparse",), "l1_weight_update", "sparse.l1_weight_update", None),
    (("cli",), "gap_statistic", "gap.gap_statistic", _gap_note),
    (("gap",), "permute_columns", "gap.permute_columns", None),
    (("cli",), "standardize", "data.standardize", None),
    (("sparse", "cli"), "bcss_per_feature", "data.bcss_per_feature", None),
    (("cli",), "read_csv_matrix", "data.read_csv_matrix", _file_note),
    (("cli",), "write_csv_matrix", "data.write_csv_matrix", _file_note),
    (("cli", "lab"), "generate", "synth.generate", None),
    (("lab",), "run_trial", "lab.run_trial", None),
    (("cli",), "cer", "metrics.cer", None),
    (("cli",), "feature_counts", "metrics.feature_counts", None),
    (("cli",), "cmd_generate", "cli.generate", None),
    (("cli",), "cmd_tune", "cli.tune", None),
    (("cli",), "cmd_evaluate", "cli.evaluate", None),
    (("cli",), "run_experiment_cell", "cli.run_experiment_cell", None),
    (("kmeans", "gap", "synth", "_rng"), "rng_for", "rng.rng_for", None),
)


class Tracer:
    """Records spans for every call through the wrapped functions."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pool_parent = -1

    def wrap(self, fn, name, note=None):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_name = name(args, kwargs) if callable(name) else name
            parent = stack[-1] if stack else self._pool_parent
            sid = next(self._ids)
            stack.append(sid)
            pool_root = span_name == POOL_ROOT
            if pool_root:
                outer_pool, self._pool_parent = self._pool_parent, sid
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if pool_root:
                    self._pool_parent = outer_pool
            attrs = note(args, kwargs, result) if note else {}
            self.spans.append(Span(sid, span_name, start, end, parent,
                                   threading.get_ident(), attrs))
            return result
        return traced

    def install(self, package, patched: Patched) -> None:
        for modules, attr, name, note in TRACE_POINTS:
            for mod_name in modules:
                module = getattr(package, mod_name)
                patched.set(module, attr,
                            self.wrap(getattr(module, attr), name, note))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "thread": s.thread,
                                     **s.attrs}) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, units: int, speed: float) -> dict:
    """Per-unit layer metrics: for every span name its calls, inclusive
    seconds (``.s``) and self seconds (``.self_s``), plus the counts the
    wrappers noted. Self time is a span's duration minus the part of it
    that its child spans cover, so overlapping children on the gap pool
    threads are not subtracted twice. Seconds are summed over threads and
    divided by ``speed``, the machine's slowdown during the run."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    counts, seconds = {}, {}

    def add(table, key, value):
        table[key] = table.get(key, 0.0) + value

    gap_child_s = gap_capacity_s = 0.0
    for s in spans:
        dur = s.end - s.start
        kids = children.get(s.id, ())
        add(counts, f"{s.name}.calls", 1)
        add(seconds, f"{s.name}.s", dur)
        add(seconds, f"{s.name}.self_s", dur - _covered(
            (max(k.start, s.start), min(k.end, s.end)) for k in kids))
        layer = s.name.split(".")[0]
        for key, value in s.attrs.items():
            if key != "threads":
                add(counts, f"{layer}.{key}", value)
        if s.name == POOL_ROOT:
            gap_child_s += sum(k.end - k.start for k in kids
                               if k.name == "sparse.sparse_kmeans")
            gap_capacity_s += dur * s.attrs["threads"]
    out = {key: value / units for key, value in counts.items()}
    out.update({key: value / units / speed for key, value in seconds.items()})
    sparse_calls = counts.get("sparse.sparse_kmeans.calls", 0)
    out["sparse.converged_ratio"] = (counts.get("sparse.converged", 0)
                                     / sparse_calls if sparse_calls else 0.0)
    out["gap.parallel_eff"] = (gap_child_s / gap_capacity_s
                               if gap_capacity_s else 0.0)
    out["data.csv_bytes"] = counts.get("data.bytes", 0.0) / units
    return out
