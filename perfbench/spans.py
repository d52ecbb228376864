"""Span recorder that wraps attnkit's public functions from outside.

The wrappers are installed by name in the namespace where the caller
looks the function up (a module that did `from .matio import
load_json` calls `attnkit.cli.load_json`), so nothing under src/
changes. A span is named after the module that defines the function,
e.g. `matio.load_json`, whichever namespace it was called through.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

from workloads import SUITES

# (namespace, attribute) pairs to wrap. A pair whose attribute no longer
# exists is reported as absent and its metrics read 0.
TARGETS = (
    ("attnkit.cli", "load_json"),
    ("attnkit.cli", "matrix_from_json"),
    ("attnkit.cli", "matrix_to_json"),
    ("attnkit.cli", "dump_canonical"),
    ("attnkit.cli", "assemble_kernel"),
    ("attnkit.cli", "sinkhorn_balanced"),
    ("attnkit.cli", "attention"),
    ("attnkit.cli", "run_schedule"),
    ("attnkit.cli", "predecessor_set"),
    ("attnkit.checks", "run_criterion"),
    ("attnkit.checks", "assemble_kernel"),
    ("attnkit.checks", "sinkhorn_balanced"),
    ("attnkit.checks", "attention"),
    ("attnkit.checks", "barrier_check"),
    ("attnkit.checks", "predecessor_set"),
    ("attnkit.staged", "attention"),
    ("attnkit.staged", "ffn_apply"),
    ("attnkit.staged", "predecessor_set"),
)

ROOT = "cli.main"

# Counts taken from a call's arguments and result, by span name.
_ATTRS = {
    "matio.matrix_from_json": lambda args, kwargs, out: {"entries": int(out[0].size)},
    "matio.matrix_to_json": lambda args, kwargs, out: {
        "entries": int(out["shape"][0] * out["shape"][1])
    },
    "matio.dump_canonical": lambda args, kwargs, out: {"bytes": len(out)},
    "anchor.sinkhorn_balanced": lambda args, kwargs, out: {
        "iterations": int(out.iterations),
        "converged": bool(out.converged),
    },
    "checks.run_criterion": lambda args, kwargs, out: {
        "criterion": args[0] if args else kwargs["name"],
        "cases": sum(p.cases for p in out),
    },
}

# Per-layer metrics and their units, in report order.
METRICS = {
    "matio.load_json.s": "s",
    "matio.matrix_from_json.s": "s",
    "matio.matrix_from_json.entries": "count",
    "matio.matrix_to_json.s": "s",
    "matio.matrix_to_json.entries": "count",
    "matio.dump_canonical.s": "s",
    "matio.dump_canonical.bytes": "bytes",
    "cli.self_s": "s",
    "score.assemble_kernel.s": "s",
    "anchor.sinkhorn_balanced.s": "s",
    "anchor.sinkhorn_balanced.calls": "count",
    "anchor.sinkhorn_balanced.iterations": "count",
    "anchor.sinkhorn_balanced.s_per_iter": "s",
    "anchor.sinkhorn_balanced.converged_ratio": "ratio",
    "operator.attention.s": "s",
    "operator.attention.calls": "count",
    "operator.ffn_apply.s": "s",
    "staged.run_schedule.s": "s",
    "staged.predecessor_set.s": "s",
    "staged.predecessor_set.calls": "count",
    "staged.barrier_check.s": "s",
    "staged.barrier_check.calls": "count",
    **{f"checks.suite.{suite}.s": "s" for suite in SUITES},
    "checks.self_s": "s",
    "checks.cases": "count",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}


class SpanRecorder:
    """Collects spans of one invocation in memory.

    A span is (id, name, start_ns, end_ns, parent_id, attrs); the
    invocation id is stamped when the spans are written out.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self._next_id = 0

    def call(self, name, fn, args, kwargs, attrs=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self._open.pop()
            self.spans.append((span_id, name, start, time.perf_counter_ns(), parent, None))
            raise
        end = time.perf_counter_ns()
        self._open.pop()
        self.spans.append(
            (span_id, name, start, end, parent, attrs(args, kwargs, out) if attrs else None)
        )
        return out

    def wrap(self, name, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return wrapper

    def as_json(self, invocation: int) -> list:
        return [
            {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent,
             "invocation": invocation, "attrs": attrs}
            for i, name, start, end, parent, attrs in self.spans
        ]


def install(recorder: SpanRecorder) -> list:
    """Wrap every target; return the targets that do not exist."""
    absent = []
    for namespace, attr in TARGETS:
        try:
            module = importlib.import_module(namespace)
        except ImportError:
            absent.append(f"{namespace}.{attr}")
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            absent.append(f"{namespace}.{attr}")
            continue
        layer = fn.__module__.rpartition(".")[2]
        setattr(module, attr, recorder.wrap(f"{layer}.{fn.__name__}", fn))
    return absent


def suite_of_criterion() -> dict:
    """criterion name -> suite name, from the harness's own table."""
    try:
        suites = importlib.import_module("attnkit.checks").SUITES
    except (ImportError, AttributeError):
        return {}
    return {crit: suite for suite, crits in suites.items() for crit in crits}


def self_times(spans: list) -> dict:
    """span id -> duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and
    do not overlap each other.
    """
    child_ns = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    return {
        span["id"]: span["end_ns"] - span["start_ns"] - child_ns[span["id"]]
        for span in spans
    }


def layer_metrics(spans: list, criteria: dict) -> dict:
    """Per-layer metrics of one traced invocation (trace.* excluded)."""
    total_ns = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(int)
    own = self_times(spans)
    suite_ns = defaultdict(int)
    checks_self_ns = 0
    root_self_ns = 0
    converged = 0
    for span in spans:
        name = span["name"]
        total_ns[name] += span["end_ns"] - span["start_ns"]
        calls[name] += 1
        attrs = span["attrs"] or {}
        for key in ("entries", "bytes", "iterations", "cases"):
            counts[f"{name}.{key}"] += attrs.get(key, 0)
        converged += bool(attrs.get("converged"))
        if name == ROOT:
            root_self_ns += own[span["id"]]
        elif name == "checks.run_criterion":
            checks_self_ns += own[span["id"]]
            suite = criteria.get(attrs.get("criterion"))
            suite_ns[suite] += span["end_ns"] - span["start_ns"]

    def seconds(ns):
        return ns / 1e9

    sk = "anchor.sinkhorn_balanced"
    out = {}
    for name in METRICS:
        if name.startswith("trace."):
            continue
        if name == "cli.self_s":
            out[name] = seconds(root_self_ns)
        elif name == "checks.self_s":
            out[name] = seconds(checks_self_ns)
        elif name == "checks.cases":
            out[name] = counts["checks.run_criterion.cases"]
        elif name.startswith("checks.suite."):
            out[name] = seconds(suite_ns[name[len("checks.suite."):-len(".s")]])
        elif name == f"{sk}.s_per_iter":
            iters = counts[f"{sk}.iterations"]
            out[name] = seconds(total_ns[sk]) / iters if iters else 0.0
        elif name == f"{sk}.converged_ratio":
            out[name] = converged / calls[sk] if calls[sk] else 0.0
        elif name.endswith(".s"):
            out[name] = seconds(total_ns[name[:-2]])
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
        else:
            out[name] = counts[name]
    return out
