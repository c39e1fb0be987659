"""Spans around fiedler's public functions, recorded from outside the package.

A :class:`Tracer` replaces each function in :data:`TRACED` by a wrapper in
every ``fiedler`` module that holds a binding to it, so calls made from inside
the package are seen too (``fiedler.training.forward_stack``,
``fiedler.data.algebraic_connectivity``, ...). Spans are kept in memory and
only recorded while a root span opened by the harness is active, so the
harness's own correctness checks, which call some of the same functions, do
not count. :meth:`Tracer.restore` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from typing import Callable, NamedTuple, Optional

ROOT_SPAN = "bench.op"


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]  # index of the enclosing span, None for a root
    run_id: int  # shared by every span under one root


def _want_cache(args, kwargs) -> bool:
    return kwargs.get("want_cache", args[4] if len(args) > 4 else True)


FORWARD_CACHED = "model.forward_stack.cached"
FORWARD_NOCACHE = "model.forward_stack.nocache"


def _forward_name(args, kwargs) -> str:
    return FORWARD_CACHED if _want_cache(args, kwargs) else FORWARD_NOCACHE


def _count_node_rows(counters, args, kwargs, result) -> None:
    counters["model.build_stack.node_rows"] += result.n_total


def _count_messages(counters, args, kwargs, result) -> None:
    counters["simulation.messages"] += result[1].message_count()


def _count_text_bytes(counters, args, kwargs, result) -> None:
    counters["data.file_bytes"] += len(result.encode("ascii"))


def _count_file_bytes(counters, args, kwargs, result) -> None:
    counters["data.file_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


# (defining module, attribute, span name or namer, counter hook)
TRACED = (
    ("fiedler.graphs", "generate_connected_graph", "graphs.generate_connected_graph", None),
    ("fiedler.graphs", "is_connected", "graphs.is_connected", None),
    ("fiedler.spectral", "algebraic_connectivity", "spectral.algebraic_connectivity", None),
    ("fiedler.data", "generate_dataset", "data.generate_dataset", None),
    ("fiedler.data", "dataset_text", "data.dataset_text", _count_text_bytes),
    ("fiedler.data", "load_dataset", "data.load_dataset", _count_file_bytes),
    ("fiedler.model", "build_stack", "model.build_stack", _count_node_rows),
    ("fiedler.model", "forward_stack", _forward_name, None),
    ("fiedler.model", "backward_stack", "model.backward_stack", None),
    ("fiedler.model", "stack_loss", "model.stack_loss", None),
    ("fiedler.model", "unflatten_params", "model.unflatten_params", None),
    ("fiedler.model", "flatten_params", "model.flatten_params", None),
    ("fiedler.model", "save_params", "model.save_params", None),
    ("fiedler.model", "grad_check", "model.grad_check", None),
    ("fiedler.training", "adam_step", "training.adam_step", None),
    ("fiedler.training", "evaluate", "training.evaluate", None),
    ("fiedler.training", "train", "training.train", None),
    ("fiedler.simulation", "run_simulation", "simulation.run_simulation", _count_messages),
    # defined in fiedler.model; only the simulator calls them
    ("fiedler.model", "gru_update", "simulation.gru_update", None),
    ("fiedler.model", "readout_local", "simulation.readout_local", None),
    ("fiedler.cli", "main", "cli.main", None),
)

SPAN_NAMES = tuple(name for _, _, name, _ in TRACED if isinstance(name, str)) + (
    FORWARD_CACHED, FORWARD_NOCACHE)
COUNTERS = ("model.build_stack.node_rows", "simulation.messages", "data.file_bytes")


class Tracer:
    """Install wrappers, collect spans and counters, restore the originals."""

    def __init__(self):
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open: list = []  # indices of the spans now running, innermost last
        self._run_id = 0
        self._patched: list = []  # (module, attribute, original)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "fiedler" or name.startswith("fiedler."))]
        for home, attr, name, count in TRACED:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, fn: Callable, name, count) -> Callable:
        spans, counters, open_ = self.spans, self.counters, self._open
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not open_:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            open_.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                open_.pop()
                label = namer(args, kwargs) if namer else name
                spans[index] = Span(label, start, end, open_[-1], self._run_id)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def root(self, fn: Callable, *args):
        """Call ``fn(*args)`` inside a new root span; every span below it is recorded."""
        if self._open:
            raise RuntimeError("root spans do not nest")
        self._run_id += 1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[index] = Span(ROOT_SPAN, start, end, None, self._run_id)


def _covered_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
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


def self_times_ns(spans) -> list[int]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start_ns, span.end_ns))
    out = []
    for index, span in enumerate(spans):
        clipped = [
            (max(s, span.start_ns), min(e, span.end_ns))
            for s, e in children.get(index, ())
            if min(e, span.end_ns) > max(s, span.start_ns)
        ]
        out.append(span.end_ns - span.start_ns - _covered_ns(clipped))
    return out


def summarize(spans) -> dict:
    """{span name: {"calls", "busy_s", "self_s"}} over all spans."""
    out: dict = {}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += (span.end_ns - span.start_ns) * 1e-9
        entry["self_s"] += self_ns * 1e-9
    return out


def layer_values(tracer: Tracer, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Every per-layer value by metric name; a layer the workload never calls reads 0.

    ``trace.self_cover_frac`` is the share of the traced wall time that falls
    in the self time of a traced fiedler function: time spent below a root
    span but outside every traced function lowers it.
    """
    summary = summarize(tracer.spans)
    values = dict(tracer.counters)
    for name in SPAN_NAMES:
        entry = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        values.update((f"{name}.{key}", value) for key, value in entry.items())
    values["model.forward_stack.calls"] = (values[f"{FORWARD_CACHED}.calls"]
                                           + values[f"{FORWARD_NOCACHE}.calls"])
    values["model.forward_stack.cached_busy_s"] = values[f"{FORWARD_CACHED}.busy_s"]
    values["model.forward_stack.nocache_busy_s"] = values[f"{FORWARD_NOCACHE}.busy_s"]
    oracle_calls = values["spectral.algebraic_connectivity.calls"]
    values["spectral.algebraic_connectivity.us_per_call"] = (
        values["spectral.algebraic_connectivity.busy_s"] / oracle_calls * 1e6
        if oracle_calls else 0.0)
    values["trace.spans"] = len(tracer.spans)
    values["trace.self_cover_frac"] = sum(
        entry["self_s"] for name, entry in summary.items() if name != ROOT_SPAN) / traced_wall_s
    values["trace.overhead_frac"] = (traced_wall_s - untraced_wall_s) / untraced_wall_s
    return values
