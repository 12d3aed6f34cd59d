"""Spans around the public functions of levywave, recorded from outside the package.

Each wrapped function is replaced at the module attribute its caller looks
up, so the package itself is unchanged.  A span records its name, parent,
thread, start and end; spans stay in memory and are written out when the
benchmark ends.  With ``memory=True`` (single-threaded runs only) each span
also records the peak of tracemalloc's traced bytes during the call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
import tracemalloc

# (layer, function, module whose attribute is replaced); the layer is the
# module that defines the function, the patched module is the one its
# caller looks it up in.
WRAPPED = [
    ("sampling", "generate_noise", "levywave.spectral"),
    ("spectral", "forward_fft", "levywave.spectral"),
    ("spectral", "apply_inverse_operator", "levywave.spectral"),
    ("spectral", "inverse_fft", "levywave.spectral"),
    ("wavelets", "dwt_periodic", "levywave.harness"),
    ("besov", "sigma_curve", "levywave.harness"),
    ("besov", "estimate_kappa", "levywave.harness"),
    ("harness", "run_experiment", "levywave.harness"),
    ("harness", "compare_families", "levywave.harness"),
    ("harness", "emit_outputs", "levywave.harness"),
]
SPAN_NAMES = [f"{layer}.{func}" for layer, func, _ in WRAPPED]

# per-trial pipeline stages; their summed time is the busy time of the workers
STAGES = SPAN_NAMES[:7]


def _count_cells(args, result):
    return "sampling.cells", args[1].size  # grid.size, computed from the grid


def _count_ranked(args, result):
    return "besov.coeffs_ranked", args[0].total_count()  # computed from array sizes


def _count_emitted(args, result):
    return "harness.emit_outputs.bytes", sum(os.path.getsize(p) for p in result)


COUNTERS = {
    "sampling.generate_noise": _count_cells,
    "besov.sigma_curve": _count_ranked,
    "harness.emit_outputs": _count_emitted,
}


class Tracer:
    """Collects spans of one or more workload calls; install() patches, uninstall() restores."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []
        self.call = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._originals = []

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, func):
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span belongs to the span the main thread
            # is blocked in (run_experiment waiting on its pool)
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = {"id": next(self._ids), "name": name, "call": self.call,
                    "parent": parent["id"] if parent else None,
                    "thread": threading.get_ident()}
            if self.memory:
                current, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent["mem_peak"] = max(parent["mem_peak"], peak)
                tracemalloc.reset_peak()
                span["mem_entry"] = span["mem_peak"] = current
            stack.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                stack.pop()
                if self.memory:
                    span["mem_peak"] = max(span["mem_peak"], tracemalloc.get_traced_memory()[1])
                    if parent is not None:
                        parent["mem_peak"] = max(parent["mem_peak"], span["mem_peak"])
                    tracemalloc.reset_peak()
                with self._lock:
                    self.spans.append(span)
            if counter is not None:
                span["count"] = counter(args, result)
            return result

        return wrapper

    def install(self):
        for layer, func, module_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, func)
            self._originals.append((module, func, original))
            setattr(module, func, self._wrap(f"{layer}.{func}", original))

    def uninstall(self):
        for module, func, original in reversed(self._originals):
            setattr(module, func, original)
        self._originals.clear()


def self_times(spans):
    """Self time per span id: duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = s["t0"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], end), min(c["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out
