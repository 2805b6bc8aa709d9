"""Spans around the public functions of ptdeco, recorded from outside.

:func:`install` replaces module attributes with timing wrappers. A name
imported with ``from .x import f`` is a separate binding in each importing
module (``require_density_matrix`` lives in ``pt_core``, ``dephasing``,
``oracle`` and ``channel``), so every ptdeco module that holds the same
function object gets the wrapper. Calls made inside ptdeco through those
module globals are then traced too, which nests spans.

Spans stay in memory as ``[name, start, end, parent, item, ok, extra,
thread]`` and
are written out once, when the run ends. :func:`layer_stats` turns them
into per-layer totals, self times and counts; it needs no ptdeco import.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager

#: Functions wrapped in a traced run, as "module.function" under ptdeco.
TRACED = (
    "dephasing.gamma_integral",
    "dephasing.gamma_discrete",
    "dephasing.sweep_alpha",
    "dephasing.evolve_exact",
    "oracle.bath_operators",
    "oracle.thermal_state",
    "oracle.brute_force_dynamics",
    "oracle.run_comparison",
    "channel.build_composite",
    "channel.kraus_extract",
    "channel.pt_kraus",
    "channel.apply_channel",
    "channel.is_completely_positive",
    "linalg.eig_general",
    "linalg.mat_sqrt_psd",
    "linalg.partial_trace_env",
    "linalg.kron",
    "pt_core.check_pt_symmetry",
    "pt_core.spectrum",
    "pt_core.biorthonormal_basis",
    "pt_core.canonical_transform",
    "pt_core.hermitian_representation",
    "pt_core.require_density_matrix",
)


def _brute_force_shape(args, kwargs, out):
    bath = args[1] if len(args) > 1 else kwargs["bath"]
    times = args[4] if len(args) > 4 else kwargs["times"]
    return [2 * bath.fock_dim**bath.n_modes, len(list(times))]


#: Values a span keeps from its call: (args, kwargs, result) -> JSON value.
EXTRAS = {
    "dephasing.gamma_integral": lambda a, k, out: out.evaluations,
    "channel.kraus_extract": lambda a, k, out: len(out.ops),
    "oracle.brute_force_dynamics": _brute_force_shape,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._local = threading.local()
        self._main_stack = self._stack()
        self._append = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            # a worker thread's outermost span belongs to the span the main
            # thread has open (sweep_alpha's thread pool)
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._append:
            idx = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, parent, self.item, False, None, threading.get_ident()]
            )
        stack.append(idx)
        return idx

    def _close(self, idx, ok, extra):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = ok
        span[6] = extra
        self._stack().pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok, None)

    def wrap(self, name, fn):
        extra_fn = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            ok = False
            extra = None
            try:
                out = fn(*args, **kwargs)
                ok = True
                if extra_fn is not None:
                    extra = extra_fn(args, kwargs, out)
                return out
            finally:
                self._close(idx, ok, extra)

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> dict:
    """Rebind every traced function in every ptdeco module that holds it.

    Returns the number of bindings replaced per function; each is at least 1.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("ptdeco")]
    counts = {}
    for name in TRACED:
        mod_name, func_name = name.split(".")
        original = getattr(importlib.import_module(f"ptdeco.{mod_name}"), func_name)
        wrapper = tracer.wrap(name, original)
        counts[name] = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    counts[name] += 1
    return counts


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


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] is not None:
            children[span[3]].append(span)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        clipped = [(max(k[1], start), min(k[2], end)) for k in kids]
        out.append((end - start) - _covered([c for c in clipped if c[1] > c[0]]))
    return out


def layer_stats(spans) -> dict:
    """Per span name: calls, total and self seconds, failures, durations, extras."""
    selfs = self_times(spans)
    stats = {}
    for span, self_s in zip(spans, selfs):
        st = stats.setdefault(
            span[0],
            {"calls": 0, "s": 0.0, "self_s": 0.0, "fails": 0, "durations": [], "extras": [], "items": []},
        )
        st["calls"] += 1
        st["s"] += span[2] - span[1]
        st["self_s"] += self_s
        st["fails"] += 0 if span[5] else 1
        st["durations"].append(span[2] - span[1])
        st["items"].append(span[4])
        if span[6] is not None:
            st["extras"].append(span[6])
    return stats


def self_s_per_thread(spans) -> dict:
    """Sum of self times per thread; no thread's sum can exceed the wall time."""
    sums = {}
    for span, self_s in zip(spans, self_times(spans)):
        sums[span[7]] = sums.get(span[7], 0.0) + self_s
    return sums
