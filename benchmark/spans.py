"""In-memory spans around the calls into each sockp module.

The tracer wraps public names where the caller looks them up (module
attributes of ``sockp.rkpm``, ``sockp.exact`` and the benchmark's own
``workloads`` module), so the library itself is untouched.  Each span keeps
its name, parent, solve unit, start, end and a small payload; the per-layer
metrics are derived from the spans after the run, and the spans are written
out at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

import sockp.exact
import sockp.rkpm
from sockp.knapsack import dantzig_bound

# int64 DP rows stay below the library's 2**62 sentinel plus one weight.
_INT64_LIMIT = 2 ** 62


def _problem(args, result):
    return args[0]


def _table_size(args, result):
    return result.size


def _bound_counts(args, result):
    return result.subproblems_solved, result.subproblems_skipped


def _exact_counts(args, result):
    return result.iterations, result.m


def targets(workloads_module):
    """(module, attribute, span name, payload) of every wrapped name."""
    return (
        (sockp.rkpm, "solve_knapsack_value", "knapsack.value", _problem),
        (sockp.rkpm, "solve_knapsack", "knapsack.recon", _problem),
        (sockp.rkpm, "build_segments", "approx.build_segments", _table_size),
        (sockp.rkpm, "beta_exact", "approx.beta_exact", None),
        (sockp.rkpm, "is_soc_feasible", "model.is_soc_feasible", None),
        (sockp.exact, "upper_bound", "rkpm.bound", _bound_counts),
        (sockp.exact, "is_soc_feasible", "model.is_soc_feasible", None),
        (sockp.exact, "m_star", "exact.m_star", None),
        (workloads_module, "generate", "instances.generate", None),
        (workloads_module, "build_segments", "approx.build_segments", _table_size),
        (workloads_module, "upper_bound", "rkpm.bound", _bound_counts),
        (workloads_module, "lower_bound", "rkpm.bound", _bound_counts),
        (workloads_module, "solve_exact", "exact.solve", _exact_counts),
        (workloads_module, "is_soc_feasible", "model.is_soc_feasible", None),
    )


class Span:
    __slots__ = ("name", "parent", "unit", "start", "end", "payload")

    def __init__(self, name, parent, unit):
        self.name = name
        self.parent = parent
        self.unit = unit
        self.start = self.end = 0.0
        self.payload = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unit: str | None = None  # key of the solve unit being run
        self._open: list[int] = []

    def wrap(self, name, fn, payload):
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None, self.unit)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if payload is not None:
                span.payload = payload(args, result)
            return result
        return traced

    @contextmanager
    def installed(self, workloads_module):
        """Replace every target name by its traced wrapper, then restore."""
        saved = []
        try:
            for module, attr, name, payload in targets(workloads_module):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, payload))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """One JSON line per span; times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "parent": s.parent, "unit": s.unit, "name": s.name,
                    "start": round(s.start - origin, 7),
                    "end": round(s.end - origin, 7)}) + "\n")


def _dp_shape(problem) -> tuple[int, bool]:
    """DP cells (kept items x (Dantzig bound + 1)) and whether int64 is left.

    Kept items are those the DP sees: positive profit and a weight in
    (0, capacity].  The bound equals ``sockp.knapsack.dantzig_bound`` on
    them; numpy computes it after checking the float ratio order on exact
    int64 cross products, and data outside that range go to the library.
    """
    if problem.capacity < 0:
        return 0, False
    cap = problem.capacity
    if max(problem.weights) >= _INT64_LIMIT or cap >= _INT64_LIMIT:
        kept = [(p, w) for p, w in zip(problem.profits, problem.weights)
                if p > 0 and 0 < w <= cap]
        if not kept:
            return 0, False
        bound = dantzig_bound(*zip(*kept), cap)
        return len(kept) * (bound + 1), True
    p = np.array(problem.profits, dtype=np.int64)
    w = np.array(problem.weights, dtype=np.int64)
    keep = (p > 0) & (w > 0) & (w <= cap)
    p, w = p[keep], w[keep]
    if not len(p):
        return 0, False
    order = np.argsort(-(p / w), kind="stable")
    p, w = p[order], w[order]
    exact = int(p.max()) * int(w.max()) < _INT64_LIMIT and int(w.sum()) < _INT64_LIMIT
    if not exact or np.any(p[:-1] * w[1:] < p[1:] * w[:-1]):
        return len(p) * (dantzig_bound(p.tolist(), w.tolist(), cap) + 1), False
    cum_w = np.cumsum(w)
    k = int(np.searchsorted(cum_w, cap, side="right"))
    bound = int(p[:k].sum())
    if k < len(p):
        room = cap - (int(cum_w[k - 1]) if k else 0)
        bound += int(p[k]) * room // int(w[k])
    return len(p) * (bound + 1), False


def layer_metrics(spans: list[Span], pass_walls: list[float]) -> dict:
    """Per-layer metrics per pass over the unit set.

    Counts are per pass and repeat exactly; times are per-pass means, except
    ``instances.generate_s``, which is the set-up's generation time.  A
    span's self time is its duration minus that of its child spans, except
    that ``exact.self_s`` only subtracts the ``rkpm.bound`` children: it
    covers the doubling loop together with m* and the SOC exit tests.
    """
    passes = len(pass_walls)
    child_time: dict[int, float] = {}
    bound_child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
            if s.name == "rkpm.bound":
                bound_child_time[s.parent] = (bound_child_time.get(s.parent, 0.0)
                                              + s.duration)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    rkpm_self = exact_self = 0.0
    screened = skipped = entries = iterations = m_final_max = 0
    dp_cells = bigint = 0
    for i, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        if s.payload is None:
            continue  # no payload kept, or the call raised
        if s.name == "rkpm.bound":
            rkpm_self += s.duration - child_time.get(i, 0.0)
            screened += s.payload[0]
            skipped += s.payload[1]
        elif s.name == "exact.solve":
            exact_self += s.duration - bound_child_time.get(i, 0.0)
            iterations += s.payload[0]
            m_final_max = max(m_final_max, s.payload[1])
        elif s.name == "approx.build_segments":
            entries += s.payload
        elif s.name in ("knapsack.value", "knapsack.recon"):
            cells, big = _dp_shape(s.payload)
            dp_cells += cells
            bigint += big

    def per_pass(name):
        return calls.get(name, 0) // passes

    def seconds(name):
        return busy.get(name, 0.0) / passes

    value_calls = per_pass("knapsack.value")
    recon_calls = per_pass("knapsack.recon")
    screened //= passes
    metrics = {
        "knapsack.value_calls": (value_calls, "count"),
        "knapsack.value_s": (seconds("knapsack.value"), "s"),
        "knapsack.recon_calls": (recon_calls, "count"),
        "knapsack.recon_s": (seconds("knapsack.recon"), "s"),
        "knapsack.dp_cells": (dp_cells // passes, "count"),
        "knapsack.bigint_calls": (bigint // passes, "count"),
        "knapsack.improve_ratio": (recon_calls / value_calls if value_calls else 0.0,
                                   "ratio"),
        "rkpm.bound_calls": (per_pass("rkpm.bound"), "count"),
        "rkpm.self_s": (rkpm_self / passes, "s"),
        "rkpm.pivots_screened": (screened, "count"),
        "rkpm.pivots_skipped": (skipped // passes, "count"),
        "rkpm.screen_pass_ratio": (value_calls / screened if screened else 0.0,
                                   "ratio"),
        "approx.build_segments_calls": (per_pass("approx.build_segments"), "count"),
        "approx.build_segments_s": (seconds("approx.build_segments"), "s"),
        "approx.table_entries": (entries // passes, "count"),
        "approx.beta_exact_s": (seconds("approx.beta_exact"), "s"),
        "model.is_soc_feasible_calls": (per_pass("model.is_soc_feasible"), "count"),
        "model.is_soc_feasible_s": (seconds("model.is_soc_feasible"), "s"),
        "exact.solves": (per_pass("exact.solve"), "count"),
        "exact.iterations": (iterations // passes, "count"),
        "exact.m_final_max": (m_final_max, "count"),
        "exact.self_s": (exact_self / passes, "s"),
        "instances.generate_s": (busy.get("instances.generate", 0.0), "s"),
        "trace.wall_s": (statistics.median(pass_walls), "s"),
    }
    return metrics
