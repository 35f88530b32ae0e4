"""Benchmark harness: seeded sweeps over generated instances, CSV/JSON out.

Three protocols: simultaneous upper/lower bounds across a segment grid,
the exact doubling solver, and the horizontal-versus-vertical upper-bound
comparison.  Row order and contents are deterministic given the requested
(families, sizes, rhos, m grid, seeds); wall-clock columns are measurements
and naturally vary between runs.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
from decimal import Decimal
from typing import Iterable, Sequence

from .approx import HORIZONTAL, VERTICAL, build_segments
from .exact import solve_exact
from .instances import GeneratorSpec, generate
from .model import OmegaSpec, resolve_omega
from .rkpm import lower_bound, upper_bound

__all__ = [
    "BOUNDS_FIELDS",
    "EXACT_FIELDS",
    "SCHEME_FIELDS",
    "rows_to_csv",
    "run_bounds_bench",
    "run_exact_bench",
    "run_scheme_comparison",
    "summarize_bounds",
    "summarize_exact",
    "write_report",
]

BOUNDS_FIELDS = ("family", "n", "rho", "m", "seed", "ub", "lb", "gap_pct", "time_ms")
EXACT_FIELDS = ("family", "n", "rho", "seed", "iters", "m_final", "knap_solves",
                "time_ms", "objective")
SCHEME_FIELDS = ("family", "n", "rho", "seed", "scheme", "m", "ub", "time_ms")


def _gap_pct(ub: int, lb: int):
    return (ub - lb) / lb * 100.0 if lb > 0 else None


@functools.lru_cache(maxsize=256)
def _instance(family: str, n: int, seed: int):
    return generate(GeneratorSpec(family=family, n=n, seed=seed))


def _cases(families, sizes, rhos, seeds, ambiguity):
    """(row key, omega, instance) per (family, n, rho, seed), in that order."""
    omegas = {rho: resolve_omega(OmegaSpec(kind=ambiguity, rho=Decimal(str(rho))))
              .resolved_omega for rho in rhos}
    for family, n, rho, seed in itertools.product(families, sizes, rhos, seeds):
        yield ({"family": family, "n": n, "rho": str(rho), "seed": seed},
               omegas[rho], _instance(family, n, seed))


def _summarize(rows: Iterable[dict], keys: Sequence[str],
               fields: Sequence[str]) -> list[dict]:
    """Per group of rows equal on ``keys``, in key order: the seed count and
    each field's mean over the rows where it is not None."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        summary = dict(zip(keys, key), seeds=len(members))
        for f in fields:
            values = [r[f] for r in members if r[f] is not None]
            summary[f"mean_{f}"] = sum(values) / len(values) if values else None
        out.append(summary)
    return out


def run_bounds_bench(families: Sequence[str], sizes: Sequence[int],
                     rhos: Sequence, m_grid: Sequence[int],
                     seeds: Sequence[int], *,
                     ambiguity: str = "chebyshev") -> list[dict]:
    """Upper and lower bounds per (family, n, rho, m, seed).

    One row per combination, in deterministic key order; the per-m ub/lb
    columns double as the series for convergence plots.
    """
    rows = []
    for key, omega, inst in _cases(families, sizes, rhos, seeds, ambiguity):
        for m in m_grid:
            table = build_segments(inst, omega, m)
            ub = upper_bound(inst, omega, m, table=table)
            lb = lower_bound(inst, omega, m, table=table)
            row = dict(key, m=m, ub=ub.objective, lb=lb.objective,
                       gap_pct=_gap_pct(ub.objective, lb.objective),
                       time_ms=round((ub.wall_time + lb.wall_time) * 1000, 3))
            # the columns put m before seed
            rows.append({f: row[f] for f in BOUNDS_FIELDS})
    return rows


def summarize_bounds(rows: Iterable[dict]) -> list[dict]:
    """Mean gap and time per (family, n, rho, m), seeds aggregated."""
    return _summarize(rows, ("family", "n", "rho", "m"), ("gap_pct", "time_ms"))


def run_exact_bench(families: Sequence[str], sizes: Sequence[int],
                    rhos: Sequence, seeds: Sequence[int], *,
                    ambiguity: str = "chebyshev") -> list[dict]:
    """Exact-solver protocol: iterations, final m, knapsack count, objective."""
    rows = []
    for key, omega, inst in _cases(families, sizes, rhos, seeds, ambiguity):
        res = solve_exact(inst, omega)
        rows.append(dict(key, iters=res.iterations, m_final=res.m,
                         knap_solves=res.subproblems_solved,
                         time_ms=round(res.wall_time * 1000, 3),
                         objective=res.objective))
    return rows


def summarize_exact(rows: Iterable[dict]) -> list[dict]:
    """Mean of every exact-protocol measure per (family, n, rho)."""
    return _summarize(rows, ("family", "n", "rho"),
                      ("iters", "m_final", "knap_solves", "time_ms", "objective"))


def run_scheme_comparison(families: Sequence[str], sizes: Sequence[int],
                          rhos: Sequence, seeds: Sequence[int], *,
                          m_horizontal: Sequence[int],
                          m_vertical: Sequence[int],
                          ambiguity: str = "chebyshev") -> list[dict]:
    """Upper-bound series for both partition schemes on the same instances."""
    plan = ([(HORIZONTAL, m) for m in m_horizontal]
            + [(VERTICAL, m) for m in m_vertical])
    rows = []
    for key, omega, inst in _cases(families, sizes, rhos, seeds, ambiguity):
        for scheme, m in plan:
            ub = upper_bound(inst, omega, m, scheme=scheme)
            rows.append(dict(key, scheme=scheme, m=m, ub=ub.objective,
                             time_ms=round(ub.wall_time * 1000, 3)))
    return rows


def rows_to_csv(rows: Iterable[dict], fields: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow(["" if row.get(f) is None else row.get(f) for f in fields])
    return buf.getvalue()


def write_report(rows: list[dict], fields: Sequence[str], fmt: str,
                 summary: list[dict] | None = None) -> str:
    """Render rows as csv or json (optionally with a summary block).

    Returns the text; the caller writes it out.
    """
    if fmt == "csv":
        return rows_to_csv(rows, fields)
    if fmt != "json":
        raise ValueError(f"unknown format {fmt!r}")
    payload = {"rows": rows}
    if summary is not None:
        payload["summary"] = summary
    return json.dumps(payload, indent=2) + "\n"
