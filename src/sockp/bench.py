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


def resolve_rho_omega(rho, ambiguity: str = "chebyshev") -> Decimal:
    """Safety factor for a confidence level under a parameter-free ambiguity."""
    if ambiguity not in ("normal", "chebyshev"):
        raise ValueError(
            f"{ambiguity!r} ambiguity needs extra parameters; resolve it explicitly")
    return resolve_omega(OmegaSpec(kind=ambiguity, rho=Decimal(str(rho)))).resolved_omega


def _gap_pct(ub: int, lb: int):
    return (ub - lb) / lb * 100.0 if lb > 0 else None


@functools.lru_cache(maxsize=256)
def _instance(family: str, n: int, seed: int):
    return generate(GeneratorSpec(family=family, n=n, seed=seed))


def run_bounds_bench(families: Sequence[str], sizes: Sequence[int],
                     rhos: Sequence, m_grid: Sequence[int],
                     seeds: Sequence[int], *,
                     ambiguity: str = "chebyshev") -> list[dict]:
    """Upper and lower bounds per (family, n, rho, m, seed).

    One row per combination, in deterministic key order; the per-m ub/lb
    columns double as the series for convergence plots.
    """
    rows = []
    for family in families:
        for n in sizes:
            for rho in rhos:
                for seed in seeds:
                    for m in m_grid:
                        omega = resolve_rho_omega(rho, ambiguity)
                        inst = _instance(family, n, seed)
                        table = build_segments(inst, omega, m)
                        ub = upper_bound(inst, omega, m, table=table)
                        lb = lower_bound(inst, omega, m, table=table)
                        rows.append({
                            "family": family, "n": n, "rho": str(rho),
                            "m": m, "seed": seed,
                            "ub": ub.objective, "lb": lb.objective,
                            "gap_pct": _gap_pct(ub.objective, lb.objective),
                            "time_ms": round(
                                (ub.wall_time + lb.wall_time) * 1000, 3),
                        })
    return rows


def summarize_bounds(rows: Iterable[dict]) -> list[dict]:
    """Mean gap and time per (family, n, rho, m), seeds aggregated."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["family"], row["n"], row["rho"], row["m"]), []).append(row)
    out = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], k[3])):
        members = groups[key]
        gaps = [r["gap_pct"] for r in members if r["gap_pct"] is not None]
        out.append({
            "family": key[0], "n": key[1], "rho": key[2], "m": key[3],
            "seeds": len(members),
            "mean_gap_pct": sum(gaps) / len(gaps) if gaps else None,
            "mean_time_ms": sum(r["time_ms"] for r in members) / len(members),
        })
    return out


def run_exact_bench(families: Sequence[str], sizes: Sequence[int],
                    rhos: Sequence, seeds: Sequence[int], *,
                    ambiguity: str = "chebyshev") -> list[dict]:
    """Exact-solver protocol: iterations, final m, knapsack count, objective."""
    rows = []
    for family in families:
        for n in sizes:
            for rho in rhos:
                for seed in seeds:
                    inst = _instance(family, n, seed)
                    res = solve_exact(inst, resolve_rho_omega(rho, ambiguity))
                    rows.append({
                        "family": family, "n": n, "rho": str(rho),
                        "seed": seed, "iters": res.iterations,
                        "m_final": res.m,
                        "knap_solves": res.subproblems_solved,
                        "time_ms": round(res.wall_time * 1000, 3),
                        "objective": res.objective,
                    })
    return rows


def summarize_exact(rows: Iterable[dict]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["family"], row["n"], row["rho"]), []).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        k = len(members)
        out.append({
            "family": key[0], "n": key[1], "rho": key[2], "seeds": k,
            "mean_iters": sum(r["iters"] for r in members) / k,
            "mean_m_final": sum(r["m_final"] for r in members) / k,
            "mean_knap_solves": sum(r["knap_solves"] for r in members) / k,
            "mean_time_ms": sum(r["time_ms"] for r in members) / k,
            "mean_objective": sum(r["objective"] for r in members) / k,
        })
    return out


def run_scheme_comparison(families: Sequence[str], sizes: Sequence[int],
                          rhos: Sequence, seeds: Sequence[int], *,
                          m_horizontal: Sequence[int],
                          m_vertical: Sequence[int],
                          ambiguity: str = "chebyshev") -> list[dict]:
    """Upper-bound series for both partition schemes on the same instances."""
    plan = ([(HORIZONTAL, m) for m in m_horizontal]
            + [(VERTICAL, m) for m in m_vertical])
    rows = []
    for family in families:
        for n in sizes:
            for rho in rhos:
                for seed in seeds:
                    for scheme, m in plan:
                        inst = _instance(family, n, seed)
                        ub = upper_bound(inst, resolve_rho_omega(rho, ambiguity),
                                         m, scheme=scheme)
                        rows.append({
                            "family": family, "n": n, "rho": str(rho),
                            "seed": seed, "scheme": scheme, "m": m,
                            "ub": ub.objective,
                            "time_ms": round(ub.wall_time * 1000, 3),
                        })
    return rows


def rows_to_csv(rows: Iterable[dict], fields: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow(["" if row.get(f) is None else row.get(f) for f in fields])
    return buf.getvalue()


def write_report(rows: list[dict], fields: Sequence[str], fmt: str,
                 out=None, summary: list[dict] | None = None) -> str:
    """Render rows as csv or json (optionally with a summary block)."""
    if fmt == "csv":
        text = rows_to_csv(rows, fields)
    elif fmt == "json":
        payload = {"rows": rows}
        if summary is not None:
            payload["summary"] = summary
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    return text
