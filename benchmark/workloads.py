"""Workloads of the sockp benchmark: instance pools, solve units and checks.

Every workload draws its instances from a fixed pool of generator seeds whose
results were recorded once in ``reference.json``; the run seed only chooses
which pool members a run solves.  All solves use rho = 0.95 under Chebyshev
(Cantelli) ambiguity, omega = sqrt(rho / (1 - rho)) = 4.358898.

A solve unit is one bound pair (``bounds-n100``) or one exact solve
(``exact-sc``).  Only public API is called, with no ``threads=`` and no
``scale_factor=`` argument, so the benchmark keeps working when those knobs
are removed from the library.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from decimal import Decimal

from sockp import (GeneratorSpec, OmegaSpec, build_segments, generate,
                   is_soc_feasible, lower_bound, resolve_omega, solve_exact,
                   upper_bound)

RHO = "0.95"

WORKLOADS = ("bounds-n100", "exact-sc")

# bounds-n100: the Table-1 protocol, one table per (instance, m) shared by the
# upper and lower bound, for every (family, m) class.
BOUNDS_FAMILIES = ("SC", "IC")
BOUNDS_N = 100
BOUNDS_M = (5, 10, 20, 40)
BOUNDS_POOL = 40
BOUNDS_BLOCKS = 5

# exact-sc: pool size per n.  A run solves instances of every (n, doubling
# depth) stratum of the pool, depth taken from the reference: one per
# stratum, except that the cheap, populous strata below are split into
# blocks by reference time with one draw per block.  With one draw each, the
# median and the low per-unit quantiles of the twelve-unit mix hinged on
# which n=100 instance of depth 2 or 3 a seed drew (a spread of 0.1-0.2
# between seeds); these 21 units cost about 10 % more time.
EXACT_POOL = {100: 40, 200: 20, 400: 12}
EXACT_BLOCKS = {(100, 2): 4, (100, 3): 4, (100, 4): 3, (200, 2): 2}


@dataclass(frozen=True)
class Unit:
    """One solve unit; ``key`` names its entry in the reference."""

    key: str
    kind: str  # "pair" or "exact"
    family: str
    n: int
    seed: int
    m: int | None = None

    @property
    def instance_key(self) -> tuple[str, int, int]:
        return self.family, self.n, self.seed


def _pair(family: str, seed: int, m: int) -> Unit:
    return Unit(f"{family}-n{BOUNDS_N}-s{seed}-m{m}", "pair", family,
                BOUNDS_N, seed, m=m)


def _exact(n: int, seed: int) -> Unit:
    return Unit(f"SC-n{n}-s{seed}-exact", "exact", "SC", n, seed)


def pool_units(workload: str) -> list[Unit]:
    """Every unit a run of ``workload`` can draw; the reference covers them."""
    if workload == "bounds-n100":
        return [_pair(f, s, m) for f in BOUNDS_FAMILIES
                for s in range(BOUNDS_POOL) for m in BOUNDS_M]
    if workload == "exact-sc":
        return [_exact(n, s) for n, size in EXACT_POOL.items()
                for s in range(size)]
    raise ValueError(f"unknown workload {workload!r}")


def draw_units(workload: str, seed: int, reference: dict) -> list[Unit]:
    """The fixed unit set of one run: a function of the workload and seed.

    The pool is stratified so that every run has the same mix of cheap and
    expensive units and its figures do not swing with the seed, while every
    pool member can still be drawn.  bounds-n100 splits the pool of each
    (family, m) class into equal blocks by the reference solve time and
    draws one unit per block.  exact-sc draws one instance per (n, doubling
    depth), more from the cheap strata of EXACT_BLOCKS, so every run carries
    the whole tail: for instance SC n=100 seed 4 (m=640) and n=400 seed 1 or
    11 (m=160).
    """
    rng = random.Random(seed)

    def by_blocks(members: list[Unit], blocks: int) -> list[Unit]:
        members = sorted(members, key=lambda u: (reference[u.key]["seconds"],
                                                 u.seed))
        size = len(members)
        return [rng.choice(members[i * size // blocks:(i + 1) * size // blocks])
                for i in range(blocks)]

    if workload == "bounds-n100":
        return [u for f in BOUNDS_FAMILIES for m in BOUNDS_M
                for u in by_blocks([_pair(f, s, m) for s in range(BOUNDS_POOL)],
                                   BOUNDS_BLOCKS)]
    if workload == "exact-sc":
        units = []
        for n, size in EXACT_POOL.items():
            strata: dict[int, list[Unit]] = {}
            for s in range(size):
                unit = _exact(n, s)
                strata.setdefault(reference[unit.key]["iterations"], []).append(unit)
            for d in sorted(strata):
                units += by_blocks(strata[d], EXACT_BLOCKS.get((n, d), 1))
        return units
    raise ValueError(f"unknown workload {workload!r}")


def resolve() -> Decimal:
    """The safety factor every workload uses."""
    return resolve_omega(OmegaSpec.chebyshev(RHO)).resolved_omega


def make_instances(units: list[Unit]) -> dict:
    return {key: generate(GeneratorSpec(family=key[0], n=key[1], seed=key[2]))
            for key in dict.fromkeys(u.instance_key for u in units)}


def solve(unit: Unit, inst, omega) -> list:
    """Run one unit; returns its BoundResults in reference order."""
    if unit.kind == "pair":
        table = build_segments(inst, omega, unit.m)
        return [upper_bound(inst, omega, unit.m, table=table),
                lower_bound(inst, omega, unit.m, table=table)]
    return [solve_exact(inst, omega)]


def digest(bits) -> str:
    """Short digest of a selection vector (the lexicographic tie-break shows)."""
    return hashlib.sha256(bytes(bits)).hexdigest()[:16]


def summary(results: list) -> list[list]:
    return [[r.objective, digest(r.solution)] for r in results]


def check(unit: Unit, results: list, inst, omega, reference: dict) -> list[str]:
    """Reasons the unit failed; empty when it matches and is valid."""
    ref = reference[unit.key]
    problems = []
    if summary(results) != ref["results"]:
        problems.append(f"{unit.key}: {summary(results)} differs from the "
                        f"reference {ref['results']}")
    if unit.kind == "pair":
        ub, lb = results
        if ub.objective < lb.objective:
            problems.append(f"{unit.key}: upper bound {ub.objective} is below "
                            f"the lower bound {lb.objective}")
        if not is_soc_feasible(lb.solution, inst, omega):
            problems.append(f"{unit.key}: lower-bound selection is not "
                            "SOC-feasible")
    elif not is_soc_feasible(results[0].solution, inst, omega):
        problems.append(f"{unit.key}: exact selection is not SOC-feasible")
    return problems
