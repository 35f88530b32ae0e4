"""Bounds for the SOC-constrained knapsack via a family of ordinary knapsacks.

The robust problem over the polyhedral approximation decomposes into one
ordinary 0/1 knapsack per pivot segment: pivot l with gain/budget ratio r
contributes the feasible set

    sum_j mean_j x_j + sum_{l' before l} (d_l' - r f_l') x_{j(l')} <= cap - r * delta,

where "before" means strictly greater d/f ratio, plus a final subproblem with
weights mean_j + sum_k d_jk and the plain capacity for the zero-ratio dummy
pivot.  The best solution over the family solves the robust problem exactly;
budget delta = m^2 yields an upper bound on the SOC optimum and
delta = m^2 + n/4 a feasible lower bound.

Subproblem weights are built in exact integer arithmetic and conservatively
scaled (ceil weights, floor capacity), so returned lower bounds are always
genuinely SOC-feasible.  A float Dantzig screen with generous safety margins
picks the few pivots whose knapsack must actually be solved; margins only
ever cause extra exact solves, never wrong answers.  The screen works on
matrices: the prefix gain/budget sums of a chunk of pivots come from one
cumsum over the chunk's table entries, and the LP bounds of all its weight
rows from a row-wise argsort, cumsum and break count, with every temporary
array kept near ``SCREEN_CHUNK`` elements.

Each exact value solve passes the incumbent as its floor, so the knapsack
fixes items by reduced cost against it (Martello, Pisinger & Toth,
Management Science 45(3), 1999; see :mod:`sockp.knapsack`) and its DP sees
only the few items that could still change a winning selection; pivots whose
LP bound falls short of the incumbent need no DP at all.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import localcontext
from fractions import Fraction
from typing import Sequence

import numpy as np

from .approx import HORIZONTAL, SegmentTable, beta_exact, build_segments
from .knapsack import (KnapsackSubproblem, SolverInvariantError,
                       solve_knapsack, solve_knapsack_value)
from .model import (EXACT_PREC, SockpInstance, _frac_digits, as_omega,
                    is_soc_feasible)

__all__ = [
    "BoundResult",
    "SolverInvariantError",
    "UPPER",
    "LOWER",
    "EXACT",
    "lower_bound",
    "solve_rkpm",
    "upper_bound",
]

UPPER = "upper"
LOWER = "lower"
EXACT = "exact"

DEFAULT_SCALE_FACTOR = 10 ** 6

# Elements per temporary array of the matrix screen.
SCREEN_CHUNK = 25_000


@dataclass(frozen=True)
class BoundResult:
    """Outcome of one bound computation (or of the exact doubling solve)."""

    solution: tuple[int, ...]
    objective: int
    kind: str
    m: int
    delta: Fraction
    subproblems_solved: int
    subproblems_skipped: int
    wall_time: float
    iterations: int | None = None
    objective_history: tuple[int, ...] = ()


class _Family:
    """Shared exact/float data for one (instance, table, delta) family."""

    def __init__(self, inst: SockpInstance, table: SegmentTable, delta: Fraction):
        self.inst = inst
        self.table = table
        self.delta = delta
        self.da = max([_frac_digits(inst.capacity)]
                      + [_frac_digits(v) for v in inst.means])
        self.pow_da = 10 ** self.da
        with localcontext() as ctx:
            ctx.prec = EXACT_PREC
            self.a_int = [int(v.scaleb(self.da)) for v in inst.means]
            self.b_int = int(inst.capacity.scaleb(self.da))
        self.profits_f = np.array(inst.profits, dtype=float)
        self.means_f = np.array([float(v) for v in inst.means])
        self.cap_f = float(inst.capacity)
        self.dn = delta.numerator
        self.dd = delta.denominator

    def capacity_is_negative(self, i: int | None) -> bool:
        """Exact sign of cap - r * delta for the pivot at sorted index i."""
        if i is None:
            return self.b_int < 0
        t = self.table
        lhs = self.b_int * t.q * t.f[i] * self.dd
        rhs = t.dnum[i] * self.dn * self.pow_da
        return lhs < rhs

    def _pivot_parts(self, i: int | None):
        t = self.table
        if i is None:
            return t.size, 0, 1  # dummy: full prefix, ratio zero
        return t.group_start[i], t.dnum[i], t.f[i]

    def scaled_subproblem(self, i: int | None, factor: int) -> KnapsackSubproblem:
        """Exact conservatively-scaled knapsack for the pivot at index i.

        ``None`` denotes the dummy pivot (ratio zero, full gain sums, plain
        capacity).  Weights are ceil'd and the capacity floor'd at ``factor``.
        """
        t = self.table
        gs, rnum, f_i = self._pivot_parts(i)
        sd, sf = t.prefix_state(gs)
        extra = [d * f_i - rnum * s for d, s in zip(sd, sf)]
        if extra and min(extra) < 0:
            raise SolverInvariantError(
                "negative modified weight; ratio ordering violated")
        den = self.pow_da * t.q * f_i
        # weight_j = ceil(factor * (a_j * q * f_i + pow_da * extra_j) / den)
        lin = factor * t.q * f_i
        gain = factor * self.pow_da
        weights = [-((-lin * a - gain * e) // den)
                   for a, e in zip(self.a_int, extra)]
        cap_num = factor * (self.b_int * t.q * f_i * self.dd
                            - rnum * self.dn * self.pow_da)
        capacity = cap_num // (den * self.dd)
        label = t.size + 1 if i is None else i + 1
        return KnapsackSubproblem(profits=self.inst.profits,
                                  weights=tuple(weights),
                                  capacity=capacity, origin_label=label)

    def screen(self):
        """Candidate pivots with a dominating Dantzig bound each.

        Returns ([(rank, sorted index or None, bound)], skipped).  The bound
        is the LP relaxation of the pivot's own (unscaled, true-weight)
        subproblem in float arithmetic; it dominates the scaled integer
        optimum up to ~1e-8, absorbed by the callers' 0.5 margins.
        Negative-capacity pivots are dropped and counted (exact sign tests,
        float-banded).  The real pivots are bounded as matrices, a chunk of
        rows at a time (see :meth:`_pivot_weights` and :func:`_dantzig_rows`),
        so the whole family costs O(size * n) float work in numpy.
        """
        t = self.table
        lh = t.lhat(self.delta)
        first = t.size if lh is None else lh - 1  # first real pivot index
        r = t.d_float[first:] / t.f_int[first:]  # pivot gain/budget ratios
        caps = self.cap_f - r * (self.dn / self.dd)
        tol = 1e-6 * (1.0 + abs(self.cap_f) + np.abs(caps))
        negative = caps < -tol
        for k in np.flatnonzero(np.abs(caps) <= tol):
            negative[k] = self.capacity_is_negative(first + int(k))
        live = np.flatnonzero(~negative)
        skipped = len(r) - len(live)

        candidates = []
        n = self.inst.n
        js = np.asarray(t.js, dtype=np.intp)
        group_start = np.asarray(t.group_start, dtype=np.intp)[first:][live]
        rows = max(1, SCREEN_CHUNK // n)
        # Float per-item (d, f) sums over the first `upto` table entries.
        sd, sf, upto = np.zeros(n), np.zeros(n), 0
        c0 = 0
        while c0 < len(live):
            # The chunk spans at most `rows` pivots and `rows` table entries.
            g0 = int(group_start[c0])
            c1 = min(c0 + rows, int(np.searchsorted(
                group_start, g0 + rows, side="right")))
            sd += np.bincount(js[upto:g0], weights=t.d_float[upto:g0],
                              minlength=n)
            sf += np.bincount(js[upto:g0], weights=t.f_int[upto:g0],
                              minlength=n)
            upto = g0
            sel = live[c0:c1]
            weights = self._pivot_weights(js, sd, sf, group_start[c0:c1],
                                          r[sel])
            bounds = _dantzig_rows(self.profits_f, weights,
                                   np.maximum(caps[sel], 0.0))
            index = (sel + first).tolist()
            candidates.extend(zip([i + 1 for i in index], index,
                                  bounds.tolist()))
            c0 = c1

        tol = 1e-6 * (1.0 + 2 * abs(self.cap_f))
        if self.cap_f < -tol or (self.cap_f <= tol
                                 and self.capacity_is_negative(None)):
            skipped += 1
        else:
            sd += np.bincount(js[upto:], weights=t.d_float[upto:], minlength=n)
            bound = _dantzig_rows(self.profits_f, (self.means_f + sd)[None, :],
                                  np.array([max(self.cap_f, 0.0)]))
            candidates.append((t.size + 1, None, float(bound[0])))
        return candidates, skipped

    def _pivot_weights(self, js, sd0, sf0, group_start, r):
        """Float weight rows means + sd - r * sf of a chunk of pivots.

        ``group_start`` is nondecreasing; row k holds the pivot whose
        strict-ratio prefix ends at group_start[k].  ``sd0``/``sf0`` are the
        sums up to group_start[0]; one cumsum over the chunk's entries
        from there gives every other prefix.
        """
        t = self.table
        g0 = int(group_start[0])
        span = int(group_start[-1]) - g0
        inc_d = np.zeros((span + 1, self.inst.n))
        inc_f = np.zeros((span + 1, self.inst.n))
        steps = np.arange(1, span + 1)
        inc_d[steps, js[g0:g0 + span]] = t.d_float[g0:g0 + span]
        inc_f[steps, js[g0:g0 + span]] = t.f_int[g0:g0 + span]
        np.cumsum(inc_d, axis=0, out=inc_d)
        np.cumsum(inc_f, axis=0, out=inc_f)
        at = group_start - g0
        weights = self.means_f + sd0 + inc_d[at]
        weights -= r[:, None] * (sf0 + inc_f[at])
        return weights


def _dantzig_rows(profits: np.ndarray, weights: np.ndarray,
                  caps: np.ndarray) -> np.ndarray:
    """Float Dantzig (LP relaxation) bound of each weight row.

    Row k is a knapsack with the shared ``profits``, weights ``weights[k]``
    and the nonnegative capacity ``caps[k]``.
    """
    rows, n = weights.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(weights > 0, profits / np.maximum(weights, 1e-300),
                          np.inf)
    ratios = np.where(profits > 0, ratios, 0.0)
    # Ties may fall in any order: the LP value does not depend on it.
    order = np.argsort(-ratios, axis=1)
    w_sorted = weights.ravel()[order + (np.arange(rows) * n)[:, None]]
    p_sorted = profits[order]
    cum_w = np.cumsum(w_sorted, axis=1)
    cum_p = np.cumsum(p_sorted, axis=1)
    k = np.count_nonzero(cum_w <= caps[:, None], axis=1)
    r = np.arange(rows)
    prev = np.maximum(k - 1, 0)
    full = np.where(k > 0, cum_p[r, prev], 0.0)
    room = caps - np.where(k > 0, cum_w[r, prev], 0.0)
    nxt = np.minimum(k, n - 1)
    w_next = w_sorted[r, nxt]
    frac = np.where((k < n) & (w_next > 0) & (room > 0),
                    p_sorted[r, nxt] * room / np.where(w_next > 0, w_next, 1.0),
                    0.0)
    return full + frac


def _solve_family(fam: _Family, factor: int, threads: int):
    """Best (value, rank, bits) over the pivot family, with solve/skip counts.

    Deterministic: candidates are walked in (bound desc, rank asc) order, the
    incumbent only improves strictly, and an ascending-rank tie sweep restores
    the smallest-rank winner among equal objectives.  Every value solve gets
    the incumbent as its floor (the first one the greedy value, the knapsack
    default), so it is exact whenever it ties or beats the incumbent and the
    comparisons below stay exact; a reconstruction gets the value it must
    reach.
    """
    candidates, skipped = fam.screen()
    examined = len(candidates)
    candidates.sort(key=lambda c: (-c[2], c[0]))

    best_value = -1
    best_rank = None
    best_bits = None
    values = {}  # rank -> subproblem value at its floor, for the tie sweep

    def evaluate(cand):
        rank, i, _ = cand
        problem = fam.scaled_subproblem(i, factor)
        floor = None if best_rank is None else best_value
        return rank, problem, solve_knapsack_value(problem, floor=floor)

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        pos = 0
        while pos < len(candidates):
            gate = -math.inf if best_rank is None else best_value + 0.5
            batch = []
            while (pos < len(candidates) and len(batch) < max(1, threads)
                   and candidates[pos][2] >= gate):
                batch.append(candidates[pos])
                pos += 1
            if not batch:
                break
            if pool is not None and len(batch) > 1:
                results = list(pool.map(evaluate, batch))
            else:
                results = [evaluate(cand) for cand in batch]
            for rank, problem, value in results:
                values[rank] = value
                if best_rank is None or value > best_value:
                    sol = solve_knapsack(problem, floor=value)
                    best_value, best_rank, best_bits = sol.value, rank, sol.selected

        # Equal-objective pivots with smaller rank may have been gated out:
        # sweep ranks upward and stop at the first tie.
        for cand in sorted(candidates, key=lambda c: c[0]):
            rank, i, bound = cand
            if best_rank is None or rank >= best_rank:
                break
            if bound < best_value - 0.5:
                continue
            value = values.get(rank)
            if value is None:
                value = evaluate(cand)[2]
                values[rank] = value
            if value > best_value:
                raise SolverInvariantError(
                    "screen admitted an improving pivot after the main pass")
            if value == best_value:
                sol = solve_knapsack(fam.scaled_subproblem(i, factor),
                                     floor=value)
                best_value, best_rank, best_bits = sol.value, rank, sol.selected
                break
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    if best_bits is None:
        # Entire family empty; only possible with a negative capacity.
        best_value, best_bits = 0, (0,) * fam.inst.n
    return best_value, best_bits, examined, skipped


def solve_rkpm(inst: SockpInstance, omega, m: int, delta,
               *,
               scheme: str = HORIZONTAL,
               scale_factor: int = DEFAULT_SCALE_FACTOR,
               threads: int = 1,
               table: SegmentTable | None = None,
               kind: str | None = None) -> BoundResult:
    """Solve the robust knapsack over the m-segment approximation exactly.

    ``delta`` is the budget of the support-function knapsack; the inner
    budget gives an upper bound on the SOC optimum and the outer budget a
    feasible lower bound.  Returns the best solution across the pivot family
    together with bookkeeping counts.
    """
    start = time.perf_counter()
    omega_d = as_omega(omega)
    if table is None:
        table = build_segments(inst, omega_d, m, scheme)
    elif table.m != m or table.scheme != scheme or table.n != inst.n:
        raise ValueError("supplied segment table does not match the arguments")
    delta = Fraction(delta)
    if delta < table.inner_budget:
        raise ValueError(
            f"budget {delta} is below the inner budget {table.inner_budget}")

    fam = _Family(inst, table, delta)
    value, bits, examined, skipped = _solve_family(fam, scale_factor, threads)

    if kind is None:
        if delta == table.inner_budget:
            kind = UPPER
        elif table.scheme == HORIZONTAL and delta == table.outer_budget:
            kind = LOWER
        else:
            kind = UPPER

    _validate_result(inst, table, delta, bits, value, kind, omega_d)
    return BoundResult(solution=bits, objective=value, kind=kind, m=table.m,
                       delta=delta, subproblems_solved=examined,
                       subproblems_skipped=skipped,
                       wall_time=time.perf_counter() - start)


def _validate_result(inst, table, delta, bits, value, kind, omega_d):
    if value != sum(p for p, b in zip(inst.profits, bits) if b):
        raise SolverInvariantError("objective does not match the selection")
    lhs = _means_fraction(inst, bits) + beta_exact(bits, table, delta)
    if lhs > Fraction(inst.capacity):
        raise SolverInvariantError(
            "returned solution violates the robust constraint")
    if kind in (LOWER, EXACT) and not is_soc_feasible(bits, inst, omega_d):
        raise SolverInvariantError(
            f"{kind} result is not SOC-feasible")


def _means_fraction(inst: SockpInstance, bits: Sequence[int]) -> Fraction:
    total = Fraction(0)
    for v, b in zip(inst.means, bits):
        if b:
            total += Fraction(v)
    return total


def upper_bound(inst: SockpInstance, omega, m: int, *,
                scheme: str = HORIZONTAL,
                scale_factor: int = DEFAULT_SCALE_FACTOR,
                threads: int = 1,
                table: SegmentTable | None = None) -> BoundResult:
    """Upper bound on the SOC optimum (inner approximation budget)."""
    if table is None:
        table = build_segments(inst, as_omega(omega), m, scheme)
    return solve_rkpm(inst, omega, m, table.inner_budget, scheme=scheme,
                      scale_factor=scale_factor, threads=threads, table=table,
                      kind=UPPER)


def lower_bound(inst: SockpInstance, omega, m: int, *,
                scale_factor: int = DEFAULT_SCALE_FACTOR,
                threads: int = 1,
                table: SegmentTable | None = None) -> BoundResult:
    """Feasible lower bound on the SOC optimum (outer approximation budget).

    The returned solution is guaranteed SOC-feasible; this is checked in
    exact arithmetic before returning.
    """
    if table is None:
        table = build_segments(inst, as_omega(omega), m, HORIZONTAL)
    return solve_rkpm(inst, omega, m, table.outer_budget, scheme=HORIZONTAL,
                      scale_factor=scale_factor, threads=threads, table=table,
                      kind=LOWER)


def subproblem_exact(inst: SockpInstance, table: SegmentTable, rank: int,
                     delta) -> tuple[list[Fraction], Fraction]:
    """Exact (weights, capacity) of the pivot-``rank`` subproblem.

    Reference form used by enumeration tests; rank ``size + 1`` denotes the
    dummy pivot.
    """
    delta = Fraction(delta)
    fam = _Family(inst, table, delta)
    i = None if rank == table.size + 1 else rank - 1
    if i is not None and not 0 <= i < table.size:
        raise ValueError(f"pivot rank {rank} out of range")
    t = table
    n = inst.n
    if i is None:
        gs, rnum, f_i = t.size, 0, 1
    else:
        gs, rnum, f_i = t.group_start[i], t.dnum[i], t.f[i]
    ratio = Fraction(rnum, t.q * f_i)
    sd = [Fraction(0)] * n
    sf = [0] * n
    for idx in range(gs):
        j = t.js[idx]
        sd[j] += Fraction(t.dnum[idx], t.q)
        sf[j] += t.f[idx]
    weights = [Fraction(fam.a_int[j], fam.pow_da) + sd[j] - ratio * sf[j]
               for j in range(n)]
    capacity = Fraction(fam.b_int, fam.pow_da) - ratio * delta
    return weights, capacity
