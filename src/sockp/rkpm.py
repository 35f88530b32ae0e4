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

The family is one index range over the table sorted by falling ratio: from
the first pivot (rank lhat) to index ``size``, the dummy, which is handled as
one more pivot with ratio zero and the full prefix.  The pivot capacity
cap - r * delta rises with the index, so the pivots with a negative capacity
are a prefix of the range; one exact bisection finds where it ends, and those
pivots are counted as skipped.

Subproblem weights are built in exact integer arithmetic and conservatively
scaled by the fixed factor ``SCALE`` = 10^6 (ceil weights, floor capacity),
so returned lower bounds are always genuinely SOC-feasible.  A float Dantzig
screen with generous safety margins picks the few pivots whose knapsack must
actually be solved; margins only ever cause extra exact solves, never wrong
answers.  The screen works on matrices: the prefix gain/budget sums of a
chunk of pivots come from one cumsum over the chunk's table entries, and the
LP bounds of all its weight rows from a row-wise argsort, cumsum and break
count, with every temporary array kept near ``SCREEN_CHUNK`` elements.

The family is solved in one sequential pass over the screened pivots in
(bound desc, rank asc) order.  Each exact value solve passes the incumbent as
its floor, so the knapsack fixes items by reduced cost against it (Martello,
Pisinger & Toth, Management Science 45(3), 1999; see :mod:`sockp.knapsack`)
and its DP sees only the few items that could still change a winning
selection; pivots whose LP bound falls short of the incumbent need no DP at
all.  Only the winning pivot's selection is reconstructed, once, at the end.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .approx import HORIZONTAL, SegmentTable, beta_exact, build_segments
from .knapsack import (KnapsackSubproblem, SolverInvariantError,
                       solve_knapsack, solve_knapsack_value)
from .model import SockpInstance, as_omega, is_soc_feasible

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

# Integer scale of every pivot knapsack's weights and capacity.
SCALE = 10 ** 6

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
        self.a_int, self.b_int, self.pow_da = inst.integer_view()
        self.profits_f = np.array(inst.profits, dtype=float)
        self.means_f, _, self.cap_f = inst.float_views()
        self.dn = delta.numerator
        self.dd = delta.denominator

    def _pivot(self, i: int):
        """(prefix end, rnum, f_i) of the pivot at sorted index i: ratio
        rnum / (q * f_i); index ``size`` is the dummy (ratio 0, full prefix)."""
        t = self.table
        if i == t.size:
            return t.size, 0, 1
        return t.group_start[i], t.dnum[i], t.f[i]

    def capacity_is_negative(self, i: int) -> bool:
        """Exact sign of cap - r * delta for the pivot at sorted index i."""
        _, rnum, f_i = self._pivot(i)
        return (self.b_int * self.table.q * f_i * self.dd
                < rnum * self.dn * self.pow_da)

    def _pivot_parts(self, i: int):
        """(rnum, f_i, extra) of the pivot at sorted index i.

        The pivot's exact subproblem has weight_j = a_j / pow_da +
        extra_j / (q * f_i) and capacity b / pow_da - ratio * delta, where
        extra_j = f_i * sd_j - rnum * sf_j over the entries with a strictly
        larger ratio.
        """
        gs, rnum, f_i = self._pivot(i)
        sd, sf = self.table.prefix_state(gs)
        extra = [d * f_i - rnum * s for d, s in zip(sd, sf)]
        if extra and min(extra) < 0:
            raise SolverInvariantError(
                "negative modified weight; ratio ordering violated")
        return rnum, f_i, extra

    def scaled_subproblem(self, i: int) -> KnapsackSubproblem:
        """Exact conservatively-scaled knapsack for the pivot at index i.

        Weights are ceil'd and the capacity floor'd at ``SCALE``.
        """
        t = self.table
        rnum, f_i, extra = self._pivot_parts(i)
        den = self.pow_da * t.q * f_i
        # weight_j = ceil(SCALE * (a_j * q * f_i + pow_da * extra_j) / den)
        lin = SCALE * t.q * f_i
        gain = SCALE * self.pow_da
        weights = [-((-lin * a - gain * e) // den)
                   for a, e in zip(self.a_int, extra)]
        cap_num = SCALE * (self.b_int * t.q * f_i * self.dd
                           - rnum * self.dn * self.pow_da)
        capacity = cap_num // (den * self.dd)
        return KnapsackSubproblem(profits=self.inst.profits,
                                  weights=tuple(weights), capacity=capacity)

    def screen(self):
        """Candidate pivots with a dominating Dantzig bound each.

        Returns ([(rank, sorted index, bound)], skipped).  The bound is the
        LP relaxation of the pivot's own (unscaled, true-weight) subproblem
        in float arithmetic; it dominates the scaled integer optimum up to
        ~1e-8, absorbed by the callers' 0.5 margins.  The pivots with a
        negative capacity are a prefix of the family, found by an exact
        bisection and counted as skipped.  The others, the dummy last, are
        bounded as matrices, a chunk of rows at a time (see
        :meth:`_pivot_weights` and :func:`_dantzig_rows`), so the whole
        family costs O(size * n) float work in numpy.
        """
        t = self.table
        lh = t.lhat(self.delta)
        first = t.size if lh is None else lh - 1  # first real pivot index
        start = bisect.bisect_left(
            range(t.size + 1), True, lo=first,
            key=lambda i: not self.capacity_is_negative(i))
        # Row k is the pivot at index start + k; the last row is the dummy.
        r = np.append(t.d_float / t.f_int, 0.0)[start:]
        caps = np.maximum(self.cap_f - r * (self.dn / self.dd), 0.0)
        group_start = np.append(np.asarray(t.group_start, dtype=np.intp),
                                t.size)[start:]

        candidates = []
        n = self.inst.n
        js = np.asarray(t.js, dtype=np.intp)
        rows = max(1, SCREEN_CHUNK // n)
        # Float per-item (d, f) sums over the first `upto` table entries.
        sd, sf, upto = np.zeros(n), np.zeros(n), 0
        c0 = 0
        while c0 < len(r):
            # The chunk spans at most `rows` pivots and `rows` table entries.
            g0 = int(group_start[c0])
            c1 = min(c0 + rows, int(np.searchsorted(
                group_start, g0 + rows, side="right")))
            sd += np.bincount(js[upto:g0], weights=t.d_float[upto:g0],
                              minlength=n)
            sf += np.bincount(js[upto:g0], weights=t.f_int[upto:g0],
                              minlength=n)
            upto = g0
            weights = self._pivot_weights(js, sd, sf, group_start[c0:c1],
                                          r[c0:c1])
            bounds = _dantzig_rows(self.profits_f, weights, caps[c0:c1])
            candidates.extend(zip(range(start + c0 + 1, start + c1 + 1),
                                  range(start + c0, start + c1),
                                  bounds.tolist()))
            c0 = c1
        return candidates, start - first

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


def _solve_family(fam: _Family):
    """Best (value, bits) over the pivot family, with screen/skip counts.

    One pass over the candidates in (bound desc, rank asc) order keeps the
    largest value and, among equal values, the smallest rank.  Values are
    integers and every screen bound dominates its pivot's value, so the pass
    stops at the first bound below the incumbent by more than 0.5 and skips a
    bound that can at most tie it when its rank is larger.  Every value solve
    but the first gets the incumbent as its floor, so it is exact whenever it
    ties or beats the incumbent; only the winner is reconstructed.
    """
    candidates, skipped = fam.screen()
    candidates.sort(key=lambda c: (-c[2], c[0]))

    best_value = 0
    best_rank = None
    best_problem = None
    for rank, i, bound in candidates:
        if best_rank is not None:
            if bound < best_value - 0.5:
                break
            if bound < best_value + 0.5 and rank > best_rank:
                continue
        problem = fam.scaled_subproblem(i)
        value = solve_knapsack_value(
            problem, floor=None if best_rank is None else best_value)
        if value > bound + 0.5:
            raise SolverInvariantError(f"pivot {rank} has value {value} "
                                       f"above its screen bound {bound:.3f}")
        if best_rank is None or value > best_value or (
                value == best_value and rank < best_rank):
            best_value, best_rank, best_problem = value, rank, problem

    if best_problem is None:
        # Entire family empty; only possible with a negative capacity.
        return 0, (0,) * fam.inst.n, len(candidates), skipped
    sol = solve_knapsack(best_problem, floor=best_value)
    return sol.value, sol.selected, len(candidates), skipped


def solve_rkpm(inst: SockpInstance, omega, m: int, delta,
               *,
               scheme: str = HORIZONTAL,
               table: SegmentTable | None = None) -> BoundResult:
    """Solve the robust knapsack over the m-segment approximation exactly.

    ``delta`` is the budget of the support-function knapsack; the outer
    budget of the horizontal scheme gives a feasible lower bound (kind
    ``LOWER``) and every other budget, the inner one first, an upper bound
    on the SOC optimum.  Returns the best solution across the pivot family
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
    value, bits, examined, skipped = _solve_family(fam)

    kind = (LOWER if table.scheme == HORIZONTAL
            and delta == table.outer_budget else UPPER)

    _validate_result(inst, table, delta, bits, value, kind, omega_d)
    return BoundResult(solution=bits, objective=value, kind=kind, m=table.m,
                       delta=delta, subproblems_solved=examined,
                       subproblems_skipped=skipped,
                       wall_time=time.perf_counter() - start)


def _validate_result(inst, table, delta, bits, value, kind, omega_d):
    if value != sum(p for p, b in zip(inst.profits, bits) if b):
        raise SolverInvariantError("objective does not match the selection")
    a_int, b_int, pow_da = inst.integer_view()
    used = sum(a for a, b in zip(a_int, bits) if b)
    if (Fraction(used, pow_da) + beta_exact(bits, table, delta)
            > Fraction(b_int, pow_da)):
        raise SolverInvariantError(
            "returned solution violates the robust constraint")
    if kind == LOWER and not is_soc_feasible(bits, inst, omega_d):
        raise SolverInvariantError(
            f"{kind} result is not SOC-feasible")


def upper_bound(inst: SockpInstance, omega, m: int, *,
                scheme: str = HORIZONTAL,
                table: SegmentTable | None = None) -> BoundResult:
    """Upper bound on the SOC optimum (inner approximation budget)."""
    if table is None:
        table = build_segments(inst, as_omega(omega), m, scheme)
    return solve_rkpm(inst, omega, m, table.inner_budget, scheme=scheme,
                      table=table)


def lower_bound(inst: SockpInstance, omega, m: int, *,
                table: SegmentTable | None = None) -> BoundResult:
    """Feasible lower bound on the SOC optimum (outer approximation budget).

    The returned solution is guaranteed SOC-feasible; this is checked in
    exact arithmetic before returning.
    """
    if table is None:
        table = build_segments(inst, as_omega(omega), m, HORIZONTAL)
    return solve_rkpm(inst, omega, m, table.outer_budget, scheme=HORIZONTAL,
                      table=table)


def subproblem_exact(inst: SockpInstance, table: SegmentTable, rank: int,
                     delta) -> tuple[list[Fraction], Fraction]:
    """Exact (weights, capacity) of the pivot-``rank`` subproblem.

    Reference form used by enumeration tests, built from the same prefix
    sums as :meth:`_Family.scaled_subproblem`; rank ``size + 1`` denotes the
    dummy pivot.
    """
    delta = Fraction(delta)
    fam = _Family(inst, table, delta)
    if not 1 <= rank <= table.size + 1:
        raise ValueError(f"pivot rank {rank} out of range")
    rnum, f_i, extra = fam._pivot_parts(rank - 1)
    den = table.q * f_i
    weights = [Fraction(a, fam.pow_da) + Fraction(e, den)
               for a, e in zip(fam.a_int, extra)]
    ratio = Fraction(rnum, den)
    capacity = Fraction(fam.b_int, fam.pow_da) - ratio * delta
    return weights, capacity
