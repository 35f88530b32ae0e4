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
answers.  The screen bounds blocks of ``SCREEN_BLOCK`` consecutive pivots.
Down the family the ratio r falls and the strict-ratio prefix grows by
entries of ratio above r, so every item's pivot weight and the pivot
capacity are nondecreasing in the index: the knapsack with a block's first
weight row and its last capacity relaxes every pivot in it, and its LP bound
dominates theirs.  The block rows are bounded as matrices: their prefix
gain/budget sums come from one bincount and cumsum over a chunk's table
entries, and their LP bounds from a row-wise argsort, cumsum and break
count, with every temporary array kept near ``SCREEN_CHUNK`` elements.

The family is solved in one sequential pass over the pivots in (bound desc,
rank asc) order.  A heap holds the blocks; a block that reaches its top and
could still hold the winner is expanded into its pivots' own LP bounds,
computed the same way, which go back on the heap.  Each exact value solve
passes the incumbent as its floor, so the knapsack fixes items by reduced
cost against it (Martello, Pisinger & Toth, Management Science 45(3), 1999;
see :mod:`sockp.knapsack`) and its DP sees only the few items that could
still change a winning selection; pivots whose LP bound falls short of the
incumbent need no DP at all, and neither do blocks, which then are never
bounded pivot by pivot.  Only the winning pivot's selection is
reconstructed, once, at the end.
"""

from __future__ import annotations

import bisect
import heapq
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

# Consecutive pivots bounded together by the screen.
SCREEN_BLOCK = 64


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
        # Per pivot index, the dummy last: ratio, capacity (negative ones
        # clipped to 0), end of the strict-ratio prefix.
        self.r = np.append(table.d_float / table.f_int, 0.0)
        self.caps = np.maximum(self.cap_f - self.r * (self.dn / self.dd), 0.0)
        self.group_start = np.append(
            np.asarray(table.group_start, dtype=np.intp), table.size)
        self.js = np.asarray(table.js, dtype=np.intp)

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
        """Dantzig bounds of blocks of consecutive pivots.

        Returns ([(first, stop, bound)], skipped): block indices first..stop-1
        in family order, with a float LP bound that dominates the bound of
        every pivot in the block (see :meth:`expand`).  Blocks hold
        ``SCREEN_BLOCK`` pivots, the last one possibly fewer.  The pivots
        with a negative capacity are a prefix of the family, found by an
        exact bisection and counted as skipped.

        Every pivot weight means + sd - r * sf is nondecreasing in the index:
        r falls, which raises each prefix term d - r * f, and the entries that
        join the prefix have a ratio above r, so their terms are positive.
        The capacity cap - r * delta rises too.  The knapsack with a block's
        first weight row and its last capacity therefore relaxes every pivot
        in the block.  Those rows are bounded as matrices, a chunk of blocks
        at a time, so the screen sorts one weight row per block, not per pivot.
        """
        t = self.table
        lh = t.lhat(self.delta)
        first = t.size if lh is None else lh - 1  # first real pivot index
        start = bisect.bisect_left(
            range(t.size + 1), True, lo=first,
            key=lambda i: not self.capacity_is_negative(i))
        firsts = np.arange(start, t.size + 1, SCREEN_BLOCK)
        stops = np.minimum(firsts + SCREEN_BLOCK, t.size + 1)
        group_start = self.group_start[firsts]
        bounds = np.empty(len(firsts))
        rows = max(1, SCREEN_CHUNK // max(self.inst.n, 1))
        # Float per-item (d, f) sums over the first `upto` table entries.
        sd = sf = 0.0
        upto = c0 = 0
        while c0 < len(firsts):
            # The chunk spans at most `rows` blocks and SCREEN_CHUNK entries.
            g0 = int(group_start[c0])
            c1 = min(c0 + rows, int(np.searchsorted(
                group_start, g0 + SCREEN_CHUNK, side="right")))
            d, f = self._prefix_sums(upto, g0)
            sd, sf, upto = sd + d, sf + f, g0
            weights = self._pivot_weights(firsts[c0:c1], sd, sf)
            bounds[c0:c1] = _dantzig_rows(self.profits_f, weights,
                                          self.caps[stops[c0:c1] - 1])
            c0 = c1
        blocks = list(zip(firsts.tolist(), stops.tolist(), bounds.tolist()))
        return blocks, start - first

    def expand(self, first: int, stop: int) -> np.ndarray:
        """Dantzig bound of each pivot at indices first..stop-1.

        Each bound is the LP relaxation of the pivot's own (unscaled,
        true-weight) subproblem in float arithmetic; it dominates the scaled
        integer optimum up to ~1e-8, absorbed by the callers' 0.5 margins.
        The prefix sums up to the first pivot are rebuilt by one bincount.
        """
        sd, sf = self._prefix_sums(0, int(self.group_start[first]))
        weights = self._pivot_weights(np.arange(first, stop), sd, sf)
        return _dantzig_rows(self.profits_f, weights, self.caps[first:stop])

    def _prefix_sums(self, lo: int, hi: int):
        """Float per-item (d, f) sums over the table entries lo..hi-1."""
        t = self.table
        js = self.js[lo:hi]
        n = self.inst.n
        return (np.bincount(js, weights=t.d_float[lo:hi], minlength=n),
                np.bincount(js, weights=t.f_int[lo:hi], minlength=n))

    def _pivot_weights(self, idx, sd0, sf0):
        """Float weight rows means + sd - r * sf of the pivots at indices idx.

        ``idx`` is increasing, so the prefix ends group_start[idx] are
        nondecreasing.  ``sd0``/``sf0`` are the sums up to the first prefix
        end; one bincount of the entries up to the last one, keyed by the
        first row whose prefix holds them, and a cumsum give every row.
        """
        t = self.table
        n = self.inst.n
        ends = self.group_start[idx]
        g0, g1 = int(ends[0]), int(ends[-1])
        key = np.searchsorted(ends, np.arange(g0, g1), side="right") * n
        key += self.js[g0:g1]
        cells = len(idx) * n
        shape = (len(idx), n)
        sd = np.cumsum(np.bincount(key, weights=t.d_float[g0:g1],
                                   minlength=cells).reshape(shape),
                       axis=0, dtype=float)
        sf = np.cumsum(np.bincount(key, weights=t.f_int[g0:g1],
                                   minlength=cells).reshape(shape),
                       axis=0, dtype=float)
        sd += self.means_f + sd0
        sf += sf0
        sd -= self.r[idx, None] * sf
        return sd


def _dantzig_rows(profits: np.ndarray, weights: np.ndarray,
                  caps: np.ndarray) -> np.ndarray:
    """Float Dantzig (LP relaxation) bound of each weight row.

    Row k is a knapsack with the shared ``profits``, weights ``weights[k]``
    and the nonnegative capacity ``caps[k]``.
    """
    rows, n = weights.shape
    if not n:
        return np.zeros(rows)
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

    One pass over the pivots in (bound desc, rank asc) order keeps the
    largest value and, among equal values, the smallest rank.  Values are
    integers and every screen bound dominates its pivot's value, so the pass
    stops at the first bound below the incumbent by more than 0.5 and skips a
    bound that can at most tie it when its rank is larger.  A heap keyed
    (-bound, first index) holds the screen's blocks; a block that reaches
    the top and passes both rules is replaced by its pivots' own bounds, so
    the pivots still leave the heap in that order.  Every value solve but
    the first gets the incumbent as its floor, so it is exact whenever it
    ties or beats the incumbent; only the winner is reconstructed.
    """
    blocks, skipped = fam.screen()
    heap = [(-bound, first, stop) for first, stop, bound in blocks]
    heapq.heapify(heap)

    best_value = 0
    best_rank = None
    best_problem = None
    while heap:
        neg_bound, i, stop = heapq.heappop(heap)
        bound, rank = -neg_bound, i + 1
        if best_rank is not None:
            if bound < best_value - 0.5:
                break
            if bound < best_value + 0.5 and rank > best_rank:
                continue
        if stop - i > 1:
            rows = fam.expand(i, stop)
            if rows.max() > bound + 0.5:
                raise SolverInvariantError(
                    f"pivots {rank}..{stop} have a bound {rows.max():.3f} "
                    f"above their block bound {bound:.3f}")
            for k, row in enumerate(rows.tolist(), start=i):
                heapq.heappush(heap, (-row, k, k + 1))
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

    examined = sum(stop - first for first, stop, _ in blocks)
    if best_problem is None:
        # Entire family empty; only possible with a negative capacity.
        return 0, (0,) * fam.inst.n, examined, skipped
    sol = solve_knapsack(best_problem, floor=best_value)
    return sol.value, sol.selected, examined, skipped


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
