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
so returned lower bounds are always genuinely SOC-feasible.  A pivot's
weights are a_j / 10^da + extra_j / (q f_i), extra_j = f_i sd_j - rnum sf_j
over the item's entries of a strictly larger ratio.  When a block of pivots
is expanded, the exact per-item sums (sd, sf) up to its first prefix end are
taken once, by one bincount each; every row of the block adds its few later
entries to them and forms ``extra`` and the scaled weights as one integer
array (the ceiling by long division, so int64 holds it).  The rows are int64
when a bound check on the family's data allows it and ``object`` arrays of
Python integers otherwise, through the same expressions.  A float Dantzig
screen picks the few pivots whose knapsack must actually be solved.  The
screen bounds blocks of ``SCREEN_BLOCK`` consecutive pivots.
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
passes the incumbent as its floor (plus one when a tie would not win), so
the knapsack fixes items by reduced cost against it (Martello, Pisinger & Toth, Management Science 45(3), 1999;
see :mod:`sockp.knapsack`) and its DP sees only the few items that could
still change a winning selection; pivots whose LP bound falls short of the
incumbent need no DP at all, and neither do blocks, which then are never
bounded pivot by pivot.  Only the winning pivot's selection is
reconstructed, once, at the end.

Pruning is integral (Kellerer, Pferschy & Pisinger, *Knapsack Problems*,
2004, 5.1): a pivot's value V is an integer, and the scaled knapsack
restricts the pivot's true-weight one, so V <= L, its exact LP optimum.  If
every float screen bound B' satisfies |B' - L| <= e, then V <= floor(B' + e):
a bound below the incumbent by more than e ends the pass, and one below
incumbent + 1 - e can at most tie it.  ``_Family.tolerance`` returns
eps = 2e, which also bounds a row bound above its block bound (both within e
of exact LPs that are ordered).  With u = 2^-53 and g(k) = k u / (1 - k u):

    e = g(8n + 16) P + lam * g(2K + 12) M.

*Arithmetic of ``_dantzig_rows``.*  P = sum of the profits bounds every LP
value, every profit partial sum and lam' c' (lam' the break ratio, c' the
capacity).  Against the exact LP of the float data (w', c'), rounding the
profits costs u P; the float ratio order misplaces only items whose ratios
agree to within g(4), at most g(4) P; the profit cumsums are exact below
2^53 and within g(n) P beyond; the weight cumsums err by g(n) (c' + w'_b),
which moves the break point and the room by that much, at most 4 g(n + 1) P;
the fraction p_b room / w_b and the final sum add g(3) P.  All of it is below
g(8n + 16) P.

*Data.*  For any lam >= 0 the dual function U(lam) = lam c + sum_j
max(0, p_j - lam w_j) moves by at most lam H between the exact data and the
float data, H = |c' - c| + sum_j |w'_j - w_j|, and each LP optimum is U at a
break ratio, at most lam = max p_j / (v_j - h_j) over the items with a
positive profit that can weigh anything.  v_j = max(mean_j, 1 / (q f_max))
is the least positive exact weight (every term d - r f of a prefix entry is
at least 1 / (q f_i)), h_j the weight error below; an item of weight zero is
exactly zero in float too.  A float weight mean + sd - r sf sums at most K
gains (K the most entries of one item) and takes six more roundings, so
h_j <= g(K + 6) (mean_j + 2 G_j), G_j the item's total gain >= sd >= r sf;
the capacity b - r delta >= 0 takes six roundings, |c' - c| <= g(6) 2b.
Doubling the counts absorbs the float evaluation of e itself: H <= g(2K +
12) M, M = 2b + sum_j (mean_j + 2 G_j).  If some v_j <= h_j, eps is
infinite: nothing is pruned and every result stays exact.  On the benchmark
instances (n = 100-400, m up to 640) eps is 1e-8 to 1e-7.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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

# Integer scale of every pivot knapsack's weights and capacity, a power of ten.
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


class _Rows(NamedTuple):
    """Exact integer arrays of a family's pivot rows, all in one dtype."""

    dnum: np.ndarray  # table gain numerators, in table order
    f: np.ndarray  # table budgets, in table order
    a: np.ndarray  # integer means a_j = mean_j * 10^da
    a_part: np.ndarray | None  # SCALE * a / 10^da, if 10^da divides SCALE
    profits: np.ndarray


def _ceil_scaled(x, den: int):
    """ceil(SCALE * x / den) of a nonnegative integer array, exactly.

    One division when SCALE divides den (omega and the dispersions carry
    six or more decimals between them); otherwise long division in base-100
    digits (SCALE = 10^6 has three).  No intermediate exceeds 100 * den or
    the result, so int64 holds them whenever it holds those two.  The same
    expressions run on ``object`` arrays of Python integers.
    """
    if den % SCALE == 0:
        return -(-x // (den // SCALE))
    quot = x // den
    rem = x - quot * den
    left = SCALE
    while left > 1:
        step = 100 if left % 100 == 0 else left
        rem = rem * step
        digit = rem // den
        rem -= digit * den
        quot = quot * step + digit
        left //= step
    return quot + (rem > 0)


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
        self.r = np.append(table.d_float / table.f, 0.0)
        self.caps = np.maximum(self.cap_f - self.r * (self.dn / self.dd), 0.0)
        self.group_start = np.append(table.group_start, table.size)
        self.js = table.js

    def _pivot(self, i: int):
        """(prefix end, rnum, f_i) of the pivot at sorted index i: ratio
        rnum / (q * f_i); index ``size`` is the dummy (ratio 0, full prefix).
        All three are Python ints, so exact products never meet int64."""
        t = self.table
        if i == t.size:
            return t.size, 0, 1
        return int(t.group_start[i]), int(t.dnum[i]), int(t.f[i])

    def capacity_is_negative(self, i: int) -> bool:
        """Exact sign of cap - r * delta for the pivot at sorted index i."""
        _, rnum, f_i = self._pivot(i)
        return (self.b_int * self.table.q * f_i * self.dd
                < rnum * self.dn * self.pow_da)

    @functools.cached_property
    def _rows(self) -> _Rows:
        """Exact integer data of the pivot rows, int64 where a bound allows.

        The bound covers every value :meth:`subproblem` forms: per-item sums
        below 2**53 (so float bincounts are exact), the two products of
        ``extra``, 100 times the long-division denominator q * f_i, and the
        scaled weights.  When 10^da does not divide ``SCALE`` the mean part
        of a weight is no integer, and the rows are ``object`` arrays.
        """
        t = self.table
        unit, rest = divmod(SCALE, self.pow_da)
        gain = t.item_total_dnum.max(initial=0)
        f_max = int(t.f.max(initial=1))
        f_item = int(np.bincount(self.js, weights=t.f, minlength=1).max())
        fits = (rest == 0 and gain < 2 ** 53
                and f_max * gain < 2 ** 62
                and t.dnum.max(initial=0) * f_item < 2 ** 62
                and 100 * t.q * f_max < 2 ** 63
                and unit * max(self.a_int, default=0)
                + SCALE * (gain // t.q + 1) < 2 ** 62)
        dtype = np.int64 if fits else object
        a = np.array(self.a_int, dtype=dtype)
        profits = np.array(self.inst.profits, dtype=np.int64
                           if max(self.inst.profits, default=0) < 2 ** 63
                           else object)
        return _Rows(dnum=t.dnum.astype(dtype), f=t.f.astype(dtype), a=a,
                     a_part=unit * a if rest == 0 else None, profits=profits)

    def block_sums(self, i: int):
        """Exact per-item (dnum, f) sums over the prefix of the pivot at i.

        Returns (end, sd, sf): the prefix end group_start[i] and two
        n-vectors in the rows' dtype, from which :meth:`subproblem` builds
        the row of this pivot or of any later one.
        """
        rows = self._rows
        end = int(self.group_start[i])
        js = self.js[:end]
        n = self.inst.n
        if rows.dnum.dtype == object:
            sd = np.zeros(n, dtype=object)
            sf = np.zeros(n, dtype=object)
            np.add.at(sd, js, rows.dnum[:end])
            np.add.at(sf, js, rows.f[:end])
        else:
            # Float sums of integers below 2**53 are exact.
            sd = np.bincount(js, weights=rows.dnum[:end], minlength=n)
            sf = np.bincount(js, weights=rows.f[:end], minlength=n)
            sd, sf = sd.astype(np.int64), sf.astype(np.int64)
        return end, sd, sf

    def subproblem(self, i: int, sums) -> KnapsackSubproblem:
        """Exact conservatively scaled knapsack of the pivot at index i.

        The pivot's exact weights are a_j / 10^da + extra_j / (q * f_i) with
        extra_j = f_i * sd_j - rnum * sf_j over its strict-ratio prefix, and
        its capacity is b / 10^da - ratio * delta.  ``sums`` are the
        :meth:`block_sums` of pivot i or of an earlier pivot; the few table
        entries between their end and pivot i's prefix end are added here.
        Weights are ceil'd and the capacity floor'd at ``SCALE``.
        """
        rows = self._rows
        end, sd, sf = sums
        gs, rnum, f_i = self._pivot(i)
        extra = f_i * sd - rnum * sf
        if gs > end:
            np.add.at(extra, self.js[end:gs],
                      f_i * rows.dnum[end:gs] - rnum * rows.f[end:gs])
        if (extra < 0).any():
            raise SolverInvariantError(
                "negative modified weight; ratio ordering violated")
        qf = self.table.q * f_i
        if rows.a_part is not None:
            weights = rows.a_part + _ceil_scaled(extra, qf)
        else:
            weights = _ceil_scaled(rows.a * qf + self.pow_da * extra,
                                   self.pow_da * qf)
        capacity = (SCALE * (self.b_int * qf * self.dd
                             - rnum * self.dn * self.pow_da)
                    // (self.pow_da * qf * self.dd))
        return KnapsackSubproblem(profits=rows.profits, weights=weights,
                                  capacity=capacity)

    def tolerance(self) -> float:
        """The pruning tolerance ε of this family (see the module docstring).

        Twice a bound on the float error of any screen bound; infinite when
        some positive weight cannot be told from zero in float.
        """
        t = self.table
        unit = 2.0 ** -53

        def gamma(k):
            return k * unit / (1 - k * unit)

        gains = (t.item_total_dnum / t.q).astype(float)
        data = gamma(2 * int(np.bincount(self.js, minlength=1).max()) + 12)
        eta = data * (self.means_f + 2 * gains)
        weighs = (self.profits_f > 0) & ((self.means_f > 0) | (gains > 0))
        least = np.maximum(self.means_f, 1 / (t.q * int(t.f.max(initial=1))))
        room = (least - eta)[weighs]
        if (room <= 0).any():
            return math.inf
        ratio = float((self.profits_f[weighs] / room).max(initial=0.0))
        arith = gamma(8 * self.inst.n + 16) * float(sum(self.inst.profits))
        spread = data * (2 * self.cap_f + self.means_f.sum() + 2 * gains.sum())
        return 2 * (arith + ratio * spread)

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

    def expand(self, first: int, stop: int):
        """Dantzig bounds of the pivots at indices first..stop-1.

        Returns (bounds, sums).  Each bound is the LP relaxation of the
        pivot's own (unscaled, true-weight) subproblem in float arithmetic,
        within half of :meth:`tolerance` of its exact value.  ``sums`` are
        the exact :meth:`block_sums` of the first pivot, which also give the
        float prefix sums of the rows; the rows' knapsacks are built from
        them.
        """
        sums = self.block_sums(first)
        _, sd, sf = sums
        weights = self._pivot_weights(np.arange(first, stop),
                                      (sd / self.table.q).astype(float),
                                      sf.astype(float))
        return (_dantzig_rows(self.profits_f, weights, self.caps[first:stop]),
                sums)

    def _prefix_sums(self, lo: int, hi: int):
        """Float per-item (d, f) sums over the table entries lo..hi-1."""
        t = self.table
        js = self.js[lo:hi]
        n = self.inst.n
        return (np.bincount(js, weights=t.d_float[lo:hi], minlength=n),
                np.bincount(js, weights=t.f[lo:hi], minlength=n))

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
        sf = np.cumsum(np.bincount(key, weights=t.f[g0:g1],
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
    integers and every value is at most its screen bound plus ε
    (:meth:`_Family.tolerance`), so the pass stops at the first bound below
    the incumbent by more than ε and skips a bound below incumbent + 1 - ε,
    which can at most tie it, when its rank is larger.  A heap keyed
    (-bound, first index) holds the screen's blocks; a block that reaches
    the top and passes both rules is replaced by its pivots' own bounds, so
    the pivots still leave the heap in that order.  Each row entry carries
    its block's exact prefix sums, from which its knapsack is built.  Every
    value solve but the first gets a floor: the incumbent for a smaller
    rank, which wins a tie, and the incumbent + 1 for a larger one, which
    must beat it.  A solve is exact whenever it reaches its floor, so it is
    exact whenever its pivot would win; only the winner is reconstructed.
    """
    blocks, skipped = fam.screen()
    eps = fam.tolerance()
    heap = [(-bound, first, stop, None) for first, stop, bound in blocks]
    heapq.heapify(heap)

    best_value = 0
    best_rank = None
    best_problem = None
    while heap:
        # (-bound, index) is unique on the heap: the sums are never compared.
        neg_bound, i, stop, sums = heapq.heappop(heap)
        bound, rank = -neg_bound, i + 1
        if best_rank is not None:
            if bound < best_value - eps:
                break
            if bound < best_value + 1 - eps and rank > best_rank:
                continue
        if stop - i > 1:
            rows, sums = fam.expand(i, stop)
            if rows.max() > bound + eps:
                raise SolverInvariantError(
                    f"pivots {rank}..{stop} have a bound {rows.max():.3f} "
                    f"above their block bound {bound:.3f}")
            for k, row in enumerate(rows.tolist(), start=i):
                heapq.heappush(heap, (-row, k, k + 1, sums))
            continue
        if sums is None:
            sums = fam.block_sums(i)
        problem = fam.subproblem(i, sums)
        value = solve_knapsack_value(
            problem, floor=None if best_rank is None
            else best_value + (rank > best_rank))
        if value > bound + eps:
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
    together with bookkeeping counts.  A supplied ``table`` must have been
    built for this m, scheme, omega and the instance's dispersions.
    """
    start = time.perf_counter()
    omega_d = as_omega(omega)
    if table is None:
        table = build_segments(inst, omega_d, m, scheme)
    elif ((table.m, table.scheme, table.omega, table.sigmas)
          != (m, scheme, omega_d, inst.sigmas)):
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

    Independent ``Fraction`` reference of the pivot rows, for tests: weight_j
    = mean_j + sum of d - ratio * f over item j's entries of a strictly larger
    ratio, capacity = capacity - ratio * delta.  Rank ``size + 1`` denotes the
    dummy pivot (ratio 0, every entry).
    """
    delta = Fraction(delta)
    if not 1 <= rank <= table.size + 1:
        raise ValueError(f"pivot rank {rank} out of range")
    if rank == table.size + 1:
        end, ratio = table.size, Fraction(0)
    else:
        end = int(table.group_start[rank - 1])
        ratio = Fraction(table.dnum[rank - 1],
                         table.q * int(table.f[rank - 1]))
    sd, sf = table.prefix_state(end)
    weights = [Fraction(mean) + Fraction(d, table.q) - ratio * f
               for mean, d, f in zip(inst.means, sd, sf)]
    return weights, Fraction(inst.capacity) - ratio * delta
