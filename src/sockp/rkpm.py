"""Bounds for the SOC-constrained knapsack via a family of ordinary knapsacks.

The robust problem over the polyhedral approximation decomposes into one
ordinary 0/1 knapsack per pivot segment: pivot l with gain/budget ratio r
contributes the feasible set

    sum_j mean_j x_j + sum_{l' before l} (d_l' - r f_l') x_{j(l')} <= cap - r * delta,

where "before" means strictly greater d/f ratio, plus a final subproblem with
weights mean_j + sum_k d_jk and the plain capacity for the zero-ratio dummy
pivot.  The best solution over the family solves the robust problem exactly.
A family has one of two kinds, and the kind sets its budget: ``UPPER`` takes
the inner budget delta = m^2 (m in the vertical scheme) and yields an upper
bound on the SOC optimum, ``LOWER`` the outer budget delta = m^2 + n/4 of
the horizontal scheme and yields a feasible lower bound.

The family is one index range over the table sorted by falling ratio: from
the first pivot, the first entry whose running budget reaches delta, to
index ``size``, the dummy.  That is the table's last entry, a pivot of
ratio zero whose prefix is every entry of a positive ratio.  The pivot
capacity cap - r * delta rises with the index, so the pivots with a
negative capacity are a prefix of the range; one exact bisection finds
where it ends, and those pivots are counted as skipped.  The rest are the
pivots screened.

Every pivot has one form: an integer knapsack, its weights and capacity
times one factor S and rounded.  The range tree bounds it, the family pass
prunes by it and the DP solves it.  S is ``SCALE`` = 10^6 steps per unit of
the smallest positive mean, refined to a multiple on whose grid every mean
and the capacity are integers, so only the gains are rounded.  Both kinds
round outward, weights down and capacity up, so the scaled family relaxes
the robust problem of its budget.  If its winner still breaks the robust
constraint, by an exact excess e, it came in through the rounding, and the
family is solved again on a grid S * 10^k with S * 10^k * e >= n + 1, on
which rounding cannot admit it; a winner that meets the constraint is then
the exact robust optimum.  So a ``LOWER`` result is the robust optimum over
the outer approximation, SOC-feasible because that polytope contains the
ellipsoid.  A pivot's weights are mean_j + extra_j / (q f_i), extra_j =
f_i sd_j - rnum sf_j over the item's entries of a strictly larger ratio,
with the gains over the table's denominator q, so a scaled weight is
S mean_j plus S extra_j / (q f_i) rounded.  Within an item the ratios
fall with the segment, so those entries are its first k_j segments and
their sums are closed forms in k_j (see :class:`~sockp.approx.SegmentTable`):
:meth:`_Family.weights` builds the rows of any pivots as one matrix from
their counts, with no state carried between rows, and rounds them by one
division.  The family keeps no per-entry state: it reads each pivot's
gain numerator and budget from the table as it builds the pivot's row.
The rows are int64 when a bound check on the family's data allows it and
``object`` arrays of Python integers otherwise, through the same
expressions.

Down the family the ratio r falls and the strict-ratio prefix grows by
entries of ratio above r, so every item's pivot weight and the pivot
capacity are nondecreasing in the index, and so are their roundings: the
scaled knapsack with a range's first weight row and its last capacity
relaxes every scaled pivot knapsack in the range.  :meth:`_Family.split`
cuts a range into at most ``SCREEN_BLOCK`` (8) parts and builds the row of
each, its first weight row and its last capacity, in one weight matrix, so
the screened pivots form a tree of ranges, eight to a split, whose leaves
are the pivots, and every range carries the one knapsack that relaxes it.

Every bound, of a range or of a pivot, is the integer LP (Lagrangian) bound
of :func:`sockp.knapsack.lp_rows`, which holds whatever break item the float
ratio order picks.  A row's break item and greedy value come from the same
call and go to its value solve.

The family is solved in one sequential pass over the pivots in (bound desc,
rank asc) order.  A heap holds disjoint ranges, from the split of the whole
family.  A range that reaches its top and could still hold the winner is
value-solved exactly, once there is an incumbent, with the floor its first
pivot would get: a value below the floor drops the whole range, as no
pivot in it can reach the floor, and otherwise the range is replaced by its
split, each child keyed by the smallest of its own bound, its parent's and
that value (bounding by relaxation, the classic step of knapsack branch and
bound; Kellerer, Pferschy & Pisinger, *Knapsack Problems*, 2004, ch. 5).
So ranges under a dropped one are never bounded, and a pivot that reaches
the top is value-solved the same way.  A bound below the incumbent ends the
pass, and one equal to it can at most tie, so it is skipped for a larger
rank.  Each exact value solve passes the incumbent as its floor (plus one
when a tie would not win), so the knapsack fixes items by reduced cost and,
for a wide DP, by the cardinality bound against it (Martello, Pisinger &
Toth, Management Science 45(3), 1999; see :mod:`sockp.knapsack`), often
drops the solve outright, and its DP sees only the few items that could
still change a winning selection.  Only the winning pivot's selection is
reconstructed, once, at the end.
"""

from __future__ import annotations

import bisect
import heapq
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .approx import HORIZONTAL, SegmentTable, beta_exact, build_segments
from .knapsack import (KnapsackSubproblem, SolverInvariantError, lp_rows,
                       solve_knapsack, solve_knapsack_value)
from .model import SockpInstance, as_omega, is_soc_feasible

__all__ = [
    "BoundResult",
    "SolverInvariantError",
    "UPPER",
    "LOWER",
    "EXACT",
    "lower_bound",
    "upper_bound",
]

UPPER = "upper"
LOWER = "lower"
EXACT = "exact"

# Integer scale of every pivot knapsack's weights and capacity, a power of ten.
SCALE = 10 ** 6

# Fan-out of the range tree, and the most rows of any weight matrix.
SCREEN_BLOCK = 8


@dataclass(frozen=True)
class BoundResult:
    """Outcome of one bound computation (or of the exact doubling solve).

    ``subproblems_solved`` counts the pivots screened, the family size less
    ``subproblems_skipped`` (the pivots with a negative capacity), not the
    knapsacks solved: most screened pivots are pruned by their bound.
    """

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
    """Shared exact data for one (instance, table, kind) family.

    Means and capacity come over the scale of
    :meth:`SockpInstance.exact_view`, gains over the table's q, which that
    scale need not divide: a table built for an instance with fewer mean
    digits serves too.  ``b`` is the capacity over ``scale``, ``whole`` the
    scaled means factor * mean_j, and ``profits`` the profits.  ``kind``,
    ``UPPER`` or ``LOWER``, is the bound the family gives: it sets
    ``delta``, the table's inner or outer budget.  ``gains`` are the
    table's ``base`` over q.  ``factor`` is the grid S of the module
    docstring unless one is given.  The arrays are int64 where a bound
    allows and ``object`` arrays of Python integers otherwise.  The bound
    covers every value :meth:`weights` forms: the per-item sums, the two
    products of ``extra``, the numerator and the divisor of the rounding
    division, and the scaled weights.  It takes the largest gain numerator
    and budget of an entry in closed form, max(base) * max(D[k] - D[k-1])
    and max(F[k] - F[k-1]), so the family reads no per-entry array: the
    pivots' columns of the table are cast to its dtype as they are read.
    """

    def __init__(self, inst: SockpInstance, table: SegmentTable, kind: str,
                 factor: int | None = None):
        self.inst = inst
        self.table = table
        self.delta = delta = (table.outer_budget if kind == LOWER
                              else table.inner_budget)
        a_int, self.b, _, self.scale = inst.exact_view(table.omega)
        if factor is None:
            a_min = min((a for a in a_int if a > 0), default=self.scale)
            factor = math.lcm(
                SCALE * 10 ** max(0, len(str(self.scale)) - len(str(a_min))),
                self.scale // math.gcd(self.scale, self.b, *a_int))
        self.factor = factor
        self.dn, self.dd = delta.numerator, delta.denominator
        g0 = math.gcd(self.factor, table.q)
        self.mult, self.div = self.factor // g0, table.q // g0
        whole = [self.factor * a // self.scale for a in a_int]
        g_max = table.base.max(initial=0)
        total = g_max * int(table.D[-1])
        f_max = int(np.diff(table.F).max())
        fits = (self.mult * f_max * total < 2 ** 62
                and self.div * f_max < 2 ** 62
                and g_max * int(np.diff(table.D).max()) * int(table.F[-1])
                < 2 ** 62
                and max(whole, default=0)
                + self.factor * (total // table.q + 1) < 2 ** 62)
        dtype = np.int64 if fits else object
        self.gains = table.base.astype(dtype)
        self.whole = np.array(whole, dtype=dtype)
        self.profits = np.array(inst.profits, dtype=np.int64
                                if max(inst.profits, default=0) < 2 ** 63
                                else object)

    def weights(self, idx) -> np.ndarray:
        """Scaled weight rows of the pivots at ``idx``, rounded down.

        Pivot i's exact weights are mean_j + extra_j / (q * f_i) with
        extra_j = f_i * sd_j - rnum * sf_j over the item's entries of a
        strictly larger ratio: its first k_j segments, of the table's
        :meth:`~sockp.approx.SegmentTable.counts`, so sd_j = gain_j * D[k_j]
        and sf_j = F[k_j].  At the factor they are whole_j + factor *
        extra_j / (q * f_i), floored by one division with g0 = gcd(factor,
        q) taken out of both sides.  Returns a (len(idx), n) array in the
        family's dtype.
        """
        t, dtype = self.table, self.gains.dtype
        rnum, f = t.dnum[idx, None].astype(dtype), t.f[idx, None].astype(dtype)
        k = t.counts(self.gains, rnum, f)
        extra = f * self.gains * t.D[k] - rnum * t.F[k]
        return self.whole + self.mult * extra // (self.div * f)

    def capacities(self, idx) -> list[int]:
        """Scaled capacities factor * (b / scale - ratio * delta) of the
        pivots at ``idx``, rounded up, as Python ints."""
        t, caps = self.table, []
        for i in idx:
            den = t.q * int(t.f[i]) * self.dd
            num = self.factor * (self.b * den - int(t.dnum[i]) * self.dn
                                 * self.scale)
            caps.append(-(-num // (self.scale * den)))
        return caps

    def start(self) -> tuple[int, int]:
        """(Index of the first pivot with a nonnegative capacity, count of
        the family's pivots before it), by one exact bisection.  The family
        starts at the first index whose running budget reaches delta, or at
        the dummy, index ``size``, if none does."""
        t = self.table
        # Running budgets lie in [1, n F[m]]: clipping keeps delta's place.
        first = int(np.searchsorted(np.cumsum(t.f), min(
            math.ceil(self.delta), t.n * int(t.F[-1]) + 1)))
        start = bisect.bisect_left(
            range(t.size + 1), True, lo=first,
            key=lambda i: self.capacities([i])[0] >= 0)
        return start, start - first

    def split(self, first: int, stop: int):
        """Integer LP bounds of the ranges that cut pivots first..stop-1.

        At most ``SCREEN_BLOCK`` ranges, aligned at ``first``, each span the
        largest power of ``SCREEN_BLOCK`` below stop - first, the last
        possibly fewer.  Returns [(first, stop, lp, row)]: the range's row
        (weights, capacity), its first weight row and last capacity, which
        relaxes every pivot in it (see the module docstring) and is a
        pivot's own row for one pivot, and that row's :func:`lp_rows` tuple,
        bound last.  The weight rows are views of one matrix.
        """
        span = 1
        while span * SCREEN_BLOCK < stop - first:
            span *= SCREEN_BLOCK
        firsts = np.arange(first, stop, span)
        stops = np.minimum(firsts + span, stop)
        weights = self.weights(firsts)
        caps = self.capacities(stops - 1)
        return list(zip(firsts.tolist(), stops.tolist(),
                        lp_rows(self.profits, weights, caps),
                        zip(weights, caps)))


def _solve_family(fam: _Family):
    """Best (value, bits) over the pivot family, with screen/skip counts.

    One pass over the pivots in (bound desc, rank asc) order keeps the
    largest value and, among equal values, the smallest rank.  Values are
    integers and every value is at most its integer bound, so the pass stops
    at the first bound below the incumbent and skips a bound equal to it,
    which can at most tie, when its rank is larger.  A heap keyed
    (-bound, first index) holds disjoint ranges, from the split of the
    family.  A range that reaches the top and passes both rules is
    value-solved with its row and :func:`lp_rows` tuple, a range of several
    pivots only once there is an incumbent.  The floor is the incumbent for
    a smaller first rank, which wins a tie, and the incumbent + 1 for a
    larger one, which must beat it; ranks in a range are all on one side of
    the incumbent's, which left the heap as a pivot.  A solve reaches its
    floor, and is then exact, whenever its row's optimum does, so a value
    below the floor drops the range: no pivot in it can win.  Otherwise a
    range of several pivots is replaced by its split, each part keyed by
    the smallest of its own bound, the range's and the range's value, so
    the pivots still leave the heap in that order, and a pivot becomes the
    incumbent.  Only the winner is reconstructed.
    """
    start, skipped = fam.start()
    heap = [(-lp[3], first, stop, lp, row)
            for first, stop, lp, row in fam.split(start, fam.table.size + 1)]
    heapq.heapify(heap)

    # No pivot yet: value -1 is below every value and rank 0 below every
    # rank, so the first row solved gets floor 0 and wins.
    best_value, best_rank, best_problem = -1, 0, None
    while heap:
        # Ranges are disjoint: (-bound, index) is unique, rows never compared.
        neg_bound, i, stop, lp, row = heapq.heappop(heap)
        bound, rank = -neg_bound, i + 1
        if bound < best_value:
            break
        if bound == best_value and rank > best_rank:
            continue
        if stop - i == 1 or best_problem is not None:
            weights, cap = row
            # A copy, so that no caller holding the problem keeps the matrix.
            problem = KnapsackSubproblem(profits=fam.profits,
                                         weights=weights.copy(), capacity=cap)
            floor = best_value + (rank > best_rank)
            value = solve_knapsack_value(problem, floor=floor, lp=lp)
            if value > bound:
                raise SolverInvariantError(
                    f"range {rank}..{stop} has value {value} "
                    f"above its screen bound {bound}")
            if value < floor:
                continue
            bound = value
        if stop - i > 1:
            for first, end, child_lp, child in fam.split(i, stop):
                heapq.heappush(heap, (-min(child_lp[3], bound), first, end,
                                      child_lp, child))
            continue
        best_value, best_rank, best_problem = value, rank, problem

    sol = solve_knapsack(best_problem, floor=best_value)
    return sol.value, sol.selected, fam.table.size + 1 - start, skipped


def _solve(inst: SockpInstance, omega, m: int, kind: str, scheme: str,
           table: SegmentTable | None) -> BoundResult:
    """The bound of ``kind`` over the m-segment approximation, solved exactly.

    Returns the best solution across the pivot family of the kind's budget
    together with bookkeeping counts.  A supplied ``table`` must have been
    built for this m, scheme, omega and the instance's dispersions; without
    one, the table is built here and timed with the solve.
    """
    start = time.perf_counter()
    omega_d = as_omega(omega)
    if table is None:
        table = build_segments(inst, omega_d, m, scheme)
    elif ((table.m, table.scheme, table.omega, table.sigmas)
          != (m, scheme, omega_d, inst.sigmas)):
        raise ValueError("supplied segment table does not match the arguments")

    fam = _Family(inst, table, kind)
    examined = skipped = 0
    while True:
        value, bits, screened, dropped = _solve_family(fam)
        examined += screened
        skipped += dropped
        excess = _robust_excess(inst, table, fam.delta, bits, omega_d)
        if excess <= 0:
            break
        # The relaxation took a selection past the robust constraint.  At
        # every pivot its load exceeds the capacity by at least the excess,
        # and rounding moves that by less than n + 1 grid steps, so a grid
        # on which the excess spans n + 1 steps leaves the selection out;
        # correct rows never return it on such a grid.
        if fam.factor * excess >= inst.n + 1:
            raise SolverInvariantError(
                f"the winner breaks the robust constraint by {excess}, "
                "more than the grid's rounding allows")
        factor = 10 * fam.factor
        while factor * excess < inst.n + 1:
            factor *= 10
        fam = _Family(inst, table, kind, factor)
    _validate_result(inst, bits, value, kind, omega_d)
    return BoundResult(solution=bits, objective=value, kind=kind,
                       m=table.m, delta=fam.delta, subproblems_solved=examined,
                       subproblems_skipped=skipped,
                       wall_time=time.perf_counter() - start)


def _robust_excess(inst, table, delta, bits, omega_d) -> Fraction:
    """Exact amount by which the selection's robust load exceeds the
    capacity: at most 0 iff it meets the robust constraint."""
    a_int, b_int, _, scale = inst.exact_view(omega_d)
    used = sum(a for a, b in zip(a_int, bits) if b)
    return beta_exact(bits, table, delta) - Fraction(b_int - used, scale)


def _validate_result(inst, bits, value, kind, omega_d):
    if value != sum(p for p, b in zip(inst.profits, bits) if b):
        raise SolverInvariantError("objective does not match the selection")
    if kind == LOWER and not is_soc_feasible(bits, inst, omega_d):
        raise SolverInvariantError(
            f"{kind} result is not SOC-feasible")


def upper_bound(inst: SockpInstance, omega, m: int, *,
                scheme: str = HORIZONTAL,
                table: SegmentTable | None = None) -> BoundResult:
    """Upper bound on the SOC optimum: the robust optimum over the inner
    approximation (budget m^2, or m in the vertical scheme).

    A supplied ``table`` must have been built for this m, scheme, omega and
    the instance's dispersions; without one, the table is built and timed
    with the solve.
    """
    return _solve(inst, omega, m, UPPER, scheme, table)


def lower_bound(inst: SockpInstance, omega, m: int, *,
                table: SegmentTable | None = None) -> BoundResult:
    """Feasible lower bound on the SOC optimum: the robust optimum over the
    outer approximation (budget m^2 + n/4, horizontal scheme only).

    The returned solution is guaranteed SOC-feasible; this is checked in
    exact arithmetic before returning.  ``table`` is as for
    :func:`upper_bound`.
    """
    return _solve(inst, omega, m, LOWER, HORIZONTAL, table)
