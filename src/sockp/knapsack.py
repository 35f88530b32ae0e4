"""Exact solver for the ordinary 0/1 knapsack with integer profits.

Profits, weights and the capacity are integers (:mod:`sockp.rkpm` builds its
pivot knapsacks already scaled, in exact integer arithmetic, and hands their
profits and weights over as int64 or ``object`` arrays).  The solver runs
one dynamic program over achievable profit values, bounded by the Dantzig
relaxation: a row holds the least weight reaching each profit, and each item
updates it with a single numpy ``minimum`` over the row shifted by its
profit.  The row is int64 while every sum fits and holds Python integers
(``object`` dtype) otherwise, so huge weights run the same kernel exactly.
When the profit range exceeds ``STATE_CAP`` states the solver falls back to
depth-first branch and bound: one include-first search with Dantzig pruning
gives the optimum, and the same search, started at a target, tells whether a
suffix of the items still reaches it.  Among equal-value optima it returns the
lexicographically smallest selection vector, so results are reproducible
across runs and platforms.  One walk in index order finds it on both paths:
it leaves an item out while the suffix after it still reaches the missing
profit, which the DP reads off suffix rows; beyond ``LEX_CELLS`` cells only
every stride-th suffix row is kept and the others are rebuilt a block at a
time, so reconstruction memory stays bounded whatever the dtype.

Before the DP runs, one pass over the profit and weight arrays settles every
item.  A mask drops the zero-profit and oversized items; the rest are fixed
by reduced cost against a floor (Martello, Pisinger & Toth, "Dynamic
programming and strong bounds for the 0-1 knapsack problem", Management
Science 45(3), 1999).  :func:`lp_rows` finds the break item b of the greedy
fill and the fill's value for many weight rows at once, together with each
row's integer LP bound, which :mod:`sockp.rkpm` screens with and
:func:`dantzig_bound` returns; a caller that has a problem's row passes it
to the value solve.  With lam = p_b / w_b, or lam = 0 when the fill takes
every item, every selection x satisfies

    value(x) <= U - sum over items j off their LP side of |p_j - lam w_j|,
    U = lam * cap + sum_j max(0, p_j - lam w_j),

so an item whose reduced cost exceeds U - floor takes its LP side (in if its
ratio beats lam, out if it falls short) in every selection worth at least the
floor.  A zero-weight item has ratio infinity and is fixed in outright, as it
belongs to every optimum.  The floor is the caller's ``floor`` or the greedy
value, whichever is larger; the DP then sees only the free items and the
capacity left by the items fixed in.  All of it is exact integer arithmetic
scaled by w_b; the float ratio order only picks the break item, so it
affects how many items are fixed, never whether the fixing is valid.  Every
optimum obeys the fixings, so the fixed coordinates agree across optima and
the lexicographically smallest optimum is unchanged.

A second stage bounds the count of items (the cardinality bound of the same
paper).  It runs on an int64 value solve or reconstruction whose free items
times its DP width reach ``CARD_CELLS`` cells.  No selection holds more than
K free items, K the count of the lightest ones that fit the room left; with
lam = a / w_b for an integer 0 <= a <= p_b, v_j = w_b p_j - a w_j and
mu = max(0, (K+1)-th largest v_j), every selection of the free items has

    w_b value(x) <= B - sum over items j off their side |v_j - mu|,
    B = a * room + K * mu + sum_j max(0, v_j - mu),

an item's side being in if v_j > mu and out if v_j < mu; a = p_b, mu = 0 is
the bound above.  The stage takes the smallest B over eleven multipliers a.
If B is below w_b times the profit the free items must add to reach the
floor, no selection reaches it, and the solve ends as when the first pass's
slack is negative; otherwise every item whose |v_j - mu| exceeds the gap
between the two takes its side, and the DP width shrinks to the new bound.
Minimised over every a and mu, B is w_b times the optimum of the LP
relaxation with at most K items taken (Lagrangian duality), so it beats the
LP bound only when the LP relaxation takes K items whole, as on strongly
correlated data, whose light items have the best ratios and fill the count
first.  When it takes fewer, the stage is skipped.  Every optimum worth at
least the floor obeys these fixings too.

All operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "KnapsackSolution",
    "KnapsackSubproblem",
    "SolverInvariantError",
    "dantzig_bound",
    "solve_knapsack",
    "solve_knapsack_value",
]

# DP is used while the Dantzig profit bound stays below this many states.
STATE_CAP = 10_000_000
# The cardinality stage runs on an int64 value solve once its free items
# times its DP width reach this many cells: the stage costs about what a DP
# of that size does (about 50 us, against about 2 ns a cell, in exact SC
# solves at n = 200 and 400 on a 2-vCPU machine), so below it the stage
# cannot save more than it costs.
CARD_CELLS = 20_000
# Multipliers a = p_b * t // 100 the cardinality bound tries, denser near
# the LP multiplier p_b (t = 100), where the best a of a tight bound lies.
_CARD_STEPS = (0, 50, 70, 80, 85, 88, 90, 92, 94, 96, 100)
# Cell budget for the suffix rows used by solution reconstruction; beyond it
# the rows are checkpointed and rebuilt block by block.
LEX_CELLS = 60_000_000
# Largest ratio key of an ``object`` row; a float holds it with room to spare.
_KEY_CAP = 2 ** 1000


class SolverInvariantError(RuntimeError):
    """An internal solver invariant failed; results cannot be trusted."""


@dataclass(frozen=True)
class KnapsackSubproblem:
    """One ordinary 0/1 knapsack: integer profits/weights and capacity.

    Profits and weights are tuples of ints or 1-D integer arrays (int64 or
    ``object`` dtype holding Python ints); arrays are used without a copy.
    """

    profits: tuple[int, ...] | np.ndarray
    weights: tuple[int, ...] | np.ndarray
    capacity: int

    def __post_init__(self):
        if len(self.profits) != len(self.weights):
            raise ValueError("profits and weights must have equal length")
        if _any_negative(self.profits):
            raise ValueError("profits must be nonnegative")
        if _any_negative(self.weights):
            raise ValueError("weights must be nonnegative")
        if not isinstance(self.capacity, (int, np.integer)):
            raise ValueError(f"capacity must be an integer, "
                             f"got {self.capacity!r}")

    @property
    def n(self) -> int:
        return len(self.profits)


def _any_negative(values) -> bool:
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype.kind not in "iuO":
            raise ValueError("profits and weights must be 1-D integer arrays")
        if values.dtype.kind != "O":
            return bool(values.min(initial=0) < 0)
        values = values.tolist()
    if not all(isinstance(v, (int, np.integer)) for v in values):
        raise ValueError("profits and weights must be integers")
    return min(values, default=0) < 0


def _largest(values) -> int:
    """Largest entry as a Python int (0 if empty)."""
    if isinstance(values, np.ndarray):
        return int(values.max(initial=0))
    return max(values, default=0)


def ratio_order(num, den) -> np.ndarray:
    """Permutation sorting num / den in falling order, ties by index.

    ``num`` holds nonnegative and ``den`` positive integers, as sequences or
    int64 or ``object`` arrays.  One stable sort of float keys, the
    numerators clamped at ``_KEY_CAP`` so that no quotient overflows, places
    the entries; one exact cross-multiplication pass over adjacent entries
    then confirms the order, and falls back to exact rational keys in the
    rare case that colliding float keys misplaced anything.  The pass runs
    on int64 when max(num) * max(den), which bounds every cross product,
    fits, and on Python integers otherwise.
    """
    num, den = np.asarray(num), np.asarray(den)
    if int(num.max(initial=0)) * int(den.max(initial=1)) < 2 ** 63:
        num, den = num.astype(np.int64), den.astype(np.int64)
        keys = num / den
    else:
        num = num.astype(object)
        keys = (np.minimum(num, _KEY_CAP) / den).astype(float)
    order = np.argsort(-keys, kind="stable")
    a, b = num[order], den[order]
    lhs, rhs = a[:-1] * b[1:], a[1:] * b[:-1]
    if ((lhs < rhs) | ((lhs == rhs) & (order[:-1] > order[1:]))).any():
        order = np.array(sorted(range(len(num)), key=lambda i: (
            -Fraction(num[i], int(den[i])), i)), dtype=np.intp)
    return order


def exact_dtype(profit_max: int, n: int, weight_max: int, capacity: int):
    """int64 if it holds a Dantzig bound's exact arithmetic, else ``object``.

    For n items with profits up to ``profit_max``, weights up to
    ``weight_max`` and a capacity up to ``capacity``, the product
    (profit_max + 1) * (n * weight_max + capacity + 1) bounds every entry,
    sum and cross product of p_b * c + sum_j max(0, w_b p_j - p_b w_j).
    """
    fits = (profit_max + 1) * (n * weight_max + capacity + 1) < 2 ** 62
    return np.int64 if fits else object


@dataclass(frozen=True)
class KnapsackSolution:
    selected: tuple[int, ...]
    value: int
    feasible: bool = True


def dantzig_bound(profits: Sequence[int], weights: Sequence[int],
                  capacity: int) -> int:
    """Integer upper bound from the LP relaxation (greedy fractional fill).

    The :func:`lp_rows` bound over the items of positive profit that fit;
    the floor of the LP optimum when the float ratio order is right.
    """
    if capacity < 0:
        return 0
    p, w = np.array(profits, dtype=object), np.array(weights, dtype=object)
    live = (p > 0) & (w <= capacity)
    return lp_rows(p[live], w[live][None], [capacity])[0][3]


class _Reduction(NamedTuple):
    """Outcome of reduced-cost fixing; ``free`` is None if no selection
    reaches the floor."""

    greedy: int  # value of the greedy prefix, a feasible selection
    fixed: list  # original indices of the items fixed in
    fixed_value: int
    free: list | None  # (original index, profit, weight), ascending index
    room: int  # capacity left by the items fixed in
    upper: int  # exact bound on the optimum over the free items


def lp_rows(profits: np.ndarray, weights: np.ndarray,
            caps) -> list[tuple[int, int, int, int]]:
    """Greedy fill and integer LP bound of each weight row.

    Row k has the shared ``profits``, weights ``weights[k]`` and the
    nonnegative capacity ``caps[k]``.  Returns (greedy, p_b, w_b, bound) per
    row as Python ints: b is the first item in ratio order that overflows
    the greedy fill (p_b, w_b = 0, 1 if none does), greedy the value of the
    items before it, and bound = floor((p_b c + sum_j max(0, w_b p_j -
    p_b w_j)) / w_b).  lam = p_b / w_b >= 0 makes lam c + sum_j max(0, p_j -
    lam w_j) an LP bound, so the bound holds whatever b the float ratio
    order picks, and is the LP floor when that order is right (Kellerer,
    Pferschy & Pisinger, *Knapsack Problems*, 2004, 5.1).  The keys p / w
    are inf at w = 0, and ``object`` ratios are clamped at ``_KEY_CAP``, so
    no quotient overflows a float.
    """
    rows, n = weights.shape
    if not n:
        return [(0, 0, 1, 0)] * rows
    dtype = exact_dtype(int(profits.max(initial=0)), n,
                        int(weights.max(initial=0)), max(caps, default=0))
    p = profits.astype(dtype, copy=False)
    w = weights.astype(dtype, copy=False)
    c = np.array(caps, dtype=dtype)
    weighs = w > 0
    keys = np.minimum(p, w * _KEY_CAP) if dtype is object else p
    keys = np.where(weighs, (keys / np.where(weighs, w, 1)).astype(float),
                    np.inf)
    order = np.argsort(-keys, axis=1, kind="stable")
    fill = np.cumsum(np.take_along_axis(w, order, axis=1), axis=1)
    fits = fill <= c[:, None]
    greedy = np.where(fits, p[order], 0).sum(axis=1)
    k = np.count_nonzero(fits, axis=1)
    r = np.arange(rows)
    b = order[r, np.minimum(k, n - 1)]
    every = k == n  # lam = 0: every item fits
    p_b = np.where(every, 0, p[b]).astype(dtype)
    w_b = np.where(every, 1, w[r, b]).astype(dtype)
    gains = np.maximum(w_b[:, None] * p - p_b[:, None] * w, 0)
    bound = (p_b * c + gains.sum(axis=1)) // w_b
    return list(zip(greedy.tolist(), p_b.tolist(), w_b.tolist(),
                    bound.tolist()))


def _reduce(problem: KnapsackSubproblem, floor, lp=None) -> _Reduction:
    """Settle and fix items against ``floor`` (see the module docstring).

    Zero-profit and oversized items are never selected.  The others are
    fixed by reduced cost, and a zero-weight item, of ratio infinity, is
    fixed in: it belongs to every optimum.  When the greedy fill takes every
    item, lam = 0.  ``floor`` counts the whole problem; None means the greedy
    value.  ``lp`` is the problem's row of :func:`lp_rows`, computed here
    when not given.  Free items of an int64 problem whose DP would reach
    ``CARD_CELLS`` cells then go through :func:`_cardinality`, which may
    drop the solve, fix more items and narrow ``upper``.  The free items
    keep their ascending index order, and every optimum worth at least the
    floor obeys the fixings.  The capacity must be nonnegative.
    """
    capacity = problem.capacity
    exact = exact_dtype(_largest(problem.profits), problem.n,
                        _largest(problem.weights), capacity)
    p_all = np.asarray(problem.profits, dtype=exact)
    w_all = np.asarray(problem.weights, dtype=exact)
    if lp is None:
        lp = lp_rows(p_all, w_all[None], [capacity])[0]
    greedy, p_b, w_b, _ = lp
    live = (p_all > 0) & (w_all <= capacity)
    # w_b * (p_j - lam * w_j) of a live item, 0 of one never selected.
    reduced = np.where(live, w_b * p_all - p_b * w_all, 0)
    gains = np.maximum(reduced, 0)
    target = greedy if floor is None else max(floor, greedy)
    slack = p_b * capacity + int(gains.sum()) - w_b * target
    fix_in = live & ((w_all == 0) | (reduced > slack))
    room = capacity - int(w_all[fix_in].sum())
    if slack < 0 or room < 0:
        return _Reduction(greedy, [], 0, None, room, 0)
    idx = np.flatnonzero(live & ~fix_in & (-reduced <= slack)
                         & (w_all <= room))
    upper = min((p_b * room + int(gains[idx].sum())) // w_b,
                int(p_all[idx].sum()))
    if exact is np.int64 and len(idx) * (upper + 1) >= CARD_CELLS:
        card = _cardinality(reduced[idx], w_all[idx], room, p_b, w_b,
                            target - int(p_all[fix_in].sum()))
        if card is not None:
            slack, bound, d = card
            ins = idx[d > slack]
            room -= int(w_all[ins].sum())
            if slack < 0 or room < 0:
                return _Reduction(greedy, [], 0, None, room, 0)
            fix_in[ins] = True
            upper = min(upper, bound) - int(p_all[ins].sum())
            idx = idx[(np.abs(d) <= slack) & (w_all[idx] <= room)]
            upper = min(upper, int(p_all[idx].sum()))
    return _Reduction(greedy, np.flatnonzero(fix_in).tolist(),
                      int(p_all[fix_in].sum()),
                      list(zip(idx.tolist(), p_all[idx].tolist(),
                               w_all[idx].tolist())), room, upper)


def _cardinality(red, w, room, p_b, w_b, need):
    """Cardinality bound B on the free items (see the module docstring).

    ``red`` holds their int64 reduced costs w_b p_j - p_b w_j and ``w``
    their weights, each in 1..room; v_j = red_j + (p_b - a) w_j for each
    multiplier a = p_b * t // 100, t in ``_CARD_STEPS``.  Returns (slack,
    bound, d) at the a of smallest B: slack = B - w_b * ``need``, bound =
    floor(B / w_b) and d_j = v_j - mu.  So no selection reaches ``need`` if
    slack < 0, and one that does has every item with |d_j| > slack on its
    side.  Returns None when the LP relaxation takes fewer items whole
    (red_j > 0) than K, as then the count does not bind it.
    """
    k = len(w)
    K = int(np.count_nonzero(np.cumsum(np.sort(w)) <= room))
    if K >= k or K > np.count_nonzero(red > 0):
        return None
    a = np.array([p_b * t // 100 for t in _CARD_STEPS], dtype=np.int64)
    v = red + (p_b - a)[:, None] * w
    mu = np.maximum(np.partition(v, k - K - 1, axis=1)[:, k - K - 1], 0)
    d = v - mu[:, None]
    best = a * room + K * mu + np.maximum(d, 0).sum(axis=1)
    i = int(np.argmin(best))
    return int(best[i]) - w_b * need, int(best[i]) // w_b, d[i]


def solve_knapsack_value(problem: KnapsackSubproblem,
                         *,
                         floor: int | None = None,
                         lp: tuple[int, int, int, int] | None = None) -> int:
    """Optimal objective only (no selection vector); same exactness contract.

    With ``floor`` the result is the exact optimum whenever that optimum is
    at least ``floor``; otherwise it is the value of some feasible selection
    and lies below ``floor``.  Higher floors fix more items, so the DP gets
    narrower.  ``lp``, if given, must be the problem's row as
    :func:`lp_rows` returns it; it saves computing that row again, and the
    result is the same without it.
    """
    if problem.capacity < 0:
        return 0
    red = _reduce(problem, floor, lp)
    if red.free is None:
        return red.greedy
    if red.upper + 1 > STATE_CAP:
        value = _bb_value(red.free, red.room)
    else:
        value = _dp_value_only(red.free, red.room, red.upper)
    return red.fixed_value + value


def solve_knapsack(problem: KnapsackSubproblem,
                   *,
                   floor: int | None = None) -> KnapsackSolution:
    """Solve a 0/1 knapsack exactly.

    Returns the optimal value together with the lexicographically smallest
    optimal selection vector.  A negative capacity yields the empty selection
    flagged infeasible rather than an exception.  ``floor``, if given, must be
    the optimal value (as returned by :func:`solve_knapsack_value`); it only
    narrows the DP, and a floor that is not the optimum raises
    :class:`SolverInvariantError`.
    """
    if problem.capacity < 0:
        return KnapsackSolution(selected=(0,) * problem.n, value=0, feasible=False)

    red = _reduce(problem, floor)
    if red.free is None:
        raise SolverInvariantError(
            "reduced-cost slack or room went negative below the optimum")
    if red.upper + 1 > STATE_CAP:
        value, chosen = _branch_and_bound(red.free, red.room)
    else:
        value, chosen = _dp_by_profit(red.free, red.room, red.upper)
    value += red.fixed_value
    if floor is not None and value != floor:
        raise SolverInvariantError(
            f"reconstructed value {value} differs from the floor {floor}")
    bits = [0] * problem.n
    for j in red.fixed + chosen:
        bits[j] = 1
    return KnapsackSolution(selected=tuple(bits), value=value)


# ---------------------------------------------------------------------------
# DP over profit values: row[t] = least weight achieving profit exactly t.
# ---------------------------------------------------------------------------

def _empty_row(width, capacity):
    """Row of the empty item set: weight 0 at profit 0, unreachable elsewhere.

    Any weight above the capacity marks an unreachable profit, so the row is
    filled with capacity + 1.  Every item weight is at most the capacity, so
    no sum the kernel forms exceeds 2 * capacity + 1: int64 holds it below
    2**62, Python integers beyond.
    """
    row = np.full(width, capacity + 1,
                  dtype=np.int64 if capacity < 2 ** 62 else object)
    row[0] = 0
    return row


def _sweep(row, kept, start, stop, rows=None, stride=1):
    """Add kept[start - 1], ..., kept[stop] to the min-weight ``row`` in place.

    Once row covers kept[i:], a copy is stored as ``rows[i]`` if ``rows`` is
    given and i is a multiple of ``stride``.
    """
    width = len(row)
    for i in range(start - 1, stop - 1, -1):
        _, p, w = kept[i]
        np.minimum(row[p:], row[:width - p] + w, out=row[p:])
        if rows is not None and i % stride == 0:
            rows[i] = row.copy()
    return row


def _best_profit(row, capacity):
    return int(np.flatnonzero(row <= capacity)[-1])


def _dp_value_only(kept, capacity, upper):
    row = _sweep(_empty_row(upper + 1, capacity), kept, len(kept), 0)
    return _best_profit(row, capacity)


def _dp_by_profit(kept, capacity, upper):
    k = len(kept)
    width = upper + 1
    # Suffix rows: rows[i] covers kept[i:].  Every row is kept while the
    # k + 1 of them fit the cell budget; otherwise only every stride-th one
    # (and the empty row k), about half the budget, and ``reaches`` rebuilds
    # the rows between two checkpoints when the walk gets to them.
    budget = max(4, LEX_CELLS // width)
    stride = 1 if k + 1 <= budget else math.ceil((k + 1) / max(2, budget // 2))
    rows = {k: _empty_row(width, capacity)}
    _sweep(rows[k].copy(), kept, k, 0, rows, stride)
    block = {}

    def reaches(i, target, room):
        after = rows.get(i)
        if after is None:
            if i not in block:
                below = i // stride * stride
                anchor = min(k, below + stride)
                block.clear()
                _sweep(rows[anchor].copy(), kept, anchor, below + 1, block)
            after = block[i]
        return after[target] <= room

    value = _best_profit(rows[0], capacity)
    return value, _lex_walk(kept, value, capacity, reaches)


def _lex_walk(kept, target, room, reaches):
    """Lexicographically smallest selection of ``kept`` worth ``target``.

    Each item is left out when ``reaches(i, target, room)`` says the suffix
    kept[i:] after it still delivers the missing profit in the room left.
    """
    chosen = []
    for i, (j, p, w) in enumerate(kept):
        if reaches(i + 1, target, room):
            continue
        chosen.append(j)
        target -= p
        room -= w
    if target != 0:
        raise SolverInvariantError("reconstruction missed the optimal value")
    return chosen


# ---------------------------------------------------------------------------
# Depth-first branch and bound (profit range too large for the DP).
# ---------------------------------------------------------------------------

def _greedy_bound(kept, order, start, capacity):
    total = 0
    room = capacity
    for oi in range(start, len(order)):
        _, p, w = kept[order[oi]]
        if w <= room:
            total += p
            room -= w
        else:
            total += (p * room) // w
            break
    return total


def _bb_value(kept, capacity, target=None):
    """Best value by include-first DFS with Dantzig pruning.

    With a ``target`` the incumbent starts at target - 1 and the search stops
    at the first value above it, so the result reaches ``target`` exactly
    when some selection does.
    """
    order = ratio_order([p for _, p, _ in kept],
                        [w for _, _, w in kept]).tolist()
    best = 0 if target is None else target - 1
    stack = [(0, 0, capacity)]
    while stack:
        depth, value, room = stack.pop()
        if value > best:
            best = value
            if target is not None:
                break
        if depth == len(order):
            continue
        if value + _greedy_bound(kept, order, depth, room) <= best:
            continue
        _, p, w = kept[order[depth]]
        stack.append((depth + 1, value, room))
        if w <= room:
            stack.append((depth + 1, value + p, room - w))
    return best


def _branch_and_bound(kept, capacity):
    best = _bb_value(kept, capacity)
    return best, _lex_walk(
        kept, best, capacity,
        lambda i, target, room: _bb_value(kept[i:], room, target) >= target)
