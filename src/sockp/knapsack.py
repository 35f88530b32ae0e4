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
across runs and platforms.  That selection is read off suffix rows (the row
over items i, i+1, ...); beyond ``LEX_CELLS`` cells only every stride-th
suffix row is kept and the others are rebuilt a block at a time, so
reconstruction memory stays bounded whatever the dtype.

Before the DP runs, one pass over the profit and weight arrays settles every
item.  Masks drop the zero-profit and oversized items and take the
zero-weight ones; the rest are fixed by reduced cost against a floor
(Martello, Pisinger & Toth, "Dynamic programming and strong bounds for the 0-1
knapsack problem", Management Science 45(3), 1999).  With lam = p_b / w_b the
ratio of the break item of the greedy fill, every selection x satisfies

    value(x) <= U - sum over items j off their LP side of |p_j - lam w_j|,
    U = lam * cap + sum_j max(0, p_j - lam w_j),

so an item whose reduced cost exceeds U - floor takes its LP side (in if its
ratio beats lam, out if it falls short) in every selection worth at least the
floor.  The floor is the caller's ``floor`` or the greedy value, whichever is
larger; the DP then sees only the free items and the capacity left by the
items fixed in.  All of it is exact integer arithmetic scaled by w_b; the
float ratio order only picks the break item, so it affects how many items are
fixed, never whether the fixing is valid.  Every optimum obeys the fixings,
so the fixed coordinates agree across optima and the lexicographically
smallest optimum is unchanged.

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
# Cell budget for the suffix rows used by solution reconstruction; beyond it
# the rows are checkpointed and rebuilt block by block.
LEX_CELLS = 60_000_000


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

    @property
    def n(self) -> int:
        return len(self.profits)


def _any_negative(values) -> bool:
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.dtype.kind not in "iuO":
            raise ValueError("profits and weights must be 1-D integer arrays")
        return bool(values.min(initial=0) < 0)
    return min(values, default=0) < 0


def _largest(values) -> int:
    """Largest entry as a Python int (0 if empty)."""
    if isinstance(values, np.ndarray):
        return int(values.max(initial=0))
    return max(values, default=0)


@dataclass(frozen=True)
class KnapsackSolution:
    selected: tuple[int, ...]
    value: int
    feasible: bool = True


def dantzig_bound(profits: Sequence[int], weights: Sequence[int],
                  capacity: int) -> int:
    """Integer upper bound from the LP relaxation (greedy fractional fill).

    Exact integer arithmetic; items are ordered by profit/weight with exact
    ratio comparisons, so the bound is valid even for pathological ties.
    """
    if capacity < 0:
        return 0
    free = sum(p for p, w in zip(profits, weights) if p > 0 and w == 0)
    kept = [(j, p, w) for j, (p, w) in enumerate(zip(profits, weights))
            if p > 0 and 0 < w <= capacity]
    return free + _greedy_bound(kept, _ratio_order(kept), 0, capacity)


class _Reduction(NamedTuple):
    """Outcome of reduced-cost fixing; ``free`` is None if no selection
    reaches the floor."""

    greedy: int  # value of the greedy prefix, a feasible selection
    fixed: list  # original indices of the items fixed in
    fixed_value: int
    free: list | None  # (original index, profit, weight), ascending index
    room: int  # capacity left by the items fixed in
    upper: int  # exact bound on the optimum over the free items


def _reduce(problem: KnapsackSubproblem, floor) -> _Reduction:
    """Settle and fix items against ``floor`` (see the module docstring).

    Zero-profit and oversized items are never selected, and a zero-weight
    item with positive profit belongs to every optimum; the other items are
    fixed by reduced cost.  ``floor`` counts the whole problem; None means
    the greedy value.  The free items keep their ascending index order, and
    every selection worth at least the floor obeys the fixings.  The
    capacity must be nonnegative.
    """
    capacity = problem.capacity
    # One product bounds every entry, sum and cross product formed below.
    bound = (_largest(problem.profits) + 1) * (
        problem.n * _largest(problem.weights) + capacity + 1)
    exact = np.int64 if bound < 2 ** 62 else object
    p_all = np.asarray(problem.profits, dtype=exact)
    w_all = np.asarray(problem.weights, dtype=exact)
    live = p_all > 0
    base = np.flatnonzero(live & (w_all == 0)).tolist()
    base_value = int(p_all[base].sum())
    kept = np.flatnonzero(live & (w_all > 0) & (w_all <= capacity))
    p_arr, w_arr = p_all[kept], w_all[kept]
    total_w = int(w_arr.sum())
    if total_w <= capacity:
        # Everything fits: taking all items is the only optimum.
        total_p = base_value + int(p_arr.sum())
        return _Reduction(total_p, base + kept.tolist(), total_p, [],
                          capacity - total_w, 0)
    order = np.argsort(-(p_arr / w_arr).astype(float), kind="stable")
    # The break item: first in ratio order that overflows the greedy fill.
    pos = int(np.searchsorted(np.cumsum(w_arr[order]), capacity, side="right"))
    greedy = int(p_arr[order[:pos]].sum())
    b = order[pos]
    p_b, w_b = int(p_arr[b]), int(w_arr[b])
    reduced = w_b * p_arr - p_b * w_arr  # w_b * (p_j - lam * w_j)
    gains = np.maximum(reduced, 0)
    target = greedy if floor is None else max(floor - base_value, greedy)
    slack = p_b * capacity + int(gains.sum()) - w_b * target
    if slack < 0:
        return _Reduction(base_value + greedy, [], 0, None, capacity, 0)
    fix_in = reduced > slack
    room = capacity - int(w_arr[fix_in].sum())
    if room < 0:
        return _Reduction(base_value + greedy, [], 0, None, room, 0)
    free = ~fix_in & (-reduced <= slack) & (w_arr <= room)
    idx = np.flatnonzero(free)
    upper = (p_b * room + int(gains[idx].sum())) // w_b
    return _Reduction(base_value + greedy,
                      base + kept[fix_in].tolist(),
                      base_value + int(p_arr[fix_in].sum()),
                      list(zip(kept[idx].tolist(), p_arr[idx].tolist(),
                               w_arr[idx].tolist())),
                      room,
                      min(upper, int(p_arr[idx].sum())))


def solve_knapsack_value(problem: KnapsackSubproblem,
                         *,
                         floor: int | None = None) -> int:
    """Optimal objective only (no selection vector); same exactness contract.

    With ``floor`` the result is the exact optimum whenever that optimum is
    at least ``floor``; otherwise it is the value of some feasible selection
    and lies below ``floor``.  Higher floors fix more items, so the DP gets
    narrower.
    """
    if problem.capacity < 0:
        return 0
    red = _reduce(problem, floor)
    if red.free is None:
        return red.greedy
    if not red.free:
        return red.fixed_value
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
    value, chosen = 0, []
    if red.free:
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
    # (and the empty row k), about half the budget, and the walk below
    # rebuilds the rows between two checkpoints when it reaches them.
    budget = max(4, LEX_CELLS // width)
    stride = 1 if k + 1 <= budget else math.ceil((k + 1) / max(2, budget // 2))
    rows = {k: _empty_row(width, capacity)}
    _sweep(rows[k].copy(), kept, k, 0, rows, stride)
    value = _best_profit(rows[0], capacity)
    if value == 0:
        return 0, []

    # Lexicographically smallest optimum: prefer leaving each item out when
    # the remaining suffix can still deliver the missing profit in the room.
    block = {}
    chosen = []
    target = value
    room = capacity
    for i, (j, p, w) in enumerate(kept):
        after = rows.get(i + 1)
        if after is None:
            if i + 1 not in block:
                below = (i + 1) // stride * stride
                anchor = min(k, below + stride)
                block.clear()
                _sweep(rows[anchor].copy(), kept, anchor, below + 1, block)
            after = block[i + 1]
        if after[target] <= room:
            continue
        chosen.append(j)
        target -= p
        room -= w
    if target != 0:
        raise SolverInvariantError("reconstruction missed the optimal value")
    return value, chosen


# ---------------------------------------------------------------------------
# Depth-first branch and bound (profit range too large for the DP).
# ---------------------------------------------------------------------------

def _ratio_order(kept):
    return sorted(range(len(kept)),
                  key=lambda i: (-Fraction(kept[i][1], kept[i][2]), i))


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
    order = _ratio_order(kept)
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
    if best == 0:
        return 0, []

    # Fix bits in index order, keeping the lexicographically smallest vector
    # that still completes to the optimal value.
    chosen = []
    target = best
    budget = capacity
    for i, (j, p, w) in enumerate(kept):
        if _bb_value(kept[i + 1:], budget, target) >= target:
            continue
        chosen.append(j)
        target -= p
        budget -= w
    if target != 0:
        raise SolverInvariantError("reconstruction missed the optimal value")
    return best, chosen
