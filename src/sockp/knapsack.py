"""Exact solver for the ordinary 0/1 knapsack with integer profits.

Weights and capacity are integers (callers integer-scale fractional data with
:func:`scale_to_integers`).  The solver runs a dynamic program over achievable
profit values, bounded by the Dantzig relaxation, and falls back to depth-first
branch and bound when the profit range exceeds the state ceiling.  Among
equal-value optima it returns the lexicographically smallest selection vector,
so results are reproducible across runs and platforms.

Before the DP runs, variables are fixed by reduced cost against a floor
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

All operations are pure functions of their inputs; problems may be solved
concurrently from multiple threads.
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
    "scale_to_integers",
    "solve_knapsack",
    "solve_knapsack_value",
]

# DP is used while the Dantzig profit bound stays below this many states.
DEFAULT_STATE_CAP = 10_000_000
# Cell budget for the suffix tables used by solution reconstruction; beyond
# it the tables are checkpointed and rebuilt block by block.
DEFAULT_LEX_CELLS = 60_000_000

_INF = 1 << 62


class SolverInvariantError(RuntimeError):
    """An internal solver invariant failed; results cannot be trusted."""


@dataclass(frozen=True)
class KnapsackSubproblem:
    """One ordinary 0/1 knapsack: integer profits/weights and capacity.

    ``origin_label`` optionally records which pivot of the decomposition
    produced the subproblem; it does not affect solving.
    """

    profits: tuple[int, ...]
    weights: tuple[int, ...]
    capacity: int
    origin_label: int | None = None

    def __post_init__(self):
        if len(self.profits) != len(self.weights):
            raise ValueError("profits and weights must have equal length")
        if any(p < 0 for p in self.profits):
            raise ValueError("profits must be nonnegative")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.profits)


@dataclass(frozen=True)
class KnapsackSolution:
    selected: tuple[int, ...]
    value: int
    feasible: bool = True


def scale_to_integers(weights: Sequence, capacity, factor: int,
                      *, max_magnitude: int = 2 ** 63 - 1):
    """Conservatively integer-scale real weights and capacity.

    Each weight becomes ceil(weight * factor) and the capacity becomes
    floor(capacity * factor), so any selection feasible for the scaled
    problem is feasible for the original one.  Raises OverflowError instead
    of letting a scaled value leave ``[-max_magnitude, max_magnitude]``.
    """
    factor = int(factor)
    if factor < 1:
        raise ValueError(f"scale factor must be a positive integer, got {factor}")
    scaled_w = []
    for w in weights:
        fw = Fraction(w)
        if fw < 0:
            raise ValueError(f"weights must be nonnegative, got {w}")
        scaled_w.append(math.ceil(fw * factor))
    scaled_c = math.floor(Fraction(capacity) * factor)
    if any(abs(w) > max_magnitude for w in scaled_w) or abs(scaled_c) > max_magnitude:
        raise OverflowError(
            f"scaled values exceed the integer range +-{max_magnitude}")
    return scaled_w, scaled_c


def dantzig_bound(profits: Sequence[int], weights: Sequence[int],
                  capacity: int) -> int:
    """Integer upper bound from the LP relaxation (greedy fractional fill).

    Exact integer arithmetic; items are ordered by profit/weight with exact
    ratio comparisons, so the bound is valid even for pathological ties.
    """
    if capacity < 0:
        return 0
    free = 0
    items = []
    for p, w in zip(profits, weights):
        if p <= 0 or w > capacity:
            continue
        if w == 0:
            free += p
        else:
            items.append((Fraction(p, w), p, w))
    items.sort(key=lambda t: (-t[0], t[1]))
    total = free
    room = capacity
    for _, p, w in items:
        if w <= room:
            total += p
            room -= w
        else:
            total += (p * room) // w
            break
    return total


def _split_items(problem: KnapsackSubproblem):
    """Forced bits and the residual item list.

    Zero-profit and oversized items are never selected; a zero-weight item
    with positive profit belongs to every optimal solution.
    """
    bits = [0] * problem.n
    base_value = 0
    kept = []  # (original index, profit, weight), ascending index
    for j, (p, w) in enumerate(zip(problem.profits, problem.weights)):
        if p <= 0 or w > problem.capacity:
            continue
        if w == 0:
            bits[j] = 1
            base_value += p
        else:
            kept.append((j, p, w))
    return bits, base_value, kept


class _Reduction(NamedTuple):
    """Outcome of reduced-cost fixing; ``free`` is None if no selection
    reaches the floor."""

    greedy: int  # value of the greedy prefix, a feasible selection
    fixed: list  # original indices of the items fixed in
    fixed_value: int
    free: list | None  # (original index, profit, weight), ascending index
    room: int  # capacity left by the items fixed in
    upper: int  # exact bound on the optimum over the free items


def _reduce(kept, capacity, floor) -> _Reduction:
    """Fix items by reduced cost against ``floor`` (see the module docstring).

    ``floor`` counts the kept items only; None means the greedy value.  The
    free items keep their ascending index order, and every selection worth
    at least the floor obeys the fixings.
    """
    profits = [p for _, p, _ in kept]
    weights = [w for _, _, w in kept]
    total_w = sum(weights)
    if total_w <= capacity:
        # Everything fits: taking all items is the only optimum.
        total_p = sum(profits)
        return _Reduction(total_p, [j for j, _, _ in kept], total_p, [],
                          capacity - total_w, 0)
    max_p, max_w = max(profits), max(weights)
    exact = (np.int64 if max_p * (len(kept) * max_w + capacity) < 2 ** 62
             and total_w < 2 ** 62 else object)
    p_arr = np.array(profits, dtype=exact)
    w_arr = np.array(weights, dtype=exact)
    order = np.argsort(-(p_arr / w_arr).astype(float), kind="stable")
    # The break item: first in ratio order that overflows the greedy fill.
    pos = int(np.searchsorted(np.cumsum(w_arr[order]), capacity, side="right"))
    greedy = int(p_arr[order[:pos]].sum())
    b = order[pos]
    p_b, w_b = profits[b], weights[b]
    reduced = w_b * p_arr - p_b * w_arr  # w_b * (p_j - lam * w_j)
    gains = np.maximum(reduced, 0)
    target = greedy if floor is None else max(floor, greedy)
    slack = p_b * capacity + int(gains.sum()) - w_b * target
    if slack < 0:
        return _Reduction(greedy, [], 0, None, capacity, 0)
    fix_in = reduced > slack
    free = ~fix_in & (-reduced <= slack)
    room = capacity - int(w_arr[fix_in].sum())
    if room < 0:
        return _Reduction(greedy, [], 0, None, room, 0)
    free &= w_arr <= room
    idx = np.flatnonzero(free)
    upper = (p_b * room + int(gains[idx].sum())) // w_b
    return _Reduction(greedy,
                      [kept[i][0] for i in np.flatnonzero(fix_in)],
                      int(p_arr[fix_in].sum()),
                      [kept[i] for i in idx],
                      room,
                      min(upper, int(p_arr[idx].sum())))


def solve_knapsack_value(problem: KnapsackSubproblem,
                         *,
                         state_cap: int = DEFAULT_STATE_CAP,
                         floor: int | None = None) -> int:
    """Optimal objective only (no selection vector); same exactness contract.

    With ``floor`` the result is the exact optimum whenever that optimum is
    at least ``floor``; otherwise it is the value of some feasible selection
    and lies below ``floor``.  Higher floors fix more items, so the DP gets
    narrower.
    """
    if problem.capacity < 0:
        return 0
    _, base_value, kept = _split_items(problem)
    if not kept:
        return base_value
    red = _reduce(kept, problem.capacity,
                  None if floor is None else floor - base_value)
    if red.free is None:
        return base_value + red.greedy
    if not red.free:
        return base_value + red.fixed_value
    if red.upper + 1 > state_cap:
        value, _ = _branch_and_bound(red.free, red.room)
    else:
        value = _dp_value_only(red.free, red.room, red.upper)
    return base_value + red.fixed_value + value


def solve_knapsack(problem: KnapsackSubproblem,
                   *,
                   state_cap: int = DEFAULT_STATE_CAP,
                   lex_cells: int = DEFAULT_LEX_CELLS,
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

    bits, base_value, kept = _split_items(problem)
    if not kept:
        value = base_value
    else:
        red = _reduce(kept, problem.capacity,
                      None if floor is None else floor - base_value)
        if red.free is None:
            raise SolverInvariantError(
                "reduced-cost slack or room went negative below the optimum")
        value, chosen = 0, []
        if red.free:
            if red.upper + 1 > state_cap:
                value, chosen = _branch_and_bound(red.free, red.room)
            else:
                value, chosen = _dp_by_profit(red.free, red.room, red.upper,
                                              lex_cells)
        for j in red.fixed + chosen:
            bits[j] = 1
        value += base_value + red.fixed_value
    if floor is not None and value != floor:
        raise SolverInvariantError(
            f"reconstructed value {value} differs from the floor {floor}")
    return KnapsackSolution(selected=tuple(bits), value=value)


# ---------------------------------------------------------------------------
# DP over profit values: minw[t] = least weight achieving profit exactly t.
# ---------------------------------------------------------------------------

def _dp_value_only(kept, capacity, upper):
    max_w = max(w for _, _, w in kept)
    width = upper + 1
    if (_INF + max_w) < 2 ** 63 and capacity < 2 ** 62:
        row = np.full(width, _INF, dtype=np.int64)
        row[0] = 0
        for _, p, w in kept:
            np.minimum(row[p:], row[:width - p] + w, out=row[p:])
        return int(np.nonzero(row <= capacity)[0][-1])
    inf = sum(w for _, _, w in kept) + capacity + 1
    row = [inf] * width
    row[0] = 0
    for _, p, w in kept:
        for t in range(width - 1, p - 1, -1):
            cand = row[t - p] + w
            if cand < row[t]:
                row[t] = cand
    return max(t for t in range(width) if row[t] <= capacity)


def _dp_by_profit(kept, capacity, upper, lex_cells):
    k = len(kept)
    max_w = max(w for _, _, w in kept)
    int64_safe = (_INF + max_w) < 2 ** 63 and capacity < 2 ** 62
    if not int64_safe:
        return _dp_by_profit_python(kept, capacity, upper)

    width = upper + 1
    rows_budget = max(4, lex_cells // width)

    def advance(row, p, w):
        nxt = row.copy()
        np.minimum(nxt[p:], row[:width - p] + w, out=nxt[p:])
        return nxt

    base = np.full(width, _INF, dtype=np.int64)
    base[0] = 0

    if k + 1 <= rows_budget:
        # Full suffix table: suffix[i][t] = min weight over items kept[i:].
        suffix = np.empty((k + 1, width), dtype=np.int64)
        suffix[k] = base
        for i in range(k - 1, -1, -1):
            suffix[i] = advance(suffix[i + 1], kept[i][1], kept[i][2])
        top = suffix[0]

        def row_after(i):
            return suffix[i + 1]
    else:
        # Checkpointed suffix rows, rebuilt block by block during the
        # reconstruction walk; same results, bounded memory.
        stride = max(1, math.ceil((k + 1) / max(2, rows_budget // 2)))
        stored = {k: base}
        row = base
        for i in range(k - 1, -1, -1):
            row = advance(row, kept[i][1], kept[i][2])
            if i % stride == 0:
                stored[i] = row
        top = stored[0]
        block = {}

        def row_after(i):
            idx = i + 1
            if idx not in block:
                block.clear()
                anchor = min(k, ((idx // stride) + 1) * stride)
                cur = stored[anchor] if anchor in stored else stored[k]
                start = anchor if anchor in stored else k
                block[start] = cur
                for i2 in range(start - 1, (idx // stride) * stride - 1, -1):
                    cur = advance(cur, kept[i2][1], kept[i2][2])
                    block[i2] = cur
            return block[idx]

    achievable = np.nonzero(top <= capacity)[0]
    value = int(achievable[-1])
    if value == 0:
        return 0, []

    # Lexicographically smallest optimum: prefer leaving each item out when
    # the remaining suffix can still deliver the missing profit in budget.
    chosen = []
    target = value
    budget = capacity
    for i, (j, p, w) in enumerate(kept):
        after = row_after(i)
        if int(after[target]) <= budget:
            continue
        chosen.append(j)
        target -= p
        budget -= w
    if target != 0:
        raise SolverInvariantError("reconstruction missed the optimal value")
    return value, chosen


def _dp_by_profit_python(kept, capacity, upper):
    # Big-integer path for weights outside the int64 range.
    k = len(kept)
    width = upper + 1
    inf = sum(w for _, _, w in kept) + capacity + 1
    suffix = [None] * (k + 1)
    row = [inf] * width
    row[0] = 0
    suffix[k] = row
    for i in range(k - 1, -1, -1):
        _, p, w = kept[i]
        prev = suffix[i + 1]
        row = prev.copy()
        for t in range(width - 1, p - 1, -1):
            cand = prev[t - p] + w
            if cand < row[t]:
                row[t] = cand
        suffix[i] = row
    value = max(t for t in range(width) if suffix[0][t] <= capacity)
    if value == 0:
        return 0, []
    chosen = []
    target = value
    budget = capacity
    for i, (j, p, w) in enumerate(kept):
        if suffix[i + 1][target] <= budget:
            continue
        chosen.append(j)
        target -= p
        budget -= w
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


def _branch_and_bound(kept, capacity):
    order = _ratio_order(kept)
    best = 0

    # Pass 1: optimal value by include-first DFS with Dantzig pruning.
    stack = [(0, 0, capacity)]
    while stack:
        depth, value, room = stack.pop()
        if value > best:
            best = value
        if depth == len(order):
            continue
        if value + _greedy_bound(kept, order, depth, room) <= best:
            continue
        _, p, w = kept[order[depth]]
        stack.append((depth + 1, value, room))
        if w <= room:
            stack.append((depth + 1, value + p, room - w))
    if best == 0:
        return 0, []

    # Pass 2: fix bits in index order, keeping the lexicographically
    # smallest vector that still completes to the optimal value.
    def reachable(start, target, budget):
        if target <= 0:
            return True
        sub = kept[start:]
        sub_order = _ratio_order(sub)
        stack = [(0, 0, budget)]
        while stack:
            depth, value, room = stack.pop()
            if value >= target:
                return True
            if depth == len(sub_order):
                continue
            if value + _greedy_bound(sub, sub_order, depth, room) < target:
                continue
            _, p, w = sub[sub_order[depth]]
            stack.append((depth + 1, value, room))
            if w <= room:
                stack.append((depth + 1, value + p, room - w))
        return False

    chosen = []
    target = best
    budget = capacity
    for i, (j, p, w) in enumerate(kept):
        if reachable(i + 1, target, budget):
            continue
        chosen.append(j)
        target -= p
        budget -= w
    if target != 0:
        raise SolverInvariantError("reconstruction missed the optimal value")
    return best, chosen
