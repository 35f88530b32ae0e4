import math
import random

import numpy as np
import pytest

from sockp import (KnapsackSubproblem, SolverInvariantError, dantzig_bound,
                   solve_knapsack)
from sockp import knapsack
from sockp.knapsack import solve_knapsack_value

from conftest import enumerate_knapsack, exact_lp


def test_textbook_instance():
    sol = solve_knapsack(KnapsackSubproblem(profits=(60, 100, 120),
                                            weights=(10, 20, 30), capacity=50))
    assert sol.value == 220
    assert sol.selected == (0, 1, 1)
    assert sol.feasible


def test_empty_instance():
    sol = solve_knapsack(KnapsackSubproblem(profits=(), weights=(), capacity=5))
    assert sol.value == 0
    assert sol.selected == ()


def test_single_oversized_item():
    sol = solve_knapsack(KnapsackSubproblem(profits=(5,), weights=(10,), capacity=9))
    assert sol.value == 0
    assert sol.selected == (0,)


def test_negative_capacity_is_distinguished_not_fatal():
    sol = solve_knapsack(KnapsackSubproblem(profits=(5,), weights=(1,), capacity=-1))
    assert not sol.feasible
    assert sol.value == 0
    assert sol.selected == (0,)


def test_zero_weight_items_always_taken_zero_profit_never():
    sol = solve_knapsack(KnapsackSubproblem(profits=(7, 0, 3),
                                            weights=(0, 0, 5), capacity=4))
    assert sol.selected == (1, 0, 0)
    assert sol.value == 7


def test_invariants_rejected():
    with pytest.raises(ValueError):
        KnapsackSubproblem(profits=(1, 2), weights=(1,), capacity=3)
    with pytest.raises(ValueError):
        KnapsackSubproblem(profits=(1,), weights=(-1,), capacity=3)


def _random_problem(rng, n, profit_hi=100, weight_hi=60):
    profits = tuple(rng.randint(0, profit_hi) for _ in range(n))
    weights = tuple(rng.randint(0, weight_hi) for _ in range(n))
    capacity = rng.randint(0, max(1, sum(weights) // 2))
    return KnapsackSubproblem(profits=profits, weights=weights, capacity=capacity)


def test_matches_enumeration_including_lexicographic_ties():
    rng = random.Random(7)
    for trial in range(150):
        n = rng.randint(1, 12)
        # small profit alphabet on odd trials forces plenty of ties
        prob = _random_problem(rng, n, profit_hi=5 if trial % 2 else 100)
        value, bits = enumerate_knapsack(prob.profits, prob.weights, prob.capacity)
        sol = solve_knapsack(prob)
        assert sol.value == value
        assert sol.selected == bits
        assert solve_knapsack_value(prob) == value


def test_optimal_value_invariant_under_permutation():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 14)
        prob = _random_problem(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = KnapsackSubproblem(
            profits=tuple(prob.profits[j] for j in perm),
            weights=tuple(prob.weights[j] for j in perm),
            capacity=prob.capacity)
        assert solve_knapsack(prob).value == solve_knapsack(shuffled).value


def test_dantzig_bound_dominates_optimum():
    """The bound is the LP optimum's floor over the items that can count:
    positive profit and a weight within the capacity.  Random problems, with
    zero weights and oversized items, equal ratios and 25-digit data."""
    rng = random.Random(13)
    for trial in range(120):
        n = rng.randint(1, 14)
        if trial % 3 == 0:
            prob = _random_problem(rng, n)
        elif trial % 3 == 1:
            ratios = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]
            pairs = [(rng.choice(ratios), rng.randint(1, 12)) for _ in range(n)]
            profits = tuple(p * k for (p, _), k in pairs)
            weights = tuple(w * k for (_, w), k in pairs)
            prob = KnapsackSubproblem(profits=profits, weights=weights,
                                      capacity=rng.randint(0, sum(weights)))
        else:
            prob = _random_problem(rng, n, profit_hi=10 ** 25,
                                   weight_hi=10 ** 25)
        bound = dantzig_bound(prob.profits, prob.weights, prob.capacity)
        kept = [(p, w) for p, w in zip(prob.profits, prob.weights)
                if p > 0 and w <= prob.capacity]
        assert bound == math.floor(exact_lp(*zip(*kept), prob.capacity)
                                   if kept else 0)
        if n <= 12:
            assert bound >= enumerate_knapsack(prob.profits, prob.weights,
                                               prob.capacity)[0]


def test_branch_and_bound_path_agrees_with_dp(monkeypatch):
    rng = random.Random(17)
    for trial in range(60):
        prob = _random_problem(rng, rng.randint(1, 11),
                               profit_hi=6 if trial % 2 else 80)
        dp = solve_knapsack(prob)
        with monkeypatch.context() as patch:
            patch.setattr(knapsack, "STATE_CAP", 1)  # force the fallback
            bb = solve_knapsack(prob)
        assert bb.value == dp.value
        assert bb.selected == dp.selected


def test_checkpointed_reconstruction_agrees_with_full_table(monkeypatch):
    rng = random.Random(19)
    for _ in range(40):
        prob = _random_problem(rng, rng.randint(2, 12))
        full = solve_knapsack(prob)
        with monkeypatch.context() as patch:
            patch.setattr(knapsack, "LEX_CELLS", 8)  # force checkpointing
            chunked = solve_knapsack(prob)
        assert chunked.value == full.value
        assert chunked.selected == full.selected
    # Weights past 2**63 run the same kernel on Python integers, and their
    # reconstruction obeys the same cell budget.
    monkeypatch.setattr(knapsack, "LEX_CELLS", 8)
    for _ in range(40):
        prob = _random_problem(rng, rng.randint(2, 12))
        shift = (1 << 63) + rng.randint(0, 99)
        big = KnapsackSubproblem(profits=prob.profits,
                                 weights=tuple(w * shift for w in prob.weights),
                                 capacity=prob.capacity * shift)
        value, bits = enumerate_knapsack(big.profits, big.weights, big.capacity)
        chunked = solve_knapsack(big)
        assert chunked.value == value
        assert chunked.selected == bits
        assert solve_knapsack_value(big) == value


def test_big_integer_weights_fall_back_exactly():
    shift = 1 << 70
    prob = KnapsackSubproblem(profits=(6, 10, 12),
                              weights=(1 * shift, 2 * shift, 3 * shift),
                              capacity=5 * shift)
    sol = solve_knapsack(prob)
    assert sol.value == 22
    assert sol.selected == (0, 1, 1)


def _floor_cases(rng):
    """Problems covering each branch of the reduced-cost fixing.

    Zero-weight and oversized items, equal ratios, negative capacities and
    weights above 2**62 (the big-integer path), cycled over the trials; then
    problems whose only weights of 2**63 or more carry profit 0; then
    problems where every item fits, and problems that mix zero-weight items
    of positive profit with ordinary ones or hold only such items.
    """
    for trial in range(150):
        kind = trial % 5
        n = rng.randint(0, 10)
        weights = [rng.randint(0, 30) for _ in range(n)]
        if kind == 1:  # equal ratios: profit is 2 or 3 times the weight
            profits = [w * rng.choice((2, 3)) for w in weights]
        elif kind == 2:  # strongly correlated, plus zero-profit items
            profits = [w + 10 if rng.random() < 0.8 else 0 for w in weights]
        else:
            profits = [rng.randint(0, 40) for _ in range(n)]
        capacity = rng.randint(0, max(1, sum(weights)))
        if kind == 3:
            capacity = -rng.randint(1, 5)
        if kind == 4:
            shift = (1 << 63) + rng.randint(0, 99)
            weights = [w * shift for w in weights]
            capacity *= shift
        yield KnapsackSubproblem(profits=tuple(profits), weights=tuple(weights),
                                 capacity=capacity)
    for trial in range(20):
        n = rng.randint(1, 8)
        shift = (1 << 63) + rng.randint(0, 99)
        if trial % 2:  # all profits zero, every weight past 2**63
            profits = [0] * n
            weights = [rng.randint(0, 30) * shift for _ in range(n)]
        else:  # one zero-profit oversized item next to small ones
            profits = [rng.randint(0, 40) for _ in range(n)]
            weights = [rng.randint(0, 30) for _ in range(n)]
            at = rng.randint(0, n)
            profits.insert(at, 0)
            weights.insert(at, shift)
        capacity = rng.randint(0, max(1, sum(weights) - max(weights)))
        yield KnapsackSubproblem(profits=tuple(profits), weights=tuple(weights),
                                 capacity=capacity)
    for trial in range(30):
        n = rng.randint(0, 8)
        kind = trial % 3
        if kind == 0:  # every item fits
            profits = [rng.randint(0, 40) for _ in range(n)]
            weights = [rng.randint(0, 30) for _ in range(n)]
            capacity = sum(weights) + rng.randint(0, 5)
        else:  # zero-weight items of positive profit; kind 2 holds only those
            weights = [0 if kind == 2 or rng.random() < 0.4
                       else rng.randint(1, 30) for _ in range(n)]
            profits = [rng.randint(1, 40) if w == 0 else rng.randint(0, 40)
                       for w in weights]
            capacity = rng.randint(0, max(1, sum(weights)))
        yield KnapsackSubproblem(profits=tuple(profits), weights=tuple(weights),
                                 capacity=capacity)


def test_floor_contract_matches_enumeration(monkeypatch):
    for prob in _floor_cases(random.Random(23)):
        opt, bits = enumerate_knapsack(prob.profits, prob.weights, prob.capacity)
        # STATE_CAP = 1 sends the reduced problem to branch and bound.
        for cap in (knapsack.STATE_CAP, 1):
            with monkeypatch.context() as patch:
                patch.setattr(knapsack, "STATE_CAP", cap)
                for floor in range(opt + 3):
                    value = solve_knapsack_value(prob, floor=floor)
                    if opt >= floor:
                        assert value == opt, (prob, floor, cap)
                    else:
                        assert value < floor, (prob, floor, cap)
                if prob.capacity >= 0:
                    sol = solve_knapsack(prob, floor=opt)
                    assert sol.value == opt
                    assert sol.selected == bits, (prob, cap)
        if prob.capacity >= 0:
            assert solve_knapsack(prob).selected == bits


def _correlated_cases(rng):
    """Strongly correlated problems, profit = weight + a shift: the LP fill
    takes many light items, so the count of items that fit binds."""
    for _ in range(120):
        n = rng.randint(4, 12)
        weights = [rng.randint(1, 60) for _ in range(n)]
        shift = rng.choice((3, 10, 30))
        capacity = max(weights) + rng.randint(0, sum(weights) // 2)
        yield KnapsackSubproblem(profits=tuple(w + shift for w in weights),
                                 weights=tuple(weights), capacity=capacity)


def test_cardinality_stage_keeps_the_floor_contract(monkeypatch):
    """With the gate at 0 cells the cardinality bound runs on every int64
    value solve and reconstruction: strongly correlated problems and the
    fixing cases keep the floor contract at every floor and the
    lexicographically least optimum, and the stage both pruned and fixed
    items on the way.  Problems of weights past 2**63 (``object`` rows)
    never reach it and still match."""
    seen = {"calls": 0, "pruned": 0, "fixed": 0}
    stage = knapsack._cardinality

    def spy(*args):
        out = stage(*args)
        seen["calls"] += 1
        if out is not None:
            slack, _, d = out
            seen["pruned"] += slack < 0
            seen["fixed"] += slack >= 0 and bool((np.abs(d) > slack).any())
        return out

    monkeypatch.setattr(knapsack, "CARD_CELLS", 0)
    monkeypatch.setattr(knapsack, "_cardinality", spy)

    def check(prob):
        opt, bits = enumerate_knapsack(prob.profits, prob.weights,
                                       prob.capacity)
        for floor in range(opt + 3):
            value = solve_knapsack_value(prob, floor=floor)
            if opt >= floor:
                assert value == opt, (prob, floor)
            else:
                assert value < floor, (prob, floor)
        if prob.capacity >= 0:
            sol = solve_knapsack(prob, floor=opt)
            assert (sol.value, sol.selected) == (opt, bits), prob

    rng = random.Random(37)
    correlated = list(_correlated_cases(rng))
    for prob in correlated + list(_floor_cases(rng)):
        check(prob)
    assert seen["pruned"] and seen["fixed"], seen
    calls = seen["calls"]
    shift = (1 << 63) + 5
    for prob in correlated[:30]:
        check(KnapsackSubproblem(profits=prob.profits,
                                 weights=tuple(w * shift for w in prob.weights),
                                 capacity=prob.capacity * shift))
    assert seen["calls"] == calls


def test_a_given_lp_row_changes_no_value():
    """Passing the problem's :func:`knapsack.lp_rows` tuple only saves
    recomputing it: zero weights, zero profits, oversized items and big
    integers, as int64 and ``object`` arrays, at every floor."""
    for prob in _floor_cases(random.Random(31)):
        if prob.capacity < 0:
            continue
        opt, _ = enumerate_knapsack(prob.profits, prob.weights, prob.capacity)
        for dtype in (np.int64, object):
            if dtype is np.int64 and max(prob.weights, default=0) >= 2 ** 63:
                continue  # no int64 form
            form = KnapsackSubproblem(
                profits=np.array(prob.profits, dtype=dtype),
                weights=np.array(prob.weights, dtype=dtype),
                capacity=prob.capacity)
            lp = knapsack.lp_rows(form.profits, form.weights[None],
                                  [form.capacity])[0]
            for floor in range(opt + 3):
                assert (solve_knapsack_value(form, floor=floor, lp=lp)
                        == solve_knapsack_value(form, floor=floor))


def test_floor_above_optimum_fails_reconstruction():
    prob = KnapsackSubproblem(profits=(60, 100, 120), weights=(10, 20, 30),
                              capacity=50)
    for floor in (219, 221):
        with pytest.raises(SolverInvariantError):
            solve_knapsack(prob, floor=floor)


def _array_forms(prob):
    """The tuple problem and its int64-array and object-array forms."""
    yield prob
    for dtype in (np.int64, object):
        yield KnapsackSubproblem(profits=np.array(prob.profits, dtype=dtype),
                                 weights=np.array(prob.weights, dtype=dtype),
                                 capacity=prob.capacity)


def test_array_forms_solve_identically():
    for prob in _floor_cases(random.Random(29)):
        if max(prob.weights, default=0) >= 2 ** 63:
            continue  # no int64 form
        opt, bits = enumerate_knapsack(prob.profits, prob.weights,
                                       prob.capacity)
        for form in _array_forms(prob):
            assert solve_knapsack(form) == solve_knapsack(prob)
            for floor in (None, 0, opt - 1, opt, opt + 1):
                assert (solve_knapsack_value(form, floor=floor)
                        == solve_knapsack_value(prob, floor=floor))
            if prob.capacity >= 0:
                sol = solve_knapsack(form, floor=opt)
                assert (sol.value, sol.selected) == (opt, bits)
    # Object arrays carry weights past 2**63 exactly.
    shift = 1 << 70
    big = KnapsackSubproblem(profits=np.array([6, 10, 12], dtype=object),
                             weights=np.array([shift, 2 * shift, 3 * shift],
                                              dtype=object),
                             capacity=5 * shift)
    assert solve_knapsack(big).selected == (0, 1, 1)
    assert solve_knapsack_value(big) == 22


@pytest.mark.parametrize("dtype", [np.int64, object, tuple])
def test_array_invariants_rejected(dtype):
    """The array forms and the tuple form refuse the same data."""
    def problem(profits, weights, capacity=3):
        if dtype is tuple:
            return KnapsackSubproblem(tuple(profits), tuple(weights), capacity)
        return KnapsackSubproblem(profits=np.array(profits, dtype=dtype),
                                  weights=np.array(weights, dtype=dtype),
                                  capacity=capacity)

    with pytest.raises(ValueError, match="equal length"):
        problem([1, 2], [1])
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        problem([1, 2], [1, -1])
    with pytest.raises(ValueError, match="profits must be nonnegative"):
        problem([-1, 2], [1, 1])
    with pytest.raises(ValueError, match="capacity must be an integer"):
        problem([5, 3], [1, 1], 1.5)
    if dtype is not np.int64:  # an int64 array cannot hold 1.9
        # Truncated, 1.9 + 1.2 would fit a capacity of 2.
        with pytest.raises(ValueError, match="must be integers"):
            problem([5, 3], [1.9, 1.2], 2)
        with pytest.raises(ValueError, match="must be integers"):
            problem([1.5, 2], [1, 1], 2)
    if dtype is not tuple:
        with pytest.raises(ValueError, match="integer arrays"):
            KnapsackSubproblem(profits=np.array([5, 3], dtype=dtype),
                               weights=np.array([1.9, 1.2]), capacity=2)
    # The LP bound of each form: 0 at a negative capacity, which admits no
    # selection, and 5 + 3/2 floored at capacity 2.
    prob = problem([5, 3, 0, 9], [1, 2, 0, 3])
    assert dantzig_bound(prob.profits, prob.weights, -1) == 0
    assert dantzig_bound(prob.profits, prob.weights, 2) == 6


def test_ratio_past_float_range_picks_a_break_item():
    """A profit/weight ratio beyond float range is clamped, not raised."""
    huge = 10 ** 400
    sol = solve_knapsack(KnapsackSubproblem((huge, 3), (1, 2), 5))
    assert (sol.selected, sol.value) == ((1, 1), huge + 3)
    assert solve_knapsack_value(KnapsackSubproblem((huge, 3), (1, 2), 2)) == huge
    assert knapsack.lp_rows(np.array([huge, 3], dtype=object),
                            np.array([[1, 2]], dtype=object),
                            [5]) == [(huge + 3, 0, 1, huge + 3)]
    # The break item is the second, whatever the clamped keys say.
    assert knapsack.lp_rows(np.array([huge, 3], dtype=object),
                            np.array([[1, 2]], dtype=object),
                            [2]) == [(huge, 3, 2, huge + 1)]
