import random

import numpy as np
import pytest

from sockp import (KnapsackSubproblem, SolverInvariantError, dantzig_bound,
                   solve_knapsack)
from sockp import knapsack
from sockp.knapsack import solve_knapsack_value

from conftest import enumerate_knapsack


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
    rng = random.Random(13)
    for _ in range(60):
        prob = _random_problem(rng, rng.randint(1, 14))
        assert dantzig_bound(prob.profits, prob.weights, prob.capacity) \
            >= solve_knapsack(prob).value


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
    problems whose only weights of 2**63 or more carry profit 0.
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


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_array_invariants_rejected(dtype):
    def problem(profits, weights):
        return KnapsackSubproblem(profits=np.array(profits, dtype=dtype),
                                  weights=np.array(weights, dtype=dtype),
                                  capacity=3)

    with pytest.raises(ValueError, match="equal length"):
        problem([1, 2], [1])
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        problem([1, 2], [1, -1])
    with pytest.raises(ValueError, match="profits must be nonnegative"):
        problem([-1, 2], [1, 1])
