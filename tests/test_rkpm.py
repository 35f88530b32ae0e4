from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sockp import (HORIZONTAL, GeneratorSpec, SockpInstance, VERTICAL,
                   beta_exact, build_segments, generate, is_soc_feasible,
                   knapsack, lower_bound, rkpm, solve_rkpm, upper_bound)
from sockp.rkpm import _Family, subproblem_exact

from conftest import random_instance, soc_brute_force


def _single(b):
    return SockpInstance(profits=(1,), means=(Decimal(5),),
                         sigmas=(Decimal(1),), capacity=Decimal(b))


def test_single_item_at_exact_boundary():
    res = solve_rkpm(_single("7"), Decimal(2), 1, 1)
    assert res.objective == 1
    assert res.solution == (1,)


def test_single_item_just_infeasible():
    res = solve_rkpm(_single("6.9"), Decimal(2), 1, 1)
    assert res.objective == 0
    assert res.solution == (0,)


def test_all_zero_profits():
    inst = SockpInstance(profits=(0, 0), means=(Decimal(3), Decimal(4)),
                         sigmas=(Decimal(1), Decimal(1)), capacity=Decimal(5))
    res = solve_rkpm(inst, Decimal(2), 2, 4)
    assert res.objective == 0


def test_budget_below_inner_rejected():
    with pytest.raises(ValueError):
        solve_rkpm(_single("7"), Decimal(2), 2, 3)


def test_mismatched_table_rejected():
    inst = _single("7")
    table = build_segments(inst, Decimal(2), 3)
    with pytest.raises(ValueError):
        solve_rkpm(inst, Decimal(2), 2, 4, table=table)


def test_vertical_lower_bound_unsupported():
    with pytest.raises(ValueError):
        lower_bound(_single("7"), Decimal(2), 2, table=build_segments(
            _single("7"), Decimal(2), 2, scheme=VERTICAL))


def test_bounds_sandwich_brute_force_optimum(rng):
    for trial in range(25):
        n = rng.randint(3, 9)
        inst = random_instance(rng, n)
        omega = Decimal("4.36") if trial % 2 else Decimal("1.96")
        opt, _ = soc_brute_force(inst, omega)
        for m in (1, 2, 4):
            ub = upper_bound(inst, omega, m)
            lb = lower_bound(inst, omega, m)
            assert lb.objective <= opt <= ub.objective
            assert is_soc_feasible(lb.solution, inst, omega)
            assert lb.kind == "lower" and ub.kind == "upper"


def test_union_matches_beta_description(rng):
    # the decomposition's union of knapsack feasible sets must equal the
    # robust feasible set described directly by the support function
    for _ in range(8):
        n = rng.randint(2, 6)
        inst = random_instance(rng, n)
        omega = Decimal("2.5")
        for m in (1, 2, 3):
            table = build_segments(inst, omega, m)
            for delta in (table.inner_budget, table.inner_budget + 1,
                          table.outer_budget):
                subs = [subproblem_exact(inst, table, rank, delta)
                        for rank in table.family(delta)]
                cap = Fraction(inst.capacity)
                enumerated_best = 0
                for mask in range(1 << n):
                    bits = tuple((mask >> j) & 1 for j in range(n))
                    lhs = sum((Fraction(a) for a, b in zip(inst.means, bits) if b),
                              Fraction(0))
                    in_b = lhs + beta_exact(bits, table, delta) <= cap
                    in_union = any(
                        sum((w for w, b in zip(ws, bits) if b), Fraction(0)) <= c
                        for ws, c in subs)
                    assert in_b == in_union
                    if in_b:
                        value = sum(p for p, b in zip(inst.profits, bits) if b)
                        enumerated_best = max(enumerated_best, value)
                res = solve_rkpm(inst, omega, m, delta, table=table)
                assert res.objective == enumerated_best


def test_union_holds_under_heavy_ratio_ties():
    # subset-sum dispersions (0.1 * mean) tie many entry ratios exactly,
    # stressing the strict-prefix group logic
    from sockp import GeneratorSpec, generate

    inst = generate(GeneratorSpec(family="SS", n=7, seed=5))
    omega = Decimal("4.358898")
    for m in (2, 3):
        table = build_segments(inst, omega, m)
        assert len(set(table.group_start)) < table.size  # real tie groups
        for delta in (table.inner_budget, table.outer_budget):
            subs = [subproblem_exact(inst, table, rank, delta)
                    for rank in table.family(delta)]
            cap = Fraction(inst.capacity)
            best = 0
            for mask in range(1 << inst.n):
                bits = tuple((mask >> j) & 1 for j in range(inst.n))
                lhs = sum((Fraction(a) for a, b in zip(inst.means, bits) if b),
                          Fraction(0))
                in_b = lhs + beta_exact(bits, table, delta) <= cap
                in_union = any(
                    sum((w for w, b in zip(ws, bits) if b), Fraction(0)) <= c
                    for ws, c in subs)
                assert in_b == in_union
                if in_b:
                    best = max(best, sum(p for p, b in zip(inst.profits, bits) if b))
            assert solve_rkpm(inst, omega, m, delta, table=table).objective == best


def test_exactness_with_mixed_zero_dispersion(rng):
    for _ in range(12):
        n = rng.randint(4, 8)
        profits = tuple(rng.randint(1, 100) for _ in range(n))
        means = tuple(Decimal(rng.randint(1, 100)) for _ in range(n))
        sigmas = tuple(Decimal(0) if rng.random() < 0.4 else
                       Decimal(rng.randint(1, 2000)).scaleb(-2)
                       for _ in range(n))
        cap = Decimal(sum(int(v) for v in means) // 2)
        inst = SockpInstance(profits=profits, means=means, sigmas=sigmas,
                             capacity=cap)
        omega = Decimal("4.36")
        opt, _ = soc_brute_force(inst, omega)
        lb = lower_bound(inst, omega, 3)
        ub = upper_bound(inst, omega, 3)
        assert lb.objective <= opt <= ub.objective


def test_modified_weights_never_drop_below_means(rng):
    for _ in range(5):
        inst = random_instance(rng, rng.randint(2, 6))
        table = build_segments(inst, Decimal("4.358898"), 3)
        delta = table.inner_budget
        for rank in table.family(delta):
            weights, _ = subproblem_exact(inst, table, rank, delta)
            for w, mean in zip(weights, inst.means):
                assert w >= Fraction(mean)


def test_dummy_pivot_weights_are_means_plus_full_gains():
    inst = SockpInstance(profits=(2, 3), means=(Decimal(4), Decimal(6)),
                         sigmas=(Decimal("1.5"), Decimal("0.5")),
                         capacity=Decimal(12))
    omega = Decimal(2)
    table = build_segments(inst, omega, 3)
    weights, cap = subproblem_exact(inst, table, table.size + 1,
                                    table.inner_budget)
    assert weights == [Fraction(4) + Fraction(3), Fraction(6) + Fraction(1)]
    assert cap == Fraction(12)


def test_deterministic_across_runs_and_threads(rng):
    inst = random_instance(rng, 12)
    omega = Decimal("4.358898")
    base = solve_rkpm(inst, omega, 4, 16)
    again = solve_rkpm(inst, omega, 4, 16)
    threaded = solve_rkpm(inst, omega, 4, 16, threads=3)
    for other in (again, threaded):
        assert other.solution == base.solution
        assert other.objective == base.objective
        assert other.subproblems_solved == base.subproblems_solved
        assert other.subproblems_skipped == base.subproblems_skipped


def test_subproblem_accounting(rng):
    inst = random_instance(rng, 8)
    omega = Decimal("1.96")
    m = 3
    table = build_segments(inst, omega, m)
    res = upper_bound(inst, omega, m, table=table)
    family = table.family(table.inner_budget)
    assert res.subproblems_solved + res.subproblems_skipped == len(family)
    assert res.m == m
    assert res.delta == Fraction(9)


def test_upper_bound_doubling_monotone(rng):
    for trial in range(15):
        inst = random_instance(rng, rng.randint(4, 9))
        omega = Decimal("4.36") if trial % 2 else Decimal("1.96")
        values = [upper_bound(inst, omega, m).objective for m in (1, 2, 4, 8)]
        assert values == sorted(values, reverse=True)


def test_schemes_coincide_on_deterministic_instances():
    inst = SockpInstance(profits=(6, 10, 12), means=(Decimal(1), Decimal(2),
                         Decimal(3)), sigmas=(Decimal(0),) * 3,
                         capacity=Decimal(5))
    h = upper_bound(inst, Decimal(2), 1)
    v = upper_bound(inst, Decimal(2), 1, scheme=VERTICAL)
    assert h.objective == v.objective == 22
    assert h.solution == v.solution


def test_vertical_upper_dominates_horizontal_at_equal_m(rng):
    for _ in range(8):
        inst = random_instance(rng, rng.randint(3, 7))
        omega = Decimal("4.358898")
        for m in (2, 4):
            h = upper_bound(inst, omega, m).objective
            v = upper_bound(inst, omega, m, scheme=VERTICAL).objective
            assert v >= h


def test_lower_bound_solution_satisfies_robust_constraint(rng):
    for _ in range(10):
        inst = random_instance(rng, rng.randint(3, 8))
        omega = Decimal("2.326347")
        m = 3
        table = build_segments(inst, omega, m)
        res = lower_bound(inst, omega, m, table=table)
        lhs = sum((Fraction(a) for a, b in zip(inst.means, res.solution) if b),
                  Fraction(0))
        assert lhs + beta_exact(res.solution, table, table.outer_budget) \
            <= Fraction(inst.capacity)


def _dantzig_float(profits, weights, cap):
    """Scalar LP bound of one knapsack with a nonnegative capacity."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(weights > 0, profits / np.maximum(weights, 1e-300), np.inf)
        ratios = np.where(profits > 0, ratios, 0.0)
    order = np.argsort(-ratios, kind="stable")
    w_sorted = weights[order]
    p_sorted = profits[order]
    cum_w = np.cumsum(w_sorted)
    k = int(np.searchsorted(cum_w, cap, side="right"))
    if k >= len(order):
        return float(p_sorted.sum())
    full = float(p_sorted[:k].sum())
    room = cap - (float(cum_w[k - 1]) if k else 0.0)
    if w_sorted[k] > 0 and room > 0:
        full += float(p_sorted[k]) * room / float(w_sorted[k])
    return full


def _scalar_screen(fam):
    """Pivot-by-pivot reference for ``_Family.screen`` on ``_dantzig_float``."""
    t = fam.table
    family = set(t.family(fam.delta))
    candidates = []
    skipped = 0
    for i in range(t.size + 1):
        dummy = i == t.size
        if i + 1 not in family:
            continue
        r = 0.0 if dummy else t.d_float[i] / t.f[i]
        cap = fam.cap_f - r * fam.dn / fam.dd
        tol = 1e-6 * (1.0 + abs(fam.cap_f) + abs(cap))
        if cap < -tol or (cap <= tol and fam.capacity_is_negative(
                None if dummy else i)):
            skipped += 1
            continue
        sd, sf = t.prefix_state(t.size if dummy else t.group_start[i])
        weights = (fam.means_f + np.array([d / t.q for d in sd])
                   - r * np.array(sf, dtype=float))
        candidates.append((i + 1, None if dummy else i, _dantzig_float(
            fam.profits_f, weights, max(cap, 0.0))))
    return candidates, skipped


def _screen_cases(rng):
    # Ties (items 0 and 2) and two pivots with capacity exactly zero, which
    # only the exact sign test can place.
    tied = SockpInstance(profits=(5, 2, 4), means=(Decimal(1),) * 3,
                         sigmas=(Decimal("1.5"), Decimal("0.5"), Decimal("1.5")),
                         capacity=Decimal(3))
    yield tied, Decimal(2), build_segments(tied, Decimal(2), 1)
    for trial in range(12):
        # A small sigma alphabet makes ratio groups spanning several items.
        inst = random_instance(rng, rng.randint(3, 9), sigma_hi=4, sigma_digits=0,
                               capacity_ratio=rng.choice((0.1, 0.3, 0.6)))
        omega = Decimal("4.358898")
        scheme = VERTICAL if trial % 2 else HORIZONTAL
        yield inst, omega, build_segments(inst, omega, rng.randint(1, 5), scheme)


def test_matrix_screen_matches_scalar_reference(rng, monkeypatch):
    straddled = skipped_total = 0
    for inst, omega, table in _screen_cases(rng):
        deltas = [table.inner_budget]
        if table.scheme == HORIZONTAL:
            deltas.append(table.outer_budget)
        for delta in deltas:
            fam = _Family(inst, table, Fraction(delta))
            expected, skipped = _scalar_screen(fam)
            skipped_total += skipped
            ranks = set(table.family(delta))
            # Entries i-1 and i share a ratio and both are pivots (ranks i
            # and i+1; the real ranks of a family are contiguous).
            straddled += any(table.group_start[i] < i and i in ranks
                             for i in range(1, table.size))
            for rows in (1, 2, 3, 1000):
                monkeypatch.setattr(rkpm, "SCREEN_CHUNK", rows * inst.n)
                got, got_skipped = fam.screen()
                assert got_skipped == skipped
                assert [c[:2] for c in got] == [c[:2] for c in expected]
                for (_, _, b), (_, _, ref) in zip(got, expected):
                    assert abs(b - ref) <= 1e-9 * (1 + abs(ref))
    # Some ratio group crossed a one-row chunk boundary, and some pivots
    # were dropped for a negative capacity.
    assert straddled and skipped_total


@pytest.mark.parametrize("family", ["SC", "IC"])
def test_bound_pair_dp_cells_stay_small(family, monkeypatch):
    """Deterministic work guard: DP cells per n=100, m=40 bound pair."""
    cells = []

    def counted(fn):
        def wrapper(kept, capacity, upper, *args):
            cells[-1] += len(kept) * (upper + 1)
            return fn(kept, capacity, upper, *args)
        return wrapper

    for name in ("_dp_value_only", "_dp_by_profit"):
        monkeypatch.setattr(knapsack, name, counted(getattr(knapsack, name)))
    omega = Decimal("4.358898")
    for seed in (0, 1):
        inst = generate(GeneratorSpec(family=family, n=100, seed=seed))
        table = build_segments(inst, omega, 40)
        cells.append(0)
        upper_bound(inst, omega, 40, table=table)
        lower_bound(inst, omega, 40, table=table)
    assert max(cells) <= 25_000_000, cells


def test_incumbent_floors_keep_the_unfloored_winner(rng, monkeypatch):
    """Floors narrow the knapsacks but never change the winning pivot.

    A small profit alphabet makes equal objectives across pivots common, so
    the smallest-rank tie-break is exercised.
    """
    omega = Decimal("4.358898")
    cases = []
    for _ in range(40):
        inst = random_instance(rng, rng.randint(4, 12), profit_hi=3)
        m = rng.randint(1, 4)
        cases.append((inst, m, upper_bound(inst, omega, m),
                      lower_bound(inst, omega, m)))
    for name in ("solve_knapsack_value", "solve_knapsack"):
        solve = getattr(rkpm, name)
        monkeypatch.setattr(rkpm, name, lambda problem, floor=None, solve=solve:
                            solve(problem))
    for inst, m, ub, lb in cases:
        assert upper_bound(inst, omega, m).solution == ub.solution
        assert lower_bound(inst, omega, m).solution == lb.solution
