import math
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from sockp import (HORIZONTAL, GeneratorSpec, SockpInstance, VERTICAL,
                   beta_exact, build_segments, generate, is_soc_feasible,
                   knapsack, lower_bound, rkpm, solve_rkpm, upper_bound)
from sockp.approx import SegmentTable
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
    # A table of another omega or another instance would give an "upper
    # bound" below the SOC optimum (844 < 881 and 816 < 838 here).
    omega = Decimal("4.358898")
    sc0 = generate(GeneratorSpec(family="SC", n=30, seed=0))
    sc1 = generate(GeneratorSpec(family="SC", n=30, seed=1))
    for inst, omega_used, table in (
            (sc0, 1, build_segments(sc0, omega, 5)),
            (sc0, omega, build_segments(sc1, omega, 5))):
        with pytest.raises(ValueError):
            upper_bound(inst, omega_used, 5, table=table)
        with pytest.raises(ValueError):
            lower_bound(inst, omega_used, 5, table=table)


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


def test_deterministic_across_runs(rng):
    inst = random_instance(rng, 12)
    omega = Decimal("4.358898")
    base = solve_rkpm(inst, omega, 4, 16)
    again = solve_rkpm(inst, omega, 4, 16)
    assert again.solution == base.solution
    assert again.objective == base.objective
    assert again.subproblems_solved == base.subproblems_solved
    assert again.subproblems_skipped == base.subproblems_skipped


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
    """Pivot-by-pivot reference bounds on ``_dantzig_float``.

    Returns ([(rank, sorted index, bound)], skipped) over the family's
    pivots with a nonnegative exact capacity.
    """
    t = fam.table
    family = set(t.family(fam.delta))
    candidates = []
    skipped = 0
    for i in range(t.size + 1):
        dummy = i == t.size
        if i + 1 not in family:
            continue
        if subproblem_exact(fam.inst, t, i + 1, fam.delta)[1] < 0:
            skipped += 1
            continue
        r = 0.0 if dummy else t.d_float[i] / t.f[i]
        cap = fam.cap_f - r * fam.dn / fam.dd
        sd, sf = t.prefix_state(t.size if dummy else t.group_start[i])
        weights = (fam.means_f + np.array([d / t.q for d in sd])
                   - r * np.array(sf, dtype=float))
        candidates.append((i + 1, i, _dantzig_float(
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


def _close(bound, ref):
    return abs(bound - ref) <= 1e-9 * (1 + abs(ref))


def test_matrix_screen_matches_scalar_reference(rng, monkeypatch):
    """Block bounds dominate, and expanded rows match, the scalar reference.

    A block of one pivot is bounded by that pivot's own row, so at block
    length 1 the screen itself must match the reference.
    """
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
            refs = {i: ref for _, i, ref in expected}
            for block, rows in product((1, 2, 3, 1000), (1, 2, 3, 1000)):
                monkeypatch.setattr(rkpm, "SCREEN_BLOCK", block)
                monkeypatch.setattr(rkpm, "SCREEN_CHUNK", rows * inst.n)
                got, got_skipped = fam.screen()
                assert got_skipped == skipped
                covered = [i for first, stop, _ in got
                           for i in range(first, stop)]
                assert covered == [i for _, i, _ in expected]
                for first, stop, bound in got:
                    assert 1 <= stop - first <= block
                    for i, row in zip(range(first, stop),
                                      fam.expand(first, stop)[0]):
                        assert _close(row, refs[i])
                        assert bound >= refs[i] - 1e-9 * (1 + abs(refs[i]))
                    if stop - first == 1:
                        assert _close(bound, refs[first])
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
    """The family result is (max value, min rank) over unfloored pivot solves.

    A small profit alphabet makes equal objectives across pivots common, so
    the smallest-rank tie-break is exercised, at several screen block lengths.
    """
    omega = Decimal("4.358898")
    ties = 0
    for trial in range(40):
        inst = random_instance(rng, rng.randint(4, 12), profit_hi=3)
        scheme = VERTICAL if trial % 2 else HORIZONTAL
        m = rng.randint(1, 4)
        table = build_segments(inst, omega, m, scheme)
        # inner + n/4 is the horizontal outer budget; the vertical scheme
        # has none, but any budget above the inner one is valid.
        for delta in (table.inner_budget,
                      table.inner_budget + Fraction(inst.n, 4)):
            fam = _Family(inst, table, delta)
            solved = []
            for rank in table.family(delta):
                problem = fam.subproblem(rank - 1, fam.block_sums(rank - 1))
                if problem.capacity >= 0:
                    solved.append((rank, knapsack.solve_knapsack(problem)))
            if solved:
                best = max(sol.value for _, sol in solved)
                winners = [(rank, sol) for rank, sol in solved
                           if sol.value == best]
                ties += len(winners) > 1
                _, sol = min(winners, key=lambda w: w[0])
                expected = (sol.value, sol.selected)
            else:
                expected = (0, (0,) * inst.n)
            for block in (1, 3, rkpm.SCREEN_BLOCK):
                monkeypatch.setattr(rkpm, "SCREEN_BLOCK", block)
                res = solve_rkpm(inst, omega, m, delta, scheme=scheme,
                                 table=table)
                assert (res.objective, res.solution) == expected
    assert ties


def test_screen_bound_below_a_solved_value_raises(monkeypatch):
    real = rkpm._dantzig_rows
    monkeypatch.setattr(rkpm, "_dantzig_rows", lambda *args: real(*args) - 10)
    inst = generate(GeneratorSpec(family="SC", n=30, seed=0))
    with pytest.raises(rkpm.SolverInvariantError, match="above its screen bound"):
        upper_bound(inst, Decimal("4.358898"), 5)


def test_row_bound_above_its_block_bound_raises(monkeypatch):
    real = rkpm._Family.screen

    def zero(fam):
        blocks, skipped = real(fam)
        return [(first, stop, 0.0) for first, stop, _ in blocks], skipped

    monkeypatch.setattr(rkpm._Family, "screen", zero)
    inst = generate(GeneratorSpec(family="SC", n=30, seed=0))
    with pytest.raises(rkpm.SolverInvariantError,
                       match="above their block bound"):
        upper_bound(inst, Decimal("4.358898"), 5)


@pytest.mark.parametrize("bound", [upper_bound, lower_bound])
def test_empty_instance_bounds_are_the_empty_selection(bound):
    inst = SockpInstance(profits=(), means=(), sigmas=(), capacity=Decimal(3))
    res = bound(inst, Decimal("4.358898"), 3)
    assert res.objective == 0
    assert res.solution == ()


def _budgets(table, n):
    """The inner budget and a larger one: the outer budget when horizontal.

    inner + n/4 is the horizontal outer budget; the vertical scheme has none,
    but any budget above the inner one is valid.
    """
    return table.inner_budget, table.inner_budget + Fraction(n, 4)


def _assert_row_is_exact(fam, i, problem):
    """``problem`` is ceil(SCALE * w), floor(SCALE * cap) of the reference."""
    weights, cap = subproblem_exact(fam.inst, fam.table, i + 1, fam.delta)
    assert problem.weights.tolist() == [math.ceil(rkpm.SCALE * w)
                                        for w in weights]
    assert problem.capacity == math.floor(rkpm.SCALE * cap)
    assert problem.profits.tolist() == list(fam.inst.profits)


def _object_cases(rng):
    """Families whose rows are ``object`` arrays.

    Means with 7 fractional digits (10^7 does not divide SCALE) and
    dispersions with 20 significant digits (gain sums past 2**53), on both
    schemes.
    """
    for trial in range(4):
        base = random_instance(rng, rng.randint(3, 8))
        if trial % 2:
            means = tuple(Decimal(rng.randint(1, 10 ** 9)).scaleb(-7)
                          for _ in range(base.n))
            inst = SockpInstance(profits=base.profits, means=means,
                                 sigmas=base.sigmas, capacity=base.capacity)
        else:
            sigmas = tuple(Decimal(rng.randint(10 ** 19, 10 ** 20)).scaleb(-18)
                           for _ in range(base.n))
            inst = SockpInstance(profits=base.profits, means=base.means,
                                 sigmas=sigmas, capacity=base.capacity)
        yield inst, Decimal("4.358898"), build_segments(
            inst, Decimal("4.358898"), rng.randint(1, 4),
            VERTICAL if trial >= 2 else HORIZONTAL)


def _decimal_mean_cases(rng):
    """int64 rows whose means have 3 fractional digits (10^3 divides SCALE)."""
    for trial in range(2):
        base = random_instance(rng, rng.randint(3, 8))
        means = tuple(Decimal(rng.randint(1, 10 ** 5)).scaleb(-3)
                      for _ in range(base.n))
        inst = SockpInstance(profits=base.profits, means=means,
                             sigmas=base.sigmas, capacity=base.capacity)
        yield inst, Decimal("4.358898"), build_segments(
            inst, Decimal("4.358898"), rng.randint(1, 4))


def test_integer_rows_match_the_exact_reference(rng, monkeypatch):
    """Every pivot's scaled knapsack, built from its block's exact sums.

    Rows of expanded blocks (any block length) and the rows the screen
    skips for a negative capacity, on int64 and on object rows.
    """
    dtypes = set()
    objects = list(_object_cases(rng))
    cases = (list(_screen_cases(rng)) + list(_decimal_mean_cases(rng))
             + objects)
    for inst, omega, table in cases:
        for delta in _budgets(table, inst.n):
            fam = _Family(inst, table, delta)
            dtypes.add(fam._rows.dnum.dtype)
            if any(table is case[2] for case in objects):
                assert fam._rows.dnum.dtype == object
            built = set()
            for block in (1, 3, 64):
                monkeypatch.setattr(rkpm, "SCREEN_BLOCK", block)
                blocks, skipped = fam.screen()
                for first, stop, _ in blocks:
                    _, sums = fam.expand(first, stop)
                    for i in range(first, stop):
                        _assert_row_is_exact(fam, i, fam.subproblem(i, sums))
                        built.add(i)
            ranks = table.family(delta)
            for i in range(ranks[0] - 1, ranks[0] - 1 + skipped):
                problem = fam.subproblem(i, fam.block_sums(i))
                assert problem.capacity < 0
                _assert_row_is_exact(fam, i, problem)
                built.add(i)
            assert built == {rank - 1 for rank in ranks}  # the dummy too
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize("big", [False, True])
def test_broken_ratio_order_raises_negative_modified_weight(big):
    """A table sorted by rising ratio gives pivots negative extra weights."""
    sigmas = (Decimal("1.5"), Decimal("0.5"), Decimal("2.5"))
    if big:  # 20 significant digits: object rows
        sigmas = tuple(s + Decimal("1e-19") for s in sigmas)
    inst = SockpInstance(profits=(5, 2, 4), means=(Decimal(1),) * 3,
                         sigmas=sigmas, capacity=Decimal(30))
    good = build_segments(inst, Decimal(2), 3)
    broken = SegmentTable(good.n, good.m, good.omega, good.sigmas, good.scheme,
                          good.js[::-1], good.ks[::-1], good.dnum[::-1],
                          good.f[::-1], good.q, good.item_total_dnum)
    fam = _Family(inst, broken, broken.inner_budget)
    assert (fam._rows.dnum.dtype == object) == big
    with pytest.raises(rkpm.SolverInvariantError,
                       match="negative modified weight"):
        for i in range(broken.size + 1):
            fam.subproblem(i, fam.block_sums(i))


def _exact_lp(profits, weights, capacity):
    """LP optimum of a knapsack with Fraction weights, capacity >= 0."""
    value = Fraction(sum(p for p, w in zip(profits, weights) if w == 0))
    room = capacity
    for _, p, w in sorted(((Fraction(p) / w, p, w)
                           for p, w in zip(profits, weights) if w > 0),
                          key=lambda e: -e[0]):
        if w > room:
            return value + p * room / w
        value += p
        room -= w
    return value


def test_integral_pruning_bounds_hold(rng):
    """Every value is at most floor(bound + eps), and eps is far from tight.

    Row bounds are within eps / 32 of the exact LP optimum of their pivot,
    blocks bound their rows up to eps, and each pivot's scaled optimum is at
    most floor(row bound + eps), the integral rule of the family loop.
    """
    omega = Decimal("4.358898")
    for trial in range(30):
        inst = random_instance(rng, rng.randint(3, 12),
                               capacity_ratio=rng.choice((0.1, 0.3, 0.6)))
        scheme = VERTICAL if trial % 2 else HORIZONTAL
        table = build_segments(inst, omega, rng.randint(1, 6), scheme)
        for delta in _budgets(table, inst.n):
            fam = _Family(inst, table, delta)
            eps = fam.tolerance()
            assert 0 < eps < 1e-6
            blocks, _ = fam.screen()
            for first, stop, bound in blocks:
                rows, sums = fam.expand(first, stop)
                assert rows.max() <= bound + eps
                for i, row in zip(range(first, stop), rows.tolist()):
                    weights, cap = subproblem_exact(inst, table, i + 1, delta)
                    lp = _exact_lp(inst.profits, weights, cap)
                    assert abs(row - float(lp)) <= eps / 32
                    assert lp <= bound + eps
                    value = knapsack.solve_knapsack_value(
                        fam.subproblem(i, sums))
                    assert value <= math.floor(row + eps)


def test_tolerance_is_infinite_when_a_weight_is_lost_in_rounding():
    """A zero mean leaves weights of one gain step, 1 / (q f), and a
    dispersion with 19 fractional digits puts that far below float noise."""
    inst = SockpInstance(profits=(3, 4), means=(Decimal(0), Decimal(5)),
                         sigmas=(Decimal("1.2500000000000000001"), Decimal(1)),
                         capacity=Decimal(10))
    table = build_segments(inst, Decimal("4.358898"), 3)
    assert _Family(inst, table, table.inner_budget).tolerance() == math.inf
    # Every pivot is then solved, and the result is still exact.
    opt, _ = soc_brute_force(inst, Decimal("4.358898"))
    assert lower_bound(inst, Decimal("4.358898"), 3).objective <= opt
    assert upper_bound(inst, Decimal("4.358898"), 3).objective >= opt


def _integral_lp_instance():
    """Every item fits every pivot: each LP optimum is the integer 12."""
    return SockpInstance(profits=(5, 4, 3),
                         means=(Decimal(1), Decimal(2), Decimal(3)),
                         sigmas=(Decimal("0.5"),) * 3, capacity=Decimal(50))


def test_screen_bound_understated_by_less_than_half_raises(monkeypatch):
    """The value check uses eps, not a 0.5 margin: 0.3 below the LP fails."""
    real = rkpm._dantzig_rows
    monkeypatch.setattr(rkpm, "_dantzig_rows", lambda *args: real(*args) - 0.3)
    with pytest.raises(rkpm.SolverInvariantError, match="above its screen bound"):
        upper_bound(_integral_lp_instance(), Decimal("4.358898"), 3)


def test_skip_rule_keeps_a_pivot_one_above_the_incumbent(monkeypatch):
    """Only a bound below incumbent + 1 - eps may be skipped.

    Here a pivot worth one more than the incumbent has its bound in
    [incumbent + 1, incumbent + 1.5), so a looser skip rule loses it.
    """
    inst = SockpInstance(
        profits=(2, 2, 1, 3, 2),
        means=tuple(Decimal(v) for v in (66, 96, 50, 57, 4)),
        sigmas=tuple(Decimal(v) for v in
                     ("19.37", "12.28", "4.85", "16.20", "17.42")),
        capacity=Decimal(136))
    omega = Decimal("4.358898")
    table = build_segments(inst, omega, 4, VERTICAL)
    delta = table.inner_budget + Fraction(inst.n, 4)
    fam = _Family(inst, table, delta)
    values = [knapsack.solve_knapsack_value(fam.subproblem(i, fam.block_sums(i)))
              for i in (rank - 1 for rank in table.family(delta))
              if not fam.capacity_is_negative(i)]
    for block in (1, 3, rkpm.SCREEN_BLOCK):
        monkeypatch.setattr(rkpm, "SCREEN_BLOCK", block)
        res = solve_rkpm(inst, omega, 4, delta, scheme=VERTICAL, table=table)
        assert res.objective == max(values) == 3
