import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from sockp import (HORIZONTAL, GeneratorSpec, SockpInstance, VERTICAL,
                   beta_exact, build_segments, generate, is_soc_feasible,
                   knapsack, lower_bound, rkpm, solve_exact, upper_bound)
from sockp.approx import SegmentTable
from sockp.knapsack import lp_rows
from sockp.rkpm import _Family

from conftest import (enumerate_knapsack, exact_lp, family, random_instance,
                      soc_brute_force, soc_dp_optimum, subproblem_exact,
                      tie_start)


def _single(b):
    return SockpInstance(profits=(1,), means=(Decimal(5),),
                         sigmas=(Decimal(1),), capacity=Decimal(b))


def test_single_item_at_exact_boundary():
    res = upper_bound(_single("7"), Decimal(2), 1)
    assert res.objective == 1
    assert res.solution == (1,)


def test_single_item_just_infeasible():
    res = upper_bound(_single("6.9"), Decimal(2), 1)
    assert res.objective == 0
    assert res.solution == (0,)


def test_all_zero_profits():
    inst = SockpInstance(profits=(0, 0), means=(Decimal(3), Decimal(4)),
                         sigmas=(Decimal(1), Decimal(1)), capacity=Decimal(5))
    res = upper_bound(inst, Decimal(2), 2)
    assert res.objective == 0


def test_bounds_take_no_budget():
    """The bound kind picks the budget: no budget can be passed, so none can
    fall below the inner one or between the inner and the outer one."""
    assert not hasattr(rkpm, "solve_rkpm")
    for bound in (upper_bound, lower_bound):
        with pytest.raises(TypeError):
            bound(_single("7"), Decimal(2), 2, delta=3)


def test_mismatched_table_rejected():
    inst = _single("7")
    table = build_segments(inst, Decimal(2), 3)
    with pytest.raises(ValueError):
        upper_bound(inst, Decimal(2), 2, table=table)
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


def test_table_of_an_instance_with_fewer_mean_digits_is_reused(rng):
    """A table built for other means, with the same omega and dispersions.

    Integer means and dispersions and omega = 2 give the table q = m; the
    solved instance's 7-decimal means give its own table q = 10^7 m, so the
    other table's q holds no multiple of the instance's scale.  Either
    table gives every pivot, the dummy too, the same scaled weight row and
    capacity, on int64 families (dispersions 1-30) and on ``object`` ones
    (20-digit dispersions), and the same bounds and selections.
    """
    omega, m = Decimal(2), 3
    dtypes = set()
    for trial in range(6):
        wide = trial % 2
        base = random_instance(
            rng, rng.randint(3, 9), sigma_lo=10 ** 19 if wide else 1,
            sigma_hi=10 ** 20 - 1 if wide else 30, sigma_digits=0)
        means = tuple(Decimal(rng.randint(10 ** 7, 10 ** 9)).scaleb(-7)
                      for _ in range(base.n))
        inst = SockpInstance(profits=base.profits, means=means,
                             sigmas=base.sigmas, capacity=base.capacity)
        other, own = build_segments(base, omega, m), build_segments(
            inst, omega, m)
        assert (other.q, own.q) == (m, 10 ** 7 * m)
        idx = np.arange(own.size + 1)
        for kind in (rkpm.UPPER, rkpm.LOWER):
            fams = [_Family(inst, table, kind) for table in (other, own)]
            for fam in fams:
                assert fam.gains.dtype == (object if wide else np.int64)
                dtypes.add(fam.gains.dtype)
            rows = [(fam.weights(idx).tolist(), fam.capacities(idx))
                    for fam in fams]
            assert rows[0] == rows[1]
        for bound in (upper_bound, lower_bound):
            results = [bound(inst, omega, m, table=table)
                       for table in (other, own)]
            assert len({(r.objective, r.solution) for r in results}) == 1
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


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
    # robust feasible set described directly by the support function, at the
    # two bound budgets and between them; the bounds' objectives are the
    # enumerated optima at theirs
    for _ in range(8):
        n = rng.randint(2, 6)
        inst = random_instance(rng, n)
        omega = Decimal("2.5")
        for m in (1, 2, 3):
            table = build_segments(inst, omega, m)
            bounds = {res.delta: res.objective for res in (
                upper_bound(inst, omega, m, table=table),
                lower_bound(inst, omega, m, table=table))}
            for delta in (table.inner_budget, table.inner_budget + 1,
                          table.outer_budget):
                subs = [subproblem_exact(inst, table, rank, delta)
                        for rank in family(table, delta)]
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
                if delta in bounds:
                    assert bounds[delta] == enumerated_best


def test_union_holds_under_heavy_ratio_ties():
    # subset-sum dispersions (0.1 * mean) tie many entry ratios exactly,
    # stressing the strict-prefix group logic
    from sockp import GeneratorSpec, generate

    inst = generate(GeneratorSpec(family="SS", n=7, seed=5))
    omega = Decimal("4.358898")
    for m in (2, 3):
        table = build_segments(inst, omega, m)
        assert any(tie_start(table, i) < i  # real tie groups
                   for i in range(table.size))
        for bound, delta in ((upper_bound, table.inner_budget),
                             (lower_bound, table.outer_budget)):
            subs = [subproblem_exact(inst, table, rank, delta)
                    for rank in family(table, delta)]
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
            assert bound(inst, omega, m, table=table).objective == best


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
        for rank in family(table, delta):
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
    base = upper_bound(inst, omega, 4)
    again = upper_bound(inst, omega, 4)
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
    pivots = family(table, table.inner_budget)
    assert res.subproblems_solved + res.subproblems_skipped == len(pivots)
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


def _subproblem(fam, i):
    """Scaled knapsack of the pivot at sorted index i, built alone."""
    return knapsack.KnapsackSubproblem(
        profits=fam.profits,
        weights=fam.weights([i])[0],
        capacity=fam.capacities([i])[0])


def _scaled_reference(fam, rank):
    """Weights and capacity of ``subproblem_exact`` times the family's
    factor, rounded outward for both kinds: weights down, capacity up."""
    weights, cap = subproblem_exact(fam.inst, fam.table, rank, fam.delta)
    return ([math.floor(fam.factor * w) for w in weights],
            math.ceil(fam.factor * cap))


def _reference_pivots(fam):
    """Scaled Fraction reference of every pivot with a nonnegative capacity.

    Returns ({sorted index: (weights, capacity, optimum)}, skipped): the
    :func:`_scaled_reference` row, the optimum of that knapsack, and the
    number of pivots with a negative capacity.
    """
    refs, skipped = {}, 0
    for rank in family(fam.table, fam.delta):
        weights, cap = _scaled_reference(fam, rank)
        if cap < 0:
            skipped += 1
            continue
        optimum = knapsack.solve_knapsack_value(knapsack.KnapsackSubproblem(
            profits=fam.inst.profits, weights=tuple(weights), capacity=cap))
        refs[rank - 1] = (weights, cap, optimum)
    return refs, skipped


def _tree(fam):
    """Every range of the family's range tree, from its start down to the
    single pivots, and the skipped count.

    Returns ([(first, stop, key, lp, row)], skipped): each range as
    :meth:`_Family.split` gives it, with ``key`` its bound capped by its
    ancestors', as the family pass keys it.  Checks on the way that each
    split cuts its range into at most ``SCREEN_BLOCK`` contiguous parts of
    the largest power of ``SCREEN_BLOCK`` below its length, the last
    possibly shorter, and that every range carries its first pivot's
    weight row and its last pivot's capacity, built alone.
    """
    start, skipped = fam.start()
    ranges, todo = [], [(start, fam.table.size + 1, math.inf)]
    while todo:
        first, stop, key = todo.pop()
        parts = fam.split(first, stop)
        span = parts[0][1] - parts[0][0]
        assert span < stop - first or span == 1
        assert span * rkpm.SCREEN_BLOCK >= stop - first
        assert len(parts) <= rkpm.SCREEN_BLOCK
        assert [i for i, _, _, _ in parts] == list(range(first, stop, span))
        assert [j for _, j, _, _ in parts] == [min(i + span, stop)
                                               for i, _, _, _ in parts]
        for i, j, lp, row in parts:
            weights, cap = row
            assert weights.dtype == fam.gains.dtype
            assert weights.tolist() == fam.weights([i])[0].tolist()
            assert cap == fam.capacities([j - 1])[0]
            ranges.append((i, j, min(lp[3], key), lp, row))
            if j - i > 1:
                todo.append((i, j, min(lp[3], key)))
    return ranges, skipped


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
    """Range and pivot bounds are the LP floors of the scaled reference rows.

    Every range of the tree, from the family's start down to the single
    pivots, is bounded by the knapsack of its first pivot's weights and its
    last pivot's capacity (a pivot by its own): that bound equals the floor
    of the exact LP optimum of the reference at fan-outs 2, 3, 8 and 64, is at
    most the bound of every range holding it, and is no lower than any of
    its pivots' scaled optima.
    """
    straddled = skipped_total = 0
    for inst, omega, table in _screen_cases(rng):
        for kind in _kinds(table):
            fam = _Family(inst, table, kind)
            refs, skipped = _reference_pivots(fam)
            skipped_total += skipped
            ranks = set(family(table, fam.delta))
            # Entries i-1 and i share a ratio and both are pivots (ranks i
            # and i+1; the real ranks of a family are contiguous).
            straddled += any(tie_start(table, i) < i and i in ranks
                             for i in range(1, table.size))
            for fan_out in (2, 3, rkpm.SCREEN_BLOCK, 64):
                monkeypatch.setattr(rkpm, "SCREEN_BLOCK", fan_out)
                ranges, got_skipped = _tree(fam)
                assert got_skipped == skipped
                leaves = [first for first, stop, *_ in ranges
                          if stop - first == 1]
                assert sorted(leaves) == sorted(refs)
                for first, stop, key, (*_, bound), _ in ranges:
                    assert bound == key == math.floor(exact_lp(
                        inst.profits, refs[first][0], refs[stop - 1][1]))
                    assert bound >= max(refs[i][2] for i in range(first, stop))
    # Some ratio group crossed a boundary between two pivots, bounded apart,
    # and some pivots were dropped for a negative capacity.
    assert straddled and skipped_total


def test_range_relaxations_bound_their_pivots(rng, monkeypatch):
    """A range's knapsack relaxes every pivot knapsack in it.

    The family pass drops a range whose row cannot reach the incumbent, so
    the exact value of that row, its first pivot's weights with its last
    pivot's capacity, must be at least the brute-force optimum of each of
    its pivots' scaled reference knapsacks, at fan-outs 2, 3 and 8.
    """
    omega = Decimal("4.358898")
    ranges_checked = 0
    for trial in range(16):
        inst = random_instance(rng, rng.randint(3, 8), profit_hi=30,
                               capacity_ratio=rng.choice((0.1, 0.3, 0.6)))
        scheme = VERTICAL if trial % 2 else HORIZONTAL
        table = build_segments(inst, omega, rng.randint(1, 5), scheme)
        for kind in _kinds(table):
            fam = _Family(inst, table, kind)
            optima = {}
            for rank in family(table, fam.delta):
                weights, cap = _scaled_reference(fam, rank)
                if cap >= 0:
                    optima[rank - 1] = enumerate_knapsack(
                        inst.profits, weights, cap)[0]
            for fan_out in (2, 3, rkpm.SCREEN_BLOCK):
                monkeypatch.setattr(rkpm, "SCREEN_BLOCK", fan_out)
                ranges, _ = _tree(fam)
                for first, stop, _, _, (weights, cap) in ranges:
                    value = knapsack.solve_knapsack_value(
                        knapsack.KnapsackSubproblem(
                            profits=fam.profits, weights=weights,
                            capacity=cap))
                    assert value >= max(optima[i] for i in range(first, stop))
                    ranges_checked += stop - first > 1
    assert ranges_checked


def test_integer_lp_bounds_are_lp_floors():
    """Each row's bound is the floor of its exact LP optimum.

    Rows mix ratio ties, zero weights, zero profits, items heavier than the
    capacity and capacities that every item fits; the scaled copies run on
    ``object`` arrays.
    """
    rng = random.Random(7)
    cases = [
        ([3, 3, 0, 5], [[1, 1, 2, 0], [2, 2, 2, 0]], [1, 3]),  # ties, zeros
        ([4, 1], [[10, 1]], [5]),  # an item heavier than the capacity
        ([2, 2, 0], [[1, 1, 7]], [9]),  # everything fits
    ]
    for _ in range(60):
        n = rng.randint(1, 9)
        profits = [rng.choice((0, 1, 2, 3, 6, rng.randint(0, 50)))
                   for _ in range(n)]
        rows = [[rng.choice((0, 1, 2, 4, rng.randint(0, 60))) for _ in range(n)]
                for _ in range(rng.randint(1, 5))]
        cases.append((profits, rows, [rng.choice((0, rng.randint(0, 40),
                                                  sum(w), sum(w) + 3))
                                      for w in rows]))
    fits = heavy = 0
    for profits, rows, caps in cases:
        want = [math.floor(exact_lp(profits, w, c)) for w, c in zip(rows, caps)]
        got = lp_rows(np.array(profits, dtype=np.int64),
                      np.array(rows, dtype=np.int64), caps)
        assert [lp[3] for lp in got] == want
        scale = 10 ** 20  # past the int64 rule: object arithmetic
        got = lp_rows(np.array(profits, dtype=object),
                      np.array(rows, dtype=object) * scale,
                      [c * scale for c in caps])
        assert [lp[3] for lp in got] == want
        fits += any(sum(w) <= c for w, c in zip(rows, caps))
        heavy += any(max(w) > c for w, c in zip(rows, caps))
    assert knapsack.exact_dtype(60, 9, 60 * 10 ** 20, 0) is object
    assert fits and heavy


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


def test_range_dps_settle_a_long_family_in_few_solves(monkeypatch):
    """Deterministic work guard: the SC n=5 upper bound at m=20,000.

    Its family screens 62,017 pivots, and each once had an LP bound that
    could win, so each got a value solve.  Solving a range's relaxation
    before splitting it drops nearly all of them: 181 value solves at
    fan-out 8, ranges included.
    """
    solves = []
    real = rkpm.solve_knapsack_value
    monkeypatch.setattr(rkpm, "solve_knapsack_value", lambda *args, **kw: (
        solves.append(1) or real(*args, **kw)))
    omega = Decimal("4.358898")
    inst = generate(GeneratorSpec(family="SC", n=5, seed=0))
    res = upper_bound(inst, omega, 20_000)
    assert (res.objective, res.subproblems_solved) == (115, 62_017)
    assert res.objective >= soc_dp_optimum(inst, omega)
    assert len(solves) <= 500


def test_incumbent_floors_keep_the_unfloored_winner(rng, monkeypatch):
    """The family result is (max value, min rank) over unfloored pivot solves.

    A small profit alphabet makes equal objectives across pivots common, so
    the smallest-rank tie-break is exercised, at several fan-outs.
    """
    omega = Decimal("4.358898")
    ties = 0
    for trial in range(40):
        inst = random_instance(rng, rng.randint(4, 12), profit_hi=3)
        scheme = VERTICAL if trial % 2 else HORIZONTAL
        m = rng.randint(1, 4)
        table = build_segments(inst, omega, m, scheme)
        for kind in _kinds(table):
            fam = _Family(inst, table, kind)
            solved = []
            for rank in family(table, fam.delta):
                problem = _subproblem(fam, rank - 1)
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
            for fan_out in (2, 3, rkpm.SCREEN_BLOCK, 64):
                monkeypatch.setattr(rkpm, "SCREEN_BLOCK", fan_out)
                res = (upper_bound(inst, omega, m, scheme=scheme, table=table)
                       if kind == rkpm.UPPER
                       else lower_bound(inst, omega, m, table=table))
                assert (res.objective, res.solution) == expected
    assert ties


def _lower_bounds_by(monkeypatch, drop):
    """Make every screen and row bound ``drop`` lower than it is."""
    real = rkpm.lp_rows
    monkeypatch.setattr(rkpm, "lp_rows", lambda *args: [
        (*lp[:3], lp[3] - drop) for lp in real(*args)])


def test_screen_bound_below_a_solved_value_raises(monkeypatch):
    _lower_bounds_by(monkeypatch, 10)
    inst = generate(GeneratorSpec(family="SC", n=30, seed=0))
    with pytest.raises(rkpm.SolverInvariantError, match="above its screen bound"):
        upper_bound(inst, Decimal("4.358898"), 5)


@pytest.mark.parametrize("bound", [upper_bound, lower_bound])
def test_empty_instance_bounds_are_the_empty_selection(bound):
    inst = SockpInstance(profits=(), means=(), sigmas=(), capacity=Decimal(3))
    res = bound(inst, Decimal("4.358898"), 3)
    assert res.objective == 0
    assert res.solution == ()


def _kinds(table):
    """The bound kinds of a table: ``UPPER`` and, when horizontal, ``LOWER``."""
    return ((rkpm.UPPER, rkpm.LOWER) if table.scheme == HORIZONTAL
            else (rkpm.UPPER,))


def _assert_row_is_exact(fam, i, weights, capacity):
    """``weights`` and ``capacity`` are the :func:`_scaled_reference` row."""
    assert (weights.tolist(), capacity) == _scaled_reference(fam, i + 1)


def _object_cases(rng):
    """Families whose rows are ``object`` arrays.

    Means or dispersions with 20 significant digits, on both schemes: the
    means' 18 decimals set the instance's scale, and with it item gains past
    2**62, as the dispersions' digits do.
    """
    for trial in range(4):
        base = random_instance(rng, rng.randint(3, 8))
        if trial % 2:
            means = tuple(Decimal(rng.randint(10 ** 19, 10 ** 20)).scaleb(-18)
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
    """int64 rows whose means have 3 or 7 fractional digits.

    10^3 divides SCALE and 10^7 does not: then the family's factor grows
    until every scaled mean is an integer.
    """
    for digits in (3, 7):
        base = random_instance(rng, rng.randint(3, 8))
        means = tuple(Decimal(rng.randint(1, 10 ** (digits + 2)))
                      .scaleb(-digits) for _ in range(base.n))
        inst = SockpInstance(profits=base.profits, means=means,
                             sigmas=base.sigmas, capacity=base.capacity)
        yield inst, Decimal("4.358898"), build_segments(
            inst, Decimal("4.358898"), rng.randint(1, 4))


def _wide_gain_cases(rng):
    """int64 rows whose item gains lie between 2**53 and 2**62.

    Dispersions 1e5-2e5 with four decimals give q = 10^10 m and gains of
    1.7-3.3e16 at m = 2-4.
    """
    for trial in range(2):
        inst = random_instance(rng, rng.randint(3, 8), sigma_lo=10 ** 9,
                               sigma_hi=2 * 10 ** 9, sigma_digits=4,
                               capacity_ratio=rng.choice((2000, 8000)))
        table = build_segments(inst, Decimal("4.358898"), rng.randint(2, 4))
        assert 2 ** 53 < table.base.max() * int(table.D[-1]) < 2 ** 62
        yield inst, Decimal("4.358898"), table


def _wide_divisor_cases(rng):
    """Small gains over q = 10^25 m, whose ceiling divisor needs ``object``.

    omega has 12 decimals and the dispersions, near 1e-12, have 13: the
    gains are small, but q * f_i / SCALE is past 2**63.
    """
    omega = Decimal("1.000000000001")
    for trial in range(2):
        inst = random_instance(rng, rng.randint(3, 8), sigma_lo=5,
                               sigma_hi=20, sigma_digits=13)
        m = rng.randint(1, 4)
        table = build_segments(inst, omega, m)
        assert table.q == 10 ** 25 * m
        yield inst, omega, table


def test_integer_rows_match_the_exact_reference(rng, monkeypatch):
    """Every pivot's scaled knapsack, built with its siblings.

    Rows of the single pivots of the range tree (fan-outs 2, 3, 8 and 64) and
    the rows skipped for a negative capacity, on int64 and on object rows.
    """
    dtypes = set()
    objects = list(_object_cases(rng)) + list(_wide_divisor_cases(rng))
    int64s = list(_decimal_mean_cases(rng)) + list(_wide_gain_cases(rng))
    cases = list(_screen_cases(rng)) + objects + int64s
    for inst, omega, table in cases:
        for kind in _kinds(table):
            fam = _Family(inst, table, kind)
            dtypes.add(fam.gains.dtype)
            if any(table is case[2] for case in objects):
                assert fam.gains.dtype == object
            if any(table is case[2] for case in int64s):
                assert fam.gains.dtype == np.int64
            built = set()
            for fan_out in (2, 3, rkpm.SCREEN_BLOCK, 64):
                monkeypatch.setattr(rkpm, "SCREEN_BLOCK", fan_out)
                ranges, skipped = _tree(fam)
                for i, j, _, _, row in ranges:
                    if j - i == 1:
                        _assert_row_is_exact(fam, i, *row)
                        built.add(i)
            ranks = family(table, fam.delta)
            for i in range(ranks[0] - 1, ranks[0] - 1 + skipped):
                problem = _subproblem(fam, i)
                assert problem.capacity < 0
                _assert_row_is_exact(fam, i, problem.weights, problem.capacity)
                built.add(i)
            assert built == {rank - 1 for rank in ranks}  # the dummy too
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize("big", [False, True])
def test_rising_segment_ratios_raise_value_error(big):
    """Budget steps that fall make an item's ratios rise with the segment,
    which breaks the per-item counts the pivot rows are built from: the
    constructor refuses them, on int64 and on object rows alike."""
    sigmas = (Decimal("1.5"), Decimal("0.5"), Decimal("2.5"))
    if big:  # 20 significant digits: object rows
        sigmas = tuple(s + Decimal("1e-19") for s in sigmas)
    inst = SockpInstance(profits=(5, 2, 4), means=(Decimal(1),) * 3,
                         sigmas=sigmas, capacity=Decimal(30))
    good = build_segments(inst, Decimal(2), 3)
    assert (_Family(inst, good, rkpm.UPPER).gains.dtype == object) == big
    with pytest.raises(ValueError, match="segment ratios rise within an item"):
        SegmentTable(good.n, good.m, good.omega, good.sigmas, good.scheme,
                     good.q, good.base, good.D, good.F[-1] - good.F[::-1])


def test_wrong_rows_raise_on_the_first_grid(monkeypatch):
    """Rows one segment short let a robust-infeasible winner through on
    every grid.  The excess loop raises on the first grid, on which correct
    rows could not admit it, instead of refining the grid forever; the CLI
    exits 3."""
    from sockp.cli import main

    counts = SegmentTable.counts
    monkeypatch.setattr(SegmentTable, "counts", lambda self, *args: np.maximum(
        counts(self, *args) - 1, 0))
    grids = []
    init = _Family.__init__

    def counted_init(self, *args, **kwargs):
        grids.append(args)
        assert len(grids) <= 3, "the excess loop kept refining the grid"
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Family, "__init__", counted_init)
    omega = Decimal("4.358898")
    for family, n in (("SC", 20), ("IC", 30)):
        inst = generate(GeneratorSpec(family=family, n=n, seed=0))
        for solve in (upper_bound, lower_bound):
            grids.clear()
            with pytest.raises(rkpm.SolverInvariantError,
                               match="breaks the robust constraint"):
                solve(inst, omega, 3)
            assert len(grids) == 1
    grids.clear()
    assert main(["bounds", "--family", "SC", "--n", "20", "--m", "3",
                 "--omega", str(omega)]) == 3


def test_integral_pruning_bounds_hold(rng, monkeypatch):
    """No bound is below a scaled optimum it may prune.

    The pass stops at a bound below the incumbent and skips one equal to it,
    so every range's key, its bound capped by its ancestors', must be at
    least the optimum of each of its pivots' scaled knapsacks, here from the
    Fraction reference, at fan-outs 2, 3, 8 and 64 and on both schemes.
    """
    omega = Decimal("4.358898")
    for trial in range(30):
        inst = random_instance(rng, rng.randint(3, 12),
                               capacity_ratio=rng.choice((0.1, 0.3, 0.6)))
        scheme = VERTICAL if trial % 2 else HORIZONTAL
        table = build_segments(inst, omega, rng.randint(1, 6), scheme)
        for kind in _kinds(table):
            fam = _Family(inst, table, kind)
            refs, _ = _reference_pivots(fam)
            for fan_out in (2, 3, rkpm.SCREEN_BLOCK, 64):
                monkeypatch.setattr(rkpm, "SCREEN_BLOCK", fan_out)
                ranges, _ = _tree(fam)
                for first, stop, key, _, _ in ranges:
                    assert key >= max(refs[i][2] for i in range(first, stop))


def test_tolerance_is_infinite_when_a_weight_is_lost_in_rounding(monkeypatch):
    """A zero mean leaves weights of one gain step, 1 / (q f), and a
    dispersion with 19 fractional digits puts that far below float noise.

    Float bounds that cannot tell such a weight from zero have no finite
    tolerance and prune nothing; the integer bounds still prune, and every
    result stays exact.
    """
    inst = SockpInstance(profits=(3, 4), means=(Decimal(0), Decimal(5)),
                         sigmas=(Decimal("1.2500000000000000001"), Decimal(1)),
                         capacity=Decimal(10))
    omega = Decimal("4.358898")
    solves = []
    real = rkpm.solve_knapsack_value
    monkeypatch.setattr(rkpm, "solve_knapsack_value",
                        lambda *args, **kw: solves.append(1) or real(*args, **kw))
    opt, _ = soc_brute_force(inst, omega)
    lb = lower_bound(inst, omega, 3)
    lb_solves = len(solves)
    ub = upper_bound(inst, omega, 3)
    assert lb.objective <= opt <= ub.objective
    assert lb_solves < lb.subproblems_solved
    assert len(solves) - lb_solves < ub.subproblems_solved


def _integral_lp_instance():
    """Every item fits every pivot: each LP optimum is the integer 12."""
    return SockpInstance(profits=(5, 4, 3),
                         means=(Decimal(1), Decimal(2), Decimal(3)),
                         sigmas=(Decimal("0.5"),) * 3, capacity=Decimal(50))


def test_screen_bound_understated_by_less_than_half_raises(monkeypatch):
    """The value check has no margin: each LP optimum here is the integer 12,
    so an LP understated by 0.3 floors to the bound 11, which must fail."""
    _lower_bounds_by(monkeypatch, 1)
    with pytest.raises(rkpm.SolverInvariantError, match="above its screen bound"):
        upper_bound(_integral_lp_instance(), Decimal("4.358898"), 3)


def test_skip_rule_keeps_a_pivot_one_above_the_incumbent(monkeypatch):
    """Only a bound equal to the incumbent may be skipped.

    In the upper bound at m = 1 the pivot of rank 2 is solved first and is
    worth 1.  The later ranks 3-5 are worth 2, one more than that incumbent,
    with the bound 2 (rank 3's LP optimum is 2.41, below incumbent + 1.5),
    so a skip rule that also took the bound incumbent + 1 would lose them
    and return 1.
    """
    inst = SockpInstance(
        profits=(3, 1, 1, 2),
        means=tuple(Decimal(v) for v in (95, 30, 26, 67)),
        sigmas=tuple(Decimal(v) for v in ("10.10", "7.29", "14.98", "0.60")),
        capacity=Decimal(109))
    omega = Decimal("4.358898")
    table = build_segments(inst, omega, 1)
    fam = _Family(inst, table, rkpm.UPPER)
    values = [knapsack.solve_knapsack_value(_subproblem(fam, i))
              for i in (rank - 1 for rank in family(table, fam.delta))
              if fam.capacities([i])[0] >= 0]
    assert values == [1, 1, 2, 2, 2]
    for fan_out in (2, 3, rkpm.SCREEN_BLOCK, 64):
        monkeypatch.setattr(rkpm, "SCREEN_BLOCK", fan_out)
        res = upper_bound(inst, omega, 1, table=table)
        assert res.objective == max(values) == 2


def test_range_trees_at_the_real_fan_out(monkeypatch):
    """Bounds on families of thousands of pivots keep their values.

    The IC n=20 bound pair at m=250 screens 4,038 of its 5,000 pivots,
    which the family's first split cuts into ranges of 512.  The vertical
    SC n=15 upper bound at m=400 screens 5,602, more than SCREEN_BLOCK**4,
    so its family first splits into ranges of 4,096 pivots, four splits
    above the single pivots.  Every bound keeps its value and selection,
    and the bounds sandwich the SOC optimum.
    """
    spans = []
    split = _Family.split
    monkeypatch.setattr(_Family, "split", lambda self, first, stop: (
        spans.append(stop - first) or split(self, first, stop)))
    omega = Decimal("4.358898")
    inst = generate(GeneratorSpec(family="IC", n=20, seed=0))
    table = build_segments(inst, omega, 250)
    bits = tuple(int(c) for c in "00100101101010000000")
    ub = upper_bound(inst, omega, 250, table=table)
    lb = lower_bound(inst, omega, 250, table=table)
    assert max(spans) == 4038
    assert (ub.objective, ub.solution) == (lb.objective, lb.solution) == (
        444, bits)
    assert ub.objective >= soc_dp_optimum(inst, omega) >= lb.objective
    spans.clear()
    inst = generate(GeneratorSpec(family="SC", n=15, seed=0))
    ub = upper_bound(inst, omega, 400, scheme=VERTICAL)
    assert max(spans) == ub.subproblems_solved == 5602
    assert (ub.objective, ub.solution) == (
        465, tuple(int(c) for c in "111011000011011"))
    assert ub.objective >= soc_dp_optimum(inst, omega)


def test_ceiling_divisor_past_2_62_takes_object_rows():
    """The divisor q * f_max / g0 alone sends these rows to ``object``.

    Dispersions near 1e-10 with 12 decimals give q = 1.6e21 at m = 1600,
    whole means and a capacity of 7.5 keep the factor at 10^6, and
    q * f_max / g0 = 5,118,400,000,000,000,000 lies between 2**62 and
    2**64; every other value the rows form fits int64.
    """
    inst = SockpInstance(
        profits=(5, 7, 9),
        means=(Decimal(3), Decimal(4), Decimal(5)),
        sigmas=tuple(Decimal(v) for v in ("0.000000000123", "0.000000000456",
                                          "0.000000000789")),
        capacity=Decimal("7.5"))
    omega = Decimal("1.644854")
    table = build_segments(inst, omega, 1600)
    fam = _Family(inst, table, rkpm.UPPER)
    assert (table.q, fam.factor) == (16 * 10 ** 20, 10 ** 6)
    assert fam.div * int(table.f.max()) == 5_118_400_000_000_000_000
    assert fam.gains.dtype == object
    assert soc_brute_force(inst, omega) == (12, (1, 1, 0))
    assert upper_bound(inst, omega, 1600, table=table).objective == 12


def _robust_optimum(inst, table, delta):
    """Best profit over the selections that meet the robust constraint,
    by enumeration with ``beta_exact``."""
    a_int, b_int, _, scale = inst.exact_view(table.omega)
    best = 0
    for bits in product((0, 1), repeat=inst.n):
        used = sum(a for a, b in zip(a_int, bits) if b)
        if beta_exact(bits, table, delta) <= Fraction(b_int - used, scale):
            best = max(best, sum(p for p, b in zip(inst.profits, bits) if b))
    return best


@pytest.mark.parametrize("inst, optimum", [
    # Items 0, 2 and 4 fill the capacity exactly, and their dispersions
    # add about 1.2e-6, less than the rows' grid step times n + 1.
    (SockpInstance(profits=(43, 42, 47, 24, 28),
                   means=tuple(Decimal(v) for v in (71, 82, 75, 31, 7)),
                   sigmas=tuple(Decimal(v) for v in (
                       "6.93E-8", "0.00000998", "2.93E-7", "0.00000792",
                       "6.48E-7")),
                   capacity=Decimal("153.0000000000")), 99),
    # Item 1 alone leaves 1e-6 of room for a dispersion of 1.16e-6.
    (SockpInstance(profits=(13, 43, 24, 11),
                   means=tuple(Decimal(v) for v in (20, 32, 90, 100)),
                   sigmas=tuple(Decimal(v) for v in (
                       "0.0000486", "7.08E-7", "0.000957", "4.05E-8")),
                   capacity=Decimal("32.000001")), 13),
])
def test_upper_bound_is_the_robust_optimum_below_the_grid(inst, optimum):
    """A selection that breaks the robust constraint by less than the
    rows' rounding still fits the first relaxation; each bound refines the
    grid until its winner meets the constraint, so it is the exact robust
    optimum of its budget, and the exact solver certifies the SOC optimum."""
    omega = Decimal("1.645")
    for m in (1, 2, 4):
        table = build_segments(inst, omega, m)
        for bound, delta in ((upper_bound, table.inner_budget),
                             (lower_bound, table.outer_budget)):
            res = bound(inst, omega, m, table=table)
            assert res.objective == _robust_optimum(inst, table, delta)
    assert soc_brute_force(inst, omega)[0] == optimum
    assert solve_exact(inst, omega).objective == optimum


def test_lower_bound_is_the_outer_robust_optimum():
    """A selection whose outer robust load lies within a few grid steps of
    the capacity stays in the lower bound's family.

    Items 1-4 meet the outer robust constraint at m = 2 with less room
    than the rows' rounding, so weights rounded up and a capacity rounded
    down lost them (155, items 0 and 2-4); the lower bound is the outer
    robust optimum 160, also the SOC optimum.
    """
    inst = SockpInstance(
        profits=(9, 14, 91, 40, 15),
        means=tuple(Decimal(v) for v in (58, 66, 99, 87, 62)),
        sigmas=tuple(Decimal(v) for v in ("0.83", "3.33", "12.73", "17.75",
                                          "8.46")),
        capacity=Decimal("356.97768125000"))
    omega = Decimal("1.645")
    table = build_segments(inst, omega, 2)
    res = lower_bound(inst, omega, 2, table=table)
    assert (res.objective, res.solution) == (160, (0, 1, 1, 1, 1))
    assert _robust_optimum(inst, table, table.outer_budget) == 160
    assert soc_brute_force(inst, omega)[0] == 160


def test_lower_bounds_reach_the_outer_optimum_at_tight_capacities():
    """Capacities at a random selection's exact outer robust load, rounded
    up at 9-12 decimals, put that selection within a grid step of the
    capacity; every lower bound is still the enumerated outer optimum."""
    rng = random.Random(11)
    omega = Decimal("1.645")
    for _ in range(149):
        base = random_instance(rng, rng.randint(5, 9))
        m = rng.randint(1, 3)
        bits = tuple(rng.randint(0, 1) for _ in range(base.n))
        digits = rng.randint(9, 12)
        load = sum((Fraction(a) for a, b in zip(base.means, bits) if b),
                   Fraction(0)) + beta_exact(
            bits, build_segments(base, omega, m),
            Fraction(m * m) + Fraction(base.n, 4))
        inst = SockpInstance(
            profits=base.profits, means=base.means, sigmas=base.sigmas,
            capacity=Decimal(math.ceil(load * 10 ** digits)).scaleb(-digits))
        table = build_segments(inst, omega, m)
        res = lower_bound(inst, omega, m, table=table)
        assert res.objective == _robust_optimum(inst, table,
                                                table.outer_budget)
