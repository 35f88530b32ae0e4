"""Acceptance gate for the library.

Each test implements one release criterion at its stated tolerance and prints
a single ACCEPTANCE line; run with ``pytest tests/test_acceptance.py -v -s``
to see them.  The long-running fixtures (the 200-instance exactness corpus
and the benchmark seed sample) are shared across criteria.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sockp import (GeneratorSpec, OmegaSpec, VERTICAL,
                   beta_exact, build_segments, generate, guarantee_gap_dro,
                   is_soc_feasible, lower_bound, min_segments_dro,
                   monte_carlo_feasibility, resolve_omega, solve_exact,
                   upper_bound)
from sockp.model import as_omega
from sockp.rkpm import subproblem_exact

from conftest import random_instance

# Fixed benchmark sample for the trend criteria (strongly correlated family,
# n = 100, confidence 0.95 under moment ambiguity).  The block is pinned so
# results are reproducible; see the bench docs for sweeping other seeds.
TREND_SEEDS = tuple(range(10, 20))
RHO = Decimal("0.95")

_BITS_CACHE = {}


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _bits_matrix(n):
    if n not in _BITS_CACHE:
        masks = np.arange(1 << n, dtype=np.int64)
        _BITS_CACHE[n] = (masks[:, None] >> np.arange(n)) & 1
    return _BITS_CACHE[n]


def brute_force_optimum(inst, omega):
    """Exhaustive optimum over all selections passing the exact SOC check.

    Vectorized restatement of the per-subset feasibility formula when the
    magnitudes fit int64 exactly; big-integer data falls back to the plain
    per-subset oracle.
    """
    from conftest import soc_brute_force

    a_ints, b_int, v_ints, lhs_shift, rhs_shift = inst.exact_view(as_omega(omega))
    widest = max(b_int, sum(a_ints))
    if widest * widest * lhs_shift >= 2 ** 62 or sum(v_ints) * rhs_shift >= 2 ** 62:
        return soc_brute_force(inst, omega)[0]
    bits = _bits_matrix(inst.n)
    a = np.array(a_ints, dtype=np.int64)
    v = np.array(v_ints, dtype=np.int64)
    p = np.array(inst.profits, dtype=np.int64)
    slack = b_int - bits @ a
    var = bits @ v
    feasible = (slack >= 0) & (slack * slack * lhs_shift >= var * rhs_shift)
    values = bits @ p
    return int(values[feasible].max(initial=0))


def _corpus_instance(rng, index):
    n = rng.randint(6, 14)
    inst = random_instance(rng, n, sigma_lo=1, sigma_hi=2000, sigma_digits=2)
    omega = Decimal("1.96") if index % 2 == 0 else Decimal("4.36")
    return inst, omega


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(8711)
    return [_corpus_instance(rng, i) for i in range(200)]


@pytest.fixture(scope="module")
def corpus_bounds(corpus):
    out = []
    for inst, omega in corpus:
        ubs = {m: upper_bound(inst, omega, m) for m in (2, 4, 8, 16)}
        lbs = {m: lower_bound(inst, omega, m) for m in (2, 4, 8)}
        out.append((inst, omega, ubs, lbs))
    return out


def test_criterion_01_exactness_matches_enumeration(corpus):
    start = time.perf_counter()
    matches = 0
    for inst, omega in corpus:
        expected = brute_force_optimum(inst, omega)
        got = solve_exact(inst, omega).objective
        matches += (got == expected)
    elapsed = time.perf_counter() - start
    _report(1, matches == len(corpus) and elapsed < 60.0,
            f"{matches}/{len(corpus)} oracle matches in {elapsed:.1f}s (< 60s)")


def test_criterion_02_decomposition_union_equals_direct_set():
    rng = random.Random(5203)
    start = time.perf_counter()
    failures = 0
    for _ in range(50):
        n = rng.randint(4, 10)
        inst = random_instance(rng, n, sigma_lo=1, sigma_hi=1500, sigma_digits=2)
        omega = Decimal("4.36")
        bits = _bits_matrix(n)
        profits = np.array(inst.profits, dtype=np.int64)
        means = np.array([int(v) for v in inst.means], dtype=np.int64)
        cap_frac = Fraction(inst.capacity)
        for m in range(1, 7):
            table = build_segments(inst, omega, m)
            for delta in (table.inner_budget, table.outer_budget):
                union = np.zeros(1 << n, dtype=bool)
                for rank in table.family(delta):
                    ws, cap = subproblem_exact(inst, table, rank, delta)
                    den = table.q * delta.denominator * (
                        1 if rank == table.size + 1 else int(table.f[rank - 1]))
                    w_int = []
                    for w in ws:
                        num = w.numerator * den
                        assert num % w.denominator == 0
                        w_int.append(num // w.denominator)
                    cap_int = cap.numerator * den // cap.denominator
                    w_arr = np.array(w_int, dtype=np.int64)
                    assert int(w_arr.sum()) < 2 ** 62
                    union |= (bits @ w_arr) <= cap_int
                direct = np.empty(1 << n, dtype=bool)
                for mask in range(1 << n):
                    x = tuple((mask >> j) & 1 for j in range(n))
                    lhs = int(bits[mask] @ means) + beta_exact(x, table, delta)
                    direct[mask] = lhs <= cap_frac
                if not np.array_equal(union, direct):
                    failures += 1
    elapsed = time.perf_counter() - start
    _report(2, failures == 0 and elapsed < 30.0,
            f"set equality on 50 instances x m in 1..6 x both budgets, "
            f"{elapsed:.1f}s (< 30s)")


def test_criterion_03_envelope_error_bounds_and_tightness():
    start = time.perf_counter()
    ok = True
    for m in range(1, 17):
        for omega in (1.0, 4.36, 10.0):
            from sockp import eval_lower_envelope, eval_upper_envelope
            xi = np.linspace(0.0, omega, 10_000)
            q = xi * xi
            upper = eval_upper_envelope(xi, m, omega)
            lower = eval_lower_envelope(xi, m, omega)
            gap = omega ** 2 / (4 * m * m)
            scale = omega ** 2
            ok &= bool(np.all(upper >= q - 1e-12 * scale))
            ok &= bool(np.all(upper <= q + gap + 1e-12 * scale))
            ok &= bool(np.all(lower <= q + 1e-12 * scale))
            ok &= bool(np.all(lower >= q - gap - 1e-12 * scale))
            mids = (np.arange(m) + 0.5) / m * omega
            breaks = np.arange(m + 1) / m * omega
            ok &= bool(np.all(np.abs(eval_upper_envelope(mids, m, omega)
                                     - (mids * mids + gap)) <= 1e-12 * scale))
            ok &= bool(np.all(np.abs(eval_lower_envelope(breaks, m, omega)
                                     - (breaks * breaks - gap)) <= 1e-12 * scale))
    elapsed = time.perf_counter() - start
    _report(3, ok and elapsed < 5.0,
            f"envelope bounds and tightness at 1e-12 on 10^4-point grids, "
            f"{elapsed:.2f}s (< 5s)")


def test_criterion_04_sandwich_and_lower_feasibility(corpus_bounds):
    cases = 0
    good = 0
    for inst, omega, ubs, lbs in corpus_bounds:
        opt = brute_force_optimum(inst, omega)
        for m in (2, 4, 8):
            cases += 1
            if (lbs[m].objective <= opt <= ubs[m].objective
                    and is_soc_feasible(lbs[m].solution, inst, omega)):
                good += 1
    _report(4, good == cases,
            f"lower <= optimum <= upper with feasible lower solutions, "
            f"{good}/{cases} cases")


@pytest.fixture(scope="module")
def trend_instances():
    omega = resolve_omega(OmegaSpec.chebyshev(RHO)).resolved_omega
    return [(seed, generate(GeneratorSpec(family="SC", n=100, seed=seed)), omega)
            for seed in TREND_SEEDS]


def test_criterion_05_bound_gaps_track_reference_table(trend_instances):
    gaps = {5: [], 40: []}
    slowest = 0.0
    for _, inst, omega in trend_instances:
        for m in (5, 40):
            start = time.perf_counter()
            table = build_segments(inst, omega, m)
            ub = upper_bound(inst, omega, m, table=table)
            lb = lower_bound(inst, omega, m, table=table)
            slowest = max(slowest, time.perf_counter() - start)
            gaps[m].append((ub.objective - lb.objective) / lb.objective * 100)
    mean5 = sum(gaps[5]) / len(gaps[5])
    mean40 = sum(gaps[40]) / len(gaps[40])
    ok = 0.5 <= mean5 <= 4.0 and mean40 <= 0.15 and slowest < 1.0
    _report(5, ok,
            f"mean gap m=5: {mean5:.2f}% (window [0.5, 4.0], reference 1.82), "
            f"m=40: {mean40:.3f}% (<= 0.15), slowest bound pair {slowest:.2f}s (< 1s)")


def test_criterion_06_exact_solver_iteration_budget(trend_instances):
    worst_iters = 0
    worst_time = 0.0
    for _, inst, omega in trend_instances:
        res = solve_exact(inst, omega)
        worst_iters = max(worst_iters, res.iterations)
        worst_time = max(worst_time, res.wall_time)
    ok = worst_iters <= 6 and worst_time < 5.0
    _report(6, ok,
            f"exact solve over {len(trend_instances)} seeds: max iterations "
            f"{worst_iters} (<= 6, reference mean 2.9), max time {worst_time:.2f}s (< 5s)")


def test_criterion_07_partition_schemes_agree_on_upper_bounds():
    omega = resolve_omega(OmegaSpec.chebyshev(RHO)).resolved_omega
    worst = 0.0
    for seed in range(5):
        inst = generate(GeneratorSpec(family="SC", n=400, seed=seed))
        ub_h = upper_bound(inst, omega, 10)
        ub_v = upper_bound(inst, omega, 100, scheme=VERTICAL)
        rel = abs(ub_h.objective - ub_v.objective) / ub_h.objective * 100
        worst = max(worst, rel)
    _report(7, worst <= 0.2,
            f"domain-partition m=10 vs range-partition m=100 upper bounds "
            f"within {worst:.4f}% (<= 0.2%) on 5 seeds")


def test_criterion_08_lower_solutions_meet_chance_constraint():
    rng = random.Random(416)
    omega_normal = resolve_omega(OmegaSpec.normal(RHO)).resolved_omega
    omega_cantelli = resolve_omega(OmegaSpec.chebyshev(RHO)).resolved_omega
    start = time.perf_counter()
    worst_normal = 1.0
    worst_cantelli = 1.0
    for i in range(20):
        inst = random_instance(rng, rng.randint(8, 14),
                               sigma_lo=10, sigma_hi=1200, sigma_digits=2)
        for omega, tag in ((omega_normal, "normal"), (omega_cantelli, "cantelli")):
            res = lower_bound(inst, omega, 4)
            rate = monte_carlo_feasibility(res.solution, inst,
                                           samples=100_000, seed=1000 + i)
            if tag == "normal":
                worst_normal = min(worst_normal, rate)
            else:
                worst_cantelli = min(worst_cantelli, rate)
    elapsed = time.perf_counter() - start
    ok = worst_normal >= 0.945 and worst_cantelli >= 0.95 and elapsed < 30.0
    _report(8, ok,
            f"empirical satisfaction: normal factor worst {worst_normal:.4f} "
            f"(>= 0.945), distribution-free factor worst {worst_cantelli:.4f} "
            f"(>= 0.95), {elapsed:.1f}s (< 30s)")


def test_criterion_09_guarantee_calculator_threshold():
    at_12 = guarantee_gap_dro(100, 12, 0.95)
    at_11 = guarantee_gap_dro(100, 11, 0.95)
    needed = min_segments_dro(100, "0.95", "0.01")
    ok = at_12 <= 0.01 < at_11 and needed == 12
    _report(9, ok,
            f"moment-ambiguity gap at m=12: {at_12:.6f} (<= 0.01), at m=11: "
            f"{at_11:.6f} (> 0.01), minimum segments {needed} (= 12)")


def test_criterion_10_upper_bounds_shrink_under_doubling(corpus_bounds):
    cases = 0
    good = 0
    for _, _, ubs, _ in corpus_bounds:
        for m in (2, 4, 8):
            cases += 1
            if ubs[2 * m].objective <= ubs[m].objective:
                good += 1
    _report(10, good == cases,
            f"upper bound never increases when segments double, {good}/{cases} cases")
