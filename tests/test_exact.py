import itertools
import math
import random
from decimal import Decimal, localcontext

import pytest

from sockp import (VERTICAL, GeneratorSpec, OmegaSpec, SockpInstance, generate,
                   is_soc_feasible, lower_bound, m_star, solve_exact,
                   upper_bound)
from sockp import knapsack
from sockp.exact import initial_segments
from sockp.guarantees import min_segments_normal_order
from sockp.model import EXACT_PREC, _ceil_half_isqrt, _frac_digits, as_omega

from conftest import random_instance, soc_brute_force, soc_dp_optimum


def test_m_star_integer_example():
    # n = 100, omega = 10, all sigmas 1 (sum of squares 100)
    inst = SockpInstance(profits=(1,) * 100, means=(Decimal(1),) * 100,
                         sigmas=(Decimal(1),) * 100, capacity=Decimal(50))
    assert m_star(inst, Decimal(10)) == 501


def test_m_star_deterministic_instance():
    inst = SockpInstance(profits=(3, 4), means=(Decimal(2), Decimal(5)),
                         sigmas=(Decimal(0), Decimal(0)), capacity=Decimal(6))
    assert m_star(inst, Decimal(2)) == 1


def test_m_star_grows_under_decimal_refinement():
    base = SockpInstance(profits=(1, 1), means=(Decimal(3), Decimal(4)),
                         sigmas=(Decimal(1), Decimal(2)), capacity=Decimal(5))
    finer = SockpInstance(profits=(1, 1), means=(Decimal(3), Decimal(4)),
                          sigmas=(Decimal("1.1"), Decimal("2.3")),
                          capacity=Decimal(5))
    assert m_star(finer, Decimal(2)) > m_star(base, Decimal(2))


def test_m_star_grows_when_data_scales_up():
    base = SockpInstance(profits=(1, 1), means=(Decimal(3), Decimal(4)),
                         sigmas=(Decimal(1), Decimal(2)), capacity=Decimal(5))
    tenfold = SockpInstance(profits=(1, 1), means=(Decimal(30), Decimal(40)),
                            sigmas=(Decimal(10), Decimal(20)),
                            capacity=Decimal(50))
    assert m_star(tenfold, Decimal(2)) > m_star(base, Decimal(2))


def _m_star_reference(inst, omega):
    """m* computed directly: scale every coefficient by one power of ten."""
    omega_d = as_omega(omega)
    with localcontext() as ctx:
        ctx.prec = EXACT_PREC
        terms = [omega_d * s for s in inst.sigmas]
        scale = max([_frac_digits(inst.capacity)]
                    + [_frac_digits(v) for v in inst.means]
                    + [_frac_digits(t) for t in terms])
        total = 0
        for t in terms:
            ti = int(t.scaleb(scale))
            total += ti * ti
    return _ceil_half_isqrt(inst.n * total) + 1


def test_m_star_matches_direct_scaling(rng):
    def decimal(hi, digits):
        return Decimal(rng.randint(0, hi * 10 ** digits)).scaleb(-digits)

    for _ in range(300):
        n = rng.randint(1, 8)
        means = tuple(decimal(100, rng.randint(0, 6)) for _ in range(n))
        sigmas = tuple(decimal(20, rng.randint(0, 6)) for _ in range(n))
        inst = SockpInstance(profits=(1,) * n, means=means, sigmas=sigmas,
                             capacity=decimal(300, rng.randint(0, 6)))
        omega = decimal(10, rng.randint(0, 6)) + Decimal("0.5")
        assert m_star(inst, omega) == _m_star_reference(inst, omega), (
            inst, omega)


def test_initial_segments():
    assert initial_segments(1) == 1
    assert initial_segments(4) == 1
    assert initial_segments(100) == 5
    assert initial_segments(101) == 6


def test_ceil_half_isqrt_is_the_least_m_with_4m2_reaching_x():
    """One helper serves m*, the doubling start and the normal-case segment
    count: the least m with 4 m^2 >= x, and 0 at x = 0."""
    xs = [0, 1, 2, 4, 5, 100, 101, 4 * 10 ** 12, 4 * 10 ** 12 + 1]
    assert [_ceil_half_isqrt(x) for x in xs] == [
        0, 1, 1, 1, 2, 5, 6, 10 ** 6, 10 ** 6 + 1]
    for x in range(1, 5000):
        m = _ceil_half_isqrt(x)
        assert 4 * (m - 1) ** 2 < x <= 4 * m * m
    # Every valid m meets a target gap of 1, so the normal-case count is
    # the helper's value.
    assert [min_segments_normal_order(n, 0.95, 1) for n in xs[1:6]] == [
        _ceil_half_isqrt(n) for n in xs[1:6]]


def test_all_ones_feasible_returns_immediately():
    inst = SockpInstance(profits=(2, 3), means=(Decimal(1), Decimal(1)),
                         sigmas=(Decimal("0.5"), Decimal("0.5")),
                         capacity=Decimal(10))
    res = solve_exact(inst, Decimal(2))
    assert res.solution == (1, 1)
    assert res.objective == 5
    assert res.iterations == 0
    assert res.subproblems_solved == 0
    assert res.kind == "exact"


def test_matches_brute_force(rng):
    for trial in range(60):
        n = rng.randint(4, 10)
        inst = random_instance(rng, n)
        omega = Decimal("4.36") if trial % 2 else Decimal("1.96")
        opt, _ = soc_brute_force(inst, omega)
        res = solve_exact(inst, omega)
        assert res.objective == opt
        assert is_soc_feasible(res.solution, inst, omega)
        assert res.objective == sum(
            p for p, b in zip(inst.profits, res.solution) if b)


def test_matches_brute_force_with_decimal_means(rng):
    # non-integer means exercise the wider integer-scaling denominators
    for trial in range(20):
        n = rng.randint(3, 8)
        digits = (trial % 3) + 1
        profits = tuple(rng.randint(1, 100) for _ in range(n))
        means = tuple(Decimal(rng.randint(1, 100 * 10 ** digits)).scaleb(-digits)
                      for _ in range(n))
        sigmas = tuple(Decimal(rng.randint(0, 2000)).scaleb(-2) for _ in range(n))
        cap = (sum(means) / 2).quantize(Decimal(1).scaleb(-digits))
        inst = SockpInstance(profits=profits, means=means, sigmas=sigmas,
                             capacity=cap)
        omega = Decimal("4.358898") if trial % 2 else Decimal("1.96")
        opt, _ = soc_brute_force(inst, omega)
        assert solve_exact(inst, omega).objective == opt


def test_one_solve_at_the_certificate_is_optimal():
    """The inner-budget solution at m* is SOC-optimal (the pseudo-polynomial
    claim behind ``m_star``), checked by one upper bound at m* against brute
    force, apart from the doubling loop: random integer instances, n 3-8,
    omega 1, 2 or 3."""
    rng = random.Random(43)
    sizes = set()
    for _ in range(60):
        inst = random_instance(rng, rng.randint(3, 8), sigma_lo=0,
                               sigma_hi=20, sigma_digits=0)
        omega = Decimal(rng.randint(1, 3))
        m = m_star(inst, omega)
        sizes.add(m)
        res = upper_bound(inst, omega, m)
        assert res.objective == soc_brute_force(inst, omega)[0], (inst, omega)
        assert is_soc_feasible(res.solution, inst, omega), (inst, omega)
    assert max(sizes) > 100


def test_iteration_count_capped_by_certificate(rng):
    for _ in range(15):
        inst = random_instance(rng, rng.randint(4, 9))
        omega = Decimal("1.96")
        res = solve_exact(inst, omega)
        m0 = initial_segments(inst.n)
        cap = m_star(inst, omega)
        if res.iterations:
            assert res.iterations <= math.ceil(math.log2(cap / m0)) + 1
            assert res.m <= cap


def test_objective_history_is_nonincreasing(rng):
    for _ in range(20):
        inst = random_instance(rng, rng.randint(4, 10))
        res = solve_exact(inst, Decimal("4.358898"))
        hist = list(res.objective_history)
        assert hist == sorted(hist, reverse=True)
        if hist:
            assert res.objective == hist[-1]


def test_deterministic(rng):
    inst = random_instance(rng, 10)
    a = solve_exact(inst, Decimal("4.36"))
    b = solve_exact(inst, Decimal("4.36"))
    assert a.solution == b.solution
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_sigma_zero_reduces_to_plain_knapsack():
    inst = SockpInstance(profits=(6, 10, 12), means=(Decimal(1), Decimal(2), Decimal(3)),
                         sigmas=(Decimal(0),) * 3, capacity=Decimal(5))
    res = solve_exact(inst, Decimal("4.36"))
    assert res.objective == 22
    assert res.solution == (0, 1, 1)


def test_means_below_the_capacity_digits_keep_the_optimum():
    """Means of 5e-7 against a capacity of 1.003e-6: rounded up on a 1e-6
    grid, 0.0000005 + 0.0000005 overflows the capacity, so an upper bound
    must round the weights down and its grid must resolve the means."""
    inst = SockpInstance(profits=(5, 7, 9),
                         means=(Decimal("0.0000005"), Decimal("0.0000005"),
                                Decimal(1)),
                         sigmas=(Decimal("0.000000000001"),) * 3,
                         capacity=Decimal("0.000001003"))
    omega = Decimal("4.358898")
    assert soc_brute_force(inst, omega) == (12, (1, 1, 0))
    res = solve_exact(inst, omega)
    assert (res.objective, res.solution) == (12, (1, 1, 0))
    assert upper_bound(inst, omega, 2).objective == 12


def test_capacity_digits_below_the_grid_keep_the_certificate():
    """Unit means against a capacity of 1.9999999 with no dispersion: on a
    1e-6 grid, a capacity rounded up for an upper bound would take both
    items, and the certificate at m* = 1 would fail."""
    inst = SockpInstance(profits=(1, 1), means=(Decimal(1),) * 2,
                         sigmas=(Decimal(0),) * 2,
                         capacity=Decimal("1.9999999"))
    omega = Decimal("4.358898")
    assert upper_bound(inst, omega, 1).objective == 1
    res = solve_exact(inst, omega)
    assert res.objective == 1
    assert is_soc_feasible(res.solution, inst, omega)


def _scaled(inst, k):
    """The instance with every mean, dispersion and the capacity times 10^-k."""
    return SockpInstance(profits=inst.profits,
                         means=tuple(v.scaleb(-k) for v in inst.means),
                         sigmas=tuple(v.scaleb(-k) for v in inst.sigmas),
                         capacity=inst.capacity.scaleb(-k))


@pytest.mark.parametrize("k", range(10))
def test_bounds_and_optimum_do_not_depend_on_units(k):
    """Every mean, dispersion and capacity times 10^-k: the instance is the
    same, so the bounds still sandwich the brute-force optimum, the lower
    bound stays SOC-feasible and ``solve_exact`` still finds the optimum,
    with the selection it finds in the instance's own units.  k = 6 and 9,
    where a fixed grid used to lose optima, take the most instances."""
    rng = random.Random(5)
    omega = Decimal("1.645")
    for _ in range(100 if k in (6, 9) else 15):
        base = random_instance(rng, rng.randint(6, 11))
        inst = _scaled(base, k)
        opt, _ = soc_brute_force(inst, omega)
        for m in (1, 2, 3):
            assert upper_bound(inst, omega, m).objective >= opt, (inst, m)
            lb = lower_bound(inst, omega, m)
            assert lb.objective <= opt
            assert is_soc_feasible(lb.solution, inst, omega)
        res = solve_exact(inst, omega)
        assert res.objective == opt, inst
        assert res.solution == solve_exact(base, omega).solution, inst
        assert is_soc_feasible(res.solution, inst, omega)


def _soc_optima(inst, omega):
    """(optimum, every SOC-feasible selection of that value), by enumeration."""
    a_ints, b_int, w_ints, _ = inst.exact_view(omega)
    best, found = 0, []
    for bits in itertools.product((0, 1), repeat=inst.n):
        slack = b_int - sum(a for a, x in zip(a_ints, bits) if x)
        if slack < 0 or slack * slack < sum(w * w for w, x in zip(w_ints, bits)
                                            if x):
            continue
        value = sum(p for p, x in zip(inst.profits, bits) if x)
        if value > best:
            best, found = value, []
        if value == best:
            found.append(bits)
    return best, found


def test_permuting_the_items_keeps_the_optimum():
    """Items in another order: the same optimum, and where only one
    selection attains it, the selection moves with the items."""
    rng = random.Random(23)
    omega = Decimal("1.645")
    unique = 0
    for _ in range(40):
        inst = _scaled(random_instance(rng, rng.randint(6, 11),
                                       profit_hi=rng.choice([5, 100])),
                       rng.randint(0, 9))
        perm = list(range(inst.n))
        rng.shuffle(perm)

        def moved(values):
            return tuple(values[j] for j in perm)

        shuffled = SockpInstance(profits=moved(inst.profits),
                                 means=moved(inst.means),
                                 sigmas=moved(inst.sigmas),
                                 capacity=inst.capacity)
        opt, optima = _soc_optima(inst, omega)
        res, res_shuffled = solve_exact(inst, omega), solve_exact(shuffled, omega)
        assert res.objective == res_shuffled.objective == opt, inst
        if len(optima) == 1:
            unique += 1
            assert res_shuffled.solution == moved(res.solution), inst
    assert unique >= 20


@pytest.mark.parametrize("digits", [8, 12, 20, 39])
def test_long_profits_take_the_branch_and_bound(monkeypatch, digits):
    """Profits of 8 digits or more put each pivot knapsack's profit range
    past ``STATE_CAP``, so its value solves and reconstruction run the
    branch and bound.  The SOC solvers keep their contract on that path."""
    calls = []
    real = knapsack._bb_value

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(knapsack, "_bb_value", counted)
    rng = random.Random(29 + digits)
    omega = Decimal("1.645")
    for _ in range(15):
        inst = random_instance(rng, rng.randint(5, 10),
                               profit_hi=10 ** digits - 1)
        opt, _ = soc_brute_force(inst, omega)
        res = solve_exact(inst, omega)
        assert res.objective == opt, inst
        assert is_soc_feasible(res.solution, inst, omega)
        for m in (1, 2, 4):
            assert upper_bound(inst, omega, m).objective >= opt, (inst, m)
            lb = lower_bound(inst, omega, m)
            assert lb.objective <= opt
            assert is_soc_feasible(lb.solution, inst, omega)
    assert calls


def _soc_tie_cases(rng):
    """A capacity at an exact SOC tie: with omega = 2 the chosen items'
    dispersions, such as (3, 4), give omega * sigma = (6, 8) and the root
    term 10 exactly, and the capacity is their means plus that root.  The
    chosen items carry profit 100 and the others at most 10, so the tied
    selection is the unique optimum."""
    omega = Decimal(2)
    for tied in ((3, 4), (1, 2, 2), (2, 3, 6), (1, 4, 8), (2, 6, 9)) * 2:
        base = random_instance(rng, rng.randint(len(tied) + 2, 10),
                               profit_hi=10)
        chosen = rng.sample(range(base.n), len(tied))
        bits = tuple(int(j in chosen) for j in range(base.n))
        sigmas = list(base.sigmas)
        for j, sigma in zip(chosen, tied):
            sigmas[j] = Decimal(sigma)
        root = math.isqrt(sum(s * s for s in tied))
        inst = SockpInstance(
            profits=tuple(100 if b else p for p, b in zip(base.profits, bits)),
            means=base.means, sigmas=tuple(sigmas),
            capacity=sum(m for m, b in zip(base.means, bits) if b)
            + omega * root)
        a_ints, b_int, w_ints, _ = inst.exact_view(omega)
        slack = b_int - sum(a for a, b in zip(a_ints, bits) if b)
        assert slack * slack == sum(w * w for w, b in zip(w_ints, bits) if b)
        assert soc_brute_force(inst, omega) == (100 * len(tied), bits)
        yield inst, omega


def _twelve_decimal_sigma_cases(rng):
    """Dispersions of 0.01-20 with 12 decimals, so the instance's scale is
    10^18."""
    for trial in range(30):
        yield (random_instance(rng, rng.randint(5, 10), sigma_lo=10 ** 10,
                               sigma_hi=2 * 10 ** 13, sigma_digits=12),
               Decimal("4.358898") if trial % 2 else Decimal("1.644854"))


def _far_tail_omega_cases(rng):
    """The normal quantile at rho = 1 - 1e-12, omega = 7.034486."""
    for _ in range(30):
        yield (random_instance(rng, rng.randint(5, 10), sigma_hi=500),
               Decimal("7.034486"))


@pytest.mark.parametrize("cases", [_soc_tie_cases, _twelve_decimal_sigma_cases,
                                   _far_tail_omega_cases])
def test_corner_classes_match_brute_force(cases):
    """The exact solver finds the brute-force optimum and the bounds
    sandwich it, with a SOC-feasible lower bound, on each corner class of
    the input space."""
    rng = random.Random(41)
    nonzero = 0
    for inst, omega in cases(rng):
        opt, _ = soc_brute_force(inst, omega)
        nonzero += opt > 0
        res = solve_exact(inst, omega)
        assert res.objective == opt, inst
        assert is_soc_feasible(res.solution, inst, omega)
        for m in (1, 2, 4):
            assert upper_bound(inst, omega, m).objective >= opt, (inst, m)
            lb = lower_bound(inst, omega, m)
            assert lb.objective <= opt
            assert is_soc_feasible(lb.solution, inst, omega)
    assert nonzero >= 5


_ORACLE_CORPUS = [(family, n, rho, kind, False)
                  for kind, rho, sizes in (("chebyshev", "0.95", (20, 30, 40)),
                                           ("normal", "0.9", (20, 30)),
                                           ("normal", "0.99", (20,)),
                                           ("normal", "0.999999999999", (20,)),
                                           ("delage-ye", "0.9", (20,)))
                  for family in ("SC", "IC", "SS", "SCR", "ICR")
                  for n in sizes] + [(family, 20, "0.95", "chebyshev", True)
                                     for family in ("SC", "IC")]


@pytest.mark.parametrize("family, n, rho, kind, tenths", _ORACLE_CORPUS,
                         ids=["-".join(map(str, case[:4])) + "-tenths" * case[4]
                              for case in _ORACLE_CORPUS])
def test_matches_the_dp_oracle_past_brute_force(family, n, rho, kind, tenths):
    """At sizes brute force cannot reach, the exact solver equals an
    independent DP over (mean load, profit), with a SOC-feasible selection,
    and the bounds sandwich that optimum.  The delage-ye omega takes gamma1
    0.1 and gamma2 1.5, the mean-shift regime at rho 0.9; with ``tenths``
    every mean and the capacity get a random tenth (seed n)."""
    if kind == "delage-ye":
        inst = generate(GeneratorSpec(family=family, n=n, seed=n))
        omega = as_omega(OmegaSpec.delage_ye(rho, "0.1", "1.5"))
    else:
        inst = generate(GeneratorSpec(family=family, n=n, seed=n,
                                      rho=Decimal(rho), omega_kind=kind))
        omega = inst.omega
    if tenths:
        rng = random.Random(n)
        inst = SockpInstance(
            profits=inst.profits, sigmas=inst.sigmas,
            means=tuple(mean + Decimal(rng.randint(1, 9)) / 10
                        for mean in inst.means),
            capacity=inst.capacity + Decimal(rng.randint(1, 9)) / 10)
    opt = soc_dp_optimum(inst, omega)
    res = solve_exact(inst, omega)
    assert res.objective == opt
    assert sum(p for p, b in zip(inst.profits, res.solution) if b) == opt
    assert is_soc_feasible(res.solution, inst, omega)
    for m in (1, 2, 3, 5, 8, 13):
        assert upper_bound(inst, omega, m).objective >= opt, m
        assert lower_bound(inst, omega, m).objective <= opt, m
    for m in (1, 4, 16):
        assert upper_bound(inst, omega, m, scheme=VERTICAL).objective >= opt, m
