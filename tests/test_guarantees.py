import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from statistics import NormalDist

import pytest

from sockp import (SockpInstance, containment_radii, guarantee_gap_dro,
                   guarantee_gap_normal, min_segments_dro,
                   min_segments_normal_order, monte_carlo_feasibility)
from sockp.cli import main

from conftest import random_instance


def _phi_inv_bisect(p, tol=1e-13):
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gap_normal_oracle(n, m, rho):
    z = _phi_inv_bisect(rho)
    t = 1.0 - n / (4.0 * m * m)
    return z / math.sqrt(2 * math.pi) * (1 - math.sqrt(t)) * math.exp(-0.5 * z * z * t)


def test_gap_normal_matches_independent_evaluation():
    for n, m, rho in [(100, 10, 0.95), (100, 20, 0.99), (400, 25, 0.9),
                      (9, 2, 0.75), (50, 4, 0.95)]:
        assert guarantee_gap_normal(n, m, rho) == pytest.approx(
            _gap_normal_oracle(n, m, rho), rel=1e-9)


def test_gap_normal_small_when_m_reaches_root_3n():
    for n in (25, 100, 400, 900):
        m = math.ceil(math.sqrt(3 * n))
        assert guarantee_gap_normal(n, m, 0.95) < 0.01


def test_gap_normal_vanishes_for_large_m():
    n = 49
    assert guarantee_gap_normal(n, 10 ** 6 * 7, 0.95) < 1e-9


def test_gap_normal_rejects_invalid_m():
    with pytest.raises(ValueError):
        guarantee_gap_normal(100, 4, 0.95)  # m < sqrt(n)/2
    with pytest.raises(ValueError):
        guarantee_gap_normal(100, 10, 0.3)


def test_gap_dro_closed_form_value():
    # rho(1-rho) / (4m^2/n - rho) at n=100, m=20, rho=0.95
    assert guarantee_gap_dro(100, 20, 0.95) == pytest.approx(0.0475 / 15.05, abs=1e-15)


def test_gap_dro_vanishes_and_validates_domain():
    assert guarantee_gap_dro(100, 10 ** 5, 0.95) < 1e-7
    with pytest.raises(ValueError):
        guarantee_gap_dro(100, 4, 0.95)  # 4m^2/n = 0.64 <= rho


def test_gaps_nonincreasing_in_m():
    for n, rho in [(100, 0.95), (400, 0.99)]:
        start = math.ceil(math.sqrt(n) / 2) + 1
        normal = [guarantee_gap_normal(n, m, rho) for m in range(start, start + 40)]
        dro = [guarantee_gap_dro(n, m, rho) for m in range(start, start + 40)]
        assert all(a >= b for a, b in zip(normal, normal[1:]))
        assert all(a >= b for a, b in zip(dro, dro[1:]))


def test_min_segments_dro_closed_form():
    # (0.95*0.05/0.04 + 0.95/4) * 100 = 142.5, whose root ceils to 12
    assert min_segments_dro(100, "0.95", "0.01") == 12


def test_min_segments_dro_consistent_with_gap():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(4, 900)
        rho = Decimal(rng.randint(50, 99)) / 100
        delta = Decimal(rng.randint(1, 80)) / 1000
        m = min_segments_dro(n, rho, delta)
        assert guarantee_gap_dro(n, m, float(rho)) <= float(delta) + 1e-12


def test_min_segments_dro_monotone_in_delta():
    ms = [min_segments_dro(100, "0.95", d) for d in ("0.05", "0.01", "0.002")]
    assert ms == sorted(ms)
    assert min_segments_dro(100, "0.95", "10") >= 1


def test_min_segments_normal_is_least_valid():
    for n, rho, delta in [(100, 0.95, 0.01), (400, 0.95, 0.01), (64, 0.99, 0.005)]:
        m = min_segments_normal_order(n, rho, delta)
        assert guarantee_gap_normal(n, m, rho) <= delta
        if m > math.ceil(math.sqrt(n) / 2):
            assert guarantee_gap_normal(n, m - 1, rho) > delta
        assert m <= math.ceil(math.sqrt(3 * n)) or delta < 0.01


@pytest.mark.parametrize("big_m", [1, 2, 10 ** 6])
def test_min_segments_normal_starts_at_the_least_valid_count(big_m):
    """A gap the start already meets returns the least m with 4 m^2 >= n."""
    assert min_segments_normal_order(4 * big_m ** 2, 0.95, 1) == big_m
    assert min_segments_normal_order(4 * big_m ** 2 + 1, 0.95, 1) == big_m + 1


def test_min_segments_normal_matches_order():
    # the count grows like sqrt(n / delta)
    assert min_segments_normal_order(100, 0.95, 0.01) <= math.ceil(math.sqrt(300))


_PI_60 = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _gap_normal_decimal(n, m, z):
    """The normal-case gap in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        t = 1 - Decimal(n) / (4 * Decimal(m) ** 2)
        return (z / (2 * _PI_60).sqrt() * (1 - t.sqrt())
                * (-z * z * t / 2).exp())


def test_min_segments_normal_is_least_valid_at_tiny_gaps():
    z = Decimal(NormalDist().inv_cdf(0.95))
    found = []
    for delta in ("1e-12", "1e-14", "1e-16"):
        target = Decimal(float(delta))
        lo, hi = 2, 10 ** 9  # the gap is above target at lo, below at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _gap_normal_decimal(10, mid, z) <= target:
                hi = mid
            else:
                lo = mid
        assert min_segments_normal_order(10, "0.95", delta) == hi
        found.append(hi)
    assert found == [460_493, 4_604_930, 46_049_299]
    assert guarantee_gap_normal(10, 10 ** 9, 0.95) > 0


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf"),
                                   Decimal("NaN"), Decimal("Infinity"),
                                   Decimal("-Infinity"), "NaN", "Infinity"],
                         ids=lambda d: f"{type(d).__name__}:{d}")
def test_min_segments_reject_a_gap_that_is_no_finite_number(delta):
    with pytest.raises(ValueError, match="finite"):
        min_segments_dro(10, "0.95", delta)
    with pytest.raises(ValueError, match="finite"):
        min_segments_normal_order(10, 0.95, delta)


@pytest.mark.parametrize("gap, rounded", [("1E-400", "0.0"),
                                          ("1E+400", "inf")])
def test_min_segments_normal_refuses_a_gap_whose_float_is_not_positive(
        gap, rounded, capsys):
    """A decimal gap within the accepted exponents whose float rounds to 0
    or to infinity: the float search refuses it by the gap as given, and
    the CLI exits 2 with that message.  The exact DRO count takes it."""
    message = f"target gap {gap} rounds to the float {rounded}"
    with pytest.raises(ValueError) as exc:
        min_segments_normal_order(5, "0.95", Decimal(gap))
    assert str(exc.value) == message
    assert min_segments_dro(5, "0.95", gap) >= 1
    assert main(["guarantee", "--n", "5", "--rho", "0.95",
                 "--target-gap", gap]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # The decimal and its float give one count where the float is positive.
    assert (min_segments_normal_order(5, "0.95", Decimal("1E-300"))
            == min_segments_normal_order(5, 0.95, 1e-300))


# A count below one, from the CLI where it reaches the check: there
# guarantee_gap_normal runs before guarantee_gap_dro, and min_segments_dro
# before min_segments_normal_order.
@pytest.mark.parametrize("call, args, argv, message", [
    (guarantee_gap_normal, (0, 3, 0.95), ["--n", "0", "--m", "3"],
     "n and m must be positive"),
    (guarantee_gap_normal, (5, 0, 0.95), ["--n", "5", "--m", "0"],
     "n and m must be positive"),
    (guarantee_gap_dro, (0, 3, 0.95), None, "n and m must be positive"),
    (guarantee_gap_dro, (5, -1, 0.95), None, "n and m must be positive"),
    (min_segments_dro, (0, "0.95", "0.01"),
     ["--n", "0", "--target-gap", "0.01"], "n must be positive"),
    (min_segments_normal_order, (-3, 0.95, 0.01), None, "n must be positive"),
    (containment_radii, (0, 3, 1), None, "n and m must be positive"),
    (containment_radii, (5, -1, 1), None, "n and m must be positive"),
], ids=["normal-n", "normal-m", "dro-n", "dro-m", "min-dro", "min-normal",
        "radii-n", "radii-m"])
def test_counts_below_one_are_refused(call, args, argv, message, capsys):
    with pytest.raises(ValueError, match=message):
        call(*args)
    if argv is not None:
        assert main(["guarantee", "--rho", "0.95", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


_HUGE = 10 ** 400
# 4 m^2 / n exceeds rho = 0.95 by less than rho / n at m = 10^200.
_AT_THE_EDGE = int(4 * 10 ** 400 / Fraction(0.95))


@pytest.mark.parametrize("call, args, expected", [
    (guarantee_gap_normal, (5, _HUGE, 0.95), 0.0),
    (guarantee_gap_dro, (5, _HUGE, 0.95), 0.0),
    (guarantee_gap_dro, (_HUGE, 10 ** 200, 0.95),
     pytest.approx(0.0475 / 3.05, rel=1e-12)),
    (guarantee_gap_dro, (_AT_THE_EDGE, 10 ** 200, 0.95), math.inf),
    (min_segments_normal_order, (_HUGE, 0.95, 0.1), None),
], ids=["normal-m", "dro-m", "dro-n-m", "dro-past-float", "normal-order-n"])
def test_integers_past_the_float_range(call, args, expected):
    """n and m past the float range are valid input and do not overflow;
    the segment count is the least m whose normal gap is within 0.1."""
    got = call(*args)
    if expected is None:
        n, rho, delta = args
        assert (guarantee_gap_normal(n, got, rho) <= delta
                < guarantee_gap_normal(n, got - 1, rho))
    else:
        assert got == expected


def test_monte_carlo_empty_selection_is_certain():
    inst = SockpInstance(profits=(1,), means=(Decimal(3),), sigmas=(Decimal(1),),
                         capacity=Decimal(2))
    assert monte_carlo_feasibility((0,), inst, samples=10) == 1.0


def test_monte_carlo_degenerate_sigma_is_exact():
    inst = SockpInstance(profits=(1, 1), means=(Decimal("1.1"), Decimal("2.2")),
                         sigmas=(Decimal(0), Decimal(0)), capacity=Decimal("3.3"))
    # exactly at capacity: no sampling noise may flip the verdict
    assert monte_carlo_feasibility((1, 1), inst, samples=10) == 1.0
    tight = SockpInstance(profits=(1, 1), means=(Decimal("1.1"), Decimal("2.2")),
                          sigmas=(Decimal(0), Decimal(0)),
                          capacity=Decimal("3.2999"))
    assert monte_carlo_feasibility((1, 1), tight, samples=10) == 0.0


def test_monte_carlo_symmetric_half():
    inst = SockpInstance(profits=(1,), means=(Decimal(0),), sigmas=(Decimal(1),),
                         capacity=Decimal(0))
    rate = monte_carlo_feasibility((1,), inst, samples=100_000, seed=5)
    assert abs(rate - 0.5) < 3 / math.sqrt(100_000)


def test_monte_carlo_deterministic_given_seed(rng):
    inst = random_instance(rng, 6)
    bits = (1, 0, 1, 1, 0, 1)
    a = monte_carlo_feasibility(bits, inst, samples=20_000, seed=9)
    b = monte_carlo_feasibility(bits, inst, samples=20_000, seed=9)
    assert a == b


def test_monte_carlo_validates_inputs(rng):
    inst = random_instance(rng, 3)
    with pytest.raises(ValueError):
        monte_carlo_feasibility((1, 0, 1), inst, samples=0)
    with pytest.raises(ValueError):
        monte_carlo_feasibility((1, 0), inst)
