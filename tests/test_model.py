import json
import math
from decimal import Decimal

import pytest

from sockp import (GeneratorSpec, OmegaSpec, SockpInstance, generate,
                   instance_from_json, instance_to_json, inverse_normal_cdf,
                   is_soc_feasible, lower_bound, resolve_omega, soc_lhs,
                   solve_exact, upper_bound)
from sockp.guarantees import min_segments_dro
from sockp.model import _check_rho, apply_omega_spec, as_decimal, as_omega

from conftest import random_instance, soc_brute_force


def _phi_inv_bisect(p, tol=1e-14):
    # independent quantile oracle via the error function
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_inverse_normal_known_quantiles():
    assert inverse_normal_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert inverse_normal_cdf(0.995) == pytest.approx(2.5758293035489004, abs=1e-12)
    assert inverse_normal_cdf(0.95) == pytest.approx(1.6448536269514722, abs=1e-12)
    assert inverse_normal_cdf(0.5) == 0.0


def test_inverse_normal_against_bisection_oracle():
    for p in [0.501, 0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.999, 0.99999, 0.2, 0.01]:
        assert inverse_normal_cdf(p) == pytest.approx(_phi_inv_bisect(p), abs=1e-9)


def test_inverse_normal_far_tails():
    # below e^-25 ~ 1.39e-11 the quantile takes AS241's outermost branch
    assert inverse_normal_cdf(1e-20) == pytest.approx(-9.262340089798408, abs=1e-9)
    assert inverse_normal_cdf(1 - 1e-16) == pytest.approx(8.209536151601386, abs=1e-9)
    spec = resolve_omega(OmegaSpec.normal("0.999999999999"))
    assert spec.resolved_omega == Decimal("7.034486")


def test_inverse_normal_domain():
    for p in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValueError):
            inverse_normal_cdf(p)


def test_resolve_normal():
    assert resolve_omega(OmegaSpec.normal("0.95")).resolved_omega == Decimal("1.644853")
    assert resolve_omega(OmegaSpec.normal("0.99")).resolved_omega == Decimal("2.326347")


def test_resolve_chebyshev():
    # sqrt(0.95/0.05) = sqrt(19) and sqrt(0.99/0.01) = sqrt(99), truncated
    assert resolve_omega(OmegaSpec.chebyshev("0.95")).resolved_omega == Decimal("4.358898")
    assert resolve_omega(OmegaSpec.chebyshev("0.99")).resolved_omega == Decimal("9.949874")


def test_resolve_delage_ye_reduces_to_moment_case():
    dro = resolve_omega(OmegaSpec.chebyshev("0.9"))
    dy = resolve_omega(OmegaSpec.delage_ye("0.9", 0, 1))
    assert dy.resolved_omega == dro.resolved_omega


def test_resolve_delage_ye_second_branch():
    # gamma1/gamma2 = 0.5 > 1 - rho = 0.1, so omega = sqrt(gamma2 / (1 - rho))
    spec = resolve_omega(OmegaSpec.delage_ye("0.9", "0.5", "1"))
    assert float(spec.resolved_omega) == pytest.approx(math.sqrt(10), abs=1e-6)


def test_resolve_delage_ye_rejects_bad_gammas():
    with pytest.raises(ValueError):
        resolve_omega(OmegaSpec.delage_ye("0.9", "-0.1", "1"))
    with pytest.raises(ValueError):
        resolve_omega(OmegaSpec.delage_ye("0.9", "0", "0.5"))


def test_resolve_support_interval_squares_and_hoeffding():
    spec = resolve_omega(OmegaSpec.support_interval("0.95", ["1", "2"], ["3", "5"]))
    assert float(spec.resolved_omega) == pytest.approx(
        math.sqrt(-0.5 * math.log(0.05)), abs=1e-6)
    # squares form: upper^2 - lower^2 per item
    assert spec.resolved_sigmas == (Decimal(8), Decimal(21))
    alt = resolve_omega(OmegaSpec.support_interval("0.95", ["1", "2"], ["3", "5"],
                                                   form="hoeffding"))
    assert alt.resolved_sigmas == (Decimal(2), Decimal(3))


def test_resolve_support_rejects_empty_interval():
    with pytest.raises(ValueError):
        resolve_omega(OmegaSpec.support_interval("0.9", ["3"], ["2"]))


def test_resolve_rejects_rho_out_of_range():
    for rho in ("0.3", "1", "1.2"):
        with pytest.raises(ValueError):
            resolve_omega(OmegaSpec.chebyshev(rho))


def test_resolve_normal_degenerate_at_half():
    with pytest.raises(ValueError):
        resolve_omega(OmegaSpec.normal("0.5"))


def test_explicit_passes_through():
    assert resolve_omega(OmegaSpec.explicit("4.36")).resolved_omega == Decimal("4.36")
    with pytest.raises(ValueError):
        resolve_omega(OmegaSpec.explicit("-1"))


def test_omega_monotone_in_rho_and_chebyshev_dominates_normal():
    grid = [Decimal("0.55"), Decimal("0.65"), Decimal("0.75"),
            Decimal("0.85"), Decimal("0.95"), Decimal("0.99")]
    normals = [resolve_omega(OmegaSpec.normal(r)).resolved_omega for r in grid]
    chebs = [resolve_omega(OmegaSpec.chebyshev(r)).resolved_omega for r in grid]
    assert normals == sorted(normals)
    assert chebs == sorted(chebs)
    assert all(c > n for c, n in zip(chebs, normals))


def _tiny(b="7"):
    return SockpInstance(profits=(1,), means=(Decimal(5),),
                         sigmas=(Decimal(1),), capacity=Decimal(b))


def test_soc_lhs_values():
    inst = _tiny()
    assert soc_lhs((0,), inst, 2) == 0.0
    assert soc_lhs((1,), inst, 2) == pytest.approx(7.0)
    flat = SockpInstance(profits=(1, 1), means=(Decimal(2), Decimal(3)),
                         sigmas=(Decimal(0), Decimal(0)), capacity=Decimal(9))
    assert soc_lhs((1, 1), flat, 5) == pytest.approx(5.0)


def test_is_soc_feasible_exact_at_boundary():
    assert is_soc_feasible((1,), _tiny("7"), 2)            # 5 + 2*1 == 7
    assert not is_soc_feasible((1,), _tiny("6.999999"), 2)
    assert is_soc_feasible((0,), _tiny("0"), 2)


def test_is_soc_feasible_exact_beyond_default_decimal_precision():
    # coefficients longer than the default 28-digit decimal context; the
    # boundary must still classify exactly
    mean = Decimal("5.00000000000000000000000001")
    sigma = Decimal("1.000000000000000000000001")
    tight = SockpInstance(profits=(1,), means=(mean,), sigmas=(sigma,),
                          capacity=Decimal("7.000000000000000000000002010"))
    short = SockpInstance(profits=(1,), means=(mean,), sigmas=(sigma,),
                          capacity=Decimal("7.000000000000000000000002009"))
    assert is_soc_feasible((1,), tight, 2)
    assert not is_soc_feasible((1,), short, 2)


def test_exact_view_takes_the_least_common_scale():
    """One power of ten covers the means, the capacity and omega * sigma_j."""
    inst = SockpInstance(profits=(1, 2), means=("1.5", "2"),
                         sigmas=("0.25", "1"), capacity="3")
    assert inst.exact_view(Decimal("2")) == ([150, 200], 300, [50, 200], 100)
    finer = SockpInstance(profits=(1,), means=("1.5",), sigmas=("1",),
                          capacity="2.125")
    assert finer.exact_view(Decimal("2")) == ([1500], 2125, [2000], 1000)


def test_instance_rejects_unbounded_coefficient_length():
    with pytest.raises(ValueError):
        SockpInstance(profits=(1,), means=(Decimal("1." + "1" * 45),),
                      sigmas=(Decimal(1),), capacity=Decimal(9))


def test_feasibility_agrees_with_float_away_from_boundary(rng):
    checked = 0
    while checked < 200:
        inst = random_instance(rng, rng.randint(2, 8))
        omega = Decimal("4.36")
        bits = tuple(rng.randint(0, 1) for _ in range(inst.n))
        lhs = soc_lhs(bits, inst, omega)
        b = float(inst.capacity)
        if abs(lhs - b) <= 1e-6 * max(b, 1.0):
            continue
        assert is_soc_feasible(bits, inst, omega) == (lhs <= b)
        checked += 1


def test_apply_omega_spec_swaps_sigmas_for_support():
    inst = SockpInstance(profits=(1, 2), means=(Decimal(1), Decimal(2)),
                         sigmas=(Decimal(1), Decimal(1)), capacity=Decimal(10))
    spec = OmegaSpec.support_interval("0.95", ["0", "1"], ["2", "3"])
    swapped, omega = apply_omega_spec(inst, spec)
    assert swapped.sigmas == (Decimal(4), Decimal(8))
    assert omega == resolve_omega(spec).resolved_omega
    assert inst.sigmas == (Decimal(1), Decimal(1))  # original untouched


def test_instance_validation():
    with pytest.raises(ValueError):
        SockpInstance(profits=(1,), means=(), sigmas=(), capacity=Decimal(1))
    with pytest.raises(ValueError):
        SockpInstance(profits=(-1,), means=(Decimal(1),), sigmas=(Decimal(1),),
                      capacity=Decimal(1))
    with pytest.raises(ValueError):
        SockpInstance(profits=(1,), means=(Decimal(-1),), sigmas=(Decimal(1),),
                      capacity=Decimal(1))
    with pytest.raises(ValueError):
        SockpInstance(profits=(1,), means=(Decimal(1),), sigmas=(Decimal(1),),
                      capacity=Decimal(-3))


# Values that are no finite decimal, as strings and as Decimals: NaN and
# signaling NaN, whose order comparisons raise decimal.InvalidOperation,
# infinities and a malformed string.
_NOT_FINITE = ["NaN", "sNaN", "Infinity", "-Infinity", "abc",
               Decimal("NaN"), Decimal("sNaN"), Decimal("-Infinity")]


@pytest.mark.parametrize("value", _NOT_FINITE, ids=repr)
@pytest.mark.parametrize("field", ["means", "sigmas", "capacity"])
def test_instance_rejects_a_decimal_that_is_no_finite_number(field, value):
    data = dict(profits=(1, 2), means=(Decimal(1), Decimal(2)),
                sigmas=(Decimal(1), Decimal(1)), capacity=Decimal(3))
    data[field] = value if field == "capacity" else (Decimal(1), value)
    with pytest.raises(ValueError, match=f"{field}|is not a decimal"):
        SockpInstance(**data)


@pytest.mark.parametrize("value", _NOT_FINITE + [float("nan"), "0", "-2"],
                         ids=repr)
def test_as_omega_rejects_what_is_no_positive_finite_number(value):
    with pytest.raises(ValueError, match="omega|is not a decimal|non-finite"):
        as_omega(value)


@pytest.mark.parametrize("rho", [Decimal("NaN"), Decimal("sNaN"),
                                 Decimal("Infinity"), float("nan"),
                                 float("inf"), Decimal(1), Decimal("0.4")],
                         ids=repr)
def test_check_rho_rejects_nan_and_out_of_range(rho):
    with pytest.raises(ValueError, match="confidence level"):
        _check_rho(rho)


@pytest.mark.parametrize("spec, match", [
    (OmegaSpec.explicit("NaN"), "omega"),
    (OmegaSpec.explicit("sNaN"), "omega"),
    (OmegaSpec.explicit("Infinity"), "omega"),
    (OmegaSpec.normal("NaN"), "confidence level"),
    (OmegaSpec.chebyshev("sNaN"), "confidence level"),
    (OmegaSpec.delage_ye("0.9", "NaN", "1.5"), "gamma1"),
    (OmegaSpec.delage_ye("0.9", "Infinity", "1.5"), "gamma1"),
    (OmegaSpec.delage_ye("0.9", "0.1", "sNaN"), "gamma2"),
    (OmegaSpec.delage_ye("0.9", "0.1", "Infinity"), "gamma2"),
    (OmegaSpec.support_interval("0.9", ["NaN"], ["1"]), "support bounds"),
    (OmegaSpec.support_interval("0.9", ["0"], ["sNaN"]), "support bounds"),
    (OmegaSpec.support_interval("0.9", ["0"], ["Infinity"]), "support bounds"),
], ids=repr)
def test_resolve_omega_rejects_parameters_that_are_no_finite_numbers(spec,
                                                                     match):
    with pytest.raises(ValueError, match=match):
        resolve_omega(spec)


# None of these is reachable from the CLI, whose flags take only the
# choices that resolve_omega knows and whose --rho is checked before use.
@pytest.mark.parametrize("spec, message", [
    (OmegaSpec(kind="gaussian", rho=Decimal("0.9")),
     "unknown ambiguity kind 'gaussian'"),
    (OmegaSpec(kind="explicit"), "explicit safety factor must be positive"),
    (OmegaSpec(kind="chebyshev"),
     "chebyshev ambiguity requires a confidence level"),
    (OmegaSpec.support_interval("0.9", ["0"], ["1"], form="cubes"),
     "unknown support form 'cubes'"),
], ids=["kind", "explicit", "rho", "form"])
def test_resolve_omega_refuses_an_incomplete_spec(spec, message):
    with pytest.raises(ValueError, match=message):
        resolve_omega(spec)


@pytest.mark.parametrize("rho", [0.95, "0.95", Decimal("0.95")], ids=repr)
def test_omega_spec_built_directly_coerces_its_decimals(rho):
    """The constructor takes what the factories take: floats, strings and
    decimals, for every decimal field."""
    spec = OmegaSpec(kind="chebyshev", rho=rho)
    assert spec.rho == Decimal("0.95")
    assert resolve_omega(spec).resolved_omega == Decimal("4.358898")
    inst = generate(GeneratorSpec(family="SC", n=8, seed=1))
    assert (upper_bound(inst, spec, 2).objective
            == upper_bound(inst, Decimal("4.358898"), 2).objective)
    spec = OmegaSpec(kind="support", rho=rho, lower=[0, 0.5], upper=("1", 2))
    assert (spec.lower, spec.upper) == ((Decimal(0), Decimal("0.5")),
                                        (Decimal(1), Decimal(2)))
    spec = OmegaSpec(kind="delage-ye", rho=rho, gamma1=0.1, gamma2="1.5")
    assert (spec.gamma1, spec.gamma2) == (Decimal("0.1"), Decimal("1.5"))
    assert OmegaSpec(kind="explicit", resolved_omega=2.5).resolved_omega == (
        Decimal("2.5"))


@pytest.mark.parametrize("fields, named", [
    (dict(kind="chebyshev", rho="abc"), "confidence level"),
    (dict(kind="delage-ye", rho="0.9", gamma1="x", gamma2="1.5"), "gamma1"),
    (dict(kind="delage-ye", rho="0.9", gamma1="0.1", gamma2="1.5.1"),
     "gamma2"),
    (dict(kind="support", rho="0.9", lower=["0"], upper=["one"]),
     "a support bound"),
    (dict(kind="explicit", resolved_omega="2..5"), "omega"),
], ids=["rho", "gamma1", "gamma2", "support", "explicit"])
def test_omega_spec_built_directly_names_a_malformed_decimal(fields, named):
    with pytest.raises(ValueError, match=f"^{named} '.*' is not a decimal"):
        OmegaSpec(**fields)


@pytest.mark.parametrize("value", [None, object(), [1], b"1", 1j], ids=repr)
def test_as_decimal_refuses_what_is_no_number(value):
    with pytest.raises(TypeError, match="cannot interpret"):
        as_decimal(value)


_PAIR = dict(profits=(5, 6), means=("1", "2"), sigmas=("1", "1"),
             capacity="3")


def _pair_json(**fields):
    return instance_from_json(json.dumps({"n": 2, **_PAIR, **fields}))


# Decimals whose adjusted exponent lies outside [-1000, 1000], zeros
# included, from each place the library coerces one: each is refused by its
# field's name before any arithmetic can overflow the exact context or pass
# Python's int-string limit.
@pytest.mark.parametrize("make, field", [
    (lambda: _pair_json(capacity="1E+1000000"), "capacity"),
    (lambda: _pair_json(capacity="0E-5000"), "capacity"),
    (lambda: _pair_json(means=["1E-1000000", "2"]), "a mean"),
    (lambda: _pair_json(means=["1E-5000", "2"]), "a mean"),
    (lambda: _pair_json(sigmas=["1E-600000", "1"]), "a sigma"),
    (lambda: _pair_json(omega="1E+600000"), "omega"),
    (lambda: SockpInstance(**{**_PAIR, "capacity": Decimal("1E+1001")}),
     "capacity"),
    (lambda: SockpInstance(**{**_PAIR, "means": (Decimal("1E-1001"), 2)}),
     "a mean"),
    (lambda: SockpInstance(**{**_PAIR, "sigmas": (1, 10 ** 1001)}), "a sigma"),
    (lambda: OmegaSpec.support_interval("0.95", ["0", "0"],
                                        ["1E+600000", "1"]),
     "a support bound"),
    (lambda: OmegaSpec.delage_ye("0.95", "1E-1000000", "1E+1000000"),
     "gamma1"),
    (lambda: OmegaSpec.delage_ye("0.95", "0.1", "1E+1000000"), "gamma2"),
    (lambda: OmegaSpec.explicit("1E-600000"), "omega"),
    (lambda: as_omega(Decimal("1E+600000")), "omega"),
    (lambda: min_segments_dro(5, "0.95", "1E-1000000"), "target gap"),
    (lambda: GeneratorSpec(family="SC", n=5, seed=0, rho="0E-5000"),
     "confidence level"),
], ids=["json-capacity", "json-zero", "json-mean", "json-mean-5000",
        "json-sigma", "json-omega", "capacity", "mean", "sigma-int",
        "support", "gamma1", "gamma2", "explicit", "as-omega", "target-gap",
        "generator-rho"])
def test_decimals_outside_the_exponent_range_are_refused_by_name(make, field):
    with pytest.raises(ValueError, match=(
            rf"^{field} has decimal exponent -?\d+; "
            r"it must lie in \[-1000, 1000\]$")):
        make()


def _at_digits(lead, exponent, digits):
    """lead.333...E<exponent> with ``digits`` significant digits."""
    fraction = "." + "3" * (digits - 1) if digits > 1 else ""
    return f"{lead}{fraction}E{exponent:+d}"


@pytest.mark.parametrize("digits", [1, 38, 40])
@pytest.mark.parametrize("omega", ["1E-1000", "1E+1000"])
def test_decimals_at_the_edge_of_the_exponent_range_still_solve(omega,
                                                                digits):
    inst = SockpInstance(
        profits=(5, 6),
        means=(_at_digits(1, -1000, digits), _at_digits(9, 999, digits)),
        sigmas=(_at_digits(1, -1000, digits), _at_digits(5, 999, digits)),
        capacity=_at_digits(9, 999, digits))
    best, _ = soc_brute_force(inst, omega)
    assert solve_exact(inst, omega).objective == best
    assert upper_bound(inst, omega, 2).objective >= best
    lb = lower_bound(inst, omega, 2)
    assert lb.objective <= best and is_soc_feasible(lb.solution, inst, omega)


@pytest.mark.parametrize("value", ["NaN", "sNaN", "Infinity", "abc", "1.2.3"])
@pytest.mark.parametrize("field", ["means", "sigmas", "capacity", "omega"])
def test_json_rejects_a_decimal_that_is_no_finite_number(field, value):
    """A JSON decimal field that is malformed, or no finite number, is
    refused by name; omega is only recorded, so a non-finite one is refused
    where it is used."""
    doc = {"n": 2, "profits": [5, 6], "means": ["1", "2"],
           "sigmas": ["1", "1"], "capacity": "3"}
    doc[field] = [value, "1"] if field in ("means", "sigmas") else value
    label = {"means": "mean", "sigmas": "sigma"}.get(field, field)
    text = json.dumps(doc)
    if field == "omega" and value not in ("abc", "1.2.3"):
        with pytest.raises(ValueError, match="omega"):
            as_omega(instance_from_json(text).omega)
    else:
        with pytest.raises(ValueError, match=label):
            instance_from_json(text)


def test_json_round_trip_is_field_exact():
    inst = SockpInstance(profits=(3, 4), means=(Decimal("1.50"), Decimal("2")),
                         sigmas=(Decimal("0.1234"), Decimal("0.0001")),
                         capacity=Decimal("3.7"), omega=Decimal("4.358898"))
    text = instance_to_json(inst)
    again = instance_from_json(text)
    assert again == inst
    assert instance_to_json(again) == text
    doc = json.loads(text)
    assert doc["means"] == ["1.50", "2"]          # decimal strings preserved
    assert doc["sigmas"] == ["0.1234", "0.0001"]
    assert doc["capacity"] == "3.7"
    assert doc["omega"] == "4.358898"


def test_json_rejects_inconsistent_n():
    inst = _tiny()
    doc = json.loads(instance_to_json(inst))
    doc["n"] = 5
    with pytest.raises(ValueError):
        instance_from_json(json.dumps(doc))


def test_as_omega_accepts_spec_and_numbers():
    assert as_omega(OmegaSpec.chebyshev("0.95")) == Decimal("4.358898")
    assert as_omega("2.5") == Decimal("2.5")
    assert as_omega(2) == Decimal(2)
    with pytest.raises(ValueError):
        as_omega("0")


@pytest.mark.parametrize("solve", [
    lambda inst, omega: upper_bound(inst, omega, 3),
    lambda inst, omega: lower_bound(inst, omega, 3),
    solve_exact,
], ids=["upper", "lower", "exact"])
def test_solvers_reject_a_support_spec_as_omega(solve):
    """A support spec also swaps the dispersions, which a bare omega drops."""
    inst = generate(GeneratorSpec(family="SC", n=20, seed=0))
    spec = OmegaSpec.support_interval("0.95", ["0"] * inst.n, inst.sigmas)
    for omega in (spec, resolve_omega(spec)):
        with pytest.raises(ValueError, match="apply_omega_spec"):
            solve(inst, omega)
    cheb = OmegaSpec.chebyshev("0.95")
    assert (solve(inst, cheb).objective
            == solve(inst, as_omega(cheb)).objective)
