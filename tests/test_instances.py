from decimal import Decimal

import pytest

from sockp import GeneratorSpec, generate, instance_to_json, instances


def test_sc_family_rules():
    inst = generate(GeneratorSpec(family="SC", n=60, seed=1))
    for p, a in zip(inst.profits, inst.means):
        assert p - int(a) == 10
        assert 1 <= int(a) <= 100
    assert inst.capacity == Decimal(sum(int(a) for a in inst.means) // 2)


def test_ic_family_rules():
    inst = generate(GeneratorSpec(family="IC", n=60, seed=2))
    for p, a in zip(inst.profits, inst.means):
        assert 1 <= p <= 100
        assert int(a) == min(100, p + 10)


def test_ss_family_rules():
    inst = generate(GeneratorSpec(family="SS", n=60, seed=3))
    for p, a, s in zip(inst.profits, inst.means, inst.sigmas):
        assert p == int(a)
        assert s == Decimal("0.1") * int(a)


@pytest.mark.parametrize("family", ["SC", "IC"])
def test_sigma_range_and_rounding(family):
    inst = generate(GeneratorSpec(family=family, n=120, seed=4))
    for a, s in zip(inst.means, inst.sigmas):
        assert Decimal("0.05") * int(a) <= s <= Decimal("0.1") * int(a)
        assert -s.as_tuple().exponent <= 4


@pytest.mark.parametrize("family,base", [("SCR", "SC"), ("ICR", "IC")])
def test_inverse_families_flip_dispersions(family, base):
    flipped = generate(GeneratorSpec(family=family, n=50, seed=5))
    plain = generate(GeneratorSpec(family=base, n=50, seed=5))
    assert flipped.profits == plain.profits
    assert flipped.means == plain.means
    for j, (s_new, s_old) in enumerate(zip(flipped.sigmas, plain.sigmas)):
        draw = instances._draw(5, instances._FIELD_INVERSE, j).random()
        u = Decimal(repr(0.5 + 0.3 * float(draw)))
        assert Decimal("0.5") <= u <= Decimal("0.8")
        assert s_new == Decimal(10) - (Decimal(repr(float(s_old) * float(u)))
                                       .quantize(Decimal("0.0001")))
        assert s_new >= 0


def test_generation_is_deterministic_and_draw_order_free():
    spec = GeneratorSpec(family="SC", n=40, seed=9)
    assert instance_to_json(generate(spec)) == instance_to_json(generate(spec))
    # items are drawn from per-(field, item) substreams: a prefix of a larger
    # instance equals the smaller instance
    small = generate(GeneratorSpec(family="SC", n=10, seed=9))
    large = generate(GeneratorSpec(family="SC", n=40, seed=9))
    assert large.profits[:10] == small.profits
    assert large.means[:10] == small.means
    assert large.sigmas[:10] == small.sigmas


def test_distinct_seeds_differ():
    a = generate(GeneratorSpec(family="SC", n=30, seed=0))
    b = generate(GeneratorSpec(family="SC", n=30, seed=1))
    assert a.means != b.means


def test_omega_stamping():
    inst = generate(GeneratorSpec(family="SC", n=5, seed=0, rho=Decimal("0.95"),
                                  omega_kind="chebyshev"))
    assert inst.omega == Decimal("4.358898")
    bare = generate(GeneratorSpec(family="SC", n=5, seed=0))
    assert bare.omega is None
    with pytest.raises(ValueError):
        generate(GeneratorSpec(family="SC", n=5, seed=0, rho=Decimal("0.95"),
                               omega_kind="support"))


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(family="XX", n=5, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(family="SC", n=0, seed=0)
