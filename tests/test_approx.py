import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sockp import (VERTICAL, SockpInstance, beta, beta_exact,
                   build_segments, containment_radii, eval_lower_envelope,
                   eval_upper_envelope)

from sockp.approx import _ratio_order, _vertical_steps

from conftest import beta_pair_oracle, random_instance


def _one_item(sigma="1"):
    return SockpInstance(profits=(1,), means=(Decimal(1),),
                         sigmas=(Decimal(sigma),), capacity=Decimal(100))


# -- envelopes ---------------------------------------------------------------

def test_upper_envelope_hits_parabola_at_breakpoints():
    for k in range(6):
        xi = 2.0 * k
        assert eval_upper_envelope(xi, 5, 10) == pytest.approx(xi * xi, abs=1e-12)


def test_upper_envelope_midpoint_value_and_gap():
    # midpoint of the first of two segments over [0, 10]
    assert eval_upper_envelope(2.5, 2, 10) == pytest.approx(12.5, abs=1e-12)
    assert eval_upper_envelope(2.5, 2, 10) - 2.5 ** 2 == pytest.approx(
        100 / 16, abs=1e-12)


def test_upper_envelope_endpoint_exact():
    assert eval_upper_envelope(10.0, 7, 10) == pytest.approx(100.0, abs=1e-12)


def test_lower_envelope_breakpoint_and_midpoint():
    assert eval_lower_envelope(2.0, 5, 10) == pytest.approx(3.0, abs=1e-12)
    assert eval_lower_envelope(2.5, 2, 10) == pytest.approx(6.25, abs=1e-12)
    assert eval_lower_envelope(0.0, 2, 10) == pytest.approx(-100 / 16, abs=1e-12)


def test_envelope_rejects_out_of_domain():
    for xi in (-0.1, 10.2):
        with pytest.raises(ValueError):
            eval_upper_envelope(xi, 3, 10)
    with pytest.raises(ValueError):
        eval_upper_envelope(1.0, 0, 10)


@pytest.mark.parametrize("omega", [1.0, 4.36, 10.0])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
def test_envelope_sandwich_on_grid(m, omega):
    xi = np.linspace(0.0, omega, 2001)
    q = xi * xi
    upper = eval_upper_envelope(xi, m, omega)
    lower = eval_lower_envelope(xi, m, omega)
    gap = omega ** 2 / (4 * m * m)
    scale = max(1.0, omega ** 2)
    assert np.all(upper >= q - 1e-12 * scale)
    assert np.all(upper <= q + gap + 1e-12 * scale)
    assert np.all(lower <= q + 1e-12 * scale)
    assert np.all(lower >= q - gap - 1e-12 * scale)


def test_upper_envelope_refines_under_doubling():
    omega = 4.36
    xi = np.linspace(0.0, omega, 1001)
    for m in (1, 2, 4, 8):
        finer = eval_upper_envelope(xi, 2 * m, omega)
        coarser = eval_upper_envelope(xi, m, omega)
        assert np.all(finer <= coarser + 1e-12)


# -- segment tables ----------------------------------------------------------

def test_horizontal_coefficients_one_item():
    table = build_segments(_one_item(), Decimal(10), 5)
    entries = list(table.entries())
    assert [f for _, _, _, _, f in entries] == [1, 3, 5, 7, 9]
    assert [d for _, _, _, d, _ in entries] == [Fraction(2)] * 5
    assert [k for _, _, k, _, _ in entries] == [1, 2, 3, 4, 5]


def test_horizontal_gains_sum_to_omega_sigma():
    rng = random.Random(3)
    inst = random_instance(rng, 6)
    omega = Decimal("4.358898")
    for m in (1, 3, 7):
        table = build_segments(inst, omega, m)
        for j in range(inst.n):
            total = Fraction(table.item_total_dnum[j], table.q)
            assert total == Fraction(omega) * Fraction(inst.sigmas[j])


def test_ties_keep_item_segment_order():
    inst = SockpInstance(profits=(1, 1), means=(Decimal(1), Decimal(1)),
                         sigmas=(Decimal(2), Decimal(2)), capacity=Decimal(10))
    table = build_segments(inst, Decimal(3), 2)
    # equal sigmas give pairwise-tied ratios; (item, segment) order is kept
    assert list(zip(table.js.tolist(), table.ks.tolist())) == [
        (0, 1), (1, 1), (0, 2), (1, 2)]
    assert table.group_start.tolist() == [0, 0, 2, 2]


def test_vertical_coefficients_one_item():
    table = build_segments(_one_item(), Decimal(10), 4, scheme=VERTICAL)
    expected = [10 * (math.sqrt(k / 4) - math.sqrt((k - 1) / 4)) for k in (1, 2, 3, 4)]
    got = [float(d) for _, _, _, d, _ in table.entries()]
    assert got == pytest.approx(expected, abs=1e-12)
    assert table.f.tolist() == [1, 1, 1, 1]
    assert table.inner_budget == Fraction(4)
    with pytest.raises(ValueError):
        table.outer_budget


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_segments(_one_item(), Decimal(10), 0)
    with pytest.raises(ValueError):
        build_segments(_one_item(), Decimal(10), 2, scheme="diagonal")


def _sorted_by_ratio(raw):
    """(j, k, dnum, f) tuples in the order of ``approx._ratio_order``."""
    js, ks, dnum, f = zip(*raw)
    order = _ratio_order(np.array(js, dtype=np.intp),
                         np.array(ks, dtype=np.intp),
                         np.array(dnum, dtype=object),
                         np.array(f, dtype=np.int64))
    return [raw[i] for i in order.tolist()]


def test_ratio_sort_exact_fallback_on_float_collisions():
    # gains beyond 2^53 collide as float keys; the exact pass must restore
    # the true descending-ratio order
    big = 1 << 60
    raw = [(0, 1, big - 1, 1), (1, 1, big + 1, 1), (2, 1, big, 1)]
    raw = _sorted_by_ratio(raw)
    assert [e[2] for e in raw] == [big + 1, big, big - 1]
    # exact ties among colliding keys keep (item, segment) order
    raw = [(1, 1, big, 1), (0, 2, big, 1), (0, 1, big, 1)]
    raw = _sorted_by_ratio(raw)
    assert [(e[0], e[1]) for e in raw] == [(0, 1), (0, 2), (1, 1)]


def _reference_table(inst, omega, m, scheme):
    """Every field of the segment table from exact rationals.

    Entries (j, k, d, f) follow the scheme's definition, with the quantized
    vertical steps of ``_vertical_steps``; they are sorted by
    (-Fraction(d, f), j, k) and grouped by exactly equal ratios.  Returns the
    built table, the reference fields and the reference d_float.
    """
    table = build_segments(inst, omega, m, scheme)
    if scheme == VERTICAL:
        steps = [Fraction(s, 10 ** 18) for s in _vertical_steps(m)]
        raw = [(j, k, Fraction(omega) * Fraction(sigma) * steps[k - 1], 1)
               for j, sigma in enumerate(inst.sigmas) for k in range(1, m + 1)]
    else:
        raw = [(j, k, Fraction(omega) * Fraction(sigma) / m, 2 * k - 1)
               for j, sigma in enumerate(inst.sigmas) for k in range(1, m + 1)]
    raw.sort(key=lambda e: (-e[2] / e[3], e[0], e[1]))
    dnum = []
    for _, _, d, _ in raw:
        assert (d * table.q).denominator == 1
        dnum.append(int(d * table.q))
    group_start, prefix_f, totals = [], [], [0] * inst.n
    for i, (j, _, d, f) in enumerate(raw):
        same = i and d / f == raw[i - 1][2] / raw[i - 1][3]
        group_start.append(group_start[-1] if same else i)
        prefix_f.append((prefix_f[-1] if i else 0) + f)
        totals[j] += dnum[i]
    ref = {"js": [e[0] for e in raw], "ks": [e[1] for e in raw],
           "dnum": dnum, "f": [e[3] for e in raw],
           "group_start": group_start, "prefix_f": prefix_f,
           "item_total_dnum": totals}
    return table, ref, [d / table.q for d in dnum]


def _table_cases(rng):
    omega = Decimal("4.358898")
    for trial in range(24):
        scheme = VERTICAL if trial % 2 else "horizontal"
        inst = random_instance(rng, rng.randint(1, 12))
        if trial % 3 == 0:  # repeated dispersions: many exact ratio ties
            inst = SockpInstance(
                profits=inst.profits, means=inst.means,
                sigmas=tuple(rng.choice(inst.sigmas[:2]) for _ in inst.sigmas),
                capacity=inst.capacity)
        yield inst, omega, rng.randint(1, 9), scheme
    # Dispersions near 2^60 collide as float ratios: the exact fallback sorts.
    big = 1 << 60
    near = SockpInstance(profits=(1,) * 6, means=(Decimal(1),) * 6,
                         sigmas=tuple(Decimal(big + c)
                                      for c in (3, -1, 2, 0, 2, 1)),
                         capacity=Decimal(10))
    for scheme in ("horizontal", VERTICAL):
        yield near, Decimal(1), 3, scheme


def _greedy_beta(x, ref, q, delta):
    """beta by the entry-by-entry greedy fill over the reference table."""
    value, budget = Fraction(0), delta
    for j, d, f in zip(ref["js"], ref["dnum"], ref["f"]):
        if x[j]:
            take = min(Fraction(1), budget / f)
            value += Fraction(d, q) * take
            budget -= f * take
    return value


def test_table_matches_exact_reference():
    """Every field equals an independent Fraction-sorted reference; d_float
    is the correctly rounded d / q, bit for bit; beta_exact equals the
    greedy fill over the reference entries."""
    rng = random.Random(11)
    widths = set()
    for inst, omega, m, scheme in _table_cases(rng):
        table, ref, d_float = _reference_table(inst, omega, m, scheme)
        for delta in (table.inner_budget, table.inner_budget + Fraction(7, 3),
                      Fraction(10 ** 30)):
            x = tuple(rng.randint(0, 1) for _ in range(inst.n))
            assert beta_exact(x, table, delta) == _greedy_beta(
                x, ref, table.q, delta)
        assert table.size == len(ref["js"]) == inst.n * m
        for name, want in ref.items():
            arr = getattr(table, name)
            assert not arr.flags.writeable
            assert arr.tolist() == want, name
        assert table.dnum.dtype == table.item_total_dnum.dtype == object
        assert table.f.dtype == table.prefix_f.dtype == np.int64
        assert table.js.dtype == table.ks.dtype == table.group_start.dtype \
            == np.intp
        assert table.d_float.tobytes() == np.array(d_float).tobytes()
        widths.add(max(table.dnum.tolist()).bit_length() > 63)
    assert widths == {False, True}


def test_prefix_state_matches_direct_sums():
    rng = random.Random(5)
    inst = random_instance(rng, 5)
    table = build_segments(inst, Decimal("2.5"), 4)
    for upto in range(table.size + 1):
        sd, sf = table.prefix_state(upto)
        for j in range(inst.n):
            want_d = sum(table.dnum[i] for i in range(upto) if table.js[i] == j)
            want_f = sum(table.f[i] for i in range(upto) if table.js[i] == j)
            assert sd[j] == want_d
            assert sf[j] == want_f


# -- containment radii -------------------------------------------------------

def test_containment_radii_formulas():
    inner, outer = containment_radii(100, 10, 1)
    assert inner == pytest.approx(math.sqrt(0.75), abs=1e-12)
    assert outer == pytest.approx(math.sqrt(1.25), abs=1e-12)


def test_containment_inner_boundary_and_undefined():
    inner, _ = containment_radii(4 * 9, 3, 5)  # n = 4 m^2
    assert inner == pytest.approx(0.0, abs=1e-12)
    inner, outer = containment_radii(37, 3, 5)  # m < sqrt(n)/2
    assert inner is None
    assert outer > 5


def test_containment_radii_converge_to_omega():
    n = 49
    m = 1000 * int(math.sqrt(n))
    inner, outer = containment_radii(n, m, 1)
    assert abs(inner - 1.0) < 1e-6
    assert abs(outer - 1.0) < 1e-6


# -- the support function ----------------------------------------------------

def test_beta_full_budget_recovers_ellipsoid_term():
    table = build_segments(_one_item(), Decimal(10), 2)
    assert beta((1,), table, 4) == pytest.approx(10.0)
    # extra budget is absorbed by the dummy element at zero gain
    assert beta((1,), table, Fraction(17, 4)) == pytest.approx(10.0)
    assert beta((0,), table, 4) == 0.0


def test_beta_partial_budget_greedy_trace():
    table = build_segments(_one_item(), Decimal(10), 2)
    # entries (d=5, f=1), (d=5, f=3); budget 2 takes the first whole and a
    # third of the second
    assert beta_exact((1,), table, 2) == Fraction(5) + Fraction(5, 3)


def test_beta_rejects_budget_below_smallest_entry():
    table = build_segments(_one_item(), Decimal(10), 2)
    with pytest.raises(ValueError):
        beta_exact((1,), table, Fraction(1, 2))


def test_beta_matches_pair_enumeration_oracle(rng):
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        inst = random_instance(rng, n)
        table = build_segments(inst, Decimal("2.36"), m)
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        for delta in (Fraction(m * m), Fraction(m * m) + Fraction(n, 4)):
            assert beta_exact(bits, table, delta) == beta_pair_oracle(bits, table, delta)


def test_beta_brackets_ellipsoid_term(rng):
    # inner budget underestimates, outer budget overestimates, all selections
    for _ in range(10):
        n = rng.randint(2, 7)
        inst = random_instance(rng, n)
        omega = Decimal("4.358898")
        for m in (1, 2, 4):
            table = build_segments(inst, omega, m)
            inner, outer = table.inner_budget, table.outer_budget
            for mask in range(1 << n):
                bits = tuple((mask >> j) & 1 for j in range(n))
                term = float(omega) * math.sqrt(
                    sum(float(s) ** 2 for s, b in zip(inst.sigmas, bits) if b))
                b_in = beta(bits, table, inner)
                b_out = beta(bits, table, outer)
                assert b_in <= term + 1e-9
                assert term <= b_out + 1e-9


def test_beta_inner_tightens_under_doubling(rng):
    for _ in range(8):
        n = rng.randint(2, 6)
        inst = random_instance(rng, n)
        omega = Decimal("1.96")
        for m in (1, 2, 4):
            coarse = build_segments(inst, omega, m)
            fine = build_segments(inst, omega, 2 * m)
            for mask in range(1 << n):
                bits = tuple((mask >> j) & 1 for j in range(n))
                assert (beta_exact(bits, fine, Fraction(4 * m * m))
                        >= beta_exact(bits, coarse, Fraction(m * m)))


def test_lhat_and_family_shape():
    table = build_segments(_one_item(), Decimal(10), 3)
    # f = (1, 3, 5); prefix 1, 4, 9
    assert table.lhat(Fraction(9)) == 3
    assert table.lhat(Fraction(10)) is None
    assert table.family(Fraction(9)) == [3, 4]
    assert table.lhat(Fraction(2)) == 2
    assert table.family(Fraction(2)) == [2, 3, 4]
    assert table.family(Fraction(10)) == [4]          # budget beyond all entries
