import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from sockp import (HORIZONTAL, VERTICAL, GeneratorSpec, SockpInstance, beta,
                   beta_exact, build_segments, containment_radii,
                   eval_lower_envelope, eval_upper_envelope, generate)

from sockp.approx import _vertical_steps
from sockp.knapsack import ratio_order
from sockp.rkpm import UPPER, _Family

from conftest import (beta_pair_oracle, entries, family, prefix_state,
                      random_instance, tie_start)


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
    rows = list(entries(table))
    assert [f for _, _, _, _, f in rows] == [1, 3, 5, 7, 9]
    assert [d for _, _, _, d, _ in rows] == [Fraction(2)] * 5
    assert [k for _, _, k, _, _ in rows] == [1, 2, 3, 4, 5]


def test_horizontal_gains_sum_to_omega_sigma():
    rng = random.Random(3)
    inst = random_instance(rng, 6)
    omega = Decimal("4.358898")
    for m in (1, 3, 7):
        table = build_segments(inst, omega, m)
        for j in range(inst.n):
            total = Fraction(table.base[j] * int(table.D[m]), table.q)
            assert total == Fraction(omega) * Fraction(inst.sigmas[j])
            assert total == sum(d for _, i, _, d, _ in entries(table) if i == j)


def test_ties_keep_item_segment_order():
    inst = SockpInstance(profits=(1, 1), means=(Decimal(1), Decimal(1)),
                         sigmas=(Decimal(2), Decimal(2)), capacity=Decimal(10))
    table = build_segments(inst, Decimal(3), 2)
    # equal sigmas give pairwise-tied ratios; (item, segment) order is kept
    assert [(j, k) for _, j, k, _, _ in entries(table)] == [
        (0, 1), (1, 1), (0, 2), (1, 2)]
    # per pivot, the dummy last: the strict-ratio prefix ends at 0, 0, 2, 2, 4
    assert _counts(table).sum(axis=1).tolist() == [0, 0, 2, 2, 4]


def test_vertical_coefficients_one_item():
    table = build_segments(_one_item(), Decimal(10), 4, scheme=VERTICAL)
    expected = [10 * (math.sqrt(k / 4) - math.sqrt((k - 1) / 4)) for k in (1, 2, 3, 4)]
    got = [float(d) for _, _, _, d, _ in entries(table)]
    assert got == pytest.approx(expected, abs=1e-12)
    assert table.f.tolist() == [1, 1, 1, 1, 1]  # the dummy's budget last
    assert table.inner_budget == Fraction(4)
    with pytest.raises(ValueError):
        table.outer_budget


def test_build_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_segments(_one_item(), Decimal(10), 0)
    with pytest.raises(ValueError):
        build_segments(_one_item(), Decimal(10), 2, scheme="diagonal")


def test_ratio_sort_exact_fallback_on_float_collisions():
    # gains beyond 2^53 collide as float keys; the exact pass must restore
    # the true descending-ratio order
    big = 1 << 60
    assert ratio_order(np.array([big - 1, big + 1, big], dtype=object),
                       np.ones(3, dtype=np.int64)).tolist() == [1, 2, 0]
    # exact ties among colliding keys keep index order
    num = np.array([big + 1, 2 * big, big, 3 * big], dtype=object)
    assert ratio_order(num, np.array([1, 2, 1, 3])).tolist() == [0, 1, 2, 3]
    # ratios past float range get clamped keys; the exact pass sorts them,
    # ties still in index order
    huge = 10 ** 400
    assert ratio_order([huge, 3 * huge, 2 * huge, huge],
                       [1, 2, 1, 1]).tolist() == [2, 1, 0, 3]


def test_ratio_sort_int64_and_object_passes_agree():
    """The exact pass runs on int64 while max(num) * max(den) < 2**63 and
    on Python integers otherwise; both give the exact permutation.

    Scaling every numerator and denominator by 2**70 keeps each ratio and
    each tie but moves the pass to Python integers.  The cases are exact
    ties, float keys that collide past 2**53, and cross products at and
    past 2**63.
    """
    big = 1 << 53
    cases = [
        ([6, 3, 4, 2, 9, 0, 0], [2, 1, 2, 1, 3, 5, 1]),  # ties
        ([big, big + 1, big - 1, 2 * big + 1], [1, 1, 1, 2]),  # collisions
        ([1 << 62, (1 << 62) - 1, 3], [2, 2, 1]),  # products reach 2**63
        ([1 << 63, (1 << 63) + 1, 1 << 64], [1, 1, 2]),  # past int64
    ]
    for num, den in cases:
        want = sorted(range(len(num)),
                      key=lambda i: (-Fraction(num[i], den[i]), i))
        scaled = ([v << 70 for v in num], [v << 70 for v in den])
        for args in ((num, den), scaled,
                     (np.array(num, dtype=object), np.array(den))):
            assert ratio_order(*args).tolist() == want


def _counts(table, dtype=object):
    """Segment counts of every pivot, the table's dummy (ratio 0) last,
    taken on gains of ``dtype``."""
    return table.counts(table.base.astype(dtype),
                        table.dnum[:, None].astype(dtype), table.f[:, None])


def _reference_table(inst, omega, m, scheme):
    """Every field of the segment table from exact rationals.

    Entries (j, k, d, f) follow the scheme's definition, with the quantized
    vertical steps of ``_vertical_steps``; they are sorted by
    (-Fraction(d, f), j, k).  Returns the built table, the reference fields,
    the sorted entries' segments and running budgets, each item's total gain
    numerator and, per pivot with the dummy last, where its strict-ratio
    prefix ends: the first entry of an equal ratio.
    """
    table = build_segments(inst, omega, m, scheme)
    ks = range(m + 1)
    if scheme == VERTICAL:
        steps = [Fraction(s, 10 ** 18) for s in _vertical_steps(m)]
        raw = [(j, k, Fraction(omega) * Fraction(sigma) * steps[k - 1], 1)
               for j, sigma in enumerate(inst.sigmas) for k in range(1, m + 1)]
        # D counts omega * sigma in steps of 10^-18
        unit, F = Fraction(1, 10 ** 18), list(ks)
        D = [int(sum(steps[:k]) * 10 ** 18) for k in ks]
    else:
        raw = [(j, k, Fraction(omega) * Fraction(sigma) / m, 2 * k - 1)
               for j, sigma in enumerate(inst.sigmas) for k in range(1, m + 1)]
        # D counts omega * sigma in segments of 1/m
        unit, D, F = Fraction(1, m), list(ks), [k * k for k in ks]
    base = [Fraction(omega) * Fraction(sigma) * unit * table.q
            for sigma in inst.sigmas]
    raw.sort(key=lambda e: (-e[2] / e[3], e[0], e[1]))
    dnum = []
    for _, _, d, _ in raw:
        assert (d * table.q).denominator == 1
        dnum.append(int(d * table.q))
    prefix_f, totals, ends = [], [0] * inst.n, []
    for i, (j, _, d, f) in enumerate(raw):
        prefix_f.append((prefix_f[-1] if i else 0) + f)
        totals[j] += dnum[i]
        ends.append(next(h for h in range(i + 1)
                         if raw[h][2] / raw[h][3] == d / f))
    # The dummy's strict prefix: every entry of a positive ratio.
    ends.append(sum(1 for e in raw if e[2]))
    assert all(b.denominator == 1 for b in base)
    ref = {"js": [e[0] for e in raw], "dnum": dnum, "f": [e[3] for e in raw],
           "base": [int(b) for b in base], "D": D, "F": F}
    return table, ref, [e[1] for e in raw], prefix_f, totals, ends


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
    """Every field equals an independent Fraction-sorted reference, and so
    do the segments and running budgets the fields imply; beta_exact equals
    the greedy fill over the reference entries."""
    rng = random.Random(11)
    widths = set()
    for inst, omega, m, scheme in _table_cases(rng):
        table, ref, ks, prefix_f, totals, ends = _reference_table(
            inst, omega, m, scheme)
        for delta in (table.inner_budget, table.inner_budget + Fraction(7, 3),
                      Fraction(10 ** 30)):
            x = tuple(rng.randint(0, 1) for _ in range(inst.n))
            assert beta_exact(x, table, delta) == _greedy_beta(
                x, ref, table.q, delta)
        assert table.size == len(ref["js"]) == inst.n * m
        # The sorted arrays end in the dummy: item n, gain 0, budget 1.
        dummy = {"js": [inst.n], "dnum": [0], "f": [1]}
        for name, want in ref.items():
            arr = getattr(table, name)
            assert not arr.flags.writeable
            assert arr.tolist() == want + dummy.get(name, []), name
        assert [k for _, _, k, _, _ in entries(table)] == ks
        assert np.cumsum(table.f).tolist() == prefix_f + [prefix_f[-1] + 1]
        # Each item's gains sum to base * D[m], and the counts of every
        # pivot, the dummy last, sum to where its strict-ratio prefix ends.
        assert [b * int(table.D[m]) for b in table.base] == totals
        counts = _counts(table)
        assert counts.sum(axis=1).tolist() == ends
        assert table.dnum.dtype == table.base.dtype == object
        assert table.f.dtype == table.D.dtype == table.F.dtype == np.int64
        assert table.js.dtype == counts.dtype == np.intp
        widths.add(max(table.dnum.tolist()).bit_length() > 63)
    assert widths == {False, True}


def test_counts_give_every_pivots_strict_prefix_sums():
    """Per item, the entries of a larger ratio than a pivot's are its first
    k_j segments, so their sums are base_j * D[k_j] and F[k_j].

    Every pivot, the dummy included, against the conftest reference up to
    the start of the pivot's tie run: both schemes, m up to 40, heavy ties
    (SS dispersions are 0.1 * mean), zero dispersions, and counts taken on
    ``object`` gains and, where the products fit, on int64 ones.
    """
    rng = random.Random(21)
    omega = Decimal("4.358898")
    ties = generate(GeneratorSpec(family="SS", n=6, seed=1))
    base = random_instance(rng, 7)
    zeros = SockpInstance(
        profits=base.profits, means=base.means, capacity=base.capacity,
        sigmas=tuple(Decimal(0) if j % 3 else s
                     for j, s in enumerate(base.sigmas)))
    # Dispersions 1-4 at omega 2 keep the gains within int64 in both
    # schemes (vertically from m = 7).
    small = random_instance(rng, 5, sigma_lo=1, sigma_hi=4, sigma_digits=0)
    dtypes, tied = set(), 0
    for inst, om in ((ties, omega), (zeros, omega), (small, Decimal(2))):
        for scheme, m in product((HORIZONTAL, VERTICAL), (1, 2, 7, 40)):
            table = build_segments(inst, om, m, scheme)
            starts = [tie_start(table, i) for i in range(table.size + 1)]
            tied += any(start < i for i, start in enumerate(starts))
            want = [prefix_state(table, start) for start in starts]
            fits = max(table.dnum.max(), table.base.max() * 2 * m) < 2 ** 62
            for dtype in (object, np.int64) if fits else (object,):
                dtypes.add(dtype)
                got = [([b * int(table.D[c]) for b, c in zip(table.base, row)],
                        [int(table.F[c]) for c in row])
                       for row in _counts(table, dtype).tolist()]
                assert got == want, (scheme, m, dtype)
    assert dtypes == {np.int64, object} and tied


@pytest.mark.parametrize("scheme", [HORIZONTAL, VERTICAL])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_dummy_is_the_tables_last_entry(scheme, n):
    """Entry ``size`` of the sorted arrays is the dummy: item n, gain 0 and
    budget 1, read-only like the others, and sorted after the entries of a
    zero dispersion, which tie with its ratio 0.  ``beta_exact`` never
    takes it, and a pivot family keeps no array longer than n."""
    m, omega = 3, Decimal("4.358898")
    base = random_instance(random.Random(n), n)
    inst = SockpInstance(profits=base.profits, means=base.means,
                         sigmas=(Decimal(0),) * min(n, 1) + base.sigmas[1:],
                         capacity=base.capacity)
    table = build_segments(inst, omega, m, scheme)
    assert table.size == n * m
    assert len(table.js) == len(table.dnum) == len(table.f) == n * m + 1
    assert (int(table.js[-1]), table.dnum[-1], int(table.f[-1])) == (n, 0, 1)
    assert table.dnum[-m - 1:].tolist() == [0] * (m + 1) or not n
    with pytest.raises(ValueError, match="read-only"):
        table.f[-1] = 2
    # Every item selected: the greedy fill over the n * m real entries.
    x, want, left = (1,) * n, Fraction(0), table.inner_budget
    for _, _, _, d, f in entries(table):
        take = min(Fraction(1), left / f)
        want, left = want + d * take, left - f * take
    assert beta_exact(x, table, table.inner_budget) == want
    assert beta_exact(x, table, 10 ** 30) == sum(
        Fraction(b * int(table.D[m]), table.q) for b in table.base)
    for kind in (UPPER, "lower") if scheme == HORIZONTAL else (UPPER,):
        fam = _Family(inst, table, kind)
        arrays = [v for v in vars(fam).values() if isinstance(v, np.ndarray)]
        assert arrays and all(len(v) <= n for v in arrays)


def test_prefix_state_matches_direct_sums():
    rng = random.Random(5)
    inst = random_instance(rng, 5)
    table = build_segments(inst, Decimal("2.5"), 4)
    for upto in range(table.size + 1):
        sd, sf = prefix_state(table, upto)
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
    """A family's first pivot, rank lhat, is the first whose running budget
    reaches delta; a budget beyond every entry leaves only the dummy."""
    table = build_segments(_one_item(), Decimal(10), 3)
    fam = _Family(_one_item(), table, UPPER)
    # f = (1, 3, 5); prefix 1, 4, 9
    for delta, ranks in ((9, [3, 4]), (10, [4]), (2, [2, 3, 4])):
        assert family(table, Fraction(delta)) == ranks
        fam.delta = Fraction(delta)
        start, skipped = fam.start()
        assert start - skipped == ranks[0] - 1
