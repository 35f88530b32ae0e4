"""Shared oracles and instance builders for the test suite.

The oracles here are deliberately independent of the library's solver paths:
plain subset enumeration with exact integer arithmetic, and past its sizes a
DP over (mean load, profit), so they can vouch for the optimized
implementations.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from sockp import SockpInstance


def enumerate_knapsack(profits, weights, capacity):
    """Brute-force 0/1 knapsack: (optimal value, lexicographically least bits)."""
    n = len(profits)
    best_value = 0
    best_bits = (0,) * n
    for mask in range(1 << n):
        bits = tuple((mask >> j) & 1 for j in range(n))
        weight = sum(w for w, b in zip(weights, bits) if b)
        if weight > capacity:
            continue
        value = sum(p for p, b in zip(profits, bits) if b)
        if value > best_value or (value == best_value and bits < best_bits):
            best_value, best_bits = value, bits
    return best_value, best_bits


def exact_lp(profits, weights, capacity):
    """Exact LP optimum of a knapsack with int or Fraction weights and a
    capacity >= 0."""
    value = Fraction(sum(p for p, w in zip(profits, weights) if w == 0))
    room = capacity
    for _, p, w in sorted(((Fraction(p) / w, p, w)
                           for p, w in zip(profits, weights) if w > 0),
                          key=lambda e: -e[0]):
        if w > room:
            return value + Fraction(p) * room / w
        value += p
        room -= w
    return value


def soc_brute_force(inst, omega):
    """Exhaustive SOC-feasible optimum via exact integer arithmetic."""
    from sockp.model import as_omega

    a_ints, b_int, w_ints, _ = inst.exact_view(as_omega(omega))
    n = inst.n
    best = 0
    best_bits = (0,) * n
    for mask in range(1 << n):
        lin = 0
        var = 0
        value = 0
        for j in range(n):
            if (mask >> j) & 1:
                lin += a_ints[j]
                var += w_ints[j] ** 2
                value += inst.profits[j]
        if value <= best:
            continue
        slack = b_int - lin
        if slack >= 0 and slack * slack >= var:
            best = value
            best_bits = tuple((mask >> j) & 1 for j in range(n))
    return best, best_bits


def soc_dp_optimum(inst, omega):
    """SOC optimum by a DP over (mean load, profit), past brute force's n.

    For means of at most one decimal and sigmas of at most 4: loads count
    units of 1/unit, unit = 10 if some mean has a decimal and 1 otherwise,
    and cell [a, p] holds the least sum of (10^4 sigma_j)^2 over the
    selections of mean load a / unit and profit p, an exact int64.  Loads
    stop at floor(unit * capacity), profits at the greedy LP bound of the
    means-only knapsack, taken in Fractions here.  The optimum is the
    largest p with some a such that
    omega^2 * cell[a, p] * 10^-8 <= (capacity - a / unit)^2, checked exactly.
    """
    from sockp.model import as_omega

    unit = 1 if all(mean == mean.to_integral_value()
                    for mean in inst.means) else 10
    assert all(mean * unit == (mean * unit).to_integral_value()
               for mean in inst.means)
    assert all(s.scaleb(4) == s.scaleb(4).to_integral_value()
               for s in inst.sigmas)
    cap = Fraction(inst.capacity) * unit
    top = math.floor(cap)
    items = [(int(mean * unit), p, int(s.scaleb(4)) ** 2)
             for mean, p, s in zip(inst.means, inst.profits, inst.sigmas)]
    lp, room = Fraction(0), cap
    for a, p, _ in sorted(items, key=lambda it: (it[0] > 0,
                                                 -Fraction(it[1], it[0] or 1))):
        take = min(Fraction(1), room / a) if a else 1
        lp, room = lp + p * take, room - a * take
    width = math.floor(lp) + 1
    unreached = np.iinfo(np.int64).max // 2
    cells = np.full((top + 1, width), unreached, dtype=np.int64)
    cells[0, 0] = 0
    for a, p, v in items:
        if a <= top and p < width:
            cells[a:, p:] = np.minimum(cells[a:, p:],
                                       cells[:top + 1 - a, :width - p] + v)
    # omega^2 v 10^-8 <= ((cap - a) / unit)^2, over cap's denominator.
    w2 = Fraction(as_omega(omega)) ** 2
    lhs = w2.numerator * (cap.denominator * unit) ** 2
    rhs = w2.denominator * 10 ** 8
    for p in range(width - 1, -1, -1):
        (loads,) = np.nonzero(cells[:, p] < unreached)
        slack = cap.numerator - loads.astype(object) * cap.denominator
        if (lhs * cells[loads, p].astype(object) <= rhs * slack * slack).any():
            return p
    raise AssertionError("the empty selection is always feasible")


def beta_pair_oracle(x, table, delta):
    """Support-function value by enumerating every prefix/pivot pair.

    Candidate values come from sets T of saturated entries plus one pivot t
    absorbing the leftover budget; the optimum is their maximum.  Exponential,
    for tiny tables only.
    """
    delta = Fraction(delta)
    entries = [(Fraction(table.dnum[i], table.q), Fraction(table.f[i]))
               for i in range(table.size) if x[table.js[i]]]
    entries.append((Fraction(0), delta))  # dummy element
    k = len(entries)
    best = Fraction(0)
    for mask in range(1 << k):
        chosen = [i for i in range(k) if (mask >> i) & 1]
        f_sum = sum((entries[i][1] for i in chosen), Fraction(0))
        if f_sum >= delta:
            continue
        d_sum = sum((entries[i][0] for i in chosen), Fraction(0))
        for t in range(k):
            if t in chosen:
                continue
            if f_sum + entries[t][1] < delta:
                continue
            value = d_sum + entries[t][0] * (delta - f_sum) / entries[t][1]
            best = max(best, value)
    return best


def prefix_state(table, upto):
    """Per-item sums of (dnum, f) over the first ``upto`` sorted entries, as
    two lists of Python ints."""
    if not 0 <= upto <= table.size:
        raise ValueError(f"prefix length {upto} out of range")
    sd, sf = [0] * table.n, [0] * table.n
    for i in range(upto):
        j = int(table.js[i])
        sd[j] += int(table.dnum[i])
        sf[j] += int(table.f[i])
    return sd, sf


def ratio(table, i):
    """Ratio d/f of the entry at sorted index i; zero for the dummy, i = size."""
    return (d_fraction(table, i) / int(table.f[i]) if i < table.size
            else Fraction(0))


def tie_start(table, i):
    """First sorted index of the run of entries whose ratio equals that of
    index i (the dummy at i = size included), where the strict-ratio prefix
    of the pivot at i ends."""
    r = ratio(table, i)
    while i and ratio(table, i - 1) == r:
        i -= 1
    return i


def d_fraction(table, i):
    """Gain of the entry at sorted index i."""
    return Fraction(int(table.dnum[i]), table.q)


def entries(table):
    """Yield (rank, item, segment, d as Fraction, f) in sorted order.

    An item's segments come in order, so an entry's segment is the running
    count of its item's entries."""
    seen = [0] * table.n
    for i in range(table.size):
        j = int(table.js[i])
        seen[j] += 1
        yield i + 1, j, seen[j], d_fraction(table, i), int(table.f[i])


def family(table, delta):
    """Pivot ranks of the decomposition: {lhat..nm} plus the dummy nm+1.

    lhat is the smallest rank whose cumulative f reaches ``delta``.  The last
    real rank nm stays in: a selection whose worst selected entry is ranked
    last, with the budget running out inside it, has that entry as its
    greedy pivot, so dropping rank nm would lose such points from the union
    (checked by enumeration in the tests).
    """
    delta = Fraction(delta)
    used = 0
    for i in range(table.size):
        used += int(table.f[i])
        if used >= delta:
            return list(range(i + 1, table.size + 2))
    return [table.size + 1]


def subproblem_exact(inst, table, rank, delta):
    """Exact (weights, capacity) of the pivot-``rank`` subproblem.

    Fraction reference of the pivot rows: weight_j = mean_j + sum of
    d - ratio * f over item j's entries of a strictly larger ratio, capacity
    = capacity - ratio * delta.  Rank ``size + 1`` denotes the dummy pivot
    (ratio 0, every entry of a positive ratio).
    """
    delta = Fraction(delta)
    if not 1 <= rank <= table.size + 1:
        raise ValueError(f"pivot rank {rank} out of range")
    r = ratio(table, rank - 1)
    sd, sf = prefix_state(table, tie_start(table, rank - 1))
    weights = [Fraction(mean) + Fraction(d, table.q) - r * f
               for mean, d, f in zip(inst.means, sd, sf)]
    return weights, Fraction(inst.capacity) - r * delta


def random_instance(rng: random.Random, n, *, sigma_lo=1, sigma_hi=2000,
                    sigma_digits=2, profit_hi=100, mean_hi=100,
                    capacity_ratio=0.5) -> SockpInstance:
    profits = tuple(rng.randint(1, profit_hi) for _ in range(n))
    means = tuple(Decimal(rng.randint(1, mean_hi)) for _ in range(n))
    sigmas = tuple(Decimal(rng.randint(sigma_lo, sigma_hi)).scaleb(-sigma_digits)
                   for _ in range(n))
    total = sum(int(v) for v in means)
    capacity = Decimal(int(total * capacity_ratio))
    return SockpInstance(profits=profits, means=means, sigmas=sigmas,
                         capacity=capacity)


@pytest.fixture
def rng():
    return random.Random(20240817)
