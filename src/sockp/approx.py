"""Piecewise-linear envelopes of xi^2 and the induced segment tables.

The ellipsoid behind the SOC constraint is approximated per item by chords
(upper envelope, inner polytope) or by chords shifted down by the maximum
chord error (lower envelope, outer polytope).  Each (item, segment) pair
contributes a gain/budget coefficient pair (d, f) to a bounded continuous
knapsack whose optimum, ``beta``, is the support function of the approximate
uncertainty set.  Tables keep d as integers over a common denominator so
every ratio comparison and greedy fill can be carried out exactly.
"""

from __future__ import annotations

import bisect
import math
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import EXACT_PREC, SockpInstance, _frac_digits, as_omega

__all__ = [
    "HORIZONTAL",
    "VERTICAL",
    "SegmentTable",
    "beta",
    "beta_exact",
    "build_segments",
    "containment_radii",
    "eval_lower_envelope",
    "eval_upper_envelope",
]

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

# Fractional digits kept for the irrational vertical-partition coefficients.
_VERTICAL_QUANT = 18


# ---------------------------------------------------------------------------
# Envelope evaluation
# ---------------------------------------------------------------------------

def _envelope_inputs(xi, m, omega):
    if int(m) != m or m < 1:
        raise ValueError(f"segment count must be a positive integer, got {m}")
    omega_f = float(as_omega(omega))
    arr = np.asarray(xi, dtype=float)
    if np.any(arr < 0) or np.any(arr > omega_f):
        raise ValueError(f"xi must lie in [0, {omega_f}]")
    return arr, int(m), omega_f


def eval_upper_envelope(xi, m: int, omega):
    """Chord upper envelope of xi^2 over [0, omega] with m equal subintervals.

    Accepts scalars or arrays.  The value on the k-th subinterval is
    (2k-1)/m * omega * xi - (k-1)k/m^2 * omega^2; it exceeds xi^2 by at most
    omega^2 / (4 m^2), with equality at subinterval midpoints.
    """
    arr, m, omega_f = _envelope_inputs(xi, m, omega)
    k = np.clip(np.ceil(arr * m / omega_f), 1, m)
    val = (2 * k - 1) / m * omega_f * arr - (k - 1) * k / (m * m) * omega_f ** 2
    return val if val.ndim else float(val)


def eval_lower_envelope(xi, m: int, omega):
    """Lower envelope: the upper envelope shifted down by omega^2 / (4 m^2).

    It undershoots xi^2 by at most that same constant, with equality at the
    subinterval breakpoints.
    """
    arr, m, omega_f = _envelope_inputs(xi, m, omega)
    shift = omega_f ** 2 / (4 * m * m)
    val = eval_upper_envelope(arr, m, omega_f) - shift
    return val if np.ndim(val) else float(val)


def containment_radii(n: int, m: int, omega):
    """Radii sandwiching the approximate sets between balls.

    Returns (inner, outer): the inner polytope contains the ball of radius
    omega * sqrt(1 - n / 4m^2) (None when m < sqrt(n)/2, where the bound is
    undefined) and the outer polytope is contained in the ball of radius
    omega * sqrt(1 + n / 4m^2).
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    omega_f = float(as_omega(omega))
    ratio = n / (4 * m * m)
    outer = omega_f * math.sqrt(1 + ratio)
    inner = omega_f * math.sqrt(1 - ratio) if 4 * m * m >= n else None
    return inner, outer


# ---------------------------------------------------------------------------
# Segment tables
# ---------------------------------------------------------------------------

class SegmentTable:
    """Sorted (d, f) coefficients of the bounded continuous knapsack.

    Entries are sorted by decreasing d/f with exact cross-multiplied integer
    comparisons; ties keep (item, segment) order.  ``dnum[i] / q`` is the gain
    of the entry at rank i+1.  The dummy (nm+1)-th element with d = 0 and
    f = delta is attached at query time.  Immutable after construction.
    """

    def __init__(self, n, m, omega, scheme, js, ks, dnum, f, q, item_total_dnum):
        self.n = n
        self.m = m
        self.omega = omega
        self.scheme = scheme
        self.js = js
        self.ks = ks
        self.dnum = dnum
        self.f = f
        self.q = q
        self.item_total_dnum = item_total_dnum
        self.size = len(js)

        self.prefix_f = []
        acc = 0
        for fv in f:
            acc += fv
            self.prefix_f.append(acc)

        # group_start[i] = first index of the run of entries whose ratio
        # equals entry i's ratio; strict-ratio prefixes end there.
        self.group_start = []
        for i in range(self.size):
            if i and dnum[i] * f[i - 1] == dnum[i - 1] * f[i]:
                self.group_start.append(self.group_start[i - 1])
            else:
                self.group_start.append(i)

        self.d_float = np.array([dn / q for dn in dnum], dtype=float)
        self.f_int = np.array(f, dtype=np.int64)

    def prefix_state(self, upto: int):
        """Per-item sums of (dnum, f) over the first ``upto`` sorted entries."""
        if not 0 <= upto <= self.size:
            raise ValueError(f"prefix length {upto} out of range")
        sd = [0] * self.n
        sf = [0] * self.n
        for j, d, f in zip(self.js[:upto], self.dnum[:upto], self.f[:upto]):
            sd[j] += d
            sf[j] += f
        return sd, sf

    @property
    def inner_budget(self) -> Fraction:
        """Budget reproducing the inner (upper-bound) approximation."""
        return Fraction(self.m * self.m if self.scheme == HORIZONTAL else self.m)

    @property
    def outer_budget(self) -> Fraction:
        """Budget reproducing the outer (feasible lower-bound) approximation."""
        if self.scheme != HORIZONTAL:
            raise ValueError("the vertical scheme is used for upper bounds only")
        return Fraction(self.m * self.m) + Fraction(self.n, 4)

    def d_fraction(self, i: int) -> Fraction:
        return Fraction(self.dnum[i], self.q)

    def entries(self):
        """Yield (rank, item, segment, d as Fraction, f) in sorted order."""
        for i in range(self.size):
            yield i + 1, self.js[i], self.ks[i], self.d_fraction(i), self.f[i]

    def lhat(self, delta) -> int | None:
        """Smallest rank whose cumulative f reaches the budget, if any."""
        delta = Fraction(delta)
        threshold = math.ceil(delta)
        pos = bisect.bisect_left(self.prefix_f, threshold)
        return pos + 1 if pos < self.size else None

    def family(self, delta) -> list[int]:
        """Pivot ranks of the decomposition: {lhat..nm} plus the dummy nm+1.

        The last real rank nm stays in: a selection whose worst selected entry
        is ranked last, with the budget running out inside it, has that entry
        as its greedy pivot, so dropping rank nm would lose such points from
        the union (checked by enumeration in the tests).
        """
        lh = self.lhat(delta)
        dummy = self.size + 1
        if lh is None:
            return [dummy]
        return list(range(lh, self.size + 1)) + [dummy]


def build_segments(inst: SockpInstance, omega, m: int,
                   scheme: str = HORIZONTAL) -> SegmentTable:
    """Build the sorted segment table for an instance.

    Horizontal scheme (equal subintervals of the domain [0, omega]):
    d = omega * sigma_j / m on every segment and f = 2k - 1, so the per-item
    gains sum to omega * sigma_j exactly.  Vertical scheme (equal subintervals
    of the range [0, omega^2], the comparison baseline): f = 1 and
    d = omega * sigma_j * (sqrt(k/m) - sqrt((k-1)/m)), with the irrational
    factors quantized at 18 fractional digits.
    """
    if int(m) != m or m < 1:
        raise ValueError(f"segment count must be a positive integer, got {m}")
    if scheme not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"unknown scheme {scheme!r}")
    m = int(m)
    omega_d = as_omega(omega)

    e_sigma = max([0] + [_frac_digits(s) for s in inst.sigmas])
    e_omega = _frac_digits(omega_d)
    with localcontext() as ctx:
        ctx.prec = EXACT_PREC
        omega_int = int(omega_d.scaleb(e_omega))
        sigma_ints = [int(s.scaleb(e_sigma)) for s in inst.sigmas]

    raw = []  # (j, k, dnum, f)
    if scheme == HORIZONTAL:
        q = 10 ** (e_omega + e_sigma) * m
        for j, s_int in enumerate(sigma_ints):
            dn = omega_int * s_int
            for k in range(1, m + 1):
                raw.append((j, k, dn, 2 * k - 1))
    else:
        q = 10 ** (e_omega + e_sigma + _VERTICAL_QUANT)
        steps = _vertical_steps(m)
        for j, s_int in enumerate(sigma_ints):
            base = omega_int * s_int
            for k in range(1, m + 1):
                raw.append((j, k, base * steps[k - 1], 1))

    _sort_by_ratio(raw)

    totals = [0] * inst.n
    for j, _, dn, _ in raw:
        totals[j] += dn

    return SegmentTable(
        n=inst.n, m=m, omega=omega_d, scheme=scheme,
        js=[e[0] for e in raw], ks=[e[1] for e in raw],
        dnum=[e[2] for e in raw], f=[e[3] for e in raw],
        q=q, item_total_dnum=totals,
    )


def _sort_by_ratio(raw) -> None:
    """Sort (j, k, dnum, f) entries by d/f descending, ties by (j, k).

    Float keys do the heavy lifting; a single exact cross-multiplication pass
    then verifies the order and falls back to exact rational keys in the rare
    case a float collision misplaced anything.
    """
    raw.sort(key=lambda e: (-(float(e[2]) / e[3]), e[0], e[1]))
    for prev, cur in zip(raw, raw[1:]):
        lhs = prev[2] * cur[3]
        rhs = cur[2] * prev[3]
        if lhs < rhs or (lhs == rhs and (prev[0], prev[1]) > (cur[0], cur[1])):
            raw.sort(key=lambda e: (-Fraction(e[2], e[3]), e[0], e[1]))
            return


def _vertical_steps(m: int) -> list[int]:
    """Quantized sqrt(k/m) - sqrt((k-1)/m) for k = 1..m, scaled by 10^18."""
    quantum = Decimal(1).scaleb(-_VERTICAL_QUANT)
    with localcontext() as ctx:
        ctx.prec = 40
        roots = [(Decimal(k) / Decimal(m)).sqrt() for k in range(m + 1)]
        steps = []
        for k in range(1, m + 1):
            step = (roots[k] - roots[k - 1]).quantize(quantum, ROUND_HALF_EVEN)
            steps.append(int(step.scaleb(_VERTICAL_QUANT)))
    return steps


# ---------------------------------------------------------------------------
# The support-function value beta
# ---------------------------------------------------------------------------

def beta_exact(x: Sequence[int], table: SegmentTable, delta) -> Fraction:
    """Exact greedy value of the bounded continuous knapsack.

    Walks the entries of selected items in ratio order, saturating each until
    the budget runs out; the last touched entry is taken fractionally and the
    dummy element absorbs any remaining budget at zero gain.  This equals the
    LP optimum.
    """
    if len(x) != table.n:
        raise ValueError(f"selection vector has length {len(x)}, expected {table.n}")
    delta = Fraction(delta)
    if table.size and delta < min(table.f):
        raise ValueError(f"budget {delta} is below the smallest entry weight")
    budget = delta
    acc_num = 0  # fully taken entries, numerator over table.q
    partial = Fraction(0)
    for i in range(table.size):
        if not x[table.js[i]]:
            continue
        fv = table.f[i]
        if fv <= budget:
            acc_num += table.dnum[i]
            budget -= fv
        else:
            partial = Fraction(table.dnum[i], table.q) * budget / fv
            break
    return Fraction(acc_num, table.q) + partial


def beta(x: Sequence[int], table: SegmentTable, delta) -> float:
    """Float view of :func:`beta_exact`."""
    return float(beta_exact(x, table, delta))
