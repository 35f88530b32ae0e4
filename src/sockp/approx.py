"""Piecewise-linear envelopes of xi^2 and the induced segment tables.

The ellipsoid behind the SOC constraint is approximated per item by chords
(upper envelope, inner polytope) or by chords shifted down by the maximum
chord error (lower envelope, outer polytope).  Each (item, segment) pair
contributes a gain/budget coefficient pair (d, f) to a bounded continuous
knapsack whose optimum, ``beta``, is the support function of the approximate
uncertainty set.  Tables keep d as integers over a common denominator so
every ratio comparison and greedy fill can be carried out exactly; a
:class:`SegmentTable` holds each field once, as a read-only numpy array.
"""

from __future__ import annotations

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

    Entries are sorted by decreasing d/f, checked with exact cross-multiplied
    integer comparisons; ties keep (item, segment) order.  ``dnum[i] / q`` is
    the gain of the entry at rank i+1.  The dummy (nm+1)-th element with
    d = 0 and f = delta is attached at query time.

    Each field is one read-only numpy array in sorted order: ``js`` (item),
    ``ks`` (segment) and ``group_start`` (first index of the entry's run of
    equal ratios, where a strict-ratio prefix ends) are intp; ``f`` and its
    running sum ``prefix_f`` are int64; ``dnum`` and the per-item
    ``item_total_dnum`` are ``object`` arrays of Python ints, exact for any
    scheme; ``d_float`` is the correctly rounded float of ``dnum / q``.
    ``omega`` and ``sigmas`` record the data the table was built from.
    """

    def __init__(self, n, m, omega, sigmas, scheme, js, ks, dnum, f, q,
                 item_total_dnum):
        self.n = n
        self.m = m
        self.omega = omega
        self.sigmas = sigmas
        self.scheme = scheme
        self.q = q
        self.size = len(js)
        self.js = np.array(js, dtype=np.intp)
        self.ks = np.array(ks, dtype=np.intp)
        self.dnum = np.array(dnum, dtype=object)
        self.f = np.array(f, dtype=np.int64)
        self.item_total_dnum = np.array(item_total_dnum, dtype=object)
        self.prefix_f = np.cumsum(self.f)
        tie = np.append(False, self.dnum[1:] * self.f[:-1]
                        == self.dnum[:-1] * self.f[1:])
        self.group_start = np.maximum.accumulate(
            np.where(tie, 0, np.arange(self.size)))
        self.d_float = (self.dnum / q).astype(float)
        for arr in (self.js, self.ks, self.dnum, self.f, self.item_total_dnum,
                    self.prefix_f, self.group_start, self.d_float):
            arr.flags.writeable = False

    def prefix_state(self, upto: int):
        """Per-item sums of (dnum, f) over the first ``upto`` sorted entries,
        as two lists of Python ints."""
        if not 0 <= upto <= self.size:
            raise ValueError(f"prefix length {upto} out of range")
        sd = np.zeros(self.n, dtype=object)
        sf = np.zeros(self.n, dtype=np.int64)
        np.add.at(sd, self.js[:upto], self.dnum[:upto])
        np.add.at(sf, self.js[:upto], self.f[:upto])
        return sd.tolist(), sf.tolist()

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
        for i, (j, k, f) in enumerate(zip(self.js.tolist(), self.ks.tolist(),
                                          self.f.tolist())):
            yield i + 1, j, k, self.d_fraction(i), f

    def lhat(self, delta) -> int | None:
        """Smallest rank whose cumulative f reaches the budget, if any."""
        # Prefix sums lie in [1, total]: clipping keeps the threshold's place.
        total = int(self.prefix_f[-1]) if self.size else 0
        pos = int(np.searchsorted(self.prefix_f, min(
            max(math.ceil(Fraction(delta)), 0), total + 1)))
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
        base = np.array([omega_int * int(s.scaleb(e_sigma))
                         for s in inst.sigmas], dtype=object)

    # Entries in (item, segment) order, one row of m per item.
    js = np.repeat(np.arange(inst.n, dtype=np.intp), m)
    ks = np.tile(np.arange(1, m + 1, dtype=np.intp), inst.n)
    if scheme == HORIZONTAL:
        q = 10 ** (e_omega + e_sigma) * m
        dnum = np.repeat(base, m)
        f = 2 * ks - 1
    else:
        q = 10 ** (e_omega + e_sigma + _VERTICAL_QUANT)
        dnum = np.multiply.outer(base, _vertical_steps(m)).ravel()
        f = np.ones(inst.n * m, dtype=np.int64)
    totals = dnum.reshape(inst.n, m).sum(axis=1)

    order = _ratio_order(js, ks, dnum, f)
    return SegmentTable(
        n=inst.n, m=m, omega=omega_d, sigmas=inst.sigmas, scheme=scheme,
        js=js[order], ks=ks[order], dnum=dnum[order], f=f[order], q=q,
        item_total_dnum=totals)


def _ratio_order(js, ks, dnum, f) -> np.ndarray:
    """Permutation sorting entries by d/f descending, ties by (j, k).

    ``dnum`` is an ``object`` array of Python ints.  Float keys do the heavy
    lifting; one exact cross-multiplication pass over adjacent entries then
    verifies the order and falls back to exact rational keys in the rare case
    a float collision misplaced anything.
    """
    order = np.lexsort((ks, js, -(dnum / f).astype(float)))
    d, fs, j, k = dnum[order], f[order], js[order], ks[order]
    lhs, rhs = d[:-1] * fs[1:], d[1:] * fs[:-1]
    later = (j[:-1] > j[1:]) | ((j[:-1] == j[1:]) & (k[:-1] > k[1:]))
    if ((lhs < rhs) | ((lhs == rhs) & later)).any():
        order = np.array(sorted(range(len(js)), key=lambda i: (
            -Fraction(dnum[i], int(f[i])), js[i], ks[i])), dtype=np.intp)
    return order


def _vertical_steps(m: int) -> np.ndarray:
    """Quantized sqrt(k/m) - sqrt((k-1)/m) for k = 1..m, scaled by 10^18,
    as an ``object`` array of Python ints."""
    quantum = Decimal(1).scaleb(-_VERTICAL_QUANT)
    with localcontext() as ctx:
        ctx.prec = 40
        roots = [(Decimal(k) / Decimal(m)).sqrt() for k in range(m + 1)]
        return np.array([int((hi - lo).quantize(quantum, ROUND_HALF_EVEN)
                             .scaleb(_VERTICAL_QUANT))
                         for lo, hi in zip(roots, roots[1:])], dtype=object)


# ---------------------------------------------------------------------------
# The support-function value beta
# ---------------------------------------------------------------------------

def beta_exact(x: Sequence[int], table: SegmentTable, delta) -> Fraction:
    """Exact greedy value of the bounded continuous knapsack.

    Takes the entries of selected items in ratio order, saturating each until
    the budget runs out; the last touched entry is taken fractionally and the
    dummy element absorbs any remaining budget at zero gain.  This equals the
    LP optimum.
    """
    if len(x) != table.n:
        raise ValueError(f"selection vector has length {len(x)}, expected {table.n}")
    delta = Fraction(delta)
    if not table.size:
        return Fraction(0)
    if delta < int(table.f.min()):
        raise ValueError(f"budget {delta} is below the smallest entry weight")
    picked = np.asarray(x, dtype=bool)[table.js]
    dnum, f = table.dnum[picked], table.f[picked]
    used = np.cumsum(f)
    # Entries taken whole: the budgets f are integers, so a running sum fits
    # delta exactly when it fits floor(delta); clipping keeps the position.
    full = int(np.searchsorted(
        used, min(math.floor(delta), int(table.prefix_f[-1])), side="right"))
    value = Fraction(int(dnum[:full].sum()), table.q)
    if full < len(f):
        left = delta - (int(used[full - 1]) if full else 0)
        value += Fraction(dnum[full], table.q) * left / int(f[full])
    return value


def beta(x: Sequence[int], table: SegmentTable, delta) -> float:
    """Float view of :func:`beta_exact`."""
    return float(beta_exact(x, table, delta))
