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

from .knapsack import ratio_order
from .model import SockpInstance, _check_bits, as_omega

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

    The table is built from its source data alone: per item, ``base`` (an
    ``object`` array of Python ints) and, per segment count k = 0..m, ``D``
    and ``F`` (int64), the sums over item j's first k segments of the gain
    numerator, base_j * D[k], and of the budget, F[k].  Horizontally
    D[k] = k and F[k] = k^2; vertically D sums the quantized steps and
    F[k] = k.  Entry (j, k) thus has gain numerator base_j * (D[k] - D[k-1])
    over the common denominator ``q`` and budget F[k] - F[k-1].  Within an
    item those ratios must not rise with k, so the entries of a larger ratio
    than any given one are, per item, its first :meth:`counts` segments; the
    constructor checks that on the steps and raises ``ValueError``
    otherwise.

    The constructor sorts the entries by decreasing d/f with
    :func:`~sockp.knapsack.ratio_order`, ties in (item, segment) order, and
    keeps three arrays of them in sorted order: ``js`` (item) intp, ``f``
    int64 and ``dnum`` an ``object`` array of Python ints, exact for any
    scheme; ``dnum[i] / q`` is the gain of the entry at rank i+1.  An
    entry's segment is its place among its item's entries.  The arrays
    hold ``size`` + 1 entries, the last the dummy (nm+1)-th element of item
    n, gain 0 and budget 1, which is sorted with the others and, of ratio
    zero and the largest index, sorts last.  These arrays, ``base``, ``D``
    and ``F`` are read-only.  The running budgets, which place a budget
    among the entries, are formed where a budget is given: a pivot family's
    start finds its first pivot by them (:meth:`sockp.rkpm._Family.start`).
    ``omega`` and ``sigmas`` record the data the table was built from.
    """

    def __init__(self, n, m, omega, sigmas, scheme, q, base, D, F):
        self.n = n
        self.m = m
        self.omega = omega
        self.sigmas = sigmas
        self.scheme = scheme
        self.q = q
        self.size = n * m
        self.base = np.array(base, dtype=object)
        self.D = np.array(D, dtype=np.int64)
        self.F = np.array(F, dtype=np.int64)
        steps, f = np.diff(self.D), np.diff(self.F)
        if (steps[:-1] * f[1:] < steps[1:] * f[:-1]).any():
            raise ValueError("segment ratios rise within an item")
        # Entries in (item, segment) order and the dummy last, so that a tie
        # in index is a tie in (item, segment).  Steps of 1 keep each item's
        # gain object, so the horizontal gains hold n ints, not n * m.
        dnum = (np.repeat(self.base, m) if (steps == 1).all() else
                np.multiply.outer(self.base, steps.astype(object)).ravel())
        dnum, f = np.append(dnum, 0), np.append(np.tile(f, n), 1)
        order = ratio_order(dnum, f)
        self.js, self.dnum, self.f = order // m, dnum[order], f[order]
        for arr in (self.js, self.dnum, self.f, self.base, self.D, self.F):
            arr.flags.writeable = False

    def counts(self, gain, rnum, f) -> np.ndarray:
        """Per item, how many of its segments have a ratio above rnum / f.

        ``gain`` is ``base`` and ``rnum`` a gain numerator, both in an int64
        or ``object`` dtype; ``rnum`` and ``f`` are columns, one row per
        ratio.  Horizontally segment k of item j outranks the ratio iff
        gain_j * f > rnum * (2k - 1), vertically iff its step exceeds
        rnum // gain_j (f = 1); a zero ratio, the dummy's, is outranked by
        every segment of an item with a positive gain.  Returns a (rows, n)
        intp array.
        """
        zero = rnum == 0
        if self.scheme == HORIZONTAL:
            k = np.where(zero, self.m,
                         -(-gain * f // np.where(zero, 1, rnum)) // 2)
        else:
            steps = np.diff(self.D)
            t = np.minimum(rnum // np.maximum(gain, 1), steps[0])
            k = np.searchsorted(-steps, -t.astype(np.int64))
        return np.where(gain > 0, np.minimum(k, self.m), 0).astype(np.intp)

    @property
    def inner_budget(self) -> Fraction:
        """Budget reproducing the inner (upper-bound) approximation: F[m]."""
        return Fraction(int(self.F[-1]))

    @property
    def outer_budget(self) -> Fraction:
        """Budget reproducing the outer (feasible lower-bound) approximation."""
        if self.scheme != HORIZONTAL:
            raise ValueError("the vertical scheme is used for upper bounds only")
        return self.inner_budget + Fraction(self.n, 4)


def build_segments(inst: SockpInstance, omega, m: int,
                   scheme: str = HORIZONTAL) -> SegmentTable:
    """Build the segment table of an instance: its q, D and F per scheme.

    Horizontal scheme (equal subintervals of the domain [0, omega]):
    d = omega * sigma_j / m on every segment and f = 2k - 1, so the per-item
    gains sum to omega * sigma_j exactly; q = scale * m, D[k] = k and
    F[k] = k^2.  Vertical scheme (equal subintervals of the range
    [0, omega^2], the comparison baseline): f = 1 and
    d = omega * sigma_j * (sqrt(k/m) - sqrt((k-1)/m)), with the irrational
    factors quantized at 18 fractional digits; q = scale * 10^18, D sums
    those steps and F[k] = k.  ``base`` is omega * sigma_j over scale, both
    from :meth:`SockpInstance.exact_view`.  Half-even quantization is
    monotone, so the vertical steps never rise.
    """
    if int(m) != m or m < 1:
        raise ValueError(f"segment count must be a positive integer, got {m}")
    if scheme not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"unknown scheme {scheme!r}")
    m = int(m)
    omega_d = as_omega(omega)

    _, _, w_ints, scale = inst.exact_view(omega_d)
    k = np.arange(m + 1, dtype=np.int64)
    if scheme == HORIZONTAL:
        q, D, F = scale * m, k, k * k
    else:
        q = scale * 10 ** _VERTICAL_QUANT
        D, F = np.append(0, np.cumsum(_vertical_steps(m))), k
    return SegmentTable(n=inst.n, m=m, omega=omega_d, sigmas=inst.sigmas,
                        scheme=scheme, q=q, base=w_ints, D=D, F=F)


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
    the budget runs out; the last touched entry is taken fractionally and
    any remaining budget is left at zero gain.  This equals the LP optimum.
    The table's dummy, of item n, is never selected.
    """
    _check_bits(x, table.n)
    delta = Fraction(delta)
    if not table.size:
        return Fraction(0)
    if delta < int(table.f.min()):
        raise ValueError(f"budget {delta} is below the smallest entry weight")
    picked = np.append(np.asarray(x, dtype=bool), False)[table.js]
    dnum, f = table.dnum[picked], table.f[picked]
    used = np.cumsum(f)
    # Entries taken whole: the budgets f are integers, so a running sum fits
    # delta exactly when it fits floor(delta); clipping keeps the position.
    full = int(np.searchsorted(
        used, min(math.floor(delta), table.n * int(table.F[-1])), side="right"))
    value = Fraction(int(dnum[:full].sum()), table.q)
    if full < len(f):
        left = delta - (int(used[full - 1]) if full else 0)
        value += Fraction(dnum[full], table.q) * left / int(f[full])
    return value


def beta(x: Sequence[int], table: SegmentTable, delta) -> float:
    """Float view of :func:`beta_exact`."""
    return float(beta_exact(x, table, delta))
