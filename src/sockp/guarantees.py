"""Probability guarantees for inner-approximation solutions, plus a sampler.

For a solution feasible under the m-segment inner approximation, the chance
constraint may be violated by at most a closed-form gap that vanishes as m
grows; the calculators here evaluate those gaps (normal weights and the
distribution-free moment case) and invert them to minimum segment counts.
The Monte-Carlo routine empirically checks chance-constraint satisfaction
for concrete solutions under independent normal weights.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import (EXACT_PREC, SockpInstance, _ceil_half_isqrt, _check_bits,
                    _check_rho, as_decimal, inverse_normal_cdf)

__all__ = [
    "guarantee_gap_dro",
    "guarantee_gap_normal",
    "min_segments_dro",
    "min_segments_normal_order",
    "monte_carlo_feasibility",
]

DEFAULT_SAMPLES = 100_000


def guarantee_gap_normal(n: int, m: int, rho: float) -> float:
    """Worst-case confidence shortfall under independent normal weights.

    Valid for m >= sqrt(n)/2; the bound is
    Phi^{-1}(rho)/sqrt(2 pi) * (1 - sqrt(1 - n/4m^2)) * exp(-Phi^{-1}(rho)^2
    (1 - n/4m^2) / 2), which decreases to 0 as m grows.
    """
    rho = float(rho)
    _check_rho(rho)
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if 4 * m * m < n:
        raise ValueError(f"the bound requires m >= sqrt(n)/2, got m = {m}, n = {n}")
    z = inverse_normal_cdf(rho)
    x = n / (4 * m * m)  # at most 1, correctly rounded however large n and m
    # 1 - sqrt(1 - x) without the cancellation that loses it at small x.
    return (z / math.sqrt(2.0 * math.pi) * x / (1.0 + math.sqrt(1.0 - x))
            * math.exp(-0.5 * z * z * (1.0 - x)))


def guarantee_gap_dro(n: int, m: int, rho: float) -> float:
    """Worst-case confidence shortfall under moment ambiguity.

    Valid whenever 4 m^2 / n > rho; the bound is rho (1 - rho) / (4m^2/n - rho),
    taken exactly and rounded once (infinite past the float range).
    """
    rho = float(rho)
    _check_rho(rho)
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    rho_f = Fraction(rho)
    slack = 4 * m * m - rho_f * n
    if slack <= 0:
        raise ValueError(f"the bound requires 4m^2/n > rho, got m = {m}, n = {n}")
    gap = rho_f * (1 - rho_f) * n / slack
    return float(gap) if gap < 2 ** 1023 else math.inf


def _target_gap(delta) -> Decimal:
    gap = as_decimal(delta, "target gap")
    if not gap.is_finite() or gap <= 0:
        raise ValueError(f"target gap must be positive and finite, got {delta}")
    return gap


def min_segments_dro(n: int, rho, delta) -> int:
    """Smallest segment count keeping the moment-ambiguity gap below delta.

    Closed form: ceil(sqrt((rho(1-rho)/(4 delta) + rho/4) n)), evaluated in
    exact rational arithmetic so the ceiling never suffers float edges.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rho_d = as_decimal(rho, "confidence level")
    _check_rho(rho_d)
    rho_f = Fraction(rho_d)
    delta_f = Fraction(_target_gap(delta))
    inner = (rho_f * (1 - rho_f) / (4 * delta_f) + rho_f / 4) * n
    m = math.isqrt(inner.numerator // inner.denominator)
    while Fraction(m * m) < inner:
        m += 1
    return max(1, m)


def min_segments_normal_order(n: int, rho, delta) -> int:
    """Smallest m >= sqrt(n)/2 with the normal-case gap at most delta.

    No closed form exists (only an O(sqrt(n/delta)) growth order), so the
    monotone gap is inverted by doubling followed by binary search, in
    floats: a gap whose float rounds to 0 or to infinity is refused.
    """
    if n < 1:
        raise ValueError("n must be positive")
    gap = float(_target_gap(delta))
    if not 0 < gap < math.inf:
        raise ValueError(f"target gap {delta} rounds to the float {gap}")
    lo = hi = _ceil_half_isqrt(n)
    while guarantee_gap_normal(n, hi, rho) > gap:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if guarantee_gap_normal(n, mid, rho) <= gap:
            hi = mid
        else:
            lo = mid
    return hi


def monte_carlo_feasibility(x: Sequence[int], inst: SockpInstance,
                            samples: int = DEFAULT_SAMPLES,
                            seed: int = 0) -> float:
    """Empirical chance-constraint satisfaction rate of a selection.

    Draws item weights independently from Normal(mean_j, sigma_j^2), the one
    law sampled here, and returns the fraction of draws whose selected total
    stays within capacity.  Deterministic given (seed, samples).  Items with
    sigma = 0 contribute their means exactly, so degenerate instances are
    classified without sampling noise.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError("sample count must be at least 1")
    _check_bits(x, inst.n)

    with localcontext() as ctx:
        ctx.prec = EXACT_PREC
        fixed = Decimal(0)
        mus = []
        sigs = []
        for j, bit in enumerate(x):
            if not bit:
                continue
            if inst.sigmas[j] == 0:
                fixed += inst.means[j]
            else:
                mus.append(float(inst.means[j]))
                sigs.append(float(inst.sigmas[j]))

        if not mus:
            return 1.0 if fixed <= inst.capacity else 0.0

        threshold = float(inst.capacity - fixed)
    mu = np.array(mus)
    sig = np.array(sigs)
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    chunk_rows = max(1, 4_000_000 // len(mus))
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        totals = rng.normal(mu, sig, size=(rows, len(mus))).sum(axis=1)
        hits += int(np.count_nonzero(totals <= threshold))
        remaining -= rows
    return hits / samples
