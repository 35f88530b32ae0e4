"""Exact solver: double the segment count until the incumbent is SOC-feasible.

Starting from the all-ones candidate, each iteration doubles m and re-solves
the robust problem with the inner budget; the loop exits as soon as the
incumbent passes the exact SOC feasibility test, at which point its value is
both an upper bound and attained by a feasible point, hence optimal.  A finite
certificate m* computed from the integer-scaled coefficients caps the
doubling, so termination never depends on floating-point behaviour.
"""

from __future__ import annotations

import math
import time
from decimal import localcontext
from fractions import Fraction

from .model import (EXACT_PREC, SockpInstance, _frac_digits, as_omega,
                    is_soc_feasible)
from .rkpm import (BoundResult, DEFAULT_SCALE_FACTOR, EXACT,
                   SolverInvariantError, upper_bound)

__all__ = ["m_star", "solve_exact"]


def _ceil_half_isqrt(x: int) -> int:
    """ceil(sqrt(x) / 2) in exact integer arithmetic."""
    r = math.isqrt(x)
    if r * r == x:
        return (r + 1) // 2
    return r // 2 + 1


def m_star(inst: SockpInstance, omega) -> int:
    """Segment count certifying optimality of the inner-budget solution.

    The data are integer-scaled by 10^s, where s covers the fractional digits
    of every mean, the capacity, and every product omega * sigma_j; on the
    scaled coefficients the certificate is ceil(sqrt(n * sum sigma'^2)/2) + 1.
    Solving the robust problem with the inner budget at any m >= m* yields an
    SOC-optimal solution.
    """
    omega_d = as_omega(omega)
    with localcontext() as ctx:
        ctx.prec = EXACT_PREC
        terms = [omega_d * s for s in inst.sigmas]
        scale = max([_frac_digits(inst.capacity)]
                    + [_frac_digits(v) for v in inst.means]
                    + [_frac_digits(t) for t in terms])
        total = 0
        for t in terms:
            ti = int(t.scaleb(scale))
            total += ti * ti
    return _ceil_half_isqrt(inst.n * total) + 1


def initial_segments(n: int) -> int:
    """Starting value of the doubling schedule: ceil(sqrt(n) / 2), at least 1."""
    return max(1, _ceil_half_isqrt(n))


def solve_exact(inst: SockpInstance, omega,
                *,
                scale_factor: int = DEFAULT_SCALE_FACTOR,
                threads: int = 1) -> BoundResult:
    """Optimal solution of the SOC-constrained knapsack.

    The all-ones vector is the initial candidate; if it already satisfies the
    SOC constraint it is returned immediately with no subproblem solves.
    Otherwise m doubles (capped at the m* certificate) and the inner-budget
    robust problem is re-solved until the incumbent is SOC-feasible.  The
    feasibility test runs in exact integer arithmetic, so the exit decision is
    immune to rounding.
    """
    start = time.perf_counter()
    omega_d = as_omega(omega)
    n = inst.n
    m_hat = initial_segments(n)
    bits = (1,) * n
    value = sum(inst.profits)
    iterations = 0
    solved = 0
    skipped = 0
    history: list[int] = []
    cap_m = None

    while not is_soc_feasible(bits, inst, omega_d):
        if cap_m is None:
            cap_m = m_star(inst, omega_d)
        at_cap = 2 * m_hat >= cap_m
        m_hat = min(2 * m_hat, cap_m)
        iterations += 1
        res = upper_bound(inst, omega_d, m_hat, scale_factor=scale_factor,
                          threads=threads)
        bits, value = res.solution, res.objective
        solved += res.subproblems_solved
        skipped += res.subproblems_skipped
        history.append(res.objective)
        if at_cap and not is_soc_feasible(bits, inst, omega_d):
            raise SolverInvariantError(
                f"solution at the certificate m* = {cap_m} is not SOC-feasible")

    return BoundResult(solution=bits, objective=value, kind=EXACT, m=m_hat,
                       delta=Fraction(m_hat * m_hat),
                       subproblems_solved=solved, subproblems_skipped=skipped,
                       wall_time=time.perf_counter() - start,
                       iterations=iterations,
                       objective_history=tuple(history))
