"""Seeded generators for the five benchmark instance families.

SC   strongly correlated: mean ~ Unif{1..100}, profit = mean + 10
IC   inverse strongly correlated: profit ~ Unif{1..100}, mean = min(100, profit + 10)
SS   subset sum: mean ~ Unif{1..100}, profit = mean
SCR/ICR  SC/IC with dispersions flipped to 10.0 - sigma * Unif[0.5, 0.8]

Dispersions are Unif[0.05 mean, 0.1 mean] for SC/IC (exactly 0.1 mean for SS)
and every dispersion is rounded to four decimal places (round half even).
The capacity is floor(sum of means / 2).

Randomness is fully reproducible: each (item, field) pair draws from its own
substream, derived as SeedSequence(seed, spawn_key=(field, item)), so a value
never depends on how many other values were drawn before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN

import numpy as np

from .model import OmegaSpec, SockpInstance, as_decimal, resolve_omega

__all__ = ["FAMILIES", "GeneratorSpec", "generate"]

FAMILIES = ("SC", "IC", "SS", "SCR", "ICR")

_FIELD_BASE = 0       # the Unif{1..100} integer behind mean or profit
_FIELD_SIGMA = 1      # the Unif[0.05, 0.1] multiplier draw
_FIELD_INVERSE = 2    # the Unif[0.5, 0.8] draw of the R families

_QUANTUM = Decimal("0.0001")


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: family, size, seed, and an optional ambiguity.

    When both ``rho`` and ``omega_kind`` are given, the resolved safety
    factor is stamped into the instance's ``omega`` field.
    """

    family: str
    n: int
    seed: int
    rho: Decimal | None = None
    omega_kind: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1:
            raise ValueError(f"instance size must be positive, got {self.n}")
        if self.rho is not None:
            object.__setattr__(self, "rho", as_decimal(self.rho, "confidence level"))


def _draw(seed: int, field: int, item: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(field, item)))


def _round4(value: float) -> Decimal:
    return Decimal(repr(value)).quantize(_QUANTUM, ROUND_HALF_EVEN)


def generate(spec: GeneratorSpec) -> SockpInstance:
    """Generate one instance; identical specs yield identical instances.

    Each draw comes from its own ``_draw`` substream, so any of them (say an
    R family's Unif[0.5, 0.8] multiplier) can be recomputed on its own.
    """
    base_family = {"SCR": "SC", "ICR": "IC"}.get(spec.family, spec.family)
    profits = []
    means = []
    sigmas = []

    for j in range(spec.n):
        base = int(_draw(spec.seed, _FIELD_BASE, j).integers(1, 101))
        if base_family == "SC":
            mean, profit = base, base + 10
        elif base_family == "IC":
            profit, mean = base, min(100, base + 10)
        else:  # SS
            mean, profit = base, base

        if base_family == "SS":
            sigma = Decimal("0.1") * mean
        else:
            u = float(_draw(spec.seed, _FIELD_SIGMA, j).random())
            sigma = _round4((0.05 + 0.05 * u) * mean)
            # rounding must not push the draw outside [0.05 mean, 0.1 mean]
            sigma = min(max(sigma, Decimal("0.05") * mean), Decimal("0.1") * mean)

        if spec.family in ("SCR", "ICR"):
            v = 0.5 + 0.3 * float(_draw(spec.seed, _FIELD_INVERSE, j).random())
            sigma = Decimal(10) - _round4(float(sigma) * v)
            assert sigma >= 0

        profits.append(profit)
        means.append(Decimal(mean))
        sigmas.append(sigma)

    capacity = Decimal(sum(int(v) for v in means) // 2)

    omega = None
    if spec.rho is not None and spec.omega_kind is not None:
        if spec.omega_kind not in ("normal", "chebyshev"):
            raise ValueError(
                f"cannot stamp {spec.omega_kind!r} ambiguity at generation time; "
                "it needs parameters beyond the confidence level")
        omega = resolve_omega(
            OmegaSpec(kind=spec.omega_kind, rho=spec.rho)).resolved_omega

    return SockpInstance(profits=tuple(profits), means=tuple(means),
                         sigmas=tuple(sigmas), capacity=capacity, omega=omega)
