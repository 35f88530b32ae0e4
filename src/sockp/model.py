"""Problem data for the SOC-constrained binary knapsack and safety-factor resolution.

The deterministic model is

    maximize    sum_j p_j x_j
    subject to  sum_j mean_j x_j + omega * sqrt(sum_j sigma_j^2 x_j) <= capacity,
                x binary,

where ``omega`` encodes the distributional assumption on the random item
weights (normality, moment ambiguity, Delage-Ye ambiguity, or a known
support interval).  Means, dispersions and the capacity are finite decimals;
feasibility checks are carried out in exact integer arithmetic so boundary
instances are never misclassified by floating-point rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from decimal import Decimal, ROUND_DOWN, localcontext
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "OmegaSpec",
    "SockpInstance",
    "as_decimal",
    "instance_from_json",
    "instance_to_json",
    "inverse_normal_cdf",
    "is_soc_feasible",
    "resolve_omega",
    "soc_lhs",
]

# Default number of decimal digits kept when truncating an irrational safety
# factor; finite decimals are required for the exact scaled-integer checks.
OMEGA_DIGITS = 6

# Working precision for exact decimal arithmetic (scaling, products).  The
# default context rounds at 28 digits, which would silently break exactness;
# coefficients are capped at MAX_COEFF_DIGITS so products always fit.
EXACT_PREC = 120
MAX_COEFF_DIGITS = 40

_OMEGA_KINDS = ("normal", "chebyshev", "delage-ye", "support", "explicit")


def as_decimal(value) -> Decimal:
    """Coerce a number to Decimal. Floats go through repr() to keep them short."""
    if isinstance(value, Decimal):
        return value
    if isinstance(value, int):
        return Decimal(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        return Decimal(repr(value))
    if isinstance(value, str):
        return Decimal(value)
    raise TypeError(f"cannot interpret {value!r} as a decimal")


def _frac_digits(d: Decimal) -> int:
    exp = d.as_tuple().exponent
    return max(0, -exp) if isinstance(exp, int) else 0


def _scaled_int(d: Decimal, digits: int) -> int:
    with localcontext() as ctx:
        ctx.prec = EXACT_PREC
        scaled = d.scaleb(digits)
    ival = int(scaled)
    if scaled != ival:
        raise ValueError(f"{d} has more than {digits} fractional digits")
    return ival


def _check_coeff(d: Decimal, label: str) -> None:
    if len(d.as_tuple().digits) > MAX_COEFF_DIGITS:
        raise ValueError(
            f"{label} {d} has more than {MAX_COEFF_DIGITS} significant digits")


# ---------------------------------------------------------------------------
# Inverse standard-normal CDF (Wichura's rational approximation, full double
# precision; far better than the 1e-9 absolute accuracy required here).
# ---------------------------------------------------------------------------

_PPND_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
           1.9715909503065514427e3, 1.3731693765509461125e4,
           4.5921953931549871457e4, 6.7265770927008700853e4,
           3.3430575583588128105e4, 2.5090809287301226727e3)
_PPND_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
           5.3941960214247511077e3, 2.1213794301586595867e4,
           3.9307895800092710610e4, 2.8729085735721942674e4,
           5.2264952788528545610e3)
_PPND_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
           5.76949722146069140550e0, 3.64784832476320460504e0,
           1.27045825245236838258e0, 2.41780725177450611770e-1,
           2.27238449892691845833e-2, 7.74545014278341407640e-4)
_PPND_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
           6.89767334985100004550e-1, 1.48103976427480074590e-1,
           1.51986665636164571966e-2, 5.47593808499534494600e-4,
           1.05075007164441684324e-9)
_PPND_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
           1.78482653991729133580e0, 2.42667955230531880660e-1,
           2.65321895265761230930e-2, 1.24266094738807843860e-3,
           2.71155556874348757815e-5, 2.01033439929228813265e-7)
_PPND_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
           1.48753612908506148525e-2, 7.86869131145613259100e-4,
           1.84631831751005468180e-5, 1.42151175831644588870e-7,
           2.04426310338993978564e-15)


def _ppnd_poly(coeffs, r):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


def inverse_normal_cdf(p: float) -> float:
    """Quantile of the standard normal distribution for ``p`` in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _ppnd_poly(_PPND_A, r) / _ppnd_poly(_PPND_B, r)
    r = p if q < 0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        val = _ppnd_poly(_PPND_C, r) / _ppnd_poly(_PPND_D, r)
    else:
        r -= 5.0
        val = _ppnd_poly(_PPND_E, r) / _ppnd_poly(_PPND_F, r)
    return -val if q < 0 else val


# ---------------------------------------------------------------------------
# Ambiguity specifications and safety-factor resolution
# ---------------------------------------------------------------------------

@dataclass
class OmegaSpec:
    """A distributional assumption to be resolved into a safety factor.

    ``kind`` is one of ``normal``, ``chebyshev``, ``delage-ye``, ``support``
    or ``explicit``.  After :func:`resolve_omega`, ``resolved_omega`` holds
    the finite-decimal safety factor and, for the support-interval kind,
    ``resolved_sigmas`` holds the replacement dispersion coefficients.
    """

    kind: str
    rho: Decimal | None = None
    gamma1: Decimal | None = None
    gamma2: Decimal | None = None
    lower: tuple[Decimal, ...] | None = None
    upper: tuple[Decimal, ...] | None = None
    # "squares" uses (upper^2 - lower^2) per item; "hoeffding" uses the
    # classical (upper - lower).  See resolve_omega.
    support_form: str = "squares"
    resolved_omega: Decimal | None = None
    resolved_sigmas: tuple[Decimal, ...] | None = None

    @classmethod
    def normal(cls, rho) -> "OmegaSpec":
        return cls(kind="normal", rho=as_decimal(rho))

    @classmethod
    def chebyshev(cls, rho) -> "OmegaSpec":
        return cls(kind="chebyshev", rho=as_decimal(rho))

    @classmethod
    def delage_ye(cls, rho, gamma1, gamma2) -> "OmegaSpec":
        return cls(kind="delage-ye", rho=as_decimal(rho),
                   gamma1=as_decimal(gamma1), gamma2=as_decimal(gamma2))

    @classmethod
    def support_interval(cls, rho, lower: Iterable, upper: Iterable,
                         form: str = "squares") -> "OmegaSpec":
        return cls(kind="support", rho=as_decimal(rho),
                   lower=tuple(as_decimal(v) for v in lower),
                   upper=tuple(as_decimal(v) for v in upper),
                   support_form=form)

    @classmethod
    def explicit(cls, omega) -> "OmegaSpec":
        return cls(kind="explicit", resolved_omega=as_decimal(omega))


def _truncate(value: Decimal, digits: int) -> Decimal:
    return value.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_DOWN)


def _check_rho(rho) -> None:
    """Reject rho outside [0.5, 1), exactly for Decimal, float or Fraction."""
    if not 0.5 <= rho < 1:
        raise ValueError(f"confidence level must lie in [0.5, 1), got {rho}")


def resolve_omega(spec: OmegaSpec, digits: int = OMEGA_DIGITS) -> OmegaSpec:
    """Resolve a distributional assumption into a positive safety factor.

    normal      omega = Phi^{-1}(rho)
    chebyshev   omega = sqrt(rho / (1 - rho))          (Cantelli bound)
    delage-ye   omega = sqrt(g1) + sqrt((g2-g1) rho/(1-rho))  if g1/g2 <= 1-rho
                omega = sqrt(g2 / (1 - rho))                  otherwise
    support     omega = sqrt(-ln(1 - rho) / 2), and the per-item dispersion
                coefficients are replaced by upper^2 - lower^2 (or, with
                ``support_form="hoeffding"``, by upper - lower)
    explicit    passes through unchanged

    Irrational results are truncated to ``digits`` fractional digits so the
    downstream exact-arithmetic machinery sees a finite decimal.
    """
    if spec.kind not in _OMEGA_KINDS:
        raise ValueError(f"unknown ambiguity kind {spec.kind!r}")

    if spec.kind == "explicit":
        if spec.resolved_omega is None or spec.resolved_omega <= 0:
            raise ValueError("explicit safety factor must be positive")
        return replace(spec, resolved_omega=spec.resolved_omega)

    if spec.rho is None:
        raise ValueError(f"{spec.kind} ambiguity requires a confidence level")
    _check_rho(spec.rho)
    rho = spec.rho
    sigmas = None

    with localcontext() as ctx:
        ctx.prec = EXACT_PREC
        if spec.kind == "normal":
            omega = Decimal(repr(inverse_normal_cdf(float(rho))))
        elif spec.kind == "chebyshev":
            omega = (rho / (1 - rho)).sqrt()
        elif spec.kind == "delage-ye":
            g1, g2 = spec.gamma1, spec.gamma2
            if g1 is None or g2 is None:
                raise ValueError("delage-ye ambiguity requires gamma1 and gamma2")
            if g1 < 0 or g2 < 1:
                raise ValueError("delage-ye requires gamma1 >= 0 and gamma2 >= 1")
            if g1 / g2 <= 1 - rho:
                if g2 < g1:
                    raise ValueError("delage-ye requires gamma2 >= gamma1")
                omega = g1.sqrt() + ((g2 - g1) * rho / (1 - rho)).sqrt()
            else:
                omega = (g2 / (1 - rho)).sqrt()
        else:  # support
            if spec.lower is None or spec.upper is None:
                raise ValueError("support ambiguity requires interval bounds")
            if len(spec.lower) != len(spec.upper):
                raise ValueError("support bounds must have equal length")
            for lo, hi in zip(spec.lower, spec.upper):
                if lo > hi:
                    raise ValueError(f"support interval [{lo}, {hi}] is empty")
            if spec.support_form not in ("squares", "hoeffding"):
                raise ValueError(f"unknown support form {spec.support_form!r}")
            omega = (-(1 - rho).ln() / 2).sqrt()
            if spec.support_form == "squares":
                sigmas = tuple(hi * hi - lo * lo
                               for lo, hi in zip(spec.lower, spec.upper))
            else:
                sigmas = tuple(hi - lo for lo, hi in zip(spec.lower, spec.upper))

    omega = _truncate(omega, digits)
    if omega <= 0:
        raise ValueError(
            f"resolved safety factor {omega} is not positive; "
            f"the model degenerates at rho = {rho}")
    return replace(spec, resolved_omega=omega, resolved_sigmas=sigmas)


def as_omega(omega) -> Decimal:
    """Normalize an omega argument (OmegaSpec, Decimal, str, number) to Decimal."""
    if isinstance(omega, OmegaSpec):
        if omega.resolved_omega is None:
            omega = resolve_omega(omega)
        value = omega.resolved_omega
    else:
        value = as_decimal(omega)
    if value <= 0 or not value.is_finite():
        raise ValueError(f"safety factor must be positive, got {value}")
    _check_coeff(value, "safety factor")
    return value


# ---------------------------------------------------------------------------
# Instance data
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SockpInstance:
    """Data of one SOC-constrained binary knapsack instance.

    Profits are nonnegative integers; means, dispersions and the capacity are
    nonnegative finite decimals.  ``omega`` optionally records the safety
    factor the instance was built for.  Instances are read-only after
    construction and safe for concurrent use.
    """

    profits: tuple[int, ...]
    means: tuple[Decimal, ...]
    sigmas: tuple[Decimal, ...]
    capacity: Decimal
    omega: Decimal | None = None
    _caches: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.profits = tuple(int(p) for p in self.profits)
        self.means = tuple(as_decimal(v) for v in self.means)
        self.sigmas = tuple(as_decimal(v) for v in self.sigmas)
        self.capacity = as_decimal(self.capacity)
        if self.omega is not None:
            self.omega = as_decimal(self.omega)
        n = len(self.profits)
        if len(self.means) != n or len(self.sigmas) != n:
            raise ValueError("profits, means and sigmas must have equal length")
        if any(p < 0 for p in self.profits):
            raise ValueError("profits must be nonnegative")
        if any(v < 0 or not v.is_finite() for v in self.means):
            raise ValueError("means must be nonnegative finite decimals")
        if any(v < 0 or not v.is_finite() for v in self.sigmas):
            raise ValueError("sigmas must be nonnegative finite decimals")
        if self.capacity < 0 or not self.capacity.is_finite():
            raise ValueError("capacity must be a nonnegative finite decimal")
        for v in self.means:
            _check_coeff(v, "mean")
        for v in self.sigmas:
            _check_coeff(v, "sigma")
        _check_coeff(self.capacity, "capacity")

    @property
    def n(self) -> int:
        return len(self.profits)

    def __eq__(self, other):
        if not isinstance(other, SockpInstance):
            return NotImplemented
        return (self.profits == other.profits
                and self.means == other.means
                and self.sigmas == other.sigmas
                and self.capacity == other.capacity
                and self.omega == other.omega)

    # -- cached numeric views ------------------------------------------------

    def float_views(self):
        """(means, sigmas^2, capacity) as float arrays/scalars."""
        views = self._caches.get("float")
        if views is None:
            means = np.array([float(v) for v in self.means])
            sig_sq = np.array([float(v) ** 2 for v in self.sigmas])
            views = (means, sig_sq, float(self.capacity))
            self._caches["float"] = views
        return views

    def integer_view(self):
        """Means and capacity scaled to integers by one power of ten.

        Returns (A, B, 10^da) with A_j = mean_j * 10^da and
        B = capacity * 10^da, where da is the largest number of fractional
        digits among the means and the capacity.
        """
        view = self._caches.get("integer")
        if view is None:
            da = max([_frac_digits(self.capacity)]
                     + [_frac_digits(v) for v in self.means])
            view = ([_scaled_int(v, da) for v in self.means],
                    _scaled_int(self.capacity, da), 10 ** da)
            self._caches["integer"] = view
        return view

    def exact_view(self, omega: Decimal):
        """Integer-scaled view used by the exact feasibility check.

        Returns (A, B, V, lhs_shift, rhs_shift) with A, B and 10^da from
        :meth:`integer_view` and V_j = (omega * sigma_j * 10^dt)^2, so that
        x is feasible iff  B - A.x >= 0  and
        (B - A.x)^2 * 10^(2dt) >= (sum_j V_j x_j) * 10^(2da).
        """
        key = ("exact", str(omega))
        view = self._caches.get(key)
        if view is None:
            with localcontext() as ctx:
                ctx.prec = EXACT_PREC
                terms = [omega * s for s in self.sigmas]
            dt = max([0] + [_frac_digits(t) for t in terms])
            a_ints, b_int, pow_da = self.integer_view()
            v_ints = [_scaled_int(t, dt) ** 2 for t in terms]
            view = (a_ints, b_int, v_ints, 10 ** (2 * dt), pow_da * pow_da)
            self._caches[key] = view
        return view


def _check_bits(x: Sequence[int], n: int) -> None:
    if len(x) != n:
        raise ValueError(f"selection vector has length {len(x)}, expected {n}")


def soc_lhs(x: Sequence[int], inst: SockpInstance, omega) -> float:
    """Left-hand side mean'x + omega * sqrt(sum sigma^2 x) as a float."""
    _check_bits(x, inst.n)
    omega_d = as_omega(omega)
    means, sig_sq, _ = inst.float_views()
    mask = np.asarray(x, dtype=bool)
    return float(means[mask].sum() + float(omega_d) * math.sqrt(sig_sq[mask].sum()))


def is_soc_feasible(x: Sequence[int], inst: SockpInstance, omega) -> bool:
    """Exact feasibility of a selection under the SOC capacity constraint.

    Evaluated as  cap - mean'x >= 0  and  (cap - mean'x)^2 >= omega^2 sum sigma^2 x
    on integer-scaled data, so no square root or float rounding is involved.
    """
    _check_bits(x, inst.n)
    omega_d = as_omega(omega)
    a_ints, b_int, v_ints, lhs_shift, rhs_shift = inst.exact_view(omega_d)
    lin = 0
    var = 0
    for j, bit in enumerate(x):
        if bit:
            lin += a_ints[j]
            var += v_ints[j]
    slack = b_int - lin
    if slack < 0:
        return False
    return slack * slack * lhs_shift >= var * rhs_shift


def apply_omega_spec(inst: SockpInstance, spec: OmegaSpec,
                     digits: int = OMEGA_DIGITS):
    """Resolve ``spec`` against ``inst``; returns (instance, omega Decimal).

    For support-interval ambiguity the instance's dispersion coefficients are
    replaced by the transformed ones, so the returned instance is the one the
    solver should run on.
    """
    resolved = resolve_omega(spec, digits=digits) if spec.resolved_omega is None else spec
    omega = resolved.resolved_omega
    if resolved.resolved_sigmas is not None:
        if len(resolved.resolved_sigmas) != inst.n:
            raise ValueError("support bounds do not match the instance size")
        inst = SockpInstance(profits=inst.profits, means=inst.means,
                             sigmas=resolved.resolved_sigmas,
                             capacity=inst.capacity, omega=omega)
    return inst, omega


# ---------------------------------------------------------------------------
# JSON serialization (decimals as strings to preserve the finite-decimal data)
# ---------------------------------------------------------------------------

def instance_to_json(inst: SockpInstance) -> str:
    doc = {
        "n": inst.n,
        "profits": list(inst.profits),
        "means": [str(v) for v in inst.means],
        "sigmas": [str(v) for v in inst.sigmas],
        "capacity": str(inst.capacity),
    }
    if inst.omega is not None:
        doc["omega"] = str(inst.omega)
    return json.dumps(doc, indent=2) + "\n"


def instance_from_json(text: str) -> SockpInstance:
    doc = json.loads(text)
    try:
        n = int(doc["n"])
        inst = SockpInstance(
            profits=tuple(int(p) for p in doc["profits"]),
            means=tuple(Decimal(v) for v in doc["means"]),
            sigmas=tuple(Decimal(v) for v in doc["sigmas"]),
            capacity=Decimal(doc["capacity"]),
            omega=Decimal(doc["omega"]) if "omega" in doc else None,
        )
    except KeyError as exc:
        raise ValueError(f"instance document is missing field {exc}") from None
    if inst.n != n:
        raise ValueError(f"declared n = {n} but {inst.n} items were given")
    return inst
