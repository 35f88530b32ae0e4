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
from decimal import Decimal, InvalidOperation, ROUND_DOWN, localcontext
from statistics import NormalDist
from typing import Iterable, Sequence

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

# Number of decimal digits kept when truncating an irrational safety factor;
# finite decimals are required for the exact scaled-integer checks.
OMEGA_DIGITS = 6

# Working precision for exact decimal arithmetic (scaling, products).  The
# default context rounds at 28 digits, which would silently break exactness;
# coefficients are capped at MAX_COEFF_DIGITS so products always fit.
EXACT_PREC = 120
MAX_COEFF_DIGITS = 40
# Every finite decimal has an adjusted exponent in [-MAX_EXPONENT,
# MAX_EXPONENT], zeros such as 0E-5000 included.  So omega * sigma and the
# scaled integer view stay under about 3,100 digits: inside the exact
# context's exponent range and Python's int-string conversion limit.
MAX_EXPONENT = 1000

_OMEGA_KINDS = ("normal", "chebyshev", "delage-ye", "support", "explicit")


def as_decimal(value, label: str = "value") -> Decimal:
    """Coerce a number to Decimal. Floats go through repr() to keep them short.

    A finite value needs an adjusted exponent in [-``MAX_EXPONENT``,
    ``MAX_EXPONENT``]: a magnitude from 1E-1000 to below 1E+1001, or a zero
    whose exponent lies in that range.  Outside it, or for a string that is
    no decimal, the ValueError names ``label``.  NaN and infinities pass, for
    the caller to refuse as the field they are.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        value = repr(value)
    if isinstance(value, str):
        try:
            value = Decimal(value)
        except InvalidOperation:
            raise ValueError(f"{label} {value!r} is not a decimal") from None
    elif isinstance(value, int):
        value = Decimal(value)
    elif not isinstance(value, Decimal):
        raise TypeError(f"cannot interpret {value!r} as a decimal")
    if value.is_finite() and abs(value.adjusted()) > MAX_EXPONENT:
        raise ValueError(f"{label} has decimal exponent {value.adjusted()}; "
                         f"it must lie in [-{MAX_EXPONENT}, {MAX_EXPONENT}]")
    return value


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


def _ceil_half_isqrt(x: int) -> int:
    """The least m >= 0 with 4 m^2 >= x: ceil(sqrt(x) / 2), exactly."""
    return (math.isqrt(x - 1) + 2) // 2 if x > 0 else 0


# ---------------------------------------------------------------------------
# Inverse standard-normal CDF
# ---------------------------------------------------------------------------

def inverse_normal_cdf(p: float) -> float:
    """Quantile of the standard normal distribution for ``p`` in (0, 1).

    The standard library's Wichura AS241 routine, full double precision
    down to the far tails.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


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
    The decimal fields, support bounds included, go through
    :func:`as_decimal` on construction, so they take floats, strings and
    ints, and a malformed one raises ``ValueError`` naming the field.
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

    def __post_init__(self):
        for name, label in (("rho", "confidence level"), ("gamma1", "gamma1"),
                            ("gamma2", "gamma2"), ("resolved_omega", "omega")):
            if getattr(self, name) is not None:
                setattr(self, name, as_decimal(getattr(self, name), label))
        for name in ("lower", "upper"):
            if getattr(self, name) is not None:
                setattr(self, name, tuple(as_decimal(v, "a support bound")
                                          for v in getattr(self, name)))

    @classmethod
    def normal(cls, rho) -> "OmegaSpec":
        return cls(kind="normal", rho=rho)

    @classmethod
    def chebyshev(cls, rho) -> "OmegaSpec":
        return cls(kind="chebyshev", rho=rho)

    @classmethod
    def delage_ye(cls, rho, gamma1, gamma2) -> "OmegaSpec":
        return cls(kind="delage-ye", rho=rho, gamma1=gamma1, gamma2=gamma2)

    @classmethod
    def support_interval(cls, rho, lower: Iterable, upper: Iterable,
                         form: str = "squares") -> "OmegaSpec":
        return cls(kind="support", rho=rho, lower=lower, upper=upper,
                   support_form=form)

    @classmethod
    def explicit(cls, omega) -> "OmegaSpec":
        return cls(kind="explicit", resolved_omega=omega)


def _check_rho(rho) -> None:
    """Reject rho outside [0.5, 1) and NaN, exactly for Decimal, float or
    Fraction."""
    if (isinstance(rho, Decimal) and rho.is_nan()) or not 0.5 <= rho < 1:
        raise ValueError(f"confidence level must lie in [0.5, 1), got {rho}")


def resolve_omega(spec: OmegaSpec) -> OmegaSpec:
    """Resolve a distributional assumption into a positive safety factor.

    normal      omega = Phi^{-1}(rho)
    chebyshev   omega = sqrt(rho / (1 - rho))          (Cantelli bound)
    delage-ye   omega = sqrt(g1) + sqrt((g2-g1) rho/(1-rho))  if g1/g2 <= 1-rho
                omega = sqrt(g2 / (1 - rho))                  otherwise
    support     omega = sqrt(-ln(1 - rho) / 2), and the per-item dispersion
                coefficients are replaced by upper^2 - lower^2 (or, with
                ``support_form="hoeffding"``, by upper - lower)
    explicit    passes through unchanged

    Irrational results are truncated to ``OMEGA_DIGITS`` fractional digits so
    the downstream exact-arithmetic machinery sees a finite decimal.
    """
    if spec.kind not in _OMEGA_KINDS:
        raise ValueError(f"unknown ambiguity kind {spec.kind!r}")

    if spec.kind == "explicit":
        if spec.resolved_omega is None:
            raise ValueError("explicit safety factor must be positive")
        return replace(spec, resolved_omega=as_omega(spec.resolved_omega))

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
            if not (g1.is_finite() and g2.is_finite()) or g1 < 0 or g2 < 1:
                raise ValueError("delage-ye requires finite gamma1 >= 0 and "
                                 "gamma2 >= 1")
            if g1 / g2 <= 1 - rho:
                omega = g1.sqrt() + ((g2 - g1) * rho / (1 - rho)).sqrt()
            else:
                omega = (g2 / (1 - rho)).sqrt()
        else:  # support
            if spec.lower is None or spec.upper is None:
                raise ValueError("support ambiguity requires interval bounds")
            if len(spec.lower) != len(spec.upper):
                raise ValueError("support bounds must have equal length")
            if not all(v.is_finite() for v in spec.lower + spec.upper):
                raise ValueError("support bounds must be finite")
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

    omega = omega.quantize(Decimal(1).scaleb(-OMEGA_DIGITS), rounding=ROUND_DOWN)
    if omega <= 0:
        raise ValueError(
            f"resolved safety factor {omega} is not positive; "
            f"the model degenerates at rho = {rho}")
    return replace(spec, resolved_omega=omega, resolved_sigmas=sigmas)


def as_omega(omega) -> Decimal:
    """Normalize an omega argument (OmegaSpec, Decimal, str, number) to Decimal.

    A support-interval spec also replaces the dispersions, so it is refused.
    """
    if isinstance(omega, OmegaSpec):
        if omega.kind == "support":
            raise ValueError("a support-interval spec replaces the "
                             "dispersions: solve what apply_omega_spec returns")
        if omega.resolved_omega is None:
            omega = resolve_omega(omega)
        value = omega.resolved_omega
    else:
        value = as_decimal(omega, "omega")
    if not value.is_finite() or value <= 0:
        raise ValueError(f"safety factor omega must be positive and finite, "
                         f"got {value}")
    _check_coeff(value, "safety factor")
    return value


# ---------------------------------------------------------------------------
# Instance data
# ---------------------------------------------------------------------------

@dataclass
class SockpInstance:
    """Data of one SOC-constrained binary knapsack instance.

    Profits are nonnegative integers; means, dispersions and the capacity are
    nonnegative finite decimals.  Each has at most ``MAX_COEFF_DIGITS``
    significant digits, and each decimal (``omega`` too) an adjusted
    exponent in [-``MAX_EXPONENT``, ``MAX_EXPONENT``], that is [-1000, 1000],
    zeros included.  ``omega`` optionally records the safety
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
        self.means = tuple(as_decimal(v, "a mean") for v in self.means)
        self.sigmas = tuple(as_decimal(v, "a sigma") for v in self.sigmas)
        self.capacity = as_decimal(self.capacity, "capacity")
        if self.omega is not None:
            self.omega = as_decimal(self.omega, "omega")
        n = len(self.profits)
        if len(self.means) != n or len(self.sigmas) != n:
            raise ValueError("profits, means and sigmas must have equal length")
        if any(p < 0 for p in self.profits):
            raise ValueError("profits must be nonnegative")
        if any(not v.is_finite() or v < 0 for v in self.means):
            raise ValueError("means must be nonnegative finite decimals")
        if any(not v.is_finite() or v < 0 for v in self.sigmas):
            raise ValueError("sigmas must be nonnegative finite decimals")
        if not self.capacity.is_finite() or self.capacity < 0:
            raise ValueError("capacity must be a nonnegative finite decimal")
        for p in self.profits:
            _check_coeff(Decimal(p), "profit")
        for v in self.means:
            _check_coeff(v, "mean")
        for v in self.sigmas:
            _check_coeff(v, "sigma")
        _check_coeff(self.capacity, "capacity")

    @property
    def n(self) -> int:
        return len(self.profits)

    # -- cached exact view ---------------------------------------------------

    def exact_view(self, omega: Decimal):
        """The instance's data as integers over one power of ten.

        Returns (A, B, W, scale) with A_j = mean_j * scale,
        B = capacity * scale and W_j = omega * sigma_j * scale, where scale
        is the least power of ten that makes all of them integers.  x is
        feasible iff  B - A.x >= 0  and  (B - A.x)^2 >= sum_j W_j^2 x_j.
        """
        key = ("exact", str(omega))
        view = self._caches.get(key)
        if view is None:
            with localcontext() as ctx:
                ctx.prec = EXACT_PREC
                terms = [omega * s for s in self.sigmas]
            digits = max(_frac_digits(v)
                         for v in (self.capacity, *self.means, *terms))
            view = ([_scaled_int(v, digits) for v in self.means],
                    _scaled_int(self.capacity, digits),
                    [_scaled_int(t, digits) for t in terms], 10 ** digits)
            self._caches[key] = view
        return view


def _check_bits(x: Sequence[int], n: int) -> None:
    if len(x) != n:
        raise ValueError(f"selection vector has length {len(x)}, expected {n}")


def soc_lhs(x: Sequence[int], inst: SockpInstance, omega) -> float:
    """Left-hand side mean'x + omega * sqrt(sum sigma^2 x) as a float."""
    _check_bits(x, inst.n)
    omega_d = as_omega(omega)
    chosen = [j for j, bit in enumerate(x) if bit]
    lin = sum(float(inst.means[j]) for j in chosen)
    var = sum(float(inst.sigmas[j]) ** 2 for j in chosen)
    return lin + float(omega_d) * math.sqrt(var)


def is_soc_feasible(x: Sequence[int], inst: SockpInstance, omega) -> bool:
    """Exact feasibility of a selection under the SOC capacity constraint.

    Evaluated as  cap - mean'x >= 0  and  (cap - mean'x)^2 >= omega^2 sum sigma^2 x
    on integer-scaled data, so no square root or float rounding is involved.
    """
    _check_bits(x, inst.n)
    omega_d = as_omega(omega)
    a_ints, b_int, w_ints, _ = inst.exact_view(omega_d)
    lin = 0
    var = 0
    for j, bit in enumerate(x):
        if bit:
            lin += a_ints[j]
            var += w_ints[j] * w_ints[j]
    slack = b_int - lin
    return slack >= 0 and slack * slack >= var


def apply_omega_spec(inst: SockpInstance, spec: OmegaSpec):
    """Resolve ``spec`` against ``inst``; returns (instance, omega Decimal).

    An unresolved ``spec`` goes through :func:`resolve_omega` (so an
    irrational factor is truncated to ``OMEGA_DIGITS`` digits).
    For support-interval ambiguity the instance's dispersion coefficients are
    replaced by the transformed ones, so the returned instance is the one the
    solver should run on.
    """
    resolved = resolve_omega(spec) if spec.resolved_omega is None else spec
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


class _JsonInt(str):
    """The digits of a JSON integer, kept as text: converting them waits for
    the field's digit check, and so Python's int-string limit never meets
    them.  It prints as the integer it spells."""

    __repr__ = str.__str__


def _json_int(value, label: str) -> int:
    if not isinstance(value, _JsonInt):
        raise ValueError(f"{label} must be a JSON integer, got {value!r}")
    if len(value.lstrip("-")) > MAX_COEFF_DIGITS:
        raise ValueError(f"{label} has more than {MAX_COEFF_DIGITS} digits")
    return int(value)


def _json_decimal(value, label: str) -> Decimal:
    """A decimal from a JSON string or integer.  A JSON float may already
    have lost digits and a boolean is no number, so both are refused."""
    if not isinstance(value, str):
        raise ValueError(f"{label} must be a JSON string or integer, "
                         f"got {value!r}")
    return as_decimal(value, label)


def _json_list(doc: dict, key: str) -> list:
    value = doc[key]
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON list, got {value!r}")
    return value


def instance_from_json(text: str) -> SockpInstance:
    try:
        doc = json.loads(text, parse_int=_JsonInt)
    except RecursionError:
        raise ValueError("instance document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("instance document is not a JSON object")
    try:
        n = _json_int(doc["n"], "n")
        inst = SockpInstance(
            profits=tuple(_json_int(p, "a profit")
                          for p in _json_list(doc, "profits")),
            means=tuple(_json_decimal(v, "a mean")
                        for v in _json_list(doc, "means")),
            sigmas=tuple(_json_decimal(v, "a sigma")
                         for v in _json_list(doc, "sigmas")),
            capacity=_json_decimal(doc["capacity"], "capacity"),
            omega=(_json_decimal(doc["omega"], "omega") if "omega" in doc
                   else None),
        )
    except KeyError as exc:
        raise ValueError(f"instance document is missing field {exc}") from None
    if inst.n != n:
        raise ValueError(f"declared n = {n} but {inst.n} items were given")
    return inst
