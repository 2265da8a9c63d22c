"""Pointwise bath math for a dephasing qubit in a squeezed thermal reservoir.

Units follow hbar = k_B = 1: temperatures, frequencies and inverse times are
all measured against the bath cutoff omega_c. Pure dephasing multiplies the
qubit coherence by exp(-gamma(T, t)) with

    gamma(T, t) = integral_0^inf J(w) (1 - cos(w t)) / w**2
                  * [cosh(2 r) - cos(theta - w t) sinh(2 r)]
                  * coth(w / (2 T)) dw

where J is the ohmic-family spectral density and (r, theta) parametrize the
mode-uniform squeezing of the reservoir. This module owns every pointwise
factor of that integrand, and `derivative_rule`, the one statement of how
gamma and its derivatives with respect to the estimable parameters (T, r,
theta) are integrated. The integrals, in closed form, live in `moments`.
`_PARAMETERS` names the record and field of each parameter, for
`parameter_value`, `shift_parameter` and the axes of a sweep.

All functions are pure and all parameter records are immutable value types,
so everything here is safe to call concurrently without synchronization.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace

__all__ = [
    "TWO_PI",
    "R_MAX",
    "COTH_SERIES_CUTOFF",
    "Estimand",
    "SpectralParams",
    "SqueezeParams",
    "BathPoint",
    "spectral_density",
    "derivative_rule",
    "squeeze_kernel",
    "thermal_factor",
    "thermal_factor_dT",
    "gamma_integrand",
    "parameter_value",
    "shift_parameter",
]

TWO_PI = 2.0 * math.pi

# the largest squeezing amplitude whose exp(2 r) is a finite float
R_MAX = 0.5 * math.log(sys.float_info.max)

# coth(x) switches to its small-argument expansion 1/x + x/3 below this x;
# keeps the w -> 0 pole of the thermal factor free of overflow and cancellation
COTH_SERIES_CUTOFF = 1e-4


class Estimand(enum.Enum):
    """Bath parameter with respect to which information is computed."""

    TEMPERATURE = "T"
    SQUEEZE_AMPLITUDE = "r"
    SQUEEZE_PHASE = "theta"


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SpectralParams:
    """Ohmic-family spectral density parameters.

    J(w) = w**s * omega_c**(1 - s) * exp(-w / omega_c); the dimensionless
    exponent s grades the reservoir as sub-ohmic (s < 1), ohmic (s = 1) or
    super-ohmic (s > 1).
    """

    s: float
    omega_c: float = 1.0

    def __post_init__(self) -> None:
        _check_finite("s", self.s)
        _check_finite("omega_c", self.omega_c)
        if not self.s > 0.0:
            raise ValueError(f"s must be > 0, got {self.s}")
        if not self.omega_c > 0.0:
            raise ValueError(f"omega_c must be > 0, got {self.omega_c}")

    @property
    def regime(self) -> str:
        if self.s < 1.0:
            return "sub-ohmic"
        if self.s == 1.0:
            return "ohmic"
        return "super-ohmic"


@dataclass(frozen=True)
class SqueezeParams:
    """Mode-uniform reservoir squeezing: amplitude 0 <= r <= R_MAX and phase theta.

    theta is stored reduced to [0, 2*pi); every derived quantity is exactly
    2*pi-periodic in it.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        _check_finite("r", self.r)
        _check_finite("theta", self.theta)
        if not self.r >= 0.0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if self.r > R_MAX:
            raise ValueError(f"r must be <= {R_MAX}, where exp(2 r) overflows, got {self.r}")
        reduced = self.theta % TWO_PI
        if reduced == TWO_PI:  # -tiny % 2*pi can round up to 2*pi itself
            reduced = 0.0
        object.__setattr__(self, "theta", reduced)


@dataclass(frozen=True)
class BathPoint:
    """Evaluation point (temperature, interaction time).

    temperature == 0 is legal and selects the coth -> 1 branch of the thermal
    factor exactly, keeping the ill-conditioned T -> 0 limit out of user space.
    """

    temperature: float
    time: float

    def __post_init__(self) -> None:
        _check_finite("temperature", self.temperature)
        _check_finite("time", self.time)
        if not self.temperature >= 0.0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if not self.time >= 0.0:
            raise ValueError(f"time must be >= 0, got {self.time}")


def spectral_density(omega: float, sp: SpectralParams) -> float:
    """J(w) = w**s * omega_c**(1 - s) * exp(-w / omega_c); exactly 0 at w = 0."""
    if omega < 0.0:
        raise ValueError(f"frequency must be >= 0, got {omega}")
    if omega == 0.0:
        return 0.0
    return omega**sp.s * sp.omega_c ** (1.0 - sp.s) * math.exp(-omega / sp.omega_c)


def derivative_rule(estimand: Estimand | None, r: float) -> tuple[bool, tuple[float, ...]]:
    """Thermal row flag and bracket weights (dT, (a, b, c)) of gamma or d gamma / d estimand.

    gamma (estimand None) and each derivative integrate J(w) E(w, t) / w**2
    times coth(w / 2T), or d coth / dT when dT is set, times
    a (1 + cos(theta - w t)) + b (1 - cos(theta - w t)) + c sin(theta - w t).
    d/dT changes only the thermal row; d/dr and d/dtheta only the weights.
    """
    shrink, grow = 0.5 * math.exp(-2.0 * r), 0.5 * math.exp(2.0 * r)
    if estimand is None or estimand is Estimand.TEMPERATURE:
        return estimand is not None, (shrink, grow, 0.0)
    if estimand is Estimand.SQUEEZE_AMPLITUDE:
        return False, (-2.0 * shrink, 2.0 * grow, 0.0)
    if estimand is Estimand.SQUEEZE_PHASE:
        return False, (0.0, 0.0, math.sinh(2.0 * r))
    raise ValueError(f"unknown estimand {estimand!r}")


def squeeze_kernel(omega: float, t: float, sq: SqueezeParams,
                   weights: tuple | None = None) -> float:
    """Squeezing bracket cosh(2 r) - cos(theta - w t) sinh(2 r), or the bracket
    with `derivative_rule` weights.

    gamma's weights mix exp(-2r) and exp(2r) non-negatively, so the bounds
    exp(-2r) <= kernel <= exp(2r) hold to roundoff instead of suffering the
    cosh - sinh cancellation.
    """
    a, b, c = derivative_rule(None, sq.r)[1] if weights is None else weights
    phase = sq.theta - omega * t
    cos_phase = math.cos(phase)
    return a * (1.0 + cos_phase) + b * (1.0 - cos_phase) + c * math.sin(phase)


def thermal_factor(omega: float, temperature: float) -> float:
    """coth(w / (2 T)) with the T = 0 limit pinned to exactly 1.

    Below COTH_SERIES_CUTOFF the argument is handled by the expansion
    2T/w + w/(6T); elsewhere expm1 keeps the evaluation cancellation-free.
    """
    if omega <= 0.0:
        raise ValueError(f"frequency must be > 0, got {omega}")
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return 1.0
    x = omega / (2.0 * temperature)
    if x < COTH_SERIES_CUTOFF:
        return 1.0 / x + x / 3.0
    if x > 350.0:  # coth - 1 ~ 2 exp(-2x) is below double resolution
        return 1.0
    return 1.0 + 2.0 / math.expm1(2.0 * x)


def thermal_factor_dT(omega: float, temperature: float) -> float:
    """d/dT coth(w / (2 T)) = (w / (2 T^2)) / sinh(w / (2 T))^2.

    Vanishes exponentially as T -> 0, so T = 0 returns the limit 0 exactly.
    """
    if omega <= 0.0:
        raise ValueError(f"frequency must be > 0, got {omega}")
    if temperature < 0.0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = omega / (2.0 * temperature)
    em = math.expm1(-2.0 * x)  # -(1 - exp(-2x)), exact for small x
    csch_sq = 4.0 * math.exp(-2.0 * x) / (em * em)
    return x * csch_sq / temperature


def gamma_integrand(
    omega: float, point: BathPoint, sq: SqueezeParams, sp: SpectralParams,
    estimand: Estimand | None = None,
) -> float:
    """Integrand of gamma, or of d gamma / d estimand, at frequency w > 0.

    (1 - cos(w t)) / w**2 is evaluated as 2 sin(w t / 2)**2 / w**2 to avoid
    cancellation at small w t; every factor of gamma's integrand is non-negative.
    """
    if omega <= 0.0:
        raise ValueError(f"frequency must be > 0, got {omega}")
    dT, weights = derivative_rule(estimand, sq.r)
    thermal = thermal_factor_dT if dT else thermal_factor
    half = math.sin(0.5 * omega * point.time)
    envelope = 2.0 * half * half / (omega * omega)
    return (
        spectral_density(omega, sp)
        * envelope
        * squeeze_kernel(omega, point.time, sq, weights)
        * thermal(omega, point.temperature)
    )


# the record, point (0) or squeezing (1), and field of each named parameter: the
# value of every Estimand and every sweep axis but alpha
_PARAMETERS = {"T": (0, "temperature"), "t": (0, "time"), "r": (1, "r"), "theta": (1, "theta")}


def _with_parameter(name: str, value: float, point: BathPoint,
                    sq: SqueezeParams) -> tuple[BathPoint, SqueezeParams]:
    """(point, sq) with the parameter `name` set to `value`, checked by its record."""
    records = [point, sq]
    record, field = _PARAMETERS[name]
    records[record] = replace(records[record], **{field: value})
    return tuple(records)


def parameter_value(estimand: Estimand, point: BathPoint, sq: SqueezeParams) -> float:
    """Current value of the estimated parameter."""
    record, field = _PARAMETERS[estimand.value]
    return getattr((point, sq)[record], field)


def shift_parameter(
    estimand: Estimand, delta: float, point: BathPoint, sq: SqueezeParams
) -> tuple[BathPoint, SqueezeParams]:
    """Shift the estimated parameter by delta through its record, which rejects a
    negative T or r and wraps theta modulo 2*pi."""
    return _with_parameter(estimand.value, parameter_value(estimand, point, sq) + delta,
                           point, sq)
