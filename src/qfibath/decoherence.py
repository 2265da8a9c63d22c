"""The decoherence exponent and its parameter derivatives at one point.

`gamma` and `gamma_partial` are one-pair `qfi_engine.qfi_table` calls, the same
checked evaluation `qfi_engine.qfi_point` makes: one pair on the moment engine,
summed in closed form by its two truncations, whose gap is `gamma`'s error
estimate. Each derivative is the integral of the integrand of
`spectral_bath.derivative_rule`; central finite differences are shipped as a
cross-validation oracle (`gamma_partial_fd`), not as a production path.

Pure functions over immutable inputs; concurrently callable. No caches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .moments import DEFAULT_QUADRATURE, ConvergenceError, MomentEngine, QuadratureConfig
from .probe_state import ProbeInit
from .qfi_engine import _shifted_gammas, qfi_table
from .spectral_bath import BathPoint, Estimand, SpectralParams, SqueezeParams

__all__ = [
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "GammaResult",
    "ConvergenceError",
    "gamma",
    "gamma_partial",
    "gamma_partial_fd",
]


@dataclass(frozen=True)
class GammaResult:
    """One evaluated decoherence exponent with the gap between the engine's two
    truncations as its error estimate."""

    value: float
    est_error: float

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValueError(f"decoherence exponent must be >= 0, got {self.value}")
        if not self.est_error >= 0.0:
            raise ValueError(f"error estimate must be >= 0, got {self.est_error}")


def gamma(
    point: BathPoint,
    sq: SqueezeParams,
    sp: SpectralParams,
    qc: QuadratureConfig = DEFAULT_QUADRATURE,
) -> GammaResult:
    """Decoherence exponent gamma(T, t) at one point.

    t = 0 is exactly 0 with a zero error estimate. Raises ConvergenceError where
    `qfi_engine.qfi_table` refuses the point.
    """
    (value,), _, _, (gap,) = qfi_table(
        MomentEngine(None, sp, qc), [point.temperature], [point.time], [(sq, ProbeInit())])
    return GammaResult(value=value, est_error=gap)


def gamma_partial(
    estimand: Estimand,
    point: BathPoint,
    sq: SqueezeParams,
    sp: SpectralParams,
    qc: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """d(gamma)/d(estimand) at one point, from the integrand of its `derivative_rule`.

    t = 0 returns 0 exactly (the integrand vanishes identically), as does the
    T-derivative at T = 0, whose thermal row is exactly 0 there.
    """
    _, (derivative,), _, _ = qfi_table(
        MomentEngine(estimand, sp, qc), [point.temperature], [point.time], [(sq, ProbeInit())])
    return derivative


def gamma_partial_fd(
    estimand: Estimand,
    point: BathPoint,
    sq: SqueezeParams,
    sp: SpectralParams,
    qc: QuadratureConfig = DEFAULT_QUADRATURE,
    h: float | None = None,
) -> float:
    """Central-difference oracle [gamma(eta + h) - gamma(eta - h)] / (2 h).

    Defaults to h = 1e-5 * max(1, |eta|). Both gammas are one table, eta + h first.
    Raises ValueError when eta - h leaves the parameter domain (T - h < 0, r - h < 0).
    """
    h, (upper, lower) = _shifted_gammas(estimand, point, sq, sp, qc, (1, -1), h)
    return (upper - lower) / (2.0 * h)
