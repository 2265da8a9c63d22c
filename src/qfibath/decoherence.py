"""The decoherence exponent and its parameter derivatives at one point.

`gamma` and `gamma_partial` are single-point evaluations on the moment engine
(`moments.point_exponents`), the same evaluation `qfi_engine.qfi_point` makes:
a 1 x 1 batch on the base rule pair, and where that pair disagrees, on the
refined rule. Each derivative integrates the integrand of
`spectral_bath.derivative_rule`; central finite differences are shipped as a
cross-validation oracle (`gamma_partial_fd`), not as a production path.

Pure functions over immutable inputs; concurrently callable. No caches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .moments import DEFAULT_QUADRATURE, ConvergenceError, QuadratureConfig, point_exponents
from .spectral_bath import (
    BathPoint,
    Estimand,
    SpectralParams,
    SqueezeParams,
    parameter_value,
    shift_parameter,
)

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
    """One evaluated decoherence exponent with its quadrature diagnostics: the
    rule pair's gap as the error estimate, and its node count as evaluations."""

    value: float
    est_error: float
    evaluations: int

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

    t = 0 is exactly 0 with no integrand calls, and T = 0 needs none either:
    its gamma is all vacuum part, in closed form. Raises ConvergenceError when
    the refined rule pair disagrees above tolerance or the rule would exceed
    the node budget.
    """
    value, _, est_error, evaluations = point_exponents(None, point, sq, sp, qc)
    return GammaResult(value=value, est_error=est_error, evaluations=evaluations)


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
    return point_exponents(estimand, point, sq, sp, qc)[1]


def gamma_partial_fd(
    estimand: Estimand,
    point: BathPoint,
    sq: SqueezeParams,
    sp: SpectralParams,
    qc: QuadratureConfig = DEFAULT_QUADRATURE,
    h: float | None = None,
) -> float:
    """Central-difference oracle [gamma(eta + h) - gamma(eta - h)] / (2 h).

    Defaults to h = 1e-5 * max(1, |eta|). Raises ValueError when eta - h
    leaves the parameter domain (T - h < 0, r - h < 0).
    """
    eta = parameter_value(estimand, point, sq)
    if h is None:
        h = 1e-5 * max(1.0, abs(eta))
    if not h > 0.0:
        raise ValueError(f"finite-difference step must be > 0, got {h}")
    point_minus, sq_minus = shift_parameter(estimand, -h, point, sq)
    point_plus, sq_plus = shift_parameter(estimand, +h, point, sq)
    upper = gamma(point_plus, sq_plus, sp, qc).value
    lower = gamma(point_minus, sq_minus, sp, qc).value
    return (upper - lower) / (2.0 * h)
