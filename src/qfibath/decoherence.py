"""Adaptive quadrature of the decoherence exponent and its derivatives.

The moment engine (`moments`) computes every runtime number; this path is its
fallback, for points where its rule pair disagrees, and its oracle.

The integrand from `spectral_bath` is integrated over [0, W] with
W = omega_max_factor * omega_c * max(1, s); the exp(-w / omega_c) roll-off of
the spectral density puts the truncation error of that cutoff far below the
default tolerances for s <= 3. The interval is split at omega_c / 100 so the
boundary panel, where sub-ohmic integrands at T > 0 ramp like w**(s - 1),
gets its own refinement budget instead of stalling the outer subdivision.
Each panel goes through the QUADPACK adaptive Gauss-Kronrod integrator
(scipy.integrate.quad), which is imported on the first integral, so a run
that never falls back never loads SciPy.

Parameter derivatives integrate the integrand of `spectral_bath.derivative_rule`;
central finite differences are shipped as a cross-validation oracle
(`gamma_partial_fd`), not as a production path.

Pure functions over immutable inputs; concurrently callable. No caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spectral_bath import (
    BathPoint,
    Estimand,
    SpectralParams,
    SqueezeParams,
    gamma_integrand,
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
class QuadratureConfig:
    """Adaptive-quadrature knobs shared by every integral in the package."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    omega_max_factor: float = 50.0

    def __post_init__(self) -> None:
        # an infinite tolerance accepts any quadrature; an infinite limit breaks the rule layout
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(f"max_subdivisions must be >= 1, got {self.max_subdivisions}")
        if not 10.0 <= self.omega_max_factor < math.inf:
            raise ValueError(
                f"omega_max_factor must be finite and >= 10, got {self.omega_max_factor}"
            )


DEFAULT_QUADRATURE = QuadratureConfig()


class ConvergenceError(RuntimeError):
    """Quadrature exhausted its subdivision budget above tolerance.

    Carries the partial result so callers can see how far off it ended up.
    """

    def __init__(self, message: str, value: float, est_error: float, evaluations: int):
        super().__init__(message)
        self.value = value
        self.est_error = est_error
        self.evaluations = evaluations


@dataclass(frozen=True)
class GammaResult:
    """One evaluated decoherence exponent with its quadrature diagnostics."""

    value: float
    est_error: float
    evaluations: int

    def __post_init__(self) -> None:
        if not self.value >= 0.0:
            raise ValueError(f"decoherence exponent must be >= 0, got {self.value}")
        if not self.est_error >= 0.0:
            raise ValueError(f"error estimate must be >= 0, got {self.est_error}")


def _upper_limit(sp: SpectralParams, qc: QuadratureConfig) -> float:
    return qc.omega_max_factor * sp.omega_c * max(1.0, sp.s)


def _integrate(f, sp: SpectralParams, qc: QuadratureConfig) -> tuple[float, float, int]:
    """Integrate f over [0, W], splitting off the boundary panel [0, omega_c/100].

    A QUADPACK warning fails the integral only when its panel misses the
    tolerance that panel was asked for and the summed error misses the
    tolerance of the total. The panels of a sign-changing integrand can
    cancel, so a total smaller than its panels must not fail panels that met
    their own request.
    """
    # SciPy loads here, on the first fallback, not with the package
    from scipy.integrate import quad

    split = sp.omega_c / 100.0
    total = 0.0
    est_error = 0.0
    evaluations = 0
    notes: list[str] = []
    for lo, hi in ((0.0, split), (split, _upper_limit(sp, qc))):
        out = quad(
            f,
            lo,
            hi,
            epsabs=0.5 * qc.abs_tol,
            epsrel=qc.rel_tol,
            limit=qc.max_subdivisions,
            full_output=1,
        )
        total += out[0]
        est_error += out[1]
        evaluations += out[2]["neval"]
        if len(out) > 3 and out[1] > max(0.5 * qc.abs_tol, qc.rel_tol * abs(out[0])):
            notes.append(f"[{lo:g}, {hi:g}]: " + str(out[3]).replace("\n", " "))
    tolerance = max(qc.abs_tol, qc.rel_tol * abs(total))
    if not math.isfinite(total) or (notes and est_error > tolerance):
        raise ConvergenceError(
            "quadrature did not converge within "
            f"{qc.max_subdivisions} subdivisions: partial value {total!r}, "
            f"error estimate {est_error:.3e} above tolerance {tolerance:.3e} "
            f"({'; '.join(notes) or 'non-finite result'})",
            value=total,
            est_error=est_error,
            evaluations=evaluations,
        )
    return total, est_error, evaluations


def gamma(
    point: BathPoint,
    sq: SqueezeParams,
    sp: SpectralParams,
    qc: QuadratureConfig = DEFAULT_QUADRATURE,
) -> GammaResult:
    """Decoherence exponent gamma(T, t) by adaptive quadrature.

    t = 0 short-circuits to exactly 0 with no integrand calls. Raises
    ConvergenceError when the subdivision budget runs out above tolerance.
    """
    if point.time == 0.0:
        return GammaResult(value=0.0, est_error=0.0, evaluations=0)

    def integrand(omega: float) -> float:
        return gamma_integrand(omega, point, sq, sp)

    value, est_error, evaluations = _integrate(integrand, sp, qc)
    # the integrand is non-negative; extrapolation can undershoot 0 by roundoff
    return GammaResult(value=max(0.0, value), est_error=est_error, evaluations=evaluations)


def gamma_partial(
    estimand: Estimand,
    point: BathPoint,
    sq: SqueezeParams,
    sp: SpectralParams,
    qc: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """d(gamma)/d(estimand) by quadrature of the integrand of its `derivative_rule`.

    t = 0 returns 0 exactly (the integrand vanishes identically), as does the
    T-derivative at T = 0, whose integrand dies off exponentially.
    """
    if point.time == 0.0:
        return 0.0
    if estimand is Estimand.TEMPERATURE and point.temperature == 0.0:
        return 0.0

    def integrand(omega: float) -> float:
        return gamma_integrand(omega, point, sq, sp, estimand)

    value, _, _ = _integrate(integrand, sp, qc)
    return value


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
