"""Adaptive QUADPACK quadrature of gamma and its partials: the engine's independent reference.

The integrand from `spectral_bath` is integrated over [0, W] with
W = omega_max_factor * omega_c * max(1, s); the exp(-w / omega_c) roll-off of
the spectral density puts the truncation error of that cutoff far below the
default tolerances for s <= 3. The interval is split at omega_c / 100 so the
boundary panel, where sub-ohmic integrands at T > 0 ramp like w**(s - 1),
gets its own refinement budget instead of stalling the outer subdivision.
Each panel goes through the QUADPACK adaptive Gauss-Kronrod integrator
(scipy.integrate.quad) with at most MAX_SUBDIVISIONS subdivisions.

This path shares only the pointwise integrand with the package's moment
engine, so tests compare the two. It is wrong by up to 3e-4 relative, or
raises ConvergenceError, at some sub-ohmic points with s below about 0.08;
use it at s >= 0.3.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from qfibath.decoherence import GammaResult
from qfibath.moments import DEFAULT_QUADRATURE, ConvergenceError, QuadratureConfig
from qfibath.spectral_bath import (
    BathPoint,
    Estimand,
    SpectralParams,
    SqueezeParams,
    gamma_integrand,
)

# QUADPACK's subdivision budget per panel
MAX_SUBDIVISIONS = 200


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
            limit=MAX_SUBDIVISIONS,
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
            f"{MAX_SUBDIVISIONS} subdivisions: partial value {total!r}, "
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
