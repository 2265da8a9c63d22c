"""Two routes to the quantum Fisher information of the dephasing probe.

The production route evaluates the closed form

    I = sin(alpha)^2 * (d gamma / d eta)^2 / (exp(2 gamma) - 1)

with the analytic parameter derivative of the decay exponent: `qfi_point`
evaluates both for one point on the moment engine (`moments.point_exponents`,
on the refined rule where the base rule pair disagrees), `qfi_sample` takes
them from any caller that has them, such as a batch on that engine.
The oracle route (`qfi_spectral`) differentiates the spectral decomposition
of the density matrix by gauge-fixed central differences and sums the
general two-term formula

    I = sum_i (d lambda_i)^2 / lambda_i
        + 2 sum_{i != j} (lambda_i - lambda_j)^2 / (lambda_i + lambda_j)
              |<phi_i | d phi_j>|^2

whose first term is the classical Fisher information of the eigenvalue
distribution and whose second term carries the eigenvector sensitivity.
Both routes fill the same QfiSample record, so they can be compared term by
term; at alpha = pi/2 the eigenvectors freeze and the second term vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoherence import gamma
from .moments import DEFAULT_QUADRATURE, QuadratureConfig, point_exponents
from .probe_state import ProbeInit, eigensystem, reduced_dm
from .spectral_bath import (
    BathPoint,
    Estimand,
    SpectralParams,
    SqueezeParams,
    parameter_value,
    shift_parameter,
)

__all__ = [
    "Estimand",
    "QfiSample",
    "DegenerateInputError",
    "qfi_closed_form",
    "qfi_sample",
    "qfi_spectral",
    "qfi_point",
]

# below GAMMA_FLOOR the exponent is treated as the t -> 0 limit; a derivative
# above DGAMMA_FLOOR there cannot come from a consistent caller
GAMMA_FLOOR = 1e-12
DGAMMA_FLOOR = 1e-9

# eigenvalue pairs (and single eigenvalues in the classical term) below this
# weight are dropped from the spectral formula
EIGENVALUE_FLOOR = 1e-12


class DegenerateInputError(ValueError):
    """gamma ~ 0 together with a non-vanishing derivative: inconsistent inputs."""


@dataclass(frozen=True)
class QfiSample:
    """One evaluated information record: inputs, exponent, derivative, QFI split."""

    point: BathPoint
    sq: SqueezeParams
    sp: SpectralParams
    init: ProbeInit
    estimand: Estimand
    gamma: float
    dgamma: float
    qfi: float
    cfi_term: float
    quantum_term: float

    def __post_init__(self) -> None:
        if not self.gamma >= 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        for name in ("qfi", "cfi_term", "quantum_term"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")


def qfi_closed_form(init: ProbeInit, gamma_value: float, dgamma: float) -> float:
    """sin(alpha)^2 * dgamma^2 / (exp(2 gamma) - 1), with the t -> 0 limit pinned to 0.

    The denominator goes through expm1 so small exponents keep full precision.
    Raises DegenerateInputError when gamma ~ 0 while dgamma is not, which no
    consistent evaluation can produce (both vanish like t^2).
    """
    if not gamma_value >= 0.0:
        raise ValueError(f"decoherence exponent must be >= 0, got {gamma_value}")
    if gamma_value < GAMMA_FLOOR:
        if abs(dgamma) < DGAMMA_FLOOR:
            return 0.0
        raise DegenerateInputError(
            f"gamma = {gamma_value!r} is at the t -> 0 limit but dgamma = {dgamma!r} is not"
        )
    if gamma_value > 350.0:  # exp(2 gamma) overflows; the coherence is long gone
        return 0.0
    sin_a = math.sin(init.alpha)
    return sin_a * sin_a * dgamma * dgamma / math.expm1(2.0 * gamma_value)


def _closed_form_split(alpha: float, gamma_value: float, qfi: float) -> tuple[float, float]:
    """Split the closed-form QFI into its classical and eigenvector parts.

    The classical fraction is exp(-2g) / (cos^2 a + exp(-2g) sin^2 a); the
    remainder sits in the eigenvector term. At alpha = pi/2 the split is
    exactly (qfi, 0).
    """
    cos_a = math.cos(alpha)
    if abs(cos_a) < 1e-12:
        return qfi, 0.0
    damping_sq = math.exp(-2.0 * gamma_value)
    cos_sq = cos_a * cos_a
    bloch_sq = cos_sq + damping_sq * (1.0 - cos_sq)
    cfi = qfi * damping_sq / bloch_sq
    quantum = qfi * cos_sq * (1.0 - damping_sq) / bloch_sq
    return cfi, quantum


def _check_estimable(estimand: Estimand, point: BathPoint) -> None:
    if estimand is Estimand.TEMPERATURE and not point.temperature > 0.0:
        raise ValueError(f"temperature must be > 0 when estimating T, got {point.temperature}")


def qfi_sample(
    estimand: Estimand,
    point: BathPoint,
    sq: SqueezeParams,
    sp: SpectralParams,
    init: ProbeInit,
    gamma_value: float,
    dgamma: float,
) -> QfiSample:
    """Closed-form QFI record from an evaluated exponent and its derivative."""
    _check_estimable(estimand, point)
    qfi = qfi_closed_form(init, gamma_value, dgamma)
    cfi, quantum = _closed_form_split(init.alpha, gamma_value, qfi)
    return QfiSample(
        point=point,
        sq=sq,
        sp=sp,
        init=init,
        estimand=estimand,
        gamma=gamma_value,
        dgamma=dgamma,
        qfi=qfi,
        cfi_term=cfi,
        quantum_term=quantum,
    )


def qfi_point(
    estimand: Estimand,
    point: BathPoint,
    sq: SqueezeParams,
    sp: SpectralParams,
    init: ProbeInit = ProbeInit(),
    qc: QuadratureConfig = DEFAULT_QUADRATURE,
) -> QfiSample:
    """Production path for one point: `moments.point_exponents`, then the closed form."""
    _check_estimable(estimand, point)
    gamma_value, dgamma, _, _ = point_exponents(estimand, point, sq, sp, qc)
    return qfi_sample(estimand, point, sq, sp, init, gamma_value, dgamma)


def qfi_spectral(
    estimand: Estimand,
    point: BathPoint,
    sq: SqueezeParams,
    sp: SpectralParams,
    init: ProbeInit = ProbeInit(),
    qc: QuadratureConfig = DEFAULT_QUADRATURE,
    fd_step: float | None = None,
) -> QfiSample:
    """Oracle path: gauge-fixed central differences through the eigensystem.

    Evaluates the state at eta - h, eta, eta + h (default
    h = 1e-5 * max(1, |eta|)), differentiates eigenvalues and eigenvectors,
    and sums both terms of the spectral formula. The shared phase convention
    of `eigensystem` keeps spurious gauge derivatives out of the second term.
    """
    eta = parameter_value(estimand, point, sq)
    h = 1e-5 * max(1.0, abs(eta)) if fd_step is None else float(fd_step)
    if not h > 0.0:
        raise ValueError(f"finite-difference step must be > 0, got {h}")

    exponents: list[float] = []
    systems = []
    for delta in (-h, 0.0, h):
        shifted_point, shifted_sq = shift_parameter(estimand, delta, point, sq)
        gamma_value = gamma(shifted_point, shifted_sq, sp, qc).value
        exponents.append(gamma_value)
        systems.append(eigensystem(reduced_dm(init, gamma_value), init, gamma_value))
    below, center, above = systems

    lambdas = (center.lambda_plus, center.lambda_minus)
    vectors = (center.vec_plus, center.vec_minus)
    dlambdas = (
        (above.lambda_plus - below.lambda_plus) / (2.0 * h),
        (above.lambda_minus - below.lambda_minus) / (2.0 * h),
    )
    dvectors = (
        (above.vec_plus - below.vec_plus) / (2.0 * h),
        (above.vec_minus - below.vec_minus) / (2.0 * h),
    )

    cfi = sum(
        dlam * dlam / lam for lam, dlam in zip(lambdas, dlambdas) if lam > EIGENVALUE_FLOOR
    )
    quantum = 0.0
    for i in range(2):
        for j in range(2):
            if i == j:
                continue
            weight = lambdas[i] + lambdas[j]
            if weight < EIGENVALUE_FLOOR:
                continue
            gap = lambdas[i] - lambdas[j]
            overlap_sq = abs(np.vdot(vectors[i], dvectors[j])) ** 2
            quantum += 2.0 * gap * gap / weight * overlap_sq

    return QfiSample(
        point=point,
        sq=sq,
        sp=sp,
        init=init,
        estimand=estimand,
        gamma=exponents[1],
        dgamma=(exponents[2] - exponents[0]) / (2.0 * h),
        qfi=cfi + quantum,
        cfi_term=cfi,
        quantum_term=quantum,
    )
