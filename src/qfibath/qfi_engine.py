"""Two routes to the quantum Fisher information of the dephasing probe.

The production route evaluates the closed form

    I = sin(alpha)^2 * (d gamma / d eta)^2 / (exp(2 gamma) - 1)

with the analytic parameter derivative of the decay exponent. One array function
(`_closed_form`) holds the expression for every cell, and one pass (`qfi_table`)
takes k (squeezing, probe) settings over n (T, t) pairs from the moment engine
to the gamma, d gamma, qfi and truncation gap of their k x n cells, setting
outer and pair inner, and raises at the first failing cell, found by one mask:
points (`qfi_point`, and `decoherence.gamma` and `gamma_partial`, one-pair
tables), sweeps, grids, search rounds and the oracles' shifted exponents all go
through it. `qfi_closed_form` is the expression on one cell's given exponents.
The oracle route (`qfi_spectral`) differentiates the spectral decomposition
of the density matrix at eta - h, eta and eta + h, whose exponents are one
`qfi_table` call (`_shifted_gammas`, which `decoherence.gamma_partial_fd`
shares), by gauge-fixed central differences and sums the general two-term formula

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
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .moments import (
    _NON_FINITE,
    DEFAULT_QUADRATURE,
    ConvergenceError,
    MomentEngine,
    QuadratureConfig,
)
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
    "qfi_table",
    "qfi_spectral",
    "qfi_point",
]

# eigenvalue pairs (and single eigenvalues in the classical term) below this
# weight are dropped from the spectral formula
EIGENVALUE_FLOOR = 1e-12


class DegenerateInputError(ValueError):
    """gamma = 0 together with a non-vanishing derivative: inconsistent inputs."""


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
    """sin(alpha)^2 * dgamma^2 / (exp(2 gamma) - 1) at given exponents: one cell of
    `_closed_form`. Raises ValueError where gamma is negative or nan, DegenerateInputError
    where it is 0 while dgamma is a normal number."""
    gammas, dgammas = np.array([[gamma_value], [dgamma]], dtype=float)
    (qfi,), (invalid,) = _closed_form(np.array([math.sin(init.alpha)]), gammas, dgammas)
    if invalid:
        raise _invalid(gamma_value, dgamma)
    return qfi.item()


def _closed_form(sines: np.ndarray, gammas: np.ndarray,
                 dgammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The qfi of every cell, given sin(alpha), gamma and d gamma per cell, and the mask of
    the cells whose exponents are invalid: the one copy of the expression.

    The denominator goes through `math.expm1` (NumPy's differs in the last bit), so small
    exponents keep full precision; at small t, dgamma / gamma grows like sinh(2 r), and so
    does the qfi. Above gamma = 350, where exp(2 gamma) overflows, it is taken as
    (dgamma exp(-gamma))^2 / -expm1(-2 gamma). A cell is invalid where gamma is negative
    or nan, or 0 while dgamma is a normal number, which no consistent evaluation
    produces: at t = 0 both are exactly 0. A subnormal dgamma at gamma = 0 is the
    underflow of a qfi below 1e-300 (|dgamma| / gamma is at most max(2, sinh 2r, 1/T)),
    which gives 0.
    """
    high = gammas > 350.0  # exp(2 gamma) overflows
    signs = np.where(high, -1.0, 1.0)
    with np.errstate(**_NON_FINITE):
        expm1 = np.array(list(map(math.expm1, (signs * 2.0 * gammas).tolist())))
        damped = dgammas.copy()
        damped[high] *= list(map(math.exp, (-gammas[high]).tolist()))
        qfis = sines * sines * damped * damped / (signs * expm1)
    settled = (gammas == 0.0) & (abs(dgammas) < sys.float_info.min)
    qfis[settled] = 0.0
    return qfis, ~((gammas > 0.0) | settled)


def _invalid(gamma_value: float, dgamma: float) -> ValueError:
    """The error of a cell that `_closed_form` marks invalid: ValueError where gamma is
    negative or nan, else DegenerateInputError."""
    if not gamma_value >= 0.0:
        return ValueError(f"decoherence exponent must be >= 0, got {gamma_value}")
    return DegenerateInputError(
        f"gamma = {gamma_value!r} is at the t -> 0 limit but dgamma = {dgamma!r} is not")


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


def _check_estimable(estimand: Estimand, name: str, temperature: float) -> None:
    """Estimating T needs T > 0: `temperature`, the field `name`, must then exceed 0."""
    if estimand is Estimand.TEMPERATURE and not temperature > 0.0:
        raise ValueError(f"{name} must be > 0 when estimating T, got {temperature}")


def qfi_table(engine: MomentEngine, temperatures: Sequence[float], times: Sequence[float],
              settings: Sequence[tuple[SqueezeParams, ProbeInit]],
              where: Callable[[int], str] | None = None) -> tuple[list, list, list, list]:
    """gamma, d gamma, qfi and the truncations' gap on gamma at every cell: the k
    `settings` (SqueezeParams, ProbeInit) over the n pairs (temperatures[p], times[p]),
    setting outer and pair inner, so cell c is setting c // n at pair c % n.

    One `engine.moments` batch of the pairs, one `engine.exponents` call with the k
    squeezings and one `_closed_form` over all k n cells. Here alone a cell is judged, by
    one mask of six checks in this order, against the tolerance max(abs_tol, rel_tol
    max(|x|, gamma)) for x = gamma and d gamma: (1) its gamma or d gamma is not finite
    because a Gamma coefficient of the series overflows at s; (2) its gamma or d gamma
    overflows; (3) the rounding bound of its gamma or d gamma exceeds the tolerance, and
    gamma's is above 0; (4) its truncations' gap on gamma or d gamma, or a rounding bound
    that (3) leaves (gamma's is 0, or nan with a nan gamma), exceeds it; (5) its exponents
    are invalid; (6) its gamma, d gamma or qfi is not finite. The first failing cell raises
    ConvergenceError with the message of its first failing check, prefixed with
    `where(cell)` when `where` is given, and as est_error gamma's rounding bound where a
    bound exceeds the tolerance, else its gap on gamma, nan past (4).
    """
    squeezes, inits = zip(*settings)
    first, reported, rounding = engine.exponents(
        engine.moments(temperatures, times), squeezes).swapaxes(0, 1)  # each (rows, cells)
    n, qc = len(times), engine.qc
    # the integrand of gamma is non-negative; roundoff can undershoot 0
    values, derivatives = np.maximum(reported[0], 0.0), reported[1]
    sines = np.array([math.sin(init.alpha) for init in inits]).repeat(n)
    qfis, invalid = _closed_form(sines, values, derivatives)
    with np.errstate(**_NON_FINITE):
        tolerance = np.maximum(qc.abs_tol, qc.rel_tol * np.maximum(np.abs(reported), reported[0]))
        gaps = np.abs(first - reported)
        exact = (rounding <= tolerance).all(0)
        finite = np.isfinite(values) & np.isfinite(derivatives)
        checks = np.array([~finite & (not engine.coefficients_finite),
                           np.isinf(values) | np.isinf(derivatives),
                           ~exact & (rounding[0] > 0.0),
                           ~(exact & (gaps <= tolerance).all(0)),
                           invalid, ~(finite & np.isfinite(qfis))])
    faults = checks.any(0).nonzero()[0]
    if faults.size:
        k = int(faults[0])
        gamma_value, dgamma = values[k].item(), derivatives[k].item()
        error = (gaps if exact[k] else rounding)[0, k].item()
        p, check = k % n, checks[:, k].argmax()
        at = (f"at (T, t) = ({float(temperatures[p])!r}, {float(times[p])!r}): "
              f"gamma {gamma_value!r}")
        limit = f"tolerance (rel_tol {qc.rel_tol:g}, abs_tol {qc.abs_tol:g})"
        fault = [
            f"a Gamma coefficient of the moment series overflows at s = {engine.sp.s!r}, so "
            f"the moments are not finite {at}, dgamma {dgamma!r}",
            f"gamma or d gamma overflows {at}, dgamma {dgamma!r}",
            f"rounding of the assembly fails {at}, rounding bound {error:.3e} on gamma; the "
            f"bound exceeds the {limit} on gamma or d gamma",
            f"truncations disagree {at}, gap {error:.3e} above {limit} on gamma or d gamma",
            str(_invalid(gamma_value, dgamma)),
            f"non-finite sample: gamma {gamma_value!r}, dgamma {dgamma!r}, "
            f"qfi {qfis[k].item()!r}",
        ][check]
        located = fault if where is None else f"{where(k)}: {fault}"
        raise ConvergenceError(located, value=gamma_value,
                               est_error=error if check < 4 else math.nan)
    return values.tolist(), derivatives.tolist(), qfis.tolist(), gaps[0].tolist()


def qfi_point(
    estimand: Estimand,
    point: BathPoint,
    sq: SqueezeParams,
    sp: SpectralParams,
    init: ProbeInit = ProbeInit(),
    qc: QuadratureConfig = DEFAULT_QUADRATURE,
) -> QfiSample:
    """Production path for one point: the one-pair `qfi_table`, then the closed form's
    split into its classical and eigenvector terms."""
    _check_estimable(estimand, "temperature", point.temperature)
    (gamma_value,), (dgamma,), (qfi,), _ = qfi_table(
        MomentEngine(estimand, sp, qc), [point.temperature], [point.time], [(sq, init)])
    cfi, quantum = _closed_form_split(init.alpha, gamma_value, qfi)
    return QfiSample(point=point, sq=sq, sp=sp, init=init, estimand=estimand, gamma=gamma_value,
                     dgamma=dgamma, qfi=qfi, cfi_term=cfi, quantum_term=quantum)


def _shifted_gammas(estimand: Estimand, point: BathPoint, sq: SqueezeParams,
                    sp: SpectralParams, qc: QuadratureConfig, steps: Sequence[int],
                    step: float | None = None) -> tuple[float, list[float]]:
    """The finite-difference step h and gamma at eta + k h for each k of `steps`.

    h defaults to 1e-5 * max(1, |eta|) and must be > 0. The shifted (T, t) pairs and
    squeezings are each evaluated once, as one `qfi_table`: a T estimand takes its
    pairs under one squeezing, r or theta one pair under its squeezings.
    """
    eta = parameter_value(estimand, point, sq)
    h = 1e-5 * max(1.0, abs(eta)) if step is None else float(step)
    if not h > 0.0:
        raise ValueError(f"finite-difference step must be > 0, got {h}")
    shifted = [shift_parameter(estimand, k * h, point, sq) for k in steps]
    points = list(dict.fromkeys(one for one, _ in shifted))
    squeezes = list(dict.fromkeys(one for _, one in shifted))
    gammas = qfi_table(MomentEngine(None, sp, qc), [one.temperature for one in points],
                       [one.time for one in points], [(one, ProbeInit()) for one in squeezes])[0]
    return h, [gammas[squeezes.index(b) * len(points) + points.index(a)] for a, b in shifted]


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
    h, exponents = _shifted_gammas(estimand, point, sq, sp, qc, (-1, 0, 1), fd_step)
    below, center, above = (eigensystem(reduced_dm(init, value), init, value)
                            for value in exponents)

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
