"""Batched evaluation of gamma and its parameter derivatives from frequency moments.

The squeezing bracket is linear in (1, cos wt, sin wt). With the temperature
factor f(T, w) = J(w) coth(w / 2T) / w**2 and E(w, t) = 2 sin(w t / 2)**2,

    M0 = int f E,   Mc = int f E cos(w t),   Ms = int f E sin(w t),
    C  = cos(theta) Mc + sin(theta) Ms,
    gamma = [exp(-2r) (M0 + C) + exp(2r) (M0 - C)] / 2,

grouped as in `spectral_bath.squeeze_kernel`; each derivative is the same
assembly with the thermal row and weights of `spectral_bath.derivative_rule`.
f depends only on (T, w) and the kernel E [1, cos, sin] only on (w, t), so on
one fixed quadrature rule the moments of a whole (T, t) batch, or of the
single point of `qfi_engine.qfi_point`, are one matrix product F @ K. A
search that needs one time per temperature takes each temperature's row of F
against its own kernel column instead (`pairs`), with F built once.

The rule is composite Gauss-Legendre, laid out from the batch's inputs:

- a boundary panel [0, a], a = min(omega_c / 100, T_min / 2, 1 / t_max), under
  w = a x**p with p = max(1, 2 / s), which turns the w**(s - 1) endpoint of
  the integrand into a smooth function of x. a stays below the smallest
  positive temperature and below 1 / t_max, so coth and E are smooth there;
- geometric panels (ratio at most 2) from a to omega_c;
- every panel beyond a no wider than min(omega_c, 16 / t_max), so none spans
  more than 16 radians of the oscillation, up to the upper limit W of the
  adaptive path (`decoherence`).

Every panel carries an order-20 rule and an order-24 rule. The order-24
values are reported; a point where the two disagree by more than the
QuadratureConfig tolerance, on gamma or on d gamma relative to
max(|d gamma|, gamma), is recomputed by the adaptive `gamma` and
`gamma_partial`, which stay the oracle and the fallback.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .decoherence import QuadratureConfig, _upper_limit, gamma, gamma_partial
from .spectral_bath import (COTH_SERIES_CUTOFF, BathPoint, Estimand, SpectralParams,
                            SqueezeParams, derivative_rule)

__all__ = ["ORDER", "CHECK_ORDER", "F_BYTES", "K_BYTES", "MomentEngine"]

ORDER = 20
CHECK_ORDER = 24

# blocks of the temperature factor F (rows x nodes) and of the time kernel K
# (nodes x 3 x times), in bytes: a batch is processed in as many chunks as it
# takes to keep each block below these sizes, so its temporaries stay off the
# process's peak RSS. Blocks this small cost no measurable time.
F_BYTES = 2**22
K_BYTES = 2**18

# widest panel, in radians of the oscillation w t_max
MAX_PHASE = 16.0


def _panel_layout(sp: SpectralParams, qc: QuadratureConfig,
                  temperatures: list[float], t_max: float) -> tuple[float, np.ndarray]:
    """Boundary panel end a and the panel edges from a to the upper limit W."""
    a = sp.omega_c / 100.0
    positive = [T for T in temperatures if T > 0.0]
    if positive:
        a = min(a, 0.5 * min(positive))
    width = sp.omega_c
    if t_max > 0.0:
        a = min(a, 1.0 / t_max)
        width = min(width, MAX_PHASE / t_max)
    geometric = np.geomspace(a, sp.omega_c, math.ceil(math.log2(sp.omega_c / a)) + 1)
    coarse = np.append(geometric, _upper_limit(sp, qc))
    edges = [coarse[:1]]
    for lo, hi in zip(coarse[:-1], coarse[1:]):
        edges.append(np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1)[1:])
    return a, np.concatenate(edges)


@lru_cache(maxsize=None)
def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1], cached: it costs more than a one-point batch."""
    x, w = leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False  # shared by every engine
    return x, w


def _rule(order: int, a: float, power: float, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule of one order."""
    x, w = _unit_rule(order)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    nodes = np.concatenate([a * x**power, (lo + width * x).ravel()])
    weights = np.concatenate([a * power * x ** (power - 1.0) * w, (width * w).ravel()])
    return nodes, weights


def _coth(omega: np.ndarray, temperature: float) -> np.ndarray:
    """Vectorized `spectral_bath.thermal_factor`: coth(w / 2T), exactly 1 at T = 0."""
    if temperature == 0.0:
        return np.ones_like(omega)
    x = omega / (2.0 * temperature)
    with np.errstate(over="ignore"):  # expm1 overflows to inf where coth is 1
        out = 1.0 + 2.0 / np.expm1(2.0 * x)
    small = x < COTH_SERIES_CUTOFF
    out[small] = 1.0 / x[small] + x[small] / 3.0
    return out


def _coth_dT(omega: np.ndarray, temperature: float) -> np.ndarray:
    """Vectorized `spectral_bath.thermal_factor_dT`, exactly 0 at T = 0."""
    if temperature == 0.0:
        return np.zeros_like(omega)
    x = omega / (2.0 * temperature)
    em = np.expm1(-2.0 * x)
    return x * 4.0 * np.exp(-2.0 * x) / (em * em) / temperature


def _kernel(omega: np.ndarray, times: np.ndarray) -> np.ndarray:
    """K = E(w, t) [1, cos wt, sin wt], shape (nodes, 3, times)."""
    half = np.multiply.outer(0.5 * omega, times)
    half_sin = np.sin(half)
    half_cos = np.cos(half, out=half)
    kernel = np.empty((omega.size, 3, times.size))
    envelope = kernel[:, 0]
    np.multiply(half_sin, half_sin, out=envelope)
    envelope *= 2.0
    # cos(wt) = 1 - E and sin(wt) = 2 sin(wt/2) cos(wt/2)
    np.subtract(1.0, envelope, out=kernel[:, 1])
    kernel[:, 1] *= envelope
    np.multiply(half_sin, half_cos, out=kernel[:, 2])
    kernel[:, 2] *= 2.0 * envelope
    return kernel


def _factor_rows(omega: np.ndarray, base: np.ndarray, rows: list) -> np.ndarray:
    """F: one row base * thermal(omega, T) per (thermal, T) of `rows`."""
    factors = np.empty((len(rows), omega.size))
    for row, (thermal, T) in zip(factors, rows):
        np.multiply(base, thermal(omega, T), out=row)
    return factors


def _product(omega: np.ndarray, factors: np.ndarray, times: np.ndarray) -> np.ndarray:
    """F @ K at every row of F and every time, K in blocks below K_BYTES: (rows, 3, n_t)."""
    out = np.empty((factors.shape[0], 3, times.size))
    chunk = max(1, K_BYTES // (24 * omega.size))
    for t0 in range(0, times.size, chunk):
        kernel = _kernel(omega, times[t0:t0 + chunk])
        block = factors @ kernel.reshape(omega.size, -1)
        out[:, :, t0:t0 + chunk] = block.reshape(factors.shape[0], 3, -1)
    return out


class MomentEngine:
    """Moments of one spectral density at a fixed set of temperatures.

    The constructor lays out the rule pair for `temperatures` and times up to
    `t_max`. `moments` evaluates any times up to t_max at every temperature;
    `factors` builds the F rows of one block of temperatures, which `scan`
    evaluates at a list of times and `pairs` at one time per temperature, so
    a search builds F once and reuses it every round. `fallbacks` counts the
    points `settle` handed to the adaptive path. That count makes an engine
    mutable, so each point, sweep, grid or search creates its own and the
    functions of `qfi_engine` and `sweep_optimize` stay safe to call
    concurrently.
    """

    def __init__(self, estimand: Estimand, sp: SpectralParams, qc: QuadratureConfig,
                 temperatures: list[float], t_max: float):
        self.estimand, self.sp, self.qc = estimand, sp, qc
        self.fallbacks = 0
        self._temperatures = list(temperatures)
        # F rows per temperature: coth, then d coth / dT if the estimand takes it
        self._thermal = [_coth, _coth_dT] if derivative_rule(estimand, 0.0)[0] else [_coth]
        a, edges = _panel_layout(sp, qc, temperatures, t_max)
        power = max(1.0, 2.0 / sp.s)
        # per rule: nodes, and weights times J(w) / w**2
        self._rules = []
        for order in (ORDER, CHECK_ORDER):
            omega, weights = _rule(order, a, power, edges)
            spectral = omega ** (sp.s - 2.0) * sp.omega_c ** (1.0 - sp.s) * np.exp(
                -omega / sp.omega_c
            )
            self._rules.append((omega, weights * spectral))

    def moments(self, times: list[float]) -> np.ndarray:
        """(M0, Mc, Ms) per rule, F row and time: shape (2, rows, 3, n_t).

        Rows are as in `factors` of all the engine's temperatures, built in
        chunks of at most F_BYTES per rule.
        """
        times = np.asarray(times, dtype=float)
        rows = [(thermal, T) for thermal in self._thermal for T in self._temperatures]
        out = np.empty((2, len(rows), 3, times.size))
        for k, (omega, base) in enumerate(self._rules):
            chunk = max(1, F_BYTES // (8 * omega.size))
            for r0 in range(0, len(rows), chunk):
                factors = _factor_rows(omega, base, rows[r0:r0 + chunk])
                out[k, r0:r0 + chunk] = _product(omega, factors, times)
        return out

    def blocks(self) -> list[range]:
        """The engine's temperatures in runs whose F rows stay within F_BYTES per rule."""
        nodes = max(omega.size for omega, _ in self._rules)
        size = max(1, F_BYTES // (8 * len(self._thermal) * nodes))
        n_T = len(self._temperatures)
        return [range(i, min(i + size, n_T)) for i in range(0, n_T, size)]

    def factors(self, block: range) -> list[np.ndarray]:
        """F of the temperatures in `block`, one (rows, nodes) array per rule.

        Rows are the block's temperatures with coth, followed for the
        temperature estimand by the same temperatures with d coth / dT.
        """
        rows = [(thermal, self._temperatures[i]) for thermal in self._thermal for i in block]
        return [_factor_rows(omega, base, rows) for omega, base in self._rules]

    def scan(self, factors: list[np.ndarray], times: list[float]) -> np.ndarray:
        """(M0, Mc, Ms) per rule, row of `factors` and time: shape (2, rows, 3, n_t)."""
        times = np.asarray(times, dtype=float)
        return np.stack([_product(omega, rows, times)
                         for (omega, _), rows in zip(self._rules, factors)])

    def pairs(self, factors: list[np.ndarray], temperatures: list[int],
              times: list[float]) -> np.ndarray:
        """(M0, Mc, Ms) per rule and thermal row of each (temperature, time) pair,
        not of their cross product: shape (2, rows per temperature, 3, pairs).

        `temperatures[p]`, an index into the block of `factors`, pairs with `times[p]`.
        """
        times = np.asarray(times, dtype=float)
        sets = len(self._thermal)
        out = np.empty((2, sets, 3, times.size))
        for k, ((omega, _), rows) in enumerate(zip(self._rules, factors)):
            rows = rows.reshape(sets, -1, omega.size)
            chunk = max(1, K_BYTES // (24 * omega.size))
            for t0 in range(0, times.size, chunk):
                kernel = _kernel(omega, times[t0:t0 + chunk])
                picked = rows[:, temperatures[t0:t0 + chunk]]
                out[k, :, :, t0:t0 + chunk] = np.einsum("spw,wcp->scp", picked, kernel)
        return out

    def exponents(self, moments: np.ndarray, sq: SqueezeParams) -> tuple[list, list, list]:
        """gamma, d gamma / d estimand and pair agreement per (T, t), as nested lists.

        Takes the output of `moments` or `scan`, or of `pairs` as one row.
        """
        n_T = moments.shape[1] // len(self._thermal)
        cos_th, sin_th = math.cos(sq.theta), math.sin(sq.theta)

        def assemble(estimand):
            dT, (a, b, c) = derivative_rule(estimand, sq.r)
            m = moments[:, n_T:] if dT else moments[:, :n_T]
            # the moments of 1 + cos(theta - w t), 1 - cos(theta - w t), sin(theta - w t)
            even = cos_th * m[:, :, 1] + sin_th * m[:, :, 2]
            odd = sin_th * m[:, :, 1] - cos_th * m[:, :, 2]
            return a * (m[:, :, 0] + even) + b * (m[:, :, 0] - even) + c * odd

        value, derivative = assemble(None), assemble(self.estimand)
        qc = self.qc
        value_ok = np.abs(value[0] - value[1]) <= np.maximum(
            qc.abs_tol, qc.rel_tol * np.abs(value[1])
        )
        scale = np.maximum(np.abs(derivative[1]), value[1])
        derivative_ok = np.abs(derivative[0] - derivative[1]) <= np.maximum(
            qc.abs_tol, qc.rel_tol * scale
        )
        # the integrand of gamma is non-negative; roundoff can undershoot 0
        return (
            np.maximum(value[1], 0.0).tolist(),
            derivative[1].tolist(),
            (value_ok & derivative_ok).tolist(),
        )

    def settle(self, exponents: tuple[list, list, list], i: int, j: int,
               point: BathPoint, sq: SqueezeParams) -> tuple[float, float]:
        """(gamma, d gamma) at row i, time j; the adaptive path where the pair disagreed."""
        values, derivatives, agree = exponents
        if agree[i][j]:
            return values[i][j], derivatives[i][j]
        self.fallbacks += 1
        return (
            gamma(point, sq, self.sp, self.qc).value,
            gamma_partial(self.estimand, point, sq, self.sp, self.qc),
        )
