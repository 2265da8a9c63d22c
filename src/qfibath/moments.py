"""Batched evaluation of gamma and its parameter derivatives from frequency moments.

The squeezing bracket is linear in (1, cos wt, sin wt). With the temperature
factor f(T, w) = J(w) coth(w / 2T) / w**2 and E(w, t) = 2 sin(w t / 2)**2,

    M0 = int f E,   Mc = int f E cos(w t),   Ms = int f E sin(w t),
    C  = cos(theta) Mc + sin(theta) Ms,
    gamma = [exp(-2r) (M0 + C) + exp(2r) (M0 - C)] / 2,

grouped as in `spectral_bath.squeeze_kernel`; each derivative is the same
assembly with the thermal row and weights of `spectral_bath.derivative_rule`.
f depends only on (T, w) and the kernel E [1, cos, sin] only on (w, t), so on
one fixed quadrature rule the moments of a whole (T, t) batch, or of a single
point (`point_exponents`), are one matrix product F @ K. A search that needs
one time per temperature takes each temperature's row of F against its own
kernel column instead (`pairs`), with F built once.

The base rule is composite Gauss-Legendre, laid out from the batch's inputs:

- a boundary panel [0, a], a = min(omega_c / 100, T_min / 2, 1 / t_max), under
  w = a x**p with p = max(1, 2 / s), which turns the w**(s - 1) endpoint of
  the integrand into a smooth function of x. a stays below the smallest
  positive temperature and below 1 / t_max, so coth and E are smooth there;
- geometric panels (ratio at most 2) from a to omega_c;
- every panel beyond a no wider than min(omega_c, 16 / t_max), so none spans
  more than 16 radians of the oscillation, up to the upper limit
  W = omega_max_factor * omega_c * max(1, s).

Every panel carries an order-20 rule and an order-24 rule. The order-24
values are reported. A point where the two disagree by more than the
QuadratureConfig tolerance, on gamma or on d gamma relative to
max(|d gamma|, gamma), or are not finite (for small s, w = a x**p underflows
to 0), is recomputed alone on the refined rule. That rule takes the head
[0, w0], w0 = 1e-10 * min(omega_c, 1 / t, T if T > 0), in closed form: there
f E [1, cos, sin] is omega_c**(1 - s) w**(s - 1) 2T (w**s at T = 0) times
(t**2 / 2) [1, 1, 0], and d coth / dT is 2 / w. Geometric panels carry it on
to a, then the base panels follow, with no x**p map. Where the refined pair
disagrees too, the point raises ConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .spectral_bath import (COTH_SERIES_CUTOFF, BathPoint, Estimand, SpectralParams,
                            SqueezeParams, derivative_rule)

__all__ = [
    "ORDER", "CHECK_ORDER", "F_BYTES", "K_BYTES", "QuadratureConfig", "DEFAULT_QUADRATURE",
    "ConvergenceError", "MomentEngine", "point_exponents",
]

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

# end of the refined rule's closed-form head, relative to the point's smallest scale
HEAD = 1e-10

# a rule whose weights under- or overflow computes non-finite moments without
# warnings; they fail the pair check, which sends the point to the refined rule
_NON_FINITE = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance the rule pair must meet, and the upper integration limit."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    omega_max_factor: float = 50.0

    def __post_init__(self) -> None:
        # an infinite tolerance accepts any quadrature; an infinite limit breaks the rule layout
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if not 10.0 <= self.omega_max_factor < math.inf:
            raise ValueError(
                f"omega_max_factor must be finite and >= 10, got {self.omega_max_factor}"
            )


DEFAULT_QUADRATURE = QuadratureConfig()


class ConvergenceError(RuntimeError):
    """The refined rule pair still disagreed above tolerance.

    Carries the reported value, the pair's gap on it and the rule's node count,
    so callers can see how far off it ended up.
    """

    def __init__(self, message: str, value: float, est_error: float, evaluations: int):
        super().__init__(message)
        self.value = value
        self.est_error = est_error
        self.evaluations = evaluations


def _panel_layout(sp: SpectralParams, qc: QuadratureConfig,
                  temperatures: list[float], t_max: float) -> np.ndarray:
    """Panel edges from the boundary panel end a to the upper limit W."""
    a = sp.omega_c / 100.0
    positive = [T for T in temperatures if T > 0.0]
    if positive:
        a = min(a, 0.5 * min(positive))
    width = sp.omega_c
    if t_max > 0.0:
        a = min(a, 1.0 / t_max)
        width = min(width, MAX_PHASE / t_max)
    coarse = np.append(_geometric(a, sp.omega_c), qc.omega_max_factor * sp.omega_c * max(1.0, sp.s))
    edges = [coarse[:1]]
    for lo, hi in zip(coarse[:-1], coarse[1:]):
        edges.append(np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1)[1:])
    return np.concatenate(edges)


def _geometric(lo: float, hi: float) -> np.ndarray:
    """Edges from lo to hi with ratio at most 2."""
    return np.geomspace(lo, hi, math.ceil(math.log2(hi / lo)) + 1)


@lru_cache(maxsize=None)
def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1], cached: it costs more than a one-point batch."""
    x, w = leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False  # shared by every engine
    return x, w


def _rule(order: int, edges: np.ndarray, power: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule of one order on the panels of `edges`,
    after the boundary panel [0, edges[0]] under w = edges[0] x**power unless power is None."""
    x, w = _unit_rule(order)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    nodes, weights = (lo + width * x).ravel(), (width * w).ravel()
    if power is None:
        return nodes, weights
    a = edges[0]
    return (np.concatenate([a * x**power, nodes]),
            np.concatenate([a * power * x ** (power - 1.0) * w, weights]))


def _coth(omega: np.ndarray, temperature: float) -> np.ndarray:
    """Vectorized `spectral_bath.thermal_factor`: coth(w / 2T), exactly 1 at T = 0."""
    if temperature == 0.0:
        return np.ones_like(omega)
    x = omega / (2.0 * temperature)
    out = 1.0 + 2.0 / np.expm1(2.0 * x)  # inf from expm1 (warning silenced by callers) gives 1
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


def _head(thermal, temperature: float, s: float, w0: float) -> float:
    """int_0^w0 w**s thermal(w, T) dw to leading order in w0 / T: the head's F entry
    over omega_c**(1 - s)."""
    if temperature == 0.0:
        return w0 ** (s + 1.0) / (s + 1.0) if thermal is _coth else 0.0
    return (2.0 * temperature if thermal is _coth else 2.0) * w0**s / s


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
    with np.errstate(**_NON_FINITE):
        for row, (thermal, T) in zip(factors, rows):
            np.multiply(base, thermal(omega, T), out=row)
    return factors


def _product(omega: np.ndarray, factors: np.ndarray, times: np.ndarray) -> np.ndarray:
    """F @ K at every row of F and every time, K in blocks below K_BYTES: (rows, 3, n_t)."""
    out = np.empty((factors.shape[0], 3, times.size))
    chunk = max(1, K_BYTES // (24 * omega.size))
    for t0 in range(0, times.size, chunk):
        kernel = _kernel(omega, times[t0:t0 + chunk])
        with np.errstate(**_NON_FINITE):
            block = factors @ kernel.reshape(omega.size, -1)
        out[:, :, t0:t0 + chunk] = block.reshape(factors.shape[0], 3, -1)
    return out


class MomentEngine:
    """Moments of one spectral density at a fixed set of temperatures.

    The constructor lays out the rule pair for `temperatures` and times up to
    `t_max`. `moments` evaluates any times up to t_max at every temperature;
    `factors` builds the F rows of one block of temperatures, which `scan`
    evaluates at a list of times and `pairs` at one time per temperature, so
    a search builds F once and reuses it every round. `refined` selects the
    refined layout, which `point_exponents` builds for one point and
    evaluates with `moments`, the one method that adds its closed-form head.
    `fallbacks` counts the points `settle` computed on the refined rule. That
    count makes an engine mutable, so each point, sweep, grid or search
    creates its own and the functions of `qfi_engine` and `sweep_optimize`
    stay safe to call concurrently.
    """

    def __init__(self, estimand: Estimand | None, sp: SpectralParams, qc: QuadratureConfig,
                 temperatures: list[float], t_max: float, refined: bool = False):
        self.estimand, self.sp, self.qc = estimand, sp, qc
        self.fallbacks = 0
        self._temperatures = list(temperatures)
        # F rows per temperature: coth, then d coth / dT if the estimand takes it
        self._thermal = [_coth, _coth_dT] if derivative_rule(estimand, 0.0)[0] else [_coth]
        edges = _panel_layout(sp, qc, temperatures, t_max)
        power, self._heads = max(1.0, 2.0 / sp.s), None
        with np.errstate(**_NON_FINITE):
            scale = np.float64(sp.omega_c) ** (1.0 - sp.s)
            if refined:
                scales = [sp.omega_c, *(T for T in temperatures if T > 0.0)]
                w0 = HEAD * min(scales + ([1.0 / t_max] if t_max > 0.0 else []))
                edges, power = np.concatenate([_geometric(w0, edges[0])[:-1], edges]), None
                # per F row, the head [0, w0] without its factor (t**2 / 2) [1, 1, 0]
                self._heads = [scale * _head(thermal, T, sp.s, w0)
                               for thermal in self._thermal for T in temperatures]
            # per rule: nodes, and weights times J(w) / w**2
            self._rules = []
            for order in (ORDER, CHECK_ORDER):
                omega, weights = _rule(order, edges, power)
                spectral = omega ** (sp.s - 2.0) * scale * np.exp(-omega / sp.omega_c)
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
        if self._heads is not None:
            out[:, :, :2] += np.multiply.outer(self._heads, 0.5 * times**2)[:, None, :]
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
                with np.errstate(**_NON_FINITE):
                    out[k, :, :, t0:t0 + chunk] = np.einsum("spw,wcp->scp", picked, kernel)
        return out

    def _pair(self, moments: np.ndarray, sq: SqueezeParams) -> tuple[np.ndarray, ...]:
        """gamma and d gamma / d estimand per rule and (T, t), and the pair's agreement."""
        n_T = moments.shape[1] // len(self._thermal)
        cos_th, sin_th = math.cos(sq.theta), math.sin(sq.theta)

        def assemble(estimand):
            dT, (a, b, c) = derivative_rule(estimand, sq.r)
            m = moments[:, n_T:] if dT else moments[:, :n_T]
            # the moments of 1 + cos(theta - w t), 1 - cos(theta - w t), sin(theta - w t)
            even = cos_th * m[:, :, 1] + sin_th * m[:, :, 2]
            odd = sin_th * m[:, :, 1] - cos_th * m[:, :, 2]
            return a * (m[:, :, 0] + even) + b * (m[:, :, 0] - even) + c * odd

        def agrees(pair, scale):
            return np.abs(pair[0] - pair[1]) <= np.maximum(self.qc.abs_tol, self.qc.rel_tol * scale)

        with np.errstate(**_NON_FINITE):
            value, derivative = assemble(None), assemble(self.estimand)
            agree = agrees(value, np.abs(value[1])) & agrees(
                derivative, np.maximum(np.abs(derivative[1]), value[1])
            )
        return value, derivative, agree

    def exponents(self, moments: np.ndarray, sq: SqueezeParams) -> tuple[list, list, list]:
        """gamma, d gamma / d estimand and pair agreement per (T, t), as nested lists.

        Takes the output of `moments` or `scan`, or of `pairs` as one row.
        """
        value, derivative, agree = self._pair(moments, sq)
        # the integrand of gamma is non-negative; roundoff can undershoot 0
        return np.maximum(value[1], 0.0).tolist(), derivative[1].tolist(), agree.tolist()

    def settle(self, exponents: tuple[list, list, list], i: int, j: int,
               point: BathPoint, sq: SqueezeParams) -> tuple[float, float]:
        """(gamma, d gamma) at row i, time j; the refined rule where the pair disagreed."""
        values, derivatives, agree = exponents
        if agree[i][j]:
            return values[i][j], derivatives[i][j]
        self.fallbacks += 1
        return _one_point(self.estimand, point, sq, self.sp, self.qc, (True,))[:2]


def point_exponents(estimand: Estimand | None, point: BathPoint, sq: SqueezeParams,
                    sp: SpectralParams, qc: QuadratureConfig = DEFAULT_QUADRATURE,
                    ) -> tuple[float, float, float, int]:
    """gamma, d gamma / d estimand, the pair's gap on gamma and its node count at one point.

    A 1 x 1 batch on the base rule pair, then, where that pair disagrees, on
    the refined rule; estimand None takes gamma itself as the derivative.
    t = 0 is exactly 0 with no nodes. Raises ConvergenceError where the
    refined pair disagrees too.
    """
    return _one_point(estimand, point, sq, sp, qc, (False, True))


def _one_point(estimand: Estimand | None, point: BathPoint, sq: SqueezeParams,
               sp: SpectralParams, qc: QuadratureConfig,
               layouts: tuple[bool, ...]) -> tuple[float, float, float, int]:
    """`point_exponents` on each of `layouts` (refined or not) in turn until a pair agrees."""
    if point.time == 0.0:
        return 0.0, 0.0, 0.0, 0
    for refined in layouts:
        engine = MomentEngine(estimand, sp, qc, [point.temperature], point.time, refined)
        value, derivative, agree = engine._pair(engine.moments([point.time]), sq)
        gamma_value, gap = value[1].item(), abs(value[0] - value[1]).item()
        nodes = sum(omega.size for omega, _ in engine._rules)
        if agree.item():
            return max(gamma_value, 0.0), derivative[1].item(), gap, nodes
    raise ConvergenceError(
        f"rule pair disagrees at (T, t) = ({point.temperature!r}, {point.time!r}) on the "
        f"refined rule: gamma {gamma_value!r}, pair gap {gap:.3e} above tolerance "
        f"(rel_tol {qc.rel_tol:g}, abs_tol {qc.abs_tol:g}) on gamma or d gamma",
        value=gamma_value,
        est_error=gap,
        evaluations=nodes,
    )
