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
point (`point_exponents`), are one matrix product F @ K. F has a thermal-set
axis (coth, and d coth / dT for the temperature estimand), a temperature axis
and a node axis, and is built in blocks of temperatures (`blocks`). A search
that needs one time per temperature takes each temperature's row of F against
its own kernel column instead (`pairs`), with F built once. Both products run
through one method, which also adds the refined rule's closed-form head.

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

# blocks of the temperature factor F (sets x temperatures x nodes) and of the time
# kernel K (nodes x 3 x times), in bytes: a batch is processed in as many chunks as it
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


class MomentEngine:
    """Moments of one spectral density at a fixed set of temperatures.

    The constructor lays out the rule pair for `temperatures` and times up to
    `t_max`. `blocks` splits the temperatures into runs whose F stays within
    F_BYTES per rule, and `factors` builds the F of one run. `scan` evaluates
    those factors at a list of times and `pairs` at one time per temperature,
    so a search builds F once and reuses it every round; `moments` runs `scan`
    over every block. F has one thermal set per row of `derivative_rule`:
    coth, then, for the temperature estimand, d coth / dT. `refined` selects
    the refined layout, whose closed-form head `scan` and `pairs` both add.
    An engine does not change after construction, so the functions of
    `qfi_engine` and `sweep_optimize` stay safe to call concurrently.
    """

    def __init__(self, estimand: Estimand | None, sp: SpectralParams, qc: QuadratureConfig,
                 temperatures: list[float], t_max: float, refined: bool = False):
        self.estimand, self.sp, self.qc = estimand, sp, qc
        self._temperatures = list(temperatures)
        self._sets = [_coth, _coth_dT] if derivative_rule(estimand, 0.0)[0] else [_coth]
        edges = _panel_layout(sp, qc, temperatures, t_max)
        power, self._heads = max(1.0, 2.0 / sp.s), None
        with np.errstate(**_NON_FINITE):
            scale = np.float64(sp.omega_c) ** (1.0 - sp.s)
            if refined:
                scales = [sp.omega_c, *(T for T in temperatures if T > 0.0)]
                w0 = HEAD * min(scales + ([1.0 / t_max] if t_max > 0.0 else []))
                edges, power = np.concatenate([_geometric(w0, edges[0])[:-1], edges]), None
                # per set and temperature, the head [0, w0] without its factor (t**2 / 2) [1, 1, 0]
                self._heads = np.array([[scale * _head(thermal, T, sp.s, w0) for T in temperatures]
                                        for thermal in self._sets])
            # per rule: nodes, and weights times J(w) / w**2
            self._rules = []
            for order in (ORDER, CHECK_ORDER):
                omega, weights = _rule(order, edges, power)
                spectral = omega ** (sp.s - 2.0) * scale * np.exp(-omega / sp.omega_c)
                self._rules.append((omega, weights * spectral))

    def moments(self, times: list[float]) -> np.ndarray:
        """(M0, Mc, Ms) per rule, thermal set, temperature and time:
        shape (2, sets, temperatures, 3, n_t), `scan` block by block."""
        out = np.empty((2, len(self._sets), len(self._temperatures), 3, len(times)))
        for block in self.blocks():
            out[:, :, block.start:block.stop] = self.scan(self.factors(block), times)
        return out

    def blocks(self) -> list[range]:
        """The engine's temperatures in runs whose F stays within F_BYTES per rule."""
        nodes = max(omega.size for omega, _ in self._rules)
        size = max(1, F_BYTES // (8 * len(self._sets) * nodes))
        n_T = len(self._temperatures)
        return [range(i, min(i + size, n_T)) for i in range(0, n_T, size)]

    def factors(self, block: range) -> tuple[list[np.ndarray], np.ndarray | None]:
        """F of the temperatures in `block`, one (sets, temperatures, nodes) array per
        rule, and the refined rule's head per set and temperature (None otherwise)."""
        rules = []
        for omega, base in self._rules:
            factors = np.empty((len(self._sets), len(block), omega.size))
            with np.errstate(**_NON_FINITE):
                for thermal, rows in zip(self._sets, factors):
                    for row, i in zip(rows, block):
                        np.multiply(base, thermal(omega, self._temperatures[i]), out=row)
            rules.append(factors)
        return rules, None if self._heads is None else self._heads[:, block.start:block.stop]

    def scan(self, factors: tuple, times: list[float]) -> np.ndarray:
        """(M0, Mc, Ms) per rule, thermal set, temperature of `factors` and time:
        shape (2, sets, temperatures, 3, n_t)."""
        return self._product(factors, np.asarray(times, dtype=float), None)

    def pairs(self, factors: tuple, temperatures: list[int], times: list[float]) -> np.ndarray:
        """(M0, Mc, Ms) per rule and thermal set of each (temperature, time) pair, not
        of their cross product: shape (2, sets, 1, 3, pairs).

        `temperatures[p]`, an index into the block of `factors`, pairs with `times[p]`.
        """
        return self._product(factors, np.asarray(times, dtype=float), temperatures)

    def _product(self, factors: tuple, times: np.ndarray, picks: list[int] | None) -> np.ndarray:
        """F @ K, K in blocks of times below K_BYTES, plus the closed-form head: every
        temperature at every time, or with `picks` temperature picks[p] at times[p]."""
        rules, heads = factors
        sets, n_T = rules[0].shape[:2]
        out = np.empty((2, sets, n_T if picks is None else 1, 3, times.size))
        with np.errstate(**_NON_FINITE):
            for k, ((omega, _), rows) in enumerate(zip(self._rules, rules)):
                chunk = max(1, K_BYTES // (24 * omega.size))
                for t0 in range(0, times.size, chunk):
                    span = slice(t0, t0 + chunk)
                    kernel = _kernel(omega, times[span])
                    if picks is None:
                        block = rows.reshape(-1, omega.size) @ kernel.reshape(omega.size, -1)
                        out[k, ..., span] = block.reshape(sets, n_T, 3, -1)
                    else:
                        out[k, :, 0, :, span] = np.einsum("spw,wcp->scp", rows[:, picks[span]],
                                                          kernel)
            if heads is not None:
                half = 0.5 * times**2
                head = heads[:, :, None] * half if picks is None else heads[:, None, picks] * half
                out[:, :, :, :2] += head[:, :, None]
        return out

    def _pair(self, moments: np.ndarray, sq: SqueezeParams) -> tuple[np.ndarray, ...]:
        """gamma and d gamma / d estimand per rule and (T, t), and the pair's agreement."""
        cos_th, sin_th = math.cos(sq.theta), math.sin(sq.theta)

        def assemble(estimand):
            dT, (a, b, c) = derivative_rule(estimand, sq.r)
            m = moments[:, int(dT)]
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
               point: BathPoint, sq: SqueezeParams) -> tuple[float, float, bool]:
        """(gamma, d gamma) at row i, time j, and whether they took the refined rule,
        as they do where the pair disagreed at t > 0 (t = 0 is exactly 0)."""
        values, derivatives, agree = exponents
        if agree[i][j]:
            return values[i][j], derivatives[i][j], False
        gamma_value, dgamma = _one_point(self.estimand, point, sq, self.sp, self.qc, (True,))[:2]
        return gamma_value, dgamma, point.time > 0.0


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
