"""Batched evaluation of gamma and its parameter derivatives from frequency moments.

The squeezing bracket is linear in (1, cos wt, sin wt). With the temperature
factor f(T, w) = J(w) coth(w / 2T) / w**2 and E(w, t) = 2 sin(w t / 2)**2,

    M0 = int f E,   Mc = int f E cos(w t),   Ms = int f E sin(w t),
    C  = cos(theta) Mc + sin(theta) Ms,
    gamma = [exp(-2r) (M0 + C) + exp(2r) (M0 - C)] / 2,

grouped as in `spectral_bath.squeeze_kernel`; each derivative is the same
assembly with the thermal row and weights of `spectral_bath.derivative_rule`.

coth(w / 2T) = 1 + 2 n(w) splits each moment into a vacuum part and a thermal
part. The vacuum part has a closed form: with x = omega_c t,
L_k = log(1 - i k x) and I_k = Gamma(s) expm1((1 - s) L_k) / (1 - s) (L_k at
s = 1), M0 = Re I_1, Mc = -Re I_1 + Re I_2 / 2 and Ms = -Im I_1 + Im I_2 / 2.
Below x = VACUUM_SERIES_CUTOFF, where that difference cancels the linear term
of Ms, their Taylor series in x take over. d coth / dT has no vacuum part.

Only the thermal part, 2 n(w) = 2 / expm1(w / T) (exactly 0 at T = 0), and
d coth / dT are integrated. That factor depends only on (T, w) and the kernel
E [1, cos, sin] only on (w, t), so on one fixed quadrature rule the moments of
a whole (T, t) batch, or of a single point (`point_exponents`), are one matrix
product F @ K. F has a thermal-set axis (2 n, and d coth / dT for the
temperature estimand), a temperature axis and a node axis, and is built in
blocks of temperatures (`blocks`). A search that needs one time per
temperature takes each temperature's row of F against its own kernel column
instead (`pairs`), with F built once. Both products run through one method,
which also adds the vacuum moments and sets every moment at t = 0 to exactly 0.

The rule is composite Gauss-Legendre, laid out from the batch's inputs:

- a boundary panel [0, a], a = min(omega_c / 100, T_min / 2, 1 / t_max). a stays
  below the smallest positive temperature and below 1 / t_max, so n(w) and E
  are smooth there, and the integrand is w**(s - 1) times a smooth function.
  The panel keeps its Gauss-Legendre nodes, with product-integration weights
  exact for w**(s - 1) times any polynomial of degree below the rule's order:
  W_i = g_i sum_k (2k + 1) P_k(2 x_i - 1) m_k on [0, 1], with the moments
  m_k = int_0^1 u**(s - 1) P_k(2u - 1) du, m_0 = 1 / s and
  m_k = m_(k-1) (s - k) / (s + k);
- geometric segments (ratio at most 2) from a to min(omega_c, W), and one on to
  the upper limit W = omega_max_factor * max(1, s) / (1 / omega_c + 1 / T_max),
  where exp(-w / omega_c) n(w) has decayed;
- each segment split into equal panels of one width h, no wider than
  min(omega_c, 16 / t_max), so none spans more than 16 radians of the
  oscillation. A node is w = L_p + h x_i: its panel's left end plus h times a
  unit node.

The time kernel uses that layout (`_panel_factor`, `_kernel`): by angle addition,
e^(i w t/2) = e^(i L_p t/2) e^(i h x_i t/2), so a time takes one sine and
cosine per panel and one per segment and unit node, instead of one per node.
The rounding error of L_p t/2, exact from Dekker's product, enters the panel
factor, so the kernel holds to roundoff at each node's phase however large
w t is.

An engine whose temperatures are all 0, or whose times are, integrates nothing
and has no rule. A rule pair of more than NODE_BUDGET nodes raises
ConvergenceError before any of it is allocated.

Every panel carries an order-20 rule and an order-24 rule. The order-24
values are reported. A point where the two disagree by more than the
QuadratureConfig tolerance, on gamma or on d gamma relative to
max(|d gamma|, gamma), or are not finite, raises ConvergenceError.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .spectral_bath import BathPoint, Estimand, SpectralParams, SqueezeParams, derivative_rule

__all__ = [
    "ORDER", "CHECK_ORDER", "F_BYTES", "K_BYTES", "NODE_BUDGET", "VACUUM_SERIES_CUTOFF",
    "QuadratureConfig", "DEFAULT_QUADRATURE",
    "ConvergenceError", "MomentEngine", "point_exponents",
]

ORDER = 20
CHECK_ORDER = 24

# blocks of the temperature factor F (sets x temperatures x nodes) and of the time
# kernel K (3 x times x nodes), in bytes: a batch is processed in as many chunks as it
# takes to keep each block below these sizes, so its temporaries stay off the
# process's peak RSS. Blocks this small cost no measurable time.
F_BYTES = 2**22
K_BYTES = 2**18

# largest rule pair an engine lays out, in nodes of both orders; a temperature-estimand
# point at the budget peaks near 280 MiB of RSS
NODE_BUDGET = 2**22

# omega_c t below which the vacuum moments come from their Taylor series
VACUUM_SERIES_CUTOFF = 1e-3

# widest panel, in radians of the oscillation w t_max
MAX_PHASE = 16.0

# a rule whose weights under- or overflow computes non-finite moments without
# warnings; they fail the pair check, which raises ConvergenceError
_NON_FINITE = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance the rule pair must meet, and the upper limit of the thermal integral
    in units of max(1, s) / (1 / omega_c + 1 / T_max)."""

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
    """The rule pair disagreed above tolerance, or would exceed NODE_BUDGET nodes.

    Carries the reported value, the pair's gap on it and the rule's node count,
    so callers can see how far off it ended up; a refused rule carries nan, nan
    and 0.
    """

    def __init__(self, message: str, value: float, est_error: float, evaluations: int):
        super().__init__(message)
        self.value = value
        self.est_error = est_error
        self.evaluations = evaluations


def _panel_layout(sp: SpectralParams, qc: QuadratureConfig, temperatures: list[float],
                  t_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panels of the rule as (left ends L_p, segment widths h_g, segment of each panel).

    Segment 0 is the boundary panel [0, a]; each later segment splits one geometric
    span up to the upper limit W of the thermal part into equal panels of one width.
    Empty where every temperature is 0 or t_max is.

    Raises ConvergenceError, naming (T_max, t_max), where the rule pair would
    exceed NODE_BUDGET nodes.
    """
    positive = [T for T in temperatures if T > 0.0]
    if not positive or t_max == 0.0:  # no thermal part, or E(w, 0) = 0
        return np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
    top = qc.omega_max_factor * max(1.0, sp.s) / (1.0 / sp.omega_c + 1.0 / max(positive))
    a = min(sp.omega_c / 100.0, 0.5 * min(positive), 1.0 / t_max)
    width = min(sp.omega_c, MAX_PHASE / t_max)
    # geometric edges from a to min(omega_c, top), ratio at most 2
    hi = min(sp.omega_c, top)
    coarse = np.geomspace(a, hi, math.ceil(math.log2(hi / a)) + 1)
    if top > coarse[-1]:
        coarse = np.append(coarse, top)
    spans = np.diff(coarse)
    panels = np.ceil(spans / width)
    nodes = (1.0 + panels.sum()) * (ORDER + CHECK_ORDER)
    if not nodes <= NODE_BUDGET:
        raise ConvergenceError(
            f"rule pair of {nodes:.4g} nodes at (T, t) = ({max(positive)!r}, {t_max!r}) is "
            f"over the node budget of {NODE_BUDGET}",
            value=math.nan, est_error=math.nan, evaluations=0,
        )
    counts = np.concatenate([[1], panels.astype(np.int64)])
    widths = np.concatenate([[a], spans / panels])
    segment = np.repeat(np.arange(counts.size), counts)
    step = np.arange(segment.size) - np.repeat(np.cumsum(counts) - counts, counts)
    lefts = step * widths[segment] + np.concatenate([[0.0], coarse[:-1]])[segment]
    return lefts, widths, segment


@lru_cache(maxsize=None)
def _unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1], cached: it costs more than a one-point batch."""
    x, w = leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False  # shared by every engine
    return x, w


@lru_cache(maxsize=None)
def _legendre_basis(order: int) -> np.ndarray:
    """(2k + 1) P_k(2 x_i - 1) g_i on the nodes x_i and weights g_i of `_unit_rule`,
    as [k, i], cached like it."""
    x, w = _unit_rule(order)
    basis = legvander(2.0 * x - 1.0, order - 1).T * (2.0 * np.arange(order) + 1.0)[:, None] * w
    basis.flags.writeable = False
    return basis


def _boundary_weights(order: int, s: float) -> np.ndarray:
    """Weights on the nodes of `_unit_rule` that integrate u**(s - 1) p(u) over [0, 1]
    exactly for every polynomial p of degree below `order`: sum_k m_k (2k + 1) P_k g_i,
    with m_k = int_0^1 u**(s - 1) P_k(2u - 1) du = prod_{j <= k} ((s - j) / (s + j)) / s."""
    k = np.arange(float(order))
    return np.cumprod((s - k) / (s + k)) @ _legendre_basis(order) / s


def _rule(order: int, layout: tuple[np.ndarray, ...], s: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes L_p + h_g x_i and weights of the composite rule of one order on the panels
    of `layout`. The boundary panel's weights integrate w**(s - 1) times a polynomial
    exactly, and are divided by w**(s - 1) there, so the integrand's own w**(s - 2)
    factor applies on every panel alike."""
    x, w = _unit_rule(order)
    lefts, widths, segment = layout
    nodes = np.multiply.outer(widths, x)[segment]
    nodes += lefts[:, None]
    weights = np.multiply.outer(widths, w)[segment].ravel()
    weights[:order] = widths[0] * _boundary_weights(order, s) / x ** (s - 1.0)
    return nodes.ravel(), weights


def _thermal(omega: np.ndarray, temperature: float, out: np.ndarray,
             scratch: np.ndarray) -> None:
    """Thermal part 2 n(w) = 2 / expm1(w / T) of coth(w / 2T) = 1 + 2 n(w) into `out`,
    exactly 0 at T = 0; `scratch` is not needed."""
    if temperature == 0.0:
        out.fill(0.0)
        return
    # an inf from expm1 (its warning silenced by callers) gives 0
    np.divide(omega, temperature, out=out)
    np.expm1(out, out=out)
    np.divide(2.0, out, out=out)


def _thermal_dT(omega: np.ndarray, temperature: float, out: np.ndarray,
                scratch: np.ndarray) -> None:
    """Vectorized `spectral_bath.thermal_factor_dT` into `out`, exactly 0 at T = 0:
    x 4 exp(-2x) / expm1(-2x)**2 / T with x = w / 2T, through one `scratch` row."""
    if temperature == 0.0:
        out.fill(0.0)
        return

    np.divide(omega, 2.0 * temperature, out=out)
    np.multiply(out, -2.0, out=scratch)
    out *= 4.0
    out *= np.exp(scratch, out=scratch)
    # -2x again, for expm1
    np.divide(omega, 2.0 * temperature, out=scratch)
    scratch *= -2.0
    np.expm1(scratch, out=scratch)
    out /= np.multiply(scratch, scratch, out=scratch)
    out /= temperature


def _gamma_function(s: float) -> float:
    """Gamma(s), inf where it overflows, so the point fails the pair check instead."""
    try:
        return math.gamma(s)
    except OverflowError:
        return math.inf


def _vacuum(sp: SpectralParams, times: np.ndarray) -> np.ndarray:
    """Vacuum part of (M0, Mc, Ms) at each time, shape (3, times): the integrals of
    J(w) E(w, t) [1, cos, sin] / w**2, in closed form or, below VACUUM_SERIES_CUTOFF
    in x = omega_c t, as Taylor series."""
    s, x = sp.s, sp.omega_c * times
    scale = _gamma_function(s)
    # I_k = Gamma(s) E(L_k), E(L) = expm1((1 - s) L) / (1 - s), L_k = log(1 - i k x)
    parts = []
    for k in (1.0, 2.0):
        real, imag = 0.5 * np.log1p((k * x) ** 2), -np.arctan(k * x)
        if s != 1.0:
            u, v = (1.0 - s) * real, (1.0 - s) * imag
            half = np.sin(0.5 * v)
            real = (np.expm1(u) * np.cos(v) - 2.0 * half * half) / (1.0 - s)
            imag = np.exp(u) * np.sin(v) / (1.0 - s)
        parts.append((real, imag))
    (re1, im1), (re2, im2) = parts
    out = scale * np.array([re1, 0.5 * re2 - re1, 0.5 * im2 - im1])
    small = x < VACUUM_SERIES_CUTOFF
    if small.any():
        out[:, small] = _vacuum_series(s, scale, x[small])
    return out


def _vacuum_series(s: float, scale: float, x: np.ndarray) -> np.ndarray:
    """`_vacuum` as power series in x = omega_c t, from int J(w) w**(n - 2) dw =
    Gamma(s + n - 1) omega_c**n: with a_n = Gamma(s + n - 1) x**n / n!,
    M0 = sum_even -(-1)**(n/2) a_n, Mc = sum_even (-1)**(n/2) (1 - 2**(n-1)) a_n,
    Ms = sum_odd (-1)**((n-1)/2) (1 - 2**(n-1)) a_n. Fourteen orders leave the
    truncation below 1e-25 relative for x < 1e-3 and s <= 10."""
    out = np.zeros((3, x.size))
    term = scale * x  # a_1
    for n in range(2, 16):
        term = term * x * ((s + n - 2.0) / n)
        sign, doubled = (-1.0) ** (n // 2), 1.0 - 2.0 ** (n - 1)
        if n % 2:
            out[2] += sign * doubled * term
        else:
            out[0] -= sign * term
            out[1] += sign * doubled * term
    return out


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo, hi of at most 26 significant bits, so that the
    product of two hi parts is exact."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _panel_factor(lefts: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^(i L_p t/2) per time and panel left end, shape (times, panels). Dekker's
    product gives the rounding error of L_p t/2 exactly, and it rotates the factor on,
    so the factor holds to roundoff however large L_p t is."""
    half = 0.5 * times[:, None]
    phase = half * lefts
    (t_hi, t_lo), (l_hi, l_lo) = _split(half), _split(lefts)
    error = t_hi * l_hi - phase
    error += t_lo * l_hi
    error += t_hi * l_lo
    error += t_lo * l_lo
    panel = np.exp(1j * phase)
    panel *= 1.0 + 1j * error  # e^(i error) to first order, error ~ ulp(phase)
    return panel


def _kernel(layout: tuple[np.ndarray, ...], x: np.ndarray, times: np.ndarray,
            panel: np.ndarray) -> np.ndarray:
    """K = E(w, t) [1, cos wt, sin wt] on the nodes w = L_p + h_g x_i of `layout` and
    the unit nodes `x`, shape (3, times, nodes); `panel` is the `_panel_factor` of
    `times`.

    By angle addition e^(i w t/2) = e^(i L_p t/2) e^(i h_g x_i t/2): the first factor
    is taken once per panel, the second once per segment and unit node, so a time
    costs panels + segments x order sines and cosines instead of one per node, and
    K holds to roundoff at the node's own phase however large w t is.
    """
    _, widths, segment = layout
    half = 0.5 * times[:, None, None]
    rotation = np.take(np.exp(1j * (half * np.multiply.outer(widths, x))), segment, axis=1)
    rotation *= panel[..., None]
    rotation = rotation.reshape(times.size, -1)
    half_sin, half_cos = rotation.imag, rotation.real
    kernel = np.empty((3, *rotation.shape))
    envelope, cosine, sine = kernel
    np.multiply(half_sin, half_sin, out=envelope)
    envelope *= 2.0
    # cos(wt) = 1 - E and sin(wt) = 2 sin(wt/2) cos(wt/2)
    np.subtract(1.0, envelope, out=cosine)
    cosine *= envelope
    np.multiply(half_sin, half_cos, out=sine)
    sine *= 2.0
    sine *= envelope
    return kernel


class MomentEngine:
    """Moments of one spectral density at a fixed set of temperatures.

    The constructor lays out the rule pair for `temperatures` and times up to
    `t_max`. `blocks` splits the temperatures into runs whose F stays within
    F_BYTES per rule, and `factors` builds the F of one run. `scan` evaluates
    those factors at a list of times and `pairs` at one time per temperature,
    so a search builds F once and reuses it every round; `moments` runs `scan`
    over every block. F has one thermal set per row of `derivative_rule`:
    2 n(w), then, for the temperature estimand, d coth / dT. `scan` and `pairs`
    add the vacuum moments to the first set. `nodes` is the pair's node count.
    An engine does not change after construction, so the functions of
    `qfi_engine` and `sweep_optimize` stay safe to call concurrently.
    """

    def __init__(self, estimand: Estimand | None, sp: SpectralParams, qc: QuadratureConfig,
                 temperatures: list[float], t_max: float):
        self.estimand, self.sp, self.qc = estimand, sp, qc
        self._temperatures = list(temperatures)
        self._sets = [_thermal, _thermal_dT] if derivative_rule(estimand, 0.0)[0] else [_thermal]
        self._layout = _panel_layout(sp, qc, temperatures, t_max)
        self._orders = (ORDER, CHECK_ORDER)
        # per rule: nodes, and weights times J(w) / w**2, built in the weights' array
        self._rules = []
        with np.errstate(**_NON_FINITE):
            scale = np.float64(sp.omega_c) ** (1.0 - sp.s)
            for order in self._orders:
                if not self._layout[0].size:
                    self._rules.append((np.empty(0), np.empty(0)))
                    continue
                omega, weighted = _rule(order, self._layout, sp.s)
                spectral = np.power(omega, sp.s - 2.0)
                spectral *= scale
                weighted *= spectral
                np.exp(np.divide(omega, -sp.omega_c, out=spectral), out=spectral)
                weighted *= spectral
                self._rules.append((omega, weighted))
        self.nodes = sum(omega.size for omega, _ in self._rules)

    def moments(self, times: list[float]) -> np.ndarray:
        """(M0, Mc, Ms) per rule, thermal set, temperature and time:
        shape (2, sets, temperatures, 3, n_t), `scan` block by block."""
        out = np.empty((2, len(self._sets), len(self._temperatures), 3, len(times)))
        for block in self.blocks():
            out[:, :, block.start:block.stop] = self.scan(self.factors(block), times)
        return out

    def blocks(self) -> list[range]:
        """The engine's temperatures in runs whose F stays within F_BYTES per rule."""
        nodes = max(1, *(omega.size for omega, _ in self._rules))
        size = max(1, F_BYTES // (8 * len(self._sets) * nodes))
        n_T = len(self._temperatures)
        return [range(i, min(i + size, n_T)) for i in range(0, n_T, size)]

    def factors(self, block: range) -> list[np.ndarray]:
        """F of the temperatures in `block`, one (sets, temperatures, nodes) array per rule,
        each row built in place."""
        rules = []
        for omega, base in self._rules:
            factors = np.empty((len(self._sets), len(block), omega.size))
            scratch = np.empty_like(omega)
            with np.errstate(**_NON_FINITE):
                for thermal, rows in zip(self._sets, factors):
                    for row, i in zip(rows, block):
                        thermal(omega, self._temperatures[i], row, scratch)
                        row *= base
            rules.append(factors)
        return rules

    def scan(self, factors: list[np.ndarray], times: list[float]) -> np.ndarray:
        """(M0, Mc, Ms) per rule, thermal set, temperature of `factors` and time:
        shape (2, sets, temperatures, 3, n_t)."""
        return self._product(factors, np.asarray(times, dtype=float), None)

    def pairs(self, factors: list[np.ndarray], temperatures: list[int],
              times: list[float]) -> np.ndarray:
        """(M0, Mc, Ms) per rule and thermal set of each (temperature, time) pair, not
        of their cross product: shape (2, sets, 1, 3, pairs).

        `temperatures[p]`, an index into the block of `factors`, pairs with `times[p]`.
        """
        return self._product(factors, np.asarray(times, dtype=float), temperatures)

    def _product(self, factors: list[np.ndarray], times: np.ndarray,
                 picks: list[int] | None) -> np.ndarray:
        """F @ K, K in blocks of times below K_BYTES, plus the vacuum moments: every
        temperature at every time, or with `picks` temperature picks[p] at times[p].
        Every moment at t = 0 is exactly 0, as E(w, 0) is, even where F is not finite."""
        sets, n_T = factors[0].shape[:2]
        out = np.zeros((2, sets, n_T if picks is None else 1, 3, times.size))
        lefts = self._layout[0]
        with np.errstate(**_NON_FINITE):
            # both rules share the panels, so each chunk of times takes one panel factor;
            # without panels there is no thermal part to integrate
            chunk = max(1, K_BYTES // (24 * max(1, *(omega.size for omega, _ in self._rules))))
            for t0 in range(0, times.size if lefts.size else 0, chunk):
                span = slice(t0, t0 + chunk)
                panel = _panel_factor(lefts, times[span])
                for k, ((omega, _), rows, order) in enumerate(
                        zip(self._rules, factors, self._orders)):
                    kernel = _kernel(self._layout, _unit_rule(order)[0], times[span], panel)
                    if picks is None:
                        block = kernel @ rows.reshape(-1, omega.size).T
                        out[k, ..., span] = block.reshape(3, -1, sets, n_T).transpose(2, 3, 0, 1)
                    else:
                        out[k, :, 0, :, span] = np.einsum("spw,cpw->scp", rows[:, picks[span]],
                                                          kernel)
                    del kernel  # freed before the next one is built
            out[:, 0] += _vacuum(self.sp, times)  # the 2 n(w) set carries all of coth
        out[..., times == 0.0] = 0.0
        return out

    def exponents(self, moments: np.ndarray,
                  sq: SqueezeParams | Sequence[SqueezeParams]) -> tuple[np.ndarray, ...]:
        """gamma, d gamma / d estimand, the pair's agreement and its gap on gamma per
        (T, t), as (temperatures, times) arrays.

        Takes the output of `moments` or `scan`, or of `pairs` as one row. `sq` is one
        SqueezeParams, or one per time that broadcasts against the time axis: with a
        single time, n of them give n columns, each assembled from the same moments.
        """
        # per squeezing the scalars a single one takes, so that every column is the same
        # arithmetic as its own call: cos and sin of theta, then the weights of gamma and
        # of the derivative; floats for one squeezing, else one row per scalar
        scalars = [
            (math.cos(one.theta), math.sin(one.theta), *derivative_rule(None, one.r)[1],
             *derivative_rule(self.estimand, one.r)[1])
            for one in ([sq] if isinstance(sq, SqueezeParams) else sq)
        ]
        cos_th, sin_th, *weights = scalars[0] if len(scalars) == 1 else np.array(scalars).T

        def assemble(m, a, b, c):
            # the moments of 1 + cos(theta - w t), 1 - cos(theta - w t), sin(theta - w t)
            even = cos_th * m[:, :, 1] + sin_th * m[:, :, 2]
            odd = sin_th * m[:, :, 1] - cos_th * m[:, :, 2]
            return a * (m[:, :, 0] + even) + b * (m[:, :, 0] - even) + c * odd

        def agrees(pair, scale):
            return np.abs(pair[0] - pair[1]) <= np.maximum(self.qc.abs_tol, self.qc.rel_tol * scale)

        with np.errstate(**_NON_FINITE):
            value = assemble(moments[:, 0], *weights[:3])
            # the derivative takes the last thermal set: d coth / dT where there is one
            derivative = assemble(moments[:, len(self._sets) - 1], *weights[3:])
            agree = agrees(value, np.abs(value[1])) & agrees(
                derivative, np.maximum(np.abs(derivative[1]), value[1])
            )
            gap = np.abs(value[0] - value[1])
        # the integrand of gamma is non-negative; roundoff can undershoot 0
        return np.maximum(value[1], 0.0), derivative[1], agree, gap

    def exponent(self, exponents: tuple[np.ndarray, ...], i: int, j: int,
                 point: BathPoint) -> tuple[float, float]:
        """(gamma, d gamma) at row i, time j of `exponents`, which sit at `point`.

        Raises ConvergenceError, naming the point, where the pair disagrees there.
        """
        values, derivatives, agree, gaps = exponents
        value = float(values[i, j])
        if not agree[i, j]:
            raise ConvergenceError(
                f"rule pair disagrees at (T, t) = ({point.temperature!r}, {point.time!r}): "
                f"gamma {value!r}, pair gap {gaps[i, j]:.3e} above tolerance "
                f"(rel_tol {self.qc.rel_tol:g}, abs_tol {self.qc.abs_tol:g}) on gamma or d gamma",
                value=value,
                est_error=float(gaps[i, j]),
                evaluations=self.nodes,
            )
        return value, float(derivatives[i, j])


def point_exponents(estimand: Estimand | None, point: BathPoint, sq: SqueezeParams,
                    sp: SpectralParams, qc: QuadratureConfig = DEFAULT_QUADRATURE,
                    ) -> tuple[float, float, float, int]:
    """gamma, d gamma / d estimand, the pair's gap on gamma and its node count at one point.

    A 1 x 1 batch; estimand None takes gamma itself as the derivative. t = 0 is
    exactly 0 with no nodes, and T = 0 takes no nodes either. Raises
    ConvergenceError where the pair disagrees, or where the rule would exceed
    NODE_BUDGET.
    """
    engine = MomentEngine(estimand, sp, qc, [point.temperature], point.time)
    exponents = engine.exponents(engine.moments([point.time]), sq)
    gamma_value, dgamma = engine.exponent(exponents, 0, 0, point)
    return gamma_value, dgamma, float(exponents[3][0, 0]), engine.nodes
