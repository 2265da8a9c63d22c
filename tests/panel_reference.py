"""Thermal moments by composite Gauss-Legendre quadrature: an oracle for the closed form.

The package sums the thermal part of each moment, the integrals of
J(w) 2 n(w) E(w, t) [1, cos wt, sin wt] / w**2 and of the same with
d coth / dT, in closed form. This module integrates them on a fixed rule, in
double precision and fast enough for seeded samples where QUADPACK is slow
(large omega_c t), so the tests compare the two. It shares no formula with the
closed form; `thermal_moments` adds nothing but the integrals.

The rule pair (orders ORDER and CHECK_ORDER) is laid out from the point:

- a boundary panel [0, a], a = min(omega_c / 100, T / 2, 1 / t), where n(w)
  and E are smooth and the integrand is w**(s - 1) times a smooth function.
  The panel keeps its Gauss-Legendre nodes, with product-integration weights
  exact for w**(s - 1) times any polynomial of degree below the order:
  W_i = g_i sum_k (2k + 1) P_k(2 x_i - 1) m_k on [0, 1], with the moments
  m_k = int_0^1 u**(s - 1) P_k(2u - 1) du, m_0 = 1 / s and
  m_k = m_(k-1) (s - k) / (s + k);
- geometric segments (ratio at most 2) from a to min(omega_c, W), and one on to
  W = OMEGA_MAX_FACTOR * max(1, s) / (1 / omega_c + 1 / T), where
  exp(-w / omega_c) n(w) has decayed;
- each segment split into equal panels of one width h, no wider than
  min(omega_c, MAX_PHASE / t). A node is w = L_p + h x_i.

The time kernel takes, by angle addition, e^(i w t/2) = e^(i L_p t/2) e^(i h x_i t/2),
with the rounding error of L_p t/2 from Dekker's product rotating the panel
factor on, so it holds to roundoff at each node's phase however large w t is.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from qfibath.spectral_bath import Estimand, SpectralParams, derivative_rule

ORDER = 20
CHECK_ORDER = 24

# widest panel, in radians of the oscillation w t
MAX_PHASE = 16.0

# upper limit of the thermal integral in units of max(1, s) / (1 / omega_c + 1 / T)
OMEGA_MAX_FACTOR = 50.0


def panel_layout(sp: SpectralParams, temperatures: list[float],
                 t_max: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panels of the rule as (left ends L_p, segment widths h_g, segment of each panel).

    Segment 0 is the boundary panel [0, a]; each later segment splits one geometric
    span up to the upper limit W into equal panels of one width. Empty where every
    temperature is 0 or t_max is.
    """
    positive = [T for T in temperatures if T > 0.0]
    if not positive or t_max == 0.0:  # no thermal part, or E(w, 0) = 0
        return np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)
    top = OMEGA_MAX_FACTOR * max(1.0, sp.s) / (1.0 / sp.omega_c + 1.0 / max(positive))
    a = min(sp.omega_c / 100.0, 0.5 * min(positive), 1.0 / t_max)
    width = min(sp.omega_c, MAX_PHASE / t_max)
    hi = min(sp.omega_c, top)
    coarse = np.geomspace(a, hi, math.ceil(math.log2(hi / a)) + 1)
    if top > coarse[-1]:
        coarse = np.append(coarse, top)
    spans = np.diff(coarse)
    panels = np.ceil(spans / width)
    counts = np.concatenate([[1], panels.astype(np.int64)])
    widths = np.concatenate([[a], spans / panels])
    segment = np.repeat(np.arange(counts.size), counts)
    step = np.arange(segment.size) - np.repeat(np.cumsum(counts) - counts, counts)
    lefts = step * widths[segment] + np.concatenate([[0.0], coarse[:-1]])[segment]
    return lefts, widths, segment


def unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def boundary_weights(order: int, s: float) -> np.ndarray:
    """Weights on the nodes of `unit_rule` that integrate u**(s - 1) p(u) over [0, 1]
    exactly for every polynomial p of degree below `order`: sum_k m_k (2k + 1) P_k g_i,
    with m_k = int_0^1 u**(s - 1) P_k(2u - 1) du = prod_{j <= k} ((s - j) / (s + j)) / s."""
    x, w = unit_rule(order)
    basis = legvander(2.0 * x - 1.0, order - 1).T * (2.0 * np.arange(order) + 1.0)[:, None] * w
    k = np.arange(float(order))
    return np.cumprod((s - k) / (s + k)) @ basis / s


def rule(order: int, layout: tuple[np.ndarray, ...], s: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes L_p + h_g x_i and weights of the composite rule of one order on the panels
    of `layout`. The boundary panel's weights integrate w**(s - 1) times a polynomial
    exactly, and are divided by w**(s - 1) there, so the integrand's own w**(s - 2)
    factor applies on every panel alike."""
    x, w = unit_rule(order)
    lefts, widths, segment = layout
    nodes = np.multiply.outer(widths, x)[segment]
    nodes += lefts[:, None]
    weights = np.multiply.outer(widths, w)[segment].ravel()
    weights[:order] = widths[0] * boundary_weights(order, s) / x ** (s - 1.0)
    return nodes.ravel(), weights


def thermal(omega: np.ndarray, temperature: float, out: np.ndarray,
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


def thermal_dT(omega: np.ndarray, temperature: float, out: np.ndarray,
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


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo, hi of at most 26 significant bits, so that the
    product of two hi parts is exact."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def panel_factor(lefts: np.ndarray, times: np.ndarray) -> np.ndarray:
    """e^(i L_p t/2) per time and panel left end, shape (times, panels), with the
    rounding error of L_p t/2 from Dekker's product rotating it on."""
    half = 0.5 * times[:, None]
    phase = half * lefts
    (t_hi, t_lo), (l_hi, l_lo) = _split(half), _split(lefts)
    error = t_hi * l_hi - phase
    error += t_lo * l_hi
    error += t_hi * l_lo
    error += t_lo * l_lo
    return np.exp(1j * phase) * (1.0 + 1j * error)  # e^(i error) to first order


def kernel(layout: tuple[np.ndarray, ...], x: np.ndarray, times: np.ndarray,
           panel: np.ndarray) -> np.ndarray:
    """E(w, t) [1, cos wt, sin wt] on the nodes w = L_p + h_g x_i of `layout` and the
    unit nodes `x`, shape (3, times, nodes); `panel` is the `panel_factor` of `times`."""
    _, widths, segment = layout
    half = 0.5 * times[:, None, None]
    rotation = np.take(np.exp(1j * (half * np.multiply.outer(widths, x))), segment, axis=1)
    rotation *= panel[..., None]
    rotation = rotation.reshape(times.size, -1)
    half_sin, half_cos = rotation.imag, rotation.real
    envelope = 2.0 * half_sin * half_sin
    # cos(wt) = 1 - E and sin(wt) = 2 sin(wt/2) cos(wt/2)
    return np.array([envelope, envelope * (1.0 - envelope), 2.0 * half_sin * half_cos * envelope])


def thermal_moments(estimand: Estimand | None, sp: SpectralParams, temperature: float,
                    time: float) -> tuple[np.ndarray, int]:
    """Thermal (M0, Mc, Ms) at one point per order (ORDER, CHECK_ORDER) and thermal set
    (2 n(w), then d coth / dT for the temperature estimand): shape (2, sets, 3), and
    the rule pair's node count."""
    sets = [thermal, thermal_dT] if derivative_rule(estimand, 0.0)[0] else [thermal]
    out = np.zeros((2, len(sets), 3))
    layout = panel_layout(sp, [temperature], time)
    if not layout[0].size:
        return out, 0
    times = np.array([time])
    panel = panel_factor(layout[0], times)
    nodes = 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k, order in enumerate((ORDER, CHECK_ORDER)):
            omega, weights = rule(order, layout, sp.s)
            # J(w) / w**2 = omega_c**(1 - s) w**(s - 2) exp(-w / omega_c)
            weights *= (sp.omega_c ** (1.0 - sp.s) * omega ** (sp.s - 2.0)
                        * np.exp(-omega / sp.omega_c))
            moments = kernel(layout, unit_rule(order)[0], times, panel)[:, 0]
            row, scratch = np.empty_like(omega), np.empty_like(omega)
            for i, thermal_set in enumerate(sets):
                thermal_set(omega, temperature, row, scratch)
                out[k, i] = moments @ (row * weights)
            nodes += omega.size
    return out, nodes
