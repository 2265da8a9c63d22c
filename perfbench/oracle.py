"""Independent mpmath oracle for gamma, d gamma and the QFI.

Written from the integral's definition, not from qfibath: it imports nothing
from the package. For estimand eta,

    gamma  = int_0^inf J(w) 2 sin^2(w t / 2) / w^2 * B(w) * C(w) dw
    dgamma = the same integral with B or C replaced by its eta-derivative
    qfi    = sin(alpha)^2 * dgamma^2 / (exp(2 gamma) - 1)

with J(w) = w^s omega_c^(1-s) exp(-w/omega_c), the squeezing bracket
B = cosh 2r - cos(theta - w t) sinh 2r and the thermal factor
C = coth(w / 2T) (1 at T = 0). The integral is cut into panels (see
`_panels`) up to W = omega_c (40 + 5 s), plus one tail panel to infinity;
beyond W the integrand is below 1e-16 of its peak for s <= 3.
"""

from __future__ import annotations

import math

DPS = 20

# Tolerances at which program outputs must match the oracle. gamma uses the
# ROADMAP tolerance with the package's absolute quadrature floor. The r- and
# theta-derivative integrands change sign and can cancel far below gamma's
# size while their quadrature error still scales with gamma, so dgamma's
# floor is relative to gamma. The QFI tolerance is what the gamma and dgamma
# tolerances imply through the closed form (see `qfi_tolerance`). Worst seed
# errors over 118 points of the point-stream domain and the fig7 grid:
# gamma 1.7e-9, dgamma 1.3e-9 (relative).
GAMMA_REL, GAMMA_ABS = 1e-8, 1e-12
DGAMMA_REL = 1e-8
# the frozen constants are compared at the loosest tolerance the test suite
# applies to any of them
CONSTANT_REL = 1e-8


def gamma_tolerance(g: float) -> float:
    """Allowed |error| of gamma."""
    return max(GAMMA_REL * abs(g), GAMMA_ABS)


def dgamma_tolerance(g: float, dg: float) -> float:
    """Allowed |error| of d gamma, given gamma."""
    return DGAMMA_REL * max(abs(dg), abs(g)) + GAMMA_ABS


def qfi_tolerance(g: float, dg: float, alpha: float = 0.5 * math.pi) -> float:
    """First-order spread of sin^2(a) dg^2 / expm1(2 g) over the gamma and dgamma tolerances."""
    if g == 0.0 or g > 350.0:  # beyond 350 the QFI is 0 to all double digits
        return GAMMA_ABS
    weight = math.sin(alpha) ** 2 / math.expm1(2.0 * g)
    q = weight * dg * dg
    d_dg = dgamma_tolerance(g, dg)
    d_g = gamma_tolerance(g)
    return (weight * (2.0 * abs(dg) * d_dg + d_dg * d_dg)
            + q * 2.0 * d_g / -math.expm1(-2.0 * g) + 1e-14 * q + 1e-300)


def mismatches(estimand: str, point: dict, got: dict) -> list[str]:
    """Compare program outputs {gamma, dgamma, qfi} with the oracle at `point`.

    `point` holds T, t, r, theta, s (and optionally omega_c, alpha). Returns
    one message per quantity out of tolerance; empty when all agree.
    """
    alpha = point.get("alpha", 0.5 * math.pi)
    g, dg = evaluate(estimand, point["T"], point["t"], point["r"], point["theta"],
                     point["s"], point.get("omega_c", 1.0))
    q = qfi(g, dg, alpha)
    out = []
    for name, want, tol in (("gamma", g, gamma_tolerance(g)),
                            ("dgamma", dg, dgamma_tolerance(g, dg)),
                            ("qfi", q, qfi_tolerance(g, dg, alpha))):
        value = got[name]
        if not (math.isfinite(value) and abs(value - want) <= tol):
            out.append(f"{name} = {value!r}, oracle {want!r} (tolerance {tol:.3g}) at "
                       f"estimand {estimand}, {point}")
    return out


def _panels(t: float, temperature: float, s: float, omega_c: float) -> tuple[list, list, float]:
    """(near, far, top): tanh-sinh panels below one period, Gauss-Legendre above.

    Near 0 the spectral ramp w^(s-1) is singular for s < 1 and the thermal
    factor turns over at w ~ 2T; tanh-sinh copes with both. Above one period
    the integrand is smooth and oscillatory, and Gauss-Legendre on panels of
    four periods is about three times faster at the same 20 digits.
    """
    import mpmath as mp

    top = omega_c * (40.0 + 5.0 * s)
    width = min(omega_c, 2.0 * math.pi / t)
    features = {1e-3 * omega_c, 1e-2 * omega_c, 1e-1 * omega_c,
                0.5 * temperature, 2.0 * temperature, 8.0 * temperature}
    near = [0.0] + sorted(p for p in features if 0.0 < p < width) + [width]
    far = [width]
    while far[-1] < top:
        far.append(min(top, far[-1] + 4.0 * width))
    return [mp.mpf(p) for p in near], [mp.mpf(p) for p in far], top


def _integrate(f, panels):
    import mpmath as mp

    near, far, top = panels
    return (mp.quad(f, near) + mp.quad(f, far, method="gauss-legendre")
            + mp.quad(f, [mp.mpf(top), mp.inf]))


def evaluate(estimand: str | None, temperature: float, t: float, r: float, theta: float,
             s: float, omega_c: float = 1.0) -> tuple[float, float]:
    """(gamma, dgamma/d estimand) at 20 digits; dgamma is 0.0 when estimand is None."""
    if t == 0.0:
        return 0.0, 0.0
    import mpmath as mp  # imported on first use, so it stays out of the measured RSS

    with mp.workdps(DPS):
        T, t_, r_, th, s_, wc = (mp.mpf(v) for v in (temperature, t, r, theta, s, omega_c))
        ch, sh = mp.cosh(2 * r_), mp.sinh(2 * r_)

        def base(w):
            return w**s_ * wc ** (1 - s_) * mp.exp(-w / wc) * 2 * mp.sin(w * t_ / 2) ** 2 / w**2

        def thermal(w):
            return mp.mpf(1) if T == 0 else mp.coth(w / (2 * T))

        def f_gamma(w):
            return base(w) * (ch - mp.cos(th - w * t_) * sh) * thermal(w)

        def f_partial(w):
            if estimand == "T":
                x = w / (2 * T)
                return (base(w) * (ch - mp.cos(th - w * t_) * sh)
                        * x / T / mp.sinh(x) ** 2)
            if estimand == "r":
                return base(w) * 2 * (sh - mp.cos(th - w * t_) * ch) * thermal(w)
            return base(w) * mp.sin(th - w * t_) * sh * thermal(w)

        panels = _panels(t, temperature, s, omega_c)
        g = _integrate(f_gamma, panels)
        if estimand is None or (estimand == "T" and temperature == 0.0):
            return float(g), 0.0
        dg = _integrate(f_partial, panels)
        return float(g), float(dg)


def qfi(gamma_value: float, dgamma: float, alpha: float = 0.5 * math.pi) -> float:
    """Closed-form QFI sin(alpha)^2 dgamma^2 / (exp(2 gamma) - 1), 0 at gamma = 0."""
    if gamma_value == 0.0:
        return 0.0
    import mpmath as mp

    with mp.workdps(DPS):
        return float(mp.sin(alpha) ** 2 * mp.mpf(dgamma) ** 2 / mp.expm1(2 * mp.mpf(gamma_value)))
