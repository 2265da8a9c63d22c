"""Independent oracle for gamma and d gamma: closed forms in the Hurwitz zeta function.

With coth(w / 2T) = 1 + 2 sum_{n >= 1} exp(-n w / T), every moment is a sum of
integrals int w**(s - 2) exp(-b w) (1 - exp(i k w t)) dw =
Gamma(s - 1) [b**(1 - s) - (b - i k t)**(1 - s)], with b = 1 / omega_c + n / T.
Summed over n with zeta(q, alpha) = sum_{n >= 0} (n + alpha)**(-q), the
integral of J(w) coth(w / 2T) (1 - exp(i k w t)) / w**2 is

    I_k = Gamma(s - 1) [1 - (1 - i k omega_c t)**(1 - s)]
          + 2 omega_c**(1 - s) Gamma(s - 1) T**(s - 1) [zeta(s - 1, a) - zeta(s - 1, a - i k T t)]

with a = 1 + T / omega_c; the second line is absent at T = 0. Then
M0 = Re I_1, Mc = Re I_2 / 2 - Re I_1 and Ms = Im I_2 / 2 - Im I_1 are the
moments of (1 - cos wt) [1, cos wt, sin wt], and gamma and each derivative
are written out from the squeezing bracket below. d/dT uses
d zeta(q, alpha) / d alpha = -q zeta(q + 1, alpha).

mpmath at 30 digits, no quadrature, and no package code but the parameter
records. s = 1 and s = 2 are poles of Gamma(s - 1) and zeta(1, .), which
this oracle does not resolve.
"""

import mpmath as mp

from qfibath.spectral_bath import Estimand

DPS = 30


def _moments(integrals):
    """(M0, Mc, Ms) from (I_1, I_2)."""
    first, second = integrals
    return first.real, second.real / 2 - first.real, second.imag / 2 - first.imag


def exponents(estimand, point, sq, sp):
    """(gamma, d gamma / d estimand) as floats."""
    with mp.workdps(DPS):
        T, t = mp.mpf(point.temperature), mp.mpf(point.time)
        r, theta = mp.mpf(sq.r), mp.mpf(sq.theta)
        s, omega_c = mp.mpf(sp.s), mp.mpf(sp.omega_c)
        q, scale = s - 1, mp.gamma(s - 1)
        a = 1 + T / omega_c
        integrals, integrals_dT = [], []
        for k in (1, 2):
            vacuum = scale * (1 - (1 - 1j * k * omega_c * t) ** (1 - s))
            thermal = thermal_dT = 0
            if T > 0:
                shifted = a - 1j * k * T * t
                factor = 2 * omega_c ** (1 - s) * scale
                difference = mp.zeta(q, a) - mp.zeta(q, shifted)
                thermal = factor * T**q * difference
                thermal_dT = factor * q * (
                    T ** (q - 1) * difference
                    + T**q * (mp.zeta(q + 1, shifted) * (1 / omega_c - 1j * k * t)
                              - mp.zeta(q + 1, a) / omega_c)
                )
            integrals.append(vacuum + thermal)
            integrals_dT.append(thermal_dT)

        def bracket(moments, shrink, grow, phase):
            # shrink (1 + cos(theta - wt)) + grow (1 - cos(theta - wt)) + phase sin(theta - wt)
            m0, mc, ms = moments
            even = mp.cos(theta) * mc + mp.sin(theta) * ms
            odd = mp.sin(theta) * mc - mp.cos(theta) * ms
            return shrink * (m0 + even) + grow * (m0 - even) + phase * odd

        low, high = mp.exp(-2 * r) / 2, mp.exp(2 * r) / 2
        moments = _moments(integrals)
        gamma_value = bracket(moments, low, high, 0)
        if estimand is Estimand.TEMPERATURE:
            derivative = bracket(_moments(integrals_dT), low, high, 0)
        elif estimand is Estimand.SQUEEZE_AMPLITUDE:
            derivative = bracket(moments, -2 * low, 2 * high, 0)
        elif estimand is Estimand.SQUEEZE_PHASE:
            derivative = bracket(moments, 0, 0, mp.sinh(2 * r))
        else:
            raise ValueError(f"unknown estimand {estimand!r}")
        return float(gamma_value), float(derivative)
