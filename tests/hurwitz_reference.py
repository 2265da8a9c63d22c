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

s = 1 and s = 2 are poles of Gamma(s - 1) and of zeta(1, .); the oracle takes
their limits. At s = 2, zeta(1 + e, a) - zeta(1 + e, b) -> psi(b) - psi(a). At
s = 1 the vacuum part tends to log(1 - i k omega_c t), and with
zeta(e, a) = 1/2 - a + e (log Gamma(a) - log(2 pi) / 2) + O(e**2) the thermal
part tends to 2 [log Gamma(a) - log Gamma(a - i k T t)] and its d/dT, from
zeta(1 + e, a) = 1 / e - psi(a) + O(e), to
2 [psi(a) / omega_c - psi(a - i k T t) (1 / omega_c - i k t)]. The parts left
out, finite or divergent, are imaginary and linear in k, so they cancel in
(M0, Mc, Ms).

mpmath at 45 digits, no quadrature, and no package code but the parameter
records.
"""

import mpmath as mp

from qfibath.spectral_bath import Estimand

# at 45 digits every corner of the domain (s <= 10) probed gives the correctly rounded
# double; 30 digits lost up to 1.8e-12 there, and 1.7e-9 on gamma at s = 20, T = 100
DPS = 45


def _moments(integrals):
    """(M0, Mc, Ms) from (I_1, I_2)."""
    first, second = integrals
    return first.real, second.real / 2 - first.real, second.imag / 2 - first.imag


def _difference(q, a, b):
    """zeta(q, a) - zeta(q, b), which tends to psi(b) - psi(a) at the pole q = 1."""
    return mp.digamma(b) - mp.digamma(a) if q == 1 else mp.zeta(q, a) - mp.zeta(q, b)


def exponents(estimand, point, sq, sp):
    """(gamma, d gamma / d estimand) as floats."""
    with mp.workdps(DPS):
        T, t = mp.mpf(point.temperature), mp.mpf(point.time)
        r, theta = mp.mpf(sq.r), mp.mpf(sq.theta)
        s, omega_c = mp.mpf(sp.s), mp.mpf(sp.omega_c)
        q = s - 1
        a = 1 + T / omega_c
        integrals, integrals_dT = [], []
        for k in (1, 2):
            thermal = thermal_dT = 0
            shifted = a - 1j * k * T * t
            if q == 0:
                vacuum = mp.log(1 - 1j * k * omega_c * t)
                if T > 0:
                    thermal = 2 * (mp.loggamma(a) - mp.loggamma(shifted))
                    thermal_dT = 2 * (mp.digamma(a) / omega_c
                                      - mp.digamma(shifted) * (1 / omega_c - 1j * k * t))
            else:
                scale = mp.gamma(q)
                vacuum = scale * (1 - (1 - 1j * k * omega_c * t) ** (1 - s))
                if T > 0:
                    factor = 2 * omega_c ** (1 - s) * scale
                    difference = _difference(q, a, shifted)
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
