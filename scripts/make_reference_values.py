#!/usr/bin/env python3
"""Regenerate the frozen high-precision constants used by the test suite.

Every value is computed with mpmath at 50 significant digits, completely
independently of the package code (tanh-sinh quadrature over [0, inf) and
mpmath's own numeric differentiation), then rounded to double precision.
Paste the printed dict into tests/reference_values.py when it changes.

Usage:
    python scripts/make_reference_values.py
"""

import argparse
import sys

import mpmath as mp

mp.mp.dps = 50


def bath_integrand(w, t, T, r, theta, s, omega_c=1):
    """Coherence-decay integrand, written directly from its definition."""
    w = mp.mpf(w)
    spectral = w**s * omega_c ** (1 - s) * mp.e ** (-w / omega_c)
    envelope = (1 - mp.cos(w * t)) / w**2
    bracket = mp.cosh(2 * r) - mp.cos(theta - w * t) * mp.sinh(2 * r)
    thermal = 1 if T == 0 else mp.coth(w / (2 * T))
    return spectral * envelope * bracket * thermal


def decay_exponent(t, T, r, theta, s, omega_c=1):
    f = lambda w: bath_integrand(w, t, T, r, theta, s, omega_c)
    return mp.quad(f, [0, 1, 10, 50, mp.inf])


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    values = {}

    values["coth_1"] = mp.coth(1)
    values["coth_5e-9"] = mp.coth(mp.mpf("5e-9"))
    values["coth_9.99e-5"] = mp.coth(mp.mpf("9.99e-5"))
    values["coth_1.001e-4"] = mp.coth(mp.mpf("1.001e-4"))
    values["dcoth_dT_w1_T0.7"] = mp.diff(lambda T: mp.coth(1 / (2 * T)), mp.mpf("0.7"))

    # small-frequency integrand stability fixture
    values["integrand_w0.01_t1_T1_r0_s0.5"] = bath_integrand(
        mp.mpf("0.01"), 1, 1, 0, 0, mp.mpf("0.5")
    )
    values["integrand_w0.01_t1_T1_r0.8_th1_s0.5"] = bath_integrand(
        mp.mpf("0.01"), 1, 1, mp.mpf("0.8"), 1, mp.mpf("0.5")
    )

    # decay exponents across the three regimes, with and without squeezing
    fixtures = {
        "gamma_T0.7_t1.3_r0.4_th1.1_s0.5": ("0.7", "1.3", "0.4", "1.1", "0.5"),
        "gamma_T0.7_t1.3_r0.4_th1.1_s1": ("0.7", "1.3", "0.4", "1.1", "1"),
        "gamma_T0.7_t1.3_r0.4_th1.1_s3": ("0.7", "1.3", "0.4", "1.1", "3"),
        "gamma_T0.3_t2_r1_th4_s1": ("0.3", "2", "1", "4", "1"),
        "gamma_T2_t0.5_r0_th0_s3": ("2", "0.5", "0", "0", "3"),
        "gamma_T1_t5_r1.5_thpi_s0.5": ("1", "5", "1.5", mp.pi, "0.5"),
        "gamma_T0_t1_r0.5_th2_s0.5": ("0", "1", "0.5", "2", "0.5"),
    }
    for name, (T, t, r, theta, s) in fixtures.items():
        args = [mp.mpf(v) if not isinstance(v, mp.mpf) else v for v in (t, T, r, theta, s)]
        values[name] = decay_exponent(*args)

    # parameter derivatives at (T=0.5, t=1, r=0.1, theta=1, s=0.5) by mpmath
    # numeric differentiation of the full quadrature
    base = dict(t=mp.mpf(1), T=mp.mpf("0.5"), r=mp.mpf("0.1"), theta=mp.mpf(1), s=mp.mpf("0.5"))
    values["dgamma_dT_fix"] = mp.diff(
        lambda T: decay_exponent(base["t"], T, base["r"], base["theta"], base["s"]), base["T"]
    )
    values["dgamma_dr_fix"] = mp.diff(
        lambda r: decay_exponent(base["t"], base["T"], r, base["theta"], base["s"]), base["r"]
    )
    values["dgamma_dtheta_fix"] = mp.diff(
        lambda theta: decay_exponent(base["t"], base["T"], base["r"], theta, base["s"]),
        base["theta"],
    )

    # radial derivative at r = 0: -2 integral J (1-cos wt)/w^2 cos(theta - wt) coth
    f = lambda w: (
        -2
        * w ** mp.mpf("0.5")
        * mp.e**-w
        * (1 - mp.cos(w)) / w**2
        * mp.cos(1 - w)
        * mp.coth(w)
    )
    values["dgamma_dr_at_r0_T0.5_t1_th1_s0.5"] = mp.quad(f, [0, 1, 10, 50, mp.inf])

    # closed-form information at a tiny exponent (expm1 path)
    values["qfi_tiny_gamma"] = mp.mpf("1e-5") ** 2 / mp.expm1(mp.mpf("2e-9"))

    print("REFERENCE_VALUES = {")
    for key, value in values.items():
        print(f'    "{key}": {mp.nstr(value, 17)},')
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
