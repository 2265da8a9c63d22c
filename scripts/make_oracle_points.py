#!/usr/bin/env python3
"""Regenerate the mpmath oracle values of the `point` tests at the domain's edges.

Each value is gamma or d gamma / d estimand at one point, computed with mpmath
at 30 significant digits from the integral's definition, independently of the
package code:

- below w1 = min(10 pi / t, W) the integral runs in the log variable w = e^v,
  with tanh-sinh quadrature on unit panels of v. Below v0 = log(1e-12 *
  min(omega_c, 1 / t, T)) the integrand in v is a slow exponential
  exp(s v) for small s, so that tail is integrated in the variable s v;
- from w1 to W = omega_c (150 + 10 s), past which exp(-w / omega_c) leaves
  nothing at this precision, the integrand oscillates with period 2 pi / t and
  goes through 48-point Gauss-Legendre on panels of two periods.

Paste the printed entries into ORACLE_POINTS of tests/test_cli.py when they change.

Usage:
    python scripts/make_oracle_points.py
"""

import mpmath as mp

mp.mp.dps = 30

FLAGS = ("--temp", "--time", "--r", "--theta", "--s", "--omega-c")

# (estimand, T, t, r, theta, s, omega_c), as the CLI flags spell them
POINTS = [
    ("T", "0.001010978599556907", "0.011872206906483511", "0.5", "1",
     "0.018298995385134315", "0.5989569279067135"),
    ("T", "0.01760295524751876", "0.32784051923015306", "0.5", "1",
     "0.024814729752182865", "11.041716622533146"),
    ("r", "0.5", "1000", "0.5", "1", "0.05", "1"),
    ("r", "0", "1", "0.5", "1", "0.05", "1000"),
    ("T", "0.001", "0.3", "0.5", "1", "0.001", "1"),
    ("T", "0.5", "1e-06", "1.5", "0", "2.5", "1"),
    ("T", "0.5", "0.0001", "1.5", "0", "2.5", "1"),
    ("r", "0.5", "1e-06", "1.5", "0", "10", "1"),
    ("r", "0.5", "0.0001", "1.5", "0", "10", "1"),
    ("theta", "0.5", "1e-06", "1.5", "0", "0.5", "1"),
    ("theta", "0.5", "0.0001", "1.5", "0", "0.5", "1"),
]


def integrands(estimand, T, t, r, theta, s, omega_c):
    """w -> (gamma integrand, derivative integrand), written from the definition."""

    def f(w):
        spectral = w**s * omega_c ** (1 - s) * mp.exp(-w / omega_c)
        envelope = 2 * mp.sin(w * t / 2) ** 2 / w**2  # (1 - cos wt) / w^2 without cancellation
        phase = theta - w * t
        bracket = mp.cosh(2 * r) - mp.cos(phase) * mp.sinh(2 * r)
        thermal = 1 if T == 0 else mp.coth(w / (2 * T))
        common = spectral * envelope
        if estimand == "T":
            dthermal = 0 if T == 0 else (w / (2 * T**2)) / mp.sinh(w / (2 * T)) ** 2
            derivative = common * bracket * dthermal
        elif estimand == "r":
            dbracket = 2 * mp.sinh(2 * r) - 2 * mp.cos(phase) * mp.cosh(2 * r)
            derivative = common * dbracket * thermal
        else:
            derivative = common * mp.sin(phase) * mp.sinh(2 * r) * thermal
        return common * bracket * thermal, derivative

    return f


def integrate(f, T, t, s, omega_c):
    """int_0^inf of both integrands of f."""
    top = omega_c * (150 + 10 * s)
    w1 = min(10 * mp.pi / t, top)
    v0 = mp.log(mp.mpf("1e-12") * min([omega_c, 1 / t] + ([T] if T > 0 else [])))
    v1 = mp.log(w1)
    total = [mp.mpf(0), mp.mpf(0)]
    for k in range(2):
        # the tail below v0, in u = s v
        total[k] += mp.quad(lambda u: f(mp.exp(u / s))[k] * mp.exp(u / s), [-mp.inf, s * v0]) / s
        edges = mp.linspace(v0, v1, int(mp.ceil(v1 - v0)) + 1)
        total[k] += mp.quad(lambda v: f(mp.exp(v))[k] * mp.exp(v), edges)
    # two periods of the oscillation per Gauss-Legendre panel
    nodes = mp.calculus.quadrature.GaussLegendre(mp.mp).calc_nodes(5, mp.mp.prec)
    width = 4 * mp.pi / t
    lo = w1
    while lo < top:
        hi = min(lo + width, top)
        half, mid = (hi - lo) / 2, (hi + lo) / 2
        for x, weight in nodes:
            values = f(mid + half * x)
            total[0] += half * weight * values[0]
            total[1] += half * weight * values[1]
        lo = hi
    return total


def main():
    for estimand, *values in POINTS:
        T, t, r, theta, s, omega_c = (mp.mpf(value) for value in values)
        f = integrands(estimand, T, t, r, theta, s, omega_c)
        gamma_value, dgamma = integrate(f, T, t, s, omega_c)
        flags = [f'"{flag}", "{value}"' for flag, value in zip(FLAGS, values)]
        print(f'    (["--estimand", "{estimand}", {", ".join(flags)}],')
        print(f"     {mp.nstr(gamma_value, 17)}, {mp.nstr(dgamma, 17)}),")


if __name__ == "__main__":
    main()
