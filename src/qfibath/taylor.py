"""The Taylor branch of the thermal moments, for pairs with 2 T t below
`moments.SERIES_CUTOFF` a.

With q = s - 1, a = 1 + T / omega_c and eps = k T t,

    S(p) = sum_(m >= 2) (i eps)**m Gamma(p + m) / m! zeta(p + m, a),

and d/dT differentiates it term by term. `terms` builds, once per batch and only at
the temperatures that have such pairs, the factor of (i eps)**m of each order, from
real zeta(p + m, a) that a truncation of their own gives (`zeta`); `sums` adds a
block's terms per moment with the order weights of `moments`, so the cancellations
between I_1 and I_2 are exact. The vacuum moments below `moments.VACUUM_SERIES_CUTOFF`
are the same sum with zeta = 1 and omega_c t for T t: `sums` of a table of one row,
Gamma(q + m) / m!.
"""

from __future__ import annotations

import math

import numpy as np

# B_2j / (2j)! for j = 1..12
BERNOULLI = np.array([
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730,
]) / np.array([math.factorial(2 * j) for j in range(1, 13)], dtype=float)


def zeta(sigma: np.ndarray, a: np.ndarray, direct: int, bernoulli: int) -> np.ndarray:
    """Hurwitz zeta(sigma, a) for sigma > 1 and a >= 1 by Euler-Maclaurin, shape
    (a, sigma): `direct` terms, the tail and `bernoulli` Bernoulli terms at a + direct."""
    logs = np.log(a[:, None] + np.arange(direct + 1.0))
    powers = np.exp(-sigma[None, :, None] * logs[:, None, :])  # (a + n)**-sigma
    end = a + direct
    j = np.arange(1, bernoulli + 1)
    # rising factorials (sigma)_(2j-1)
    rising = np.cumprod(sigma[:, None] + np.arange(2 * bernoulli - 1.0), axis=1)[:, ::2]
    series = (rising * BERNOULLI[:bernoulli]
              * end[:, None, None] ** (1.0 - 2.0 * j)).sum(-1)
    last = powers[..., direct]
    return (powers[..., :direct].sum(-1)
            + last * (end[:, None] / (sigma - 1.0) + 0.5 + series))


def terms(coefficients: dict, truncations: tuple, s: float, tau: np.ndarray,
          used: np.ndarray, sets: int) -> np.ndarray:
    """The factor of (i eps)**m at each order m and temperature tau = T / omega_c, shape
    (truncation, set, m, T): Gamma(q + m) / m! zeta(q + m, a) and
    -Gamma(q + m + 1) / m! [zeta(q + m, a) - tau zeta(q + m + 1, a)], 0 past a
    truncation's own N + 2 + J orders. Only the temperatures `used` are computed; the
    others are 0."""
    orders = coefficients["orders"]
    plain, raised = coefficients["series"][:, :-1, None]
    out = np.zeros((len(truncations), sets, orders.size - 1, tau.size))
    for table, (n, j) in zip(out, truncations):
        values = np.zeros((orders.size, tau.size))  # zeta(q + m, a), (m, T)
        values[:, used] = zeta(s - 1.0 + orders, 1.0 + tau[used], n, j).T
        factors = [plain * values[:-1], -raised * (values[:-1] - tau * values[1:])]
        table[:, :n + 2 + j] = np.array(factors[:sets])[:, :n + 2 + j]
    return out


def sums(terms: np.ndarray, weights: np.ndarray, row: np.ndarray,
         products: np.ndarray) -> np.ndarray:
    """S(q) and the bracket of d I / dT of pairs at temperature row[p] of `terms` with
    T t = products[p], summed per moment with the weights of (i k)**m in (M0, Mc, Ms):
    shape (truncations, sets, 3, pairs), before the factors -2 tau**q and
    (2 / omega_c) tau**(q - 1). A table of one truncation, set and row sums the vacuum
    series."""
    m = 2 + np.arange(terms.shape[2])
    powers = products ** m[:, None]  # (m, pairs)
    summed = weights[:, m, None] * (powers * terms.take(row, -1)[:, :, None])
    # a running sum adds the terms in order at any number of pairs; NumPy's sum pairs
    # them up when the batch has one. The zero terms past a truncation's orders add 0
    return np.cumsum(summed, axis=-2, out=summed)[..., -1, :]
