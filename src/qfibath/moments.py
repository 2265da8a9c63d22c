"""Batched evaluation of gamma and its parameter derivatives from frequency moments.

The squeezing bracket is linear in (1, cos wt, sin wt). With the temperature
factor f(T, w) = J(w) coth(w / 2T) / w**2 and E(w, t) = 2 sin(w t / 2)**2,

    M0 = int f E,   Mc = int f E cos(w t),   Ms = int f E sin(w t),
    C  = cos(theta) Mc + sin(theta) Ms,
    gamma = [exp(-2r) (M0 + C) + exp(2r) (M0 - C)] / 2,

grouped as in `spectral_bath.squeeze_kernel`. `exponents` runs this assembly as
rows: gamma's on thermal set 0 and the derivative's on the last set, each with the
weights of `spectral_bath.derivative_rule`, so another derivative is one more row.
With I_k = int f (1 - e^(i k w t)) dw for k = 1, 2, M0 = Re I_1,
Mc = Re I_2 / 2 - Re I_1 and Ms = Im I_2 / 2 - Im I_1, so any part of I_k that
is imaginary and linear in k cancels from all three; such parts are left out.

coth(w / 2T) = 1 + 2 n(w) splits I_k into a vacuum and a thermal part, both in
closed form.

Vacuum part: with x = omega_c t, L_k = log(1 - i k x) and
I_k = Gamma(s) expm1((1 - s) L_k) / (1 - s) (L_k at s = 1). Below
x = VACUUM_SERIES_CUTOFF, where that difference cancels the linear term of Ms, the
thermal part's Taylor series below takes over, with zeta = 1, T t = x and the factor
-1 for -2 tau**q. d coth / dT has no vacuum part.

Thermal part: 2 n(w) = 2 sum_(n >= 1) e^(-n w / T) sums to Hurwitz zeta
functions. With q = s - 1, tau = T / omega_c, a = 1 + tau, eps = k T t and
S(p) = -Gamma(p) [zeta(p, a) - zeta(p, a - i eps)],

    I_k = -2 tau**q S(q),
    d I_k / dT = (2 / omega_c) tau**(q-1) [-q S(q) + (tau - i eps) S(q + 1)],

and both are exactly 0 at T = 0. Euler-Maclaurin with N direct and J Bernoulli
terms gives, with w_n = a + n, x_n = -i eps / w_n and E_p(x) = [(1 + x)**p - 1] / p,

    S(p) = -Gamma(p + 1) [sum_(n < N) w_n**-p E_-p(x_n) + w_N**-p E_-p(x_N) / 2]
           - Gamma(p) w_N**(1-p) E_(1-p)(x_N)
           + w_N**(1-p) sum_(j <= J) Gamma(p + 2j - 1) B_2j / (2j)!
                        [(1 + x_N)**(1-p) (w_N - i eps)**-2j - w_N**-2j].

Gamma(q) has a pole at s = 1, so S(q) takes its direct and tail terms less their
linear parts, E_p(x) - x = (p - 1) P_p(x) with
P_p(x) = [(1 + x)**p - 1 - p x] / (p (p - 1)); S(q + 1) keeps them, as times
-i eps they are real. E and P are taken from expm1(p L), L = log1p(x), written
with real log1p, arctan, expm1, sin and cos, so s = 1 and s = 2, where Gamma(q)
and zeta(1, .) have poles, are ordinary points. Below 2 T t = SERIES_CUTOFF * a
the Taylor series S(p) = sum_(m >= 2) (i eps)**m Gamma(p + m) / m! zeta(p + m, a)
of `taylor` takes over, summed per moment with the weights `_ORDERS`, the map
`_by_moment` of the orders (i k)**m of (I_1, I_2), so the cancellations between
I_1 and I_2 are exact; the vacuum series is the same sum. d/dT
differentiates it term by term. Its real zeta(p + m, a) come from the same
Euler-Maclaurin truncation, once per temperature that has such pairs; truncations
and thermal sets are axes of its one table of terms.

Each point takes the two truncations of TRUNCATIONS: (N, J) Euler-Maclaurin
terms, or N + 2 + J Taylor terms. The second is reported. `exponents` measures,
per row, both truncations' values and eps times the size of the assembly's terms,
a bound on its rounding, which the truncations share, so their gap cannot see it:
at small omega t and theta near 0, M0 - C is about (omega t)**2 times M0, and
exp(2r) makes it most of gamma. `qfi_engine.qfi_table` alone judges the cells
against the QuadratureConfig tolerance and raises ConvergenceError.
What depends on the temperature alone is computed once per batch, at each of its
distinct temperatures (`_batch`), and the vacuum part, which depends on the time
alone, once at each distinct time, then gathered into the pairs; `_distinct` finds
both. Only the thermal part, of the pairs with T > 0 and t > 0, runs in blocks of
CHUNK pairs, each block added into its pairs of the result. A block costs only its
per-pair work, and its temporaries stay a block's size: the Euler-Maclaurin kernel
keeps two whole (n, k, pairs) tables, its direct terms, builds them in place and
releases each once summed; all else it keeps at the truncations' last rows. Every
sum over a pair's terms runs in one fixed order, so its moments are the same bits in
a batch of one pair as in any other batch.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import taylor
from .spectral_bath import Estimand, SpectralParams, SqueezeParams, derivative_rule
from .taylor import BERNOULLI

__all__ = [
    "TRUNCATIONS", "CHUNK", "SERIES_CUTOFF", "VACUUM_SERIES_CUTOFF",
    "QuadratureConfig", "DEFAULT_QUADRATURE", "ConvergenceError", "MomentEngine", "grid_pairs",
]

# (direct terms N, Bernoulli terms J) of the two Euler-Maclaurin truncations; the
# Taylor series takes N + 2 + J terms. The second truncation is reported.
TRUNCATIONS = ((3, 10), (4, 12))

# thermal pairs per block of a batch (the vacuum table is only (3, distinct times), so
# it takes no blocks): fig10's 2,560-pair scan peaks near 1 MiB of temporaries
# in blocks of 512, against 3.6 MiB in one block, which the allocator hands back to
# the system after each call and the next call faults in again (about 1,200 minor
# page faults, 2 MB of peak RSS); 384 and 1,024 measured slower
CHUNK = 512

# 2 T t / a below which the thermal moments come from their Taylor series
SERIES_CUTOFF = 0.05

# omega_c t below which the vacuum moments come from their Taylor series
VACUUM_SERIES_CUTOFF = 1e-3

# overflowing terms compute non-finite moments without warnings; they fail the
# checks of `qfi_engine.qfi_table`, which raises ConvergenceError
_NON_FINITE = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance of a cell's truncation gap and rounding bound (`qfi_engine.qfi_table`)."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        # an infinite tolerance accepts any truncation
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and > 0, got {self.abs_tol}")


DEFAULT_QUADRATURE = QuadratureConfig()


class ConvergenceError(RuntimeError):
    """A cell's numbers failed: its truncations disagreed above tolerance, the rounding
    of its assembly exceeded it, or its gamma, d gamma or qfi is invalid or not finite.
    Carries the reported value of gamma and the est_error that `qfi_engine.qfi_table`
    states, its gap or rounding bound, so callers can see how far off it ended up.
    """

    def __init__(self, message: str, value: float, est_error: float):
        super().__init__(message)
        self.value = value
        self.est_error = est_error


def _gamma_function(s: float) -> float:
    """Gamma(s), inf where it overflows, so the point fails a check instead of raising."""
    try:
        return math.gamma(s)
    except OverflowError:
        return math.inf


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """real + i imag, built in place: NumPy casts a real operand of complex arithmetic
    slowly."""
    out = np.empty(real.shape, dtype=complex)
    out.real, out.imag = real, imag
    return out


def _expm1(p: float, log: np.ndarray) -> np.ndarray:
    """expm1(p L) for complex L, from real expm1, sin and cos: NumPy's complex expm1
    and log1p lose the real part near 0."""
    grown = np.expm1(p * log.real)
    half = 0.5 * p * log.imag
    sin = np.sin(half)
    scale = 2.0 * (grown + 1.0) * sin
    return _complex(grown - scale * sin, scale * np.cos(half))


def _by_moment(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """(M0, Mc, Ms) = (Re I_1, Re I_2 / 2 - Re I_1, Im I_2 / 2 - Im I_1) from I_1 and I_2
    of one or two axes, stacked on the second-to-last axis (`np.stack` costs more)."""
    return np.array([first.real, 0.5 * second.real - first.real,
                     0.5 * second.imag - first.imag]).swapaxes(0, -2)


# the weight in (M0, Mc, Ms) of a term c (i k)**m of I_k, shape (3, orders), at every
# order m of the Taylor series (`_coefficients`), thermal and vacuum
_ORDERS = _by_moment(*np.power.outer([1j, 2j], np.arange(
    3 + max(n + 2 + j for n, j in TRUNCATIONS))))


def _vacuum(sp: SpectralParams, times: np.ndarray) -> np.ndarray:
    """Vacuum part of (M0, Mc, Ms) at each time, shape (3, times): the integrals of
    J(w) E(w, t) [1, cos, sin] / w**2, in closed form or, below VACUUM_SERIES_CUTOFF
    in x = omega_c t, as Taylor series."""
    s, x = sp.s, sp.omega_c * times
    coefficients = _coefficients(s, TRUNCATIONS)
    # I_k = Gamma(s) E(L_k), E(L) = expm1((1 - s) L) / (1 - s), L_k = log(1 - i k x)
    kx = np.multiply.outer([1.0, 2.0], x)  # (k, times)
    log = _complex(0.5 * np.log1p(kx ** 2), -np.arctan(kx))
    out = coefficients["tail"] * _by_moment(
        *(log if s == 1.0 else _expm1(1.0 - s, log) * (1.0 / (1.0 - s))))
    small = np.flatnonzero(x < VACUUM_SERIES_CUTOFF)
    if small.size:
        # the thermal series with zeta = 1, T t = x and factor -1: I_k = -sum_m (i k x)**m
        # Gamma(s + m - 1) / m!, as a (truncation, set, order, T) table of one row
        terms = -coefficients["series"][None, :1, :-1, None]
        out[:, small] = taylor.sums(terms, _ORDERS, np.zeros_like(small), x[small])[0, 0]
    return out


@lru_cache(maxsize=64)
def _coefficients(s: float, truncations: tuple) -> dict:
    """Everything of the Euler-Maclaurin and Taylor terms that depends on s and the
    truncations alone."""
    q = s - 1.0
    j = np.arange(1, BERNOULLI.size + 1)
    m = np.arange(2, 2 + max(n + 2 + k for n, k in truncations) + 1)  # one more for d/dT

    def gamma(values):  # a list, not np.vectorize, whose set-up costs more than the values
        return np.array([*map(_gamma_function, values.tolist())])

    factorial = np.array([math.factorial(int(k)) for k in m], dtype=float)
    # each truncation's Bernoulli terms: B_2j / (2j)! for j up to its J, else 0
    cut = np.array([np.where(j <= k, BERNOULLI, 0.0) for _, k in truncations])
    tables = {
        # Gamma(s + 1) and Gamma(s) of the direct and tail terms, and
        # Gamma(p + 2j - 1) B_2j / (2j)! per truncation for p = q, q + 1
        "direct": _gamma_function(s + 1.0),
        "tail": _gamma_function(s),
        "bernoulli": np.array([gamma(q + 2 * j - 1), gamma(q + 2 * j)])[:, None, :] * cut,
        # Gamma(q + m) / m! and Gamma(q + m + 1) / m! of the Taylor series; the vacuum
        # takes Gamma(s) and the first row too
        "series": np.array([gamma(q + m) / factorial, gamma(q + m + 1) / factorial]),
    }
    # above s = 148.6, Gamma(s + 23) overflows: no thermal term is then representable
    # (the vacuum series' Gamma(s + 18) overflows above s = 153.6)
    finite = all(np.isfinite(table).all() for table in tables.values())
    return {**tables, "orders": m, "finite": finite}


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values, ascending, and each value's row among them: np.unique's
    values and inverse, at less cost. 0 or 1 values are their own distinct set."""
    if values.size < 2:
        return values, np.arange(values.size)
    order = values.argsort()
    ordered = values[order]
    new = np.empty(ordered.size, dtype=bool)
    new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    rows = np.empty(ordered.size, dtype=int)
    rows[order] = new.cumsum() - 1
    return ordered[new], rows


class MomentEngine:
    """Moments of one spectral density at any (T, t) pairs.

    `moments` evaluates a list of pairs in one call: a grid is the flattened
    cross product of its temperatures and times (`grid_pairs`), a search round
    its list of probes. Each pair has one thermal set per row of
    `derivative_rule`: the moments with coth, then, for the temperature
    estimand, those with d coth / dT. An engine holds only its parameters, so
    the functions of `qfi_engine` and `sweep_optimize` stay safe to call
    concurrently.
    """

    def __init__(self, estimand: Estimand | None, sp: SpectralParams, qc: QuadratureConfig):
        self.estimand, self.sp, self.qc = estimand, sp, qc
        self.sets = 2 if derivative_rule(estimand, 0.0)[0] else 1

    @property
    def coefficients_finite(self) -> bool:
        """Whether every Gamma coefficient of the terms is finite at s (not above 148.6)."""
        return _coefficients(self.sp.s, TRUNCATIONS)["finite"]

    def moments(self, temperatures: Sequence[float], times: Sequence[float]) -> np.ndarray:
        """(M0, Mc, Ms) per truncation and thermal set at each pair
        (temperatures[p], times[p]): shape (2, sets, 3, pairs). Every moment at t = 0
        is exactly 0, and at T = 0 the thermal set d coth / dT is."""
        temperatures = np.asarray(temperatures, dtype=float)
        times = np.asarray(times, dtype=float)
        out = np.zeros((2, self.sets, 3, times.size))
        with np.errstate(**_NON_FINITE):
            distinct, rows = _distinct(times)
            out[:, 0] = _vacuum(self.sp, distinct).take(rows, 1)
            hot = np.flatnonzero((temperatures > 0.0) & (times > 0.0))
            if not self.coefficients_finite:
                out[..., hot] = np.nan  # above s = 148.6: every thermal point fails
            elif hot.size:
                batch = self._batch(temperatures[hot], times[hot])
                for start in range(0, hot.size, CHUNK):  # blocks of the hot pairs
                    part = slice(start, start + CHUNK)
                    row, products, series = (batch[key][part]
                                             for key in ("row", "products", "series"))
                    for branch, pick in ((self._taylor, series), (self._euler_maclaurin, ~series)):
                        if pick.any():
                            chosen = row[pick]
                            out[..., hot[part][pick]] += (branch(batch, chosen, products[pick])
                                                          * batch["factors"].take(chosen, -1))
        out[..., times == 0.0] = 0.0
        return out

    def _batch(self, temperatures: np.ndarray, times: np.ndarray) -> dict:
        """What the thermal terms of the pairs (temperatures[p] > 0, times[p] > 0) take
        from the temperature alone, once per batch. Per pair: its `row` among the distinct
        temperatures, its T t and whether it takes the Taylor `series`. Per temperature:
        the factors -2 tau**q and (2 / omega_c) tau**(q - 1) of the sets, shape
        (sets, 1, T); the Taylor `terms` at the temperatures that have such pairs; and,
        if any pair takes Euler-Maclaurin, its w_n, w_n**-p, w_N**(1 - p) and w_N**(1 - p)
        times the Bernoulli polynomial at w_N**-2, for p = q, q + 1."""
        sp, sets = self.sp, self.sets
        coefficients = _coefficients(sp.s, TRUNCATIONS)
        distinct, row = _distinct(temperatures)
        tau = distinct / sp.omega_c
        scale = tau ** (sp.s - 1.0)
        factors = [-2.0 * scale]
        if sets == 2:
            factors.append(2.0 / sp.omega_c * (scale / tau))
        products = temperatures * times
        series = 2.0 * products < SERIES_CUTOFF * (1.0 + tau)[row]
        batch = {"row": row, "products": products, "series": series, "tau": tau,
                 "factors": np.array(factors)[:, None]}
        rows = row[series]
        if rows.size:
            used = np.zeros(tau.size, dtype=bool)
            used[rows] = True
            batch["terms"] = taylor.terms(coefficients, TRUNCATIONS, sp.s, tau, used, sets)
        if rows.size < row.size:
            ends = [n for n, _ in TRUNCATIONS]
            w = (1.0 + tau[:, None] + np.arange(ends[-1] + 1.0)).T  # (n, T)
            sigma = sp.s - 1.0 + np.arange(sets)[:, None, None]
            w_end = w[ends]  # (ends, T)
            bernoulli = coefficients["bernoulli"][:sets].transpose(2, 0, 1)  # (j, p, ends)
            j = np.arange(1.0, bernoulli.shape[0] + 1)[:, None, None, None]
            rise = w_end ** (1.0 - sigma)  # (p, ends, T)
            batch.update(w=w, scale=w ** -sigma, rise=rise, bernoulli=bernoulli,
                         gammas=(coefficients["direct"], coefficients["tail"]),
                         plain=(bernoulli[..., None] * w_end ** (-2.0 * j)).sum(0) * rise)
        return batch

    def _taylor(self, batch: dict, row: np.ndarray, products: np.ndarray) -> np.ndarray:
        """S(q) and the bracket of d I / dT as Taylor series in T t (`taylor.sums`)."""
        return taylor.sums(batch["terms"], _ORDERS, row, products)

    def _euler_maclaurin(self, batch: dict, row: np.ndarray, products: np.ndarray) -> np.ndarray:
        """S(q) and the bracket of d I / dT by Euler-Maclaurin, per moment, of pairs at
        temperature row[p] of `batch` with T t = products[p]: shape (2, sets, 3, pairs),
        before the factors -2 tau**q and (2 / omega_c) tau**(q - 1).

        One expm1 of the whole (n, k, pairs) table, at exponent 1 - s or -s, gives
        E_(1-s), E_(-s), P_(1-s) and (1 + x)**(1 - s); P_(2-s) at the ends takes its
        own from s = 3/2, where no other form of it is free of cancellation. Only the
        direct terms P_(1-s) and E_(-s) are needed at every n: they are built in place,
        everything else is kept at the ends alone, and each direct table is released
        once summed, so a block of CHUNK pairs holds few whole tables at once.
        """
        s, sets = self.sp.s, self.sets
        ends = np.array([n for n, _ in TRUNCATIONS])  # `take` copies rows faster than [ends]
        w_row = batch["w"].take(row, 1)[:, None]  # w_n per pair, (n, 1, pairs)
        eps = np.multiply.outer([1.0, 2.0], products)  # (k, pairs)
        y = eps / w_row  # (n, k, pairs)
        x = -1j * y
        log = _complex(0.5 * np.log1p(y * y), -np.arctan(y))  # log1p(x)
        del y
        x_end, log_end = x.take(ends, 0), log.take(ends, 0)
        # E_(-s) `lower` and P_(1-s) `first` in place, E_(1-s) `ratio` and (1 + x)**(1 - s)
        # `power` at the ends; divisions by real numbers as products, which NumPy takes faster
        if s >= 0.5:
            grown = _expm1(1.0 - s, log)
            power = 1.0 + grown.take(ends, 0)
            first = log if s == 1.0 else grown * (1.0 / (1.0 - s))
            del log
            ratio = first.take(ends, 0)
            first -= x
            first *= -1.0 / s
            lower = grown
            if sets == 2:
                lower -= x
                lower /= 1.0 + x
                lower *= -1.0 / s
        else:
            grown = _expm1(-s, log)
            del log
            grown_end = grown.take(ends, 0)
            ratio = (x_end + grown_end * (1.0 + x_end)) * (1.0 / (1.0 - s))
            power = (1.0 + x_end) * (1.0 + grown_end)
            lower = np.multiply(grown, -1.0 / s, out=grown)
            first = (1.0 + x) * lower
            first -= x
            first *= 1.0 / (1.0 - s)
        del x, grown
        # S(q) from P, and S(q + 1) from E, both with Gamma(s + 1) and Gamma(s): each direct
        # table times w_n**-p, summed in place to each end plus half the end term, and released
        gamma_direct, gamma_tail = batch["gammas"]

        def summed(p, factor, direct):
            np.multiply(factor, direct, out=direct)
            direct *= batch["scale"][p].take(row, 1)[:, None]
            half = 0.5 * direct.take(ends, 0)
            for n in range(1, ends[-1]):  # a running sum of the rows, in order
                direct[n] += direct[n - 1]
            return direct.take(ends - 1, 0) + half

        first = summed(0, gamma_direct, first)
        lower = summed(1, -gamma_direct, lower) if sets == 2 else None
        # at the ends: P_(2-s), (1 + x)**(1 - p) for p = q, q + 1, and (w_N - i eps)**-2
        if s >= 1.5:
            tail = (log_end if s == 2.0 else _expm1(2.0 - s, log_end) / (2.0 - s)) - x_end
            tail *= 1.0 / (1.0 - s)
        else:
            tail = ((1.0 + x_end) * ratio - x_end) * (1.0 / (2.0 - s))
        shifted = 1.0 / (w_row.take(ends, 0) * (1.0 + x_end)) ** 2
        # the Bernoulli polynomials of both p at (w_N - i eps)**-2, by Horner's rule
        polynomial = np.zeros((sets, *shifted.shape), dtype=complex)
        real = polynomial.real  # the coefficients are real: added here, they are not cast
        for coefficient in batch["bernoulli"][::-1, ..., None, None]:
            real += coefficient
            polynomial *= shifted
        rise, plain = (batch[key].take(row, 2)[..., None, :] for key in ("rise", "plain"))
        powers = [(1.0 + x_end) * power, power]
        terms = [(first, gamma_tail * tail), (lower, -gamma_tail * ratio)][:sets]
        del tail, ratio, x_end, power
        sums = np.array([direct + rise[p] * (end + powers[p] * polynomial[p]) - plain[p]
                         for p, (direct, end) in enumerate(terms)])  # (sets, ends, k, pairs)
        if sets == 2:  # -q S(q) + (tau - i eps) S(q + 1)
            sums[1] = (1.0 - s) * sums[0] + (batch["tau"].take(row) - 1j * eps) * sums[1]
        return _by_moment(*sums.transpose(2, 0, 1, 3))

    def exponents(self, moments: np.ndarray, squeezes: Sequence[SqueezeParams]) -> np.ndarray:
        """What the assembly measures at each of the k * n cells, the k `squeezes` over the
        n pairs of `moments` (the output of `moments`), squeezing outer and pair inner:
        shape (rows, 3, cells), the rows gamma and the derivative, each with its first
        truncation's value, its reported one's and eps (|a| + |b| + |c|)
        (|M0| + |Mc| + |Ms|), a bound on the rounding of the reported assembly.
        """
        # per squeezing, as a (k, 1) column against the pairs, the scalars of its own
        # call: cos and sin of theta, then the weights of gamma and of the derivative
        table = np.array([
            (math.cos(one.theta), math.sin(one.theta), *derivative_rule(None, one.r)[1],
             *derivative_rule(self.estimand, one.r)[1])
            for one in squeezes
        ]).T[..., None]
        cos_th, sin_th, weights = table[0], table[1], table[2:].reshape(2, 3, -1, 1)
        # eps times the size of each row's weights: a rounded sum errs by a few
        # eps = ulp(1) relative to the size of its terms
        spans = math.ulp(1.0) * np.abs(weights).sum(1)
        out = np.empty((2, 3, len(squeezes) * moments.shape[-1]))
        # the rows of one assembly: gamma on the coth set, then the derivative on the
        # last set, d coth / dT where there is one
        rows = zip(out, weights, spans, (moments[:, 0], moments[:, self.sets - 1]))
        with np.errstate(**_NON_FINITE):
            for row, (a, b, c), span, m in rows:
                # the moments of 1 + cos(theta - w t), 1 - cos(theta - w t), sin(theta - w t)
                m = m[:, :, None]
                even = cos_th * m[:, 1] + sin_th * m[:, 2]
                odd = sin_th * m[:, 1] - cos_th * m[:, 2]
                row[:2] = (a * (m[:, 0] + even) + b * (m[:, 0] - even) + c * odd).reshape(2, -1)
                row[2] = (span * np.abs(m[1]).sum(0)).reshape(-1)
                del even, odd  # hold one row's temporaries at a time
        return out


def grid_pairs(temperatures: Sequence[float],
               times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """The (T, t) pairs of a grid, temperature outer, time inner."""
    return np.repeat(temperatures, len(times)), np.tile(times, len(temperatures))
