"""Parameter sweeps, (t, T) density grids and optimal-time curves.

Every table and search runs on the moment engine (`moments`), as single
points do. A table is one batch of (T, t) pairs (a grid's is the flattened
cross product of its axes), and sweeps, grids and each round of a search take
it through `qfi_engine.qfi_table`: one exponents call by array algebra on the
moments, then one pass that checks each cell in row-major order and builds no
record per cell. The first failing cell aborts the run with its location and
the message it would raise alone. Identical specs always produce bit-identical
tables. The optimal-time search brackets the global maximum with a coarse scan
before golden-section refinement, because the squeezing kernel can make the
information oscillate in t and unimodal search alone would lock onto the wrong
peak. A curve searches all its temperatures as one batch: their coarse scans
are one (T, t) table like a grid, and the refinement runs in lockstep, each
round one table of (T, t) pairs, one per temperature whose bracket is still
open.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from math import isfinite, sqrt

import numpy as np

from .moments import DEFAULT_QUADRATURE, MomentEngine, QuadratureConfig, grid_pairs
from .probe_state import ProbeInit
from .qfi_engine import Estimand, _check_estimable, qfi_table
from .spectral_bath import BathPoint, SpectralParams, SqueezeParams

__all__ = [
    "SWEEP_AXES",
    "SweepSpec",
    "SweepTable",
    "GridSpec",
    "GridTable",
    "OptimalTimeSpec",
    "OptimalTimeResult",
    "OptimalTimeCurve",
    "sweep",
    "density_grid",
    "optimal_time_curve",
    "optimal_time",
    "run_metadata",
]

SWEEP_AXES = ("T", "t", "r", "theta", "alpha")

_INV_PHI = 0.5 * (sqrt(5.0) - 1.0)


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep: which estimand, which axis, its range, and the fixed rest."""

    estimand: Estimand
    axis: str
    lo: float
    hi: float
    points: int
    point: BathPoint
    sq: SqueezeParams
    sp: SpectralParams
    init: ProbeInit = ProbeInit()

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not (isfinite(self.lo) and isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"lo must be finite and below hi, got [{self.lo}, {self.hi}]")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        # both ends must make valid records of the swept variable
        for name, value in (("lo", self.lo), ("hi", self.hi)):
            try:
                _with_axis_value(self.axis, value, self.point, self.sq, self.init)
            except ValueError as exc:
                raise ValueError(f"{name} leaves the domain of axis {self.axis}: {exc}") from exc
        if self.estimand is Estimand.TEMPERATURE and self.axis == "T" and self.lo <= 0.0:
            raise ValueError(f"lo must be > 0 when estimating T, got {self.lo}")
        if self.axis != "T":
            _check_estimable(self.estimand, self.point)


@dataclass(frozen=True)
class SweepTable:
    """Sweep result: (axis value, gamma, dgamma, qfi) rows in ascending axis order."""

    spec: SweepSpec
    rows: tuple[tuple[float, float, float, float], ...]
    metadata: dict = field(compare=False)


@dataclass(frozen=True)
class GridSpec:
    """Two-axis (t, T) grid with everything else fixed."""

    estimand: Estimand
    t_lo: float
    t_hi: float
    T_lo: float
    T_hi: float
    t_points: int
    T_points: int
    sq: SqueezeParams
    sp: SpectralParams
    init: ProbeInit = ProbeInit()

    def __post_init__(self) -> None:
        for axis, lo, hi, points in (("t", self.t_lo, self.t_hi, self.t_points),
                                     ("T", self.T_lo, self.T_hi, self.T_points)):
            if not (isfinite(lo) and isfinite(hi) and lo < hi):
                raise ValueError(f"{axis}_lo must be finite and below {axis}_hi, got [{lo}, {hi}]")
            if lo < 0.0:
                raise ValueError(f"{axis}_lo must be >= 0, got {lo}")
            if points < 2:
                raise ValueError(f"{axis}_points must be >= 2, got {points}")
        if self.estimand is Estimand.TEMPERATURE and self.T_lo <= 0.0:
            raise ValueError(f"T_lo must be > 0 when estimating T, got {self.T_lo}")


@dataclass(frozen=True)
class GridTable:
    """Grid result: (T, t, gamma, dgamma, qfi) rows, row-major, temperature outer,
    time inner."""

    spec: GridSpec
    rows: tuple[tuple[float, float, float, float, float], ...]
    metadata: dict = field(compare=False)


@dataclass(frozen=True)
class OptimalTimeSpec:
    """Optimal-time curve: `T_points` temperatures evenly spaced over [T_lo, T_hi]
    (T_lo alone when T_points is 1), each searched over [0, t_max]."""

    estimand: Estimand
    T_lo: float
    T_hi: float
    T_points: int
    sq: SqueezeParams
    sp: SpectralParams
    init: ProbeInit = ProbeInit()
    t_max: float = 10.0
    coarse_points: int = 64

    def __post_init__(self) -> None:
        if not (isfinite(self.T_lo) and isfinite(self.T_hi) and self.T_lo <= self.T_hi):
            raise ValueError(
                f"T_lo must be finite and at most T_hi, got [{self.T_lo}, {self.T_hi}]"
            )
        if self.T_lo < 0.0:
            raise ValueError(f"T_lo must be >= 0, got {self.T_lo}")
        if self.estimand is Estimand.TEMPERATURE and self.T_lo <= 0.0:
            raise ValueError(f"T_lo must be > 0 when estimating T, got {self.T_lo}")
        if self.T_points < 1:
            raise ValueError(f"T_points must be >= 1, got {self.T_points}")
        if self.T_lo == self.T_hi and self.T_points > 1:
            raise ValueError(f"T_points must be 1 when T_lo equals T_hi, got {self.T_points}")
        if not (isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")
        if self.coarse_points < 3:
            raise ValueError(f"coarse_points must be >= 3, got {self.coarse_points}")


@dataclass(frozen=True)
class OptimalTimeResult:
    """Interaction time maximizing the information at one temperature."""

    temperature: float
    t_star: float
    qfi_star: float
    bracket: float


@dataclass(frozen=True)
class OptimalTimeCurve:
    """One OptimalTimeResult per temperature of the spec, in ascending order."""

    spec: OptimalTimeSpec
    results: tuple[OptimalTimeResult, ...]
    metadata: dict = field(compare=False)


def run_metadata(qc: QuadratureConfig) -> dict:
    """Tool, version, quadrature settings and a UTC timestamp."""
    from . import __version__

    return {
        "tool": "qfibath",
        "version": __version__,
        "quadrature": asdict(qc),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _with_axis_value(
    axis: str, value: float, point: BathPoint, sq: SqueezeParams, init: ProbeInit
) -> tuple[BathPoint, SqueezeParams, ProbeInit]:
    if axis == "T":
        return replace(point, temperature=value), sq, init
    if axis == "t":
        return replace(point, time=value), sq, init
    if axis == "r":
        return point, replace(sq, r=value), init
    if axis == "theta":
        return point, replace(sq, theta=value), init
    return point, sq, replace(init, alpha=value)


def sweep(spec: SweepSpec, qc: QuadratureConfig = DEFAULT_QUADRATURE) -> SweepTable:
    """The information at `points` equally spaced axis values.

    One moment evaluation serves the whole sweep: a T or t axis spans its
    values in the batch, any other axis reuses the moments of its single
    (T, t), and one `exponents` call assembles every value. A failure
    at any point aborts the whole sweep with the axis value attached; tables
    never contain silent gaps.
    """
    values = [float(value) for value in np.linspace(spec.lo, spec.hi, spec.points)]
    pairs = len(values) if spec.axis in ("T", "t") else 1
    temperatures = values if spec.axis == "T" else [spec.point.temperature] * pairs
    times = values if spec.axis == "t" else [spec.point.time] * pairs
    engine = MomentEngine(spec.estimand, spec.sp, qc)
    # an axis other than T or t takes one value per squeezing, from the one (T, t)
    varied = [] if spec.axis in ("T", "t") else [
        _with_axis_value(spec.axis, value, spec.point, spec.sq, spec.init) for value in values]
    squeezes = [sq for _, sq, _ in varied] or spec.sq
    inits = [init for *_, init in varied] if spec.axis == "alpha" else spec.init
    gammas, dgammas, qfis = qfi_table(engine, temperatures, times, squeezes, inits,
                                      lambda k: f"sweep aborted at {spec.axis} = {values[k]!r}")
    rows = zip(values, gammas, dgammas, qfis)
    return SweepTable(spec=spec, rows=tuple(rows), metadata=run_metadata(qc))


def density_grid(spec: GridSpec, qc: QuadratureConfig = DEFAULT_QUADRATURE) -> GridTable:
    """Full t x T grid of (T, t, gamma, dgamma, qfi) rows, temperature outer, time inner,
    checked and computed as one table."""
    temperatures = [float(T) for T in np.linspace(spec.T_lo, spec.T_hi, spec.T_points)]
    times = [float(t) for t in np.linspace(spec.t_lo, spec.t_hi, spec.t_points)]
    engine = MomentEngine(spec.estimand, spec.sp, qc)
    gammas, dgammas, qfis = qfi_table(
        engine, *grid_pairs(temperatures, times), spec.sq, spec.init,
        lambda k: f"grid aborted at (T, t) = "
                  f"({temperatures[k // len(times)]!r}, {times[k % len(times)]!r})")
    rows = zip(np.repeat(temperatures, len(times)).tolist(), times * len(temperatures),
               gammas, dgammas, qfis)
    return GridTable(spec=spec, rows=tuple(rows), metadata=run_metadata(qc))


def _search(times: list[float], tolerance: float):
    """One temperature's optimal-time search, as a coroutine.

    It yields the times it needs evaluated and is sent their values: first
    the coarse scan `times`, then golden-section probes until the bracket is
    at most `tolerance`. It returns (t_star, qfi_star, bracket).
    """
    values = yield times
    if max(values) - min(values) < 1e-14:
        return 0.0, 0.0, times[-1]
    peak = int(np.argmax(values))  # first occurrence, i.e. the smallest t
    best = (values[peak], -times[peak])  # the larger value, on ties the smaller t
    lo = times[peak - 1] if peak > 0 else times[0]
    hi = times[peak + 1] if peak < len(times) - 1 else times[-1]

    left = hi - _INV_PHI * (hi - lo)
    right = lo + _INV_PHI * (hi - lo)
    f_left, f_right = yield [left, right]
    best = max(best, (f_left, -left), (f_right, -right))
    while hi - lo > tolerance:
        if f_left >= f_right:  # keep the left interval on ties
            hi, right, f_right = right, left, f_left
            left = hi - _INV_PHI * (hi - lo)
            (f_left,) = yield [left]
            best = max(best, (f_left, -left))
        else:
            lo, left, f_left = left, right, f_right
            right = lo + _INV_PHI * (hi - lo)
            (f_right,) = yield [right]
            best = max(best, (f_right, -right))
    return -best[1], best[0], hi - lo


def optimal_time_curve(
    spec: OptimalTimeSpec, qc: QuadratureConfig = DEFAULT_QUADRATURE
) -> OptimalTimeCurve:
    """Interaction time maximizing qfi at each temperature of the curve.

    Per temperature, a coarse scan over [0, t_max] brackets the global
    maximum, then golden-section refinement shrinks the bracket to
    1e-4 * t_max. qfi_star is the largest value the search evaluated, at
    t_star. Ties break toward the smallest t. A coarse scan flatter than
    1e-14 is degenerate and returns t_star = 0 with qfi_star = 0. One engine
    serves the curve: the scans of all temperatures are one batch of pairs,
    and each refinement round evaluates one (T, t) pair per temperature still
    searching.
    """
    temperatures = [float(T) for T in np.linspace(spec.T_lo, spec.T_hi, spec.T_points)]
    engine = MomentEngine(spec.estimand, spec.sp, qc)

    def information(probes: list[tuple[int, float]]) -> list[float]:
        """qfi at every probe (temperature index, time), one table in probe order."""
        return qfi_table(
            engine, [temperatures[i] for i, _ in probes], [time for _, time in probes],
            spec.sq, spec.init,
            lambda k: f"optimal-time search aborted at (T, t) = "
                      f"({temperatures[probes[k][0]]!r}, {probes[k][1]!r})")[2]

    scan = [float(time) for time in np.linspace(0.0, spec.t_max, spec.coarse_points)]
    searches = [_search(scan, 1e-4 * spec.t_max) for _ in temperatures]
    for search in searches:
        next(search)  # each asks for the coarse scan first
    rows = range(len(temperatures))
    flat = iter(information([(i, time) for i in rows for time in scan]))
    values = {i: [next(flat) for _ in scan] for i in rows}
    outcomes = {}
    while True:
        probes = {}
        for i, sent in values.items():
            try:
                probes[i] = searches[i].send(sent)
            except StopIteration as done:
                outcomes[i] = done.value
        if not probes:
            break
        flat = iter(information([(i, time) for i, times in probes.items() for time in times]))
        values = {i: [next(flat) for _ in times] for i, times in probes.items()}
    results = (
        OptimalTimeResult(temperature=temperature, t_star=outcomes[i][0],
                          qfi_star=outcomes[i][1], bracket=outcomes[i][2])
        for i, temperature in enumerate(temperatures)
    )
    return OptimalTimeCurve(spec=spec, results=tuple(results), metadata=run_metadata(qc))


def optimal_time(
    temperature: float,
    estimand: Estimand,
    sq: SqueezeParams,
    sp: SpectralParams,
    init: ProbeInit = ProbeInit(),
    t_max: float = 10.0,
    qc: QuadratureConfig = DEFAULT_QUADRATURE,
    coarse_points: int = 64,
) -> OptimalTimeResult:
    """Interaction time maximizing qfi at one temperature: the one-temperature
    curve of `optimal_time_curve`, which describes the search."""
    spec = OptimalTimeSpec(
        estimand=estimand, T_lo=temperature, T_hi=temperature, T_points=1,
        sq=sq, sp=sp, init=init, t_max=t_max, coarse_points=coarse_points,
    )
    return optimal_time_curve(spec, qc).results[0]
