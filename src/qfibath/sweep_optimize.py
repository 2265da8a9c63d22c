"""Parameter sweeps, (t, T) density grids and optimal-time search.

Every table and search runs on the moment engine (`moments`), as single
points do. A table is one batch: the temperature factors once per table, the
time kernel once per distinct time, then each row's exponent and derivative
by algebra on the moments. Points where the engine's rule pair disagrees fall
back to the adaptive path, and the tables' and searches' metadata count them. Rows are assembled sequentially, so
identical specs always produce bit-identical tables. The optimal-time search
brackets the global maximum with a coarse scan before golden-section
refinement, because the squeezing kernel can make the information oscillate
in t and unimodal search alone would lock onto the wrong peak.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from math import isfinite, sqrt

import numpy as np

from .decoherence import DEFAULT_QUADRATURE, ConvergenceError, QuadratureConfig
from .moments import MomentEngine
from .probe_state import ProbeInit
from .qfi_engine import Estimand, QfiSample, _check_estimable, qfi_sample
from .spectral_bath import BathPoint, SpectralParams, SqueezeParams

__all__ = [
    "SWEEP_AXES",
    "SweepSpec",
    "SweepTable",
    "GridSpec",
    "GridTable",
    "OptimalTimeResult",
    "sweep",
    "density_grid",
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
    """Row-major grid of samples, temperature outer, time inner."""

    spec: GridSpec
    samples: tuple[QfiSample, ...]
    metadata: dict = field(compare=False)


@dataclass(frozen=True)
class OptimalTimeResult:
    """Interaction time maximizing the information at one temperature; `fallbacks`
    counts the search's points the moment engine handed to the adaptive path."""

    temperature: float
    t_star: float
    qfi_star: float
    bracket: float
    fallbacks: int = 0


def run_metadata(qc: QuadratureConfig, **counts: int) -> dict:
    """Tool, version, quadrature settings, any counts of the run, and a UTC timestamp."""
    from . import __version__

    return {
        "tool": "qfibath",
        "version": __version__,
        "quadrature": asdict(qc),
        **counts,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


@contextmanager
def _aborted_at(where: str):
    """Re-raise a point's failure with the location that aborted the table."""
    try:
        yield
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"{where}: {exc}",
            value=exc.value,
            est_error=exc.est_error,
            evaluations=exc.evaluations,
        ) from exc
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


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
    (T, t). A failure at any point aborts the whole sweep with the axis value
    attached; tables never contain silent gaps.
    """
    values = [float(value) for value in np.linspace(spec.lo, spec.hi, spec.points)]
    temperatures = values if spec.axis == "T" else [spec.point.temperature]
    times = values if spec.axis == "t" else [spec.point.time]
    engine = MomentEngine(spec.estimand, spec.sp, qc, temperatures, max(times))
    moments = engine.moments(times)
    exponents = engine.exponents(moments, spec.sq)
    rows = []
    for k, value in enumerate(values):
        point, sq, init = _with_axis_value(spec.axis, value, spec.point, spec.sq, spec.init)
        with _aborted_at(f"sweep aborted at {spec.axis} = {value!r}"):
            if spec.axis in ("r", "theta"):
                exponents = engine.exponents(moments, sq)
            i, j = (k if spec.axis == "T" else 0), (k if spec.axis == "t" else 0)
            gamma_value, dgamma = engine.settle(exponents, i, j, point, sq)
            sample = qfi_sample(spec.estimand, point, sq, spec.sp, init, gamma_value, dgamma)
        if not all(map(isfinite, (sample.gamma, sample.dgamma, sample.qfi))):
            raise ConvergenceError(
                f"sweep produced a non-finite row at {spec.axis} = {value!r}",
                value=sample.gamma,
                est_error=float("nan"),
                evaluations=0,
            )
        rows.append((value, sample.gamma, sample.dgamma, sample.qfi))
    metadata = run_metadata(qc, fallbacks=engine.fallbacks)
    return SweepTable(spec=spec, rows=tuple(rows), metadata=metadata)


def density_grid(spec: GridSpec, qc: QuadratureConfig = DEFAULT_QUADRATURE) -> GridTable:
    """Full t x T grid of information samples, temperature outer, time inner."""
    temperatures = [float(T) for T in np.linspace(spec.T_lo, spec.T_hi, spec.T_points)]
    times = [float(t) for t in np.linspace(spec.t_lo, spec.t_hi, spec.t_points)]
    engine = MomentEngine(spec.estimand, spec.sp, qc, temperatures, times[-1])
    exponents = engine.exponents(engine.moments(times), spec.sq)
    samples = []
    for i, temperature in enumerate(temperatures):
        for j, time in enumerate(times):
            point = BathPoint(temperature=temperature, time=time)
            with _aborted_at(f"grid aborted at (T, t) = ({temperature!r}, {time!r})"):
                gamma_value, dgamma = engine.settle(exponents, i, j, point, spec.sq)
                samples.append(qfi_sample(
                    spec.estimand, point, spec.sq, spec.sp, spec.init, gamma_value, dgamma
                ))
    metadata = run_metadata(qc, fallbacks=engine.fallbacks)
    return GridTable(spec=spec, samples=tuple(samples), metadata=metadata)


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
    """Interaction time maximizing qfi at fixed temperature.

    A coarse scan over [0, t_max] brackets the global maximum, then
    golden-section refinement shrinks the bracket to 1e-4 * t_max; the scan
    is one moment batch and each refinement step one more time column.
    qfi_star is the largest value the search evaluated, at t_star. Ties break
    toward the smallest t. A coarse scan flatter than 1e-14 is degenerate and
    returns t_star = 0 with qfi_star = 0.
    """
    if not (isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if coarse_points < 3:
        raise ValueError(f"coarse_points must be >= 3, got {coarse_points}")

    engine = MomentEngine(estimand, sp, qc, [temperature], t_max)

    def evaluate(times: list[float]) -> list[float]:
        exponents = engine.exponents(engine.moments(times), sq)
        values = []
        for j, time in enumerate(times):
            point = BathPoint(temperature=temperature, time=time)
            gamma_value, dgamma = engine.settle(exponents, 0, j, point, sq)
            values.append(qfi_sample(estimand, point, sq, sp, init, gamma_value, dgamma).qfi)
        return values

    times = [float(time) for time in np.linspace(0.0, t_max, coarse_points)]
    values = evaluate(times)
    if max(values) - min(values) < 1e-14:
        return OptimalTimeResult(
            temperature=temperature, t_star=0.0, qfi_star=0.0, bracket=float(t_max),
            fallbacks=engine.fallbacks,
        )

    peak = int(np.argmax(values))  # first occurrence, i.e. the smallest t
    best_t, best_q = times[peak], values[peak]

    def consider(time: float, value: float) -> None:
        nonlocal best_t, best_q
        if value > best_q or (value == best_q and time < best_t):
            best_t, best_q = time, value

    lo = times[peak - 1] if peak > 0 else times[0]
    hi = times[peak + 1] if peak < coarse_points - 1 else times[-1]
    tolerance = 1e-4 * t_max

    left = hi - _INV_PHI * (hi - lo)
    right = lo + _INV_PHI * (hi - lo)
    f_left, f_right = evaluate([left, right])
    consider(left, f_left)
    consider(right, f_right)
    while hi - lo > tolerance:
        if f_left >= f_right:  # keep the left interval on ties
            hi, right, f_right = right, left, f_left
            left = hi - _INV_PHI * (hi - lo)
            (f_left,) = evaluate([left])
            consider(left, f_left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + _INV_PHI * (hi - lo)
            (f_right,) = evaluate([right])
            consider(right, f_right)

    return OptimalTimeResult(
        temperature=temperature, t_star=best_t, qfi_star=best_q, bracket=float(hi - lo),
        fallbacks=engine.fallbacks,
    )
