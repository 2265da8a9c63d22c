"""Parameter sweeps, (t, T) density grids and optimal-time curves.

Every table and search runs on the moment engine (`moments`), as single
points do. A table is k (squeezing, probe) settings over one batch of n
(T, t) pairs, and sweeps, grids and each round of a search take it through
`qfi_engine.qfi_table`: one exponents call by array algebra on the moments,
then the closed form and one mask of failing cells, with no record per cell.
A grid, a T or t sweep and a search round are one setting over their pairs (a
grid's are the flattened cross product of its axes); an r, theta or alpha
sweep is one setting per value over its single pair. The first failing cell
aborts the run with its location and the message it would raise alone.
A sweep and a grid both return a `Table`: the values of each axis, outermost
first, and gamma, dgamma and qfi per cell. No result reads the clock or
carries run metadata. Identical specs always produce bit-identical tables.
The optimal-time search brackets the global maximum with a coarse scan before
golden-section refinement, because the squeezing kernel can make the
information oscillate in t and unimodal search alone would lock onto the
wrong peak. A curve searches all its temperatures as one batch: their coarse
scans are one (T, t) table like a grid, and the refinement runs in lockstep,
each round one table of every open search's probes. A search predicts its
golden-section comparisons from the vertex of a parabola through three points
it has evaluated (Brent's pairing of golden-section steps with parabolic
interpolation, except that the parabola never chooses a probe) and probes its
steps along that path until the bracket closes (in the first round of a curve
of many searches, whose parabolas run through scan points, until it is at
most half the scan's spacing), with a hedge probe for the other outcome of its
first predicted comparison. The values then choose the path as a sequential
search would, up to the first comparison the prediction got wrong; the probes
off it do not enter the result but are checked like every cell.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from math import isfinite, prod, sqrt

import numpy as np

from .moments import DEFAULT_QUADRATURE, MomentEngine, QuadratureConfig, grid_pairs
from .probe_state import ProbeInit
from .qfi_engine import Estimand, _check_estimable, qfi_table
from .spectral_bath import BathPoint, SpectralParams, SqueezeParams, _with_parameter

__all__ = [
    "SWEEP_AXES",
    "SweepSpec",
    "GridSpec",
    "Table",
    "Tiled",
    "OptimalTimeSpec",
    "OptimalTimeResult",
    "OptimalTimeCurve",
    "sweep",
    "density_grid",
    "optimal_time_curve",
    "optimal_time",
]

SWEEP_AXES = ("T", "t", "r", "theta", "alpha")

_INV_PHI = 0.5 * (sqrt(5.0) - 1.0)
# A curve's first refinement round stops at half the scan's spacing only when it batches
# at least this many searches. Below that scale a parabola through scan points
# mispredicts most steps, so the cut saves some 5 to 7 probes a search, but it takes
# about one search in five one more round, and a table costs as much as 250 to 500
# probes. Measured on 2 CPUs with the cut at every size: one search 8 % slower, 4 to 24
# searches even, 32 and 40 searches 6 to 8 % faster.
_CUT_SEARCHES = 32

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
        _check_estimable(self.estimand, *(("lo", self.lo) if self.axis == "T"
                                          else ("temperature", self.point.temperature)))


class Tiled:
    """The column of `values`, each repeated `each` times in place and the whole
    `copies` times over: cell k is values[(k // each) % len(values)]."""

    __slots__ = ("values", "each", "copies")

    def __init__(self, values: Sequence, each: int = 1, copies: int = 1) -> None:
        self.values, self.each, self.copies = values, each, copies

    def tile(self, items: Sequence) -> list:
        """`items`, one per value, laid out as the cells of this column."""
        return [item for item in items for _ in range(self.each)] * self.copies


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
        _check_estimable(self.estimand, "T_lo", self.T_lo)


@dataclass(frozen=True)
class Table:
    """A sweep or grid result by column: `axes`, the values of each axis outermost
    first (a sweep's `(values,)`, a grid's `(temperatures, times)`), and gamma, dgamma
    and qfi at each cell, the cells in row-major order of the axes."""

    spec: SweepSpec | GridSpec
    axes: tuple[tuple[float, ...], ...]
    gamma: tuple[float, ...]
    dgamma: tuple[float, ...]
    qfi: tuple[float, ...]

    @property
    def columns(self) -> tuple[Tiled, ...]:
        """One column per axis in cell order: each value repeated once for every cell of
        the inner axes, the whole once for every cell of the outer axes."""
        sizes = [len(values) for values in self.axes]
        return tuple(Tiled(values, each=prod(sizes[i + 1:]), copies=prod(sizes[:i]))
                     for i, values in enumerate(self.axes))

    @cached_property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """(axis values, gamma, dgamma, qfi) rows in cell order, built on first use."""
        return tuple(zip(*(column.tile(column.values) for column in self.columns),
                         self.gamma, self.dgamma, self.qfi))


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
        _check_estimable(self.estimand, "T_lo", self.T_lo)
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


def _with_axis_value(
    axis: str, value: float, point: BathPoint, sq: SqueezeParams, init: ProbeInit
) -> tuple[BathPoint, SqueezeParams, ProbeInit]:
    if axis == "alpha":
        return point, sq, replace(init, alpha=value)
    return (*_with_parameter(axis, value, point, sq), init)


def sweep(spec: SweepSpec, qc: QuadratureConfig = DEFAULT_QUADRATURE) -> Table:
    """The information at `points` equally spaced axis values.

    One table serves the whole sweep: a T or t axis gives its values as the
    (T, t) pairs under the one setting, any other axis one setting per value at
    its single (T, t). A failure at any point aborts the whole sweep with the
    axis value attached; tables never contain silent gaps.
    """
    values = tuple(np.linspace(spec.lo, spec.hi, spec.points).tolist())
    temperatures, times = [spec.point.temperature], [spec.point.time]
    settings = [(spec.sq, spec.init)]
    if spec.axis == "T":
        temperatures, times = values, times * len(values)
    elif spec.axis == "t":
        temperatures, times = temperatures * len(values), values
    else:
        settings = [_with_axis_value(spec.axis, value, spec.point, spec.sq, spec.init)[1:]
                    for value in values]
    gammas, dgammas, qfis, _ = qfi_table(
        MomentEngine(spec.estimand, spec.sp, qc), temperatures, times, settings,
        lambda k: f"sweep aborted at {spec.axis} = {values[k]!r}")
    return Table(spec, (values,), tuple(gammas), tuple(dgammas), tuple(qfis))


def density_grid(spec: GridSpec, qc: QuadratureConfig = DEFAULT_QUADRATURE) -> Table:
    """Full t x T grid of gamma, dgamma and qfi, temperature outer, time inner, checked
    and computed as one table."""
    temperatures = tuple(np.linspace(spec.T_lo, spec.T_hi, spec.T_points).tolist())
    times = tuple(np.linspace(spec.t_lo, spec.t_hi, spec.t_points).tolist())
    engine = MomentEngine(spec.estimand, spec.sp, qc)
    gammas, dgammas, qfis, _ = qfi_table(
        engine, *grid_pairs(temperatures, times), [(spec.sq, spec.init)],
        lambda k: f"grid aborted at (T, t) = "
                  f"({temperatures[k // len(times)]!r}, {times[k % len(times)]!r})")
    return Table(spec, (temperatures, times), tuple(gammas), tuple(dgammas), tuple(qfis))


def _step(lo: float, hi: float, left: float, right: float,
          keep_left: bool) -> tuple[tuple[float, float, float, float], float]:
    """One golden-section step of the bracket [lo, hi] with probes left < right: keep
    [lo, right] when `keep_left`, else [left, hi]. Returns the next
    (lo, hi, left, right) and the one new time it probes."""
    if keep_left:
        left, right, hi = right - _INV_PHI * (right - lo), left, right
        return (lo, hi, left, right), left
    lo, left, right = left, right, left + _INV_PHI * (hi - left)
    return (lo, hi, left, right), right


def _vertex(x0: float, x1: float, x2: float, y0: float, y1: float, y2: float) -> float:
    """Where the parabola through (x0, y0), (x1, y1) and (x2, y2), x0 <= x1 <= x2, peaks;
    where it has no maximum, the better of x0 and x2 (x0 on ties)."""
    a, b = (x1 - x0) * (y1 - y2), (x2 - x1) * (y1 - y0)
    if a + b > 0.0:
        return x1 - 0.5 * ((x1 - x0) * a - (x2 - x1) * b) / (a + b)
    return x0 if y0 >= y2 else x2


def _path(bracket: tuple, known: bool | None, vertex: float, tolerance: float,
          times: list) -> list[tuple]:
    """The steps of one search round from `bracket` (lo, hi, left, right) until it is at
    most `tolerance`, their probes appended to `times`. The first step keeps the side
    `known` where its comparison is known (None where it is not); every other predicts
    its comparison from `vertex`, keeping the left side exactly when vertex is at most
    (left + right) / 2. The first predicted step also probes its other side, the hedge.
    Returns (keep_left, bracket after the step, index of its probe in `times`, the
    hedge's bracket and index or None) per step."""
    lo, hi, left, right = bracket
    steps, hedged, k = [], False, len(times)
    while hi - lo > tolerance:
        other = None
        if known is not None:
            keep_left, known = known, None
        else:
            keep_left = vertex <= 0.5 * (left + right)
            if not hedged:
                hedge, time = _step(lo, hi, left, right, not keep_left)
                times.append(time)
                other, hedged, k = (hedge, k), True, k + 1
        after, time = _step(lo, hi, left, right, keep_left)
        times.append(time)
        steps.append((keep_left, after, k, other))
        lo, hi, left, right = after
        k += 1
    return steps


def _follow(state: tuple, pair: int, steps: list, values: list[float]) -> tuple:
    """The search state (lo, hi, left, right, f_lo, f_hi, f_left, f_right, best) after
    the `steps` of a round that the real `values` confirm, as one step at a time would
    reach it: at the first step that the values decide the other way, it takes the
    hedge where there is one, and stops. A first round reads its interior pair at
    values[pair:pair + 2] first. `best` is (qfi, -t): the larger value, on ties the
    smaller t; only the followed probes enter it."""
    lo, hi, left, right, f_lo, f_hi, f_left, f_right, best = state
    if f_left is None:
        f_left, f_right = values[pair:pair + 2]
        best = max(best, (f_left, -left), (f_right, -right))
    for side, after, k, other in steps:
        keep_left = f_left >= f_right  # keep the left interval on ties
        if keep_left != side:
            if other is None:
                break
            after, k = other
        lo, hi, left, right = after
        if keep_left:
            f_hi, f_right, f_left = f_right, f_left, values[k]
            best = max(best, (f_left, -left))
        else:
            f_lo, f_left, f_right = f_left, f_right, values[k]
            best = max(best, (f_right, -right))
        if keep_left != side:
            break
    return lo, hi, left, right, f_lo, f_hi, f_left, f_right, best


def optimal_time_curve(
    spec: OptimalTimeSpec, qc: QuadratureConfig = DEFAULT_QUADRATURE
) -> OptimalTimeCurve:
    """Interaction time maximizing qfi at each temperature of the curve.

    Per temperature, a coarse scan over [0, t_max] brackets the global
    maximum, then golden-section refinement shrinks the bracket to
    1e-4 * t_max. qfi_star is the largest value the search's steps evaluated,
    at t_star. Ties break toward the smallest t. A flat coarse scan, whose
    values are all equal (all 0 where the information vanishes), is degenerate
    and returns t_star = 0 with qfi_star = 0. One engine serves the curve: the
    scans of all temperatures are one batch of pairs, and each round of the
    refinement one batch of the probes of every search still open. A round
    probes the steps a search predicts until its bracket closes: the first
    round the bracket's interior pair, then steps predicted from the parabola
    through the scan's peak and its neighbours; a later round its next step,
    whose comparison is known, then steps predicted from the parabola through
    the pair and the bracket end on the side it keeps. Where the first round
    batches at least 32 searches, it predicts only until the bracket is at
    most half the scan's spacing h = t_max / (coarse_points - 1) (3 steps for
    a peak inside the scan, 2 at its end): below that scale the scan's
    parabola mispredicts most steps, and dropping their probes pays for the
    extra round the cut can cost only when many searches share the round. The
    first predicted step also probes its other outcome. The values then choose
    the path one step at a time: a first predicted step that went the other
    way takes that probe and ends the round, a later one ends it before the
    step. So the first round takes the pair and at least one step, every later
    round at least two, and the result is the sequential search's, bit for
    bit, whatever the parabola predicts. The probes off the path do not enter
    the result, but every evaluated probe is checked like a grid cell, and the
    first that fails aborts the curve with its (T, t).
    """
    temperatures = [float(T) for T in np.linspace(spec.T_lo, spec.T_hi, spec.T_points)]
    engine = MomentEngine(spec.estimand, spec.sp, qc)

    def information(probes: Sequence[float], times: Sequence[float]) -> list[float]:
        """qfi at every probe (probes[k], times[k]), one table in probe order."""
        return qfi_table(
            engine, probes, times, [(spec.sq, spec.init)],
            lambda k: f"optimal-time search aborted at (T, t) = "
                      f"({float(probes[k])!r}, {float(times[k])!r})")[2]

    scan = np.linspace(0.0, spec.t_max, spec.coarse_points).tolist()
    tolerance, m = 1e-4 * spec.t_max, len(scan)
    # the scan is a grid, temperature outer: one row of qfi per temperature
    qfis = information(*grid_pairs(temperatures, scan))
    outcomes, searches = {}, {}  # outcome: (t_star, qfi_star, bracket)
    for i in range(len(temperatures)):
        values = qfis[i * m:(i + 1) * m]
        top = max(values)
        if top == min(values):
            outcomes[i] = (0.0, 0.0, scan[-1])
            continue
        peak = values.index(top)  # first occurrence, i.e. the smallest t
        below, above = max(peak - 1, 0), min(peak + 1, m - 1)
        lo, hi = scan[below], scan[above]
        searches[i] = (lo, hi, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo),
                       values[below], values[above], None, None, (top, -scan[peak]))
    first_tolerance = (max(tolerance, 0.5 * spec.t_max / (m - 1))
                       if len(searches) >= _CUT_SEARCHES else tolerance)
    # rounds of one table while any search is open: its next steps along its path
    while searches:
        probes, times, paths = [], [], {}
        for i, (lo, hi, left, right, f_lo, f_hi, f_left, f_right, best) in searches.items():
            start = len(times)
            if f_left is None:  # the interior pair, then steps predicted from the scan
                times += (left, right)
                known, close = None, first_tolerance
                vertex = _vertex(lo, -best[1], hi, f_lo, best[0], f_hi)
            elif hi - lo > tolerance:
                known, close = f_left >= f_right, tolerance
                vertex = (_vertex(lo, left, right, f_lo, f_left, f_right) if known
                          else _vertex(left, right, hi, f_left, f_right, f_hi))
            else:
                outcomes[i] = (-best[1], best[0], hi - lo)
                continue
            paths[i] = start, _path((lo, hi, left, right), known, vertex, close, times)
            probes += [temperatures[i]] * (len(times) - start)
        values = information(probes, times) if paths else []
        searches = {i: _follow(searches[i], start, path, values)
                    for i, (start, path) in paths.items()}
    results = tuple(OptimalTimeResult(temperature, *outcomes[i])
                    for i, temperature in enumerate(temperatures))
    return OptimalTimeCurve(spec=spec, results=results)


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
