"""Parameter sweeps, (t, T) density grids and optimal-time curves.

Every table and search runs on the moment engine (`moments`), as single
points do. A table is k (squeezing, probe) settings over one batch of n
(T, t) pairs, and sweeps, grids and each round of a search take it through
`qfi_engine.qfi_table`: one exponents call by array algebra on the moments,
then one pass that checks each cell in order and builds no record per cell.
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
each round one table of the probes of the next two golden-section steps of
every temperature whose bracket is still open (3 per temperature: the next
step's, and one for each outcome of the step after). The values then choose
the path as a sequential search would; the probes off it do not enter the
result but are checked like every cell.
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

# golden-section steps per refinement round of an optimal-time search: a round
# evaluates the probe of the next step and those of every outcome of the steps after
# it, 2**DEPTH - 1 probes, in one table
DEPTH = 2


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


def _tree(bracket: tuple, sides: tuple, depth: int, tolerance: float, times: list) -> dict:
    """The probes of the next `depth` steps of an open `bracket`, appended to `times`
    depth first: for each side in `sides`, {keep_left: (bracket after the step, index
    of its probe in `times`, the tree of both sides of the following step)}. The tree
    is None where the depth is spent or the bracket is at most `tolerance`."""
    tree = {}
    for keep_left in sides:
        after, time = _step(*bracket, keep_left)
        times.append(time)
        k = len(times) - 1
        branches = depth > 1 and after[1] - after[0] > tolerance
        tree[keep_left] = (after, k, _tree(after, (True, False), depth - 1, tolerance, times)
                           if branches else None)
    return tree


def _walk(state: tuple, tree: dict | None, values: list[float]) -> tuple:
    """The search state (lo, hi, left, right, f_left, f_right, best) after the steps of
    `tree` that its `values` choose, as one step at a time would reach it. `best` is
    (qfi, -t): the larger value, on ties the smaller t; only the walked probes enter it."""
    lo, hi, left, right, f_left, f_right, best = state
    while tree is not None:
        keep_left = f_left >= f_right  # keep the left interval on ties
        (lo, hi, left, right), k, tree = tree[keep_left]
        if keep_left:
            f_left, f_right = values[k], f_left
            best = max(best, (f_left, -left))
        else:
            f_left, f_right = f_right, values[k]
            best = max(best, (f_right, -right))
    return lo, hi, left, right, f_left, f_right, best


def optimal_time_curve(
    spec: OptimalTimeSpec, qc: QuadratureConfig = DEFAULT_QUADRATURE
) -> OptimalTimeCurve:
    """Interaction time maximizing qfi at each temperature of the curve.

    Per temperature, a coarse scan over [0, t_max] brackets the global
    maximum, then golden-section refinement shrinks the bracket to
    1e-4 * t_max. qfi_star is the largest value the search's steps evaluated,
    at t_star. Ties break toward the smallest t. A coarse scan flatter than
    1e-14 is degenerate and returns t_star = 0 with qfi_star = 0. One engine
    serves the curve: the scans of all temperatures are one batch of pairs,
    the first interior pair of every bracket a second, and each later round
    one batch of the next `DEPTH` steps of every search still open: the probe
    of its next step and the probes of both outcomes of the step after (3 per
    temperature). The values then choose the path; the probes off it do not
    enter the result, but every evaluated probe is checked like a grid cell,
    and the first that fails aborts the curve with its (T, t).
    """
    temperatures = [float(T) for T in np.linspace(spec.T_lo, spec.T_hi, spec.T_points)]
    engine = MomentEngine(spec.estimand, spec.sp, qc)

    def information(rows: list[int], times: list[float]) -> list[float]:
        """qfi at every probe (temperatures[rows[k]], times[k]), one table in probe order."""
        return qfi_table(
            engine, [temperatures[i] for i in rows], times, [(spec.sq, spec.init)],
            lambda k: f"optimal-time search aborted at (T, t) = "
                      f"({temperatures[rows[k]]!r}, {times[k]!r})")[2]

    scan = [float(time) for time in np.linspace(0.0, spec.t_max, spec.coarse_points)]
    tolerance, m = 1e-4 * spec.t_max, len(scan)
    table = information([i for i in range(len(temperatures)) for _ in scan],
                        scan * len(temperatures))
    outcomes, brackets = {}, {}  # outcome: (t_star, qfi_star, bracket)
    for i in range(len(temperatures)):
        values = table[i * m:(i + 1) * m]
        top = max(values)
        if top - min(values) < 1e-14:
            outcomes[i] = (0.0, 0.0, scan[-1])
            continue
        peak = values.index(top)  # first occurrence, i.e. the smallest t
        lo, hi = scan[max(peak - 1, 0)], scan[min(peak + 1, m - 1)]
        brackets[i] = (lo, hi, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo),
                       (top, -scan[peak]))
    # the interior pair of every bracket, then rounds of DEPTH steps while any is open
    pairs = information([i for i in brackets for _ in range(2)],
                        [time for _, _, left, right, _ in brackets.values()
                         for time in (left, right)]) if brackets else []
    searches = {
        i: (lo, hi, left, right, f_left, f_right, max(best, (f_left, -left), (f_right, -right)))
        for (i, (lo, hi, left, right, best)), f_left, f_right
        in zip(brackets.items(), pairs[::2], pairs[1::2])
    }
    while searches:
        rows, times, trees = [], [], {}
        for i, (lo, hi, left, right, f_left, f_right, best) in searches.items():
            if hi - lo > tolerance:
                start = len(times)
                trees[i] = _tree((lo, hi, left, right), (f_left >= f_right,), DEPTH,
                                 tolerance, times)
                rows += [i] * (len(times) - start)
            else:
                outcomes[i] = (-best[1], best[0], hi - lo)
        values = information(rows, times) if trees else []
        searches = {i: _walk(searches[i], tree, values) for i, tree in trees.items()}
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
