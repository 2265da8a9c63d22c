import math
from dataclasses import replace

import numpy as np
import pytest

from qfibath import moments, sweep_optimize
from qfibath.decoherence import ConvergenceError, QuadratureConfig
from qfibath.probe_state import ProbeInit
from qfibath.qfi_engine import qfi_point
from qfibath.spectral_bath import BathPoint, Estimand, SpectralParams, SqueezeParams
from qfibath.sweep_optimize import (
    GridSpec,
    OptimalTimeResult,
    OptimalTimeSpec,
    SweepSpec,
    density_grid,
    optimal_time,
    optimal_time_curve,
    sweep,
)

SUB_OHMIC = SpectralParams(s=0.5)
FIX_SQUEEZE = SqueezeParams(r=0.1, theta=1.0)


def _time_sweep_spec(points=6, hi=10.0):
    return SweepSpec(
        estimand=Estimand.TEMPERATURE,
        axis="t",
        lo=0.0,
        hi=hi,
        points=points,
        point=BathPoint(temperature=0.5, time=0.0),
        sq=FIX_SQUEEZE,
        sp=SUB_OHMIC,
    )


def test_time_sweep_starts_at_zero_information():
    table = sweep(_time_sweep_spec())
    assert len(table.rows) == 6
    first = table.rows[0]
    assert first[0] == 0.0
    assert first[1] == 0.0  # gamma
    assert first[3] == 0.0  # qfi
    values = [row[0] for row in table.rows]
    assert values == sorted(values)


def test_sweeps_are_bit_deterministic():
    spec = _time_sweep_spec()
    assert sweep(spec).rows == sweep(spec).rows


def test_phase_sweep_rows_repeat_after_a_period():
    spec = SweepSpec(
        estimand=Estimand.SQUEEZE_PHASE,
        axis="theta",
        lo=0.0,
        hi=4.0 * math.pi,
        points=9,
        point=BathPoint(temperature=0.5, time=1.0),
        sq=SqueezeParams(r=0.5, theta=0.0),
        sp=SUB_OHMIC,
    )
    table = sweep(spec)
    for i in range(4):  # theta and theta + 2*pi land on grid indices i and i + 4
        assert table.rows[i][3] == pytest.approx(table.rows[i + 4][3], abs=1e-8)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        _time_sweep_spec(points=1)
    with pytest.raises(ValueError):
        SweepSpec(
            estimand=Estimand.TEMPERATURE,
            axis="t",
            lo=1.0,
            hi=1.0,
            points=5,
            point=BathPoint(0.5, 0.0),
            sq=FIX_SQUEEZE,
            sp=SUB_OHMIC,
        )
    with pytest.raises(ValueError):
        SweepSpec(
            estimand=Estimand.TEMPERATURE,
            axis="x",
            lo=0.0,
            hi=1.0,
            points=5,
            point=BathPoint(0.5, 0.0),
            sq=FIX_SQUEEZE,
            sp=SUB_OHMIC,
        )
    with pytest.raises(ValueError):  # temperature estimand cannot sweep T from 0
        SweepSpec(
            estimand=Estimand.TEMPERATURE,
            axis="T",
            lo=0.0,
            hi=1.0,
            points=5,
            point=BathPoint(0.5, 1.0),
            sq=FIX_SQUEEZE,
            sp=SUB_OHMIC,
        )
    with pytest.raises(ValueError):  # alpha outside [0, pi]
        SweepSpec(
            estimand=Estimand.TEMPERATURE,
            axis="alpha",
            lo=0.0,
            hi=4.0,
            points=5,
            point=BathPoint(0.5, 1.0),
            sq=FIX_SQUEEZE,
            sp=SUB_OHMIC,
        )


def test_sweep_aborts_with_the_failing_axis_value(monkeypatch):
    # an order-2 rule cannot match the order-24 one, so every t > 0 point goes to
    # the refined rule, whose order-2 pair disagrees too
    monkeypatch.setattr(moments, "ORDER", 2)
    with pytest.raises(ConvergenceError, match="sweep aborted at t = 0.5"):
        sweep(_time_sweep_spec(points=3, hi=1.0))


def test_temperature_estimand_sweep_at_zero_temperature_is_rejected_before_any_moment(
    monkeypatch,
):
    def no_engine(*args, **kwargs):
        raise AssertionError("the moment engine was reached")

    monkeypatch.setattr(sweep_optimize, "MomentEngine", no_engine)
    with pytest.raises(ValueError, match="^temperature must be > 0 when estimating T"):
        sweep(SweepSpec(
            estimand=Estimand.TEMPERATURE,
            axis="r",
            lo=0.0,
            hi=1.0,
            points=3,
            point=BathPoint(temperature=0.0, time=1.0),
            sq=FIX_SQUEEZE,
            sp=SUB_OHMIC,
        ))


def test_alpha_sweep_is_symmetric_around_the_equator():
    spec = SweepSpec(
        estimand=Estimand.TEMPERATURE,
        axis="alpha",
        lo=0.0,
        hi=math.pi,
        points=9,
        point=BathPoint(temperature=0.5, time=1.0),
        sq=FIX_SQUEEZE,
        sp=SUB_OHMIC,
    )
    table = sweep(spec)
    qfis = [row[3] for row in table.rows]
    assert qfis[0] == 0.0 and qfis[-1] == pytest.approx(0.0, abs=1e-20)
    for i in range(4):
        assert qfis[i] == pytest.approx(qfis[8 - i], rel=1e-9, abs=1e-15)
    assert int(np.argmax(qfis)) == 4


def test_grid_ordering_is_temperature_outer():
    spec = GridSpec(
        estimand=Estimand.TEMPERATURE,
        t_lo=0.0,
        t_hi=3.0,
        T_lo=0.2,
        T_hi=1.0,
        t_points=4,
        T_points=3,
        sq=FIX_SQUEEZE,
        sp=SUB_OHMIC,
    )
    table = density_grid(spec)
    assert len(table.samples) == 12
    temperatures = [s.point.temperature for s in table.samples]
    times = [s.point.time for s in table.samples]
    assert temperatures == sorted(temperatures)
    assert times[:4] == sorted(times[:4])
    assert times[:4] == times[4:8] == times[8:]
    # the t = 0 column carries no information, and nothing is negative
    for sample in table.samples:
        assert sample.qfi >= 0.0
        if sample.point.time == 0.0:
            assert sample.qfi == 0.0


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(
            estimand=Estimand.TEMPERATURE,
            t_lo=0.0, t_hi=3.0, T_lo=0.0, T_hi=1.0,  # T starts at 0
            t_points=4, T_points=3,
            sq=FIX_SQUEEZE, sp=SUB_OHMIC,
        )
    with pytest.raises(ValueError):
        GridSpec(
            estimand=Estimand.SQUEEZE_PHASE,
            t_lo=2.0, t_hi=1.0, T_lo=0.1, T_hi=1.0,
            t_points=4, T_points=3,
            sq=FIX_SQUEEZE, sp=SUB_OHMIC,
        )


def test_dense_grid_peak_is_interior():
    spec = GridSpec(
        estimand=Estimand.TEMPERATURE,
        t_lo=0.0, t_hi=10.0, T_lo=0.01, T_hi=3.0,
        t_points=50, T_points=50,
        sq=FIX_SQUEEZE, sp=SUB_OHMIC,
    )
    table = density_grid(spec)
    best = max(table.samples, key=lambda s: s.qfi)
    assert best.qfi > 0.0
    assert best.point.time < 10.0
    assert best.point.temperature < 3.0


def test_optimal_time_matches_brute_force_grid():
    sq = SqueezeParams(r=0.5, theta=0.5 * math.pi)
    quick = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)
    t_max = 4.0
    result = optimal_time(
        0.5, Estimand.TEMPERATURE, sq, SUB_OHMIC, t_max=t_max, qc=quick
    )
    times = np.linspace(0.0, t_max, 10_001)
    brute = [
        qfi_point(
            Estimand.TEMPERATURE, BathPoint(0.5, float(t)), sq, SUB_OHMIC, ProbeInit(), quick
        ).qfi
        for t in times
    ]
    brute_star = float(times[int(np.argmax(brute))])
    coarse_step = t_max / 63.0
    assert abs(result.t_star - brute_star) <= coarse_step
    assert result.bracket <= 1e-4 * t_max
    assert result.qfi_star >= max(brute) - 1e-6 * max(brute)


def test_optimal_time_value_matches_a_fresh_evaluation():
    result = optimal_time(0.5, Estimand.TEMPERATURE, FIX_SQUEEZE, SUB_OHMIC, t_max=6.0)
    fresh = qfi_point(
        Estimand.TEMPERATURE, BathPoint(0.5, result.t_star), FIX_SQUEEZE, SUB_OHMIC
    ).qfi
    assert result.qfi_star == pytest.approx(fresh, rel=1e-10)


def test_optimal_time_flat_function_degenerates_to_zero():
    # no squeezing makes the phase information identically zero
    result = optimal_time(
        0.5, Estimand.SQUEEZE_PHASE, SqueezeParams(0.0), SUB_OHMIC, t_max=5.0
    )
    assert result == OptimalTimeResult(
        temperature=0.5, t_star=0.0, qfi_star=0.0, bracket=5.0
    )


def test_optimal_time_validation():
    with pytest.raises(ValueError):
        optimal_time(0.5, Estimand.TEMPERATURE, FIX_SQUEEZE, SUB_OHMIC, t_max=0.0)
    with pytest.raises(ValueError, match="^t_max"):
        optimal_time(0.5, Estimand.TEMPERATURE, FIX_SQUEEZE, SUB_OHMIC, t_max=math.inf)
    with pytest.raises(ValueError):
        optimal_time(
            0.5, Estimand.TEMPERATURE, FIX_SQUEEZE, SUB_OHMIC, t_max=5.0, coarse_points=2
        )


FIG10 = OptimalTimeSpec(
    estimand=Estimand.TEMPERATURE, T_lo=0.2, T_hi=2.0, T_points=40,
    sq=SqueezeParams(r=0.5, theta=0.5 * math.pi), sp=SUB_OHMIC, t_max=20.0,
)


def _assert_curve_matches_single_searches(curve, qc=None):
    spec = curve.spec
    assert [r.temperature for r in curve.results] == [
        float(T) for T in np.linspace(spec.T_lo, spec.T_hi, spec.T_points)
    ]
    for result in curve.results:
        single = optimal_time(
            result.temperature, spec.estimand, spec.sq, spec.sp, spec.init, spec.t_max,
            **({} if qc is None else {"qc": qc}),
        )
        assert result.t_star == single.t_star
        assert result.bracket == single.bracket
        assert result.fallbacks == single.fallbacks
        assert abs(result.qfi_star - single.qfi_star) <= 1e-12 * single.qfi_star


def test_fig10_curve_matches_per_temperature_searches():
    curve = optimal_time_curve(FIG10)
    _assert_curve_matches_single_searches(curve)
    assert curve.metadata["fallbacks"] == 0
    assert all(result.qfi_star > 0.0 for result in curve.results)


def test_squeezing_amplitude_curve_from_zero_temperature_matches_per_temperature_searches():
    spec = OptimalTimeSpec(
        estimand=Estimand.SQUEEZE_AMPLITUDE, T_lo=0.0, T_hi=2.0, T_points=11,
        sq=SqueezeParams(r=0.5, theta=1.0), sp=SpectralParams(s=1.0), t_max=10.0,
    )
    curve = optimal_time_curve(spec)
    assert curve.results[0].temperature == 0.0 and curve.results[0].qfi_star > 0.0
    _assert_curve_matches_single_searches(curve)


def test_curve_keeps_flat_scan_temperatures_at_zero():
    # the information about T at T = 1e6 underflows to 0 at every scanned time
    curve = optimal_time_curve(OptimalTimeSpec(
        estimand=Estimand.TEMPERATURE, T_lo=0.5, T_hi=1e6, T_points=2,
        sq=FIG10.sq, sp=SUB_OHMIC, t_max=4.0,
    ))
    _assert_curve_matches_single_searches(curve)
    assert curve.results[0].qfi_star > 0.0
    assert curve.results[1] == OptimalTimeResult(
        temperature=1e6, t_star=0.0, qfi_star=0.0, bracket=4.0
    )
    # no squeezing makes the phase information zero at every temperature
    flat = optimal_time_curve(OptimalTimeSpec(
        estimand=Estimand.SQUEEZE_PHASE, T_lo=0.0, T_hi=1.0, T_points=3,
        sq=SqueezeParams(0.0), sp=SUB_OHMIC, t_max=5.0,
    ))
    assert flat.results == tuple(
        OptimalTimeResult(temperature=T, t_star=0.0, qfi_star=0.0, bracket=5.0)
        for T in (0.0, 0.5, 1.0)
    )


def test_curve_blocks_do_not_change_the_search(monkeypatch):
    whole = optimal_time_curve(FIG10)
    monkeypatch.setattr(moments, "F_BYTES", 1)  # one temperature per block
    for one, result in zip(whole.results, optimal_time_curve(FIG10).results):
        assert (one.temperature, one.t_star, one.bracket) == (
            result.temperature, result.t_star, result.bracket
        )
        assert abs(one.qfi_star - result.qfi_star) <= 1e-12 * one.qfi_star


def test_curve_counts_fallbacks_per_temperature():
    # at s = 0.02 the base rule's moments are not finite, so every scanned or
    # probed point, t = 0 included, is computed on the refined rule
    spec = OptimalTimeSpec(
        estimand=Estimand.TEMPERATURE, T_lo=0.4, T_hi=0.8, T_points=2,
        sq=FIG10.sq, sp=SpectralParams(s=0.02), t_max=4.0,
    )
    curve = optimal_time_curve(spec)
    counts = [result.fallbacks for result in curve.results]
    assert all(count > spec.coarse_points for count in counts)
    assert curve.metadata["fallbacks"] == sum(counts)
    assert all(result.qfi_star > 0.0 for result in curve.results)
    _assert_curve_matches_single_searches(curve)


def test_curve_aborts_with_the_failing_point(monkeypatch):
    # every t > 0 point goes to the refined rule, whose order-2 pair disagrees too
    monkeypatch.setattr(moments, "ORDER", 2)
    spec = replace(FIG10, T_points=2, t_max=63.0)
    with pytest.raises(ConvergenceError, match=r"search aborted at \(T, t\) = \(0\.2, 1\.0\)"):
        optimal_time_curve(spec)


@pytest.mark.parametrize("changes, field", [
    ({"T_points": 0}, "T_points"),
    ({"T_lo": -1.0, "estimand": Estimand.SQUEEZE_AMPLITUDE}, "T_lo"),
    ({"T_lo": 0.0}, "T_lo"),  # estimand T
    ({"T_lo": 3.0}, "T_lo"),  # above T_hi
    ({"T_lo": math.nan}, "T_lo"),
    ({"t_max": 0.0}, "t_max"),
    ({"t_max": math.inf}, "t_max"),
    ({"coarse_points": 2}, "coarse_points"),
])
def test_optimal_time_spec_names_the_rejected_field(changes, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        replace(FIG10, **changes)


def test_table_metadata_records_the_quadrature():
    table = sweep(_time_sweep_spec())
    assert table.metadata["tool"] == "qfibath"
    assert table.metadata["quadrature"]["rel_tol"] == 1e-8
    assert "timestamp" in table.metadata
