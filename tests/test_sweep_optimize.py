import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import golden_section_reference
from qfibath import cli, moments, sweep_optimize
from qfibath.cli import RECIPES
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
    # a first truncation of no direct and no Bernoulli term cannot match the second at
    # any t > 0
    monkeypatch.setattr(moments, "TRUNCATIONS", ((0, 0), moments.TRUNCATIONS[1]))
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
    assert len(table.rows) == 12
    temperatures = [row[0] for row in table.rows]
    times = [row[1] for row in table.rows]
    assert temperatures == sorted(temperatures)
    assert times[:4] == sorted(times[:4])
    assert times[:4] == times[4:8] == times[8:]
    # the t = 0 column carries no information, and nothing is negative
    for _, time, _, _, qfi in table.rows:
        assert qfi >= 0.0
        if time == 0.0:
            assert qfi == 0.0


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
    temperature, time, _, _, qfi = max(table.rows, key=lambda row: row[4])
    assert qfi > 0.0
    assert time < 10.0
    assert temperature < 3.0


def test_optimal_time_matches_brute_force_grid():
    sq = SqueezeParams(r=0.5, theta=0.5 * math.pi)
    quick = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-10)
    t_max = 4.0
    result = optimal_time(
        0.5, Estimand.TEMPERATURE, sq, SUB_OHMIC, t_max=t_max, qc=quick
    )
    times = np.linspace(0.0, t_max, 10_001)
    # one t sweep over the same times: one batch instead of 10,001 point calls
    brute = sweep(SweepSpec(
        estimand=Estimand.TEMPERATURE, axis="t", lo=0.0, hi=t_max, points=len(times),
        point=BathPoint(0.5, 0.0), sq=sq, sp=SUB_OHMIC), quick).qfi
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


# (T, t_star, qfi_star) of `opt-time --recipe fig10`, frozen: a faster kernel or search
# must keep t_star identical and qfi_star within 1e-13 relative
FIG10_ROWS = [
    (0.2, 1.3253529475887371, 1.6254836002855646),
    (0.24615384615384617, 1.206442303166458, 1.3022437702775227),
    (0.2923076923076923, 1.1138086309440356, 1.0580149755405674),
    (0.3384615384615385, 1.0388664158647372, 0.871969177477757),
    (0.38461538461538464, 0.9764533603058434, 0.7283405471467903),
    (0.4307692307692308, 0.9238994159061303, 0.6158404492926545),
    (0.47692307692307695, 0.8781919063744428, 0.526467221617728),
    (0.5230769230769231, 0.838865347624522, 0.45451858261505995),
    (0.5692307692307692, 0.8034824333382736, 0.39588496213284746),
    (0.6153846153846154, 0.772275905558827, 0.3475642358624354),
    (0.6615384615384616, 0.7440271111271342, 0.3073338524777857),
    (0.7076923076923076, 0.7182156230135363, 0.2735254754499842),
    (0.7538461538461538, 0.6951291262045631, 0.24487077918552916),
    (0.8, 0.673726766640896, 0.22039405069561946),
    (0.8461538461538463, 0.6538307452228065, 0.19933582528954324),
    (0.8923076923076922, 0.6359065460365529, 0.18109924981242537),
    (0.9384615384615385, 0.6192010000093469, 0.1652099239324546),
    (0.9846153846153847, 0.6037141071411881, 0.15128789521793504),
    (1.0307692307692309, 0.588980383345818, 0.13902597634694777),
    (1.0769230769230769, 0.5754653127094953, 0.12817407627850158),
    (1.123076923076923, 0.5627034111459615, 0.11852674791554926),
    (1.1692307692307693, 0.5508724777549447, 0.1099143322936445),
    (1.2153846153846153, 0.5393292293504582, 0.10219557628053186),
    (1.2615384615384615, 0.5290046341050191, 0.09525249575279564),
    (1.3076923076923077, 0.51896772384611, 0.0889855190360569),
    (1.353846153846154, 0.5091086126869294, 0.08331055607833618),
    (1.4000000000000001, 0.5002903555870677, 0.07815604347363429),
    (1.4461538461538461, 0.49164989758693456, 0.0734607996030736),
    (1.4923076923076923, 0.48329712457333146, 0.0691723281851189),
    (1.5384615384615385, 0.47569752063251713, 0.06524531689949081),
    (1.5846153846153845, 0.4683306587348321, 0.06164059616366516),
    (1.6307692307692307, 0.46073105479401777, 0.05832422158304827),
    (1.676923076923077, 0.45406241902572075, 0.05526631775661487),
    (1.7230769230769232, 0.4472159841576951, 0.052440937446790806),
    (1.7692307692307694, 0.4413005174621868, 0.049825257047496484),
    (1.8153846153846154, 0.4349195666804198, 0.047399189564444034),
    (1.8615384615384616, 0.4290040999849115, 0.0451448973637758),
    (1.9076923076923078, 0.42337631827593325, 0.04304667177766172),
    (1.9538461538461538, 0.41821402065321367, 0.04109053225835081),
    (2.0, 0.4130517230304941, 0.0392639600016715),
]


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
        assert abs(result.qfi_star - single.qfi_star) <= 1e-12 * single.qfi_star


def test_fig10_curve_matches_per_temperature_searches():
    curve = optimal_time_curve(FIG10)
    _assert_curve_matches_single_searches(curve)
    assert all(result.qfi_star > 0.0 for result in curve.results)


def test_fig10_curve_reproduces_its_frozen_rows():
    curve = optimal_time_curve(FIG10)
    assert len(curve.results) == len(FIG10_ROWS)
    for result, (temperature, t_star, qfi_star) in zip(curve.results, FIG10_ROWS):
        assert (result.temperature, result.t_star) == (temperature, t_star)
        assert abs(result.qfi_star - qfi_star) <= 1e-13 * qfi_star


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


def test_a_curve_whose_information_is_small_everywhere_is_searched():
    # the qfi about T scales with sin(alpha)**2: at alpha = 1e-7 the whole curve lies
    # below 1e-14 but is no flatter than the one at alpha = pi / 2
    spec = replace(FIG10, T_lo=0.5, T_hi=0.5, T_points=1)
    alpha = 1e-7
    (small,) = optimal_time_curve(replace(spec, init=ProbeInit(alpha=alpha))).results
    (equator,) = optimal_time_curve(spec).results
    assert 0.0 < small.qfi_star < 1e-14
    assert (small.t_star, small.bracket) == (equator.t_star, equator.bracket)
    assert small.qfi_star == pytest.approx(math.sin(alpha) ** 2 * equator.qfi_star, rel=1e-12)


def test_curve_blocks_do_not_change_the_search(monkeypatch):
    whole = optimal_time_curve(FIG10)
    monkeypatch.setattr(moments, "CHUNK", 1)  # the engine takes one pair at a time
    assert optimal_time_curve(FIG10).results == whole.results


def test_sub_ohmic_curve_matches_per_temperature_searches():
    # at s = 0.02 the w**(s - 1) endpoint carries most of gamma
    curve = optimal_time_curve(OptimalTimeSpec(
        estimand=Estimand.TEMPERATURE, T_lo=0.4, T_hi=0.8, T_points=2,
        sq=FIG10.sq, sp=SpectralParams(s=0.02), t_max=4.0,
    ))
    assert all(result.qfi_star > 0.0 for result in curve.results)
    _assert_curve_matches_single_searches(curve)


def test_curve_aborts_with_the_failing_point(monkeypatch):
    # a first truncation of no direct and no Bernoulli term cannot match the second at
    # any t > 0
    monkeypatch.setattr(moments, "TRUNCATIONS", ((0, 0), moments.TRUNCATIONS[1]))
    spec = replace(FIG10, T_points=2, t_max=63.0)
    with pytest.raises(ConvergenceError, match=r"search aborted at \(T, t\) = \(0\.2, 1\.0\)"):
        optimal_time_curve(spec)


def _poison_second_round(monkeypatch, poison):
    """Let `poison` edit the moments of the middle pair of the second refinement round,
    the third `moments` call of the curve; returns a list that receives that pair's
    (T, t)."""
    calls, poisoned = [], []
    batch = moments.MomentEngine.moments

    def poisoned_moments(engine, temperatures, times):
        out = batch(engine, temperatures, times)
        calls.append(len(times))
        if len(calls) == 3:
            p = len(times) // 2
            poison(out, p)
            poisoned.append((temperatures[p], times[p]))
        return out

    monkeypatch.setattr(moments.MomentEngine, "moments", poisoned_moments)
    return poisoned


def _probe_prefix(poisoned):
    (temperature, time), = poisoned
    return f"optimal-time search aborted at (T, t) = ({temperature!r}, {time!r}): "


# "order 3": the first truncation, of 3 direct terms, whose moments sit at out[0]


def _nan_order_3_moment(out, p):
    out[0, 0, 0, p] = math.nan


def _disagreeing_order_3_moment(out, p):
    out[0, 0, 0, p] *= 2.0


def _overflowing_derivative(out, p):
    out[:, 1, :, p] *= 1e200  # the d coth / dT moments of both truncations: qfi overflows


@pytest.mark.parametrize("poison, message", [
    (_nan_order_3_moment, "truncations disagree"),
    (_disagreeing_order_3_moment, "truncations disagree"),
    (_overflowing_derivative, "non-finite sample"),
])
def test_curve_aborts_with_the_probe_that_fails_in_a_refinement_round(monkeypatch, poison,
                                                                      message):
    poisoned = _poison_second_round(monkeypatch, poison)
    spec = replace(FIG10, T_points=3)
    with pytest.raises(ConvergenceError) as raised:
        optimal_time_curve(spec)
    assert str(raised.value).startswith(_probe_prefix(poisoned) + message)


def test_curve_aborts_with_a_degenerate_probe_in_a_refinement_round(monkeypatch):
    def vanishing_gamma(out, p):
        out[:, 0, :, p] = 0.0  # the moments of gamma, not those of d gamma / dT

    poisoned = _poison_second_round(monkeypatch, vanishing_gamma)
    spec = replace(FIG10, T_points=3)
    with pytest.raises(ConvergenceError) as raised:
        optimal_time_curve(spec)
    prefix = _probe_prefix(poisoned)
    assert str(raised.value).startswith(prefix + "gamma = 0.0 is at the t -> 0")


def _tables(monkeypatch):
    """The times of every `qfi_table` call of the search, in call order."""
    tables = []
    table = sweep_optimize.qfi_table

    def recording(engine, temperatures, times, *args):
        tables.append(list(times))
        return table(engine, temperatures, times, *args)

    monkeypatch.setattr(sweep_optimize, "qfi_table", recording)
    return tables


def test_fig10_curve_takes_four_tables(monkeypatch):
    tables = _tables(monkeypatch)
    optimal_time_curve(FIG10)
    # the scan, then a round of every bracket's interior pair, a hedge and the 3 steps
    # its path predicts down to half the scan's spacing, then two rounds that predict
    # the rest of each path from its own bracket; two golden-section steps per round
    # took the scan, the pairs and six rounds
    assert [len(times) for times in tables] == [40 * 64, 40 * (2 + 1 + 3), 414, 67]
    assert len(tables) < 8


def _assert_curve_equals_the_sequential_search(spec):
    for result in optimal_time_curve(spec).results:
        t_star, qfi_star, bracket, _ = golden_section_reference.optimal_time(
            spec, result.temperature, QuadratureConfig())
        assert (result.t_star, result.bracket) == (t_star, bracket)
        assert result.qfi_star.hex() == qfi_star.hex()


@pytest.mark.parametrize("estimand", list(Estimand))
@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 3.0])
def test_curve_equals_the_sequential_search(s, estimand):
    rng = np.random.default_rng([int(10 * s), list(Estimand).index(estimand)])
    T_lo = float(rng.uniform(0.05, 0.5))
    _assert_curve_equals_the_sequential_search(OptimalTimeSpec(
        estimand=estimand, T_lo=T_lo, T_hi=T_lo + float(rng.uniform(0.5, 2.0)), T_points=3,
        sq=SqueezeParams(r=float(rng.uniform(0.1, 1.0)), theta=float(rng.uniform(0.0, 6.0))),
        sp=SpectralParams(s=s), t_max=float(rng.choice([2.0, 7.5, 20.0])),
        coarse_points=int(rng.choice([16, 64, 129])),
    ))


def test_curve_walks_ties_like_the_sequential_search(monkeypatch):
    # a staircase in t: the scan, the probes and their comparisons tie again and again
    def staircase(temperature, times):
        return [float(np.floor(4.0 * np.sin(time / temperature))) for time in times]

    def table(engine, temperatures, times, *args):
        return None, None, [staircase(T, [t])[0] for T, t in zip(temperatures, times)]

    monkeypatch.setattr(sweep_optimize, "qfi_table", table)
    spec = replace(FIG10, T_points=7, t_max=40.0, coarse_points=33)
    repeats = 0
    for result in optimal_time_curve(spec).results:
        t_star, qfi_star, bracket, probes = golden_section_reference.search(
            lambda times: staircase(result.temperature, times),
            [float(t) for t in np.linspace(0.0, spec.t_max, spec.coarse_points)],
            1e-4 * spec.t_max)
        assert (result.t_star, result.qfi_star, result.bracket) == (t_star, qfi_star, bracket)
        repeats += len(probes) - len(set(staircase(result.temperature, probes)))
    assert repeats > 0


def test_a_path_probes_nothing_past_the_close_of_its_bracket(monkeypatch):
    # from a 128-point scan the bracket closes after 11 steps. The first round of this
    # one search probes the pair, the 11 steps of its path and a hedge; its 8th step goes
    # the other way than predicted, so the second round probes that step, a hedge and
    # the 3 steps left
    spec = replace(FIG10, T_points=1, coarse_points=128)
    tables = _tables(monkeypatch)
    _assert_curve_equals_the_sequential_search(spec)
    path = golden_section_reference.optimal_time(spec, spec.T_lo, QuadratureConfig())[3]
    assert len(path) == 2 + 11
    assert [len(times) for times in tables[1:]] == [2 + 11 + 1, 4 + 1]
    assert tables[-1][-1] == path[-1]  # the step that closes the bracket probes last


@pytest.mark.parametrize("searches", [sweep_optimize._CUT_SEARCHES - 1,
                                      sweep_optimize._CUT_SEARCHES])
def test_the_first_round_of_many_searches_predicts_down_to_half_the_scan_spacing(
        monkeypatch, searches):
    # an exact parabola in t, whose vertex lies inside the scan at most temperatures and
    # past either end at the others, never within h / 2 inside an end, where the scan's
    # parabola degenerates: every predicted step is confirmed. With enough
    # searches the first round stops where the bracket is at most h / 2 and the second
    # closes every bracket; with one search fewer the first round closes them itself
    spec = replace(FIG10, T_lo=0.2, T_hi=1.0, T_points=searches, t_max=10.0)
    cut = searches == sweep_optimize._CUT_SEARCHES

    def parabola(temperature, times):
        return [10.0 - (time - (15.0 * temperature - 4.4)) ** 2 for time in times]

    def table(engine, temperatures, times, *args):
        return None, None, [parabola(T, [t])[0] for T, t in zip(temperatures, times)], None

    monkeypatch.setattr(sweep_optimize, "qfi_table", table)
    tables = _tables(monkeypatch)
    results = optimal_time_curve(spec).results
    assert len(tables) == (3 if cut else 2)
    scan = [float(t) for t in np.linspace(0.0, spec.t_max, spec.coarse_points)]
    h, inv_phi = spec.t_max / (spec.coarse_points - 1), golden_section_reference.INV_PHI
    expected, counts = [], set()
    for result in results:
        values = parabola(result.temperature, scan)
        t_star, qfi_star, bracket, path = golden_section_reference.search(
            lambda times: parabola(result.temperature, times), scan, 1e-4 * spec.t_max)
        assert (result.t_star, result.qfi_star, result.bracket) == (t_star, qfi_star, bracket)
        peak = values.index(max(values))
        end = peak in (0, len(scan) - 1)
        lo, hi = scan[max(peak - 1, 0)], scan[min(peak + 1, len(scan) - 1)]
        # the steps that leave the bracket at most h / 2, from 2 h or from h at a scan end
        width, steps = hi - lo, 0
        while width > 0.5 * h:
            width, steps = inv_phi * width, steps + 1
        assert steps == (2 if end else 3)
        counts.add((peak == 0, end, steps))
        left, right = path[:2]
        # the hedge probes the side the first step does not keep
        hedge = left + inv_phi * (hi - left) if path[2] < left else right - inv_phi * (right - lo)
        expected += path[:2] + [hedge] + (path[2:2 + steps] if cut else path[2:])
    assert counts == {(True, True, 2), (False, False, 3), (False, True, 2)}
    assert tables[1] == expected


def _untaken_probe(spec, monkeypatch, kind):
    """(the sequential search of the one temperature of `spec`, a probe of the curve that
    the sequential search does not take): the first refinement round's hedge, which
    follows the interior pair, or the last probe of the first round that ends off the
    path, a step past a comparison that went the other way than predicted."""
    search = golden_section_reference.optimal_time(spec, spec.T_lo, QuadratureConfig())
    path = search[3]
    tables = _tables(monkeypatch)
    optimal_time_curve(spec)
    rounds = tables[1:]
    assert rounds[0][:2] == path[:2]
    untaken = (rounds[0][2] if kind == "hedge"
               else next(times[-1] for times in rounds if times[-1] not in path))
    assert untaken not in path
    return search, untaken


@pytest.mark.parametrize("kind", ["hedge", "mispredicted step"])
def test_curve_aborts_at_a_poisoned_probe_off_the_walked_path(monkeypatch, kind):
    spec = replace(FIG10, T_points=1)
    _, untaken = _untaken_probe(spec, monkeypatch, kind)
    batch = moments.MomentEngine.moments

    def poisoned(engine, temperatures, times):
        out = batch(engine, temperatures, times)
        if untaken in times:
            _nan_order_3_moment(out, list(times).index(untaken))
        return out

    monkeypatch.setattr(moments.MomentEngine, "moments", poisoned)
    with pytest.raises(ConvergenceError) as raised:
        optimal_time_curve(spec)
    assert str(raised.value).startswith(
        f"optimal-time search aborted at (T, t) = ({spec.T_lo!r}, {untaken!r}): "
        "truncations disagree")


@pytest.mark.parametrize("kind", ["hedge", "mispredicted step"])
def test_a_probe_off_the_walked_path_does_not_enter_the_result(monkeypatch, kind):
    spec = replace(FIG10, T_points=1)
    (t_star, qfi_star, bracket, _), untaken = _untaken_probe(spec, monkeypatch, kind)
    table = sweep_optimize.qfi_table

    def inflated(engine, temperatures, times, *args):
        gammas, dgammas, qfis, gaps = table(engine, temperatures, times, *args)
        return gammas, dgammas, [qfi * (1e3 if time == untaken else 1.0)
                                 for qfi, time in zip(qfis, times)], gaps

    monkeypatch.setattr(sweep_optimize, "qfi_table", inflated)
    (result,) = optimal_time_curve(spec).results
    assert (result.t_star, result.qfi_star, result.bracket) == (t_star, qfi_star, bracket)


@pytest.mark.parametrize("temperature", [0.2, 1.1, 2.0])
def test_a_prediction_wrong_at_every_round_keeps_the_sequential_search(monkeypatch,
                                                                         temperature):
    # every round's path predicts from a vertex on the wrong side of its first predicted
    # comparison, so every walk ends at the hedge: the pair and one step in the first
    # round, two steps in every later one, never more tables than two golden-section
    # steps per round took
    spec = replace(FIG10, T_lo=temperature, T_hi=temperature, T_points=1)
    t_star, qfi_star, bracket, probes = golden_section_reference.optimal_time(
        spec, temperature, QuadratureConfig())
    path, step, tolerance = sweep_optimize._path, sweep_optimize._step, 1e-4 * spec.t_max

    def wrong(bracket, known, vertex, *args):
        first = bracket if known is None else step(*bracket, known)[0]
        if first[1] - first[0] > tolerance:
            # one search: the side the sequential search keeps probes a time it takes, the
            # other a time outside every later bracket
            keeps_left = step(*first, True)[1] in probes
            assert keeps_left != (step(*first, False)[1] in probes)
            vertex = first[1] if keeps_left else first[0]
        return path(bracket, known, vertex, *args)

    monkeypatch.setattr(sweep_optimize, "_path", wrong)
    tables = _tables(monkeypatch)
    (result,) = optimal_time_curve(spec).results
    assert (result.t_star, result.bracket) == (t_star, bracket)
    assert result.qfi_star.hex() == qfi_star.hex()
    steps = len(probes) - 2
    assert len(tables) == 2 + math.ceil((steps - 1) / 2) <= 2 + math.ceil(steps / 2)


@pytest.mark.parametrize("s", [1.0, 3.0])
def test_fig10_curve_at_other_exponents_equals_the_sequential_search(s):
    _assert_curve_equals_the_sequential_search(replace(FIG10, T_points=8,
                                                       sp=SpectralParams(s=s)))


@pytest.mark.parametrize("changes, field", [
    ({"T_points": 0}, "T_points"),
    ({"T_lo": -1.0, "estimand": Estimand.SQUEEZE_AMPLITUDE}, "T_lo"),
    ({"T_lo": 0.0}, "T_lo"),  # estimand T
    ({"T_lo": 3.0}, "T_lo"),  # above T_hi
    ({"T_lo": math.nan}, "T_lo"),
    ({"t_max": 0.0}, "t_max"),
    ({"t_max": math.inf}, "t_max"),
    ({"coarse_points": 2}, "coarse_points"),
    ({"T_lo": 0.5, "T_hi": 0.5}, "T_points"),  # 40 searches of one temperature
])
def test_optimal_time_spec_names_the_rejected_field(changes, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        replace(FIG10, **changes)


def _bits(rows):
    return [tuple(map(float.hex, row)) for row in rows]


def _recipe_spec(monkeypatch, tmp_path, name):
    """The spec the CLI builds for recipe `name`, captured on its way to the library."""
    captured = []

    def capturing(library):
        return lambda spec, qc: captured.append(spec) or library(spec, qc)

    for function in ("sweep", "density_grid"):
        monkeypatch.setattr(cli, function, capturing(getattr(sweep_optimize, function)))
    argv = [RECIPES[name]["subcommand"], "--recipe", name, "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 0
    monkeypatch.undo()
    (spec,) = captured
    return spec


def _rows_cell_by_cell(spec):
    """A spec's rows through `qfi_point`, cell by cell: each cell a one-pair batch with
    its own squeezing and init."""
    if isinstance(spec, GridSpec):
        temperatures = [float(T) for T in np.linspace(spec.T_lo, spec.T_hi, spec.T_points)]
        times = [float(t) for t in np.linspace(spec.t_lo, spec.t_hi, spec.t_points)]
        samples = (qfi_point(spec.estimand, BathPoint(T, t), spec.sq, spec.sp, spec.init)
                   for T, t in itertools.product(temperatures, times))
        return [(s.point.temperature, s.point.time, s.gamma, s.dgamma, s.qfi) for s in samples]
    rows = []
    for value in (float(value) for value in np.linspace(spec.lo, spec.hi, spec.points)):
        point, sq, init = sweep_optimize._with_axis_value(spec.axis, value, spec.point,
                                                          spec.sq, spec.init)
        sample = qfi_point(spec.estimand, point, sq, spec.sp, init)
        rows.append((value, sample.gamma, sample.dgamma, sample.qfi))
    return rows


_TABLE_RECIPES = sorted(name for name, recipe in RECIPES.items()
                        if recipe["subcommand"] in ("sweep", "grid"))


@pytest.mark.parametrize("name", _TABLE_RECIPES + ["alpha"])
def test_table_rows_equal_the_cell_by_cell_rows_bit_for_bit(name, monkeypatch, tmp_path):
    if name == "alpha":  # one init per row
        spec = SweepSpec(estimand=Estimand.TEMPERATURE, axis="alpha", lo=0.0, hi=math.pi,
                         points=7, point=BathPoint(0.5, 1.0), sq=FIX_SQUEEZE, sp=SUB_OHMIC)
    else:
        spec = _recipe_spec(monkeypatch, tmp_path, name)
    table = density_grid(spec) if isinstance(spec, GridSpec) else sweep(spec)
    assert _bits(table.rows) == _bits(_rows_cell_by_cell(spec))
    assert table.rows is table.rows  # built once


def test_sweeps_over_r_or_theta_assemble_their_exponents_once(monkeypatch, tmp_path):
    specs = [_recipe_spec(monkeypatch, tmp_path, name) for name in ("fig2a", "fig4c")]
    calls = []
    exponents = moments.MomentEngine.exponents

    def counted(engine, batch, sq):
        calls.append(sq)
        return exponents(engine, batch, sq)

    monkeypatch.setattr(moments.MomentEngine, "exponents", counted)
    for spec in specs:
        calls.clear()
        assert len(sweep(spec).rows) == 200
        assert len(calls) == 1


def _poison_two_grid_cells(monkeypatch, poison, cells, times):
    """Let `poison` edit the moments of grid cells (i, j) of every `moments` call, on a
    grid of `times` times."""
    batch = moments.MomentEngine.moments

    def poisoned(engine, temperatures, times_):
        out = batch(engine, temperatures, times_)
        for i, j in cells:
            poison(out, i * times + j)
        return out

    monkeypatch.setattr(moments.MomentEngine, "moments", poisoned)


def _nan_order_3_cell(out, k):
    out[0, 0, 0, k] = math.nan


def _overflowing_derivative_cell(out, k):
    out[:, 1, :, k] *= 1e200


def _vanishing_gamma_cell(out, k):
    out[:, 0, :, k] = 0.0


@pytest.mark.parametrize("poison, error, message", [
    (_nan_order_3_cell, ConvergenceError, "truncations disagree"),
    (_overflowing_derivative_cell, ConvergenceError, "non-finite sample"),
    (_vanishing_gamma_cell, ConvergenceError, "gamma = 0.0 is at the t -> 0"),
])
def test_grid_aborts_at_the_first_poisoned_cell_in_row_major_order(monkeypatch, poison, error,
                                                                   message):
    spec = GridSpec(
        estimand=Estimand.TEMPERATURE, t_lo=0.0, t_hi=3.0, T_lo=0.2, T_hi=1.0,
        t_points=4, T_points=3, sq=FIX_SQUEEZE, sp=SUB_OHMIC,
    )
    # (2, 1) comes first by column, (1, 3) by row
    _poison_two_grid_cells(monkeypatch, poison, [(2, 1), (1, 3)], spec.t_points)
    with pytest.raises(error) as raised:
        density_grid(spec)
    temperature = float(np.linspace(spec.T_lo, spec.T_hi, spec.T_points)[1])
    assert str(raised.value).startswith(
        f"grid aborted at (T, t) = ({temperature!r}, 3.0): {message}")
