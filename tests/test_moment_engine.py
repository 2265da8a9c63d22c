import io
import itertools
import math
import os
import tracemalloc
from contextlib import redirect_stdout

import numpy as np
import pytest

import hurwitz_reference
import panel_reference
from adaptive_reference import gamma, gamma_partial
from qfibath import cli, decoherence, moments
from qfibath.moments import DEFAULT_QUADRATURE, MomentEngine, grid_pairs
from qfibath.probe_state import ProbeInit
from qfibath.qfi_engine import qfi_point, qfi_table
from qfibath.spectral_bath import (BathPoint, Estimand, SpectralParams, SqueezeParams,
                                   thermal_factor)
from qfibath.sweep_optimize import GridSpec, density_grid
from domain_sample_values import DOMAIN_SAMPLE_VALUES
from reference_values import REFERENCE_VALUES

TEMPERATURES = [0.0, 0.01, 0.1, 0.5, 1.5, 3.0]
TIMES = [0.0, 0.3, 2.0, 7.5, 20.0]
SQUEEZES = [SqueezeParams(0.0), SqueezeParams(1.2, 2.5), SqueezeParams(3.0, 5.5)]


def engine_point(estimand, point, sq, sp):
    """(gamma, dgamma, truncation agreement, gap) of one point through the engine."""
    engine = MomentEngine(estimand, sp, DEFAULT_QUADRATURE)
    values, derivatives, agree, gaps = engine.exponents(
        engine.moments([point.temperature], [point.time]), [sq])
    return values[0], derivatives[0], agree[0], gaps[0]


def one_pair(estimand, point, sq, sp):
    """(gamma, dgamma, truncation gap) of one point: the checked one-pair `qfi_table`
    that `decoherence.gamma`, `gamma_partial` and `qfi_point` make."""
    (value,), (derivative,), _, (gap,) = qfi_table(
        MomentEngine(estimand, sp, DEFAULT_QUADRATURE), [point.temperature], [point.time],
        [(sq, ProbeInit())])
    return value, derivative, gap


def within_tolerance(value, derivative, oracle_value, oracle_derivative):
    return (
        abs(value - oracle_value) <= max(1e-8 * oracle_value, 1e-12)
        and abs(derivative - oracle_derivative)
        <= 1e-8 * max(abs(oracle_derivative), oracle_value)
    )


@pytest.mark.parametrize("estimand", list(Estimand))
@pytest.mark.parametrize("s", [0.3, 0.5, 1.0, 3.0])
def test_engine_matches_the_adaptive_path(estimand, s):
    sp = SpectralParams(s)
    engine = MomentEngine(estimand, sp, DEFAULT_QUADRATURE)
    batch = engine.moments(*grid_pairs(TEMPERATURES, TIMES))
    for sq in SQUEEZES:
        values, derivatives, agree, _ = engine.exponents(batch, [sq])
        for k, (temperature, time) in enumerate(itertools.product(TEMPERATURES, TIMES)):
            point = BathPoint(temperature, time)
            assert agree[k], (point, sq)
            assert within_tolerance(
                values[k],
                derivatives[k],
                gamma(point, sq, sp).value,
                gamma_partial(estimand, point, sq, sp),
            ), (point, sq)


GAMMA_REFERENCES = [
    (0.7, 1.3, 0.4, 1.1, 0.5, "gamma_T0.7_t1.3_r0.4_th1.1_s0.5"),
    (0.7, 1.3, 0.4, 1.1, 1.0, "gamma_T0.7_t1.3_r0.4_th1.1_s1"),
    (0.7, 1.3, 0.4, 1.1, 3.0, "gamma_T0.7_t1.3_r0.4_th1.1_s3"),
    (0.3, 2.0, 1.0, 4.0, 1.0, "gamma_T0.3_t2_r1_th4_s1"),
    (2.0, 0.5, 0.0, 0.0, 3.0, "gamma_T2_t0.5_r0_th0_s3"),
    (1.0, 5.0, 1.5, math.pi, 0.5, "gamma_T1_t5_r1.5_thpi_s0.5"),
    (0.0, 1.0, 0.5, 2.0, 0.5, "gamma_T0_t1_r0.5_th2_s0.5"),
]


@pytest.mark.parametrize("temperature,t,r,theta,s,key", GAMMA_REFERENCES)
def test_gamma_matches_high_precision_references(temperature, t, r, theta, s, key):
    value, _, agree, _ = engine_point(
        Estimand.SQUEEZE_PHASE, BathPoint(temperature, t), SqueezeParams(r, theta),
        SpectralParams(s),
    )
    assert agree
    assert value == pytest.approx(REFERENCE_VALUES[key], rel=1e-10)


@pytest.mark.parametrize(
    "estimand,r,key",
    [
        (Estimand.TEMPERATURE, 0.1, "dgamma_dT_fix"),
        (Estimand.SQUEEZE_AMPLITUDE, 0.1, "dgamma_dr_fix"),
        (Estimand.SQUEEZE_PHASE, 0.1, "dgamma_dtheta_fix"),
        (Estimand.SQUEEZE_AMPLITUDE, 0.0, "dgamma_dr_at_r0_T0.5_t1_th1_s0.5"),
    ],
)
def test_partials_match_high_precision_references(estimand, r, key):
    _, derivative, agree, _ = engine_point(
        estimand, BathPoint(0.5, 1.0), SqueezeParams(r, 1.0), SpectralParams(0.5)
    )
    assert agree
    assert derivative == pytest.approx(REFERENCE_VALUES[key], rel=1e-10)


@pytest.mark.parametrize("estimand", list(Estimand))
def test_zero_time_is_exactly_zero(estimand):
    engine = MomentEngine(estimand, SpectralParams(0.5), DEFAULT_QUADRATURE)
    temperatures, times = grid_pairs([0.0, 1.0], [0.0, 5.0])
    batch = engine.moments(temperatures, times)
    assert np.all(batch[..., times == 0.0] == 0.0)
    values, derivatives, agree, _ = engine.exponents(batch, [SqueezeParams(0.7, 2.0)])
    for k in (0, 2):  # t = 0 at both temperatures
        assert values[k] == 0.0 and derivatives[k] == 0.0 and agree[k]


def test_zero_temperature_thermal_factors_are_exact():
    # coth = 1 + 2 n(w), and 2 n(w) vanishes at T = 0: the moments are the vacuum
    # moments alone, and the d coth / dT set is exactly 0
    sp = SpectralParams(0.5)
    times = np.array([1e-4, 0.3, 2.0, 700.0])
    engine = MomentEngine(Estimand.TEMPERATURE, sp, DEFAULT_QUADRATURE)
    batch = engine.moments(np.zeros(times.size), times)
    assert np.array_equal(batch[:, 0], np.broadcast_to(moments._vacuum(sp, times), (2, 3, 4)))
    assert np.all(batch[:, 1] == 0.0)
    _, derivative, _, _ = engine_point(
        Estimand.TEMPERATURE, BathPoint(0.0, 2.0), SqueezeParams(0.4, 1.0), sp
    )
    assert derivative == 0.0


# the panel-rule oracle of `panel_reference`: its thermal rows, boundary weights and
# time kernel, then its moments against the engine's


def thermal_row(thermal, omega, temperature):
    """A thermal set's row at `omega`, built in place as the panel oracle builds it."""
    omega = np.asarray(omega, dtype=float)
    out = np.full_like(omega, np.nan)
    thermal(omega, temperature, out, np.full_like(omega, np.nan))
    return out


def test_vectorized_thermal_factors_match_references():
    omega = [2.0, 1e-8, 2.0 * 9.99e-5, 2.0 * 1.001e-4]
    coth = 1.0 + thermal_row(panel_reference.thermal, omega, 1.0)
    for w, value, key, rel in zip(
        omega, coth, ("coth_1", "coth_5e-9", "coth_9.99e-5", "coth_1.001e-4"),
        (1e-12, 1e-12, 1e-10, 1e-10),
    ):
        assert value == pytest.approx(REFERENCE_VALUES[key], rel=rel)
        assert value == pytest.approx(thermal_factor(w, 1.0), rel=rel)
    assert thermal_row(panel_reference.thermal_dT, [1.0], 0.7)[0] == pytest.approx(
        REFERENCE_VALUES["dcoth_dT_w1_T0.7"], rel=1e-12
    )


@pytest.mark.parametrize("temperature", [1e-300, 1e-3, 0.7, 1e4])
def test_in_place_thermal_rows_equal_their_expressions(temperature):
    # the rows are built in place with one scratch row, in the expressions' operation order
    omega = np.concatenate([[5e-324], np.geomspace(1e-300, 1e300, 601)])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = omega / (2.0 * temperature)
        em = np.expm1(-2.0 * x)
        expected = (2.0 / np.expm1(omega / temperature),
                    x * 4.0 * np.exp(-2.0 * x) / (em * em) / temperature)
        rows = (thermal_row(panel_reference.thermal, omega, temperature),
                thermal_row(panel_reference.thermal_dT, omega, temperature))
    for row, value in zip(rows, expected):
        assert np.array_equal(row, value, equal_nan=True)


@pytest.mark.parametrize("s", [0.001, 0.05, 0.5, 1.0, 2.0, 2.5, 10.0])
@pytest.mark.parametrize("order", [panel_reference.ORDER, panel_reference.CHECK_ORDER])
def test_boundary_weights_are_exact_for_the_endpoint_power(s, order):
    # int_0^1 u**(s - 1) u**k du = 1 / (s + k) for every k below the order
    x, weights = panel_reference.unit_rule(order)
    boundary = panel_reference.boundary_weights(order, s)
    for k in range(order):
        assert abs(boundary @ x**k * (s + k) - 1.0) <= 1e-10, k
    if s == 1.0:
        assert np.array_equal(boundary, weights)  # Gauss-Legendre itself


@pytest.mark.parametrize("t_max", [20.0, 1000.0])
@pytest.mark.parametrize("omega_c", [1.0, 1000.0])
@pytest.mark.parametrize("s", [0.05, 0.5, 3.0])
def test_kernel_matches_direct_sines_and_cosines(t_max, omega_c, s):
    layout = panel_reference.panel_layout(SpectralParams(s, omega_c), [0.5, 3.0], t_max)
    lefts, widths, segment = layout
    # one width per segment: each panel ends where the next begins, to roundoff
    ends = lefts + widths[segment]
    assert lefts[0] == 0.0 and np.all(np.diff(segment) >= 0)
    assert np.all(np.abs(ends[:-1] - lefts[1:]) <= 4.0 * np.spacing(lefts[1:]))
    for order in (panel_reference.ORDER, panel_reference.CHECK_ORDER):
        x = panel_reference.unit_rule(order)[0]
        offsets = np.multiply.outer(widths, x)[segment]
        omega, _ = panel_reference.rule(order, layout, s)
        assert np.array_equal(omega, (lefts[:, None] + offsets).ravel())
        # the reference takes sin and cos of each node's phase directly, in extended
        # precision, whose own rounding stays near 1e-14 at w t / 2 = 2e5
        nodes = (lefts.astype(np.longdouble)[:, None] + offsets).ravel()
        for t in (t_max / math.pi, t_max / 2.0, t_max):
            half = nodes * (np.longdouble(t) / 2)
            sin, cos = np.sin(half), np.cos(half)
            envelope = 2 * sin * sin
            expected = np.array([envelope, envelope * (1 - envelope), 2 * sin * cos * envelope])
            times = np.array([t])
            kernel = panel_reference.kernel(layout, x, times,
                                            panel_reference.panel_factor(lefts, times))[:, 0]
            assert np.abs(kernel - expected).max() <= 1e-12, (order, t)


def test_seeded_sample_matches_the_panel_rule_oracle():
    # the thermal moments on the Gauss-Legendre panel rule, plus the engine's vacuum
    # moments, assembled as the engine assembles its own; the rule pair agrees on each
    rng = np.random.default_rng(20261018)
    estimands = list(Estimand)
    for checked in range(30):
        estimand = estimands[checked % 3]
        point = BathPoint(float(10.0 ** rng.uniform(-2.0, 1.0)),
                          float(10.0 ** rng.uniform(-2.0, 1.5)))
        sq = SqueezeParams(float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 2.0 * math.pi)))
        sp = SpectralParams(float(10.0 ** rng.uniform(math.log10(0.05), 1.0)),
                            float(10.0 ** rng.uniform(-1.0, 3.0)))
        thermal, _ = panel_reference.thermal_moments(estimand, sp, point.temperature, point.time)
        oracle = np.zeros((*thermal.shape, 1))
        oracle[..., 0] = thermal
        oracle[:, 0] += moments._vacuum(sp, np.array([point.time]))
        expected, expected_derivative, agree, _ = MomentEngine(
            estimand, sp, DEFAULT_QUADRATURE).exponents(oracle, [sq])
        assert agree[0], (estimand, point, sq, sp)
        value, derivative, _ = one_pair(estimand, point, sq, sp)
        assert within_tolerance(value, derivative, expected[0], expected_derivative[0]), (
            estimand, point, sq, sp, value, expected[0])


def test_sub_ohmic_grid_cells_equal_point_evaluations_and_the_oracle():
    # at s = 0.02 the w**(s - 1) endpoint carries most of gamma; the t = 0 cells are
    # exactly 0
    sq, sp = SqueezeParams(0.1, 1.0), SpectralParams(0.02)
    spec = GridSpec(
        estimand=Estimand.TEMPERATURE, t_lo=0.0, t_hi=1.5, T_lo=0.4, T_hi=0.8,
        t_points=3, T_points=2, sq=sq, sp=sp,
    )
    for temperature, time, gamma_value, dgamma, qfi in density_grid(spec).rows:
        if time == 0.0:
            assert gamma_value == 0.0 and dgamma == 0.0
            continue
        assert math.isfinite(qfi) and gamma_value > 0.0
        # the grid evaluates all its cells in one batch, the point alone
        point = BathPoint(temperature, time)
        value, derivative, _ = one_pair(Estimand.TEMPERATURE, point, sq, sp)
        assert abs(gamma_value - value) <= 1e-12 * value
        assert abs(dgamma - derivative) <= 1e-12 * max(abs(derivative), value)
        assert within_tolerance(gamma_value, dgamma, *hurwitz_reference.exponents(
            Estimand.TEMPERATURE, point, sq, sp))


def test_zero_time_is_exactly_zero_where_the_moments_are_not_finite():
    # at s = 150 Gamma(s + 23) of the thermal terms overflows, so every t > 0 cell disagrees
    engine = MomentEngine(Estimand.TEMPERATURE, SpectralParams(150.0), DEFAULT_QUADRATURE)
    batch = engine.moments([0.5, 0.5], [0.0, 1.0])
    assert np.all(batch[..., 0] == 0.0) and not np.all(np.isfinite(batch[..., 1]))
    assert engine.exponents(batch, [SqueezeParams(0.5, 1.0)])[2].tolist() == [True, False]
    assert one_pair(Estimand.TEMPERATURE, BathPoint(0.5, 0.0), SqueezeParams(0.5, 1.0),
                    SpectralParams(150.0)) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("estimand", list(Estimand))
def test_a_family_of_squeezings_equals_its_squeezings_one_by_one(estimand):
    # all four outputs of a k-squeezing call are those of k one-squeezing calls, bit for
    # bit: cells that pass, cells the rounding bound refuses (r = 20 at t = 1e-5,
    # theta = 0: a negative gap) and cells whose truncations disagree (s = 150)
    squeezes = [SqueezeParams(0.0), SqueezeParams(0.7, 1.0), SqueezeParams(20.0, 0.0),
                SqueezeParams(3.0, 5.5)]
    kinds = set()
    for s, temperatures, times in ((0.5, [0.5, 0.01, 3.0, 0.5, 0.0], [1e-5, 0.3, 7.5, 0.0, 2.0]),
                                   (150.0, [0.5, 0.001, 0.5], [1.0, 0.3, 0.0])):
        engine = MomentEngine(estimand, SpectralParams(s), DEFAULT_QUADRATURE)
        batch = engine.moments(temperatures, times)
        family, n = engine.exponents(batch, squeezes), len(times)
        for k, sq in enumerate(squeezes):
            for got, one in zip(family, engine.exponents(batch, [sq])):
                assert got[k * n:(k + 1) * n].tobytes() == one.tobytes(), (s, sq)
        _, _, agree, gaps = family
        kinds |= {"passes" if ok else "refused" if gap < 0.0 else "disagrees"
                  for ok, gap in zip(agree, gaps)}
    assert kinds == {"passes", "refused", "disagrees"}


def test_long_time_grid_is_chunked_and_matches_a_single_block(monkeypatch):
    sq, sp = SqueezeParams(0.3, 1.0), SpectralParams(1.0)
    spec = GridSpec(
        estimand=Estimand.SQUEEZE_AMPLITUDE, t_lo=0.0, t_hi=1000.0, T_lo=0.5, T_hi=1.0,
        t_points=400, T_points=2, sq=sq, sp=sp,
    )
    monkeypatch.setattr(moments, "CHUNK", 64)  # 13 chunks of pairs
    table = density_grid(spec)
    assert len(table.rows) == 800
    monkeypatch.undo()
    times = [float(t) for t in np.linspace(0.0, 1000.0, 400)]
    engine = MomentEngine(spec.estimand, sp, DEFAULT_QUADRATURE)
    # the sampled cells as one batch
    picked = [(i, j) for i in range(2) for j in list(range(0, 400, 40)) + [399]]
    values, derivatives, _, _ = engine.exponents(
        engine.moments([(0.5, 1.0)[i] for i, _ in picked], [times[j] for _, j in picked]), [sq])
    for k, (i, j) in enumerate(picked):
        _, _, gamma_value, dgamma, _ = table.rows[400 * i + j]
        assert (gamma_value, dgamma) == (values[k], derivatives[k])


def test_every_recipe_batch_is_one_chunk(monkeypatch):
    # figs 7-9 are 2,500 pairs, and fig10's 40 x 64 scan is the largest batch a recipe makes
    sizes, moments_of = {}, MomentEngine.moments

    def recorded(engine, temperatures, times):
        sizes[name] = max(sizes.get(name, 0), len(times))
        return moments_of(engine, temperatures, times)

    monkeypatch.setattr(MomentEngine, "moments", recorded)
    for name, recipe in cli.RECIPES.items():
        with redirect_stdout(io.StringIO()):
            assert cli.main([recipe["subcommand"], "--recipe", name, "--out", os.devnull]) == 0
    assert sizes["fig7"] == sizes["fig8"] == sizes["fig9"] == 2500
    assert max(sizes.values()) == sizes["fig10"] == 40 * 64


def test_a_fig10_scan_chunk_peaks_below_a_few_mib():
    # the batch runs in blocks of CHUNK pairs, so its temporaries are a block's: about
    # 0.94 MiB with the result; the whole 2,560-pair scan in one block peaks near 3.6 MiB
    engine = MomentEngine(Estimand.TEMPERATURE, SpectralParams(0.5), DEFAULT_QUADRATURE)
    pairs = grid_pairs(np.linspace(0.2, 2.0, 40), np.linspace(0.0, 20.0, 64))
    engine.moments(*pairs)  # the cached coefficients
    tracemalloc.start()
    try:
        engine.moments(*pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("estimand", list(Estimand))
@pytest.mark.parametrize("s", [0.3, 1.0, 2.0, 3.0])
def test_row_and_time_chunks_do_not_change_the_moments(monkeypatch, estimand, s):
    # a grid, then T = 0, t = 0, Taylor (2 T t < 0.05 a) and Euler-Maclaurin pairs; the
    # pairs at T = 0.5 run from the Taylor branch into Euler-Maclaurin, across a block of 7
    engine = MomentEngine(estimand, SpectralParams(s), DEFAULT_QUADRATURE)
    pairs = [*zip(*grid_pairs([0.01, 0.5, 3.0], [0.0, 0.5, 3.0, 10.0])),
             (0.0, 0.7), (0.01, 1e-4), (3.0, 0.0),
             *[(0.5, t) for t in np.geomspace(1e-3, 50.0, 11)],
             (0.5, 0.0), (0.01, 0.5), (3.0, 2.0), (0.0, 0.0)]
    temperatures, times = zip(*pairs)
    whole = engine.moments(temperatures, times)
    assert whole.shape == (2, engine.sets, 3, 30)
    assert np.array_equal(engine.moments(temperatures, times), whole)  # a second call repeats
    for chunk in (1, 7):  # one pair per block; blocks that split T = 0.5's pairs
        monkeypatch.setattr(moments, "CHUNK", chunk)
        assert np.array_equal(engine.moments(temperatures, times), whole), chunk
    monkeypatch.undo()
    for p, (temperature, time) in enumerate(pairs):  # and each pair alone
        assert np.array_equal(engine.moments([temperature], [time]), whole[..., p:p + 1])


def test_one_pair_batches_equal_the_grid_batch_bit_for_bit():
    # fig7's cells; its Taylor-branch pairs must sum their terms alone as in the batch
    temperatures = [float(T) for T in np.linspace(0.01, 3.0, 50)]
    times = [float(t) for t in np.linspace(0.0, 10.0, 50)]
    engine = MomentEngine(Estimand.TEMPERATURE, SpectralParams(0.5), DEFAULT_QUADRATURE)
    batch = engine.moments(*grid_pairs(temperatures, times))
    for k, (temperature, time) in enumerate(itertools.product(temperatures, times)):
        alone = engine.moments([temperature], [time])[..., 0]
        assert np.array_equal(alone, batch[..., k]), (temperature, time)


@pytest.mark.parametrize("estimand", list(Estimand))
def test_pairs_are_the_diagonal_of_the_cross_product(estimand):
    # a search round's pairs, in any order, take the moments of the same grid cells
    temperatures = [0.01, 0.5, 3.0] if estimand is Estimand.TEMPERATURE else [0.0, 0.01, 0.5, 3.0]
    times = [0.0, 0.3, 7.5, 20.0]
    engine = MomentEngine(estimand, SpectralParams(0.5), DEFAULT_QUADRATURE)
    cross = engine.moments(*grid_pairs(temperatures, times))
    cells = list(itertools.product(range(len(temperatures)), range(len(times))))[::-1]
    pairs = engine.moments([temperatures[i] for i, _ in cells], [times[j] for _, j in cells])
    assert pairs.shape == cross.shape
    for p, (i, j) in enumerate(cells):
        assert np.array_equal(pairs[..., p], cross[..., i * len(times) + j])


@pytest.mark.parametrize("estimand", list(Estimand))
def test_every_product_of_a_sub_ohmic_engine_agrees(estimand):
    # at s = 0.02 the thermal terms' w**(s - 1) ramp carries most of gamma: the cross
    # product, its pairs one by one and single points agree
    sq, sp = SqueezeParams(0.5, 1.0), SpectralParams(0.02)
    temperatures, times = [0.5, 1.0], [0.5, 1.0]
    engine = MomentEngine(estimand, sp, DEFAULT_QUADRATURE)
    expected = engine.exponents(engine.moments(*grid_pairs(temperatures, times)), [sq])
    for k, (temperature, time) in enumerate(itertools.product(temperatures, times)):
        one = engine.exponents(engine.moments([temperature], [time]), [sq])
        assert [part[0] for part in one[:2]] == [part[k] for part in expected[:2]]
        point = one_pair(estimand, BathPoint(temperature, time), sq, sp)
        assert point[:2] == (expected[0][k], expected[1][k])


@pytest.mark.parametrize("omega_c", [1e-3, 1.0, 1e3])
def test_ohmic_vacuum_is_half_log1p(omega_c):
    # T = 0, r = 0, s = 1: gamma = int e^(-w / omega_c) (1 - cos wt) / w dw
    for x in np.geomspace(1e-3, 1e6, 37):
        point = BathPoint(0.0, float(x) / omega_c)
        value = decoherence.gamma(point, SqueezeParams(0.0), SpectralParams(1.0, omega_c)).value
        assert value == pytest.approx(0.5 * math.log1p((omega_c * point.time) ** 2), rel=1e-13)


@pytest.mark.parametrize("s", [0.05, 0.5, 1.5, 2.0, 2.5, 10.0])
def test_zero_temperature_gamma_matches_the_mpmath_closed_form(s):
    # at T = 0 the oracle is the vacuum integrals Gamma(s - 1) [1 - (1 - i k omega_c t)**(1 - s)],
    # k = 1, 2, alone
    sq = SqueezeParams(0.7, 2.0)
    for omega_c, t in itertools.product((1e-3, 1.0, 1e3), (1e-6, 1e-2, 1.0, 30.0, 1e3)):
        point, sp = BathPoint(0.0, t), SpectralParams(s, omega_c)
        expected, _ = hurwitz_reference.exponents(Estimand.SQUEEZE_AMPLITUDE, point, sq, sp)
        assert decoherence.gamma(point, sq, sp).value == pytest.approx(expected, rel=1e-12), (
            omega_c, t)


def test_long_time_sub_ohmic_gamma_matches_the_hurwitz_zeta_value():
    # point --estimand T --temp 0.5 --time 1000 --r 0.5 --theta 1 --s 0.3; the value is
    # ROADMAP item 2's, from an earlier evaluation of the same closed form
    point, sq, sp = BathPoint(0.5, 1000.0), SqueezeParams(0.5, 1.0), SpectralParams(0.3)
    expected = 234268.67760999647
    assert hurwitz_reference.exponents(Estimand.TEMPERATURE, point, sq, sp)[0] == pytest.approx(
        expected, rel=1e-13)
    value = decoherence.gamma(point, sq, sp).value
    assert value == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("temperature,t,r,theta,s,key", GAMMA_REFERENCES)
def test_zeta_oracle_reproduces_the_frozen_references(temperature, t, r, theta, s, key):
    expected = REFERENCE_VALUES[key]
    assert hurwitz_reference.exponents(
        Estimand.SQUEEZE_PHASE, BathPoint(temperature, t), SqueezeParams(r, theta),
        SpectralParams(s),
    )[0] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("estimand", list(Estimand))
@pytest.mark.parametrize("s", [1.0, 2.0])
def test_engine_matches_the_zeta_oracle_at_its_poles(estimand, s):
    # s = 1 and s = 2 are poles of Gamma(s - 1) and zeta(1, .), whose limits the oracle
    # writes out; the engine's terms have none
    sq = SqueezeParams(0.7, 2.0)
    for T, t, omega_c in itertools.product((0.0, 0.01, 0.7, 30.0), (1e-3, 1.3, 40.0),
                                           (0.5, 100.0)):
        point, sp = BathPoint(T, t), SpectralParams(s, omega_c)
        value, derivative, _ = one_pair(estimand, point, sq, sp)
        expected = hurwitz_reference.exponents(estimand, point, sq, sp)
        assert within_tolerance(value, derivative, *expected), (point, sp, value, expected)


def test_zeta_oracle_holds_beyond_the_edge_of_the_domain():
    # at s = 20 and a = 1 + T / omega_c = 101, zeta(19, 101) at 30 digits is 1.8e-9 off
    # its value, and an oracle at 30 digits was 1.7e-9 off the engine on gamma
    point, sq, sp = BathPoint(100.0, 1.0), SqueezeParams(0.5, 1.0), SpectralParams(20.0)
    value, derivative, _ = one_pair(Estimand.TEMPERATURE, point, sq, sp)
    expected, expected_derivative = hurwitz_reference.exponents(
        Estimand.TEMPERATURE, point, sq, sp)
    assert abs(value - expected) <= 1e-13 * expected
    assert abs(derivative - expected_derivative) <= 1e-12 * abs(expected_derivative)


def test_large_cutoff_long_time_point_needs_few_terms():
    # omega_c t = 1e5 takes the same terms as any other point
    estimand, point = Estimand.SQUEEZE_AMPLITUDE, BathPoint(0.5, 100.0)
    sq, sp = SqueezeParams(0.5, 1.0), SpectralParams(0.5, 1000.0)
    value, derivative, _ = one_pair(estimand, point, sq, sp)
    expected, expected_derivative = hurwitz_reference.exponents(estimand, point, sq, sp)
    assert abs(value - expected) <= 1e-8 * expected
    assert abs(derivative - expected_derivative) <= 1e-8 * max(abs(expected_derivative), expected)


# at theta = 0 and small omega t, b (M0 - even) with b = e^(2r) / 2 cancels to about
# (omega t)**2 of its size and carries most of gamma; without a bound on its rounding some
# of these points came back up to 180 times the tolerance off the oracle
LARGE_R_SMALL_T = [
    (Estimand(estimand), BathPoint(T, t), SqueezeParams(r, 0.0), SpectralParams(s))
    for estimand, T, s in (("r", 3.0, 0.5), ("T", 0.5, 0.5), ("theta", 0.0, 3.0), ("r", 0.0, 3.0))
    for r in (15.0, 20.0, 30.0) for t in (1e-5, 1e-4)
]


def test_large_r_small_time_points_meet_tolerance_or_are_refused():
    outcomes = []
    for estimand, point, sq, sp in LARGE_R_SMALL_T:
        try:
            sample = qfi_point(estimand, point, sq, sp)
        except moments.ConvergenceError as exc:
            assert "rounding of the assembly fails" in str(exc), (estimand, point, sq, sp)
            outcomes.append("refused")
            continue
        # the tolerance of the engine's checks, abs_tol included: gamma is near 1e-7 here
        expected, expected_derivative = hurwitz_reference.exponents(estimand, point, sq, sp)
        assert abs(sample.gamma - expected) <= max(1e-12, 1e-8 * expected), (
            estimand, point, sq, sp, sample.gamma, expected)
        assert abs(sample.dgamma - expected_derivative) <= max(
            1e-12, 1e-8 * max(abs(expected_derivative), expected)), (
            estimand, point, sq, sp, sample.dgamma, expected_derivative)
        outcomes.append("met")
    assert set(outcomes) == {"met", "refused"}


def _domain_sample():
    """(estimand, point, squeeze, spectral) at the corners of the supported domain
    (s in [0.05, 10], omega_c in [1e-3, 1e3], t <= 1e3, T >= 0, here T <= 100), then
    at 200 seeded points inside it, T = 0 at every fifth."""
    estimands = list(Estimand)
    for k, (s, omega_c, t, T) in enumerate(itertools.product(
            (0.05, 10.0), (1e-3, 1e3), (1e-6, 1e3), (0.0, 100.0))):
        estimand = estimands[k % 3] if T > 0.0 else Estimand.SQUEEZE_AMPLITUDE
        yield estimand, BathPoint(T, t), SqueezeParams(0.5, 1.0), SpectralParams(s, omega_c)
    rng = np.random.default_rng(20261018)
    for checked in range(200):
        s = float(10.0 ** rng.uniform(math.log10(0.05), 1.0))
        omega_c = float(10.0 ** rng.uniform(-3.0, 3.0))
        t = float(10.0 ** rng.uniform(-6.0, 3.0))
        estimand = estimands[checked % 3]
        T = 0.0 if checked % 5 == 0 and estimand is not Estimand.TEMPERATURE else float(
            10.0 ** rng.uniform(-3.0, 2.0)
        )
        sq = SqueezeParams(float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 2.0 * math.pi)))
        yield estimand, BathPoint(T, t), sq, SpectralParams(s, omega_c)


def test_seeded_domain_sample_is_finite():
    # every point, the corner omega_c = 1e3, t = 1e3, T = 100 included, agrees on the
    # two truncations and is finite: none is refused. The single-point functions return
    # the engine's values, and gamma its truncation gap, unchanged
    for estimand, point, sq, sp in _domain_sample():
        sample = qfi_point(estimand, point, sq, sp, ProbeInit())
        assert all(map(math.isfinite, (sample.gamma, sample.dgamma, sample.qfi))), (point, sq, sp)
        value, derivative, agree, _ = engine_point(estimand, point, sq, sp)
        assert agree, (point, sq, sp)
        assert (sample.gamma, sample.dgamma) == (value, derivative), (point, sq, sp)
        assert decoherence.gamma_partial(estimand, point, sq, sp) == derivative
        value, _, _, gap = engine_point(None, point, sq, sp)
        result = decoherence.gamma(point, sq, sp)
        assert (result.value, result.est_error) == (value, gap), (point, sq, sp)


def _sample_inputs(estimand, point, sq, sp):
    return (estimand.value, point.temperature, point.time, sq.r, sq.theta, sp.s, sp.omega_c)


def test_the_frozen_domain_oracle_is_the_sample_and_the_zeta_oracle():
    # the frozen values are the sample's points in order, and the live oracle's values
    # at a few of them: regenerate them with scripts/make_domain_sample_values.py
    sample = list(_domain_sample())
    assert [_sample_inputs(*case) for case in sample] == [
        row[:7] for row in DOMAIN_SAMPLE_VALUES]
    for k in (0, 15, 16, 215):
        assert hurwitz_reference.exponents(*sample[k]) == DOMAIN_SAMPLE_VALUES[k][7:], k


def test_seeded_domain_sample_meets_tolerance_against_the_zeta_oracle():
    # inside the supported domain every result the engine returns meets 1e-8 on gamma,
    # and on d gamma relative to max(|d gamma|, gamma), against the zeta oracle's values
    # frozen in DOMAIN_SAMPLE_VALUES
    for (estimand, point, sq, sp), row in zip(_domain_sample(), DOMAIN_SAMPLE_VALUES,
                                              strict=True):
        value, derivative, _ = one_pair(estimand, point, sq, sp)
        expected, expected_derivative = row[7:]
        assert abs(value - expected) <= 1e-8 * expected, (estimand, point, sq, sp)
        assert abs(derivative - expected_derivative) <= 1e-8 * max(
            abs(expected_derivative), expected), (estimand, point, sq, sp)


def test_seeded_sample_below_the_domain_meets_tolerance_against_the_zeta_oracle():
    # s in [0.001, 0.05], where the w**(s - 1) endpoint holds nearly all of gamma
    rng = np.random.default_rng(20261019)
    estimands = list(Estimand)
    for checked in range(40):
        estimand = estimands[checked % 3]
        T = 0.0 if checked % 5 == 0 and estimand is not Estimand.TEMPERATURE else float(
            10.0 ** rng.uniform(-3.0, 1.0))
        point = BathPoint(T, float(10.0 ** rng.uniform(-3.0, 2.0)))
        sq = SqueezeParams(float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 2.0 * math.pi)))
        sp = SpectralParams(float(10.0 ** rng.uniform(-3.0, math.log10(0.05))),
                            float(10.0 ** rng.uniform(-2.0, 2.0)))
        value, derivative, _ = one_pair(estimand, point, sq, sp)
        expected = hurwitz_reference.exponents(estimand, point, sq, sp)
        assert within_tolerance(value, derivative, *expected), (estimand, point, sq, sp)


POLE_OFFSETS = [0.0, 1e-6, -1e-6, 1e-9, -1e-9, 1e-12, -1e-12]


@pytest.mark.parametrize("s", [pole + offset for pole in (1.0, 2.0) for offset in POLE_OFFSETS])
def test_points_at_and_near_the_poles_match_the_zeta_oracle(s):
    # Gamma(q) and zeta(1, .) have poles at s = 1 and s = 2; the oracle takes their limits
    # there, and the engine's terms, written from expm1, pass through them
    sq = SqueezeParams(0.7, 2.0)
    points = [(0.01, 1.3, 0.5), (0.7, 1e-3, 100.0), (0.7, 40.0, 0.5), (30.0, 1.3, 100.0)]
    for estimand, (T, t, omega_c) in itertools.product(Estimand, points):
        point, sp = BathPoint(T, t), SpectralParams(s, omega_c)
        value, derivative, _ = one_pair(estimand, point, sq, sp)
        expected = hurwitz_reference.exponents(estimand, point, sq, sp)
        assert within_tolerance(value, derivative, *expected), (point, sp, value, expected)


def test_the_order_weights_equal_the_parity_rule_of_each_order():
    # the weight of (i k)**m in (M0, Mc, Ms), as the series stated it per order: sign
    # (-1)**(m // 2), 1 on M0 at even m, 2**(m - 1) - 1 on Mc at even m and on Ms at odd m
    taylor = moments._coefficients(0.5, moments.TRUNCATIONS)["orders"]
    used = sorted(set(range(2, moments._VACUUM_ORDER + 1)) | set(taylor.tolist()))
    assert moments._ORDERS.shape == (3, used[-1] + 1)
    for m in used:
        sign, doubled, even = (-1.0) ** (m // 2), 2.0 ** (m - 1) - 1.0, m % 2 == 0
        rule = sign * np.array([float(even), doubled * even, doubled * (not even)])
        assert np.array_equal(moments._ORDERS[:, m], rule), m


def test_each_truncation_of_the_taylor_terms_stops_at_its_own_orders():
    # one (truncation, set, order, T) table: the first truncation's N + 2 + J orders,
    # then zeros that leave its running sums' bits unchanged, so its gap to the
    # second is the orders it leaves out
    tau = np.array([0.01, 0.7, 30.0])
    used = np.array([True, False, True])
    terms = moments.taylor.terms(moments._coefficients(0.5, moments.TRUNCATIONS),
                                 moments.TRUNCATIONS, 0.5, tau, used, 2)
    assert terms.shape == (2, 2, 18, 3) and np.all(terms[..., ~used] == 0.0)
    for truncation, (n, j) in zip(terms[..., used], moments.TRUNCATIONS):
        orders = n + 2 + j
        assert np.all(truncation[:, :orders] != 0.0) and np.all(truncation[:, orders:] == 0.0)


@pytest.mark.parametrize("s", [0.05, 0.5, 1.0, 2.0, 3.0, 10.0])
def test_series_and_euler_maclaurin_agree_on_both_sides_of_the_switch(s):
    # the Taylor series takes over below 2 T t = SERIES_CUTOFF a; both forms hold there
    engine = MomentEngine(Estimand.TEMPERATURE, SpectralParams(s), DEFAULT_QUADRATURE)
    temperatures = np.repeat([0.01, 0.7, 30.0], 2)
    a = 1.0 + temperatures
    products = a * np.tile([1.0 - 1e-9, 1.0 + 1e-9], 3) * moments.SERIES_CUTOFF / 2.0
    # each temperature has a pair on each side, so the batch has both branches' tables
    batch = engine._batch(temperatures, products / temperatures)
    assert batch["series"].tolist() == [True, False] * 3
    row, products = batch["row"], batch["products"]
    series = engine._taylor(batch, row, products)
    summed = engine._euler_maclaurin(batch, row, products)
    scale = np.abs(summed).max(axis=2, keepdims=True)
    assert np.all(np.abs(series - summed) <= 1e-12 * scale)
    sq = SqueezeParams(1.5, 0.0)
    for temperature, product in zip(temperatures, products):
        point = BathPoint(float(temperature), float(product / temperature))
        value, derivative, _ = one_pair(Estimand.TEMPERATURE, point, sq, SpectralParams(s))
        expected = hurwitz_reference.exponents(Estimand.TEMPERATURE, point, sq, SpectralParams(s))
        assert within_tolerance(value, derivative, *expected), (point, value, expected)


@pytest.mark.parametrize("estimand", list(Estimand))
def test_tiny_products_keep_the_cancellations_of_the_moments(estimand):
    # at T t = 1.6e-6, M0 - Mc is of order (T t)**4 against M0's (T t)**2: the series is
    # summed per moment, so the squeezed combination keeps full precision
    for s, T, theta in itertools.product((0.3, 1.0, 3.0), (0.016, 1.6, 160.0), (0.0, 1.0)):
        point, sq, sp = BathPoint(T, 1.6e-6 / T), SqueezeParams(1.5, theta), SpectralParams(s)
        value, derivative, _ = one_pair(estimand, point, sq, sp)
        expected = hurwitz_reference.exponents(estimand, point, sq, sp)
        assert within_tolerance(value, derivative, *expected), (point, sq, sp, value, expected)


def test_seeded_sample_matches_the_adaptive_quadrature_oracle():
    # adaptive QUADPACK quadrature of the integrand, which shares no formula with the
    # closed form; s >= 0.3, where that oracle holds
    rng = np.random.default_rng(20261020)
    estimands = list(Estimand)
    for checked in range(24):
        estimand = estimands[checked % 3]
        T = 0.0 if checked % 5 == 0 and estimand is not Estimand.TEMPERATURE else float(
            10.0 ** rng.uniform(-2.0, 1.0))
        point = BathPoint(T, float(10.0 ** rng.uniform(-2.0, 1.5)))
        sq = SqueezeParams(float(rng.uniform(0.0, 1.5)), float(rng.uniform(0.0, 2.0 * math.pi)))
        sp = SpectralParams(float(10.0 ** rng.uniform(math.log10(0.3), 1.0)),
                            float(10.0 ** rng.uniform(-0.5, 0.5)))
        value, derivative, _ = one_pair(estimand, point, sq, sp)
        assert within_tolerance(value, derivative, gamma(point, sq, sp).value,
                                gamma_partial(estimand, point, sq, sp)), (estimand, point, sq, sp)
