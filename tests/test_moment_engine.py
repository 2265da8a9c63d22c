import itertools
import math

import numpy as np
import pytest

import hurwitz_reference
from adaptive_reference import gamma, gamma_partial
from qfibath import moments
from qfibath.moments import DEFAULT_QUADRATURE, ConvergenceError, MomentEngine, point_exponents
from qfibath.probe_state import ProbeInit
from qfibath.qfi_engine import qfi_point
from qfibath.spectral_bath import (BathPoint, Estimand, SpectralParams, SqueezeParams,
                                   thermal_factor)
from qfibath.sweep_optimize import GridSpec, density_grid
from reference_values import REFERENCE_VALUES

TEMPERATURES = [0.0, 0.01, 0.1, 0.5, 1.5, 3.0]
TIMES = [0.0, 0.3, 2.0, 7.5, 20.0]
SQUEEZES = [SqueezeParams(0.0), SqueezeParams(1.2, 2.5), SqueezeParams(3.0, 5.5)]


def engine_point(estimand, point, sq, sp):
    """(gamma, dgamma, pair agreement) of one point through the engine."""
    engine = MomentEngine(estimand, sp, DEFAULT_QUADRATURE, [point.temperature], point.time)
    values, derivatives, agree = engine.exponents(engine.moments([point.time]), sq)
    return values[0][0], derivatives[0][0], agree[0][0]


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
    engine = MomentEngine(estimand, sp, DEFAULT_QUADRATURE, TEMPERATURES, max(TIMES))
    batch = engine.moments(TIMES)
    for sq in SQUEEZES:
        values, derivatives, agree = engine.exponents(batch, sq)
        for i, temperature in enumerate(TEMPERATURES):
            for j, time in enumerate(TIMES):
                point = BathPoint(temperature, time)
                assert agree[i][j], (point, sq)
                assert within_tolerance(
                    values[i][j],
                    derivatives[i][j],
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
    value, _, agree = engine_point(
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
    _, derivative, agree = engine_point(
        estimand, BathPoint(0.5, 1.0), SqueezeParams(r, 1.0), SpectralParams(0.5)
    )
    assert agree
    assert derivative == pytest.approx(REFERENCE_VALUES[key], rel=1e-10)


@pytest.mark.parametrize("estimand", list(Estimand))
def test_zero_time_is_exactly_zero(estimand):
    engine = MomentEngine(estimand, SpectralParams(0.5), DEFAULT_QUADRATURE, [0.0, 1.0], 5.0)
    batch = engine.moments([0.0, 5.0])
    assert np.all(batch[..., 0] == 0.0)
    values, derivatives, agree = engine.exponents(batch, SqueezeParams(0.7, 2.0))
    for i in range(2):
        assert values[i][0] == 0.0 and derivatives[i][0] == 0.0 and agree[i][0]


def test_zero_temperature_thermal_factors_are_exact():
    # the integrated part of coth = 1 + 2 n(w) is 2 n(w), which vanishes at T = 0
    omega = np.geomspace(1e-12, 50.0, 101)
    assert np.all(moments._thermal(omega, 0.0) == 0.0)
    assert np.all(1.0 + moments._thermal(omega, 0.0) == [thermal_factor(w, 0.0) for w in omega])
    assert np.all(moments._thermal_dT(omega, 0.0) == 0.0)
    _, derivative, _ = engine_point(
        Estimand.TEMPERATURE, BathPoint(0.0, 2.0), SqueezeParams(0.4, 1.0), SpectralParams(0.5)
    )
    assert derivative == 0.0


def test_vectorized_thermal_factors_match_references():
    omega = [2.0, 1e-8, 2.0 * 9.99e-5, 2.0 * 1.001e-4]
    coth = 1.0 + moments._thermal(np.array(omega), 1.0)
    for w, value, key, rel in zip(
        omega, coth, ("coth_1", "coth_5e-9", "coth_9.99e-5", "coth_1.001e-4"),
        (1e-12, 1e-12, 1e-10, 1e-10),
    ):
        assert value == pytest.approx(REFERENCE_VALUES[key], rel=rel)
        assert value == pytest.approx(thermal_factor(w, 1.0), rel=rel)
    assert moments._thermal_dT(np.array([1.0]), 0.7)[0] == pytest.approx(
        REFERENCE_VALUES["dcoth_dT_w1_T0.7"], rel=1e-12
    )


def test_pair_disagreement_refines_the_point():
    # at s = 0.02 the base rule's map w = a x**(2 / s) underflows to w = 0, so its
    # moments are not finite and every point goes to the refined rule; the t = 0
    # points are exactly 0 with no nodes and are not counted
    sq, sp = SqueezeParams(0.1, 1.0), SpectralParams(0.02)
    spec = GridSpec(
        estimand=Estimand.TEMPERATURE, t_lo=0.0, t_hi=1.5, T_lo=0.4, T_hi=0.8,
        t_points=3, T_points=2, sq=sq, sp=sp,
    )
    table = density_grid(spec)
    assert table.metadata["fallbacks"] == 4
    for sample in table.samples:
        if sample.point.time == 0.0:
            assert sample.gamma == 0.0 and sample.dgamma == 0.0
            continue
        assert math.isfinite(sample.qfi) and sample.gamma > 0.0
        assert (sample.gamma, sample.dgamma) == point_exponents(
            Estimand.TEMPERATURE, sample.point, sq, sp
        )[:2]


def test_agreeing_grid_counts_no_fallback():
    spec = GridSpec(
        estimand=Estimand.SQUEEZE_AMPLITUDE, t_lo=0.0, t_hi=10.0, T_lo=0.01, T_hi=3.0,
        t_points=5, T_points=4, sq=SqueezeParams(0.1, 1.0), sp=SpectralParams(0.5),
    )
    assert density_grid(spec).metadata["fallbacks"] == 0


def test_long_time_grid_is_chunked_and_matches_a_single_block(monkeypatch):
    sq, sp = SqueezeParams(0.3, 1.0), SpectralParams(1.0)
    spec = GridSpec(
        estimand=Estimand.SQUEEZE_AMPLITUDE, t_lo=0.0, t_hi=1000.0, T_lo=0.5, T_hi=1.0,
        t_points=400, T_points=2, sq=sq, sp=sp,
    )
    table = density_grid(spec)
    assert len(table.samples) == 800
    assert table.metadata["fallbacks"] == 0
    temperatures = [0.5, 1.0]
    times = [float(t) for t in np.linspace(0.0, 1000.0, 400)]
    engine = MomentEngine(spec.estimand, sp, DEFAULT_QUADRATURE, temperatures, 1000.0)
    assert max(omega.size for omega, _ in engine._rules) * 3 * 8 * len(times) > moments.K_BYTES
    # the same rule with the sampled times in one block
    monkeypatch.setattr(moments, "K_BYTES", 2**62)
    monkeypatch.setattr(moments, "F_BYTES", 2**62)
    picked = list(range(0, 400, 40)) + [399]
    values, derivatives, _ = engine.exponents(engine.moments([times[j] for j in picked]), sq)
    for i in range(2):
        for k, j in enumerate(picked):
            sample = table.samples[400 * i + j]
            scale = max(sample.gamma, abs(sample.dgamma), 1e-300)
            assert abs(sample.gamma - values[i][k]) <= 1e-12 * scale
            assert abs(sample.dgamma - derivatives[i][k]) <= 1e-12 * scale


def test_row_and_time_chunks_do_not_change_the_moments(monkeypatch):
    engine = MomentEngine(
        Estimand.TEMPERATURE, SpectralParams(0.5), DEFAULT_QUADRATURE, [0.01, 0.5, 3.0], 10.0
    )
    times = [0.0, 0.5, 3.0, 10.0]
    whole = engine.moments(times)
    assert whole.shape == (2, 2, 3, 3, len(times))
    assert np.array_equal(engine.moments(times), whole)  # a second call repeats exactly
    monkeypatch.setattr(moments, "K_BYTES", 1)
    monkeypatch.setattr(moments, "F_BYTES", 1)
    assert len(engine.blocks()) == 3  # one temperature per block
    assert np.allclose(engine.moments(times), whole, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("estimand", list(Estimand))
def test_pairs_are_the_diagonal_of_the_cross_product(estimand, monkeypatch):
    temperatures = [0.0, 0.01, 0.5, 3.0]
    engine = MomentEngine(estimand, SpectralParams(0.5), DEFAULT_QUADRATURE, temperatures, 20.0)
    block = range(1, 4) if estimand is Estimand.TEMPERATURE else range(4)
    factors = engine.factors(block)
    times = [0.0, 0.3, 7.5, 20.0]
    cross = engine.scan(factors, times)
    sets = cross.shape[1]
    assert cross.shape == (2, sets, len(block), 3, len(times))
    rows = [row for row in range(len(block)) for _ in times]
    columns = [j for _ in block for j in range(len(times))]
    pairs = engine.pairs(factors, rows, [times[j] for j in columns])
    assert pairs.shape == (2, sets, 1, 3, len(rows))
    picked = np.empty_like(pairs)
    for p, (row, j) in enumerate(zip(rows, columns)):
        picked[:, :, 0, :, p] = cross[:, :, row, :, j]
    scale = np.abs(picked).max(axis=-1, keepdims=True)
    assert np.all(np.abs(pairs - picked) <= 1e-13 * scale)
    # time chunks of one pair give the same values
    monkeypatch.setattr(moments, "K_BYTES", 1)
    assert np.array_equal(engine.pairs(factors, rows, [times[j] for j in columns]), pairs)


def test_blocks_cover_the_temperatures_within_the_factor_bound(monkeypatch):
    temperatures = [float(T) for T in np.linspace(0.2, 2.0, 40)]
    engine = MomentEngine(
        Estimand.TEMPERATURE, SpectralParams(0.5), DEFAULT_QUADRATURE, temperatures, 20.0
    )
    assert engine.blocks() == [range(40)]
    monkeypatch.setattr(moments, "F_BYTES", 8 * 2 * 7 * max(o.size for o, _ in engine._rules))
    blocks = engine.blocks()
    assert [len(block) for block in blocks] == [7] * 5 + [5]
    assert [i for block in blocks for i in block] == list(range(40))
    assert all(f.nbytes <= moments.F_BYTES for f in engine.factors(blocks[0])[0])


@pytest.mark.parametrize("estimand", list(Estimand))
def test_every_product_of_a_refined_engine_adds_the_head(estimand):
    # at s = 0.02 the head [0, w0] carries over half of gamma
    sq, temperatures, times = SqueezeParams(0.5, 1.0), [0.5, 1.0], [0.5, 1.0]
    engine = MomentEngine(estimand, SpectralParams(0.02), DEFAULT_QUADRATURE,
                          temperatures, max(times), refined=True)
    factors = engine.factors(range(2))
    rows = [i for i in range(2) for _ in times]
    expected = engine.exponents(engine.moments(times), sq)
    scanned = engine.exponents(engine.scan(factors, times), sq)
    paired = engine.exponents(engine.pairs(factors, rows, times * 2), sq)
    for k in (0, 1):  # gamma, d gamma
        for i in range(2):
            for j in range(2):
                value = expected[k][i][j]
                assert scanned[k][i][j] == pytest.approx(value, rel=1e-13, abs=0.0)
                assert paired[k][0][2 * i + j] == pytest.approx(value, rel=1e-13, abs=0.0)
    assert expected[0][0][1] == pytest.approx(
        point_exponents(None, BathPoint(0.5, 1.0), sq, SpectralParams(0.02))[0], rel=1e-12
    )


@pytest.mark.parametrize(
    "temperature,t,r,theta,s,key",
    [
        (0.7, 1.3, 0.4, 1.1, 0.5, "gamma_T0.7_t1.3_r0.4_th1.1_s0.5"),
        (0.7, 1.3, 0.4, 1.1, 3.0, "gamma_T0.7_t1.3_r0.4_th1.1_s3"),
        (1.0, 5.0, 1.5, math.pi, 0.5, "gamma_T1_t5_r1.5_thpi_s0.5"),
        (0.0, 1.0, 0.5, 2.0, 0.5, "gamma_T0_t1_r0.5_th2_s0.5"),
    ],
)
def test_refined_rule_matches_high_precision_references(temperature, t, r, theta, s, key):
    point, sq = BathPoint(temperature, t), SqueezeParams(r, theta)
    engine = MomentEngine(Estimand.TEMPERATURE, SpectralParams(s), DEFAULT_QUADRATURE,
                          [temperature], t, refined=True)
    values, derivatives, agree = engine.exponents(engine.moments([t]), sq)
    assert agree[0][0]
    assert values[0][0] == pytest.approx(REFERENCE_VALUES[key], rel=1e-10)
    # the closed-form head and the extra panels leave the refined derivative on the base one
    if temperature > 0.0:
        _, derivative, _, _ = point_exponents(Estimand.TEMPERATURE, point, sq, SpectralParams(s))
        assert derivatives[0][0] == pytest.approx(derivative, rel=1e-9)


@pytest.mark.parametrize("omega_c", [1e-3, 1.0, 1e3])
def test_ohmic_vacuum_is_half_log1p(omega_c):
    # T = 0, r = 0, s = 1: gamma = int e^(-w / omega_c) (1 - cos wt) / w dw
    for x in np.geomspace(1e-3, 1e6, 37):
        point = BathPoint(0.0, float(x) / omega_c)
        value, _, _, nodes = point_exponents(None, point, SqueezeParams(0.0),
                                             SpectralParams(1.0, omega_c))
        assert nodes == 0
        assert value == pytest.approx(0.5 * math.log1p((omega_c * point.time) ** 2), rel=1e-13)


@pytest.mark.parametrize("s", [0.05, 0.5, 1.5, 2.0, 2.5, 10.0])
def test_zero_temperature_gamma_matches_the_mpmath_closed_form(s):
    # at T = 0 the oracle is the vacuum integrals Gamma(s - 1) [1 - (1 - i k omega_c t)**(1 - s)],
    # k = 1, 2, alone
    sq = SqueezeParams(0.7, 2.0)
    for omega_c, t in itertools.product((1e-3, 1.0, 1e3), (1e-6, 1e-2, 1.0, 30.0, 1e3)):
        point, sp = BathPoint(0.0, t), SpectralParams(s, omega_c)
        expected, _ = hurwitz_reference.exponents(Estimand.SQUEEZE_AMPLITUDE, point, sq, sp)
        assert point_exponents(None, point, sq, sp)[0] == pytest.approx(expected, rel=1e-12), (
            omega_c, t)


def test_long_time_sub_ohmic_gamma_matches_the_hurwitz_zeta_value():
    # point --estimand T --temp 0.5 --time 1000 --r 0.5 --theta 1 --s 0.3; the value is
    # ROADMAP item 2's, from an earlier evaluation of the same closed form
    point, sq, sp = BathPoint(0.5, 1000.0), SqueezeParams(0.5, 1.0), SpectralParams(0.3)
    expected = 234268.67760999647
    assert hurwitz_reference.exponents(Estimand.TEMPERATURE, point, sq, sp)[0] == pytest.approx(
        expected, rel=1e-13)
    value = point_exponents(Estimand.TEMPERATURE, point, sq, sp)[0]
    assert value == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("temperature,t,r,theta,s,key",
                         [case for case in GAMMA_REFERENCES if case[4] not in (1.0, 2.0)])
def test_zeta_oracle_reproduces_the_frozen_references(temperature, t, r, theta, s, key):
    # s = 1 and s = 2 are poles of the oracle's closed form
    expected = REFERENCE_VALUES[key]
    assert hurwitz_reference.exponents(
        Estimand.SQUEEZE_PHASE, BathPoint(temperature, t), SqueezeParams(r, theta),
        SpectralParams(s),
    )[0] == pytest.approx(expected, rel=1e-14)


def test_large_cutoff_long_time_point_needs_few_nodes():
    # omega_c t = 1e5: only the thermal part, which ends near 50 / (1/omega_c + 1/T), is
    # integrated; integrating the vacuum part too took 13,750,396 nodes
    estimand, point = Estimand.SQUEEZE_AMPLITUDE, BathPoint(0.5, 100.0)
    sq, sp = SqueezeParams(0.5, 1.0), SpectralParams(0.5, 1000.0)
    value, derivative, _, nodes = point_exponents(estimand, point, sq, sp)
    assert nodes < 10**4
    expected, expected_derivative = hurwitz_reference.exponents(estimand, point, sq, sp)
    assert abs(value - expected) <= 1e-8 * expected
    assert abs(derivative - expected_derivative) <= 1e-8 * max(abs(expected_derivative), expected)


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
    # every point is finite, or too large for the node budget and refused with
    # ConvergenceError before its rule is allocated
    refused = refined = 0
    for estimand, point, sq, sp in _domain_sample():
        try:
            sample = qfi_point(estimand, point, sq, sp, ProbeInit())
        except ConvergenceError as exc:
            assert "over the node budget" in str(exc), (point, sq, sp)
            refused += 1
            continue
        assert all(map(math.isfinite, (sample.gamma, sample.dgamma, sample.qfi))), (point, sq, sp)
        engine = MomentEngine(estimand, sp, DEFAULT_QUADRATURE, [point.temperature], point.time)
        refined += not engine.exponents(engine.moments([point.time]), sq)[2][0][0]
    assert refused > 0  # the corner omega_c = 1e3, t = 1e3, T = 100
    assert refined > 0  # the sample reaches the refined rule


def test_seeded_domain_sample_meets_tolerance_against_the_zeta_oracle():
    # inside the supported domain every result the engine returns meets 1e-8 on gamma,
    # and on d gamma relative to max(|d gamma|, gamma)
    for estimand, point, sq, sp in _domain_sample():
        try:
            value, derivative, _, _ = point_exponents(estimand, point, sq, sp)
        except ConvergenceError:
            continue  # refused for the node budget, checked above
        expected, expected_derivative = hurwitz_reference.exponents(estimand, point, sq, sp)
        assert abs(value - expected) <= 1e-8 * expected, (estimand, point, sq, sp)
        assert abs(derivative - expected_derivative) <= 1e-8 * max(
            abs(expected_derivative), expected), (estimand, point, sq, sp)
