import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfibath import spectral_bath
from qfibath.spectral_bath import (
    R_MAX,
    TWO_PI,
    BathPoint,
    Estimand,
    SpectralParams,
    SqueezeParams,
    derivative_rule,
    gamma_integrand,
    parameter_value,
    shift_parameter,
    spectral_density,
    squeeze_kernel,
    thermal_factor,
    thermal_factor_dT,
)
from qfibath.sweep_optimize import SWEEP_AXES
from reference_values import REFERENCE_VALUES

frequencies = st.floats(1e-6, 50.0)
times = st.floats(0.0, 20.0)
amplitudes = st.floats(0.0, 3.0)
phases = st.floats(-10.0, 10.0)
temperatures = st.floats(0.0, 5.0)


def test_spectral_density_ohmic_point():
    assert spectral_density(1.0, SpectralParams(s=1.0)) == pytest.approx(
        math.exp(-1.0), rel=1e-14
    )


def test_spectral_density_vanishes_at_zero_frequency():
    assert spectral_density(0.0, SpectralParams(s=0.5)) == 0.0


def test_spectral_density_super_ohmic_point():
    assert spectral_density(2.0, SpectralParams(s=3.0)) == pytest.approx(
        8.0 * math.exp(-2.0), rel=1e-14
    )


def test_spectral_density_rejects_negative_frequency():
    with pytest.raises(ValueError):
        spectral_density(-0.1, SpectralParams(s=1.0))


@pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("omega_c", [0.5, 1.0, 2.0])
def test_spectral_density_peaks_at_s_times_cutoff(s, omega_c):
    sp = SpectralParams(s=s, omega_c=omega_c)
    grid = np.linspace(1e-9, 5.0 * s * omega_c, 4001)
    values = [spectral_density(float(w), sp) for w in grid]
    step = float(grid[1] - grid[0])
    assert abs(float(grid[int(np.argmax(values))]) - s * omega_c) <= step


def test_regime_classification_is_total():
    assert SpectralParams(s=0.5).regime == "sub-ohmic"
    assert SpectralParams(s=1.0).regime == "ohmic"
    assert SpectralParams(s=3.0).regime == "super-ohmic"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"s": 0.0},
        {"s": -1.0},
        {"s": float("nan")},
        {"s": 1.0, "omega_c": 0.0},
        {"s": 1.0, "omega_c": -2.0},
    ],
)
def test_spectral_params_invariants(kwargs):
    with pytest.raises(ValueError):
        SpectralParams(**kwargs)


def test_squeeze_params_store_theta_reduced():
    assert SqueezeParams(r=0.1, theta=-1.0).theta == pytest.approx(TWO_PI - 1.0, abs=1e-15)
    assert SqueezeParams(r=0.1, theta=TWO_PI).theta == 0.0
    assert SqueezeParams(r=0.1, theta=7.0).theta == pytest.approx(7.0 - TWO_PI, abs=1e-15)
    assert 0.0 <= SqueezeParams(r=0.0, theta=-1e-18).theta < TWO_PI


def test_squeeze_params_reject_negative_amplitude():
    with pytest.raises(ValueError):
        SqueezeParams(r=-0.01)


def test_squeeze_params_take_amplitudes_up_to_overflow_of_exp_2r():
    assert SqueezeParams(r=R_MAX).r == R_MAX
    assert math.isfinite(math.exp(2.0 * R_MAX))
    with pytest.raises(ValueError, match="^r must be <="):
        SqueezeParams(r=400.0)


def test_bath_point_domain():
    BathPoint(temperature=0.0, time=0.0)  # both boundaries are legal
    with pytest.raises(ValueError):
        BathPoint(temperature=-0.1, time=1.0)
    with pytest.raises(ValueError):
        BathPoint(temperature=1.0, time=-0.1)


@given(omega=frequencies, t=times, r=amplitudes, theta=phases)
def test_squeeze_kernel_stays_inside_exponential_bounds(omega, t, r, theta):
    kernel = squeeze_kernel(omega, t, SqueezeParams(r=r, theta=theta))
    assert math.exp(-2.0 * r) * (1.0 - 1e-12) <= kernel
    assert kernel <= math.exp(2.0 * r) * (1.0 + 1e-12)


@given(omega=frequencies, t=times, theta=phases)
def test_squeeze_kernel_is_one_without_squeezing(omega, t, theta):
    assert squeeze_kernel(omega, t, SqueezeParams(r=0.0, theta=theta)) == 1.0


def test_squeeze_kernel_hits_exponential_extremes():
    # theta - w t = 0 pins the kernel to exp(-2r); an extra pi flips it to exp(2r)
    assert squeeze_kernel(1.0, 1.0, SqueezeParams(r=0.5, theta=1.0)) == pytest.approx(
        math.exp(-1.0), rel=1e-15
    )
    assert squeeze_kernel(1.0, 1.0, SqueezeParams(r=0.5, theta=1.0 + math.pi)) == pytest.approx(
        math.e, rel=1e-15
    )


@given(omega=frequencies, t=times, r=amplitudes, theta=phases)
def test_squeeze_kernel_periodic_in_theta(omega, t, r, theta):
    first = squeeze_kernel(omega, t, SqueezeParams(r=r, theta=theta))
    second = squeeze_kernel(omega, t, SqueezeParams(r=r, theta=theta + TWO_PI))
    assert first == pytest.approx(second, rel=1e-12, abs=1e-11)


def test_thermal_factor_zero_temperature_limit_is_exactly_one():
    assert thermal_factor(1.0, 0.0) == 1.0


def test_thermal_factor_matches_references():
    assert thermal_factor(2.0, 1.0) == pytest.approx(REFERENCE_VALUES["coth_1"], rel=1e-12)
    assert thermal_factor(1e-8, 1.0) == pytest.approx(REFERENCE_VALUES["coth_5e-9"], rel=1e-12)


def test_thermal_factor_series_crossover_is_continuous():
    # both sides of the series switch stay within 1e-10 of the exact coth
    assert thermal_factor(2.0 * 9.99e-5, 1.0) == pytest.approx(
        REFERENCE_VALUES["coth_9.99e-5"], rel=1e-10
    )
    assert thermal_factor(2.0 * 1.001e-4, 1.0) == pytest.approx(
        REFERENCE_VALUES["coth_1.001e-4"], rel=1e-10
    )


@given(omega=st.floats(1e-4, 20.0), first=temperatures, second=temperatures)
def test_thermal_factor_at_least_one_and_monotone_in_temperature(omega, first, second):
    low, high = sorted((first, second))
    cold = thermal_factor(omega, low)
    hot = thermal_factor(omega, high)
    assert cold >= 1.0
    assert hot >= cold - 1e-12


def test_thermal_factor_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        thermal_factor(0.0, 1.0)
    with pytest.raises(ValueError):
        thermal_factor(-1.0, 1.0)
    with pytest.raises(ValueError):
        thermal_factor_dT(0.0, 1.0)


def test_thermal_factor_derivative_matches_reference():
    assert thermal_factor_dT(1.0, 0.7) == pytest.approx(
        REFERENCE_VALUES["dcoth_dT_w1_T0.7"], rel=1e-12
    )
    assert thermal_factor_dT(1.0, 0.0) == 0.0


@pytest.mark.parametrize("omega,temperature", [(0.3, 0.8), (5.0, 0.1), (1e-3, 2.0)])
def test_thermal_factor_derivative_matches_finite_difference(omega, temperature):
    h = 1e-6 * temperature
    fd = (thermal_factor(omega, temperature + h) - thermal_factor(omega, temperature - h)) / (
        2.0 * h
    )
    assert thermal_factor_dT(omega, temperature) == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("omega,t,r,theta", [(0.7, 1.3, 0.4, 1.1), (2.0, 0.3, 1.5, 4.0)])
def test_squeeze_kernel_derivatives_match_finite_differences(omega, t, r, theta):
    h = 1e-6

    def rule_kernel(estimand):
        return squeeze_kernel(omega, t, SqueezeParams(r, theta), derivative_rule(estimand, r)[1])

    fd_r = (
        squeeze_kernel(omega, t, SqueezeParams(r + h, theta))
        - squeeze_kernel(omega, t, SqueezeParams(r - h, theta))
    ) / (2.0 * h)
    assert rule_kernel(Estimand.SQUEEZE_AMPLITUDE) == pytest.approx(fd_r, rel=1e-8)
    fd_theta = (
        squeeze_kernel(omega, t, SqueezeParams(r, theta + h))
        - squeeze_kernel(omega, t, SqueezeParams(r, theta - h))
    ) / (2.0 * h)
    assert rule_kernel(Estimand.SQUEEZE_PHASE) == pytest.approx(fd_theta, rel=1e-7, abs=1e-9)
    # d/dT leaves the bracket as it is and takes the d coth / dT row
    assert rule_kernel(Estimand.TEMPERATURE) == squeeze_kernel(omega, t, SqueezeParams(r, theta))
    assert [derivative_rule(e, r)[0] for e in (None, *Estimand)] == [False, True, False, False]


@given(omega=st.floats(1e-6, 100.0))
def test_gamma_integrand_vanishes_at_zero_time(omega):
    point = BathPoint(temperature=1.0, time=0.0)
    assert gamma_integrand(omega, point, SqueezeParams(0.7, 2.0), SpectralParams(0.5)) == 0.0


def test_gamma_integrand_ohmic_point():
    value = gamma_integrand(
        1.0, BathPoint(temperature=0.0, time=math.pi), SqueezeParams(0.0), SpectralParams(1.0)
    )
    assert value == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)


def test_gamma_integrand_small_frequency_fixtures():
    # the small-w ramp is where naive evaluations of (1 - cos)/w^2 lose digits
    point = BathPoint(temperature=1.0, time=1.0)
    assert gamma_integrand(0.01, point, SqueezeParams(0.0), SpectralParams(0.5)) == pytest.approx(
        REFERENCE_VALUES["integrand_w0.01_t1_T1_r0_s0.5"], rel=1e-13
    )
    assert gamma_integrand(
        0.01, point, SqueezeParams(0.8, 1.0), SpectralParams(0.5)
    ) == pytest.approx(REFERENCE_VALUES["integrand_w0.01_t1_T1_r0.8_th1_s0.5"], rel=1e-13)


@given(
    omega=st.floats(1e-9, 100.0),
    t=times,
    temperature=temperatures,
    r=amplitudes,
    theta=phases,
    s=st.sampled_from([0.5, 1.0, 3.0]),
)
def test_gamma_integrand_non_negative(omega, t, temperature, r, theta, s):
    point = BathPoint(temperature=temperature, time=t)
    value = gamma_integrand(omega, point, SqueezeParams(r, theta), SpectralParams(s))
    assert value >= 0.0
    assert math.isfinite(value)


def test_gamma_integrand_rejects_nonpositive_frequency():
    point = BathPoint(temperature=1.0, time=1.0)
    with pytest.raises(ValueError):
        gamma_integrand(0.0, point, SqueezeParams(0.0), SpectralParams(1.0))
    for estimand in Estimand:
        with pytest.raises(ValueError):
            gamma_integrand(-1.0, point, SqueezeParams(0.0), SpectralParams(1.0), estimand)


def test_gamma_integrand_partial_theta_vanishes_without_squeezing():
    point = BathPoint(temperature=1.0, time=1.0)
    value = gamma_integrand(
        0.7, point, SqueezeParams(0.0, 1.0), SpectralParams(1.0), Estimand.SQUEEZE_PHASE
    )
    assert value == 0.0


def test_parameter_value_and_shift():
    point = BathPoint(temperature=0.5, time=1.0)
    sq = SqueezeParams(r=0.2, theta=1.0)
    assert parameter_value(Estimand.TEMPERATURE, point, sq) == 0.5
    assert parameter_value(Estimand.SQUEEZE_AMPLITUDE, point, sq) == 0.2
    assert parameter_value(Estimand.SQUEEZE_PHASE, point, sq) == 1.0

    shifted_point, _ = shift_parameter(Estimand.TEMPERATURE, 0.1, point, sq)
    assert shifted_point.temperature == pytest.approx(0.6)
    _, shifted_sq = shift_parameter(Estimand.SQUEEZE_PHASE, -2.0, point, sq)
    assert shifted_sq.theta == pytest.approx(TWO_PI - 1.0)
    with pytest.raises(ValueError):
        shift_parameter(Estimand.TEMPERATURE, -0.6, point, sq)
    with pytest.raises(ValueError):
        shift_parameter(Estimand.SQUEEZE_AMPLITUDE, -0.3, point, sq)


def test_the_parameter_table_names_every_estimand_and_sweep_axis_but_alpha():
    names = {estimand.value for estimand in Estimand} | set(SWEEP_AXES) - {"alpha"}
    assert set(spectral_bath._PARAMETERS) == names
