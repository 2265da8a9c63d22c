import math

import numpy as np
import pytest

from qfibath import moments
from qfibath.decoherence import (
    DEFAULT_QUADRATURE,
    ConvergenceError,
    GammaResult,
    QuadratureConfig,
    gamma,
    gamma_partial,
    gamma_partial_fd,
)
from qfibath.spectral_bath import BathPoint, Estimand, SpectralParams, SqueezeParams
from reference_values import REFERENCE_VALUES

OHMIC = SpectralParams(s=1.0)
NO_SQUEEZE = SqueezeParams(r=0.0)

# the grid used for the derivative cross-checks
FIX_POINT = BathPoint(temperature=0.5, time=1.0)
FIX_SQUEEZE = SqueezeParams(r=0.1, theta=1.0)
FIX_SPECTRAL = SpectralParams(s=0.5)


def test_zero_time_short_circuits_without_quadrature():
    result = gamma(BathPoint(1.3, 0.0), SqueezeParams(0.7, 2.0), SpectralParams(0.5))
    assert result.value == 0.0
    assert result.est_error == 0.0
    assert result.evaluations == 0


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
def test_ohmic_zero_temperature_closed_form(t):
    # integral_0^inf e^-w (1 - cos wt) / w dw = ln sqrt(1 + t^2)
    result = gamma(BathPoint(0.0, t), NO_SQUEEZE, OHMIC)
    assert result.value == pytest.approx(0.5 * math.log1p(t * t), abs=1e-8)
    assert result.est_error < 1e-8
    assert result.evaluations == 0  # at T = 0 the closed-form vacuum part is all of gamma


@pytest.mark.parametrize(
    "temperature,t,r,theta,s,key",
    [
        (0.7, 1.3, 0.4, 1.1, 0.5, "gamma_T0.7_t1.3_r0.4_th1.1_s0.5"),
        (0.7, 1.3, 0.4, 1.1, 1.0, "gamma_T0.7_t1.3_r0.4_th1.1_s1"),
        (0.7, 1.3, 0.4, 1.1, 3.0, "gamma_T0.7_t1.3_r0.4_th1.1_s3"),
        (0.3, 2.0, 1.0, 4.0, 1.0, "gamma_T0.3_t2_r1_th4_s1"),
        (2.0, 0.5, 0.0, 0.0, 3.0, "gamma_T2_t0.5_r0_th0_s3"),
        (1.0, 5.0, 1.5, math.pi, 0.5, "gamma_T1_t5_r1.5_thpi_s0.5"),
        (0.0, 1.0, 0.5, 2.0, 0.5, "gamma_T0_t1_r0.5_th2_s0.5"),
    ],
)
def test_matches_high_precision_references(temperature, t, r, theta, s, key):
    result = gamma(BathPoint(temperature, t), SqueezeParams(r, theta), SpectralParams(s))
    assert result.value == pytest.approx(REFERENCE_VALUES[key], rel=1e-8)


def test_matches_independent_trapezoid_oracle():
    # dense trapezoid over w = u^2 (the substitution flattens the sub-ohmic
    # ramp at w -> 0); the integrand is written out from scratch here
    t, temperature, r, theta = 1.3, 0.7, 0.4, 1.1
    u = np.linspace(1e-8, math.sqrt(50.0), 400_001)
    w = u * u
    integrand = (
        np.sqrt(w)
        * np.exp(-w)
        * 2.0
        * np.sin(0.5 * w * t) ** 2
        / w**2
        * (np.cosh(2 * r) - np.cos(theta - w * t) * np.sinh(2 * r))
        / np.tanh(w / (2.0 * temperature))
        * 2.0
        * u
    )
    oracle = float(np.trapezoid(integrand, u))
    result = gamma(BathPoint(temperature, t), SqueezeParams(r, theta), SpectralParams(0.5))
    assert result.value == pytest.approx(oracle, rel=1e-6)


def test_high_temperature_asymptote():
    # coth(w/2T) ~ 2T/w turns the ohmic integral into
    # 2T (t arctan t - ln(1 + t^2) / 2)
    result = gamma(BathPoint(10.0, 1.0), NO_SQUEEZE, OHMIC)
    asymptote = 20.0 * (math.pi / 4.0 - 0.5 * math.log(2.0))
    assert result.value == pytest.approx(asymptote, rel=0.02)


def test_gamma_non_negative_and_finite_random():
    rng = np.random.default_rng(42)
    for _ in range(40):
        point = BathPoint(float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 10.0)))
        sq = SqueezeParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 7.0)))
        sp = SpectralParams(float(rng.choice([0.5, 1.0, 3.0])))
        result = gamma(point, sq, sp)
        assert result.value >= 0.0
        assert math.isfinite(result.value)


def test_gamma_monotone_in_temperature():
    rng = np.random.default_rng(7)
    for _ in range(25):
        t = float(rng.uniform(0.1, 8.0))
        low = float(rng.uniform(0.0, 3.0))
        high = low + float(rng.uniform(0.01, 2.0))
        sq = SqueezeParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 7.0)))
        sp = SpectralParams(float(rng.choice([0.5, 1.0, 3.0])))
        cold = gamma(BathPoint(low, t), sq, sp).value
        hot = gamma(BathPoint(high, t), sq, sp).value
        assert hot >= cold - 1e-9


def test_gamma_periodic_in_theta():
    point = BathPoint(0.6, 1.7)
    sp = SpectralParams(0.5)
    for theta in (0.3, 2.0, 5.5):
        base = gamma(point, SqueezeParams(1.2, theta), sp).value
        wrapped = gamma(point, SqueezeParams(1.2, theta + 2.0 * math.pi), sp).value
        assert abs(base - wrapped) <= DEFAULT_QUADRATURE.abs_tol + 1e-10 * base


def test_gamma_obeys_squeeze_kernel_bounds():
    rng = np.random.default_rng(11)
    for _ in range(20):
        point = BathPoint(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.1, 6.0)))
        r = float(rng.uniform(0.1, 2.0))
        theta = float(rng.uniform(0.0, 7.0))
        sp = SpectralParams(float(rng.choice([0.5, 1.0, 3.0])))
        bare = gamma(point, SqueezeParams(0.0), sp).value
        squeezed = gamma(point, SqueezeParams(r, theta), sp).value
        assert math.exp(-2.0 * r) * bare - 1e-9 <= squeezed
        assert squeezed <= math.exp(2.0 * r) * bare + 1e-9


def test_partial_theta_vanishes_without_squeezing():
    value = gamma_partial(Estimand.SQUEEZE_PHASE, BathPoint(0.5, 1.0), NO_SQUEEZE, OHMIC)
    assert value == 0.0


def test_partials_vanish_at_zero_time():
    for estimand in Estimand:
        assert gamma_partial(estimand, BathPoint(0.5, 0.0), FIX_SQUEEZE, FIX_SPECTRAL) == 0.0


def test_temperature_partial_at_zero_temperature_is_the_limit():
    assert gamma_partial(Estimand.TEMPERATURE, BathPoint(0.0, 1.0), FIX_SQUEEZE, FIX_SPECTRAL) == 0.0


def test_partials_match_high_precision_references():
    assert gamma_partial(
        Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL
    ) == pytest.approx(REFERENCE_VALUES["dgamma_dT_fix"], rel=1e-10)
    assert gamma_partial(
        Estimand.SQUEEZE_AMPLITUDE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL
    ) == pytest.approx(REFERENCE_VALUES["dgamma_dr_fix"], rel=1e-10)
    assert gamma_partial(
        Estimand.SQUEEZE_PHASE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL
    ) == pytest.approx(REFERENCE_VALUES["dgamma_dtheta_fix"], rel=1e-10)


def test_temperature_partial_is_non_negative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        point = BathPoint(float(rng.uniform(0.05, 4.0)), float(rng.uniform(0.1, 8.0)))
        sq = SqueezeParams(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 7.0)))
        sp = SpectralParams(float(rng.choice([0.5, 1.0, 3.0])))
        assert gamma_partial(Estimand.TEMPERATURE, point, sq, sp) >= 0.0


def test_radial_partial_at_zero_squeezing_matches_reference():
    value = gamma_partial(
        Estimand.SQUEEZE_AMPLITUDE, FIX_POINT, SqueezeParams(0.0, 1.0), FIX_SPECTRAL
    )
    assert value == pytest.approx(REFERENCE_VALUES["dgamma_dr_at_r0_T0.5_t1_th1_s0.5"], rel=1e-10)


def test_radial_fd_near_zero_squeezing_approaches_the_reference():
    # the central stencil cannot sit at r = 0 (r - h would leave the domain),
    # so probe at r = h; the first-order offset is h * d2(gamma)/dr2 = O(4h*gamma)
    h = 1e-3
    fd = gamma_partial_fd(
        Estimand.SQUEEZE_AMPLITUDE, FIX_POINT, SqueezeParams(h, 1.0), FIX_SPECTRAL, h=h
    )
    assert fd == pytest.approx(
        REFERENCE_VALUES["dgamma_dr_at_r0_T0.5_t1_th1_s0.5"], abs=0.02
    )


@pytest.mark.parametrize("estimand", list(Estimand))
@pytest.mark.parametrize(
    "temperature,t,r,s",
    [(0.5, 1.0, 0.1, 0.5), (1.5, 0.4, 0.8, 1.0), (0.3, 3.0, 1.5, 3.0), (2.0, 6.0, 0.5, 0.5)],
)
def test_partials_match_fd_oracle(estimand, temperature, t, r, s):
    point = BathPoint(temperature, t)
    sq = SqueezeParams(r, 1.0)
    sp = SpectralParams(s)
    analytic = gamma_partial(estimand, point, sq, sp)
    fd = gamma_partial_fd(estimand, point, sq, sp)
    if abs(analytic) > 1e-6:
        assert fd == pytest.approx(analytic, rel=1e-4)
    else:
        assert fd == pytest.approx(analytic, abs=1e-6)


def test_fd_oracle_self_consistency_fixture():
    analytic = gamma_partial(Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL)
    fd = gamma_partial_fd(Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL)
    assert fd == pytest.approx(analytic, rel=1e-4)


def test_fd_oracle_theta_without_squeezing_is_flat():
    fd = gamma_partial_fd(
        Estimand.SQUEEZE_PHASE, BathPoint(0.5, 1.0), NO_SQUEEZE, OHMIC, h=1e-4
    )
    assert abs(fd) <= 1e-8


def test_fd_oracle_rejects_steps_leaving_the_domain():
    with pytest.raises(ValueError):
        gamma_partial_fd(
            Estimand.TEMPERATURE, BathPoint(1e-6, 1.0), FIX_SQUEEZE, FIX_SPECTRAL, h=1e-3
        )
    with pytest.raises(ValueError):
        gamma_partial_fd(
            Estimand.SQUEEZE_AMPLITUDE, FIX_POINT, SqueezeParams(0.0, 1.0), FIX_SPECTRAL, h=1e-3
        )
    with pytest.raises(ValueError):
        gamma_partial_fd(Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL, h=0.0)


def test_convergence_error_reports_partial_result(monkeypatch):
    # an order-2 rule cannot match the order-24 one, on the base layout or the refined one
    monkeypatch.setattr(moments, "ORDER", 2)
    with pytest.raises(ConvergenceError) as excinfo:
        gamma(BathPoint(1.0, 3.7), SqueezeParams(1.0, 1.0), SpectralParams(0.5))
    error = excinfo.value
    assert math.isfinite(error.value)
    assert error.est_error > 0.0
    assert error.evaluations > 0
    assert "at (T, t) = (1.0, 3.7) on the refined rule" in str(error)


def test_gamma_is_insensitive_to_tolerance_tightening():
    loose = gamma(FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL).value
    tight = gamma(
        FIX_POINT,
        FIX_SQUEEZE,
        FIX_SPECTRAL,
        QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14),
    ).value
    assert loose == pytest.approx(tight, rel=1e-9)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rel_tol": 0.0},
        {"abs_tol": -1e-12},
        {"rel_tol": math.inf},
        {"omega_max_factor": 5.0},
    ],
)
def test_quadrature_config_invariants(kwargs):
    with pytest.raises(ValueError):
        QuadratureConfig(**kwargs)


def test_gamma_result_invariants():
    with pytest.raises(ValueError):
        GammaResult(value=-1e-3, est_error=0.0, evaluations=0)
    with pytest.raises(ValueError):
        GammaResult(value=0.0, est_error=-1.0, evaluations=0)
