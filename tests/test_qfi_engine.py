import math
import re
import sys

import numpy as np
import pytest

from qfibath.moments import ConvergenceError, MomentEngine, QuadratureConfig
from qfibath.probe_state import ProbeInit
from qfibath.qfi_engine import (
    DegenerateInputError,
    QfiSample,
    qfi_closed_form,
    qfi_point,
    qfi_spectral,
    qfi_table,
)
from qfibath.spectral_bath import BathPoint, Estimand, SpectralParams, SqueezeParams
from reference_values import REFERENCE_VALUES

EQUATOR = ProbeInit()
FIX_POINT = BathPoint(temperature=0.5, time=1.0)
FIX_SQUEEZE = SqueezeParams(r=0.1, theta=1.0)
FIX_SPECTRAL = SpectralParams(s=0.5)


def test_closed_form_vanishes_for_pointer_states():
    assert qfi_closed_form(ProbeInit(alpha=0.0), 0.5, 1.0) == 0.0
    # sin(pi) is ~1e-16 in doubles, so the antipodal pointer state only
    # vanishes to roundoff
    assert qfi_closed_form(ProbeInit(alpha=math.pi), 0.5, 1.0) == pytest.approx(0.0, abs=1e-30)


def test_closed_form_zero_time_limit():
    assert qfi_closed_form(EQUATOR, 0.0, 0.0) == 0.0
    # below gamma = 1e-12 the expression still holds: dgamma**2 / (2 gamma)
    assert qfi_closed_form(EQUATOR, 1e-13, 1e-10) == pytest.approx(5e-8, rel=1e-12)


def test_closed_form_half_log_two_exponent_gives_unity():
    # exp(2 gamma) = 2 when gamma = ln(2)/2, so unit derivative gives QFI 1
    assert qfi_closed_form(EQUATOR, 0.5 * math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-12)


def test_closed_form_small_exponent_uses_expm1():
    assert qfi_closed_form(EQUATOR, 1e-9, 1e-5) == pytest.approx(
        REFERENCE_VALUES["qfi_tiny_gamma"], rel=1e-12
    )


def test_closed_form_huge_exponent_flushes_to_zero():
    assert qfi_closed_form(EQUATOR, 400.0, 3.0) == 0.0


def test_closed_form_rejects_degenerate_inputs():
    with pytest.raises(DegenerateInputError, match=r"^gamma = 0\.0 is at the t -> 0 limit but "
                                                   r"dgamma = 1\.0 is not$"):
        qfi_closed_form(EQUATOR, 0.0, 1.0)
    with pytest.raises(DegenerateInputError):
        qfi_closed_form(EQUATOR, 0.0, sys.float_info.min)
    # |dgamma| / gamma is bounded, so a subnormal dgamma at gamma = 0 is the underflow
    # of a qfi below 1e-300
    assert qfi_closed_form(EQUATOR, 0.0, 5e-324) == 0.0
    assert qfi_closed_form(EQUATOR, 0.0, -5e-324) == 0.0
    with pytest.raises(ValueError):
        qfi_closed_form(EQUATOR, -0.1, 1.0)
    with pytest.raises(ValueError, match=r"^decoherence exponent must be >= 0, got nan$"):
        qfi_closed_form(EQUATOR, math.nan, 1.0)


def _closed_form_on_floats(alpha, gamma_value, dgamma):
    """The closed form as floats: the reference for `qfi_closed_form`."""
    if gamma_value == 0.0:
        return 0.0
    sin_a = math.sin(alpha)
    if gamma_value > 350.0:  # exp(2 gamma) overflows; exp(-gamma) and exp(-2 gamma) do not
        damped = dgamma * math.exp(-gamma_value)
        return sin_a * sin_a * damped * damped / -math.expm1(-2.0 * gamma_value)
    return sin_a * sin_a * dgamma * dgamma / math.expm1(2.0 * gamma_value)


@pytest.mark.parametrize("alpha, gamma_value, dgamma", [
    (EQUATOR.alpha, 0.0, 0.0),
    (EQUATOR.alpha, 1e-13, 1e-10),
    (EQUATOR.alpha, 1e-9, 1e-5),
    (EQUATOR.alpha, 0.5 * math.log(2.0), 1.0),
    (EQUATOR.alpha, 350.0, 3.0),
    (EQUATOR.alpha, 350.0000001, 3.0),
    (EQUATOR.alpha, 1e308, 3.0),
    (EQUATOR.alpha, math.inf, 3.0),
    (EQUATOR.alpha, 1.0, 1e200),  # dgamma**2 overflows to inf, as it does on floats
    (0.0, 0.5, 1.0),
    (math.pi, 0.5, 1.0),
    (EQUATOR.alpha, 0.5, -2.0),
])
def test_closed_form_equals_the_float_expression_bit_for_bit(alpha, gamma_value, dgamma):
    got = qfi_closed_form(ProbeInit(alpha), gamma_value, dgamma)
    assert type(got) is float
    assert got.hex() == _closed_form_on_floats(alpha, gamma_value, dgamma).hex()


class _FixedExponents:
    """An engine stand-in whose `exponents` measures given gamma and d gamma as the
    reported truncation, the first truncation off by a given gap on gamma and a given
    rounding bound on gamma, both 0 unless given."""

    qc, sp, coefficients_finite = QuadratureConfig(), FIX_SPECTRAL, True

    def __init__(self, gammas, dgammas, gaps=0.0, roundings=0.0):
        self.measured = np.zeros((2, 3, len(gammas)))
        self.measured[0, 0] = np.add(gammas, gaps)
        self.measured[0, 1] = gammas
        self.measured[0, 2] = roundings
        self.measured[1, :2] = dgammas

    def moments(self, temperatures, times):
        return None

    def exponents(self, moments, squeezes):
        return self.measured


def _closed_form_over_cells(gammas, dgammas, where=None):
    """`qfi_table` over fixed exponents: the closed form applied cell by cell."""
    pairs = [0.5] * len(gammas)
    return qfi_table(_FixedExponents(gammas, dgammas), pairs, pairs, [(FIX_SQUEEZE, EQUATOR)],
                     where)[2]


def test_closed_form_on_arrays_raises_at_the_first_faulty_element():
    with pytest.raises(ConvergenceError, match=r"^gamma = 0\.0 is at the t -> 0 limit but "
                                               r"dgamma = 1\.0 is not$"):
        _closed_form_over_cells([0.5, 0.0, -1.0, 0.5], [1.0, 1.0, 1.0, 1.0])
    # a nan gamma's tolerance is nan, so the truncation check, run before the closed
    # form's, refuses it; a negative gamma is roundoff, taken as 0
    with pytest.raises(ConvergenceError, match=r"^truncations disagree at \(T, t\) = "
                                               r"\(0\.5, 0\.5\): gamma nan, gap "):
        _closed_form_over_cells([0.5, math.nan, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ConvergenceError, match=r"^cell 2: gamma = 0\.0 is at the t -> 0 limit "
                                               r"but dgamma = 1\.0 is not$"):
        _closed_form_over_cells([0.5, 0.25, -1.0, 0.0], [1.0, 1.0, 1.0, 1.0],
                                where=lambda k: f"cell {k}")
    assert _closed_form_over_cells([0.5, 0.0], [1.0, 0.0]) == [
        qfi_closed_form(EQUATOR, 0.5, 1.0), 0.0]


SETTINGS = [(FIX_SQUEEZE, EQUATOR), (SqueezeParams(0.0), ProbeInit(alpha=1.1)),
            (SqueezeParams(1.5, 4.0), ProbeInit(alpha=2.5))]
PAIRS = ([0.5, 0.0, 1.5, 0.2], [1.0, 2.0, 0.0, 7.5])


@pytest.mark.parametrize("estimand", list(Estimand))
def test_table_of_settings_over_pairs_equals_its_cells_one_by_one(estimand):
    engine = MomentEngine(estimand, FIX_SPECTRAL, QuadratureConfig())
    table = qfi_table(engine, *PAIRS, SETTINGS)
    cells = [qfi_table(engine, [temperature], [time], [setting])
             for setting in SETTINGS for temperature, time in zip(*PAIRS)]
    for column, one in zip(table, zip(*cells)):
        assert [value.hex() for value in column] == [value.hex() for (value,) in one]


def test_a_disagreeing_cell_names_its_pair_modulo_the_pairs():
    # 2 settings over 3 pairs: cell 5 is the second setting at the third pair
    engine = _FixedExponents([0.5] * 6, [1.0] * 6, gaps=[0.0] * 5 + [1.0])
    with pytest.raises(ConvergenceError, match=r"^cell 5: truncations disagree at "
                                               r"\(T, t\) = \(0\.3, 3\.0\): gamma 0\.5, "):
        qfi_table(engine, [0.1, 0.2, 0.3], [1.0, 2.0, 3.0], SETTINGS[:2],
                  where=lambda k: f"cell {k}")


def test_a_many_cell_table_equals_the_closed_form_cell_by_cell():
    # one table holds ordinary cells, t = 0 cells, a gamma = 0 cell with a subnormal
    # d gamma (the third setting at t = 1e-161) and cells above gamma = 350; each qfi is
    # `qfi_closed_form` of its cell bit for bit
    engine = MomentEngine(Estimand.SQUEEZE_AMPLITUDE, FIX_SPECTRAL, QuadratureConfig())
    temperatures = [0.5, 0.5, 0.01, 3.0, 0.5, *np.linspace(0.1, 3.0, 40)]
    times = [40.354, 0.0, 1e-6, 10.0, 1e-161, *np.linspace(0.0, 10.0, 40)]
    settings = [(SqueezeParams(0.5, 1.0), EQUATOR), (SqueezeParams(0.1, 2.0), ProbeInit(1.1)),
                (SqueezeParams(2.0, 0.0), EQUATOR)]
    gammas, dgammas, qfis, _ = qfi_table(engine, temperatures, times, settings)
    subnormal = 2 * len(times) + 4
    assert gammas[0] > 350.0 and gammas.count(0.0) == 7
    assert gammas[subnormal] == 0.0 and 0.0 < abs(dgammas[subnormal]) < sys.float_info.min
    expected = [qfi_closed_form(settings[cell // len(times)][1], gamma_value, dgamma)
                for cell, (gamma_value, dgamma) in enumerate(zip(gammas, dgammas))]
    assert [value.hex() for value in qfis] == [value.hex() for value in expected]


# a failing cell of each kind, in the order of `qfi_table`'s checks: (gamma, dgamma, gap
# on gamma, rounding bound on gamma), the error and its message. A negative gamma is
# roundoff, taken as 0, so with a normal dgamma it is degenerate
FAULTS = {
    "overflow": ((math.inf, 1.0, 0.0, 0.0), ConvergenceError, "gamma or d gamma overflows at "),
    "rounding": ((0.5, 1.0, 0.0, 1.0), ConvergenceError, "rounding of the assembly fails at "),
    "disagree": ((0.5, 1.0, 1.0, 0.0), ConvergenceError, "truncations disagree at "),
    "degenerate": ((0.0, 1.0, 0.0, 0.0), ConvergenceError, "gamma = 0.0 is at the t -> 0 "),
    "negative": ((-1.0, 1.0, 0.0, 0.0), ConvergenceError, "gamma = 0.0 is at the t -> 0 "),
    "non-finite": ((1e-320, 1.0, 0.0, 0.0), ConvergenceError, "non-finite sample: gamma 1e-320"),
}
# a passing cell, which each fault changes in one field
PASSING = (0.5, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("earlier, later", [
    (earlier, later) for earlier in FAULTS for later in FAULTS if earlier != later])
def test_the_earlier_of_two_failing_cells_raises_with_its_where_prefix(earlier, later):
    cells = [PASSING, FAULTS[earlier][0], (0.25, 2.0, 0.0, 0.0), FAULTS[later][0],
             (0.0, 0.0, 0.0, 0.0)]
    pairs = [0.5] * len(cells)
    error, message = FAULTS[earlier][1:]
    with pytest.raises(error, match="^cell 1: " + re.escape(message)) as raised:
        qfi_table(_FixedExponents(*zip(*cells)), pairs, pairs,
                  [(FIX_SQUEEZE, EQUATOR)], where=lambda k: f"cell {k}")
    assert type(raised.value) is error


def _changed(fault):
    return {field for field, (got, passing) in enumerate(zip(FAULTS[fault][0], PASSING))
            if got != passing}


@pytest.mark.parametrize("earlier, later", [
    (earlier, later) for i, earlier in enumerate(FAULTS) for later in list(FAULTS)[i + 1:]
    if not _changed(earlier) & _changed(later)])
def test_a_cell_failing_two_checks_reports_the_earlier_in_their_order(earlier, later):
    # one cell with both faults' fields: the check that runs first names it, and a
    # rounding fault carries its bound, every other its gap or nan
    cell = [one if one != passing else other
            for one, other, passing in zip(FAULTS[earlier][0], FAULTS[later][0], PASSING)]
    with pytest.raises(ConvergenceError, match="^" + re.escape(FAULTS[earlier][2])) as raised:
        qfi_table(_FixedExponents(*([one] for one in cell)), [0.5], [0.5],
                  [(FIX_SQUEEZE, EQUATOR)])
    if earlier == "rounding":
        assert raised.value.est_error == 1.0


def test_point_zero_time_gives_zero_sample():
    sample = qfi_point(
        Estimand.TEMPERATURE, BathPoint(0.5, 0.0), FIX_SQUEEZE, FIX_SPECTRAL
    )
    assert sample.gamma == 0.0
    assert sample.dgamma == 0.0
    assert sample.qfi == 0.0
    assert sample.cfi_term == 0.0
    assert sample.quantum_term == 0.0


def test_point_phase_estimand_vanishes_without_squeezing():
    sample = qfi_point(
        Estimand.SQUEEZE_PHASE, FIX_POINT, SqueezeParams(0.0), SpectralParams(1.0)
    )
    assert sample.qfi == 0.0


def test_point_requires_positive_temperature_for_temperature_estimation():
    with pytest.raises(ValueError):
        qfi_point(Estimand.TEMPERATURE, BathPoint(0.0, 1.0), FIX_SQUEEZE, FIX_SPECTRAL)


def test_point_equatorial_split_is_purely_classical():
    sample = qfi_point(Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL)
    assert sample.qfi > 0.0
    assert sample.cfi_term == sample.qfi
    assert sample.quantum_term == 0.0


def test_point_reproduces_the_closed_form():
    sample = qfi_point(Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL)
    expected = sample.dgamma**2 / math.expm1(2.0 * sample.gamma)
    assert sample.qfi == pytest.approx(expected, rel=1e-12)


def test_spectral_equatorial_quantum_term_vanishes():
    for estimand in Estimand:
        sample = qfi_spectral(estimand, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL)
        assert sample.quantum_term <= 1e-8 * max(1.0, sample.cfi_term)


def test_spectral_phase_estimand_vanishes_without_squeezing():
    sample = qfi_spectral(
        Estimand.SQUEEZE_PHASE, FIX_POINT, SqueezeParams(0.0), SpectralParams(1.0)
    )
    assert sample.qfi <= 1e-10


def test_spectral_agrees_with_point_on_the_fixture():
    point_sample = qfi_point(Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL)
    spectral_sample = qfi_spectral(Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL)
    assert spectral_sample.qfi == pytest.approx(point_sample.qfi, rel=1e-3)


def test_spectral_and_point_split_terms_agree_off_the_equator():
    init = ProbeInit(alpha=0.9)
    point_sample = qfi_point(Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL, init)
    spectral_sample = qfi_spectral(
        Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL, init
    )
    assert point_sample.quantum_term > 0.0
    assert spectral_sample.cfi_term == pytest.approx(point_sample.cfi_term, rel=1e-5)
    assert spectral_sample.quantum_term == pytest.approx(point_sample.quantum_term, rel=1e-5)
    assert point_sample.cfi_term + point_sample.quantum_term == pytest.approx(
        point_sample.qfi, rel=1e-12
    )


def test_spectral_rejects_steps_leaving_the_domain():
    with pytest.raises(ValueError):
        qfi_spectral(Estimand.TEMPERATURE, BathPoint(1e-6, 1.0), FIX_SQUEEZE, FIX_SPECTRAL)
    with pytest.raises(ValueError):
        qfi_spectral(Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL, fd_step=-1e-5)


def test_mirror_symmetry_in_alpha():
    for alpha in (0.3, 1.0, 1.4):
        direct = qfi_point(
            Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL, ProbeInit(alpha=alpha)
        ).qfi
        mirrored = qfi_point(
            Estimand.TEMPERATURE,
            FIX_POINT,
            FIX_SQUEEZE,
            FIX_SPECTRAL,
            ProbeInit(alpha=math.pi - alpha),
        ).qfi
        assert mirrored == pytest.approx(direct, rel=1e-10)


def test_equator_maximizes_the_information():
    grid = np.linspace(0.0, math.pi, 21)
    values = [
        qfi_point(
            Estimand.TEMPERATURE, FIX_POINT, FIX_SQUEEZE, FIX_SPECTRAL, ProbeInit(alpha=float(a))
        ).qfi
        for a in grid
    ]
    assert int(np.argmax(values)) == 10  # alpha = pi/2
    assert values[10] >= max(values)


def test_periodic_in_phase_for_every_estimand():
    for estimand in Estimand:
        base = qfi_point(estimand, FIX_POINT, SqueezeParams(0.8, 1.3), FIX_SPECTRAL).qfi
        wrapped = qfi_point(
            estimand, FIX_POINT, SqueezeParams(0.8, 1.3 + 2.0 * math.pi), FIX_SPECTRAL
        ).qfi
        assert abs(base - wrapped) <= 1e-8


def test_sample_record_rejects_negative_information():
    with pytest.raises(ValueError):
        QfiSample(
            point=FIX_POINT,
            sq=FIX_SQUEEZE,
            sp=FIX_SPECTRAL,
            init=EQUATOR,
            estimand=Estimand.TEMPERATURE,
            gamma=0.5,
            dgamma=1.0,
            qfi=-1.0,
            cfi_term=0.0,
            quantum_term=0.0,
        )
