"""Decoherence and quantum Fisher information of a qubit probing a squeezed thermal bath.

The probe dephases against an ohmic-family reservoir (sub-ohmic, ohmic or
super-ohmic) prepared in a squeezed thermal state; this package evaluates the
decay exponent, its parameter derivatives, the resulting quantum Fisher
information for temperature, squeezing amplitude and squeezing phase, and the
sweeps, density grids and optimal-time curves built on top. A CLI
(`qfibath`, or `python -m qfibath`) serializes everything as CSV/JSON.
"""

from .spectral_bath import (
    BathPoint,
    Estimand,
    SpectralParams,
    SqueezeParams,
    gamma_integrand,
    spectral_density,
    squeeze_kernel,
    thermal_factor,
)
from .decoherence import (
    DEFAULT_QUADRATURE,
    ConvergenceError,
    GammaResult,
    QuadratureConfig,
    gamma,
    gamma_partial,
    gamma_partial_fd,
)
from .probe_state import (
    EigenSystem,
    ProbeInit,
    QubitDensityMatrix,
    eigensystem,
    optimal_alpha,
    reduced_dm,
)
from .qfi_engine import (
    DegenerateInputError,
    QfiSample,
    qfi_closed_form,
    qfi_point,
    qfi_spectral,
)
from .sweep_optimize import (
    GridSpec,
    OptimalTimeCurve,
    OptimalTimeResult,
    OptimalTimeSpec,
    SweepSpec,
    Table,
    density_grid,
    optimal_time,
    optimal_time_curve,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BathPoint",
    "Estimand",
    "SpectralParams",
    "SqueezeParams",
    "spectral_density",
    "squeeze_kernel",
    "thermal_factor",
    "gamma_integrand",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "GammaResult",
    "ConvergenceError",
    "gamma",
    "gamma_partial",
    "gamma_partial_fd",
    "ProbeInit",
    "QubitDensityMatrix",
    "EigenSystem",
    "reduced_dm",
    "eigensystem",
    "optimal_alpha",
    "QfiSample",
    "DegenerateInputError",
    "qfi_closed_form",
    "qfi_spectral",
    "qfi_point",
    "SweepSpec",
    "GridSpec",
    "Table",
    "OptimalTimeSpec",
    "OptimalTimeResult",
    "OptimalTimeCurve",
    "sweep",
    "density_grid",
    "optimal_time_curve",
    "optimal_time",
]
