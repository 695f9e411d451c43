"""Occupation dynamics of dissipative oscillators with structured baths.

The package computes time-dependent friction and diffusion coefficients
for a bosonic mode coupled, beyond the rotating-wave approximation, to a
pair of Lorentzian reservoirs (bosonic, fermionic, or one of each),
integrates the resulting occupation dynamics for single and coupled
oscillators, and cross-checks everything against an exactly solvable
discretized-bath model.
"""

__version__ = "1.0.0"

from . import errors
from .dynamics import (
    DeltaDissipation,
    PeriodEstimate,
    Trajectory,
    antiphase_metric,
    delta_dissipation,
    detect_stationarity,
    estimate_period,
    evolve,
    evolve_coupled,
)
from .model import (
    ALL_BOSONIC,
    ALL_FERMIONIC,
    BOSONIC,
    FERMIONIC,
    MIXED,
    BathSpec,
    CoupledSpec,
    SystemSpec,
    bare_frequency,
    equilibrium_occupation,
    make_system,
    mixing_fraction,
    spectral_density,
    statistics_from_name,
)
from .oracle import OracleResult, compare, evolve_exact
from .scenarios import SCENARIOS, run_scenario
from .transport import (
    asymptotic_bath_integral,
    asymptotic_occupation,
    characteristic_polynomial,
    characteristic_roots,
    coefficient_series,
    resonance_occupation,
    stationarity_condition_residual,
)

__all__ = [
    "ALL_BOSONIC",
    "ALL_FERMIONIC",
    "BOSONIC",
    "BathSpec",
    "CoupledSpec",
    "DeltaDissipation",
    "FERMIONIC",
    "MIXED",
    "OracleResult",
    "PeriodEstimate",
    "SCENARIOS",
    "SystemSpec",
    "Trajectory",
    "antiphase_metric",
    "asymptotic_bath_integral",
    "asymptotic_occupation",
    "bare_frequency",
    "characteristic_polynomial",
    "characteristic_roots",
    "coefficient_series",
    "compare",
    "delta_dissipation",
    "detect_stationarity",
    "equilibrium_occupation",
    "errors",
    "estimate_period",
    "evolve",
    "evolve_coupled",
    "evolve_exact",
    "make_system",
    "mixing_fraction",
    "resonance_occupation",
    "run_scenario",
    "spectral_density",
    "statistics_from_name",
    "stationarity_condition_residual",
    "__version__",
]
