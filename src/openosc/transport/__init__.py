"""Transport layer: characteristic roots, response kernels, memory
integrals, and the friction/diffusion coefficient assembly."""

from .asymptotics import (
    asymptotic_bath_integral,
    asymptotic_occupation,
    markovian_mixture,
    resonance_occupation,
    stationarity_condition_residual,
)
from .coefficients import RATIO_FLOOR, CoefficientSeries, coefficient_series
from .kernels import (
    AmplitudeSeries,
    KernelEvaluator,
    amplitudes_AB,
    propagators_MN,
)
from .quadrature import DEFAULT_RTOL, ComponentSpec, MemoryIntegrator
from .roots import (
    RootSet,
    characteristic_polynomial,
    characteristic_roots,
    oscillatory_pair,
)

__all__ = [
    "AmplitudeSeries",
    "CoefficientSeries",
    "ComponentSpec",
    "DEFAULT_RTOL",
    "KernelEvaluator",
    "MemoryIntegrator",
    "RATIO_FLOOR",
    "RootSet",
    "amplitudes_AB",
    "asymptotic_bath_integral",
    "asymptotic_occupation",
    "characteristic_polynomial",
    "characteristic_roots",
    "coefficient_series",
    "markovian_mixture",
    "oscillatory_pair",
    "propagators_MN",
    "resonance_occupation",
    "stationarity_condition_residual",
]
