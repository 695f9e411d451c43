"""Transport layer: characteristic roots, response kernels, memory
integrals, and the friction/diffusion coefficient assembly."""

from .asymptotics import (
    asymptotic_bath_integral,
    asymptotic_occupation,
    resonance_occupation,
    stationarity_condition_residual,
)
from .coefficients import RATIO_FLOOR, CoefficientSeries, coefficient_series
from .kernels import AmplitudeSeries, KernelEvaluator
from .quadrature import MemoryIntegrator
from .roots import RootSet, characteristic_polynomial, characteristic_roots

__all__ = [
    "AmplitudeSeries",
    "CoefficientSeries",
    "KernelEvaluator",
    "MemoryIntegrator",
    "RATIO_FLOOR",
    "RootSet",
    "asymptotic_bath_integral",
    "asymptotic_occupation",
    "characteristic_polynomial",
    "characteristic_roots",
    "coefficient_series",
    "resonance_occupation",
    "stationarity_condition_residual",
]
