"""Transport layer: characteristic roots, response kernels, memory
integrals, and the friction/diffusion coefficient assembly."""

from .asymptotics import (
    asymptotic_bath_integral,
    asymptotic_occupation,
    resonance_occupation,
    stationarity_condition_residual,
)
from .coefficients import coefficient_series
from .kernels import KernelEvaluator
from .roots import characteristic_polynomial, characteristic_roots

__all__ = [
    "KernelEvaluator",
    "asymptotic_bath_integral",
    "asymptotic_occupation",
    "characteristic_polynomial",
    "characteristic_roots",
    "coefficient_series",
    "resonance_occupation",
    "stationarity_condition_residual",
]
