"""Late-time (stationary) limits of the memory integrals and occupation.

As t -> infinity the response amplitudes die out as e^{-2 eta t} and each
bath memory integral converges to a frequency integral over the resolvent:

    I_b(inf) = (alpha_b gamma_b^2 / pi) int_0^inf dw
               w (gamma_partner^2 + w^2) / |q(-i w)|^2
               x [ (omega + w)^2 n_b(w) + (omega - w)^2 (1 + eps_b n_b(w)) ]

with q the characteristic quartic and n_b the equilibrium occupation of
bath b.  This is S_0, the time-independent part of the memory integrator's
I_b(t) = S_0 + (terms that decay), so the program reads it from the same
static-part builder, ``quadrature.integrate_static``.  Both baths' values
come from one build per system, memoized on the frozen ``SystemSpec``, so
repeated stationary queries on one system share it.  For same-statistics
systems the stationary occupation is the sum of the two integrals; for
mixed statistics the channels compete and the mismatch of their preferred
stationary points is what sustains the persistent oscillations.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import DomainError
from ..model import (
    MIXED,
    SystemSpec,
    equilibrium_occupation,
    mixing_fraction,
    spectral_density,
)
from .kernels import KernelEvaluator
from .quadrature import _ROUNDING, integrate_static
from .roots import characteristic_roots


def _require_coupling(spec: SystemSpec) -> None:
    if spec.decoupled:
        raise DomainError(
            "both couplings vanish: the occupation never relaxes and has "
            "no stationary limit"
        )


@functools.lru_cache(maxsize=64)  # specs are frozen; queries share a build
def _stationary_integrals(spec: SystemSpec) -> tuple:
    """Stationary values (I_1(inf), I_2(inf)) of both baths' memory
    integrals and bounds on their errors, ((I_1, I_2), (err_1, err_2)):
    S_0 of their static parts, and its S_err plus the rounding allowance
    ``quadrature._ROUNDING`` |S_0|, exactly 0.0 for an uncoupled bath.
    S_err alone is not a bound: a tighter build can move S_0 by more, at
    rounding.

    The cache holds values for the quadrature module's fixed static rule;
    code that changes that rule calls ``integrate_static`` itself.  Raises
    DomainError if both couplings vanish (an error is not cached).
    """
    _require_coupling(spec)
    S, S_err, _ = integrate_static(
        KernelEvaluator(characteristic_roots(spec), spec))
    err = S_err[:, 0] + _ROUNDING * np.abs(S[:, 0])
    return ((float(S[0, 0].real), float(S[1, 0].real)),
            (float(err[0]), float(err[1])))


def asymptotic_bath_integral(spec: SystemSpec, bath_index: int) -> float:
    """Stationary value of bath ``bath_index``'s memory integral (0 or 1).

    Raises DomainError if both couplings vanish (no relaxation, hence no
    stationary limit) or the index is not the integer 0 or 1.
    """
    if not isinstance(bath_index, (int, np.integer)) or bath_index not in (0, 1):
        raise DomainError(f"bath index must be 0 or 1, got {bath_index!r}")
    return _stationary_integrals(spec)[0][bath_index]


def asymptotic_occupation(spec: SystemSpec) -> float:
    """Stationary occupation: the sum of both baths' asymptotic integrals."""
    i1, i2 = _stationary_integrals(spec)[0]
    return i1 + i2


def resonance_occupation(spec: SystemSpec) -> float:
    """Narrow-resonance (weak-damping) limit of the stationary occupation.

    As the couplings shrink, the weight w (gamma_partner^2 + w^2)/|q(-i w)|^2
    of each bath's stationary integral collapses onto the undamped
    resonance nu = sqrt(omega Omega) with total weight p_b/(4 omega nu),
    p_b = rho_b(nu)/(rho_1(nu) + rho_2(nu)).  The integral then reads

        sum_b p_b [ (omega + nu)^2 n_b(nu)
                    + (omega - nu)^2 (1 + eps_b n_b(nu)) ] / (4 omega nu).

    For bosonic baths at one temperature this is the Gibbs occupation of
    H = omega p^2/2 + Omega q^2/2,

        1/2 (sqrt(omega/Omega) + sqrt(Omega/omega)) (n_B(nu) + 1/2) - 1/2,

    the weak-coupling mean-force Gibbs state of the fully coupled
    oscillator (Trushechkin, Merkli, Cresser & Anders, AVS Quantum Sci. 4,
    012301 (2022)).  For fermionic baths it is only the weak-damping limit
    of the linearized-convention integral, not a thermodynamic equilibrium.
    Raises DomainError if both couplings vanish.
    """
    _require_coupling(spec)
    w = spec.omega
    nu = np.sqrt(w * spec.omega_renormalized)
    rho = [spectral_density(nu, b) for b in spec.baths]
    total = 0.0
    for rho_b, b in zip(rho, spec.baths):
        n = equilibrium_occupation(nu, b.temperature, b.statistics)
        total += rho_b * ((w + nu) ** 2 * n
                          + (w - nu) ** 2 * (1.0 + b.statistics * n))
    return float(total / (sum(rho) * 4.0 * w * nu))


def stationarity_condition_residual(spec: SystemSpec) -> float:
    """Mismatch of the two channels' preferred stationary occupations (mixed).

    The fermionic channel relaxes toward (I_f/p)/(1 - 2 I_f/p) (the Pauli
    factor renormalizes the target), the bosonic one toward I_b/(1-p).  The
    residual is the bosonic target minus the fermionic one; a value away
    from zero means no joint stationary point, i.e. persistent oscillation.
    Defined for mixed statistics with both channels coupled only.
    """
    if spec.statistics_mode != MIXED:
        raise DomainError(
            "stationarity residual is defined for mixed statistics only"
        )
    I_f, I_b = _stationary_integrals(spec)[0]
    p = mixing_fraction(*spec.baths)
    if p in (0.0, 1.0):  # I_f/p or I_b/(1 - p) is 0/0
        raise DomainError(f"one channel is uncoupled (p = {p:g})")
    scale = 1.0 - 2.0 * I_f / p
    if abs(scale) < 1e-300:
        raise DomainError("fermionic channel target is singular (I_f/p = 1/2)")
    return float(I_b / (1.0 - p) - (I_f / p) / scale)
