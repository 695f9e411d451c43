"""Late-time (stationary) limits of the memory integrals and occupation.

As t -> infinity the response amplitudes die out as e^{-2 eta t} and each
bath memory integral converges to a frequency integral over the resolvent:

    I_b(inf) = (alpha_b gamma_b^2 / pi) int_0^inf dw
               w (gamma_partner^2 + w^2) / |q(-i w)|^2
               x [ (omega + w)^2 n_b(w) + (omega - w)^2 (1 + eps_b n_b(w)) ]

with q the characteristic quartic and n_b the equilibrium occupation of
bath b.  For same-statistics systems the stationary occupation is the sum
of the two integrals; for mixed statistics the channels compete and the
mismatch of their preferred stationary points is what sustains the
persistent oscillations.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from ..model import (
    MIXED,
    SystemSpec,
    _default_w_max,
    equilibrium_occupation,
    mixing_fraction,
    spectral_density,
)
from .quadrature import integrate_static
from .roots import characteristic_roots, oscillatory_pair


def _static_edges(spec: SystemSpec, eta: float, nu: float) -> np.ndarray:
    """Panel edges resolving the resonance spike and the power-law tail.

    The integrand falls off like 1/w^3 once w clears the Lorentzian knees,
    so the cutoff must sit far out (truncating at W leaves ~1/W^2 behind);
    geometric panels cover the smooth power-law stretch cheaply.
    """
    w = spec.omega
    g_max = max(b.gamma for b in spec.baths)
    w_knee = _default_w_max(spec)
    w_far = 3000.0 * w_knee
    scale = max(1.0, w)
    base = np.arange(0.0, min(8.0 * scale, w_knee), 0.05 * scale)
    mid = np.arange(min(8.0 * scale, w_knee), min(5.0 * g_max, w_knee),
                    0.2 * scale)
    tail = np.arange(min(5.0 * g_max, w_knee), w_knee, g_max / 4.0)
    far = np.geomspace(w_knee, w_far, 40)
    parts = [np.array([0.0, w_knee]), base, mid, tail, far]
    if eta > 0:
        lo = max(0.0, nu - 12.0 * eta)
        hi = min(w_knee, nu + 12.0 * eta)
        parts.append(np.arange(lo, hi, max(eta / 3.0, 1e-6)))
    edges = np.unique(np.concatenate(parts))
    return edges[(edges >= 0.0) & (edges <= w_far)]


def _require_coupling(spec: SystemSpec) -> None:
    if all(b.alpha == 0.0 for b in spec.baths):
        raise DomainError(
            "both couplings vanish: the occupation never relaxes and has "
            "no stationary limit"
        )


def asymptotic_bath_integral(spec: SystemSpec, bath_index: int) -> float:
    """Stationary value of bath ``bath_index``'s memory integral (0 or 1).

    Raises DomainError if both couplings vanish (no relaxation, hence no
    stationary limit) or the index is out of range.
    """
    if bath_index not in (0, 1):
        raise DomainError(f"bath index must be 0 or 1, got {bath_index}")
    _require_coupling(spec)
    bath = spec.baths[bath_index]
    if bath.alpha == 0.0:
        return 0.0
    partner = spec.baths[1 - bath_index]
    rootset = characteristic_roots(spec)
    eta, nu = oscillatory_pair(rootset.roots)
    w = spec.omega
    a, g, T, eps = bath.alpha, bath.gamma, bath.temperature, bath.statistics
    quartic = rootset.quartic_coefficients

    def integrand(wq):
        qv = np.abs(np.polyval(quartic, -1j * wq)) ** 2
        n = equilibrium_occupation(wq, T, eps)
        bracket = (w + wq) ** 2 * n + (w - wq) ** 2 * (1.0 + eps * n)
        return (a * g * g / np.pi) * wq * (partner.gamma**2 + wq**2) / qv * bracket

    edges = _static_edges(spec, eta, nu)
    value, _err = integrate_static(integrand, edges)
    return float(value)


def asymptotic_occupation(spec: SystemSpec) -> float:
    """Stationary occupation: the sum of both baths' asymptotic integrals."""
    return asymptotic_bath_integral(spec, 0) + asymptotic_bath_integral(spec, 1)


def markovian_mixture(spec: SystemSpec) -> float:
    """Coupling-weighted mix of the bath equilibria at the bare omega.

    p n_1(omega) + (1-p) n_2(omega) with p = alpha_1/(alpha_1 + alpha_2),
    each occupation taken with its own bath's statistics and temperature.
    This is not the alpha -> 0 limit of the stationary occupation: that
    limit is ``resonance_occupation``, which samples the baths at
    nu = sqrt(omega Omega) with the omega/Omega stiffness factors.  On a
    weakly coupled two-temperature system (acceptance item 07) the
    asymptote lies 0.63% from this mixture and 0.02% from
    ``resonance_occupation``.
    """
    b1, b2 = spec.baths
    p = mixing_fraction(b1, b2)
    w = spec.omega
    n1 = equilibrium_occupation(w, b1.temperature, b1.statistics)
    n2 = equilibrium_occupation(w, b2.temperature, b2.statistics)
    return float(p * n1 + (1.0 - p) * n2)


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
    Defined for mixed statistics only.
    """
    if spec.statistics_mode != MIXED:
        raise DomainError(
            "stationarity residual is defined for mixed statistics only"
        )
    p = mixing_fraction(*spec.baths)
    I_f = asymptotic_bath_integral(spec, 0)
    I_b = asymptotic_bath_integral(spec, 1)
    scale = 1.0 - 2.0 * I_f / p
    if abs(scale) < 1e-300:
        raise DomainError("fermionic channel target is singular (I_f/p = 1/2)")
    return float(I_b / (1.0 - p) - (I_f / p) / scale)
