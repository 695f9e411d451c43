"""Parameter types, unit conventions, and bath thermodynamics.

Units: hbar = k_B = 1 throughout.  All frequencies are measured in units of
the first oscillator's renormalized frequency Omega_1, time in 1/Omega_1,
temperatures as kT/(hbar Omega_1), and energies in hbar Omega_1.

An oscillator is specified by its renormalized frequency Omega; the bare
frequency follows from the attached baths as

    omega = Omega + 2*alpha_1*gamma_1 + 2*alpha_2*gamma_2.

Each bath is a Lorentzian reservoir with spectral density

    rho(w) = (1/pi) * alpha * gamma**2 / (gamma**2 + w**2),

statistics sign eps = +1 (bosonic) or -1 (fermionic), and temperature T.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

BOSONIC = +1
FERMIONIC = -1


def statistics_from_name(name: str) -> int:
    """Map 'bosonic'/'fermionic' (or +1/-1 strings) to the statistics sign."""
    key = str(name).strip().lower()
    if key in ("bosonic", "boson", "b", "+1", "1"):
        return BOSONIC
    if key in ("fermionic", "fermion", "f", "-1"):
        return FERMIONIC
    raise DomainError(f"unknown statistics {name!r}; expected 'bosonic' or 'fermionic'")


@dataclass(frozen=True)
class BathSpec:
    """One heat bath: statistics sign, coupling, Lorentzian cutoff, temperature.

    Parameters
    ----------
    statistics : int
        +1 for a bosonic bath, -1 for a fermionic one.
    alpha : float
        Dimensionless coupling strength, > 0 (0 admitted for decoupled limits).
    gamma : float
        Lorentzian cutoff frequency (inverse memory time), > 0.
    temperature : float
        kT/(hbar Omega_1), >= 0.
    """

    statistics: int
    alpha: float
    gamma: float
    temperature: float

    def __post_init__(self):
        if self.statistics not in (BOSONIC, FERMIONIC):
            raise DomainError(f"statistics must be +1 or -1, got {self.statistics}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise DomainError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise DomainError(f"gamma must be finite and > 0, got {self.gamma}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise DomainError(
                f"temperature must be finite and >= 0, got {self.temperature}"
            )


ALL_BOSONIC = "all-bosonic"
ALL_FERMIONIC = "all-fermionic"
MIXED = "mixed"


@dataclass(frozen=True)
class SystemSpec:
    """One oscillator, given by its renormalized frequency Omega, plus its two
    heat baths.

    The bare frequency ``omega`` is derived on construction, from the baths
    in the order given.  In mixed mode the fermionic bath is then stored
    first; a configuration given in the opposite order is relabeled (the
    friction and diffusion combination formulas index the fermionic bath as
    1 and the bosonic bath as 2).
    """

    omega_renormalized: float
    baths: tuple  # (BathSpec, BathSpec)
    omega: float = field(init=False)
    statistics_mode: str = field(init=False)

    def __post_init__(self):
        if len(self.baths) != 2:
            raise DomainError(f"exactly two baths required, got {len(self.baths)}")
        b1, b2 = self.baths
        w = bare_frequency(self.omega_renormalized, b1, b2)
        object.__setattr__(self, "omega", w)
        if b1.statistics == b2.statistics:
            mode = ALL_BOSONIC if b1.statistics == BOSONIC else ALL_FERMIONIC
        else:
            mode = MIXED
            if b1.statistics != FERMIONIC:
                # canonical order: fermionic bath first
                object.__setattr__(self, "baths", (b2, b1))
        object.__setattr__(self, "statistics_mode", mode)
        # reported at the line that called make_system, or SystemSpec itself:
        # frame 1 is the dataclass-generated __init__
        via_make_system = sys._getframe(2).f_code is make_system.__code__
        for i, b in enumerate(self.baths, start=1):
            if b.gamma < 5.0 * w:
                warnings.warn(
                    f"bath {i}: cutoff gamma={b.gamma:g} is below 5*omega={5*w:g}; "
                    "the fast-bath regime assumed by the kernel formulas is "
                    "marginal here",
                    stacklevel=4 if via_make_system else 3,
                )

    @property
    def decoupled(self) -> bool:
        """Whether both couplings vanish (alpha_1 = alpha_2 = 0)."""
        return all(b.alpha == 0.0 for b in self.baths)


def make_system(Omega, bath1: BathSpec, bath2: BathSpec) -> SystemSpec:
    """Build a SystemSpec from the renormalized frequency and two baths."""
    return SystemSpec(Omega, (bath1, bath2))


@dataclass(frozen=True)
class CoupledSpec:
    """Two oscillator-plus-baths systems that a coupling beta can join.

    The coupling strength is an argument of the coupled runs, not part of
    the pair: beta = 0 reduces exactly to two independent systems.
    """

    systems: tuple  # (SystemSpec, SystemSpec)

    def __post_init__(self):
        if len(self.systems) != 2:
            raise DomainError("exactly two systems required")


# ---------------------------------------------------------------------------
# thermodynamics and spectral density
# ---------------------------------------------------------------------------

def equilibrium_occupation(w, T, eps):
    """Equilibrium occupation 1/(exp(w/T) - eps) for frequency w with Re w > 0.

    eps = +1 gives the Bose-Einstein distribution, eps = -1 Fermi-Dirac.
    T = 0 returns the analytic limit 0 (for Re w > 0).  Evaluated in the
    overflow-safe form exp(-w/T)/(1 - eps*exp(-w/T)).  Complex w continues
    the occupation analytically into the right half-plane.
    """
    w_arr = np.asarray(w)
    if not np.iscomplexobj(w_arr):
        w_arr = w_arr.astype(float)
    if eps not in (BOSONIC, FERMIONIC):
        raise DomainError(f"statistics must be +1 or -1, got {eps}")
    if not np.all(np.isfinite(w_arr)) or not math.isfinite(T):
        raise DomainError("non-finite input to equilibrium_occupation")
    if np.any(w_arr.real <= 0):
        raise DomainError("equilibrium_occupation requires Re w > 0")
    if T < 0:
        raise DomainError(f"temperature must be >= 0, got {T}")
    if T == 0:
        out = np.zeros_like(w_arr)
        return out if out.ndim else out.item()
    ex = np.exp(-w_arr / T)
    out = ex / (1.0 - eps * ex)
    return out if out.ndim else out.item()


def spectral_density(w, bath: BathSpec):
    """Lorentzian spectral density (1/pi) * alpha * gamma^2 / (gamma^2 + w^2)."""
    w_arr = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w_arr)):
        raise DomainError("non-finite frequency in spectral_density")
    out = (bath.alpha * bath.gamma**2 / np.pi) / (bath.gamma**2 + w_arr**2)
    return out if out.ndim else float(out)


def bare_frequency(Omega, bath1: BathSpec, bath2: BathSpec) -> float:
    """Invert the frequency renormalization: omega = Omega + 2*a1*g1 + 2*a2*g2."""
    if not (math.isfinite(Omega) and Omega > 0):
        raise DomainError(f"Omega must be > 0, got {Omega}")
    return Omega + 2.0 * bath1.alpha * bath1.gamma + 2.0 * bath2.alpha * bath2.gamma


def _default_w_max(spec: SystemSpec) -> float:
    """Frequency cutoff rule max(20 gamma_max, 40 omega, 20 T_max).

    The one rule behind the discretized-bath oracle's comb and the
    ``w_max`` that the memory integrals' report carries.
    """
    g_max = max(b.gamma for b in spec.baths)
    t_max = max(b.temperature for b in spec.baths)
    return max(20.0 * g_max, 40.0 * spec.omega, 20.0 * t_max)


def mixing_fraction(bath1: BathSpec, bath2: BathSpec) -> float:
    """Coupling weight p = alpha_1/(alpha_1 + alpha_2) of the first bath."""
    tot = bath1.alpha + bath2.alpha
    if tot <= 0:
        raise DomainError("mixing_fraction undefined when both couplings are zero")
    return bath1.alpha / tot
