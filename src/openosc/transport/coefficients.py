"""Time-dependent friction and diffusion coefficients of the reduced motion.

The reduced occupation dynamics is driven by two coefficient series built
from the response amplitudes A(t), B(t) and the bath memory integrals
I(t).  With X = |A|^p + eps |B|^2 (p the modulus power, eps the bath
statistics sign):

    friction   lambda(t) = -(1/2) dX/dt / X
    diffusion  D(t)      = sum_b [ lambda (J_b + I_b) + (dJ_b + dI_b)/2 ]

where J_b splits |B|^2 into per-bath parts, J_1 + J_2 = |B|^2.  When the
two baths carry the same statistics a single lambda drives both parts.
When one bath is fermionic and one bosonic there is no single X; the
friction is the coupling-weighted blend of the fermionic and bosonic
variants, shifted by the fermionic diffusion part:

    lambda = p lambda_f + (1 - p) lambda_b - 2 D_f,   p = alpha_1/(alpha_1+alpha_2)
    D      = D_f + D_b

with the fermionic part built from bath 1 and the bosonic part from bath 2
(the model normalizes mixed systems to that order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, SingularKernelError
from ..model import (
    BOSONIC,
    FERMIONIC,
    MIXED,
    SystemSpec,
    equilibrium_occupation,
    mixing_fraction,
)
from .kernels import KernelEvaluator
from .quadrature import CHUNK, DEFAULT_RTOL, ComponentSpec, MemoryIntegrator
from .roots import characteristic_roots

#: friction magnitudes below this fraction of the series maximum make the
#: diffusion-to-friction ratio meaningless (reported as NaN)
RATIO_FLOOR = 1e-6

_CANCEL_TOL = 1e-12


@dataclass
class CoefficientSeries:
    """Friction/diffusion coefficients on a time grid.

    Attributes
    ----------
    t : ndarray
        Time grid (units of 1/Omega).
    friction, diffusion : ndarray
        lambda(t) and D(t).
    diffusion_parts : tuple of ndarray
        Per-bath split (D_1, D_2) with D = D_1 + D_2.
    memory_integrals : tuple of ndarray
        The two bath memory integrals entering the diffusion parts.
    ratio : ndarray
        D(t)/lambda(t); NaN where the friction is too small to divide by.
    """

    t: np.ndarray
    friction: np.ndarray
    diffusion: np.ndarray
    diffusion_parts: tuple
    memory_integrals: tuple
    ratio: np.ndarray
    amplitudes: object
    quadrature_reports: list


def _friction_from(A, dA, B, dB, eps, power, t):
    """-(1/2) dX/X for X = |A|^power + eps |B|^2, with cancellation guard."""
    A2 = A.real**2 + A.imag**2
    B2 = B.real**2 + B.imag**2
    re_AdA = A.real * dA.real + A.imag * dA.imag
    re_BdB = B.real * dB.real + B.imag * dB.imag
    if power == 2:
        X = A2 + eps * B2
        dX = 2.0 * re_AdA + 2.0 * eps * re_BdB
    elif power == 1:
        absA = np.sqrt(A2)
        X = absA + eps * B2
        dX = np.where(absA > 0, re_AdA / np.where(absA > 0, absA, 1.0), 0.0)
        dX = dX + 2.0 * eps * re_BdB
    else:
        raise DomainError(f"modulus power must be 1 or 2, got {power}")
    healthy = A2 + B2  # both decay as e^{-2 eta t}; X must not be small
    bad = np.abs(X) <= _CANCEL_TOL * healthy  # relative to that envelope
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularKernelError(
            "friction denominator lost all significant digits "
            f"(|X| <= {_CANCEL_TOL:g} x (|A|^2 + |B|^2))",
            time=float(np.atleast_1d(t)[k]),
        )
    return -0.5 * dX / X


def _bath_components(spec: SystemSpec):
    """Quadrature components for the memory integrals of each bath.

    For same-statistics systems each bath contributes with the common sign;
    for mixed systems bath 1 enters through the fermionic variant and bath 2
    through the bosonic one.
    """
    comps = []
    for idx, bath in enumerate(spec.baths):
        a, g, T, eps = bath.alpha, bath.gamma, bath.temperature, bath.statistics

        def wn(w, a=a, g=g, T=T, eps=eps):
            pref = (a * g * g / np.pi) * w / (g * g + w * w)
            return pref * equilibrium_occupation(w, T, eps)

        def wp(w, a=a, g=g, T=T, eps=eps):
            pref = (a * g * g / np.pi) * w / (g * g + w * w)
            return pref * (1.0 + eps * equilibrium_occupation(w, T, eps))

        comps.append(ComponentSpec(name=f"bath{idx + 1}", weight_occupied=wn,
                                   weight_vacant=wp))
    return comps


def _j_parts(series):
    """Per-bath split of |B|^2 and its time derivative."""
    B1, B2, dB1, dB2 = series.B1, series.B2, series.dB1, series.dB2
    cross = (B1 * np.conj(B2)).real
    dcross = (dB1 * np.conj(B2)).real + (B1 * np.conj(dB2)).real
    J1 = B1.real**2 + B1.imag**2 + cross
    J2 = B2.real**2 + B2.imag**2 + cross
    dJ1 = 2.0 * (B1.real * dB1.real + B1.imag * dB1.imag) + dcross
    dJ2 = 2.0 * (B2.real * dB2.real + B2.imag * dB2.imag) + dcross
    return (J1, J2), (dJ1, dJ2)


def coefficient_series(spec: SystemSpec, t, *, abs_A_power: int = 2,
                       rtol: float = DEFAULT_RTOL,
                       w_max_factor: float = 1.0) -> CoefficientSeries:
    """Compute lambda(t) and D(t) for one system on the given time grid.

    Parameters
    ----------
    spec : SystemSpec
    t : array_like
        Nonnegative, strictly increasing times.
    abs_A_power : {1, 2}
        Power of |A| in the friction denominator X = |A|^p + eps |B|^2.
    rtol : float
        Relative target for the frequency quadrature.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise DomainError("time grid must be a nonempty 1-D array")
    if (t < 0).any() or (np.diff(t) <= 0).any():
        raise DomainError("time grid must be nonnegative and strictly increasing")

    rootset = characteristic_roots(spec)
    ev = KernelEvaluator(rootset, spec)
    amp = ev.amplitude_series(t)

    integ = MemoryIntegrator(ev, _bath_components(spec), rtol=rtol,
                             w_max_factor=w_max_factor)
    I1 = np.empty_like(t)
    I2 = np.empty_like(t)
    dI1 = np.empty_like(t)
    dI2 = np.empty_like(t)
    reports = []
    for start in range(0, t.size, CHUNK):
        sl = slice(start, min(start + CHUNK, t.size))
        out = integ.integrate(t[sl])
        I1[sl], dI1[sl] = out["bath1"]
        I2[sl], dI2[sl] = out["bath2"]
        reports.append(integ.last_report)

    (J1, J2), (dJ1, dJ2) = _j_parts(amp)

    if spec.statistics_mode == MIXED:
        lam_f = _friction_from(amp.A, amp.dA, amp.B, amp.dB, FERMIONIC,
                               abs_A_power, t)
        lam_b = _friction_from(amp.A, amp.dA, amp.B, amp.dB, BOSONIC,
                               abs_A_power, t)
        D_f = lam_f * (J1 + I1) + 0.5 * (dJ1 + dI1)
        D_b = lam_b * (J2 + I2) + 0.5 * (dJ2 + dI2)
        p = mixing_fraction(*spec.baths)
        lam = p * lam_f + (1.0 - p) * lam_b - 2.0 * D_f
        parts = (D_f, D_b)
    else:
        eps = spec.baths[0].statistics
        lam = _friction_from(amp.A, amp.dA, amp.B, amp.dB, eps, abs_A_power, t)
        D_1 = lam * (J1 + I1) + 0.5 * (dJ1 + dI1)
        D_2 = lam * (J2 + I2) + 0.5 * (dJ2 + dI2)
        parts = (D_1, D_2)

    D = parts[0] + parts[1]
    floor = RATIO_FLOOR * np.max(np.abs(lam)) if t.size else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(lam) > floor, D / lam, np.nan)

    return CoefficientSeries(t=t, friction=lam, diffusion=D,
                             diffusion_parts=parts,
                             memory_integrals=(I1, I2), ratio=ratio,
                             amplitudes=amp, quadrature_reports=reports)
