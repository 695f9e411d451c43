"""Independent cross-check: exact evolution of a discretized bath model.

The continuum baths are replaced by finite combs of modes sampled from the
spectral density (midpoint rule).  The resulting closed quadratic model is
diagonalized once; occupations then follow from the exact normal-mode
propagator, with no time stepping and no reference to the response-kernel
machinery being checked -- errors cannot be shared between the two routes.

Two conventions worth spelling out:

* The oracle is restricted to same-statistics systems.  Mixed
  fermionic-bosonic systems have no exact linear closure (their reduced
  description already involves a mean-field step), so the mixed pathway is
  validated through its same-statistics constituents instead.  All-bosonic
  combs are the exact discretized model; all-fermionic combs are available
  behind ``allow_fermionic=True`` as a linearized convention -- the same
  harmonic network carrying fermionic initial occupations -- adequate for
  weak-coupling cross-checks only.
* A finite comb is periodic: after the recurrence time 2 pi / (mode
  spacing) the discretization error grows from 'small' to O(1).  The
  recurrence time is reported and exceeding it warns.

An excitation-conserving variant (``rwa=True``) drops the counter-rotating
part of the coupling; it is a diagnostic, not a model of the full system.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, DomainError, StabilityError
from .model import (
    FERMIONIC,
    MIXED,
    BathSpec,
    SystemSpec,
    _default_w_max,
    equilibrium_occupation,
    spectral_density,
)

#: total bath modes allowed in one diagonalization
MODE_CAP = 2000

_TIME_BLOCK = 256


@dataclass
class OracleResult:
    """Occupation from the discretized-bath evolution."""

    t: np.ndarray
    n: np.ndarray
    n_modes: int
    w_max: float
    recurrence_time: float
    rwa: bool


@dataclass
class ComparisonReport:
    """Pointwise deviation between two occupation trajectories."""

    max_abs_dev: float
    mean_abs_dev: float
    worst_time: float
    overlap: tuple


def sample_bath(bath: BathSpec, n_modes: int, w_max: float):
    """Midpoint-rule discretization of one bath.

    Returns mode frequencies w_i and coupling amplitudes a_i with
    a_i^2 = w_i dw J(w_i), J the spectral density.  The effective coupling
    sum a_i^2 / w_i then reproduces the truncated continuum integral
    (alpha gamma / pi) arctan(w_max / gamma) to second order in dw.
    """
    if n_modes < 1:
        raise DomainError("need at least one bath mode")
    if w_max <= 0:
        raise DomainError("bath cutoff must be positive")
    dw = w_max / n_modes
    w = (np.arange(n_modes) + 0.5) * dw
    a2 = w * dw * spectral_density(w, bath)
    return w, np.sqrt(a2)


def evolve_exact(spec: SystemSpec, t, n0: float, *, n_modes: int = 400,
                 w_max: float | None = None, rwa: bool = False,
                 allow_fermionic: bool = False) -> OracleResult:
    """Oscillator occupation from the exact discretized-model propagator.

    Parameters
    ----------
    spec : SystemSpec
        Must carry same-statistics baths; the mixed pathway is validated
        through its same-statistics constituents, not a direct oracle run.
    t : array_like
        Times at which to report the occupation.
    n0 : float
        Initial oscillator occupation (baths start at their equilibria).
    n_modes : int
        Modes per bath; both baths together must stay within MODE_CAP.
    w_max : float, optional
        Sampling cutoff (default: the quadrature cutoff rule).
    rwa : bool
        Drop counter-rotating coupling terms (excitation-conserving
        diagnostic variant).
    allow_fermionic : bool
        Opt in to the linearized all-fermionic convention (see module
        docstring); off by default because it is not an exact model.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if (t < 0).any():
        raise DomainError("oracle times must be nonnegative")
    if n0 < 0:
        raise DomainError("initial occupation must be nonnegative")
    if spec.statistics_mode == MIXED:
        raise DomainError(
            "the oracle covers same-statistics systems only; validate mixed "
            "systems through their fermionic and bosonic constituents"
        )
    if spec.baths[0].statistics == FERMIONIC and not allow_fermionic:
        raise DomainError(
            "all-fermionic combs use a linearized convention; pass "
            "allow_fermionic=True to opt in"
        )
    if 2 * n_modes > MODE_CAP:
        raise DimensionCapError(
            f"2 x {n_modes} bath modes exceed the cap of {MODE_CAP}; "
            "reduce n_modes or split the comparison window"
        )
    if w_max is None:
        w_max = _default_w_max(spec)

    w = spec.omega
    combs = [sample_bath(b, n_modes, w_max) for b in spec.baths]
    w_bath = np.concatenate([c[0] for c in combs])
    a_bath = np.concatenate([c[1] for c in combs])
    occ_bath = np.concatenate([
        equilibrium_occupation(c[0], b.temperature, b.statistics)
        for c, b in zip(combs, spec.baths)
    ])
    dw = w_max / n_modes
    recurrence = 2.0 * np.pi / dw
    if t.max() > recurrence:
        warnings.warn(
            f"requested times extend past the recurrence horizon "
            f"{recurrence:.3g}; the discretized bath is periodic there",
            stacklevel=2,
        )

    if rwa:
        n = _evolve_rwa(w, w_bath, a_bath, occ_bath, t, n0)
    else:
        n = _evolve_full(w, w_bath, a_bath, occ_bath, t, n0)
    return OracleResult(t=t, n=n, n_modes=n_modes, w_max=float(w_max),
                        recurrence_time=float(recurrence), rwa=rwa)


def _mode_system(w, w_bath, a_bath):
    """Diagonalize the coupled quadratic form in scaled coordinates."""
    wm = np.concatenate([[w], w_bath])
    n_tot = wm.size
    M = np.zeros((n_tot, n_tot))
    M[np.diag_indices(n_tot)] = wm**2
    M[0, 1:] = M[1:, 0] = 2.0 * a_bath * np.sqrt(w * w_bath)
    nu2, O = np.linalg.eigh(M)
    if nu2.min() <= 0:
        raise StabilityError(
            f"discretized model is unstable (min eigenvalue {nu2.min():.3g}); "
            "the continuum counterpart would have a runaway root"
        )
    return wm, np.sqrt(nu2), O


def propagator_blocks(spec: SystemSpec, t_point: float, *, n_modes: int = 25,
                      w_max: float | None = None):
    """Full (X, P) propagator blocks at one time, for invariant checks.

    Returns (Txx, Txp, Tpx, Tpp, wm).  Meant for small mode counts; the
    evolution path only ever materializes the oscillator row.
    """
    if w_max is None:
        w_max = _default_w_max(spec)
    combs = [sample_bath(b, n_modes, w_max) for b in spec.baths]
    w_bath = np.concatenate([c[0] for c in combs])
    a_bath = np.concatenate([c[1] for c in combs])
    wm, nu, O = _mode_system(spec.omega, w_bath, a_bath)
    sqw = np.sqrt(wm)
    c = O @ np.diag(np.cos(nu * t_point)) @ O.T
    s_over = O @ np.diag(np.sin(nu * t_point) / nu) @ O.T
    s_times = O @ np.diag(np.sin(nu * t_point) * nu) @ O.T
    Txx = sqw[:, None] * c / sqw[None, :]
    Txp = sqw[:, None] * s_over * sqw[None, :]
    Tpx = -s_times / (sqw[:, None] * sqw[None, :])
    Tpp = c * sqw[None, :] / sqw[:, None]
    return Txx, Txp, Tpx, Tpp, wm


def _evolve_full(w, w_bath, a_bath, occ_bath, t, n0):
    """Full position-position coupling via the normal-mode propagator."""
    wm, nu, O = _mode_system(w, w_bath, a_bath)
    occ0 = np.concatenate([[n0], occ_bath]) + 0.5
    sqw = np.sqrt(wm)
    u = O[0, :]

    n_out = np.empty(t.size)
    for i in range(0, t.size, _TIME_BLOCK):
        ts = t[i:i + _TIME_BLOCK]
        cos_t = np.cos(np.outer(nu, ts)) * u[:, None]
        sin_t = np.sin(np.outer(nu, ts))
        sin_over = (sin_t / nu[:, None]) * u[:, None]
        sin_times = (sin_t * nu[:, None]) * u[:, None]
        OC = O @ cos_t
        OS = O @ sin_over
        OS2 = O @ sin_times
        Txx = sqw[0] * OC / sqw[:, None]
        Txp = sqw[0] * OS * sqw[:, None]
        Tpx = -OS2 / (sqw[0] * sqw[:, None])
        Tpp = OC * sqw[:, None] / sqw[0]
        X2 = (Txx**2 + Txp**2).T @ occ0
        P2 = (Tpx**2 + Tpp**2).T @ occ0
        n_out[i:i + _TIME_BLOCK] = 0.5 * (X2 + P2 - 1.0)
    return n_out


def _evolve_rwa(w, w_bath, a_bath, occ_bath, t, n0):
    """Excitation-conserving variant: single-quantum hopping matrix."""
    wm = np.concatenate([[w], w_bath])
    n_tot = wm.size
    h = np.zeros((n_tot, n_tot))
    h[np.diag_indices(n_tot)] = wm
    h[0, 1:] = h[1:, 0] = a_bath
    eps_k, V = np.linalg.eigh(h)
    occ0 = np.concatenate([[n0], occ_bath])
    u = V[0, :]

    n_out = np.empty(t.size)
    for i in range(0, t.size, _TIME_BLOCK):
        ts = t[i:i + _TIME_BLOCK]
        phase = np.exp(-1j * np.outer(eps_k, ts)) * u[:, None]
        U_row = V @ phase  # (n_tot, n_t): overlap of mode m with oscillator
        n_out[i:i + _TIME_BLOCK] = (U_row.real**2 + U_row.imag**2).T @ occ0
    return n_out


def compare(t_a, n_a, t_b, n_b, *, n_points: int | None = None) -> ComparisonReport:
    """Pointwise deviation of two trajectories on their common time window."""
    t_a = np.asarray(t_a, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    lo = max(t_a.min(), t_b.min())
    hi = min(t_a.max(), t_b.max())
    if hi <= lo:
        raise DomainError(
            f"trajectories do not overlap in time ([{t_a.min():g}, {t_a.max():g}] "
            f"vs [{t_b.min():g}, {t_b.max():g}])"
        )
    if n_points is None:
        n_points = int(min(t_a.size, t_b.size))
    grid = np.linspace(lo, hi, n_points)
    dev = np.abs(np.interp(grid, t_a, np.asarray(n_a, dtype=float))
                 - np.interp(grid, t_b, np.asarray(n_b, dtype=float)))
    k = int(np.argmax(dev))
    return ComparisonReport(
        max_abs_dev=float(dev[k]),
        mean_abs_dev=float(dev.mean()),
        worst_time=float(grid[k]),
        overlap=(float(lo), float(hi)),
    )
