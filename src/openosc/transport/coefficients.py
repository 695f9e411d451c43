"""Time-dependent friction and diffusion coefficients of the reduced motion.

The reduced occupation dynamics is driven by two coefficient series built
from the response amplitudes A(t), B(t) and the bath memory integrals
I(t).  The oscillator is linearly coupled to its baths, so its occupation
is quadratic in the amplitudes, n = X n0 + |B|^2 + I with
X = |A|^2 + eps |B|^2 (eps the bath statistics sign), and

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

When both couplings vanish the oscillator is free, A = e^{-i omega t} and
lambda = D = I = 0, whatever its statistics and cutoffs.
``coefficient_series`` decides that before any root solve, so every layer
below it assumes a coupled system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, SingularKernelError
from ..model import (
    BOSONIC,
    FERMIONIC,
    MIXED,
    SystemSpec,
    _default_w_max,
    mixing_fraction,
)
from .kernels import AmplitudeSeries, KernelEvaluator
from .quadrature import MemoryIntegrator, QuadratureReport
from .roots import characteristic_roots

#: friction magnitudes below this fraction of the series maximum make the
#: diffusion-to-friction ratio meaningless (reported as NaN)
RATIO_FLOOR = 1e-6

_CANCEL_TOL = 1e-12


@functools.cache
def _stencil(width: int, sub: int, derivative: bool):
    """``_local_cubic``'s tables for windows of ``width`` points, read-only.

    Returns the nearest window point of each sample, shape (width - 1,
    sub + 1), and the Lagrange weights of each node there, shape (width,
    width - 1, sub + 1), for each offset of the interval inside its window.
    """
    # sample points, in grid steps from the window start, for each offset
    u = np.arange(width - 1)[:, None] + np.arange(sub + 1) / sub
    nodes = np.arange(width)
    weights = []
    for i in nodes:
        others = nodes[nodes != i]  # Lagrange basis polynomial of node i
        if derivative:
            w = sum(np.prod(u[..., None] - others[others != j], axis=-1)
                    for j in others)
        else:
            w = np.prod(u[..., None] - others, axis=-1)
        weights.append(w / np.prod(i - others))
    tables = np.rint(u).astype(int), np.array(weights)
    for a in tables:
        a.flags.writeable = False
    return tables


def _local_cubic(y, sub: int, derivative: bool = False) -> np.ndarray:
    """Rows of ``y``, sampled on a uniform grid, inside each grid interval.

    Interval [k, k+1] takes the cubic through the four grid points nearest
    it, k-1..k+2, or the first or last four at the ends (fewer points and a
    lower degree on grids shorter than four), and is sampled at k + j/sub,
    j = 0..sub.  On quarter points the weights are fixed stencils, e.g.
    (-7, 105, 35, -5)/128 at k + 1/4.  The cubic is summed as the nearest
    grid value plus weighted differences from it, so grid values and
    constants come back exactly.  With ``derivative`` the result is the
    cubic's derivative per grid step (divide by the spacing); at a grid
    point the two intervals that share it then differ.  Returns shape
    (rows, K - 1, sub + 1) for K grid points.
    """
    y = np.atleast_2d(y)
    k_pts = y.shape[-1]
    width = min(k_pts, 4)
    start = np.clip(np.arange(k_pts - 1) - 1, 0, k_pts - width)
    offset = np.arange(k_pts - 1) - start  # interval start inside its window
    nearest, weights = _stencil(width, sub, derivative)
    near = np.take(y, start[:, None] + nearest[offset], axis=1)
    out = np.zeros_like(near)
    for i, w in enumerate(weights):
        out += (np.take(y, start + i, axis=1)[..., None] - near) * w[offset]
    return out if derivative else out + near


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
    quadrature_report : QuadratureReport
        The memory integrals' report.
    """

    t: np.ndarray
    friction: np.ndarray
    diffusion: np.ndarray
    diffusion_parts: tuple
    memory_integrals: tuple
    ratio: np.ndarray
    amplitudes: object
    quadrature_report: QuadratureReport

    @functools.cached_property
    def quarter_points(self) -> np.ndarray:
        """2 lambda and 2 D at the quarter points of each grid interval, on
        its local cubic (``_local_cubic``), read-only.

        Shape (2, K - 1, 5) for K grid points: entry [., k, j] sits at
        t_k + j (t_{k+1} - t_k)/4.  Made on first use and kept with the
        series, so every RK4 build that steps it shares one table; a copy
        made by ``dataclasses.replace`` makes its own.  Meaningful on a
        uniform grid only, which the stepper checks before reading it.
        """
        table = 2.0 * _local_cubic([self.friction, self.diffusion], 4)
        table.flags.writeable = False
        return table


def _friction_from(A, dA, B, dB, eps, t):
    """-(1/2) dX/X for X = |A|^2 + eps |B|^2, with cancellation guard."""
    A2 = A.real**2 + A.imag**2
    B2 = B.real**2 + B.imag**2
    re_AdA = A.real * dA.real + A.imag * dA.imag
    re_BdB = B.real * dB.real + B.imag * dB.imag
    X = A2 + eps * B2
    dX = 2.0 * re_AdA + 2.0 * eps * re_BdB
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


def _free_series(spec: SystemSpec, t) -> CoefficientSeries:
    """The free oscillator's series: A = e^{-i omega t}, nothing bath-borne,
    and lambda = -0.0, the sign -(1/2) dX/X gives for X = |A|^2."""
    A = np.exp(-1j * spec.omega * t)
    amp = AmplitudeSeries(t, A, -1j * spec.omega * A,
                          *np.zeros((6, t.size), dtype=complex))  # B, dB, ...
    D, D1, D2, I1, I2 = np.zeros((5, t.size))
    report = QuadratureReport(
        n_panels=0, w_max=_default_w_max(spec), max_rel_error=0.0,
        tail_bound={"bath1": 0.0, "bath2": 0.0}, ray_entries=0,
        ray_entries_kept=0)
    return CoefficientSeries(
        t=t, friction=np.full(t.size, -0.0), diffusion=D,
        diffusion_parts=(D1, D2), memory_integrals=(I1, I2),
        ratio=np.full(t.size, np.nan), amplitudes=amp, quadrature_report=report)


def coefficient_series(spec: SystemSpec, t) -> CoefficientSeries:
    """Compute lambda(t) and D(t) for one system on the given time grid.

    Raises QuadratureError if the memory integrals' error budget exceeds
    ``quadrature.RTOL``.

    Parameters
    ----------
    spec : SystemSpec
    t : array_like
        Finite, nonnegative, strictly increasing times.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise DomainError("time grid must be a nonempty 1-D array")
    if not np.isfinite(t).all():
        raise DomainError(
            f"time grid must be finite; got {float(t[~np.isfinite(t)][0])!r}")
    if (t < 0).any() or (np.diff(t) <= 0).any():
        raise DomainError("time grid must be nonnegative and strictly increasing")
    if spec.decoupled:
        return _free_series(spec, t)

    rootset = characteristic_roots(spec)
    ev = KernelEvaluator(rootset, spec)
    amp = ev.amplitude_series(t)

    integ = MemoryIntegrator(ev)
    out = integ.integrate(t)
    I1, dI1 = out["bath1"]
    I2, dI2 = out["bath2"]

    (J1, J2), (dJ1, dJ2) = _j_parts(amp)

    if spec.statistics_mode == MIXED:
        lam_f = _friction_from(amp.A, amp.dA, amp.B, amp.dB, FERMIONIC, t)
        lam_b = _friction_from(amp.A, amp.dA, amp.B, amp.dB, BOSONIC, t)
        D_f = lam_f * (J1 + I1) + 0.5 * (dJ1 + dI1)
        D_b = lam_b * (J2 + I2) + 0.5 * (dJ2 + dI2)
        p = mixing_fraction(*spec.baths)
        lam = p * lam_f + (1.0 - p) * lam_b - 2.0 * D_f
        parts = (D_f, D_b)
    else:
        eps = spec.baths[0].statistics
        lam = _friction_from(amp.A, amp.dA, amp.B, amp.dB, eps, t)
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
                             amplitudes=amp,
                             quadrature_report=integ.last_report)
