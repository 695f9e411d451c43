"""Occupation dynamics driven by the friction/diffusion coefficients.

A single oscillator obeys the second-order form

    d2n/dt2 + 2 lambda dn/dt + 2 (dlambda/dt) n = 2 dD/dt ,

which integrates exactly once to the pair

    dn/dt = y - 2 lambda n + 2 D,        dy/dt = 0 ,

with y(0) = dn/dt(0).  Two bilinearly coupled oscillators exchange the
occupation difference, adding -beta (n_i - n_j) to the second-order form,
i.e. dy_i/dt = -beta (n_i - n_j).  Working with (n, y) avoids the time
derivatives of lambda and D altogether -- important because dD/dt has a
logarithmically divergent second derivative at t = 0+ that a naive
second-order stepper would sample.

The stepper is classic fixed-step RK4 on half the coefficient-grid spacing,
with lambda and D interpolated to the quarter points by cubic splines; the
result is reported on the coefficient grid itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from .errors import (
    DomainError,
    InsufficientDataError,
    MomentBlowupError,
    UndefinedMetricError,
)
from .model import SystemSpec, equilibrium_occupation
from .transport.coefficients import CoefficientSeries

#: occupations above this abort the run as a numerical blow-up
BLOWUP = 1e12

#: long-run sanity envelope: n should stay within this factor of the hottest
#: bath's equilibrium occupation; exceeding it is flagged (not fatal), and is
#: in fact the signature of the persistently oscillating regimes
ENVELOPE_FACTOR = 10.0


@dataclass
class Trajectory:
    """Occupation trajectory of one or two oscillators.

    Attributes
    ----------
    t : ndarray
    occupations : tuple of ndarray
        (n1,) or (n1, n2).
    rates : tuple of ndarray
        Time derivatives dn/dt on the same grid.
    dissipation : tuple of ndarray
        Cumulative dissipated energy per oscillator,
        E(t) = int_0^t 2 Omega lambda(s) n(s) ds.
    metadata : dict
        Diagnostics: envelope flags, coupling, initial data.
    """

    t: np.ndarray
    occupations: tuple
    rates: tuple
    dissipation: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def n1(self):
        return self.occupations[0]

    @property
    def n2(self):
        if len(self.occupations) < 2:
            raise DomainError("trajectory has a single oscillator")
        return self.occupations[1]


def _uniform_step(t: np.ndarray) -> float:
    dt = np.diff(t)
    if t.size < 2 or not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise DomainError("evolution requires a uniform time grid")
    return float(dt[0])


def _quarter_grid(series: CoefficientSeries):
    """lambda and D on the quarter-spacing grid used by the RK4 substeps."""
    t = series.t
    k = t.size - 1
    tq = t[0] + (t[-1] - t[0]) * np.arange(4 * k + 1) / (4 * k)
    lam = CubicSpline(t, series.friction)(tq)
    dif = CubicSpline(t, series.diffusion)(tq)
    return lam, dif


def _envelope(spec: SystemSpec) -> float:
    return ENVELOPE_FACTOR * max(
        float(equilibrium_occupation(spec.omega, b.temperature, b.statistics))
        for b in spec.baths
    )


def _evolve(series, specs, betas, n0) -> list:
    """RK4 runs of one or two oscillators, one run per coupling in ``betas``.

    ``series``, ``specs`` and ``n0`` hold one entry per oscillator; every
    run starts from ``n0`` with dn/dt(0) = 0.  The stepper state stacks
    (n, y) into shape (2, oscillators, runs), and the quarter-grid
    coefficients are indexed on their leading axis, so each substep reads
    one contiguous row.  With a single oscillator the coupling term
    -beta (n - n[::-1]) is exactly zero.  Returns one Trajectory per run.
    """
    if any(b < 0 for b in betas):
        raise DomainError("coupling strength must be nonnegative")
    if any(v < 0 for v in n0):
        raise DomainError("initial occupations must be nonnegative")
    t = series[0].t
    for other in series[1:]:
        if other.t.shape != t.shape or not np.allclose(
            other.t, t, rtol=1e-12, atol=0.0
        ):
            raise DomainError("coupled evolution requires a shared time grid")
    h2 = _uniform_step(t) / 2.0
    half, sixth = 0.5 * h2, h2 / 6.0
    quarter = [_quarter_grid(s) for s in series]
    lam2 = 2.0 * np.stack([q[0] for q in quarter], axis=1)[:, :, None]
    dif2 = 2.0 * np.stack([q[1] for q in quarter], axis=1)[:, :, None]
    neg_beta = -np.asarray(betas, dtype=float)

    def deriv(q, s):
        n = s[0]
        d = np.empty_like(s)
        np.subtract(s[1], lam2[q] * n, out=d[0])
        d[0] += dif2[q]
        np.subtract(n, n[::-1], out=d[1])
        d[1] *= neg_beta
        return d

    s = np.zeros((2, len(series), neg_beta.size))
    s[0] = np.asarray(n0, dtype=float)[:, None]
    k_out = t.size - 1
    out = np.empty((k_out + 1,) + s.shape)
    out[0] = s
    for m in range(2 * k_out):
        q = 2 * m
        k1 = deriv(q, s)
        k2 = deriv(q + 1, s + half * k1)
        k3 = deriv(q + 1, s + half * k2)
        k4 = deriv(q + 2, s + h2 * k3)
        s = s + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.abs(s[0]).max() <= BLOWUP:
            raise MomentBlowupError(
                "occupation exceeded the blow-up guard", time=float(t[(m + 1) // 2])
            )
        if m % 2 == 1:
            out[(m + 1) // 2] = s
    out = np.ascontiguousarray(out.transpose(3, 1, 2, 0))  # (run, n|y, osc, t)

    envelopes = tuple(_envelope(spec) for spec in specs)
    trajectories = []
    for beta, (occ_out, y_out) in zip(betas, out):
        occ, rates, diss = [], [], []
        for n, y, ser, spec in zip(occ_out, y_out, series, specs):
            occ.append(n)
            rates.append(y - 2.0 * ser.friction * n + 2.0 * ser.diffusion)
            diss.append(cumulative_trapezoid(
                2.0 * spec.omega_renormalized * ser.friction * n, ser.t,
                initial=0.0))
        exceeded = [bool(np.any(n > env)) for n, env in zip(occ, envelopes)]
        if any(exceeded):
            detail = (f" (max n = {occ[0].max():.3g} > {envelopes[0]:.3g})"
                      if len(occ) == 1 else "")
            warnings.warn(
                f"occupation left the equilibrium envelope{detail}; expected "
                "for persistently oscillating regimes, suspicious otherwise",
                stacklevel=3,
            )
        trajectories.append(Trajectory(
            t=t, occupations=tuple(occ), rates=tuple(rates),
            dissipation=tuple(diss),
            metadata={"beta": beta, "n0": tuple(n0), "envelope": envelopes,
                      "envelope_exceeded": exceeded},
        ))
    return trajectories


def evolve(series: CoefficientSeries, spec: SystemSpec, n0: float) -> Trajectory:
    """Integrate a single oscillator's occupation over the series grid."""
    (traj,) = _evolve((series,), (spec,), (0.0,), (n0,))
    traj.metadata = {"n0": n0, "envelope": traj.metadata["envelope"][0],
                     "envelope_exceeded": traj.metadata["envelope_exceeded"][0]}
    return traj


def evolve_coupled(series1: CoefficientSeries, series2: CoefficientSeries,
                   spec1: SystemSpec, spec2: SystemSpec, beta: float,
                   n0: tuple) -> Trajectory:
    """Integrate two bilinearly coupled oscillators (strength ``beta``)."""
    (traj,) = _evolve((series1, series2), (spec1, spec2), (beta,), n0)
    return traj


@dataclass
class DeltaDissipation:
    """Coupling-induced change of the dissipated energy.

    ``delta_energy[i]`` is E_i(beta) - E_i(0) on the shared grid;
    ``delta_rate[i]`` its time derivative, smoothed by a moving average
    over 2 pi/Omega_i (the window in time units is recorded in ``window``).
    That window spans several occupation periods pi/nu, not one: on the
    fig5 pair it covers about 3.1 and 3.6 of them (pi/nu = 1.995 and
    1.767).  Each delta_energy carries both oscillators' frequencies, so
    no single pi/nu removes its ripple.
    """

    t: np.ndarray
    delta_energy: tuple
    delta_rate: tuple
    window: tuple
    coupled: Trajectory
    uncoupled: Trajectory


def delta_dissipation(series1, series2, spec1, spec2, beta, n0) -> DeltaDissipation:
    """Dissipation excess of the coupled run over the uncoupled one.

    Both runs are stepped together in one pass.
    """
    coupled, uncoupled = _evolve((series1, series2), (spec1, spec2),
                                 (beta, 0.0), n0)
    t = coupled.t
    h = _uniform_step(t)
    d_energy, d_rate, windows = [], [], []
    for i, spec in enumerate((spec1, spec2)):
        dE = coupled.dissipation[i] - uncoupled.dissipation[i]
        d_energy.append(dE)
        rate = np.gradient(dE, t)
        w = max(3, int(round(2.0 * np.pi / spec.omega_renormalized / h)) | 1)
        kernel = np.ones(w) / w
        d_rate.append(np.convolve(rate, kernel, mode="same"))
        windows.append(w * h)
    return DeltaDissipation(t=t, delta_energy=tuple(d_energy),
                            delta_rate=tuple(d_rate), window=tuple(windows),
                            coupled=coupled, uncoupled=uncoupled)


@dataclass
class PeriodEstimate:
    """Oscillation period from zero crossings, cross-checked by FFT."""

    period: float
    spread: float
    n_crossings: int
    fft_period: float
    low_confidence: bool


def estimate_period(t, x, window=None) -> PeriodEstimate:
    """Period of an oscillating series from upward mean crossings.

    The series (restricted to ``window`` = (t_lo, t_hi) if given) is
    detrended by its mean; consecutive upward crossings are located by
    linear interpolation and their spacings averaged.  A zero-padded FFT
    peak (parabolically interpolated) serves as the cross-check;
    disagreement beyond 5% flags low confidence.  Fewer than three
    crossings raise InsufficientDataError.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if t.shape != x.shape or t.ndim != 1:
        raise DomainError("period estimation needs matching 1-D arrays")
    if window is not None:
        lo, hi = window
        keep = (t >= lo) & (t <= hi)
        t, x = t[keep], x[keep]
        if t.size < 4:
            raise InsufficientDataError("window keeps fewer than 4 samples")
    xd = x - x.mean()
    up = np.flatnonzero((xd[:-1] < 0) & (xd[1:] >= 0))
    if up.size < 3:
        raise InsufficientDataError(
            f"found {up.size} upward crossings; need at least 3 "
            "(window too short or no oscillation)"
        )
    frac = -xd[up] / (xd[up + 1] - xd[up])
    t_cross = t[up] + frac * (t[up + 1] - t[up])
    gaps = np.diff(t_cross)
    period = float(gaps.mean())
    spread = float(gaps.std())

    h = _uniform_step(t)
    n_pad = 16 * len(xd)
    mag = np.abs(np.fft.rfft(xd, n=n_pad))
    freqs = np.fft.rfftfreq(n_pad, d=h)
    k = int(np.argmax(mag[1:])) + 1
    if 1 <= k < len(mag) - 1:
        a, b, c = mag[k - 1], mag[k], mag[k + 1]
        denom = a - 2.0 * b + c
        shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
    else:
        shift = 0.0
    f_peak = freqs[k] + shift * (freqs[1] - freqs[0])
    fft_period = float(1.0 / f_peak) if f_peak > 0 else np.inf
    low = bool(abs(fft_period - period) > 0.05 * period)
    return PeriodEstimate(period=period, spread=spread,
                          n_crossings=int(up.size), fft_period=fft_period,
                          low_confidence=low)


def detect_stationarity(x, *, tol: float = 0.01):
    """(is_stationary, variation) with variation = (max-min)/|mean|."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise InsufficientDataError("stationarity check needs at least 2 samples")
    denom = max(abs(float(x.mean())), 1e-300)
    variation = float((x.max() - x.min()) / denom)
    return variation < tol, variation


def antiphase_metric(x1, x2) -> float:
    """Pearson correlation of two detrended channels (-1 = antiphase)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise DomainError("antiphase metric needs matching 1-D arrays")
    a = x1 - x1.mean()
    b = x2 - x2.mean()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise UndefinedMetricError(
            "a channel has zero variance; correlation undefined"
        )
    return float(np.dot(a, b) / (na * nb))
