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

Every run starts at rest, dn/dt(0) = 0, so y(0) = 0 (a start in motion
would need y back in the state).  A single oscillator's y then stays 0,
and its state is (n, 1).  For a pair, y_1 + y_2 has zero derivative and
stays 0 as well, so the state is (n+, n-, y-, 1) with n+- = n_1 +- n_2
and y- = y_1 - y_2.  With Lambda = lambda_1 + lambda_2 and
delta = lambda_1 - lambda_2 it obeys

    dn+/dt = -Lambda n+ - delta n- + 2 (D_1 + D_2),
    dn-/dt = y- - delta n+ - Lambda n- + 2 (D_1 - D_2),
    dy-/dt = -2 beta n-,

and n_1, n_2 = (n+ +- n-)/2, y_1 = y-/2, y_2 = -y-/2.  Swapping the
oscillators negates n-, y-, delta and D_1 - D_2 and leaves the rest
unchanged, since lambda_1 + lambda_2 and D_1 + D_2 commute.  IEEE negation
is exact, so every product and sum the stepper forms for the swapped pair
is the original one up to sign, summed in the same order: swapped runs
agree bit for bit by construction.

The stepper is classic fixed-step RK4 on half the coefficient-grid spacing,
with lambda and D interpolated to the quarter points by local cubics, each
through the four grid points nearest its interval.  Each series keeps that
table (``CoefficientSeries.quarter_points``), made the first time a build
steps it, so repeated builds on the same series interpolate nothing.  The
result is reported on the coefficient grid itself.  The state s obeys
s' = A(t) s with A fixed by lambda, D and beta, so every RK4 half-step of
length h is the d x d matrix (d = 2 for one oscillator, 4 for a pair)

    M = I + h/6 (K1 + 2 K2 + 2 K3 + K4),     K1 = A(t),
    K2 = A(t + h/2) (I + h/2 K1),  K3 = A(t + h/2) (I + h/2 K2),
    K4 = A(t + h) (I + h K3),

fixed by the coefficients and beta and not by the initial occupation.
Stepping is therefore two parts.  The builder (``_build_maps``) forms
these matrices once for a batch of runs, each with its own series and
beta, and composes them by a two-level prefix scan, about 2.4 stacked
``np.matmul`` products per half-step, with no Python loop over steps.
The application (``_trajectories``) carries any number of start states
through those maps, checks the blow-up guard and assembles the
trajectories, so runs that share series and beta share one build.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

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

#: a series whose relative variation (max - min)/|mean| stays below this
#: counts as stationary
STATIONARITY_TOL = 0.01

#: RK4 half-steps whose maps are built and scanned together; the state is
#: carried from block to block
BLOCK = 512

#: half-steps composed one after another inside each chunk of a block, all
#: chunks at once, before the chunk totals are scanned
CHUNK = 8


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
        Diagnostics: the coupling ``beta``, and per oscillator the start
        ``n0``, the ``envelope`` and whether it was ``envelope_exceeded``.
    """

    t: np.ndarray
    occupations: tuple
    rates: tuple
    dissipation: tuple
    metadata: dict = field(default_factory=dict)


def _close(a, b, rtol: float) -> bool:
    """``np.allclose(a, b, rtol=rtol, atol=0.0)`` on finite arrays, without
    its overhead."""
    return bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))


def _uniform_step(t: np.ndarray) -> float:
    if t.size < 2:
        raise DomainError(
            f"evolution needs at least two times; got {t.size}")
    dt = np.diff(t)
    if not _close(dt, dt[0], 1e-9):
        raise DomainError("evolution requires a uniform time grid")
    return float(dt[0])


@functools.lru_cache(maxsize=64)  # specs are frozen; runs and calls share them
def _envelope(spec: SystemSpec) -> float:
    return ENVELOPE_FACTOR * max(
        float(equilibrium_occupation(spec.omega, b.temperature, b.statistics))
        for b in spec.baths
    )


@functools.cache
def _basis(n_osc) -> np.ndarray:
    """The frame's generator A, flattened, as ``coef @ _basis(n_osc)`` plus
    the constants 1 and -2 beta of a pair.

    ``coef`` holds (2 lambda, 2 D) of one oscillator, or (2 lambda_1,
    2 lambda_2, 2 D_1, 2 D_2) of a pair.  Every entry is 0, +-1 or +-1/2,
    so every product is exact and each entry of A is one rounding of a sum
    of at most two nonzero terms, whatever the order of summation.
    """
    if n_osc == 1:
        basis = np.array([[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
    else:
        basis = np.zeros((4, 4, 4))
        basis[:2, [0, 1], [0, 1]] = -0.5  # -Lambda on n+ and n-
        basis[:2, [0, 1], [1, 0]] = [[-0.5], [0.5]]  # -delta between them
        basis[2:, [0, 1], 3] = [[1.0, 1.0], [1.0, -1.0]]  # 2 (D_1 +- D_2)
    basis = basis.reshape(2 * n_osc, -1)
    basis.flags.writeable = False
    return basis


def _occupations(s) -> np.ndarray:
    """n per oscillator, shape (oscillators, ...), of frame states (d, ...)."""
    if len(s) == 2:
        return s[:1]
    return 0.5 * np.stack((s[0] + s[1], s[0] - s[1]))


def _checked(name, values, count) -> np.ndarray:
    """``values`` as floats: exactly ``count`` of them, finite and nonnegative."""
    v = np.asarray(values, dtype=float)
    if v.shape != (count,):
        raise DomainError(f"{name} needs exactly {count} value(s); "
                          f"got {values!r}")
    if not np.isfinite(v).all():
        raise DomainError(f"{name} must be finite; got {values!r}")
    if (v < 0).any():
        raise DomainError(f"{name} must be nonnegative; got {values!r}")
    return v


@dataclass
class _MapSet:
    """The RK4 prefix maps of a batch of runs (see ``_build_maps``)."""

    t: np.ndarray
    series: tuple  # per run, one CoefficientSeries per oscillator
    specs: tuple  # per run, one SystemSpec per oscillator
    betas: tuple  # per run
    #: per block, the prefix maps (runs, half-steps, d, d) on the frame
    #: state, (n, 1) for one oscillator and (n+, n-, y-, 1) for a pair:
    #: 8 d^2 bytes per half-step and run, 32 and 128
    blocks: list


def _build_maps(series, specs, betas) -> _MapSet:
    """Every RK4 half-step map of a batch of runs of one or two oscillators.

    ``series`` and ``specs`` hold one tuple per run, with one entry per
    oscillator, and ``betas`` one coupling per run.  Each run steps the
    frame state of the module docstring, of length d = 2 for one
    oscillator and 4 for a pair: y, and for a pair y_1 + y_2, stay 0 from
    a start at rest and drop out.  The equation is linear in the state, so
    each RK4 half-step m is a d x d matrix M_m whose last row is (0, ...,
    0, 1), fixed by the quarter-grid coefficients and beta alone, never by
    the start state: one build serves any number of start states.  The
    generators A at each half-step's three quarter points and the stage
    products K2, K3, K4 are formed for all half-steps of a block and all
    runs together, three stacked ``np.matmul`` calls.  A two-level scan
    then forms the prefix maps M_m ... M_0 of each block: the half-steps of
    each chunk of ``CHUNK`` are composed one after another, all chunks at
    once; a Hillis-Steele scan runs over the chunk totals; and one batched
    product puts each chunk's prefix in front of its members.  A block of
    512 takes 1,210 matrix products, 2.4 per half-step, against 4,097 for
    a Hillis-Steele scan over the whole block.  Every product is one
    ``np.matmul`` over a stack of contiguous d x d matrices.  The grid's
    last block is filled up to whole chunks with maps made at the grid's
    last point, and they are dropped after the scan.

    Swapping a pair's oscillators conjugates every A by diag(1, -1, -1, 1),
    which flips signs only, so swapped runs get the same maps up to sign
    bit for bit (see the module docstring).  A run that blows up overflows
    its maps to inf and nan silently; ``_trajectories`` reports it.
    """
    betas = tuple(betas)
    neg_beta = -_checked("beta", betas, len(series))
    flat = [s for run in series for s in run]
    t = flat[0].t
    for other in flat[1:]:
        if other.t is not t and (other.t.shape != t.shape
                                 or not _close(other.t, t, 1e-12)):
            raise DomainError("runs stepped together require a shared time grid")
    h2 = _uniform_step(t) / 2.0
    half, sixth = 0.5 * h2, h2 / 6.0
    n_runs, n_osc = len(series), len(series[0])
    d = 2 * n_osc
    eye = np.eye(d)
    basis = _basis(n_osc)
    base = np.zeros((n_runs, 1, 1, d, d))  # the constant part of each run's A
    if n_osc == 2:
        base[..., 1, 2] = 1.0
        base[..., 2, 1] = 2.0 * neg_beta[:, None, None]
    n_half = 2 * (t.size - 1)
    # 2 lambda and 2 D at t_k + j h2 / 2 in column 5k + j, on the axes
    # (run, column, lambda|D x oscillator); then at the three quarter
    # points 5m // 2 + (0, 1, 2) of each half-step m, with clipped columns
    # past the grid's end so that every block fills whole chunks
    coef = np.stack([s.quarter_points for s in flat]).reshape(
        n_runs, n_osc, 2, -1).transpose(0, 3, 2, 1).reshape(n_runs, -1, d)
    m = np.arange(n_half + CHUNK - 1)
    coef = np.take(coef, 5 * m // 2 + np.arange(3)[:, None], axis=1,
                   mode="clip")

    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for m0 in range(0, n_half, BLOCK):
            size = min(BLOCK, n_half - m0)
            n_chunk = -(-size // CHUNK)
            # A at the half-steps' three quarter points, on the axes (run,
            # quarter point, half-step, d, d).  The block's last chunk is
            # filled up with the half-steps after it, past the grid's end
            # with the clipped columns, and their maps are dropped
            a = (coef[:, :, m0:m0 + CHUNK * n_chunk] @ basis).reshape(
                n_runs, 3, -1, d, d) + base
            k1 = a[:, 0]
            k2 = a[:, 1] @ (eye + half * k1)
            k3 = a[:, 1] @ (eye + half * k2)
            k4 = a[:, 2] @ (eye + h2 * k3)
            maps = eye + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            chunks = maps.reshape(n_runs, n_chunk, CHUNK, d, d)
            for j in range(1, CHUNK):  # in sequence inside every chunk
                chunks[:, :, j] = chunks[:, :, j] @ chunks[:, :, j - 1]
            totals = chunks[:, :, -1]
            step = 1
            while step < n_chunk:  # Hillis-Steele over the chunk totals
                totals[:, step:] = totals[:, step:] @ totals[:, :-step]
                step *= 2
            chunks[:, 1:, :-1] = chunks[:, 1:, :-1] @ totals[:, :-1, None]
            blocks.append(maps[:, :size])
    return _MapSet(t=t, series=tuple(series), specs=tuple(specs), betas=betas,
                   blocks=blocks)


def _trajectories(maps: _MapSet, runs, n0) -> list:
    """One Trajectory per start: run ``runs[i]`` of ``maps`` from ``n0[i]``.

    ``n0[i]`` holds one occupation per oscillator, and dn/dt(0) = 0.  The
    start states are carried through the blocks together: each half-step's
    state is its block's start state under its prefix map, one
    matrix-vector product per start and block, and every occupation is
    checked against the blow-up guard.  The rates, powers and trapezoid
    dissipations of all starts and oscillators are then formed in one pass.
    """
    t = maps.t
    n_osc = len(maps.series[0])
    n = np.transpose([_checked("n0", v, n_osc) for v in n0])
    s = np.zeros((len(n0), 2 * n_osc))  # (start, frame state)
    s[:, -1] = 1.0
    s[:, :n_osc] = np.transpose(n if n_osc == 1
                                else (n[0] + n[1], n[0] - n[1]))
    grid = np.empty(s.shape[::-1] + (t.size,))  # (frame state, start, t)
    grid[..., 0] = s.T
    with np.errstate(over="ignore", invalid="ignore"):
        for m0, block in zip(range(0, 2 * (t.size - 1), BLOCK), maps.blocks):
            rows = block.reshape(block.shape[0], -1, s.shape[1])
            states = np.array([rows[r] @ v for r, v in zip(runs, s)])
            frame = states.reshape(len(s), -1, s.shape[1]).transpose(2, 0, 1)
            bad = ~np.all(np.abs(_occupations(frame)) <= BLOWUP, axis=(0, 1))
            if bad.any():
                first = m0 + int(np.argmax(bad))
                raise MomentBlowupError(
                    "occupation exceeded the blow-up guard",
                    time=float(t[(first + 1) // 2]))
            grid[..., m0 // 2 + 1:(m0 + bad.size) // 2 + 1] = frame[..., 1::2]
            s = frame[..., -1].T

    # (oscillator, start, t) from here on
    occ = _occupations(grid)
    y = np.multiply.outer([0.5, -0.5], grid[2]) if n_osc == 2 else 0.0
    series = [[maps.series[r][i] for r in runs] for i in range(n_osc)]
    lam = np.array([[ser.friction for ser in row] for row in series])
    dif = np.array([[ser.diffusion for ser in row] for row in series])
    dt = np.diff([[ser.t for ser in row] for row in series])
    omega = np.array([[maps.specs[r][i].omega_renormalized for r in runs]
                      for i in range(n_osc)])[..., None]
    rates = y - 2.0 * lam * occ + 2.0 * dif
    power = 2.0 * omega * lam * occ
    diss = np.zeros_like(power)
    np.cumsum(dt * (power[..., 1:] + power[..., :-1]) / 2.0, axis=-1,
              out=diss[..., 1:])

    trajectories = []
    for i, (r, start) in enumerate(zip(runs, n0)):
        envelopes = tuple(_envelope(spec) for spec in maps.specs[r])
        exceeded = [bool(np.any(x > env))
                    for x, env in zip(occ[:, i], envelopes)]
        if any(exceeded):
            detail = (f" (max n = {occ[0, i].max():.3g} > {envelopes[0]:.3g})"
                      if n_osc == 1 else "")
            warnings.warn(
                f"occupation left the equilibrium envelope{detail}; expected "
                "for persistently oscillating regimes, suspicious otherwise",
                stacklevel=4,  # past _evolve, at the public call's caller
            )
        trajectories.append(Trajectory(
            t=t, occupations=tuple(occ[:, i]), rates=tuple(rates[:, i]),
            dissipation=tuple(diss[:, i]),
            metadata={"beta": maps.betas[r], "n0": tuple(start),
                      "envelope": envelopes, "envelope_exceeded": exceeded},
        ))
    return trajectories


def _evolve(series, specs, betas, n0) -> list:
    """Runs of one tuple of series and specs (one entry per oscillator), one
    run per coupling in ``betas``, all from ``n0``: one build and one
    application."""
    k = len(betas)
    return _trajectories(_build_maps((series,) * k, (specs,) * k, betas),
                         range(k), (n0,) * k)


def evolve(series: CoefficientSeries, spec: SystemSpec, n0: float) -> Trajectory:
    """Integrate a single oscillator's occupation over the series grid."""
    (traj,) = _evolve((series,), (spec,), (0.0,), (n0,))
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
    over 2 pi/Omega_i, or over the whole grid if that is shorter (the
    window used, in time units, is recorded in ``window``).
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
    return _dissipation_excess(coupled, uncoupled, (spec1, spec2))


def _dissipation_excess(coupled, uncoupled, specs) -> DeltaDissipation:
    """``delta_dissipation`` of two runs already stepped on the same grid."""
    t = coupled.t
    h = _uniform_step(t)
    d_energy, d_rate, windows = [], [], []
    for i, spec in enumerate(specs):
        dE = coupled.dissipation[i] - uncoupled.dissipation[i]
        d_energy.append(dE)
        rate = np.gradient(dE, t)
        w = max(3, int(round(2.0 * np.pi / spec.omega_renormalized / h)) | 1)
        # "same" keeps the grid's length only for a window that fits on it
        w = min(w, (t.size - 1) | 1)
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


def detect_stationarity(x):
    """(is_stationary, variation) with variation = (max-min)/|mean|,
    stationary below ``STATIONARITY_TOL``."""
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise InsufficientDataError("stationarity check needs at least 2 samples")
    denom = max(abs(float(x.mean())), 1e-300)
    variation = float((x.max() - x.min()) / denom)
    return variation < STATIONARITY_TOL, variation


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
