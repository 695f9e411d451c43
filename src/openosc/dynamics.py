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
with lambda and D interpolated to the quarter points by local cubics, each
through the four grid points nearest its interval.  Each series keeps that
table (``CoefficientSeries.quarter_points``), made the first time a build
steps it, so repeated builds on the same series interpolate nothing.  The
result is reported on the coefficient grid itself.  The pair is linear in
(n, y), and lambda, D and beta are known in advance, so every RK4 half-step
is an affine map of the state, fixed by the coefficients and beta and not
by the initial occupation.  Stepping is therefore two parts.  The builder
(``_build_maps``) runs the stage arithmetic once for a batch of runs, each
with its own series and beta, and composes the maps by a two-level prefix
scan, about 2.4 compositions per half-step, with no Python loop over
steps.  The application (``_trajectories``) carries any number of start
states through those maps, checks the blow-up guard and assembles the
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

#: the columns own n, partner n, own y, partner y, 1 seen from the partner
_SWAP = [1, 0, 3, 2, 4]


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


def _compose(outer, inner):
    """The maps ``outer`` after ``inner``, both (n|y, osc, 5, runs, steps).

    Each oscillator reads ``inner``'s rows in its own frame: own n, partner
    n, own y, partner y, the partner's rows with own and partner columns
    swapped.  The four products are summed in that order, in place, and
    the constant column adds ``outer``'s own constant last.
    """
    n, y = inner
    out = outer[:, :, 0:1] * n
    out += outer[:, :, 1:2] * np.take(n[::-1], _SWAP, axis=1)
    out += outer[:, :, 2:3] * y
    out += outer[:, :, 3:4] * np.take(y[::-1], _SWAP, axis=1)
    out[:, :, 4] += outer[:, :, 4]
    return out


def _apply(maps, s):
    """States (n|y, osc, runs, steps) that ``maps`` make of ``s`` (n|y, osc, runs)."""
    s = s[..., None]
    return (maps[:, :, 0] * s[0] + maps[:, :, 1] * s[0, ::-1]
            + maps[:, :, 2] * s[1] + maps[:, :, 3] * s[1, ::-1] + maps[:, :, 4])


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
    blocks: list  # per block, maps (n|y, osc, 5, runs, half-steps)


def _build_maps(series, specs, betas) -> _MapSet:
    """Every RK4 half-step map of a batch of runs of one or two oscillators.

    ``series`` and ``specs`` hold one tuple per run, with one entry per
    oscillator, and ``betas`` one coupling per run.  The state (n, y) of a
    run has shape (2, oscillators).  The equation is linear in it, so each
    RK4 half-step m is an affine map s -> R_m s + r_m fixed by the
    quarter-grid coefficients and beta alone, never by the start state:
    one build serves any number of start states.  The RK4 stage
    arithmetic runs once, on all half-steps of a block and all runs
    together, over the unit states e_n and e_y (D off) and the zero state
    (D on); their images are the columns of the maps.  A two-level scan
    then forms the prefix maps R_m ... R_0 of each block: the half-steps of
    each chunk of ``CHUNK`` are composed one after another, all chunks at
    once; a Hillis-Steele scan runs over the chunk totals; and one batched
    composition puts each chunk's prefix in front of its members.  A block
    of 512 takes 1,210 compositions, 2.4 per half-step, against 4,097 for
    a Hillis-Steele scan over the whole block.  The last block is padded
    to whole chunks with copies of its last map, and the padding is
    dropped after the scan.

    Each oscillator stores its maps on (own n, partner n, own y, partner
    y, 1), and every application and composition sums those five terms in
    that order.  Swapping the two oscillators therefore permutes the
    results bit for bit, which a dense 4x4 product, whose summation order
    depends on which oscillator comes first, would not.  A single
    oscillator has zero partner coefficients.  A run that blows up
    overflows its maps to inf and nan silently; ``_trajectories`` reports
    it.
    """
    betas = tuple(betas)
    neg_beta = -_checked("beta", betas, len(series))[:, None]
    flat = [s for run in series for s in run]
    t = flat[0].t
    for other in flat[1:]:
        if other.t is not t and (other.t.shape != t.shape
                                 or not _close(other.t, t, 1e-12)):
            raise DomainError("runs stepped together require a shared time grid")
    h2 = _uniform_step(t) / 2.0
    half, sixth = 0.5 * h2, h2 / 6.0
    n_osc = len(series[0])
    # row 5k + j: 2 lambda and 2 D at t_k + j h2 / 2 on interval k's cubic,
    # on the axes (oscillator, map column, run, row)
    lam2, dif2 = np.stack([s.quarter_points for s in flat], axis=1).reshape(
        2, len(series), n_osc, 1, -1).transpose(0, 2, 3, 1, 4)
    # columns: e_n and e_y of each oscillator, zero in place of a missing
    # partner, and the zero state that D drives
    unit = np.eye(4, 5).reshape(2, 2, 5, 1, 1)[:, :n_osc]
    drive = np.eye(1, 5, 4).reshape(5, 1, 1)
    # the columns in each oscillator's own frame
    frame = np.array([range(5), _SWAP])[:n_osc]

    def deriv(j, s):
        d = np.empty_like(s)
        np.subtract(s[1], lam[..., j, :] * s[0], out=d[0])
        d[0] += dif[..., j, :] * drive
        np.subtract(s[0], s[0, ::-1], out=d[1])
        d[1] *= neg_beta
        return d

    blocks = []
    n_half = 2 * (t.size - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for m0 in range(0, n_half, BLOCK):
            size = min(BLOCK, n_half - m0)
            n_chunk = -(-size // CHUNK)
            # half-step j of chunk c at [j, c], so that each chunk position
            # is contiguous; past the block's end, copies of its last map
            m = np.minimum(m0 + CHUNK * np.arange(n_chunk)
                           + np.arange(CHUNK)[:, None], n_half - 1).ravel()
            q = 5 * (m // 2) + 2 * (m % 2)
            # 2 lambda and 2 D at the half-step's three quarter points
            lam, dif = (c[..., q + np.arange(3)[:, None]]
                        for c in (lam2, dif2))
            # the stage arithmetic of one RK4 half-step, on the map columns
            u = np.broadcast_to(unit, unit.shape[:3] + (neg_beta.size, m.size))
            k1 = deriv(0, u)
            k2 = deriv(1, u + half * k1)
            k3 = deriv(1, u + half * k2)
            k4 = deriv(2, u + h2 * k3)
            images = u + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            maps = images[:, np.arange(n_osc)[:, None], frame]
            chunks = maps.reshape(maps.shape[:-1] + (CHUNK, n_chunk))
            for j in range(1, CHUNK):  # in sequence inside every chunk
                chunks[..., j, :] = _compose(chunks[..., j, :],
                                             chunks[..., j - 1, :])
            totals = chunks[..., -1, :]
            step = 1
            while step < n_chunk:  # Hillis-Steele over the chunk totals
                totals[..., step:] = _compose(totals[..., step:],
                                              totals[..., :-step])
                step *= 2
            chunks[..., :-1, 1:] = _compose(chunks[..., :-1, 1:],
                                            totals[..., None, :-1])
            maps = chunks.swapaxes(-1, -2).reshape(maps.shape)
            blocks.append(maps[..., :size])
    return _MapSet(t=t, series=tuple(series), specs=tuple(specs), betas=betas,
                   blocks=blocks)


def _trajectories(maps: _MapSet, runs, n0) -> list:
    """One Trajectory per start: run ``runs[i]`` of ``maps`` from ``n0[i]``.

    ``n0[i]`` holds one occupation per oscillator, and dn/dt(0) = 0.  The
    start states, shape (n|y, oscillators, starts), are carried through
    the blocks together: each half-step's state is its block's start
    state under its prefix map, and every state is checked against the
    blow-up guard.
    """
    t = maps.t
    n_osc = len(maps.series[0])
    s = np.zeros((2, n_osc, len(runs)))
    s[0] = np.transpose([_checked("n0", v, n_osc) for v in n0])
    out = np.empty(s.shape + (t.size,))
    out[..., 0] = s
    with np.errstate(over="ignore", invalid="ignore"):
        for m0, block in zip(range(0, 2 * (t.size - 1), BLOCK), maps.blocks):
            states = _apply(np.take(block, runs, axis=3), s)
            bad = ~np.all(np.abs(states[0]) <= BLOWUP, axis=(0, 1))
            if bad.any():
                first = m0 + int(np.argmax(bad))
                raise MomentBlowupError(
                    "occupation exceeded the blow-up guard",
                    time=float(t[(first + 1) // 2]))
            out[..., m0 // 2 + 1:(m0 + bad.size) // 2 + 1] = states[..., 1::2]
            s = states[..., -1]
    out = np.ascontiguousarray(out.transpose(2, 0, 1, 3))  # (start, n|y, osc, t)

    trajectories = []
    for r, start, (occ_out, y_out) in zip(runs, n0, out):
        series, specs = maps.series[r], maps.specs[r]
        envelopes = tuple(_envelope(spec) for spec in specs)
        occ, rates, diss = [], [], []
        for n, y, ser, spec in zip(occ_out, y_out, series, specs):
            occ.append(n)
            rates.append(y - 2.0 * ser.friction * n + 2.0 * ser.diffusion)
            power = 2.0 * spec.omega_renormalized * ser.friction * n
            diss.append(np.concatenate(([0.0], np.cumsum(
                np.diff(ser.t) * (power[1:] + power[:-1]) / 2.0))))
        exceeded = [bool(np.any(n > env)) for n, env in zip(occ, envelopes)]
        if any(exceeded):
            detail = (f" (max n = {occ[0].max():.3g} > {envelopes[0]:.3g})"
                      if len(occ) == 1 else "")
            warnings.warn(
                f"occupation left the equilibrium envelope{detail}; expected "
                "for persistently oscillating regimes, suspicious otherwise",
                stacklevel=4,  # past _evolve, at the public call's caller
            )
        trajectories.append(Trajectory(
            t=t, occupations=tuple(occ), rates=tuple(rates),
            dissipation=tuple(diss),
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
