"""Independent cross-check: exact evolution of a discretized bath model.

The continuum baths are replaced by finite combs of modes sampled from the
spectral density (midpoint rule).  The resulting closed quadratic model is
diagonalized once; occupations then follow from the exact normal-mode
propagator, with no time stepping and no reference to the response-kernel
machinery being checked -- errors cannot be shared between the two routes.
The oscillator couples to every mode and the modes not to one another, so
the matrix is an arrowhead, a diagonal plus one border row and column.  Its
eigenpairs come from a scalar secular equation in O(n^2) (``_arrowhead_eigh``)
rather than a dense O(n^3) eigensolver; modes with zero coupling are
deflated and keep their own frequency.

Two conventions worth spelling out:

* The oracle is restricted to all-bosonic systems, for which the combs are
  the exact discretized model of the linearly coupled oscillator.  A
  fermionic bath has no such harmonic model: its comb would carry fermionic
  occupations on bosonic modes, and the mixed description already involves
  a mean-field step.
* A finite comb is periodic: after the recurrence time 2 pi / (mode
  spacing) the discretization error grows from 'small' to O(1).  The
  recurrence time is reported and exceeding it warns.

Both baths are sampled on the same midpoints w_i, so at each w_i the two
bath modes are degenerate and an orthogonal rotation of the pair leaves
exactly one mode coupled to the oscillator, with coupling
a_i = sqrt(a_1i^2 + a_2i^2) and initial occupation
(a_1i^2 n_1i + a_2i^2 n_2i) / a_i^2.  The orthogonal mode of the pair is an
invariant subspace that never reaches the oscillator, and the oscillator's
<x^2> and <p^2> are linear in the initial covariance, so the correlation the
rotation creates between the two modes drops out as well.  The oracle
therefore diagonalizes one merged comb of n_modes + 1 modes; this is an
identity of the discretized model, not an approximation.

The comb stops at the sampling cutoff W, and the bath above W carries part
of the static frequency renormalization omega = Omega + 2 sum_b alpha_b
gamma_b.  Its modes are fast, so what they leave out is one shift of the
arrowhead's corner (``_tail_corner``): the coupling sum the missing modes
would add is sum_b (alpha_b gamma_b / pi) arctan(gamma_b / W), the spectral
density's closed-form tail, and the corner omega^2 loses 4 omega times it.
The counterterm uses no kernel, root or quadrature of the route the oracle
checks, so the two stay independent.  Without it the comb is O(1/W) off the
continuum; with it the remainder is O(1/W^2): on validate's system the
deviation reads 9.6e-5 on W = 100 and 1.9e-5 on W = 200 (8.8e-3 and
4.5e-3 without it).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionCapError, DomainError, NumericalError,
                     StabilityError)
from .model import (
    ALL_BOSONIC,
    SystemSpec,
    _default_w_max,
    equilibrium_occupation,
    spectral_density,
)

#: bath modes sampled in one oracle run, summed over both baths (the merged
#: comb then solves the secular equation of half of them plus the oscillator)
MODE_CAP = 2000

#: times per block of the propagation: each block holds a few
#: (n_modes, _TIME_BLOCK) tables, the oracle's working set.  Unlike the
#: memory integrals' products, its (201 x 201)(201 x 128) products in
#: validate stay threaded: on a 2-core VM they took 0.09-0.10 ms at two
#: OpenBLAS threads, against 0.19 ms in stacks of 16 rows, which run on
#: the calling thread
_TIME_BLOCK = 128

#: How far, in ulp of the largest time, each time may sit from t_0 + k h
#: for ``_cos_sin`` to rebuild the grid from t_0 and h
_UNIFORM_ULPS = 4

_EPS = np.finfo(float).eps

#: Newton-bisection steps a secular-equation root may take
_SECULAR_MAX_ITER = 64


@dataclass
class OracleResult:
    """Occupation from the discretized-bath evolution."""

    t: np.ndarray
    n: np.ndarray
    n_modes: int
    w_max: float
    recurrence_time: float


@dataclass
class ComparisonReport:
    """Pointwise deviation between two occupation trajectories."""

    max_abs_dev: float
    mean_abs_dev: float
    worst_time: float
    overlap: tuple


def _midpoints(n_modes: int, w_max: float):
    """Midpoint frequencies w_i and spacing dw of the comb every bath shares."""
    if (isinstance(n_modes, (bool, np.bool_))
            or not isinstance(n_modes, (int, np.integer)) or n_modes < 1):
        raise DomainError(f"need a whole number of bath modes >= 1, "
                          f"got {n_modes}")
    if not (np.isfinite(w_max) and w_max > 0):
        raise DomainError(f"bath cutoff must be positive and finite, "
                          f"got {w_max}")
    dw = w_max / n_modes
    return (np.arange(n_modes) + 0.5) * dw, dw


def _comb(spec: SystemSpec, n_modes: int, w_max: float):
    """Both baths merged into one comb on their shared midpoints.

    Returns w_i, a_i = sqrt(sum_b a_bi^2) and the coupling-weighted initial
    occupation sum_b a_bi^2 n_bi / a_i^2 (see the module docstring).  Where
    every bath has a_bi = 0 the mode is decoupled and its occupation is set
    to 0.
    """
    w, dw = _midpoints(n_modes, w_max)
    a2 = np.zeros_like(w)
    a2_occ = np.zeros_like(w)
    for b in spec.baths:
        a2_b = w * dw * spectral_density(w, b)
        a2 += a2_b
        a2_occ += a2_b * equilibrium_occupation(w, b.temperature, b.statistics)
    occ = np.divide(a2_occ, a2, out=np.zeros_like(w), where=a2 > 0)
    return w, np.sqrt(a2), occ


def evolve_exact(spec: SystemSpec, t, n0: float, *, n_modes: int = 400,
                 w_max: float | None = None) -> OracleResult:
    """Oscillator occupation from the exact discretized-model propagator.

    Parameters
    ----------
    spec : SystemSpec
        Must carry two bosonic baths (see the module docstring).
    t : array_like
        Times at which to report the occupation.
    n0 : float
        Initial oscillator occupation (baths start at their equilibria).
    n_modes : int
        Modes per bath; both baths together must stay within MODE_CAP.
    w_max : float, optional
        Sampling cutoff (default: the quadrature cutoff rule).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.size == 0:
        raise DomainError("oracle times must not be empty")
    bad = t[~(t >= 0) | np.isinf(t)]
    if bad.size:
        raise DomainError(f"oracle times must be finite and nonnegative, "
                          f"got {float(bad[0])}")
    if not (np.isfinite(n0) and n0 >= 0):
        raise DomainError(f"initial occupation must be finite and "
                          f"nonnegative, got {n0}")
    if spec.statistics_mode != ALL_BOSONIC:
        raise DomainError(f"the oracle covers all-bosonic systems only, "
                          f"got {spec.statistics_mode}")
    if 2 * n_modes > MODE_CAP:
        raise DimensionCapError(
            f"2 x {n_modes} bath modes exceed the cap of {MODE_CAP}; "
            "reduce n_modes or split the comparison window"
        )
    if w_max is None:
        w_max = _default_w_max(spec)

    w = spec.omega
    w_bath, a_bath, occ_bath = _comb(spec, n_modes, w_max)
    dw = w_max / n_modes
    recurrence = 2.0 * np.pi / dw
    if t.max() > recurrence:
        warnings.warn(
            f"requested times extend past the recurrence horizon "
            f"{recurrence:.3g}; the discretized bath is periodic there",
            stacklevel=2,
        )

    n = _evolve_full(w, _tail_corner(spec, w_max), w_bath, a_bath, occ_bath,
                     t, n0)
    return OracleResult(t=t, n=n, n_modes=n_modes, w_max=float(w_max),
                        recurrence_time=float(recurrence))


def _tail_corner(spec: SystemSpec, w_max: float) -> float:
    """The arrowhead's corner with the bath above w_max restored.

    omega^2 - 4 omega sum_b (alpha_b gamma_b / pi) arctan(gamma_b / w_max):
    the last factor is pi/2 - arctan(w_max / gamma_b), the part of the
    coupling sum int J(w)/w dw above the cutoff, in a form that does not
    cancel at large w_max (see the module docstring).
    """
    w = spec.omega
    tail = sum(b.alpha * b.gamma / np.pi * np.arctan(b.gamma / w_max)
               for b in spec.baths)
    return w * w - 4.0 * w * tail


def _mode_system(w, corner, w_bath, a_bath):
    """Diagonalize the coupled quadratic form in scaled coordinates.

    ``corner`` is the oscillator's diagonal entry (``_tail_corner``).
    """
    wm = np.concatenate([[w], w_bath])
    nu2, O = _arrowhead_eigh(corner, _coupling(w, w_bath, a_bath), w_bath**2)
    if nu2.min() <= 0:
        raise StabilityError(
            f"discretized model is unstable (min eigenvalue {nu2.min():.3g}); "
            "the continuum counterpart would have a runaway root"
        )
    return wm, np.sqrt(nu2), O


def _coupling(w, w_bath, a_bath):
    """Border z_j = 2 a_j sqrt(w w_j) of the scaled coordinates' arrowhead."""
    return 2.0 * a_bath * np.sqrt(w * w_bath)


def _arrowhead_eigh(a, z, d):
    """Eigenpairs of the symmetric arrowhead [[a, z^T], [z, diag(d)]].

    Returns ascending eigenvalues and the orthonormal eigenvectors as
    columns, as ``np.linalg.eigh`` does.  The poles d must be strictly
    ascending.  A mode with z_i = 0 (to rounding of the matrix norm) is
    deflated: it keeps eigenvalue d_i and the unit eigenvector e_i.  The
    others follow from the secular equation (``_secular_roots``).
    """
    if not (np.diff(d) > 0).all():
        raise DomainError("arrowhead poles must be strictly ascending")
    scale = max(abs(a), np.abs(d).max(initial=0.0), np.linalg.norm(z))
    live = np.abs(z) > _EPS * scale
    if live.all():
        return _secular_roots(a, z, d)
    lam_live, O_live = _secular_roots(a, z[live], d[live])
    n_live = lam_live.size
    lam = np.concatenate([lam_live, d[~live]])
    O = np.zeros((d.size + 1, d.size + 1))
    rows = np.concatenate([[0], 1 + np.flatnonzero(live)])
    O[rows[:, None], np.arange(n_live)] = O_live
    O[1 + np.flatnonzero(~live), np.arange(n_live, d.size + 1)] = 1.0
    order = np.argsort(lam, kind="stable")
    return lam[order], O[:, order]


def _secular_roots(a, z, d):
    """Eigenpairs of an arrowhead with every z_i != 0 and ascending d.

    The eigenvalues are the roots of psi(lam) = a - lam + sum z_i^2/(lam - d_i),
    one below d_1, one between each pair of neighbouring poles and one above
    d_n.  Each root is held as its offset tau from the nearer pole d_o, so
    every lam_k - d_i = (d_o - d_i) + tau keeps full relative accuracy, and
    is found by Newton's method on g(tau) = tau psi(d_o + tau), which has no
    pole at tau = 0, safeguarded by bisection inside the root's bracket.
    Starting from tau = 0 makes the first step tau = -z_o^2 / r(d_o), with r
    the rest of psi.  The eigenvector of lam_k is (1, z_i/(lam_k - d_i)),
    normalized by a sum of positive terms.
    """
    m = d.size
    if m == 0:
        return np.array([a], dtype=float), np.ones((1, 1))
    z2 = z * z
    idx = np.arange(m + 1)
    buf = np.empty((m + 1, m))
    tmp = np.empty((m + 1, m))
    # psi decreases between poles: its sign at the midpoint picks the nearer
    # pole of each inner root
    mid = 0.5 * (d[:-1] + d[1:])
    inv = np.subtract.outer(mid, d, out=buf[:m - 1])
    psi_mid = a - mid + np.reciprocal(inv, out=inv) @ z2
    o = np.concatenate([[0], np.where(psi_mid < 0, idx[:-2], idx[1:-1]),
                        [m - 1]])
    # g > 0 at tau = 0 and g <= 0 at the other bracket end: the midpoint for
    # inner roots, and for the outer ones a bound on the spectrum by Weyl's
    # inequality, widened by the coupling norm once more
    spread = 2.0 * np.sqrt(z2.sum())
    far = np.concatenate([[min(a, d[0]) - spread - d[0]], mid - d[o[1:-1]],
                          [max(a, d[-1]) + spread - d[-1]]])
    D = np.subtract.outer(d[o], d)
    a_o = a - d[o]
    zo2 = z2[o]
    tau = np.zeros(m + 1)
    near = np.zeros(m + 1)
    act = idx
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_SECULAR_MAX_ITER):
            k = act.size
            t = tau[act]
            inv = np.add(D if k == m + 1 else D[act], t[:, None], out=buf[:k])
            np.reciprocal(inv, out=inv)
            inv[np.arange(k), o[act]] = 0.0
            r = a_o[act] - t + inv @ z2
            g = zo2[act] + t * r
            dg = r - t * (1.0 + np.square(inv, out=tmp[:k]) @ z2)
            noise = 8.0 * _EPS * (zo2[act] + np.abs(t) * (
                np.abs(a_o[act]) + np.abs(t) + np.abs(inv, out=tmp[:k]) @ z2))
            pos = g > 0
            near[act[pos]] = t[pos]
            far[act[~pos]] = t[~pos]
            step = g / dg
            new = t - step
            lo = np.minimum(near[act], far[act])
            hi = np.maximum(near[act], far[act])
            inside = (new > lo) & (new < hi)
            new = np.where(inside, new, 0.5 * (lo + hi))
            small = np.abs(g) <= noise
            done = small | (inside & (np.abs(step) <= _EPS * np.abs(t)))
            tau[act] = np.where(small, t, new)
            act = act[~done]
            if act.size == 0:
                break
        else:
            raise NumericalError(
                f"secular equation: {act.size} of {m + 1} roots did not "
                f"converge in {_SECULAR_MAX_ITER} iterations"
            )
    # eigenvectors as columns: O[1 + i, k] = z_i / (lam_k - d_i), scaled
    O = np.empty((m + 1, m + 1))
    V = np.subtract.outer(d, d[o], out=O[1:])
    np.subtract(tau, V, out=V)
    np.divide(z[:, None], V, out=V)
    O[0] = 1.0 / np.sqrt(1.0 + np.einsum("ik,ik->k", V, V))
    V *= O[0]
    return d[o] + tau, O


def _evolve_full(w, corner, w_bath, a_bath, occ_bath, t, n0):
    """Full position-position coupling via the normal-mode propagator.

    The oscillator row of each propagator block is a scaled row of
    C = O cos(nu t) O^T, S1 = O sin(nu t)/nu O^T or S2 = O sin(nu t) nu O^T,
    so <X^2> + <P^2> is three weighted sums of their squares.  Only C and
    S1 take a matrix product.  With u = O[0] and the arrowhead's bath rows
    O[j, k] = z_j u_k / (nu_k^2 - d_j) (see ``_secular_roots``), the row
    S2_j = d_j S1_j + z_j S1_0 exactly, and the oscillator's own entry
    S2_0 = sum_k u_k^2 nu_k sin(nu_k t).  A deflated mode, |z_j| at
    rounding, gets z_j S1_0 in place of its exact 0.  The identity holds
    whatever the corner, which enters only through nu and u.
    """
    wm, nu, O = _mode_system(w, corner, w_bath, a_bath)
    z, d = _coupling(w, w_bath, a_bath), w_bath**2
    occ0 = np.concatenate([[n0], occ_bath]) + 0.5
    u = O[0, :]
    weights = np.stack([occ0 * (wm / w + w / wm), occ0 * w * wm,
                        occ0 / (w * wm)])

    n_out = np.empty(t.size)
    for i in range(0, t.size, _TIME_BLOCK):
        cos_t, sin_t = _cos_sin(nu, t[i:i + _TIME_BLOCK])
        s1 = O @ (sin_t * (u / nu)[:, None])
        s2 = np.empty_like(s1)
        s2[0] = (u * u * nu) @ sin_t
        np.multiply(d[:, None], s1[1:], out=s2[1:])
        s2[1:] += z[:, None] * s1[0]
        rows = (O @ (cos_t * u[:, None]), s1, s2)
        X2P2 = sum((r**2).T @ wt for r, wt in zip(rows, weights))
        n_out[i:i + _TIME_BLOCK] = 0.5 * (X2P2 - 1.0)
    return n_out


def _cos_sin(nu, t):
    """cos(nu t) and sin(nu t), each (n_nu, n_t).

    On a uniform grid t_k = t_0 + k h, write k = a m + j with 0 <= j < m:
    e^{i nu t_k} = e^{i nu (t_0 + a m h)} e^{i nu j h} by angle addition, so
    the table is an outer product of n_t/m coarse and m fine factors per
    frequency, with one complex multiply per entry in place of a cosine and
    a sine.  Any other grid takes np.cos and np.sin.  The memory integrals'
    ``_exp_table`` does the same for e^{iwt}; the oracle keeps its own
    copy so that it shares no code with the route it checks.
    """
    n = t.size
    if n > 1:
        h = (t[-1] - t[0]) / (n - 1)
        drift = np.abs(t[0] + h * np.arange(n) - t).max()
        if drift <= _UNIFORM_ULPS * np.spacing(np.abs(t).max()):
            m = round(n ** 0.5)
            coarse = np.exp(1j * np.multiply.outer(
                nu, t[0] + (m * h) * np.arange(-(-n // m))))
            fine = np.exp(1j * np.multiply.outer(nu, h * np.arange(m)))
            table = (coarse[:, :, None] * fine[:, None, :]).reshape(nu.size, -1)
            return table.real[:, :n], table.imag[:, :n]
    phase = np.multiply.outer(nu, t)
    return np.cos(phase), np.sin(phase)


def compare(t_a, n_a, t_b, n_b) -> ComparisonReport:
    """Pointwise deviation of two trajectories on their common time window,
    sampled at as many uniform times as the shorter trajectory has.  Each
    trajectory is a nonempty 1-D array of times and as many values."""
    t_a, n_a, t_b, n_b = (np.asarray(x, dtype=float)
                          for x in (t_a, n_a, t_b, n_b))
    for t, n in ((t_a, n_a), (t_b, n_b)):
        if t.ndim != 1 or t.size == 0 or n.shape != t.shape:
            raise DomainError(f"a trajectory needs nonempty 1-D times and as "
                              f"many values; got {t.shape} and {n.shape}")
    lo = max(t_a.min(), t_b.min())
    hi = min(t_a.max(), t_b.max())
    if hi <= lo:
        raise DomainError(
            f"trajectories do not overlap in time ([{t_a.min():g}, {t_a.max():g}] "
            f"vs [{t_b.min():g}, {t_b.max():g}])"
        )
    grid = np.linspace(lo, hi, min(t_a.size, t_b.size))
    dev = np.abs(np.interp(grid, t_a, n_a) - np.interp(grid, t_b, n_b))
    k = int(np.argmax(dev))
    return ComparisonReport(
        max_abs_dev=float(dev[k]),
        mean_abs_dev=float(dev.mean()),
        worst_time=float(grid[k]),
        overlap=(float(lo), float(hi)),
    )
