"""Bath memory integrals as static parts plus one rotated-ray integral.

The integrals have the form

    I(t)     = int_0^inf dw [ Wn(w) |M(w,t)|^2 + Wp(w) |N(w,t)|^2 ]
    dI/dt(t) = int_0^inf dw [ Wn(w) d|M|^2/dt + Wp(w) d|N|^2/dt ]

with weights Wn, Wp (``_weights``: a bath's spectral density times its
occupation factors) and the five-node propagator kernels M, N.  The
integrator reads both baths from the system; an uncoupled one's weights
are exactly 0, and so are its integrals and their error budget.
Both kernels are exponential sums, M = c_0 e^{-iwt} + sum_k c_k e^{s_k t}
(N alike), so

    I(t) = S_0 + sum_jk S_jk e^{(s_j + s_k*) t} + 2 Re sum_k e^{s_k t} C_k(t)

    S_0    = int_0^inf [ Wn |c_0^M|^2 + Wp |c_0^N|^2 ] dw
    S_jk   = int_0^inf [ Wn c_j^M c_k^M* + Wp c_j^N c_k^N* ] dw
    C_k(t) = int_0^inf F_k(w) e^{iwt} dw,   F_k = Wn c_0^M* c_k^M + Wp c_0^N* c_k^N

and dI/dt carries (s_j + s_k*) on the root-root terms and (s_k + iw) on the
cross terms.

* The 17 static numbers per bath follow from 8 resolvent integrals.  The
  root coefficients are c_k = a_k/(s_k + iw) with a_k independent of w, and

      1/((s_j + iw)(s_k* - iw)) = [1/(s_j + iw) + 1/(s_k* - iw)] / (s_j + s_k*)

  gives S_jk = [a^M_j a^M_k* (Gn_j + Gn_k*) + a^N_j a^N_k* (Gp_j + Gp_k*)]
  / (s_j + s_k*) with Gn_k = int Wn/(s_k + iw) dw (Gp alike), while
  c_0 = -sum_k c_k (M(w, 0) = 0) gives S_0 = sum_jk S_jk.  One builder,
  ``integrate_static``, integrates the G on the cross terms' ray (below).
  Each integrand W/(s_k + iw) has poles at w = i s_k, below the real axis
  (Re s_k < 0), and at +-i gamma_b and the Matsubara frequencies, on the
  imaginary axis, so none lies in the open first quadrant; it falls as
  1/|w|^2 there, so by Cauchy's theorem its integral on any ray
  0 < theta < pi/2 is the real-line one.  The panels (``_ray_edges``) run
  from 16x below the smallest singularity's modulus to 16x beyond the
  largest; the value is taken from one bisection of them, and its signed
  difference from the base level passes through the same assembly to give
  the parts' error estimates.  Every other term of I(t) decays, so S_0 is
  also the stationary integral I(inf): the integrator and the stationary
  limits (``asymptotics``) share the builder.
* The cross terms are integrated on the ray w = r e^{i theta}, where e^{iwt}
  decays as e^{-r sin(theta) t}.  c_0* continues analytically as
  conj(c_0(conj w)), whose poles sit at w_j = -i s_j; those between the
  real axis and the ray add 2 pi i times their residues, which carry
  e^{i w_j t} = e^{s_j t}.  The other poles (Lorentzian, Matsubara, real
  roots) lie on the imaginary axis, and those of c_k in the lower
  half-plane.  theta bisects the widest angular gap between the real axis,
  the first-quadrant poles and the imaginary axis.  The ray's nodes do not
  depend on t, so each time costs one column of an e^{iwt} product.  The
  nodes come in three groups (``_ray_groups``), each sorted by Im w, and
  the times in equal slices whose tables hold at most ``_TABLE_ENTRIES``
  entries; one table, of one group on one slice, exists at a time, in one
  block allocated per call.  A slice's table leaves out the nodes whose
  e^{iwt} has underflowed against the rest of the group by the slice's
  smallest time (``_contract``), and the budget carries a bound on what
  they would add; the same bound on the kept nodes sizes the slice's
  rounding allowance.  Each table is a stack of blocks of ``_ROWS`` = 16
  times, contracted as it is in one stacked product, and the static parts
  take at most 1024 times a product: OpenBLAS runs products that small on
  the calling thread, so no series waits on a BLAS worker, whose hand-off
  can cost far more than the product.  On a uniform grid t_k = t_0 + k h
  block a is an outer product, e^{iw(t_0 + 16 a h)} e^{iwjh} with
  k = 16 a + j (``_exp_table``): one complex multiply per entry, and the
  16 fine factors built once per group for every slice.  Other grids take
  one exponential per entry.

Nothing is adaptive: the node count follows from the spec and grows only as
log2(t_max/t_min).  The error budget adds the static parts' estimates,
the cross terms' difference to one bisection, the bound on the ray's
left-out nodes, and a rounding allowance on the parts' magnitudes, which
cancel as t -> 0; ``integrate`` raises QuadratureError when it exceeds
``RTOL`` of the error scale at any time.  The static parts bisect every
panel.  The cross terms bisect only their two end panels and the panels
that overlap [m_lo/2, 2 m_hi], m_lo and m_hi the smallest and largest
modulus of a singularity (``_bisected``), and take their value from the
halves there; on the other panels one K15 level is accurate to rounding.
All sums run in a fixed order on the calling thread, so repeated runs
are bit-identical, at any BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, QuadratureError
from ..model import BathSpec, SystemSpec, _default_w_max, equilibrium_occupation

# 15-point Kronrod abscissae and weights, one half of each.
_XK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)

XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])  # 15 ascending
WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])

#: The accuracy contract: the largest relative error budget ``integrate``
#: accepts.  It steers no node, so no computed value depends on it.
RTOL = 1e-7

#: Rounding allowance, relative to the summed magnitudes of the parts.
_ROUNDING = 64 * np.finfo(float).eps

#: (node, time) entries of one e^{iwt} table of the ray, the working set of
#: its contraction (16 bytes each, ``MemoryIntegrator._ray``): the times are
#: cut into the fewest equal slices whose tables over the largest node group
#: hold at most this many (``_slices``).  fig1's benchmark grid (250 times,
#: 300 nodes) takes one slice, validate's (500 times) two.
_TABLE_ENTRIES = 2**17

#: Times per block of the ray's e^{iwt} tables (``_exp_table``), and so
#: rows per product of their contraction (``_contract``).  OpenBLAS 0.3.31
#: ran a complex (16 x K)(K x 16) product on the calling thread for every K
#: tried, up to 4001, but split one of 17 rows or more across its threads
#: once K reached a few hundred, e.g. (20 x 1000)(1000 x 16).  On a 2-core VM such a split product took
#: 5-8 ms against 0.05 ms when the worker shared a core with the caller,
#: and how it split the rows moved the sums' last bits with the thread
#: count.
_ROWS = 16

#: A ray node leaves a time slice's table when its weighted factor
#: max_c |f_jc| e^{-Im(w_j) t_min} is below this fraction of the sum over
#: its group (``_contract``).
_DROP = 1e-17

#: How far, in ulp of the largest time, each time may sit from t_0 + k h
#: for ``_fine_factors`` to rebuild the grid from t_0 and h.  np.arange and
#: np.linspace grids sit within 2.
_UNIFORM_ULPS = 4


def _weights(bath: BathSpec, w):
    """(occupied, vacant) weights of ``bath`` at frequencies w, Re w > 0.

    Both are the Lorentzian spectral weight
    g(w) = (alpha gamma^2/pi) w/(gamma^2 + w^2) times the bath's occupation
    factors: n(w) on |M|^2 and 1 + eps n(w) on |N|^2.  Both continue
    analytically off the real axis, onto the rotated ray.
    """
    a, g = bath.alpha, bath.gamma
    pref = (a * g * g / np.pi) * w / (g * g + w * w)
    n = equilibrium_occupation(w, bath.temperature, bath.statistics)
    return pref * n, pref * (1.0 + bath.statistics * n)


@dataclass
class QuadratureReport:
    """Error bookkeeping for one ``integrate`` call.

    ``n_panels`` counts the K15 panels evaluated: the static parts' (each
    panel and its two halves) plus the cross terms' (each panel once, and
    the halves of those their error estimate bisects, ``_bisected``).
    ``w_max`` is the model's cutoff rule (``model._default_w_max``); the
    integrals do not use it.  ``max_rel_error`` is the largest error
    budget relative to the per-bath error scales.  ``tail_bound`` maps
    each bath's name ("bath1", "bath2") to the bound on a cutoff remainder,
    exactly 0.0: the ray reaches to infinity.
    ``ray_entries`` counts the (node, time) pairs of the ray's groups and
    ``ray_entries_kept`` those its e^{iwt} tables held (``_contract``).
    """

    n_panels: int
    w_max: float
    max_rel_error: float
    tail_bound: dict
    ray_entries: int
    ray_entries_kept: int


class MemoryIntegrator:
    """Integrates both baths' memory integrals on a time grid.

    The static parts are integrated on construction; ``integrate`` adds the
    cross terms for the requested times.

    Parameters
    ----------
    evaluator : KernelEvaluator
        Supplies the roots and the per-node coefficients of M and N, and
        the system, whose baths are integrated.
    """

    def __init__(self, evaluator):
        self.ev = evaluator
        spec = evaluator.spec
        self.w_max = _default_w_max(spec)
        self._Omega = spec.omega_renormalized
        self.last_report = None
        self._S, self._S_err, self._static_panels = integrate_static(evaluator)
        s = evaluator.s
        self._rate = _rates(s)  # (2, 16): I and dI
        self._R, self._theta, self._inside = _ray_geometry(spec, s)
        # the cross terms' panels that overlap [m_lo/2, 2 m_hi], m_lo and
        # m_hi the smallest and largest singularity's modulus, are bisected
        # for their error estimate (``_bisected``); m_lo also sets the ray's
        # smallest scale
        modulus = np.abs(_singularities(spec, s))
        self._r_min = modulus.min()
        self._band = np.array([0.5 * self._r_min, 2.0 * modulus.max()])
        inside = self._inside
        self._P = self._residues(-1j * s[inside], s[inside],
                                 evaluator.rootset.xi_prime[inside])

    # ---------------------------------------------------------------- parts

    def _residues(self, wj, sj, xj):
        """2 pi i Res_{w_j} F_k for I and dI: (2, 2, 4, n_j).

        The residue of conj(c_0^N(conj w)) = (w - omega)(g1 + iw)(g2 + iw)
        / q(iw) at w_j is -i xi'_j (w_j - omega)(g1 + s_j)(g2 + s_j); for
        c_0^M, (w - omega) becomes -(w + omega).  The term carries
        e^{(s_k + s_j) t}, so dI takes the factor s_k + s_j.
        """
        ev = self.ev
        poles = -1j * xj * (ev.g1 + sj) * (ev.g2 + sj)
        _, _, _, cMk, cNk = ev._mn_coefficients(wj)  # (n_j, 4)
        out = []
        for bath in ev.spec.baths:
            wn, wp = _weights(bath, wj)
            res = 2j * np.pi * (
                (-wn * (wj + ev.w) * poles)[:, None] * cMk
                + (wp * (wj - ev.w) * poles)[:, None] * cNk)  # (n_j, 4)
            res = res.T
            out.append(np.stack([res, res * (ev.s[:, None] + sj[None, :])]))
        return np.array(out)

    def _ray_nodes(self, lo, hi):
        """Ray nodes w = R v/(1 - v) e^{i theta} on the K15 panels [lo, hi]
        in v, and the weighted F_k dw/dv: (n_v,), (n_v, 2 * 2 * 4)."""
        w, jac = _ray_points(lo, hi, self._R, self._theta)
        # c_0 at conj(w) and the root coefficients at w, each evaluated
        # only where it is used
        _, cM0, cN0 = self.ev._c0_coefficients(w.conj())
        R = self.ev._resolvent(w)
        cMk, cNk = self.ev.aM * R, self.ev.aN * R
        rate = self.ev.s[None, :] + 1j * w[:, None]
        f = []
        for bath in self.ev.spec.baths:
            wn, wp = _weights(bath, w)
            F = ((wn * cM0.conj() * jac)[:, None] * cMk
                 + (wp * cN0.conj() * jac)[:, None] * cNk)  # (n_v, 4)
            f.append(np.stack([F, F * rate], axis=1))
        return w, np.stack(f, axis=1).reshape(w.size, -1)

    def _ray_groups(self, t):
        """The ray's nodes for the times t > 0 in three groups: the panels
        taken once, the halves of the bisected panels (``_bisected``), and
        those panels at the base level.

        Each group is sorted by Im w, so that the nodes a time slice keeps
        form a prefix (``_contract``).  Returns [(w, f, |f|)] per group.
        """
        # e^{iwt} decays over r ~ 1/t_max and reaches out to 1/t_min
        edges = _ray_edges(self._R, min(self._r_min, 1.0 / t.max()),
                           1.0 / t.min())
        bis = _bisected(edges, self._R, self._band)
        lo, hi = edges[:-1], edges[1:]
        mid = 0.5 * (lo + hi)
        w, f = self._ray_nodes(
            np.concatenate([lo[~bis], lo[bis], mid[bis], lo[bis]]),
            np.concatenate([hi[~bis], mid[bis], hi[bis], hi[bis]]))
        n_bis = bis.sum()
        ends = np.cumsum([0, 15 * (len(bis) - n_bis), 30 * n_bis, 15 * n_bis])
        groups = []
        for a, b in zip(ends[:-1], ends[1:]):
            order = a + np.argsort(w[a:b].imag, kind="stable")
            f_g = f[order]
            groups.append((w[order], f_g, np.abs(f_g)))
        return groups

    def _static(self, t):
        """The static parts and the residues' cross terms of both baths at
        the times t > 0, with their budgets, and e^{s t}.

        Returns (value, budget, E): value and budget of shape (2, 2, n_t)
        and E, (4, n_t).
        """
        s = self.ev.s
        E = np.exp(np.multiply.outer(s, t))  # (4, n_t)
        S, eS = self._S, self._S_err
        terms = self._rate[None] * S[:, None, 1:]  # (n_l, 2, 16)
        terms_abs = np.abs(terms)
        errors = np.abs(self._rate)[None] * eS[:, None, 1:]
        value, size, budget = np.empty((3, len(S), 2, t.size))
        # OpenBLAS splits a (2 x 16)(16 x 4001) product across its threads,
        # but runs one over at most 1024 times on the calling thread
        for a in range(0, t.size, 1024):
            cols = slice(a, a + 1024)
            EE = (E[:, None, cols] * E[None, :, cols].conj()).reshape(16, -1)
            EE_abs = np.abs(EE)
            value[..., cols] = (terms @ EE).real
            # the parts cancel as t -> 0, so rounding scales with their size
            size[..., cols] = terms_abs @ EE_abs
            budget[..., cols] = errors @ EE_abs
        value[:, 0] += S[:, 0, None].real
        size[:, 0] += np.abs(S[:, 0, None])
        budget[:, 0] += eS[:, 0, None]

        Ej = E[self._inside]
        value += 2.0 * ((self._P @ Ej) * E).sum(axis=2).real
        size += 2.0 * ((np.abs(self._P) @ np.abs(Ej)) * np.abs(E)).sum(axis=2)
        budget += _ROUNDING * size
        return value, budget, E

    def _ray(self, t, groups, bounds):
        """The ray's part of C_k(t) in the value and in its error estimate,
        at the times t > 0, one node group and one time slice at a time.

        ``groups`` comes from ``_ray_groups`` and ``bounds`` from
        ``_slices``.  The value takes the first two groups; the estimate is
        the halves' part minus the base level's, on the bisected panels
        alone.  Returns (C_value, C_diff, bound, kept): the first three
        (2 * 2 * 4, n_t), bound the rounding allowance on the value's
        magnitudes per slice plus the bound on every group's left-out
        nodes, and kept the entries of the tables built.
        """
        n_c = groups[0][1].shape[1]
        C_value = np.zeros((n_c, t.size), dtype=complex)
        C_diff = np.zeros_like(C_value)
        bound = np.zeros((n_c, t.size))
        kept = 0
        # one block, allocated once per call, holds each table in turn: the
        # longest slice's whole ``_ROWS``-time blocks over the largest group
        rows = -(-max(np.diff(bounds)) // _ROWS) * _ROWS
        tables = np.empty(rows * max(len(w) for w, _, _ in groups),
                          dtype=complex)
        for g, (w, f, f_abs) in enumerate(groups):
            fine = _fine_factors(1j * w, t)  # shared by every slice
            for a, b, C, k, drop, size in _contract(w, f, f_abs, t, bounds,
                                                    fine, tables):
                if g < 2:  # the value's groups
                    C_value[:, a:b] += C.T
                    bound[:, a:b] += _ROUNDING * size[:, None]
                if g == 1:
                    C_diff[:, a:b] += C.T
                elif g == 2:
                    C_diff[:, a:b] -= C.T
                bound[:, a:b] += drop[:, None]
                kept += (b - a) * k
        return C_value, C_diff, bound, kept

    def _error_scales(self, totals: np.ndarray) -> np.ndarray:
        """Per-(bath, derivative, time) denominators for error control.

        The value integrals are sign-definite, so their own magnitude is the
        right yardstick, floored at 1e-6 of the larger of the grid maximum
        and S_0 against the t ~ 0 zeros (a short grid alone would set the
        floor far below the integral's size).  The derivative integrals
        oscillate through zero and decay like e^{-eta t}, while the consumer
        adds them to Omega-sized combinations of the value integrals;
        demanding relative accuracy at their zero crossings would chase the
        cancellation noise of d|M|^2/dt, so they are controlled against the
        larger of their own grid maximum and the value scale.
        """
        mag = np.abs(totals)
        ref = np.maximum(mag[:, 0, :].max(axis=-1), np.abs(self._S[:, 0]))
        scale = np.empty_like(mag)
        scale[:, 0, :] = np.maximum(mag[:, 0, :], 1e-6 * ref[:, None])
        dref = np.maximum(self._Omega * ref, mag[:, 1, :].max(axis=-1))
        scale[:, 1, :] = np.maximum(mag[:, 1, :], 1e-3 * dref[:, None])
        return np.maximum(scale, 1e-300)

    # -------------------------------------------------------------- main entry

    def integrate(self, t):
        """Integrate both baths' memory integrals at the times ``t``.

        Returns {"bath1": (I, dI), "bath2": (I, dI)}, exactly 0.0 for an
        uncoupled bath (its weights are 0), and stores a QuadratureReport in
        ``last_report``.  I(0) = dI(0) = 0 exactly, because every kernel
        vanishes at t = 0.  Raises QuadratureError if the error budget
        exceeds ``RTOL``, and DomainError for a time that is negative or not
        finite.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        bad = t[~(t >= 0) | np.isinf(t)]
        if bad.size:
            raise DomainError(
                f"times must be finite and >= 0; got {float(bad[0])!r}")
        names = ("bath1", "bath2")
        totals = np.zeros((2, 2, t.size))
        pos = t > 0.0
        n_panels, worst, entries, kept = 0, 0.0, 0, 0
        if pos.any():
            tp = t[pos]
            groups = self._ray_groups(tp)
            n_nodes = [len(w) for w, _, _ in groups]
            value, budget, E = self._static(tp)
            C_value, C_diff, bound, kept = self._ray(
                tp, groups, _slices(tp.size, max(n_nodes)))
            shape = (2, 2, 4, tp.size)
            value += 2.0 * (C_value.reshape(shape) * E).sum(axis=2).real
            diff = 2.0 * (C_diff.reshape(shape) * E).sum(axis=2).real
            budget += np.abs(diff) + 2.0 * (bound.reshape(shape)
                                            * np.abs(E)).sum(axis=2)
            entries = tp.size * sum(n_nodes)
            worst = float((budget / self._error_scales(value)).max())
            if worst > RTOL:
                raise QuadratureError(
                    f"memory-integral error budget {worst:.3g} exceeds rtol "
                    f"{RTOL:g}",
                    achieved=worst,
                )
            totals[:, :, pos] = value
            n_panels = self._static_panels + sum(n_nodes) // 15
        self.last_report = QuadratureReport(
            n_panels=n_panels, w_max=self.w_max, max_rel_error=worst,
            tail_bound=dict.fromkeys(names, 0.0), ray_entries=entries,
            ray_entries_kept=kept,
        )
        return {name: (totals[ci, 0], totals[ci, 1])
                for ci, name in enumerate(names)}


def _slices(n_t, n_nodes):
    """Bounds of the time slices of an n_t-time grid: the fewest equal
    slices whose tables over ``n_nodes`` nodes hold at most
    ``_TABLE_ENTRIES`` entries."""
    count = -(-n_t // max(1, _TABLE_ENTRIES // n_nodes))
    length = -(-n_t // count)
    return list(range(0, n_t, length)) + [n_t]


def _fine_factors(z, t):
    """(h, e^{z j h} for 0 <= j < ``_ROWS``), the latter (_ROWS, n_z), if
    t_k = t_0 + k h with h >= 0 for every k, to within ``_UNIFORM_ULPS`` of
    the largest time; else None."""
    n = t.size
    if n > 1:
        h = (t[-1] - t[0]) / (n - 1)
        drift = np.abs(t[0] + h * np.arange(n) - t).max()
        if h >= 0.0 and drift <= _UNIFORM_ULPS * np.spacing(np.abs(t).max()):
            return h, np.exp(np.multiply.outer(h * np.arange(_ROWS), z))
    return None


def _exp_table(z, t, fine, out=None):
    """The table e^{zt} for Re z <= 0 and t >= 0 as a stack of blocks of
    ``_ROWS`` times, (blocks, _ROWS, n_z), held in the flat array ``out``
    if one is given: the ray's phases e^{iwt}, z = iw.  Row k of the
    stack's (blocks * _ROWS, n_z) view is time k.

    ``fine`` is None, and the table takes one exponential per entry, its
    last block padded with the last time, unless t is a run of a uniform
    grid t_k = t_0 + k h.  Then it is ``_fine_factors`` of that grid and of
    exponents whose first columns are z; write k = 16 a + j:
    e^{z t_k} = e^{z (t_0 + 16 a h)} e^{z j h}, so block a is coarse factor
    a times the fine factors, one multiply per entry in place of one
    exponential, and the last block runs on along the grid.  With h >= 0
    neither factor exceeds 1 in magnitude, so their product cannot be
    0 * inf.
    """
    blocks = -(-t.size // _ROWS)
    if out is not None:
        out = out[:blocks * _ROWS * z.size].reshape(blocks, _ROWS, z.size)
    if fine is None:
        times = np.pad(t, (0, blocks * _ROWS - t.size), mode="edge")
        return np.exp(np.multiply.outer(times.reshape(blocks, _ROWS), z,
                                        out=out), out=out)
    h, steps = fine
    coarse = np.exp(np.multiply.outer(
        t[0] + (_ROWS * h) * np.arange(blocks), z))
    return np.multiply(coarse[:, None, :], steps[None, :, :z.size], out=out)


def _contract(w, f, f_abs, t, bounds, fine, out=None):
    """One group's share of the cross terms, C_c(t) = sum_j f_jc e^{i w_j t},
    one time slice [a, b) of ``bounds`` at a time; the nodes w are sorted
    by Im w.

    In a slice, node j is left out where its weighted factor
    max_c |f_jc| e^{-Im(w_j) t_min}, with t_min the slice's smallest time,
    is below ``_DROP`` of the group's sum; the table keeps the prefix up to
    the last node that is not.  |e^{i w_j t}| <= e^{-Im(w_j) t_min} at every
    time of the slice, which bounds the part left out and the kept part.
    The table, ``_exp_table`` of the kept nodes with ``fine`` of iw, is
    held in the flat block ``out`` if one is given, which the next slice
    overwrites, and its stack of ``_ROWS``-time blocks is multiplied as it
    is, one stacked product.  Yields (a, b, C, k, drop, size) per slice:
    C (b - a, n_c), k the count of kept nodes, and those bounds per
    component, (n_c,), on sum_j |f_jc e^{i w_j t}| over each part.
    """
    t_min = np.minimum.reduceat(t, bounds[:-1])
    decay = np.exp(-np.multiply.outer(w.imag, t_min))  # (n_w, n_slices)
    weight = f_abs.max(axis=1, initial=0.0)[:, None] * decay
    rank = np.arange(1, len(w) + 1)[:, None]
    keep = np.max(rank * (weight >= _DROP * weight.sum(axis=0)), axis=0,
                  initial=0)
    drop = f_abs.T @ (decay * (rank > keep))
    size = f_abs.T @ (decay * (rank <= keep))
    for s, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        k = int(keep[s])
        X = _exp_table(1j * w[:k], t[a:b], fine, out)
        C = np.matmul(X, f[:k]).reshape(-1, f.shape[1])[:b - a]
        yield a, b, C, k, drop[:, s], size[:, s]


def _k15_nodes(lo, hi):
    """K15 nodes on the panels [lo, hi] and the panels' half-widths."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return (mid[:, None] + half[:, None] * XK[None, :]).ravel(), half


def _ray_geometry(spec: SystemSpec, s: np.ndarray):
    """The ray w = r e^{i theta} of the static parts and the cross terms:
    (R, theta, inside).

    R = max(gamma_max, omega) is its scale.  theta bisects the widest
    angular gap between the real axis, the first-quadrant poles
    w_j = -i s_j of conj(c_0(conj w)) and the imaginary axis; ``inside``
    marks the roots whose w_j lie between the real axis and the ray.
    """
    w_pole = -1j * s
    first = (w_pole.real > 0.0) & (w_pole.imag > 0.0)
    angles = np.sort(np.concatenate([[0.0, 0.5 * np.pi],
                                     np.angle(w_pole[first])]))
    gap = int(np.argmax(np.diff(angles)))
    theta = 0.5 * (angles[gap] + angles[gap + 1])
    R = max(max(b.gamma for b in spec.baths), spec.omega)
    return R, theta, first & (np.angle(w_pole) < theta)


def _ray_points(lo, hi, R, theta):
    """The ray's nodes w = R v/(1 - v) e^{i theta} on the K15 panels
    [lo, hi] in v, and their K15 weights times dw/dv: (n_v,), (n_v,)."""
    v, half = _k15_nodes(lo, hi)
    phase = np.exp(1j * theta)
    w = R * v / (1.0 - v) * phase
    jac = (half[:, None] * WK).ravel() * phase * R / (1.0 - v) ** 2
    return w, jac


def _ray_edges(R, r_lo, r_hi):
    """Panel edges in v on [0, 1] for the ray r = R v/(1 - v).

    The inner edges sit at r = R 2^m, so every inner panel spans a factor 2
    in r and resolves a pole at any distance from the origin that keeps its
    angle to the ray.  They run from 16x below r_lo, the smallest scale of
    the integrand near the origin, to 16x beyond r_hi, how far out it
    reaches: the largest singularity's modulus for the static parts, and
    1/t at the smallest time for the cross terms.  The end panels cover
    the rest.
    """
    lo = 4 + max(0, int(np.ceil(np.log2(R / r_lo))))
    hi = 4 + max(0, int(np.ceil(np.log2(r_hi / R))))
    return np.concatenate([[0.0], 1.0 / (1.0 + 2.0 ** -np.arange(-lo, hi + 1.0)),
                           [1.0]])


def _bisected(edges, R, band):
    """Which ray panels ``edges`` (in v, r = R v/(1 - v)) the error
    estimate bisects.

    These are the two end panels, [0, v_lo] and [v_hi, 1], and every
    panel that overlaps ``band``: the r = |w| from half the smallest
    singularity's modulus to twice the largest's (``_singularities``).  Every
    inner panel spans a factor 2 in r, so on the others the weights are
    analytic well beyond the panel and the K15 rule converges
    geometrically on them.  That argument does not cover the factor
    e^{iwt}: across a panel [a, 2a] its phase turns by about a t cos(theta)
    at amplitude e^{-a t sin(theta)}.  That those panels stay below
    rounding with it is measured, not derived:
    ``test_unbisected_ray_panels_do_not_move_under_bisection`` bisects
    each of them on seven systems and grids, down to theta = 23 degrees.
    """
    v = band / (R + band)
    bis = (edges[1:] >= v[0]) & (edges[:-1] <= v[1])
    bis[[0, -1]] = True
    return bis


def _singularities(spec: SystemSpec, roots: np.ndarray) -> list:
    """The singularities of the memory integrands nearest the origin.

    The roots' images i s_k (poles of 1/(s_k + iw), zeros of q(-iw)), the
    Lorentzian poles i gamma_b and each bath's first Matsubara pole,
    i 2 pi T_b (bosonic) or i pi T_b (fermionic).  The weights' poles come
    in pairs +-; the one listed stands for both, which are as near to the
    real line and to the origin.
    """
    poles = (1j * roots).tolist()
    poles += [1j * b.gamma for b in spec.baths]
    poles += [1j * np.pi * (2.0 if b.statistics > 0 else 1.0) * b.temperature
              for b in spec.baths if b.temperature > 0]
    return poles


def _rates(s):
    """(2, 16): the factors 1 and s_j + s_k* that the root-root terms of I
    and dI carry."""
    return np.stack([np.ones(16), (s[:, None] + s[None, :].conj()).ravel()])


def _assemble(ev, rate, G):
    """S_0 and the S_jk, (n, 17), from the resolvent integrals G.

    With c_k = a_k/(s_k + iw), partial fractions turn each product
    c_j c_k* into [1/(s_j + iw) + 1/(s_k* - iw)] a_j a_k*/(s_j + s_k*),
    and c_0 = -sum_k c_k makes S_0 the sum of the S_jk.
    """
    Gn, Gp = G[:, 0, :, None], G[:, 1, :, None]
    AM = ev.aM[:, None] * ev.aM[None, :].conj()
    AN = ev.aN[:, None] * ev.aN[None, :].conj()
    S = ((AM * (Gn + Gn.swapaxes(1, 2).conj())
          + AN * (Gp + Gp.swapaxes(1, 2).conj())).reshape(-1, 16) / rate[1])
    return np.concatenate([S.sum(axis=1, keepdims=True).real, S], axis=1)


def integrate_static(ev):
    """The static parts of the memory integrals of both baths of the
    system that the KernelEvaluator ``ev`` holds.

    Integrates Wn and Wp of each bath times 1/(s_k + iw), the 8 resolvent
    integrals G per bath, on the ray (``_ray_geometry``) over
    ``_ray_edges`` from 16x below the smallest singularity's modulus to
    16x beyond the largest, and assembles S_0 and the S_jk from them.  S_0
    is the bath's stationary integral I(inf).  Returns (S, S_err,
    n_panels): the parts (2, 17) with S_0 first, taken from the bisected
    panels; their error estimates, the magnitude of their difference from
    the base level; and the K15 panels evaluated.  An uncoupled bath's rows
    are exactly 0.
    """
    spec, s = ev.spec, ev.s
    R, theta, _ = _ray_geometry(spec, s)
    modulus = np.abs(_singularities(spec, s))
    edges = _ray_edges(R, modulus.min(), modulus.max())
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    w, jac = _ray_points(np.concatenate([lo, lo, mid]),
                         np.concatenate([hi, mid, hi]), R, theta)
    W = np.stack([wt for b in spec.baths for wt in _weights(b, w)], axis=1)
    terms = ((W * jac[:, None])[:, :, None]
             * ev._resolvent(w)[:, None, :]).reshape(w.size, 2, 2, 4)
    n_base = 15 * lo.size
    base, halves = terms[:n_base].sum(axis=0), terms[n_base:].sum(axis=0)
    # the assembly is linear, so the signed difference propagates through
    # it before its magnitude is taken
    rate = _rates(s)
    return (_assemble(ev, rate, halves),
            np.abs(_assemble(ev, rate, halves - base)), 3 * lo.size)
