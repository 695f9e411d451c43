"""Panel-adaptive Gauss-Kronrod quadrature for the bath memory integrals.

The integrals have the form

    I(t)     = int_0^inf dw [ Wn(w) |M(w,t)|^2 + Wp(w) |N(w,t)|^2 ]
    dI/dt(t) = int_0^inf dw [ Wn(w) d|M|^2/dt + Wp(w) d|N|^2/dt ]

with smooth weights Wn, Wp (spectral density times occupation factors) and
the five-node propagator kernels M, N.  Three features drive the panel
layout:

* a resonance spike at w ~ nu (the root-pair frequency) of width ~ eta,
  seeded with dedicated fine panels so adaptive refinement cannot miss it;
* oscillation in w with effective frequency t (through e^{-iwt} inside M, N),
  handled by capping the initial panel width at pi/(4*max(t, 1/Omega)).
  The oscillating cross terms are damped as e^{-eta t} and their amplitude
  decays as 1/w beyond the spectral support, so the fine width is applied
  only on a low-frequency window and the effective time saturates once
  e^{-eta t} is below noise; the coarse remainder is still error-controlled
  and gets subdivided adaptively if the estimator asks for it;
* a Lorentzian tail.  The panels end at a fixed cutoff W, the model's
  cutoff rule times ``w_max_factor``; the remainder int_W^inf is integrated
  from the kernels' exponential-sum structure instead of with panels.
  Beyond W >= 20 T_max the thermal factors are at most e^{-20}, so both
  weights reduce to the spectral weight on |N|^2 (the dropped thermal part
  is bounded, not integrated).  With N = c_0 e^{-iwt} + sum_k c_k e^{s_k t},
  the static and root-root parts of |N|^2 are t-independent integrals on
  the real ray, and the cross terms c_0* c_k e^{iwt} are integrated on the
  contour w = W + iy, where e^{iwt} decays as e^{-yt}.  The remainder's
  quadrature error and the thermal bound enter the error budget.

Several consecutive grid times are integrated on one shared panel set
("chunk"), sized by the most demanding time in the chunk; error control is
per time and per component.  The chunk length is a fixed constant so results
do not depend on worker counts or scheduling.  All panel sums run in a fixed
order, so repeated runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QuadratureError
from ..model import BathSpec, _default_w_max, equilibrium_occupation

# 15-point Kronrod abscissae (ascending) with embedded 7-point Gauss rule.
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
_WG_HALF = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])  # 15 ascending
WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
WG = np.zeros(15)
WG[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

#: Grid times integrated against one shared panel set.
CHUNK = 64
#: Frequency nodes evaluated per memory block.
NODE_BLOCK = 32768

DEFAULT_RTOL = 1e-7

#: Share of rtol the cutoff remainder's error bound may take; the panels
#: cannot reduce it, so a remainder that misses it raises.
_REMAINDER_SHARE = 0.1

#: Rounding allowance of the remainder, relative to its summed parts.
_ROUNDING = 64 * np.finfo(float).eps

#: K15 panels in u = W/w on (0, 1] for integrals over the real ray [W, inf).
_RAY_EDGES = np.array([0.0, 0.25, 0.5, 1.0])


@dataclass(frozen=True)
class ComponentSpec:
    """One bath's memory integral: its weights on |M|^2 and |N|^2.

    Both weights are the Lorentzian spectral weight
    g(w) = (alpha gamma^2/pi) w/(gamma^2 + w^2) times the bath's occupation
    factors: n(w) on |M|^2 and 1 + eps n(w) on |N|^2.
    """

    name: str
    bath: BathSpec

    def spectral_weight(self, w):
        """g(w), for real or complex w (the remainder's contour)."""
        a, g = self.bath.alpha, self.bath.gamma
        return (a * g * g / np.pi) * w / (g * g + w * w)

    def weights(self, w):
        """(occupied, vacant) weights at real frequencies w > 0."""
        pref = self.spectral_weight(w)
        n = equilibrium_occupation(w, self.bath.temperature,
                                   self.bath.statistics)
        return pref * n, pref * (1.0 + self.bath.statistics * n)


@dataclass
class QuadratureReport:
    """Error bookkeeping for one integrated chunk.

    ``max_rel_error`` is the accumulated error estimate of the panel sums
    plus the remainder beyond ``w_max``, relative to the per-component
    error scales.  ``tail_bound`` maps component name to the absolute error
    bound of that remainder (largest over time and over value and
    derivative): its quadrature error estimate plus the dropped thermal
    part.
    """

    n_panels: int
    w_max: float
    max_rel_error: float
    tail_bound: dict


class MemoryIntegrator:
    """Integrates a set of memory-integral components over time chunks.

    Parameters
    ----------
    evaluator : KernelEvaluator
        Supplies M, N and their time derivatives.
    components : sequence of ComponentSpec
    rtol : float
        Target relative error per time point and component.
    w_max_factor : float
        Multiplies the model's cutoff rule; the product is the fixed cutoff
        W between the panels and the remainder.
    """

    MAX_PANELS = 60000
    MAX_ROUNDS = 24

    def __init__(self, evaluator, components, *, rtol=DEFAULT_RTOL,
                 w_max_factor=1.0):
        self.ev = evaluator
        self.components = list(components)
        self.rtol = float(rtol)
        spec = evaluator.spec
        self.w_max = _default_w_max(spec) * w_max_factor
        self._g_min = min(b.gamma for b in spec.baths)
        self._g_max = max(b.gamma for b in spec.baths)
        self._w_bare = spec.omega
        self._Omega = spec.omega_renormalized
        from .roots import oscillatory_pair

        self._eta, self._nu = oscillatory_pair(evaluator.rootset.roots)
        # the remainder's integrands have poles at Re w = -Im s_k and 0;
        # the contour Re w = W must stay clear of them
        pole = float(np.abs(evaluator.s.imag).max())
        if pole >= 0.5 * self.w_max:
            raise QuadratureError(
                f"cutoff {self.w_max:g} is within a factor 2 of the kernel "
                f"pole at Re w = {pole:g}; raise w_max_factor",
            )
        self._ray = integrate_ray(self._ray_integrand, self.w_max)
        self.last_report = None

    # ------------------------------------------------------------------ edges

    def _error_scales(self, totals: np.ndarray) -> np.ndarray:
        """Per-(component, derivative, time) denominators for error control.

        The value integrals are sign-definite, so their own magnitude (with a
        small floor against the t ~ 0 zeros) is the right yardstick.  The
        derivative integrals oscillate through zero and decay like e^{-eta t},
        while the consumer adds them to Omega-sized combinations of the value
        integrals; demanding relative accuracy at their zero crossings would
        chase the cancellation noise of d|M|^2/dt, so they are controlled
        against the larger of their own chunk maximum and the value scale.
        """
        mag = np.abs(totals)
        ref = np.maximum(mag[:, 0, :].max(axis=-1), 1e-300)  # per component
        scale = np.empty_like(mag)
        scale[:, 0, :] = np.maximum(mag[:, 0, :], 1e-6 * ref[:, None])
        dref = np.maximum(self._Omega * ref, mag[:, 1, :].max(axis=-1))
        scale[:, 1, :] = np.maximum(mag[:, 1, :], 1e-3 * dref[:, None])
        return np.maximum(scale, 1e-300)

    def _initial_edges(self, t_top: float) -> np.ndarray:
        base = self._g_min / 4.0
        t_alive = t_top
        if self._eta > 0:
            # once e^{-eta t} is far below rtol the cross terms cannot move
            # the error estimator, so the oscillation width stops shrinking
            t_alive = min(t_top, np.log(1e3 / self.rtol) / self._eta)
        w_fine = min(
            self.w_max,
            max(6.0 * self._g_max, 2.0 * self._nu + 20.0 * self._eta,
                4.0 * self._w_bare),
        )
        width = min(base, np.pi / (4.0 * max(t_alive, 1.0 / self._Omega)))
        edges = [np.arange(0.0, w_fine, width),
                 np.arange(w_fine, self.w_max, base)]
        if self._nu > 0 and self._eta > 0:
            lo = max(0.0, self._nu - 12.0 * self._eta)
            hi = min(self.w_max, self._nu + 12.0 * self._eta)
            res_width = min(self._eta / 3.0, width)
            if res_width > 0 and hi > lo:
                edges.append(np.arange(lo, hi, res_width))
        e = np.unique(np.concatenate(edges + [np.array([self.w_max])]))
        return e[(e >= 0.0) & (e <= self.w_max)]

    # -------------------------------------------------------------- evaluation

    def _panel_sums(self, lo: np.ndarray, hi: np.ndarray, t: np.ndarray):
        """K15 contributions and |K15-G7| errors per (panel, component, time).

        Returns (contrib, err), arrays of shape
        (n_components, 2, n_panels, n_times); axis 1 is value, derivative.
        """
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        n_p = lo.size
        nodes = (mid[:, None] + half[:, None] * XK[None, :]).ravel()
        n_c = len(self.components)
        contrib = np.zeros((n_c, 2, n_p, t.size))
        err = np.zeros((n_c, 2, n_p, t.size))

        panels_per_block = max(1, NODE_BLOCK // 15)
        for start in range(0, n_p, panels_per_block):
            stop = min(start + panels_per_block, n_p)
            blk = slice(start * 15, stop * 15)
            wb = nodes[blk]
            M, N, dM, dN = self.ev.mn_block(wb, t)
            M2 = (M.real**2 + M.imag**2).reshape(stop - start, 15, t.size)
            N2 = (N.real**2 + N.imag**2).reshape(stop - start, 15, t.size)
            dM2 = 2.0 * (M.real * dM.real + M.imag * dM.imag).reshape(
                stop - start, 15, t.size
            )
            dN2 = 2.0 * (N.real * dN.real + N.imag * dN.imag).reshape(
                stop - start, 15, t.size
            )
            h = half[start:stop, None]
            for ci, comp in enumerate(self.components):
                wn, wp = (x.reshape(stop - start, 15) for x in comp.weights(wb))
                for di, (fm, fn) in enumerate(((M2, N2), (dM2, dN2))):
                    f = wn[:, :, None] * fm + wp[:, :, None] * fn
                    k15 = h * np.einsum("pkt,k->pt", f, WK)
                    g7 = h * np.einsum("pkt,k->pt", f, WG)
                    contrib[ci, di, start:stop] = k15
                    err[ci, di, start:stop] = np.abs(k15 - g7)
        return contrib, err

    # --------------------------------------------------------------- remainder

    def _ray_integrand(self, w):
        """g_c |c_0|^2 and g_c c_j conj(c_k) of N at real w: (n_w, n_c, 17)."""
        _, _, c0, _, ck = self.ev._mn_coefficients(w)
        cc = (ck[:, :, None] * ck[:, None, :].conj()).reshape(-1, 16)
        base = np.concatenate([(c0.real**2 + c0.imag**2)[:, None], cc], axis=1)
        g = np.stack([c.spectral_weight(w) for c in self.components], axis=1)
        return g[:, :, None] * base[:, None, :]

    def _remainder(self, t):
        """int_W^inf of every component's integrands, and its error bound.

        With N = c_0 e^{-iwt} + sum_k c_k e^{s_k t} and g the spectral weight,

            R(t)   = S_0 + sum_jk S_jk e^{(s_j + s_k*) t}
                     + 2 Re sum_k e^{s_k t} C_k(t)
            C_k(t) = int_W^inf g c_0* c_k e^{iwt} dw
                   = i e^{iWt} int_0^inf (g c_0* c_k)(W + iy) e^{-yt} dy,

        S_0 and S_jk from the real ray (``self._ray``).  The contour may be
        rotated because every pole lies at Re w <= max|Im s_k| < W/2, and
        c_0* continues analytically as conj(c_0(conj w)).  dR/dt carries
        (s_j + s_k*) on the root-root terms and (s_k + iw) on the cross
        terms.  The contour leg uses y = W v/(1 - v) on ``_contour_edges``.

        Returns (value, bound), each of shape (n_components, 2, n_times).
        The bound adds the quadrature error estimates of every part, each
        taken in magnitude, a rounding allowance, and 3 n(W)/(1 - n(W)) |R|
        for the thermal factors dropped beyond W.
        """
        s, W = self.ev.s, self.w_max
        n_c, n_t = len(self.components), t.size
        S, eS = (x.reshape(n_c, 1, 17) for x in self._ray)
        E = np.exp(np.multiply.outer(s, t))  # (4, n_t)
        EE = (E[:, None, :] * E[None, :, :].conj()).reshape(16, n_t)
        rate = np.stack([np.ones(16), (s[:, None] + s[None, :].conj()).ravel()])
        value = (rate * S[..., 1:]) @ EE  # (n_c, 2, n_t)
        value[:, 0] += S[:, :, 0]
        # the cross terms cancel the static ones as t -> 0, so rounding
        # scales with the parts' magnitudes, not with the remainder
        size = np.abs(rate * S[..., 1:]) @ np.abs(EE)
        size[:, 0] += np.abs(S[:, :, 0])
        bound = (np.abs(rate) * eS[..., 1:]) @ np.abs(EE)
        bound[:, 0] += eS[:, :, 0]
        phase = 1j * np.exp(1j * W * t)

        def cross(v):
            y = W * v / (1.0 - v)
            w = W + 1j * y
            _, _, c0, _, ck = self.ev._mn_coefficients(w)
            _, _, c0_conj, _, _ = self.ev._mn_coefficients(w.conj())
            f = c0_conj.conj()[:, None] * ck * (W / (1.0 - v) ** 2)[:, None]
            f = np.stack([f, f * (s + 1j * w[:, None])], axis=1)  # (n_v, 2, 4)
            decay = np.exp(-np.multiply.outer(y, t))[:, None, :]
            g = np.stack([c.spectral_weight(w) for c in self.components], axis=1)
            g = g[:, :, None, None]
            # the integrand and the magnitude of its terms, for rounding
            val = (g * ((f @ E) * phase * decay)[:, None]).real
            mag = np.abs(g) * ((np.abs(f) @ np.abs(E)) * decay)[:, None]
            return 2.0 * np.stack([val, mag], axis=1)  # (n_v, 2, n_c, 2, n_t)

        (c_val, c_size), (c_err, _) = integrate_static(cross,
                                                       _contour_edges(W, t))
        value = value.real + c_val
        bound = bound + c_err + _ROUNDING * (size + c_size)
        # dropped thermal part: n(w) (|M|^2 + eps |N|^2) with n <= n(W);
        # the |M|^2 remainder is taken as at most 2x the |N|^2 one (their
        # ratio beyond W measures 0.99-1.07 on fig1, fig5 and a T = 20 bath)
        for ci, comp in enumerate(self.components):
            T = comp.bath.temperature
            x = np.exp(-W / T) if T > 0 else 0.0
            bound[ci] += 3.0 * x / (1.0 - x) * np.abs(value[ci])
        return value, bound

    # -------------------------------------------------------------- main entry

    def integrate(self, t):
        """Integrate all components for the times in ``t`` (one chunk).

        Returns a dict name -> (I, dI) plus stores a QuadratureReport in
        ``last_report``.  Raises QuadratureError if the remainder misses its
        share of rtol, or the error target cannot be met within the panel
        and subdivision budget.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not (t > 0.0).any():
            # every kernel vanishes identically at t = 0, so the integrals
            # and their derivatives are exactly zero; running the adaptive
            # loop would only chase the roundoff noise of that cancellation
            zero = np.zeros(t.size)
            self.last_report = QuadratureReport(
                n_panels=0, w_max=self.w_max, max_rel_error=0.0,
                tail_bound={c.name: 0.0 for c in self.components},
            )
            return {c.name: (zero.copy(), zero.copy())
                    for c in self.components}
        edges = self._initial_edges(float(t.max()))
        lo, hi = edges[:-1], edges[1:]
        self._check_budget(lo.size, None)
        contrib, err = self._panel_sums(lo, hi, t)
        rem, rem_err = self._remainder(t)

        for round_ in range(self.MAX_ROUNDS + 1):
            totals = contrib.sum(axis=2) + rem  # (n_c, 2, n_t)
            scale = self._error_scales(totals)
            if round_ == 0:
                rem_rel = float((rem_err / scale).max())
                if rem_rel > _REMAINDER_SHARE * self.rtol:
                    raise QuadratureError(
                        f"cutoff remainder error {rem_rel:.3g} exceeds its "
                        f"share {_REMAINDER_SHARE:g} of rtol {self.rtol:g} "
                        f"(w_max {self.w_max:g})",
                        achieved=rem_rel,
                    )
            worst = float(((err.sum(axis=2) + rem_err) / scale).max())
            if worst <= self.rtol:
                break
            if round_ == self.MAX_ROUNDS:
                raise QuadratureError(
                    f"quadrature did not converge after {self.MAX_ROUNDS} rounds "
                    f"(relative error {worst:.3g} > rtol {self.rtol:g})",
                    achieved=worst,
                )
            # split every panel whose error share is material
            tol = self.rtol * scale  # (n_c, 2, n_t)
            share = (err / tol[:, :, None, :]).max(axis=(0, 1, 3))  # per panel
            split = share > 0.5 / lo.size
            if not split.any():
                split = share >= share.max()
            self._check_budget(lo.size + split.sum(), worst)
            mid_s = 0.5 * (lo[split] + hi[split])
            lo_new = np.concatenate([lo[~split], lo[split], mid_s])
            hi_new = np.concatenate([hi[~split], mid_s, hi[split]])
            order = np.argsort(lo_new, kind="stable")
            lo, hi = lo_new[order], hi_new[order]
            kept = np.concatenate(
                [contrib[:, :, ~split, :], np.zeros_like(contrib[:, :, split, :]),
                 np.zeros_like(contrib[:, :, split, :])], axis=2)
            kept_e = np.concatenate(
                [err[:, :, ~split, :], np.zeros_like(err[:, :, split, :]),
                 np.zeros_like(err[:, :, split, :])], axis=2)
            fresh = np.concatenate(
                [np.zeros(np.count_nonzero(~split), dtype=bool),
                 np.ones(2 * np.count_nonzero(split), dtype=bool)])
            contrib, err = kept[:, :, order, :], kept_e[:, :, order, :]
            fresh = fresh[order]
            c_new, e_new = self._panel_sums(lo[fresh], hi[fresh], t)
            contrib[:, :, fresh, :] = c_new
            err[:, :, fresh, :] = e_new

        self.last_report = QuadratureReport(
            n_panels=int(lo.size),
            w_max=self.w_max,
            max_rel_error=worst,
            tail_bound={comp.name: float(rem_err[ci].max())
                        for ci, comp in enumerate(self.components)},
        )
        return {
            comp.name: (totals[ci, 0], totals[ci, 1])
            for ci, comp in enumerate(self.components)
        }

    def _check_budget(self, n_panels, worst):
        """Raise before evaluating more than MAX_PANELS panels."""
        if n_panels > self.MAX_PANELS:
            raise QuadratureError(
                f"panel budget exhausted: {n_panels} panels needed, "
                f"{self.MAX_PANELS} allowed (rtol {self.rtol:g})",
                achieved=worst,
            )


def _contour_edges(w_max, t):
    """Panel edges in v on [0, 1] for the contour leg y = w_max v/(1 - v).

    e^{-yt} falls off over v ~ 1/(w_max t_max) near v = 0, and at the
    smallest positive time the integrand reaches out to 1 - v ~ w_max t_min
    near v = 1.  Halving the panels toward both ends, to 16x past those
    scales, resolves every time in between.
    """
    t_pos = t[t > 0]
    k0 = 4 + max(0, int(np.ceil(np.log2(w_max * t_pos.max()))))
    k1 = 4 + max(0, int(np.ceil(np.log2(1.0 / (w_max * t_pos.min())))))
    return np.concatenate([[0.0], 0.5 ** np.arange(k0, 0, -1),
                           1.0 - 0.5 ** np.arange(2, k1 + 1), [1.0]])


def integrate_static(weight, edges, refine=4):
    """Fixed-panel K15 integration of a time-independent integrand.

    ``weight`` maps an array of nodes to values whose leading axis runs over
    the nodes; trailing axes are integrated independently.  Used for the
    asymptotic (t -> infinity) integrals, where the integrand is smooth
    apart from the resonance spike already covered by ``edges``, and for the
    memory-integral remainder.  ``refine`` bisections
    give a convergence ladder; returns (value, err_est).
    """
    edges = np.asarray(edges, dtype=float)
    value_prev = None
    for level in range(refine + 1):
        lo, hi = edges[:-1], edges[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = (mid[:, None] + half[:, None] * XK[None, :]).ravel()
        f = np.asarray(weight(nodes))
        f = f.reshape((lo.size, 15) + f.shape[1:])
        value = np.einsum("pk...,k,p->...", f, WK, half)
        if value_prev is not None and (np.abs(value - value_prev).max()
                                       <= 1e-12 * np.abs(value).max()):
            return value[()], np.abs(value - value_prev)[()]
        value_prev = value
        if level < refine:
            edges = np.sort(np.concatenate([edges, mid]))
    g7 = np.einsum("pk...,k,p->...", f, WG, half)
    return value_prev[()], np.abs(value_prev - g7)[()]


def integrate_ray(weight, w0):
    """int_{w0}^inf of ``weight`` by the substitution u = w0/w.

    The integrand must decay at least like 1/w^2; the mapped integrand is
    then bounded on (0, 1], and ``integrate_static`` integrates it on
    ``_RAY_EDGES``.  Returns (value, err_est) as ``integrate_static`` does.
    """
    def mapped(u):
        f = np.asarray(weight(w0 / u))
        jac = w0 / (u * u)
        return f * jac.reshape(jac.shape + (1,) * (f.ndim - 1))

    return integrate_static(mapped, _RAY_EDGES)
