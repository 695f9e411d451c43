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
* a Lorentzian tail, truncated at an upper cutoff that is extended until the
  last panel's contribution to the *value* integrals drops below rtol/10
  (the derivative integrands at very small t have oscillation-regulated
  log-tails for which a literal last-panel rule has no finite fixed point;
  they share the final cutoff, and their own truncation is reported as a
  tail bound instead).

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
from ..model import _default_w_max

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


@dataclass(frozen=True)
class ComponentSpec:
    """One memory integral: weights applied to |M|^2 and |N|^2."""

    name: str
    weight_occupied: object  # callable w -> array, multiplies |M|^2
    weight_vacant: object  # callable w -> array, multiplies |N|^2


@dataclass
class QuadratureReport:
    """Error bookkeeping for one integrated chunk.

    ``max_rel_error`` is the accumulated panel-sum estimate relative to the
    per-component error scales.  ``tail_bound`` maps component name to a
    conservative absolute estimate of the remainder omitted beyond
    ``w_max``: last-panel contribution scaled by w_max/width (the exact
    factor for a 1/w^2 integrand, the slowest decay among the channels)
    with a safety multiplier for non-power-law behavior.
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
        Multiplies the initial upper cutoff, the model's cutoff rule.  The
        cutoff grows via the tail rule and is carried over between chunks
        (monotonically) so later chunks reuse the extension.
    """

    MAX_PANELS = 60000
    MAX_ROUNDS = 24
    MAX_EXTENSIONS = 60

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

        Returns (contrib, err): dicts keyed by (component index, 'I'|'dI')
        with arrays of shape (n_panels, n_times).
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
                wn = comp.weight_occupied(wb).reshape(stop - start, 15)
                wp = comp.weight_vacant(wb).reshape(stop - start, 15)
                for di, (fm, fn) in enumerate(((M2, N2), (dM2, dN2))):
                    f = wn[:, :, None] * fm + wp[:, :, None] * fn
                    k15 = h * np.einsum("pkt,k->pt", f, WK)
                    g7 = h * np.einsum("pkt,k->pt", f, WG)
                    contrib[ci, di, start:stop] = k15
                    err[ci, di, start:stop] = np.abs(k15 - g7)
        return contrib, err

    # -------------------------------------------------------------- main entry

    def integrate(self, t):
        """Integrate all components for the times in ``t`` (one chunk).

        Returns a dict name -> (I, dI) plus stores a QuadratureReport in
        ``last_report``.  Raises QuadratureError if the error target cannot
        be met within the panel and subdivision budget.
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
        t_top = max(float(t.max()), 0.0)
        edges = self._initial_edges(t_top)
        lo, hi = edges[:-1], edges[1:]
        contrib, err = self._panel_sums(lo, hi, t)

        extensions = 0
        for _round in range(self.MAX_ROUNDS + self.MAX_EXTENSIONS):
            totals = contrib.sum(axis=2)  # (n_c, 2, n_t)
            tot_err = err.sum(axis=2)
            scale = self._error_scales(totals)
            rel = tot_err / scale
            worst = rel.max()

            # tail rule on the value components only (derivative integrands
            # have no finite last-panel fixed point at small t)
            tail = np.abs(contrib[:, 0, -1, :]) / scale[:, 0, :]
            need_tail = tail.max() > self.rtol / 10.0

            if worst <= self.rtol and not need_tail:
                break

            if need_tail and extensions >= self.MAX_EXTENSIONS:
                raise QuadratureError(
                    f"tail rule not satisfied after {extensions} cutoff "
                    f"extensions (w_max {self.w_max:g})",
                    achieved=float(tail.max()),
                )
            if need_tail:
                width = hi[-1] - lo[-1]
                new_lo = np.arange(hi[-1], hi[-1] * 1.3, width)
                new_hi = np.concatenate([new_lo[1:], [hi[-1] * 1.3]])
                keep = new_hi > new_lo
                new_lo, new_hi = new_lo[keep], new_hi[keep]
                c_new, e_new = self._panel_sums(new_lo, new_hi, t)
                lo = np.concatenate([lo, new_lo])
                hi = np.concatenate([hi, new_hi])
                contrib = np.concatenate([contrib, c_new], axis=2)
                err = np.concatenate([err, e_new], axis=2)
                self.w_max = float(hi[-1])
                extensions += 1
                if worst <= self.rtol:
                    continue

            if worst > self.rtol:
                # split every panel whose error share is material
                tol = self.rtol * scale  # (n_c, 2, n_t)
                share = (err / tol[:, :, None, :]).max(axis=(0, 1, 3))  # per panel
                split = share > 0.5 / lo.size
                if not split.any():
                    split = share >= share.max()
                if lo.size + split.sum() > self.MAX_PANELS:
                    raise QuadratureError(
                        f"panel budget exhausted at {lo.size} panels "
                        f"(relative error {worst:.3g} > rtol {self.rtol:g})",
                        achieved=float(worst),
                    )
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
        else:
            totals = contrib.sum(axis=2)
            tot_err = err.sum(axis=2)
            worst = float((tot_err / self._error_scales(totals)).max())
            if worst > self.rtol:
                raise QuadratureError(
                    f"quadrature did not converge after {self.MAX_ROUNDS} rounds "
                    f"(relative error {worst:.3g} > rtol {self.rtol:g})",
                    achieved=worst,
                )

        totals = contrib.sum(axis=2)
        tot_err = err.sum(axis=2)
        self.last_report = QuadratureReport(
            n_panels=int(lo.size),
            w_max=float(hi[-1]),
            max_rel_error=float((tot_err / self._error_scales(totals)).max()),
            tail_bound={
                comp.name: float(np.abs(contrib[ci, :, -1, :]).max()
                                 * 5.0 * hi[-1] / (hi[-1] - lo[-1]))
                for ci, comp in enumerate(self.components)
            },
        )
        return {
            comp.name: (totals[ci, 0], totals[ci, 1])
            for ci, comp in enumerate(self.components)
        }


def integrate_static(weight, edges, refine=4):
    """Fixed-panel K15 integration of a plain scalar integrand (no time axis).

    Used for the asymptotic (t -> infinity) integrals, where the integrand is
    smooth apart from the resonance spike already covered by ``edges``.
    ``refine`` bisections give a convergence ladder; returns (value, err_est).
    """
    edges = np.asarray(edges, dtype=float)
    value_prev = None
    for level in range(refine + 1):
        lo, hi = edges[:-1], edges[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = (mid[:, None] + half[:, None] * XK[None, :]).ravel()
        f = weight(nodes).reshape(lo.size, 15)
        value = float(np.einsum("pk,k,p->", f, WK, half))
        if value_prev is not None and abs(value - value_prev) <= 1e-12 * abs(value):
            return value, abs(value - value_prev)
        value_prev = value
        if level < refine:
            edges = np.sort(np.concatenate([edges, mid]))
    g7 = float(np.einsum("pk,k,p->", f, WG, half))
    return value_prev, abs(value_prev - g7)
