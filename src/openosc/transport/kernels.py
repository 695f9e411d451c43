"""Closed-form response kernels of the damped oscillator.

All kernels are exponential sums over the characteristic roots s_1..s_4
(four-node sums) or over those roots plus the probe node s_0 = -i*w
(five-node sums):

    A(t)      =  i sum_k xi'_k e^{s_k t} (s_k - i w)/(s_k + i w) h(s_k)
    B(t)      = -i sum_k xi'_k e^{s_k t} h(s_k)
    B_1(t)    = -i sum_k xi'_k e^{s_k t} a1 g1^2 (s_k + g2)      (B_2 analogous)
    N(w,t)    =  sum_{k=0..4} xi_k e^{s_k t} (i s_k - w_bare)(s_k + g1)(s_k + g2)
    M(w,t)    = -sum_{k=0..4} xi_k e^{s_k t} (i s_k + w_bare)(s_k + g1)(s_k + g2)

with h(s) = a1 g1^2 (s + g2) + a2 g2^2 (s + g1), the four-node weights
xi'_k = prod_{i != k} 1/(s_k - s_i), and the five-node weights xi_k extending
the product with the s_0 node.  A and B are independent of the probe
frequency w: their printed (s_k - s_0) factors cancel against the
1/(s_k - s_0) inside the five-node weights, so the reduced four-node form is
used directly.  Time derivatives are analytic (each term multiplied by s_k).

Divided-difference identities give the t = 0 values: a sum over n+1 simple
nodes annihilates polynomials of degree <= n-1 and maps a degree-n polynomial
to its leading coefficient.  Hence A(0) = 1, B(0) = B_1(0) = B_2(0) = 0,
M(w,0) = N(w,0) = 0, dM/dt(w,0) = -i, dN/dt(w,0) = +i.

At alpha_1 = alpha_2 = 0 a root sits at -i*omega and the weights become 0/0,
so the evaluator takes coupled systems only (``coefficient_series`` gives
the free oscillator's series itself).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..model import SystemSpec
from .roots import RootSet


@dataclass(frozen=True)
class AmplitudeSeries:
    """A, B, B_1, B_2 and their time derivatives on a time grid."""

    t: np.ndarray
    A: np.ndarray
    dA: np.ndarray
    B: np.ndarray
    dB: np.ndarray
    B1: np.ndarray
    dB1: np.ndarray
    B2: np.ndarray
    dB2: np.ndarray


class KernelEvaluator:
    """Vectorized evaluator for the response kernels of one system."""

    def __init__(self, rootset: RootSet, spec: SystemSpec):
        if spec.decoupled:
            raise DomainError("both couplings vanish: a root sits at "
                              "-i*omega and the kernels' weights are 0/0")
        self.rootset, self.spec = rootset, spec
        self.s = s = rootset.roots
        self.w = w = spec.omega
        xp = rootset.xi_prime
        (a1, g1), (a2, g2) = ((b.alpha, b.gamma) for b in spec.baths)
        self.g1, self.g2 = g1, g2
        # w-independent numerators of the root coefficients of M and N,
        # c_k(w) = a_k / (s_k + i w)
        poles = (s + g1) * (s + g2) * xp
        self.aM = -(1j * s + w) * poles
        self.aN = (1j * s - w) * poles
        h1 = a1 * g1**2 * (s + g2)
        h2 = a2 * g2**2 * (s + g1)
        self._fA = 1j * xp * (s - 1j * w) / (s + 1j * w) * (h1 + h2)
        self._fB = -1j * xp * (h1 + h2)
        self._fB1 = -1j * xp * h1
        self._fB2 = -1j * xp * h2

    # ---- four-node kernels -------------------------------------------------

    def amplitude_series(self, t) -> AmplitudeSeries:
        """Evaluate A, B, B_1, B_2 and derivatives on a time array."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < 0):
            raise DomainError("kernel times must be >= 0")
        E = np.exp(np.multiply.outer(self.s, t))  # (4, Nt)
        s = self.s[:, None]

        def pair(f):
            f = f[:, None]
            return np.einsum("kt,kt->t", f, E), np.einsum("kt,kt->t", f * s, E)

        # the fields' order: (A, dA), (B, dB), (B1, dB1), (B2, dB2)
        return AmplitudeSeries(t, *pair(self._fA), *pair(self._fB),
                               *pair(self._fB1), *pair(self._fB2))

    # ---- five-node kernels ---------------------------------------------------

    def _resolvent(self, wq):
        """1/(s_k + i wq) for probe frequencies wq (array): (len(wq), 4).

        Raises DomainError where the probe node -i wq collides with a root.
        """
        s = self.s
        d = s[None, :] + 1j * wq[:, None]
        close = np.min(np.abs(d), axis=1) < 1e-10 * max(np.max(np.abs(s)), 1.0)
        if np.any(close):
            bad = wq[close][0]
            raise DomainError(
                f"probe node -i*{bad:g} collides with a characteristic root")
        return 1.0 / d

    def _c0_coefficients(self, wq):
        """s0 = -i wq and the node coefficients c_0 of M and N there."""
        s0 = -1j * wq
        xi0 = 1.0 / np.polyval(self.rootset.quartic_coefficients, s0)
        poles = (s0 + self.g1) * (s0 + self.g2)
        cN0 = (1j * s0 - self.w) * poles * xi0
        cM0 = -(1j * s0 + self.w) * poles * xi0
        return s0, cM0, cN0

    def _mn_coefficients(self, wq):
        """Per-node coefficients of M and N for probe frequencies wq (array)."""
        R = self._resolvent(wq)
        s0, cM0, cN0 = self._c0_coefficients(wq)
        return s0, cM0, cN0, self.aM * R, self.aN * R

    def mn_block(self, wq, t):
        """Evaluate M, N, dM/dt, dN/dt on the (frequency x time) grid.

        Returns four complex arrays of shape (len(wq), len(t)).
        """
        wq = np.atleast_1d(np.asarray(wq, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        s0, cM0, cN0, cMk, cNk = self._mn_coefficients(wq)
        E0 = np.exp(np.multiply.outer(s0, t))  # (Nw, Nt)
        Ek = np.exp(np.multiply.outer(self.s, t))  # (4, Nt)
        sk = self.s[None, :]
        M = cM0[:, None] * E0 + cMk @ Ek
        N = cN0[:, None] * E0 + cNk @ Ek
        dM = (cM0 * s0)[:, None] * E0 + (cMk * sk) @ Ek
        dN = (cN0 * s0)[:, None] * E0 + (cNk * sk) @ Ek
        return M, N, dM, dN

