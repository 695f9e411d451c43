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
        self.rootset = rootset
        self.spec = spec
        s = rootset.roots
        xp = rootset.xi_prime
        self.s = s
        w = spec.omega
        (a1, g1), (a2, g2) = (
            (spec.baths[0].alpha, spec.baths[0].gamma),
            (spec.baths[1].alpha, spec.baths[1].gamma),
        )
        self.w = w
        self.g1, self.g2 = g1, g2
        self._decoupled = a1 == 0.0 and a2 == 0.0
        if self._decoupled:
            # zero coupling: a root sits exactly at -i*w and the residue
            # weights become 0/0; the kernels reduce to their free limits
            # (A a bare phase, everything bath-borne identically zero)
            self._fA = self._fB = self._fB1 = self._fB2 = None
            return
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
        if self._decoupled:
            ph = np.exp(-1j * self.w * t)
            zero = np.zeros(t.size, dtype=complex)
            return AmplitudeSeries(
                t=t, A=ph, dA=-1j * self.w * ph,
                B=zero, dB=zero.copy(), B1=zero.copy(), dB1=zero.copy(),
                B2=zero.copy(), dB2=zero.copy(),
            )
        E = np.exp(np.multiply.outer(self.s, t))  # (4, Nt)
        s = self.s[:, None]

        def pair(f):
            f = f[:, None]
            return np.einsum("kt,kt->t", f, E), np.einsum("kt,kt->t", f * s, E)

        A, dA = pair(self._fA)
        B, dB = pair(self._fB)
        B1, dB1 = pair(self._fB1)
        B2, dB2 = pair(self._fB2)
        return AmplitudeSeries(t=t, A=A, dA=dA, B=B, dB=dB, B1=B1, dB1=dB1, B2=B2, dB2=dB2)

    # ---- five-node kernels ---------------------------------------------------

    def _mn_coefficients(self, wq):
        """Per-node coefficients of M and N for probe frequencies wq (array)."""
        s = self.s
        smax = np.max(np.abs(s))
        s0 = -1j * wq
        gap = np.min(np.abs(s0[:, None] - s[None, :]), axis=1)
        if np.any(gap < 1e-10 * max(smax, 1.0)):
            bad = wq[gap < 1e-10 * max(smax, 1.0)][0]
            raise DomainError(
                f"probe node -i*{bad:g} collides with a characteristic root; "
                "this can only happen for marginally stable (decoupled) systems"
            )
        xi0 = 1.0 / np.polyval(self.rootset.quartic_coefficients, s0)
        xik = self.rootset.xi_prime[None, :] / (s[None, :] - s0[:, None])  # (Nw, 4)
        poles = (s0 + self.g1) * (s0 + self.g2)
        cN0 = (1j * s0 - self.w) * poles * xi0
        cM0 = -(1j * s0 + self.w) * poles * xi0
        polesk = (s + self.g1) * (s + self.g2)
        cNk = (1j * s - self.w) * polesk * xik
        cMk = -(1j * s + self.w) * polesk * xik
        return s0, cM0, cN0, cMk, cNk

    def mn_block(self, wq, t):
        """Evaluate M, N, dM/dt, dN/dt on the (frequency x time) grid.

        Returns four complex arrays of shape (len(wq), len(t)).
        """
        wq = np.atleast_1d(np.asarray(wq, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self._decoupled:
            # consumed only inside bath integrals whose spectral weights
            # vanish identically at zero coupling
            zero = np.zeros((wq.size, t.size), dtype=complex)
            return zero, zero.copy(), zero.copy(), zero.copy()
        s0, cM0, cN0, cMk, cNk = self._mn_coefficients(wq)
        E0 = np.exp(np.multiply.outer(s0, t))  # (Nw, Nt)
        Ek = np.exp(np.multiply.outer(self.s, t))  # (4, Nt)
        sk = self.s[None, :]
        M = cM0[:, None] * E0 + cMk @ Ek
        N = cN0[:, None] * E0 + cNk @ Ek
        dM = (cM0 * s0)[:, None] * E0 + (cMk * sk) @ Ek
        dN = (cN0 * s0)[:, None] * E0 + (cNk * sk) @ Ek
        return M, N, dM, dN


def amplitudes_AB(rootset: RootSet, spec: SystemSpec, t):
    """A(t), B(t), B_1(t), B_2(t) with time derivatives (array-valued)."""
    return KernelEvaluator(rootset, spec).amplitude_series(t)


def propagators_MN(rootset: RootSet, spec: SystemSpec, w, t):
    """M(w,t), N(w,t) with time derivatives on the (w, t) grid."""
    return KernelEvaluator(rootset, spec).mn_block(w, t)
