"""Characteristic quartic of the damped oscillator and its root set.

The Laplace-domain response of an oscillator (bare frequency omega,
renormalized frequency Omega) coupled to two Lorentzian baths has poles at
the roots of

    (s^2 + omega*Omega)(s + gamma_1)(s + gamma_2)
        + 2 s omega [alpha_1 gamma_1 (s + gamma_2) + alpha_2 gamma_2 (s + gamma_1)] = 0,

a monic quartic in s:

    s^4 + (g1+g2) s^3 + (g1*g2 + w^2) s^2
        + w [Omega*(g1+g2) + 2*g1*g2*(a1+a2)] s + w*Omega*g1*g2 = 0

(using w = omega).  The roots depend only on (omega, Omega, alpha, gamma) --
not on bath statistics or temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateRootsError, StabilityError
from ..model import SystemSpec

#: Relative residual the Newton polish must reach.
POLISH_TOL = 1e-12
#: Two roots closer than this (times max |root|) abort with a degeneracy error.
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class RootSet:
    """Four characteristic roots with their interpolation weights.

    Attributes
    ----------
    roots : ndarray, complex, shape (4,)
        Roots sorted by (real part, imaginary part) for determinism.
    xi_prime : ndarray, complex, shape (4,)
        Four-node weights  xi'_k = prod_{i != k} 1/(s_k - s_i).
    quartic_coefficients : ndarray, float, shape (5,)
        Monic coefficients [1, c3, c2, c1, c0], highest power first.
    """

    roots: np.ndarray
    xi_prime: np.ndarray
    quartic_coefficients: np.ndarray

    def residuals_relative(self) -> np.ndarray:
        """|quartic(s_k)| scaled by the largest term magnitude at s_k."""
        c = self.quartic_coefficients
        s = self.roots
        vals = np.abs(np.polyval(c, s))
        powers = np.abs(s[:, None]) ** np.arange(4, -1, -1)[None, :]
        scale = np.max(np.abs(c)[None, :] * powers, axis=1)
        return vals / np.maximum(scale, 1e-300)


def characteristic_polynomial(spec: SystemSpec) -> np.ndarray:
    """Monic quartic coefficients (highest power first) for the system."""
    w = spec.omega
    Om = spec.omega_renormalized
    (a1, g1), (a2, g2) = (
        (spec.baths[0].alpha, spec.baths[0].gamma),
        (spec.baths[1].alpha, spec.baths[1].gamma),
    )
    return np.array(
        [
            1.0,
            g1 + g2,
            g1 * g2 + w * w,
            w * (Om * (g1 + g2) + 2.0 * g1 * g2 * (a1 + a2)),
            w * Om * g1 * g2,
        ]
    )


def _xi_prime(roots: np.ndarray) -> np.ndarray:
    diff = roots[:, None] - roots[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def characteristic_roots(spec: SystemSpec) -> RootSet:
    """Solve the characteristic quartic and validate the root set.

    Companion-matrix eigenvalues seed a Newton polish that stops once its
    largest relative step is below 1e-15 or no longer shrinks; the roots
    must then meet a relative residual of 1e-12.  Errors: a root with
    non-negative real part raises StabilityError (except the exactly
    decoupled alpha_1=alpha_2=0 case, whose pole pair +-i*omega is marginal
    by construction); a near-degenerate pair raises DegenerateRootsError.
    """
    c = characteristic_polynomial(spec)
    if spec.decoupled:
        # exact factorization: (s^2 + omega^2)(s + g1)(s + g2) with omega = Omega
        w = spec.omega
        roots = np.array(
            [1j * w, -1j * w, -spec.baths[0].gamma, -spec.baths[1].gamma],
            dtype=complex,
        )
    else:
        roots = np.roots(c)
        dc = c[:-1] * np.arange(4, 0, -1)
        last = np.inf
        for _ in range(100):
            num = np.polyval(c, roots)
            den = np.polyval(dc, roots)
            step = num / den
            roots = roots - step
            # a step that no longer shrinks is rounding noise, as near two
            # close real roots, where it stalls above the 1e-15 target
            rel = np.max(np.abs(step) / np.maximum(np.abs(roots), 1.0))
            if rel <= 1e-15 or rel >= last:
                break
            last = rel

    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]

    smax = np.max(np.abs(roots))
    diff = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(diff, np.inf)
    dmin = diff.min()
    if dmin < DEGENERACY_TOL * smax:
        pair = np.unravel_index(np.argmin(diff), diff.shape)
        raise DegenerateRootsError(
            f"roots {roots[pair[0]]:.6g} and {roots[pair[1]]:.6g} are separated by "
            f"{dmin:.3g} (< {DEGENERACY_TOL:g} * {smax:.3g}); interpolation weights "
            "would blow up"
        )

    if not spec.decoupled:
        bad = np.where(roots.real >= 0)[0]
        if bad.size:
            raise StabilityError(
                f"characteristic root {roots[bad[0]]:.9g} has non-negative real part; "
                "the configured system is dynamically unstable"
            )

    rs = RootSet(roots=roots, xi_prime=_xi_prime(roots), quartic_coefficients=c)
    res = rs.residuals_relative()
    if not spec.decoupled and np.any(res > POLISH_TOL):
        raise StabilityError(
            f"root polish stalled: residuals {res} exceed {POLISH_TOL:g}"
        )
    return rs


def oscillatory_pair(roots: np.ndarray):
    """Return (eta, nu): decay rate and frequency of the conjugate root pair.

    eta = -Re(s) and nu = |Im(s)| of the complex pair; for a quartic with two
    conjugate pairs, the weakly damped one (smallest eta).
    """
    cplx = roots[np.abs(roots.imag) > 1e-12 * max(1.0, np.max(np.abs(roots)))]
    if cplx.size == 0:
        return float(-np.max(roots.real)), 0.0
    idx = np.argmax(cplx.real)  # least damped
    return float(-cplx[idx].real), float(abs(cplx[idx].imag))
