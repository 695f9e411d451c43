import pathlib
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from openosc import (
    BathSpec,
    characteristic_roots,
    coefficient_series,
    equilibrium_occupation,
    make_system,
)
from openosc.errors import DomainError, QuadratureError
from openosc.model import _default_w_max
from openosc.scenarios import fig3_pair, fig5_pair
from openosc.transport import quadrature
from openosc.transport.asymptotics import (
    _stationary_integrals,
    asymptotic_bath_integral,
)
from openosc.transport.kernels import KernelEvaluator
from openosc.transport.quadrature import MemoryIntegrator

#: gamma_1 = gamma_2 makes s = -gamma an exact root of the quartic, so a
#: kernel pole sits on the Lorentzian pole
EQUAL_CUTOFFS = ((+1, 0.01, 10.0, 1.0), (+1, 0.01, 10.0, 1.0))
#: weak coupling with gamma 10 and 12 puts two roots about 2e-3 from -gamma
NEAR_ROOTS = ((+1, 1e-3, 10.0, 1.0), (+1, 1e-3, 12.0, 0.5))
#: the mixed strong-coupling preset of figure 1
FIG1 = ((-1, 0.10, 10.0, 1.0), (+1, 0.05, 15.0, 0.1))
#: all-fermionic, one bath at T = 0
FERMIONIC_T0 = ((-1, 0.05, 10.0, 0.0), (-1, 0.05, 12.0, 1.0))
#: a resonance of width eta ~ 1e-5 at nu ~ 1
WEAK = ((+1, 1e-5, 10.0, 1.0), (+1, 1e-5, 12.0, 0.5))
#: CI's weak config: equal cutoffs, a resonance of width ~1e-6
CI_WEAK = ((+1, 1e-6, 10.0, 1.0), (+1, 1e-6, 10.0, 1.0))


def _spec(baths):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fig1's fast-bath warning
        return make_system(1.0, *(BathSpec(*b) for b in baths))


def _spec_integrator(spec):
    return MemoryIntegrator(KernelEvaluator(characteristic_roots(spec), spec))


def _integrator(baths):
    return _spec_integrator(_spec(baths))


def _weak_integrator():
    return _integrator(EQUAL_CUTOFFS)


def test_all_zero_chunk_short_circuits():
    # at t = 0 every kernel vanishes identically; the integrator must not
    # try to resolve the roundoff noise of that cancellation
    integ = _weak_integrator()
    out = integ.integrate(np.array([0.0]))
    for I, dI in out.values():
        assert I[0] == 0.0
        assert dI[0] == 0.0
    assert integ.last_report.n_panels == 0
    assert integ.last_report.max_rel_error == 0.0


def test_memory_integrals_start_at_zero():
    integ = _weak_integrator()
    out = integ.integrate(np.array([0.0, 0.5, 1.0]))
    for I, dI in out.values():
        assert abs(I[0]) < 1e-12
        assert I[2] > I[1] > 0.0  # filling from zero
    rep = integ.last_report
    assert rep.n_panels > 0
    assert rep.max_rel_error <= 1e-7


def test_derivative_component_matches_finite_differences():
    integ = _weak_integrator()
    t = np.linspace(1.0, 3.0, 81)  # away from the early-time tail regime
    out = integ.integrate(t)
    for I, dI in out.values():
        fd = np.gradient(I, t)
        scale = np.abs(dI).max()
        assert np.abs(fd[2:-2] - dI[2:-2]).max() < 2e-3 * scale


def test_strong_system_chunk_converges():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = make_system(
            1.0,
            BathSpec(statistics=-1, alpha=0.10, gamma=10.0, temperature=1.0),
            BathSpec(statistics=+1, alpha=0.05, gamma=15.0, temperature=0.1),
        )
    ev = KernelEvaluator(characteristic_roots(spec), spec)
    integ = MemoryIntegrator(ev)
    t = np.linspace(0.0, 3.0, 31)
    out = integ.integrate(t)
    rep = integ.last_report
    assert rep.max_rel_error <= 1e-7
    I1, _ = out["bath1"]
    I2, _ = out["bath2"]
    # memory integrals are sums of |kernel|^2 against nonnegative weights
    assert I1.min() > -1e-12
    assert I2.min() > -1e-12
    assert I1[-1] > 0.01  # the fermionic channel has filled appreciably


def test_memory_integrals_finite_to_late_times():
    integ = _integrator(NEAR_ROOTS)
    out = integ.integrate(np.linspace(45.0, 50.0, 11))
    for I, dI in out.values():
        assert np.all(np.isfinite(I)) and np.all(np.isfinite(dI))
        assert I.min() > 0.0
    assert np.isfinite(integ.last_report.max_rel_error)


def _error_scales(integ, out):
    """The integrator's error scales for its own output (every bath coupled)."""
    return integ._error_scales(np.array(list(out.values())))


FROZEN_T = np.array([0.05, 0.5, 2.0, 5.0])
#: (I, dI) per bath at FROZEN_T, generated at rtol 1e-9 by the previous
#: implementation (commit 3e7a694: chunked adaptive K15/G7 panels up to the
#: cutoff plus the exactly integrated remainder beyond it)
FROZEN = {
    EQUAL_CUTOFFS: {
        "bath1": ([0.001324952405870351, 0.012383218053328524,
                   0.03355304963030524, 0.06320915896113678],
                  [0.037884131419799134, 0.013673453377390867,
                   0.01011685742543665, 0.0063157706682410095]),
        "bath2": ([0.001324952405870351, 0.012383218053328524,
                   0.03355304963030524, 0.06320915896113678],
                  [0.037884131419799134, 0.013673453377390867,
                   0.01011685742543665, 0.0063157706682410095]),
    },
    NEAR_ROOTS: {
        "bath1": ([0.00013308193699777167, 0.0012972380467480326,
                   0.003109326740971055, 0.00654190269193483],
                  [0.003820671932483772, 0.0014064609837281454,
                   0.001172319803913473, 0.0011642148336859384]),
        "bath2": ([0.00016960523471213314, 0.0012268380255784329,
                   0.001793047714965327, 0.002697992740692845],
                  [0.00467425830293853, 0.0007459952519771811,
                   0.0003010345691010855, 0.00030572086366779125]),
    },
    FIG1: {
        "bath1": ([0.01249031162738388, 0.1069891669341022,
                   0.13109828081655459, 0.1449114945913761],
                  [0.34141341787137874, 0.2131774759976334,
                   0.061352107494836376, 0.000749564137139928]),
        "bath2": ([0.010875853890833481, 0.06556765038124161,
                   0.04763609516480438, 0.05029428605058123],
                  [0.2700934668987032, 0.11441394350285729,
                   0.026460728193887045, 0.0002867628286505114]),
    },
    FERMIONIC_T0: {
        "bath1": ([0.006350589119306456, 0.04728062031011584,
                   0.030418799099143634, 0.047713611515724653],
                  [0.1763289239793417, 0.0636659767237722,
                   0.010717044440966578, -0.006240642844976409]),
        "bath2": ([0.008205439882526182, 0.053675792950300436,
                   0.06769832071044764, 0.10634753267918125],
                  [0.21943835573322742, 0.07850947399483257,
                   0.031558808220554256, -0.004436637205140262]),
    },
}


@pytest.mark.parametrize("baths", list(FROZEN))
def test_matches_the_adaptive_panels_frozen_values(baths):
    integ = _integrator(baths)
    out = integ.integrate(FROZEN_T)
    for name, ref in FROZEN[baths].items():
        for value, frozen in zip(out[name], ref):
            frozen = np.array(frozen)
            assert np.abs(value - frozen).max() <= 1e-9 * np.abs(frozen).max()


def _nearest_singularity(spec, roots, x):
    """Distance from each real x to the nearest pole or zero of the static
    integrands: i s_k, +-i gamma_b and the first Matsubara poles."""
    poles = [1j * roots, [1j * b.gamma for b in spec.baths],
             [-1j * b.gamma for b in spec.baths]]
    for b in spec.baths:
        if b.temperature > 0:
            m = (2.0 if b.statistics > 0 else 1.0) * np.pi * b.temperature
            poles.append([1j * m, -1j * m])
    return np.abs(x[:, None] - np.concatenate(poles)[None, :]).min(axis=1)


def _bisect(edges):
    """``edges`` with every panel halved."""
    return np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))


def _k15_ladder(integrand, edges):
    """int of ``integrand`` on K15 panels over ``edges``, bisected until two
    levels agree to 1e-12 of the largest value, at most four times."""
    previous = None
    for _ in range(5):
        nodes, half = quadrature._k15_nodes(edges[:-1], edges[1:])
        f = np.asarray(integrand(nodes))
        f = f.reshape((half.size, 15) + f.shape[1:])
        value = np.einsum("pk...,k,p->...", f, quadrature.WK, half)
        if previous is not None and (np.abs(value - previous).max()
                                     <= 1e-12 * np.abs(value).max()):
            return value
        previous, edges = value, _bisect(edges)
    raise AssertionError("the real-line reference did not converge")


def _beyond(integrand, w0):
    """``integrand`` on [w0, inf) in the variable u = w0/w on (0, 1], with
    the Jacobian w0/u^2."""
    def mapped(u):
        f = np.asarray(integrand(w0 / u))
        jac = w0 / (u * u)
        return f * jac.reshape(jac.shape + (1,) * (f.ndim - 1))

    return mapped


#: K15 panels in u = w0/w for ``_beyond``
BEYOND_EDGES = np.array([0.0, 0.25, 0.5, 1.0])


def _real_line_integral(integrand, spec, roots):
    """int_0^inf of ``integrand`` on the real line: a reference for the
    integrator's ray that shares no panel with it.

    K15 panels on [0, W], W the model's cutoff rule, march from 0 by
    x <- x + d(x)/2, d(x) the distance to the nearest singularity, so a
    resonance of width eta gets panels of width ~eta; beyond W the
    integrand is taken in u = W/w.
    """
    W = _default_w_max(spec)
    edges = [0.0]
    while edges[-1] < W:
        x = np.array(edges[-1:])
        edges.append(edges[-1] + 0.5 * _nearest_singularity(spec, roots, x)[0])
    edges[-1] = W
    return (_k15_ladder(integrand, np.array(edges))
            + _k15_ladder(_beyond(integrand, W), BEYOND_EDGES))


@pytest.mark.parametrize("baths", [EQUAL_CUTOFFS, FIG1])
def test_matches_brute_force_real_axis_panels(baths):
    # K15 panels of width pi/(8 t_max) on the real axis up to 10 W; the
    # truncated rest is bounded with the non-oscillatory magnitudes
    # (|c_0| + sum |c_k|)^2 and, for dI, 2 (|c_0| + sum |c_k|)
    # (w |c_0| + sum |s_k c_k|)
    integ = _integrator(baths)
    ev, t = integ.ev, np.array([0.05, 0.5, 2.0])
    w_top = 10.0 * integ.w_max
    edges = np.linspace(0.0, w_top, int(np.ceil(w_top * 8.0 * t.max() / np.pi)) + 1)
    nodes, half = quadrature._k15_nodes(edges[:-1], edges[1:])
    weights = (half[:, None] * quadrature.WK).ravel()
    M, N, dM, dN = ev.mn_block(nodes, t)
    sq = [(np.abs(M) ** 2, np.abs(N) ** 2),
          (2.0 * (M.conj() * dM).real, 2.0 * (N.conj() * dN).real)]

    def magnitude(w):
        _, cM0, cN0, cMk, cNk = ev._mn_coefficients(w)
        out = []
        for bath in ev.spec.baths:
            wn, wp = quadrature._weights(bath, w)
            parts = []
            for c0, ck in ((cM0, cMk), (cN0, cNk)):
                size = np.abs(c0) + np.abs(ck).sum(axis=1)
                rate = w * np.abs(c0) + np.abs(ev.s * ck).sum(axis=1)
                parts.append((size**2, 2.0 * size * rate))
            out.append([wn * parts[0][d] + wp * parts[1][d] for d in (0, 1)])
        return np.moveaxis(np.array(out), -1, 0)  # (n_w, n_c, 2)

    truncation = _k15_ladder(_beyond(magnitude, w_top), BEYOND_EDGES)
    out = integ.integrate(t)
    for ci, (name, bath) in enumerate(zip(out, ev.spec.baths)):
        wn, wp = quadrature._weights(bath, nodes)
        for d in (0, 1):
            ref = weights @ (wn[:, None] * sq[d][0] + wp[:, None] * sq[d][1])
            dev = np.abs(out[name][d] - ref)
            assert np.all(dev <= truncation[ci, d])
        # the check has teeth: the bound is small against the integral
        assert truncation[ci, 0] <= 1e-4 * np.abs(out[name][0]).max()


#: fig1's fermionic bath at alpha 0.2 and T 20, its bosonic bath kept: the
#: first Matsubara pole at 20 pi puts weight far out on the ray
HOT_FERMIONIC = ((-1, 0.2, 10.0, 20.0), (+1, 0.05, 15.0, 0.1))
#: the times the fixtures' ray is checked on, from t_min 1e-4 to 50
RAY_T = np.array([1e-4, 0.003, 0.1, 1.0, 5.0, 20.0, 50.0])
#: (baths, times, rtol): the fixtures, validate's system and grid, fig1 at
#: dt 1e-3 and the hot fermionic bath, the smallest ray angle theta (23
#: degrees) of the systems probed, on fig1's benchmark grid.  FIG1's budget
#: on RAY_T reads 1.03e-7, so that case alone runs with quadrature.RTOL
#: raised to 1e-6.
RAY_CASES = {
    "equal-cutoffs": (EQUAL_CUTOFFS, RAY_T, 1e-7),
    "near-roots": (NEAR_ROOTS, RAY_T, 1e-7),
    "fig1": (FIG1, RAY_T, 1e-6),
    "fermionic-t0": (FERMIONIC_T0, RAY_T, 1e-7),
    "validate": (EQUAL_CUTOFFS, np.arange(0.0, 10.0 + 0.01, 0.02), 1e-7),
    "fig1-dt1e-3": (FIG1, np.arange(0.0, 5.0 + 5e-4, 1e-3), 1e-7),
    "hot-fermionic": (HOT_FERMIONIC, np.arange(0.0, 5.0 + 0.01, 0.02), 1e-7),
}


def _every_panel(edges, *args):
    """A ``_bisected`` that bisects every ray panel."""
    return np.ones(edges.size - 1, dtype=bool)


@pytest.mark.parametrize("baths, t, rtol", list(RAY_CASES.values()),
                         ids=list(RAY_CASES))
def test_ray_self_converges_under_bisection(baths, t, rtol, monkeypatch):
    # the budget covers a run with every ray panel bisected and a run on
    # panels bisected once more, again every one of them bisected
    monkeypatch.setattr(quadrature, "RTOL", rtol)
    base = _integrator(baths)
    out = base.integrate(t)
    budget = base.last_report.max_rel_error * _error_scales(base, out)
    monkeypatch.setattr(quadrature, "_bisected", _every_panel)
    once = _integrator(baths).integrate(t)
    edges = quadrature._ray_edges
    monkeypatch.setattr(quadrature, "_ray_edges",
                        lambda *args: _bisect(edges(*args)))
    twice = _integrator(baths).integrate(t)
    for ci, name in enumerate(out):
        assert np.all(np.isfinite(out[name]))
        for finer in (once, twice):
            assert np.all(np.abs(np.array(out[name]) - finer[name])
                          <= budget[ci])


@pytest.mark.parametrize("baths, t, rtol", list(RAY_CASES.values()),
                         ids=list(RAY_CASES))
def test_unbisected_ray_panels_do_not_move_under_bisection(baths, t, rtol,
                                                          monkeypatch):
    # the panels the estimate leaves out, one at a time: bisecting one
    # moves I and dI by at most 1e-3 of the budget
    monkeypatch.setattr(quadrature, "RTOL", rtol)
    integ = _integrator(baths)
    out = integ.integrate(t)
    pos = t > 0.0
    budget = (integ.last_report.max_rel_error
              * _error_scales(integ, out)[..., pos])
    tp = t[pos]
    edges = quadrature._ray_edges(integ._R, min(integ._r_min, 1.0 / tp.max()),
                                  1.0 / tp.min())
    kept = ~quadrature._bisected(edges, integ._R, integ._band)
    assert kept.any()
    E = np.exp(np.multiply.outer(integ.ev.s, tp))
    for lo, hi in zip(edges[:-1][kept], edges[1:][kept]):
        mid = 0.5 * (lo + hi)
        # the panel, then its halves
        w, f = integ._ray_nodes(np.array([lo, lo, mid]), np.array([hi, mid, hi]))
        X = np.exp(1j * np.multiply.outer(w, tp))
        dC = (f[15:].T @ X[15:] - f[:15].T @ X[:15]).reshape(2, 2, 4, tp.size)
        change = 2.0 * (dC * E).sum(axis=2).real
        assert np.all(np.abs(change) <= 1e-3 * budget)


def _quartic_stationary_integral(spec, bath_index):
    """I_b(inf) from the characteristic quartic q, node by node:

        (alpha_b gamma_b^2/pi) int_0^inf dw w (gamma_partner^2 + w^2)
        / |q(-iw)|^2 [(omega + w)^2 n_b(w) + (omega - w)^2 (1 + eps_b n_b(w))]

    the resolvent form of the stationary integral, independent of the
    kernels' partial fractions that the static parts are assembled from.
    q taken from its coefficients loses digits near a narrow resonance
    (3.4e-10 relative at alpha 1e-6, against 8e-14 with q in factored
    form), which the fixtures here, at alpha >= 1e-3, stay clear of.
    """
    bath, partner = spec.baths[bath_index], spec.baths[1 - bath_index]
    rootset = characteristic_roots(spec)
    a, g, w = bath.alpha, bath.gamma, spec.omega

    def integrand(wq):
        qv = np.abs(np.polyval(rootset.quartic_coefficients, -1j * wq)) ** 2
        n = equilibrium_occupation(wq, bath.temperature, bath.statistics)
        bracket = (w + wq) ** 2 * n + (w - wq) ** 2 * (1.0 + bath.statistics * n)
        return (a * g * g / np.pi) * wq * (partner.gamma**2 + wq**2) / qv * bracket

    return float(_real_line_integral(integrand, spec, rootset.roots))


#: the fig3 and fig5 pairs' systems, as (pair builder, system index)
PAIR_SYSTEMS = [(fig3_pair, 0), (fig3_pair, 1), (fig5_pair, 0), (fig5_pair, 1)]


def _stationary_spec(baths):
    """The system of a bath fixture or of a ``PAIR_SYSTEMS`` entry."""
    if not callable(baths[0]):
        return _spec(baths)
    builder, index = baths
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return builder().systems[index]


@pytest.mark.parametrize("baths", [EQUAL_CUTOFFS, NEAR_ROOTS, FERMIONIC_T0,
                                   FIG1, *PAIR_SYSTEMS])
def test_static_part_is_the_stationary_integral(baths):
    # every other term of I(t) decays, so S_0 is I(inf); the integrator and
    # the stationary limits both read it from the static-part builder
    spec = _stationary_spec(baths)
    integ = _spec_integrator(spec)
    for ci in range(2):
        reference = _quartic_stationary_integral(spec, ci)
        assert integ._S[ci, 0].real == pytest.approx(reference, rel=1e-12)
        assert asymptotic_bath_integral(spec, ci) == pytest.approx(
            reference, rel=1e-12)


def _extended(edges):
    """``edges`` with two more panels at each end of the ray's inner ones,
    each a factor 2 in r = R v/(1 - v)."""
    inner = edges[1:-1]
    for _ in range(2):
        lo, hi = inner[0], inner[-1]
        inner = np.concatenate([[lo / (2.0 - lo)], inner,
                                [2.0 * hi / (1.0 + hi)]])
    return np.concatenate([[0.0], inner, [1.0]])


#: the stationary integrals' systems: fig1, validate's, both of fig5's and
#: CI's weak config
STATIONARY_CASES = {
    "fig1": FIG1,
    "validate": EQUAL_CUTOFFS,
    "fig5-system1": (fig5_pair, 0),
    "fig5-system2": (fig5_pair, 1),
    "ci-weak": CI_WEAK,
}


@pytest.mark.parametrize("baths", list(STATIONARY_CASES.values()),
                         ids=list(STATIONARY_CASES))
def test_stationary_error_covers_a_tighter_build(baths, monkeypatch):
    # every part of the static build, S_0 (the stationary integral) first,
    # moves by at most its error estimate plus rounding on its own size
    # when every ray panel is bisected and the ray reaches two panels
    # further in and out; for S_0 that sum is the stationary_error the
    # asymptotics command records
    spec = _stationary_spec(baths)
    recorded = np.array(_stationary_integrals(spec)[1])
    ev = KernelEvaluator(characteristic_roots(spec), spec)
    S, S_err, n_panels = quadrature.integrate_static(ev)
    edges = quadrature._ray_edges
    monkeypatch.setattr(quadrature, "_ray_edges",
                        lambda *args: _bisect(_extended(edges(*args))))
    tight, _, tight_panels = quadrature.integrate_static(ev)
    assert tight_panels == 2 * n_panels + 24
    assert np.all(np.abs(tight - S)
                  <= S_err + quadrature._ROUNDING * np.abs(S))
    assert np.all(np.abs(tight[:, 0] - S[:, 0]) <= recorded)


def test_uncoupled_bath_has_exact_zero_stationary_integral():
    # mixed systems are ordered fermionic first, so bath 1 is the uncoupled one
    spec = _spec(((-1, 0.0, 10.0, 1.0), (+1, 0.01, 12.0, 0.5)))
    assert asymptotic_bath_integral(spec, 0) == 0.0
    assert asymptotic_bath_integral(spec, 1) == pytest.approx(
        _quartic_stationary_integral(spec, 1), rel=1e-12)


def test_uncoupled_bath_gives_exact_zero():
    integ = _integrator(((+1, 0.0, 10.0, 1.0), (+1, 0.01, 12.0, 0.5)))
    out = integ.integrate(np.array([0.0, 0.01, 1.0, 20.0]))
    I1, dI1 = out["bath1"]
    assert np.all(I1 == 0.0) and np.all(dI1 == 0.0)
    assert integ.last_report.tail_bound["bath1"] == 0.0
    I2, dI2 = out["bath2"]
    assert np.all(np.isfinite(I2)) and np.all(np.isfinite(dI2))
    assert I2[1:].min() > 0.0
    assert np.isfinite(integ.last_report.max_rel_error)


def test_budget_above_rtol_raises(monkeypatch):
    t = np.array([0.5, 1.0])
    integ = _weak_integrator()
    integ.integrate(t)
    budget = integ.last_report.max_rel_error
    assert 0.0 < budget <= 1e-7
    monkeypatch.setattr(quadrature, "RTOL", 0.5 * budget)
    with pytest.raises(QuadratureError, match="budget") as info:
        integ.integrate(t)
    assert info.value.achieved == budget


def test_fine_short_grid_meets_the_default_rtol():
    # the parts cancel as t -> 0; the error scale's floor is taken against
    # the stationary value S_0 as well as the grid's largest value
    integ = _weak_integrator()
    out = integ.integrate(np.arange(0.0, 0.01 + 5e-5, 1e-4))
    assert integ.last_report.max_rel_error <= 1e-7
    for I, dI in out.values():
        assert I[0] == 0.0 and dI[0] == 0.0
        assert np.all(np.diff(I) > 0.0)


def _quadratic_static_parts(integ):
    """S_0 and the S_jk integrated node by node from |c_0|^2 and c_j c_k*.

    The products of the kernel coefficients at every node, on the real
    line: an independent route, on another contour, to the parts the
    integrator assembles from resolvent integrals on its ray.
    """
    ev = integ.ev

    def integrand(w):
        _, cM0, cN0, cMk, cNk = ev._mn_coefficients(w)
        MM = (cMk[:, :, None] * cMk[:, None, :].conj()).reshape(-1, 16)
        NN = (cNk[:, :, None] * cNk[:, None, :].conj()).reshape(-1, 16)
        out = []
        for bath in ev.spec.baths:
            wn, wp = quadrature._weights(bath, w)
            s0 = wn * np.abs(cM0) ** 2 + wp * np.abs(cN0) ** 2
            out.append(np.concatenate(
                [s0[:, None], wn[:, None] * MM + wp[:, None] * NN], axis=1))
        return np.stack(out, axis=1)

    return _real_line_integral(integrand, ev.spec, ev.s)


@pytest.mark.parametrize("baths", [EQUAL_CUTOFFS, NEAR_ROOTS, FERMIONIC_T0,
                                   FIG1])
def test_assembled_static_parts_match_the_quadratic_integrand(baths):
    integ = _integrator(baths)
    ref = _quadratic_static_parts(integ)
    assert np.abs(integ._S - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("baths", [EQUAL_CUTOFFS, NEAR_ROOTS, FERMIONIC_T0,
                                   FIG1])
def test_static_error_covers_bisected_panels(baths, monkeypatch):
    # on bisected ray panels the static parts are taken one bisection
    # finer; the parts' bound is their estimate plus the rounding allowance
    # the budget takes on their summed magnitude (its t -> 0 form, where
    # every e^{(s_j + s_k*) t} is 1)
    t = np.array([0.003, 0.1, 1.0, 5.0, 20.0, 50.0])
    base = _integrator(baths)
    out = base.integrate(t)
    budget = base.last_report.max_rel_error * _error_scales(base, out)
    edges = quadrature._ray_edges
    monkeypatch.setattr(quadrature, "_ray_edges",
                        lambda *args: _bisect(edges(*args)))
    fine = _integrator(baths)
    assert fine._static_panels > base._static_panels
    rounding = quadrature._ROUNDING * np.abs(base._S).sum(axis=1, keepdims=True)
    assert np.all(np.abs(fine._S - base._S) <= base._S_err + rounding)
    fine_out = fine.integrate(t)
    for ci, name in enumerate(out):
        assert np.all(np.abs(np.array(out[name]) - fine_out[name]) <= budget[ci])


#: weak coupling, where the static parts cancel by many orders of magnitude
#: at small t: the fixture WEAK, its baths at alpha 1e-6 and 1e-8, and CI's
#: weak config on t <= 5 at dt 0.02, and the baths at alpha 1e-6 on the
#: default [run] grid (t <= 20, dt 0.005), where the budget read 8.457e-8,
#: 85% of RTOL, at t = 0.005
WEAK_1E6 = ((+1, 1e-6, 10.0, 1.0), (+1, 1e-6, 12.0, 0.5))
WEAK_T = np.arange(0.0, 5.0 + 0.01, 0.02)
WEAK_CASES = {
    "weak": (WEAK, WEAK_T),
    "weak-1e-6": (WEAK_1E6, WEAK_T),
    "weak-1e-6-default-grid": (WEAK_1E6, np.arange(0.0, 20.0 + 0.0025, 0.005)),
    "weak-1e-8": (((+1, 1e-8, 10.0, 1.0), (+1, 1e-8, 12.0, 0.5)), WEAK_T),
    "ci-weak": (CI_WEAK, WEAK_T),
}


@pytest.mark.parametrize("baths, t", list(WEAK_CASES.values()),
                         ids=list(WEAK_CASES))
def test_weak_coupling_meets_the_default_rtol(baths, t, monkeypatch):
    # the series runs at rtol 1e-7, and its budget covers a run on bisected
    # ray panels, which carry the static parts and the cross terms
    spec = _spec(baths)
    series = coefficient_series(spec, t)
    assert series.quadrature_report.max_rel_error <= 1e-7
    base = _spec_integrator(spec)
    out = base.integrate(t)
    assert np.array_equal(series.memory_integrals[0], out["bath1"][0])
    budget = base.last_report.max_rel_error * _error_scales(base, out)
    edges = quadrature._ray_edges
    monkeypatch.setattr(quadrature, "_ray_edges",
                        lambda *args: _bisect(edges(*args)))
    finer = _spec_integrator(spec).integrate(t)
    for ci, name in enumerate(out):
        assert np.all(np.abs(np.array(out[name]) - finer[name]) <= budget[ci])


#: ray-like nodes:on the real axis, at a shallow angle and near the
#: imaginary axis, small enough that e^{iwt} stays a normal number
PHASE_NODES = np.concatenate([np.geomspace(1e-3, 50.0, 40),
                              np.geomspace(1e-3, 50.0, 40) * np.exp(0.3j),
                              np.geomspace(1e-3, 50.0, 40) * np.exp(1.5j)])


@pytest.mark.parametrize("t", [
    np.arange(1, 400) * 0.03,  # an arange grid that starts at dt
    np.linspace(0.7, 11.0, 333),
    np.arange(1, 1301) * 0.0075,
], ids=["arange", "linspace", "long"])
def test_factored_phase_table_matches_the_exponentials(t):
    # the fine factors of the whole grid serve every slice of it, and every
    # prefix of the nodes
    third = t.size // 3
    fine = quadrature._fine_factors(1j * PHASE_NODES, t)
    for sl, n_w in ((slice(0, third), 120), (slice(third, 2 * third), 50),
                    (slice(2 * third, None), 120)):
        w = PHASE_NODES[:n_w]
        table = quadrature._exp_table(1j * w, t[sl], fine).reshape(
            -1, n_w)[:t[sl].size]
        wt = np.multiply.outer(t[sl], w)
        direct = np.exp(1j * wt)
        assert not np.array_equal(table, direct)  # the factored path ran
        bound = 4.0 * np.finfo(float).eps * (1.0 + np.abs(wt)) * np.abs(direct)
        assert np.all(np.abs(table - direct) <= bound)


@pytest.mark.parametrize("t", [
    FROZEN_T,
    np.array([0.0, 0.01, 1.0, 20.0]),
    # a uniform grid with one time 1e-9 off, the tolerance that serves the
    # stepper's step check, against a few ulp here
    np.arange(1, 200) * 0.05 * (1.0 + 1e-9 * (np.arange(1, 200) == 77)),
    # uniform but decreasing: its fine factors would grow
    np.linspace(5.0, 1.0, 100),
], ids=["frozen", "uneven", "perturbed", "decreasing"])
def test_uneven_grid_takes_the_exponentials(t):
    fine = quadrature._fine_factors(1j * PHASE_NODES, t)
    assert fine is None
    direct = np.exp(1j * np.multiply.outer(t, PHASE_NODES))
    table = quadrature._exp_table(1j * PHASE_NODES, t, fine)
    assert np.array_equal(table.reshape(-1, PHASE_NODES.size)[:t.size],
                          direct)


@pytest.mark.parametrize("baths", [EQUAL_CUTOFFS, FIG1])
def test_factored_and_direct_tables_give_the_same_integrals(baths):
    # the inserted midpoint makes the grid uneven, so the ray's table takes
    # one exponential per entry, while t_min and t_max, and so the ray's
    # nodes, stay the same.  NEAR_ROOTS is left out: on t <= 5 its I is
    # small against the parts that cancel in it, and the midpoint moves I
    # by 1.7e-14 of max|I| even when both grids take the exponentials
    integ = _integrator(baths)
    t = np.arange(0.0, 5.0 + 0.005, 0.01)
    out = integ.integrate(t)
    uneven = integ.integrate(np.insert(t, 250, 0.5 * (t[249] + t[250])))
    for name, pair in out.items():
        for value, other in zip(pair, uneven[name]):
            other = np.delete(other, 250)
            assert np.abs(value - other).max() <= 1e-14 * np.abs(value).max()


#: (baths, times) of the pruning check: the fixtures on validate's grid,
#: fig1's preset grid, an uneven grid, the 1300-time grid above, and fig1's
#: preset grid shuffled, on which each slice's first time is not its
#: smallest
PRUNE_T = np.arange(0.0, 10.0 + 0.01, 0.02)
PRUNE_CASES = {
    "equal-cutoffs": (EQUAL_CUTOFFS, PRUNE_T),
    "near-roots": (NEAR_ROOTS, PRUNE_T),
    "fig1": (FIG1, PRUNE_T),
    "fermionic-t0": (FERMIONIC_T0, PRUNE_T),
    "fig1-preset": (FIG1, np.arange(0.0, 20.0 + 0.005, 0.01)),
    "uneven": (FIG1, np.geomspace(1e-3, 20.0, 900)),
    "long": (FIG1, np.arange(1, 1301) * 0.0075),
    "unsorted": (FIG1, np.random.default_rng(7).permutation(
        np.arange(0.0, 20.0 + 0.005, 0.01))),
}


@pytest.mark.parametrize("baths, t", list(PRUNE_CASES.values()),
                         ids=list(PRUNE_CASES))
def test_pruned_contraction_matches_the_full_tables(baths, t, monkeypatch):
    # each group's share of C on each time slice, against the table over
    # all of the group's nodes: within the bound on the part left out plus
    # the rounding allowance, and within 1e-15 of the group's max|C| on the
    # grid.  The slice's size bounds the kept nodes' magnitudes at every
    # time of the slice
    integ = _integrator(baths)
    tp = t[t > 0.0]
    groups = integ._ray_groups(tp)
    bounds = quadrature._slices(tp.size, max(len(w) for w, _, _ in groups))
    dev_max, C_max = np.zeros(3), np.zeros(3)
    for g, (w, f, f_abs) in enumerate(groups):
        fine = quadrature._fine_factors(1j * w, tp)
        for a, b, C, kept, drop, size in quadrature._contract(w, f, f_abs, tp,
                                                              bounds, fine):
            full = quadrature._exp_table(1j * w, tp[a:b], fine).reshape(
                -1, len(w))[:b - a]
            ref = full @ f
            dev = np.abs(C - ref)
            assert np.all(dev <= drop + quadrature._ROUNDING
                          * (np.abs(full) @ f_abs))
            assert np.all(np.abs(full[:, :kept]) @ f_abs[:kept]
                          <= size * (1.0 + 1e-12))
            # the floor: sums of subnormal numbers carry no relative accuracy
            left_out = np.abs(full[:, kept:] @ f[kept:])
            assert np.all(left_out <= drop * (1.0 + 1e-12) + 1e-300)
            dev_max[g] = max(dev_max[g], dev.max())
            C_max[g] = max(C_max[g], np.abs(ref).max())
    assert np.all(dev_max <= 1e-15 * C_max)
    # and the budget covers the move of I and dI against the full tables
    out = integ.integrate(t)
    budget = integ.last_report.max_rel_error * _error_scales(integ, out)
    monkeypatch.setattr(quadrature, "_DROP", 0.0)
    full = _integrator(baths).integrate(t)
    for ci, name in enumerate(out):
        assert np.all(np.abs(np.array(out[name]) - full[name]) <= budget[ci])


def test_pruning_drops_entries_on_fig1s_preset_grid():
    integ = _integrator(FIG1)
    integ.integrate(np.arange(0.0, 20.0 + 0.005, 0.01))
    report = integ.last_report
    assert 0 < report.ray_entries_kept < report.ray_entries


def test_ray_tables_share_one_block():
    # the largest allocation of a warm integrate is the block that holds
    # each e^{iwt} table in turn: 16 bytes per entry.  On fig1's benchmark
    # grid (t <= 5, dt 0.02) the rest of the call stays below the block's
    # size, so the traced peak stays below twice the block; 8 more bytes
    # per entry beside it, such as the tables' moduli, would exceed it
    integ = _integrator(FIG1)
    t = np.arange(0.0, 5.0 + 0.01, 0.02)
    integ.integrate(t)
    nodes = max(len(w) for w, _, _ in integ._ray_groups(t[1:]))
    longest = max(np.diff(quadrature._slices(t.size - 1, nodes)))
    rows = quadrature._ROWS  # the table holds whole blocks of this many
    block = 16 * (-(-longest // rows) * rows) * nodes
    tracemalloc.start()
    try:
        integ.integrate(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * block


def _other_threads_cpu_ticks():
    """utime + stime ticks of every thread of this process but the calling
    one, from /proc/self/task/*/stat."""
    ticks = 0
    for task in pathlib.Path("/proc/self/task").iterdir():
        if int(task.name) != threading.get_native_id():
            # the fields after the command's closing parenthesis start at
            # the state; utime and stime are the 12th and 13th
            fields = (task / "stat").read_text().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
    return ticks


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or len(list(pathlib.Path("/proc/self/task").iterdir())) < 2,
    reason="needs Linux and a second thread")
def test_series_products_stay_on_the_calling_thread():
    # every matrix product of a series is small enough in its time rows
    # (_ROWS in the ray's contraction, 1024 in the static parts) that
    # OpenBLAS runs it on the calling thread: its workers, and any other
    # thread, use no CPU meanwhile.  The sleep lets a worker that an
    # earlier product woke stop spinning
    spec = _spec(FIG1)
    grids = [np.arange(0.0, 5.0 + 0.01, 0.02),
             np.arange(0.0, 20.0 + 0.005, 0.01),
             np.arange(0.0, 20.0 + 0.0025, 0.005)]
    time.sleep(0.5)
    before = _other_threads_cpu_ticks()
    for t in grids:
        for _ in range(3):
            coefficient_series(spec, t)
    assert _other_threads_cpu_ticks() == before


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_integrate_rejects_times_that_are_not_finite(bad):
    with pytest.raises(DomainError, match=repr(float(bad))):
        _integrator(FIG1).integrate(np.array([0.0, 1.0, bad]))


def test_integrate_rejects_negative_times():
    # a negative time would read I = dI = 0, as t = 0 does
    with pytest.raises(DomainError, match="got -1.0"):
        _integrator(FIG1).integrate(np.array([-1.0, 0.0, 1.0]))
