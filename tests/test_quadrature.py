import warnings

import numpy as np
import pytest

from openosc import BathSpec, characteristic_roots, make_system
from openosc.errors import QuadratureError
from openosc.model import _default_w_max
from openosc.transport import quadrature
from openosc.transport.coefficients import _bath_components, coefficient_series
from openosc.transport.kernels import KernelEvaluator
from openosc.transport.quadrature import MemoryIntegrator, integrate_static

#: gamma_1 = gamma_2 makes s = -gamma an exact root of the quartic, so a
#: kernel pole sits on the Lorentzian pole
EQUAL_CUTOFFS = ((+1, 0.01, 10.0, 1.0), (+1, 0.01, 10.0, 1.0))
#: weak coupling with gamma 10 and 12 puts two roots about 2e-3 from -gamma
NEAR_ROOTS = ((+1, 1e-3, 10.0, 1.0), (+1, 1e-3, 12.0, 0.5))


def _integrator(baths, rtol=1e-7, **kw):
    spec = make_system(1.0, *(BathSpec(*b) for b in baths))
    ev = KernelEvaluator(characteristic_roots(spec), spec)
    return MemoryIntegrator(ev, _bath_components(spec), rtol=rtol, **kw)


def _weak_integrator(rtol=1e-7, **kw):
    return _integrator(EQUAL_CUTOFFS, rtol=rtol, **kw)


def test_static_panels_exact_on_polynomials():
    edges = np.array([0.0, 0.7, 1.3, 2.0])
    value, err = integrate_static(lambda w: 5.0 * w**4 - w + 2.0, edges)
    exact = 2.0**5 - 0.5 * 2.0**2 + 2.0 * 2.0
    assert value == pytest.approx(exact, rel=1e-14)
    assert err <= 1e-10 * abs(exact)


def test_static_panels_on_lorentzian():
    # int_0^W dw 1/(1+w^2) = arctan(W); edges deliberately coarse far out
    edges = np.concatenate([np.linspace(0.0, 10.0, 41),
                            np.geomspace(10.0, 1000.0, 20)])
    value, _ = integrate_static(lambda w: 1.0 / (1.0 + w * w), np.unique(edges))
    assert value == pytest.approx(np.arctan(1000.0), rel=1e-12)


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


def test_self_convergence_between_tolerances():
    t = np.linspace(0.0, 2.0, 41)
    coarse = _weak_integrator(rtol=1e-5)
    fine = _weak_integrator(rtol=1e-8)
    out_c = coarse.integrate(t)
    out_f = fine.integrate(t)
    for name in out_c:
        Ic, dIc = out_c[name]
        If, dIf = out_f[name]
        scale_I = max(np.abs(If).max(), 1e-12)
        assert np.abs(Ic - If).max() <= 3e-5 * scale_I
        scale_dI = max(np.abs(dIf).max(), 1.0 * scale_I)
        assert np.abs(dIc - dIf).max() <= 3e-2 * scale_dI


def test_derivative_component_matches_finite_differences():
    integ = _weak_integrator()
    t = np.linspace(1.0, 3.0, 81)  # away from the early-time tail regime
    out = integ.integrate(t)
    for I, dI in out.values():
        fd = np.gradient(I, t)
        scale = np.abs(dI).max()
        assert np.abs(fd[2:-2] - dI[2:-2]).max() < 2e-3 * scale


def test_every_chunk_uses_the_model_cutoff():
    spec = _weak_integrator().ev.spec
    series = coefficient_series(spec, np.arange(0.0, 3.0, 0.02),
                                w_max_factor=1.5)
    assert len(series.quadrature_reports) > 1
    for rep in series.quadrature_reports:
        assert rep.w_max == 1.5 * _default_w_max(spec)


def test_w_max_factor_scales_initial_cutoff():
    a = _weak_integrator()
    b = _weak_integrator(w_max_factor=2.0)
    assert b.w_max == pytest.approx(2.0 * a.w_max, rel=1e-12)


def test_strong_system_chunk_converges():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = make_system(
            1.0,
            BathSpec(statistics=-1, alpha=0.10, gamma=10.0, temperature=1.0),
            BathSpec(statistics=+1, alpha=0.05, gamma=15.0, temperature=0.1),
        )
    ev = KernelEvaluator(characteristic_roots(spec), spec)
    integ = MemoryIntegrator(ev, _bath_components(spec), rtol=1e-7)
    t = np.linspace(0.0, 3.0, 31)
    out = integ.integrate(t)
    rep = integ.last_report
    assert rep.max_rel_error <= 1e-7
    assert rep.n_panels < MemoryIntegrator.MAX_PANELS
    I1, _ = out["bath1"]
    I2, _ = out["bath2"]
    # memory integrals are sums of |kernel|^2 against nonnegative weights
    assert I1.min() > -1e-12
    assert I2.min() > -1e-12
    assert I1[-1] > 0.01  # the fermionic channel has filled appreciably


def _bisected(edges, times):
    for _ in range(times):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))
    return edges


@pytest.mark.parametrize("baths", [EQUAL_CUTOFFS, NEAR_ROOTS])
def test_remainder_splits_at_twice_the_cutoff(baths):
    # R(W) = int_W^2W (K15 panels on the real axis) + R(2W)
    at_w = _integrator(baths)
    at_2w = _integrator(baths, w_max_factor=2.0)
    w_cut, ev = at_w.w_max, at_w.ev
    t = np.array([0.0, 1e-3, 0.01, 0.05, 0.1])

    def integrand(w):
        _, N, _, dN = ev.mn_block(w, t)
        g = np.stack([c.spectral_weight(w) for c in at_w.components], axis=1)
        f = np.stack([np.abs(N) ** 2, 2.0 * (N.conj() * dN).real], axis=1)
        return g[:, :, None, None] * f[:, None]

    panels, panels_err = integrate_static(
        integrand, np.linspace(w_cut, 2.0 * w_cut, 101))
    r1, b1 = at_w._remainder(t)
    r2, b2 = at_2w._remainder(t)
    budget = b1 + b2 + panels_err + quadrature._ROUNDING * np.abs(panels)
    assert np.all(np.abs(r1 - (panels + r2)) <= budget)
    assert np.abs(r1).max() > 1e3 * budget.max()  # the check has teeth


@pytest.mark.parametrize("baths", [EQUAL_CUTOFFS, NEAR_ROOTS])
def test_remainder_self_converges_under_bisection(baths, monkeypatch):
    t = np.array([0.0, 1e-4, 0.003, 0.1, 1.0, 5.0, 20.0, 50.0])
    base = _integrator(baths)
    value, bound = base._remainder(t)
    contour = quadrature._contour_edges
    monkeypatch.setattr(quadrature, "_contour_edges",
                        lambda w, tt: _bisected(contour(w, tt), 3))
    monkeypatch.setattr(quadrature, "_RAY_EDGES",
                        _bisected(quadrature._RAY_EDGES, 3))
    fine, _ = _integrator(baths)._remainder(t)
    assert np.all(np.isfinite(value)) and np.all(np.isfinite(bound))
    assert np.all(np.abs(value - fine) <= bound)


def test_memory_integrals_finite_to_late_times():
    integ = _integrator(NEAR_ROOTS)
    out = integ.integrate(np.linspace(45.0, 50.0, 11))
    for I, dI in out.values():
        assert np.all(np.isfinite(I)) and np.all(np.isfinite(dI))
        assert I.min() > 0.0
    assert np.isfinite(integ.last_report.max_rel_error)


def test_uncoupled_bath_has_zero_remainder():
    integ = _integrator(((+1, 0.0, 10.0, 1.0), (+1, 0.01, 12.0, 0.5)))
    value, bound = integ._remainder(np.array([0.0, 0.01, 1.0, 20.0]))
    assert np.all(value[0] == 0.0) and np.all(bound[0] == 0.0)
    assert np.all(np.isfinite(value)) and np.abs(value[1]).max() > 0.0


def test_cutoff_factor_invariance_within_budgets():
    t = np.linspace(0.0, 3.0, 31)
    runs = [_weak_integrator(w_max_factor=f) for f in (1.0, 2.0)]
    outs = [integ.integrate(t) for integ in runs]
    reps = [integ.last_report for integ in runs]
    rel = sum(r.max_rel_error for r in reps)
    for name in outs[0]:
        tails = sum(r.tail_bound[name] for r in reps)
        I, dI = outs[1][name]
        ref = np.abs(I).max()
        dref = max(runs[0]._Omega * ref, np.abs(dI).max())
        for ch, scale in ((0, np.maximum(np.abs(I), 1e-6 * ref)),
                          (1, np.maximum(np.abs(dI), 1e-3 * dref))):
            diff = np.abs(outs[0][name][ch] - outs[1][name][ch])
            assert np.all(diff <= rel * scale + tails)


def test_remainder_missing_its_share_raises():
    # a cutoff at 2 T drops n(W) ~ 0.16 of the hot bath's remainder, whose
    # bound then exceeds rtol/10 of the integral
    integ = _integrator(((+1, 0.01, 10.0, 100.0), (+1, 0.01, 10.0, 1.0)),
                        w_max_factor=0.1)
    with pytest.raises(QuadratureError, match="remainder"):
        integ.integrate(np.array([0.5, 1.0]))


def test_panel_budget_guards_the_initial_layout():
    integ = _weak_integrator()
    integ.MAX_PANELS = 10
    with pytest.raises(QuadratureError, match="panel budget"):
        integ.integrate(np.array([0.5, 1.0]))
