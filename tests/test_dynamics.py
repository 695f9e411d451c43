import warnings

import numpy as np
import pytest

from openosc import (
    BathSpec,
    antiphase_metric,
    delta_dissipation,
    detect_stationarity,
    estimate_period,
    evolve,
    evolve_coupled,
    make_system,
)
from openosc.errors import (
    DomainError,
    InsufficientDataError,
    MomentBlowupError,
    UndefinedMetricError,
)
from openosc.transport.coefficients import CoefficientSeries


def _toy_spec():
    return make_system(1.0,
                       BathSpec(statistics=+1, alpha=1e-3, gamma=10.0, temperature=1.0),
                       BathSpec(statistics=+1, alpha=1e-3, gamma=10.0, temperature=1.0))


def _toy_series(t, lam, dif):
    """Coefficient container with prescribed friction/diffusion arrays."""
    t = np.asarray(t, dtype=float)
    lam = np.broadcast_to(np.asarray(lam, dtype=float), t.shape).copy()
    dif = np.broadcast_to(np.asarray(dif, dtype=float), t.shape).copy()
    half = 0.5 * dif
    zero = np.zeros_like(t)
    return CoefficientSeries(t=t, friction=lam, diffusion=dif,
                             diffusion_parts=(half, half.copy()),
                             memory_integrals=(zero, zero.copy()),
                             ratio=np.full_like(t, np.nan),
                             amplitudes=None, quadrature_reports=[])


def _run_constant(dt, lam0=0.9, dif0=0.45, n0=2.0, t_max=5.0):
    t = np.arange(0.0, t_max + 0.5 * dt, dt)
    series = _toy_series(t, lam0, dif0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = evolve(series, _toy_spec(), n0)
    exact = dif0 / lam0 + (n0 - dif0 / lam0) * np.exp(-2.0 * lam0 * t)
    return np.abs(traj.occupations[0] - exact).max()


def test_stepper_is_fourth_order():
    e1 = _run_constant(0.1)
    e2 = _run_constant(0.05)
    assert e1 / e2 == pytest.approx(16.0, rel=0.2)


def test_oscillating_friction_closed_form():
    # dn/dt = -2 lambda(t) n with lambda = a + b sin(c t) integrates to
    # n0 exp(-2 a t + (2b/c)(cos(c t) - 1))
    a, b, c = 0.4, 0.25, 3.0
    dt = 0.005
    t = np.arange(0.0, 4.0 + 0.5 * dt, dt)
    series = _toy_series(t, a + b * np.sin(c * t), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = evolve(series, _toy_spec(), 1.0)
    exact = np.exp(-2.0 * a * t + (2.0 * b / c) * (np.cos(c * t) - 1.0))
    assert np.abs(traj.occupations[0] - exact).max() < 1e-9


def test_rates_and_dissipation_bookkeeping():
    dt = 0.01
    t = np.arange(0.0, 3.0 + 0.5 * dt, dt)
    lam0, dif0, n0 = 0.8, 0.2, 1.5
    series = _toy_series(t, lam0, dif0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = evolve(series, _toy_spec(), n0)
    n = traj.occupations[0]
    # reported rate must equal the equation of motion evaluated on the output
    assert np.allclose(traj.rates[0], -2.0 * lam0 * n + 2.0 * dif0,
                       rtol=0, atol=1e-12)
    # dissipated energy is the integral of 2 Omega lambda n
    expected_E = np.concatenate([[0.0], np.cumsum(
        0.5 * dt * (2.0 * lam0 * n[1:] + 2.0 * lam0 * n[:-1]))])
    assert np.allclose(traj.dissipation[0], expected_E, rtol=0, atol=1e-12)
    assert traj.metadata["n0"] == n0


def test_evolve_validation():
    t = np.linspace(0.0, 1.0, 11)
    series = _toy_series(t, 0.5, 0.1)
    with pytest.raises(DomainError):
        evolve(series, _toy_spec(), -0.5)
    bad = _toy_series(np.array([0.0, 0.1, 0.3, 0.6]), 0.5, 0.1)
    with pytest.raises(DomainError):
        evolve(bad, _toy_spec(), 0.0)


def test_blowup_guard():
    t = np.arange(0.0, 8.0, 0.01)
    series = _toy_series(t, -5.0, 0.0)  # negative friction: exponential growth
    with pytest.raises(MomentBlowupError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evolve(series, _toy_spec(), 1.0)


def test_envelope_flag_and_warning():
    t = np.linspace(0.0, 1.0, 101)
    series = _toy_series(t, 0.0, 0.0)
    spec = _toy_spec()
    with pytest.warns(UserWarning, match="envelope"):
        traj = evolve(series, spec, 50.0)  # far above 10 x n_eq
    assert traj.metadata["envelope_exceeded"] is True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quiet = evolve(series, spec, 0.1)
    assert quiet.metadata["envelope_exceeded"] is False


def test_coupled_validation():
    t = np.linspace(0.0, 1.0, 11)
    s1 = _toy_series(t, 0.5, 0.1)
    s2 = _toy_series(t, 0.3, 0.2)
    spec = _toy_spec()
    with pytest.raises(DomainError):
        evolve_coupled(s1, s2, spec, spec, -0.1, (0.0, 0.0))
    with pytest.raises(DomainError):
        evolve_coupled(s1, s2, spec, spec, 0.1, (-1.0, 0.0))
    s3 = _toy_series(np.linspace(0.0, 2.0, 11), 0.5, 0.1)
    with pytest.raises(DomainError):
        evolve_coupled(s1, s3, spec, spec, 0.1, (0.0, 0.0))


def test_zero_coupling_reduces_to_independent_runs():
    dt = 0.01
    t = np.arange(0.0, 4.0 + 0.5 * dt, dt)
    s1 = _toy_series(t, 0.7, 0.3)
    s2 = _toy_series(t, 0.4, 0.1)
    spec = _toy_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pair = evolve_coupled(s1, s2, spec, spec, 0.0, (1.0, 0.5))
        single1 = evolve(s1, spec, 1.0)
        single2 = evolve(s2, spec, 0.5)
    assert np.abs(pair.occupations[0] - single1.occupations[0]).max() < 1e-12
    assert np.abs(pair.occupations[1] - single2.occupations[0]).max() < 1e-12


def test_coupled_swap_symmetry():
    dt = 0.01
    t = np.arange(0.0, 4.0 + 0.5 * dt, dt)
    s1 = _toy_series(t, 0.7, 0.3)
    s2 = _toy_series(t, 0.4, 0.1)
    spec = _toy_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ab = evolve_coupled(s1, s2, spec, spec, 0.3, (1.0, 0.5))
        ba = evolve_coupled(s2, s1, spec, spec, 0.3, (0.5, 1.0))
    assert np.array_equal(ab.occupations[0], ba.occupations[1])
    assert np.array_equal(ab.occupations[1], ba.occupations[0])


def test_coupling_transfers_occupation():
    dt = 0.005
    t = np.arange(0.0, 6.0 + 0.5 * dt, dt)
    # both oscillators undriven and undamped: pure exchange
    s1 = _toy_series(t, 0.0, 0.0)
    s2 = _toy_series(t, 0.0, 0.0)
    spec = _toy_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pair = evolve_coupled(s1, s2, spec, spec, 1.0, (1.0, 0.0))
    n1, n2 = pair.occupations
    assert n2.max() > 0.5  # the second oscillator picks up occupation
    # exchange conserves the total in the absence of friction and diffusion
    total = n1 + n2
    assert np.abs(total - total[0]).max() < 1e-6


def test_delta_dissipation_vanishes_at_zero_coupling():
    dt = 0.01
    t = np.arange(0.0, 3.0 + 0.5 * dt, dt)
    s1 = _toy_series(t, 0.7, 0.3)
    s2 = _toy_series(t, 0.4, 0.1)
    spec = _toy_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dd = delta_dissipation(s1, s2, spec, spec, 0.0, (1.0, 0.5))
    assert np.abs(dd.delta_energy[0]).max() == 0.0
    assert np.abs(dd.delta_energy[1]).max() == 0.0
    assert len(dd.window) == 2 and dd.window[0] > 0


def test_delta_dissipation_runs_match_separate_coupled_runs():
    dt = 0.01
    t = np.arange(0.0, 3.0 + 0.5 * dt, dt)
    s1 = _toy_series(t, 0.7 + 0.2 * np.sin(3.0 * t), 0.3)
    s2 = _toy_series(t, 0.4, 0.1 + 0.05 * np.cos(2.0 * t))
    spec = _toy_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dd = delta_dissipation(s1, s2, spec, spec, 0.3, (1.0, 0.5))
        at_beta = evolve_coupled(s1, s2, spec, spec, 0.3, (1.0, 0.5))
        at_zero = evolve_coupled(s1, s2, spec, spec, 0.0, (1.0, 0.5))
    for run, ref in ((dd.coupled, at_beta), (dd.uncoupled, at_zero)):
        for field in ("occupations", "rates", "dissipation"):
            for got, want in zip(getattr(run, field), getattr(ref, field)):
                assert np.array_equal(got, want)
    assert dd.coupled.metadata["beta"] == 0.3
    assert dd.uncoupled.metadata["beta"] == 0.0
    for i in range(2):
        assert np.array_equal(dd.delta_energy[i],
                              at_beta.dissipation[i] - at_zero.dissipation[i])


def test_estimate_period_on_a_sine():
    t = np.arange(0.0, 20.0, 0.01)
    est = estimate_period(t, np.sin(2.0 * np.pi * t / 3.7))
    assert est.period == pytest.approx(3.7, rel=1e-3)
    assert not est.low_confidence
    assert est.n_crossings >= 4
    assert est.fft_period == pytest.approx(3.7, rel=0.05)


def test_estimate_period_needs_oscillation():
    t = np.arange(0.0, 10.0, 0.01)
    with pytest.raises(InsufficientDataError):
        estimate_period(t, np.exp(-t))
    with pytest.raises(InsufficientDataError):
        estimate_period(t, np.sin(t), window=(4.0, 4.01))


def test_detect_stationarity():
    flat, var0 = detect_stationarity(np.ones(100))
    assert flat and var0 == 0.0
    ramp, var1 = detect_stationarity(np.linspace(1.0, 2.0, 100))
    assert not ramp
    assert var1 == pytest.approx(1.0 / 1.5, rel=1e-12)
    with pytest.raises(InsufficientDataError):
        detect_stationarity(np.array([1.0]))


def test_antiphase_metric():
    t = np.linspace(0.0, 10.0, 500)
    x = np.sin(t)
    assert antiphase_metric(x, -x) == pytest.approx(-1.0, abs=1e-12)
    assert antiphase_metric(x, 2.0 * x + 5.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(UndefinedMetricError):
        antiphase_metric(x, np.zeros_like(x))
    with pytest.raises(DomainError):
        antiphase_metric(x, x[:-1])
