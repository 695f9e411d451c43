import warnings
from dataclasses import replace

import numpy as np
import pytest

from openosc import (
    BathSpec,
    asymptotic_bath_integral,
    asymptotic_occupation,
    equilibrium_occupation,
    make_system,
    resonance_occupation,
    stationarity_condition_residual,
)
from openosc.errors import DomainError
from openosc.scenarios import fig1_system
from openosc.transport import asymptotics


def _equal_temperature_system(eps, alpha):
    # both baths at gamma = T = 10 omega, with omega = Omega/(1 - 40 alpha)
    # the bare frequency self-consistent with gamma = 10 omega
    w = 1.0 / (1.0 - 40.0 * alpha)
    bath = BathSpec(statistics=eps, alpha=alpha, gamma=10.0 * w,
                    temperature=10.0 * w)
    return make_system(1.0, bath, bath)


def _strong():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fig1_system()


def test_strong_system_stationary_integrals():
    spec = _strong()
    # frozen against an independent adaptive-quadrature evaluation of the
    # resolvent integral (agrees to ~4e-9 relative)
    assert asymptotic_bath_integral(spec, 0) == pytest.approx(0.14504616, rel=1e-6)
    assert asymptotic_bath_integral(spec, 1) == pytest.approx(0.05030094, rel=1e-6)
    assert asymptotic_occupation(spec) == pytest.approx(0.19534710, rel=1e-6)


def test_time_integrals_approach_the_stationary_values(fig1_case):
    _, series, _ = fig1_case
    spec = _strong()
    for idx in (0, 1):
        target = asymptotic_bath_integral(spec, idx)
        reached = series.memory_integrals[idx][-1]
        assert reached == pytest.approx(target, rel=1e-4)


def test_stationarity_residual_strong_system():
    spec = _strong()
    # the two channels prefer incompatible stationary points: the mismatch
    # is large and negative for this parameter set
    assert stationarity_condition_residual(spec) == pytest.approx(
        -0.23426988, rel=1e-5)


def test_stationarity_residual_requires_mixed_statistics():
    spec = make_system(1.0,
                       BathSpec(statistics=+1, alpha=0.01, gamma=10.0, temperature=1.0),
                       BathSpec(statistics=+1, alpha=0.01, gamma=10.0, temperature=1.0))
    with pytest.raises(DomainError):
        stationarity_condition_residual(spec)


@pytest.mark.parametrize("alphas", [(0.0, 0.05), (0.10, 0.0)],
                         ids=["fermionic-uncoupled", "bosonic-uncoupled"])
def test_stationarity_residual_needs_both_channels(alphas):
    # with p = 0 or 1 one channel's target, I_f/p or I_b/(1 - p), is 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = make_system(
            1.0,
            BathSpec(statistics=-1, alpha=alphas[0], gamma=10.0, temperature=1.0),
            BathSpec(statistics=+1, alpha=alphas[1], gamma=15.0, temperature=0.1))
    with pytest.raises(DomainError, match="uncoupled"):
        stationarity_condition_residual(spec)


def test_decoupled_bath_contributes_nothing():
    spec = make_system(1.0,
                       BathSpec(statistics=+1, alpha=0.02, gamma=10.0, temperature=1.0),
                       BathSpec(statistics=+1, alpha=0.0, gamma=12.0, temperature=5.0))
    assert asymptotic_bath_integral(spec, 1) == 0.0
    assert asymptotic_bath_integral(spec, 0) > 0.0


def test_fully_decoupled_has_no_stationary_limit():
    spec = make_system(2.0,
                       BathSpec(statistics=+1, alpha=0.0, gamma=10.0, temperature=1.0),
                       BathSpec(statistics=+1, alpha=0.0, gamma=12.0, temperature=1.0))
    with pytest.raises(DomainError):
        asymptotic_bath_integral(spec, 0)
    with pytest.raises(DomainError):
        asymptotic_bath_integral(spec, 2)
    with pytest.raises(DomainError):
        resonance_occupation(spec)


def _count_static_builds(monkeypatch):
    calls = []
    integrate = asymptotics.integrate_static

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "integrate_static", counted)
    return calls


def test_stationary_queries_on_one_system_share_one_build(monkeypatch):
    calls = _count_static_builds(monkeypatch)
    first = (asymptotic_bath_integral(_strong(), 0), asymptotic_occupation(_strong()),
             stationarity_condition_residual(_strong()))
    assert len(calls) == 1
    # an equal spec, built anew, reads the same build
    again = (asymptotic_bath_integral(_strong(), 0), asymptotic_occupation(_strong()),
             stationarity_condition_residual(_strong()))
    assert again == first and len(calls) == 1
    # one changed field is another system
    b1, b2 = _strong().baths
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        warmer = make_system(1.0, b1, replace(b2, temperature=0.2))
    assert asymptotic_bath_integral(warmer, 1) != first[0]
    assert len(calls) == 2
    # a decoupled system raises on every query and builds nothing
    free = make_system(2.0,
                       BathSpec(statistics=+1, alpha=0.0, gamma=10.0, temperature=1.0),
                       BathSpec(statistics=+1, alpha=0.0, gamma=12.0, temperature=1.0))
    for _ in range(2):
        with pytest.raises(DomainError):
            asymptotic_occupation(free)
    assert len(calls) == 2


@pytest.mark.parametrize("index", [1.0, 0.0, np.float64(1.0)],
                         ids=["float-one", "float-zero", "numpy-float"])
def test_bath_index_must_be_an_integer(index, monkeypatch):
    # 1.0 == 1 passes a membership test but cannot index the integrals;
    # it is rejected before any build
    calls = _count_static_builds(monkeypatch)
    with pytest.raises(DomainError, match="bath index"):
        asymptotic_bath_integral(_strong(), index)
    assert calls == []
    assert asymptotic_bath_integral(_strong(), np.int64(1)) == pytest.approx(
        0.05030094, rel=1e-6)


def test_weak_coupling_approaches_equilibrium():
    # the stationary occupation sits above n_B(omega) at the bare frequency
    # because the coupled oscillator relaxes to the Gibbs state of
    # omega p^2/2 + Omega q^2/2 (see resonance_occupation); the overshoot is
    # set by the static shift omega - Omega = 2 sum alpha gamma = 40 alpha
    # omega here, so it converges toward zero as the coupling shrinks
    def overshoot(alpha):
        spec = _equal_temperature_system(+1, alpha)
        w = spec.omega
        n_eq = equilibrium_occupation(w, 10.0 * w, +1)
        return (asymptotic_occupation(spec) - n_eq) / n_eq

    d_weak = overshoot(0.001)
    d_strong = overshoot(0.01)
    assert 0.0 < d_weak < 0.025
    assert d_strong > 4.0 * d_weak


def test_resonance_occupation_is_the_bosonic_gibbs_occupation():
    # independent reference: the thermal state of H = omega p^2/2 + Omega q^2/2
    # diagonalized in a truncated Fock space of a = (q + i p)/sqrt(2);
    # unequal couplings and cutoffs must not matter at a common temperature;
    # truncation halves the top level's energy, so the basis must reach far
    # enough that exp(-nu size / 2T) is negligible
    T = 2.0
    spec = make_system(1.0,
                       BathSpec(statistics=+1, alpha=0.01, gamma=10.0, temperature=T),
                       BathSpec(statistics=+1, alpha=0.02, gamma=12.0, temperature=T))
    size = 160
    a = np.diag(np.sqrt(np.arange(1.0, size)), 1)
    q = (a + a.T) / np.sqrt(2.0)
    ip = (a.T - a) / np.sqrt(2.0)  # i p, so p^2 = -(i p)^2
    H = -spec.omega * (ip @ ip) / 2.0 + spec.omega_renormalized * (q @ q) / 2.0
    energies, states = np.linalg.eigh(H)
    weights = np.exp(-(energies - energies[0]) / T)
    number = np.arange(size) @ np.abs(states) ** 2  # <a^dag a> per eigenstate
    gibbs = float(weights @ number / weights.sum())
    assert resonance_occupation(spec) == pytest.approx(gibbs, rel=1e-10)


@pytest.mark.parametrize("eps", [+1, -1])
def test_asymptote_approaches_resonance_occupation_linearly(eps):
    alphas = np.array([0.01, 0.003, 0.001])
    gaps = []
    for alpha in alphas:
        spec = _equal_temperature_system(eps, alpha)
        n_ref = resonance_occupation(spec)
        gaps.append(abs(asymptotic_occupation(spec) - n_ref) / n_ref)
    gaps = np.array(gaps)
    # gap = O(alpha): gap/alpha drifts by at most ~30% over the scan as
    # omega -> Omega, whereas a gap stalling at a floor would grow it tenfold
    assert np.all(np.diff(gaps) < 0.0)
    assert np.all(gaps / alphas <= 1.5 * gaps[0] / alphas[0])


@pytest.mark.parametrize("alpha", [1e-5, 1e-6, 1e-7])
def test_weak_coupling_asymptote_sits_just_above_the_resonance_limit(alpha):
    # the stationary integrals' weight collapses onto a resonance of width
    # eta ~ alpha around nu; the graded panels must resolve it however narrow
    # it is, so the asymptote keeps its O(alpha) gap above the closed-form
    # narrow-resonance limit (+1.39 alpha here)
    bath = BathSpec(statistics=+1, alpha=alpha, gamma=10.0, temperature=1.0)
    spec = make_system(1.0, bath, bath)
    n_ref = resonance_occupation(spec)
    gap = (asymptotic_occupation(spec) - n_ref) / n_ref
    assert 0.0 < gap <= 2.0 * alpha
