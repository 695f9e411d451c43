import tracemalloc
import warnings

import numpy as np
import pytest

from openosc import BathSpec, coefficient_series, evolve, make_system
from openosc.errors import DomainError
from openosc.scenarios import fig1_system
from openosc.transport import coefficients
from openosc.transport.asymptotics import asymptotic_bath_integral


def test_grid_validation():
    spec = make_system(1.0,
                       BathSpec(statistics=+1, alpha=0.01, gamma=10.0, temperature=1.0),
                       BathSpec(statistics=+1, alpha=0.01, gamma=10.0, temperature=1.0))
    with pytest.raises(DomainError):
        coefficient_series(spec, [-1.0, 0.0, 1.0])
    with pytest.raises(DomainError):
        coefficient_series(spec, [0.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        coefficient_series(spec, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grid_rejects_times_that_are_not_finite(bad):
    # a NaN time used to pass the grid check and come back as lambda = NaN,
    # an infinite one to raise OverflowError from the ray's edges
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = fig1_system()
    with pytest.raises(DomainError, match=repr(float(bad))):
        coefficient_series(spec, [0.0, 1.0, bad])


def test_series_working_set_on_validates_grid():
    # the ray's e^{iwt} tables are built one node group and one time slice
    # at a time, so the traced peak stays a few MB (7.8 MB with one table
    # over every node and time)
    spec = make_system(1.0,
                       BathSpec(statistics=+1, alpha=0.01, gamma=10.0, temperature=1.0),
                       BathSpec(statistics=+1, alpha=0.01, gamma=10.0, temperature=1.0))
    t = np.arange(0.0, 10.0 + 1e-9, 0.02)
    coefficient_series(spec, t)
    tracemalloc.start()
    try:
        coefficient_series(spec, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_initial_values_vanish(fig1_case):
    _, series, _ = fig1_case
    assert abs(series.friction[0]) < 1e-12
    assert abs(series.diffusion[0]) < 1e-12
    assert abs(series.memory_integrals[0][0]) < 1e-12
    assert abs(series.memory_integrals[1][0]) < 1e-12
    # ratio is undefined where the friction is too small to divide by
    assert np.isnan(series.ratio[0])


def test_diffusion_parts_add_up(fig1_case):
    _, series, _ = fig1_case
    total = series.diffusion_parts[0] + series.diffusion_parts[1]
    scale = np.abs(series.diffusion).max()
    assert np.abs(series.diffusion - total).max() < 1e-12 * scale


def test_memory_integrals_fill_from_zero(weak_case):
    _, series, _, _ = weak_case
    t = series.t
    # early on the integrals fill monotonically from zero; late-time
    # values stay positive and bounded
    I1 = series.memory_integrals[0]
    assert (np.diff(I1[: t.size // 4]) > -1e-12).all()
    assert 0.0 < I1[-1] < 1.0


def test_uncoupled_bath_integrates_to_exact_zero(monkeypatch):
    # fig1's baths with the fermionic one uncoupled: bath 1 goes through the
    # general path, whose weights are exactly 0 for it, and bath 2's
    # integral keeps its own name
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = make_system(
            1.0,
            BathSpec(statistics=-1, alpha=0.0, gamma=10.0, temperature=1.0),
            BathSpec(statistics=+1, alpha=0.05, gamma=15.0, temperature=0.1),
        )
    outputs = []

    class Recording(coefficients.MemoryIntegrator):
        def integrate(self, t):
            outputs.append(super().integrate(t))
            return outputs[-1]

    monkeypatch.setattr(coefficients, "MemoryIntegrator", Recording)
    series = coefficient_series(spec, np.arange(0.0, 60.0 + 0.01, 0.02))
    (out,) = outputs
    I1, dI1 = out["bath1"]
    assert np.all(I1 == 0.0) and np.all(dI1 == 0.0)
    assert series.quadrature_report.tail_bound["bath1"] == 0.0
    I2 = series.memory_integrals[1]
    assert I2[-1] == pytest.approx(asymptotic_bath_integral(spec, 1), rel=1e-6)


def _both_uncoupled(eps1, eps2, gamma2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_system(
            1.0,
            BathSpec(statistics=eps1, alpha=0.0, gamma=10.0, temperature=1.0),
            BathSpec(statistics=eps2, alpha=0.0, gamma=gamma2, temperature=0.5))


@pytest.mark.parametrize("eps1, eps2, gamma2", [
    (-1, +1, 12.0),  # mixed: the blend's p = alpha_1/(alpha_1 + alpha_2) is 0/0
    (+1, +1, 10.0),  # equal cutoffs: the quartic's roots are degenerate
    (-1, -1, 12.0),
], ids=["mixed", "equal-cutoffs", "fermionic"])
def test_zero_coupling_is_the_free_oscillator(eps1, eps2, gamma2):
    spec = _both_uncoupled(eps1, eps2, gamma2)
    t = np.linspace(0.0, 5.0, 251)
    series = coefficient_series(spec, t)
    assert np.allclose(series.amplitudes.A, np.exp(-1j * spec.omega * t),
                       rtol=0, atol=1e-12)
    # lambda is -0.0, the sign -(1/2) dX/X gives for X = |A|^2
    assert np.all(series.friction == 0.0) and np.signbit(series.friction).all()
    assert np.all(series.diffusion == 0.0)
    for part in series.diffusion_parts + series.memory_integrals:
        assert np.all(part == 0.0)
    assert np.isnan(series.ratio).all()
    report = series.quadrature_report
    assert report.n_panels == 0 and report.max_rel_error == 0.0
    assert report.w_max == max(20.0 * max(10.0, gamma2), 40.0 * spec.omega)
    traj = evolve(series, spec, 0.3)
    assert np.all(traj.occupations[0] == 0.3)


def test_weak_friction_beats_at_the_root_pair_frequency(weak_case):
    # |A|^2 carries the beat of the conjugate root pair at +-i nu, so the
    # friction oscillates with period pi/nu (and is dissipative on average)
    from openosc import estimate_period
    from openosc.transport.roots import characteristic_roots, oscillatory_pair

    spec, series, _, _ = weak_case
    _, nu = oscillatory_pair(characteristic_roots(spec).roots)
    est = estimate_period(series.t, series.friction, window=(1.0, 10.0))
    assert est.period == pytest.approx(np.pi / nu, rel=1e-4)
    tail = series.t >= 5.0
    assert series.friction[tail].mean() > 0.0


def test_mixed_friction_oscillates(fig1_case):
    # the mixed strong-coupling system is the opposite: its coefficients
    # keep oscillating at late times
    _, series, _ = fig1_case
    tail = (series.t >= 10.0) & (series.t <= 20.0)
    lam = series.friction[tail]
    assert (lam.max() - lam.min()) > 0.1 * np.abs(lam).max()


def test_ratio_floor_masks_small_friction(fig1_case):
    _, series, _ = fig1_case
    finite = np.isfinite(series.ratio)
    # where defined, ratio equals D/lambda
    good = finite & (np.abs(series.friction) > 1e-3)
    recon = series.diffusion[good] / series.friction[good]
    assert np.allclose(series.ratio[good], recon, rtol=1e-12, atol=0)
