import warnings

import numpy as np
import pytest

from openosc import BathSpec, amplitudes_AB, characteristic_roots, make_system, propagators_MN
from openosc.errors import DomainError
from openosc.scenarios import fig1_system
from openosc.transport.kernels import KernelEvaluator


def _strong():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = fig1_system()
    return spec, characteristic_roots(spec)


def test_amplitude_initial_values():
    spec, rs = _strong()
    amp = amplitudes_AB(rs, spec, [0.0])
    assert amp.A[0] == pytest.approx(1.0, abs=1e-10)
    assert abs(amp.B[0]) < 1e-10
    assert abs(amp.B1[0]) < 1e-10
    assert abs(amp.B2[0]) < 1e-10
    assert amp.dA[0] == pytest.approx(-1j * spec.omega, abs=1e-8)


def test_amplitude_split_is_consistent():
    spec, rs = _strong()
    t = np.linspace(0.0, 10.0, 201)
    amp = amplitudes_AB(rs, spec, t)
    assert np.allclose(amp.B, amp.B1 + amp.B2, rtol=0, atol=1e-12)
    assert np.allclose(amp.dB, amp.dB1 + amp.dB2, rtol=0, atol=1e-12)


def test_amplitude_derivatives_match_finite_differences():
    spec, rs = _strong()
    t0 = np.array([0.5, 2.0, 7.0])
    h = 1e-6
    ev = KernelEvaluator(rs, spec)
    amp = ev.amplitude_series(t0)
    plus = ev.amplitude_series(t0 + h)
    minus = ev.amplitude_series(t0 - h)
    fd_A = (plus.A - minus.A) / (2 * h)
    fd_B = (plus.B - minus.B) / (2 * h)
    assert np.allclose(amp.dA, fd_A, rtol=1e-6, atol=1e-8)
    assert np.allclose(amp.dB, fd_B, rtol=1e-6, atol=1e-8)


def test_amplitudes_decay():
    spec, rs = _strong()
    amp = amplitudes_AB(rs, spec, [20.0])
    # the least damped root pair decays like e^{-0.7415 t}
    assert abs(amp.A[0]) < 1e-5
    assert abs(amp.B[0]) < 1e-5


def test_propagator_initial_values():
    spec, rs = _strong()
    w = np.array([0.5, 2.152887549937039, 3.0, 10.0, 80.0])
    M, N, dM, dN = propagators_MN(rs, spec, w, [0.0])
    assert np.abs(M).max() < 1e-10
    assert np.abs(N).max() < 1e-10
    assert np.allclose(dM[:, 0], -1j, rtol=0, atol=1e-8)
    assert np.allclose(dN[:, 0], +1j, rtol=0, atol=1e-8)


def test_propagator_derivatives_match_finite_differences():
    spec, rs = _strong()
    ev = KernelEvaluator(rs, spec)
    w = np.array([1.0, 5.0])
    t0 = np.array([1.5])
    h = 1e-6
    M, N, dM, dN = ev.mn_block(w, t0)
    Mp, Np, _, _ = ev.mn_block(w, t0 + h)
    Mm, Nm, _, _ = ev.mn_block(w, t0 - h)
    assert np.allclose(dM, (Mp - Mm) / (2 * h), rtol=1e-6, atol=1e-8)
    assert np.allclose(dN, (Np - Nm) / (2 * h), rtol=1e-6, atol=1e-8)


def test_negative_time_rejected():
    spec, rs = _strong()
    with pytest.raises(DomainError):
        amplitudes_AB(rs, spec, [-0.1])


def test_zero_coupling_kernels_are_free():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = make_system(
            1.5,
            BathSpec(statistics=+1, alpha=0.0, gamma=10.0, temperature=1.0),
            BathSpec(statistics=+1, alpha=0.0, gamma=12.0, temperature=0.5),
        )
    rs = characteristic_roots(spec)
    t = np.linspace(0.0, 5.0, 101)
    amp = amplitudes_AB(rs, spec, t)
    assert np.allclose(amp.A, np.exp(-1.5j * t), rtol=0, atol=1e-12)
    assert np.abs(amp.B).max() == 0.0
    M, N, dM, dN = propagators_MN(rs, spec, [1.0, 3.0], t)
    assert np.abs(M).max() == 0.0
    assert np.abs(dN).max() == 0.0
