import numpy as np
import pytest

from openosc import BathSpec, characteristic_polynomial, characteristic_roots, make_system
from openosc.errors import DegenerateRootsError
from openosc.scenarios import fig1_system, fig5_pair
from openosc.transport import roots as roots_module
from openosc.transport.roots import oscillatory_pair


def _quiet(builder, *args, **kw):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return builder(*args, **kw)


def test_quartic_coefficients_strong_system():
    spec = _quiet(fig1_system)
    c = characteristic_polynomial(spec)
    assert np.allclose(c, [1.0, 25.0, 170.25, 315.0, 675.0], rtol=0, atol=1e-12)


def test_roots_strong_system():
    spec = _quiet(fig1_system)
    rs = characteristic_roots(spec)
    expected = np.array([
        -14.59975343,
        -8.91725381,
        -0.74149638 - 2.15288755j,
        -0.74149638 + 2.15288755j,
    ])
    assert np.allclose(rs.roots, expected, rtol=0, atol=1e-7)
    assert rs.residuals_relative().max() < 1e-12
    eta, nu = oscillatory_pair(rs.roots)
    assert eta == pytest.approx(0.7414963781655706, rel=1e-10)
    assert nu == pytest.approx(2.152887549937039, rel=1e-10)


def test_polish_stops_when_it_stagnates(monkeypatch):
    # fig5 system 1 has the close real roots -12 and -11.705, where the
    # Newton step stalls at a few 1e-15 instead of reaching 1e-15
    spec = _quiet(fig5_pair).systems[0]
    c = characteristic_polynomial(spec)
    calls = []
    polyval = np.polyval
    monkeypatch.setattr(roots_module.np, "polyval",
                        lambda *a: calls.append(1) or polyval(*a))
    rs = characteristic_roots(spec)
    monkeypatch.undo()
    assert len(calls) <= 12  # two per iteration, one for the residuals
    seed = np.roots(c)
    seed = seed[np.lexsort((seed.imag, seed.real))]
    assert np.all(np.abs(rs.roots - seed) <= 1e-13 * np.abs(rs.roots))
    assert rs.residuals_relative().max() < 1e-12


def test_roots_deterministic():
    spec = _quiet(fig1_system)
    a = characteristic_roots(spec)
    b = characteristic_roots(spec)
    assert np.array_equal(a.roots, b.roots)
    assert np.array_equal(a.xi_prime, b.xi_prime)


def test_roots_independent_of_statistics_and_temperature():
    def build(eps, T):
        return _quiet(make_system, 1.0,
                      BathSpec(statistics=eps, alpha=0.03, gamma=12.0, temperature=T),
                      BathSpec(statistics=+1, alpha=0.02, gamma=15.0, temperature=0.5))
    a = characteristic_roots(build(+1, 0.1))
    b = characteristic_roots(build(-1, 3.0))
    assert np.array_equal(a.roots, b.roots)


def test_zero_coupling_roots_exact():
    spec = _quiet(make_system, 2.0,
                  BathSpec(statistics=+1, alpha=0.0, gamma=10.0, temperature=1.0),
                  BathSpec(statistics=+1, alpha=0.0, gamma=12.0, temperature=1.0))
    rs = characteristic_roots(spec)
    expected = sorted([2j, -2j, -10.0 + 0j, -12.0 + 0j],
                      key=lambda z: (z.real, z.imag))
    assert np.allclose(rs.roots, expected, rtol=0, atol=1e-10)


def test_zero_coupling_equal_cutoffs_degenerate():
    spec = _quiet(make_system, 2.0,
                  BathSpec(statistics=+1, alpha=0.0, gamma=10.0, temperature=1.0),
                  BathSpec(statistics=+1, alpha=0.0, gamma=10.0, temperature=2.0))
    with pytest.raises(DegenerateRootsError):
        characteristic_roots(spec)


def test_xi_prime_weights():
    spec = _quiet(fig1_system)
    rs = characteristic_roots(spec)
    s = rs.roots
    for k in range(4):
        prod = np.prod([s[k] - s[i] for i in range(4) if i != k])
        assert rs.xi_prime[k] == pytest.approx(1.0 / prod, rel=1e-12)
    # divided-difference identity: sum over 4 nodes annihilates degree <= 2
    assert abs(np.sum(rs.xi_prime)) < 1e-12 * np.abs(rs.xi_prime).max()
    assert abs(np.sum(rs.xi_prime * s)) < 1e-12 * np.abs(rs.xi_prime * s).max()
    # ... and maps a cubic to its leading coefficient
    assert np.sum(rs.xi_prime * s**3) == pytest.approx(1.0, rel=1e-10)
