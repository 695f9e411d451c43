"""Shared fixtures.

The coefficient series (about 0.1 s each, nearly all of it the memory
integrals) are shared by many tests, so the heavily reused ones are
computed once per session: the strongly coupled single system at fine
resolution, the two coupled pairs, and the weak-coupling reference with
its discretized-bath cross-check.  The stationary integrals' memo is
cleared before every test, so each test starts cold, as a fresh process
does.
"""

import warnings

import numpy as np
import pytest

from openosc import (
    BathSpec,
    coefficient_series,
    evolve,
    evolve_exact,
    make_system,
)
from openosc.scenarios import fig1_system, fig3_pair, fig5_pair
from openosc.transport.asymptotics import _stationary_integrals


def _series(spec, t_max, dt, **kw):
    t = np.arange(0.0, t_max + 0.5 * dt, dt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return coefficient_series(spec, t, **kw)


@pytest.fixture(autouse=True)
def cold_stationary_memo():
    _stationary_integrals.cache_clear()


@pytest.fixture(scope="session")
def fig1_case():
    """Strong-coupling single system: spec, series (dt=0.01, t<=20), trajectory."""
    spec = fig1_system()
    series = _series(spec, 20.0, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = evolve(series, spec, 0.0)
    return spec, series, traj


@pytest.fixture(scope="session")
def fig1_long_series():
    """Same system on a longer, coarser grid (dt=0.05, t<=50)."""
    spec = fig1_system()
    return spec, _series(spec, 50.0, 0.05)


@pytest.fixture(scope="session")
def pair3_case():
    """Detuned mixed-bath pair: (spec1, spec2), (series1, series2), dt=0.02."""
    pair = fig3_pair()
    s1, s2 = pair.systems
    return (s1, s2), (_series(s1, 20.0, 0.02), _series(s2, 20.0, 0.02))


@pytest.fixture(scope="session")
def pair5_case():
    """Equal-frequency pair: (spec1, spec2), (series1, series2), dt=0.02."""
    pair = fig5_pair()
    s1, s2 = pair.systems
    return (s1, s2), (_series(s1, 20.0, 0.02), _series(s2, 20.0, 0.02))


@pytest.fixture(scope="session")
def weak_case():
    """Weak all-bosonic reference plus its discretized-bath cross-check."""
    spec = make_system(
        1.0,
        BathSpec(statistics=+1, alpha=0.01, gamma=10.0, temperature=1.0),
        BathSpec(statistics=+1, alpha=0.01, gamma=10.0, temperature=1.0),
    )
    series = _series(spec, 10.0, 0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = evolve(series, spec, 0.0)
        oracle = evolve_exact(spec, series.t, 0.0, n_modes=400, w_max=200.0)
    return spec, series, traj, oracle
