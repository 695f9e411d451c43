import math

import numpy as np
import pytest

import openosc
import openosc.transport
from openosc import (
    ALL_BOSONIC,
    ALL_FERMIONIC,
    BOSONIC,
    FERMIONIC,
    MIXED,
    BathSpec,
    CoupledSpec,
    bare_frequency,
    equilibrium_occupation,
    make_system,
    mixing_fraction,
    spectral_density,
    statistics_from_name,
)
from openosc.errors import DomainError
from openosc.model import SystemSpec


def _bath(eps=+1, alpha=0.01, gamma=10.0, T=1.0):
    return BathSpec(statistics=eps, alpha=alpha, gamma=gamma, temperature=T)


def test_statistics_names():
    assert statistics_from_name("bosonic") == BOSONIC
    assert statistics_from_name("Fermionic") == FERMIONIC
    assert statistics_from_name("+1") == BOSONIC
    assert statistics_from_name("-1") == FERMIONIC
    with pytest.raises(DomainError):
        statistics_from_name("anyonic")


def test_bath_validation():
    with pytest.raises(DomainError):
        BathSpec(statistics=0, alpha=0.1, gamma=10.0, temperature=1.0)
    with pytest.raises(DomainError):
        _bath(alpha=-0.1)
    with pytest.raises(DomainError):
        _bath(gamma=0.0)
    with pytest.raises(DomainError):
        _bath(T=-1.0)
    with pytest.raises(DomainError):
        _bath(alpha=math.inf)
    assert _bath(alpha=0.0).alpha == 0.0  # decoupled limit is admitted


def test_equilibrium_occupation_values():
    w, T = 1.3, 0.7
    assert equilibrium_occupation(w, T, BOSONIC) == pytest.approx(
        1.0 / (math.exp(w / T) - 1.0), rel=1e-14)
    assert equilibrium_occupation(w, T, FERMIONIC) == pytest.approx(
        1.0 / (math.exp(w / T) + 1.0), rel=1e-14)
    assert equilibrium_occupation(w, 0.0, BOSONIC) == 0.0
    # overflow-safe far into the tail
    assert equilibrium_occupation(5000.0, 1.0, BOSONIC) == 0.0
    arr = equilibrium_occupation(np.array([1.0, 2.0]), 1.0, FERMIONIC)
    assert arr.shape == (2,)
    with pytest.raises(DomainError):
        equilibrium_occupation(-1.0, 1.0, BOSONIC)
    with pytest.raises(DomainError):
        equilibrium_occupation(1.0, -0.5, BOSONIC)
    with pytest.raises(DomainError):
        equilibrium_occupation(1.0, 1.0, 2)


def test_spectral_density():
    b = _bath(alpha=0.05, gamma=12.0)
    assert spectral_density(0.0, b) == pytest.approx(0.05 / np.pi, rel=1e-14)
    # half maximum at w = gamma
    assert spectral_density(12.0, b) == pytest.approx(
        0.5 * spectral_density(0.0, b), rel=1e-14)
    with pytest.raises(DomainError):
        spectral_density(np.inf, b)


def test_bare_frequency_shift():
    b1 = _bath(alpha=0.10, gamma=10.0)
    b2 = _bath(alpha=0.05, gamma=15.0)
    assert bare_frequency(1.0, b1, b2) == pytest.approx(4.5, rel=1e-14)
    spec = make_system(1.0, b1, b2)
    assert spec.omega == pytest.approx(4.5, rel=1e-14)
    assert spec.omega_renormalized == 1.0
    with pytest.raises(DomainError):
        bare_frequency(-1.0, b1, b2)
    with pytest.raises(DomainError):
        SystemSpec(0.0, (b1, b2))
    # omega is summed in the order the baths are given, before a mixed
    # system is relabeled fermionic-first; here the two orders differ in
    # the last bit
    bosonic, fermionic = _bath(+1, alpha=0.01), _bath(-1, alpha=0.03)
    assert (bare_frequency(1.0, bosonic, fermionic)
            != bare_frequency(1.0, fermionic, bosonic))
    mixed = make_system(1.0, bosonic, fermionic)
    assert mixed.baths == (fermionic, bosonic)
    assert mixed.omega == bare_frequency(1.0, bosonic, fermionic)
    assert SystemSpec(1.0, (bosonic, fermionic)) == mixed


def test_statistics_modes_and_relabeling():
    bb = make_system(1.0, _bath(+1), _bath(+1))
    assert bb.statistics_mode == ALL_BOSONIC
    ff = make_system(1.0, _bath(-1), _bath(-1))
    assert ff.statistics_mode == ALL_FERMIONIC
    # mixed systems are stored fermionic-first regardless of input order
    mixed = make_system(1.0, _bath(+1, alpha=0.02), _bath(-1, alpha=0.03))
    assert mixed.statistics_mode == MIXED
    assert mixed.baths[0].statistics == FERMIONIC
    assert mixed.baths[0].alpha == 0.03
    assert mixed.baths[1].alpha == 0.02


def test_slow_bath_warning():
    with pytest.warns(UserWarning, match="fast-bath") as record:
        make_system(1.0, _bath(alpha=0.10, gamma=10.0),
                    _bath(alpha=0.05, gamma=15.0))
    # reported at the line that called make_system, or SystemSpec
    assert record[0].filename == __file__
    with pytest.warns(UserWarning, match="fast-bath") as record:
        SystemSpec(1.0, (_bath(alpha=0.10, gamma=10.0),
                         _bath(alpha=0.05, gamma=15.0)))
    assert record[0].filename == __file__


def test_decoupled_only_when_both_couplings_vanish():
    for a1, a2, decoupled in ((0.0, 0.0, True), (0.0, 0.01, False),
                              (0.01, 0.0, False), (0.01, 0.01, False)):
        spec = make_system(1.0, _bath(alpha=a1), _bath(-1, alpha=a2))
        assert spec.decoupled is decoupled


def test_mixing_fraction():
    assert mixing_fraction(_bath(alpha=0.10), _bath(alpha=0.05)) == pytest.approx(
        2.0 / 3.0, rel=1e-14)
    with pytest.raises(DomainError):
        mixing_fraction(_bath(alpha=0.0), _bath(alpha=0.0))


def test_coupled_spec_validation():
    s = make_system(1.0, _bath(), _bath())
    assert CoupledSpec(systems=(s, s)).systems == (s, s)
    with pytest.raises(DomainError):
        CoupledSpec(systems=(s,))


def test_every_exported_name_resolves():
    for module in (openosc, openosc.transport):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
