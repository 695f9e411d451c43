import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from openosc import BathSpec, compare, evolve_exact, make_system, sample_bath
from openosc.errors import DimensionCapError, DomainError
from openosc.model import _default_w_max, equilibrium_occupation
from openosc.oracle import _comb, _evolve_full, _evolve_rwa, propagator_blocks
from openosc.scenarios import fig1_system


def _weak(eps=+1, T=1.0):
    return make_system(
        1.0,
        BathSpec(statistics=eps, alpha=0.01, gamma=10.0, temperature=T),
        BathSpec(statistics=eps, alpha=0.01, gamma=10.0, temperature=T),
    )


def _per_bath_reference(spec, t, n0, n_modes, rwa):
    """Occupation from the unmerged model: one mode per bath and frequency.

    The two baths' combs are concatenated and diagonalized together, with
    2 n_modes + 1 modes, through the same propagators as the oracle.
    """
    combs = [sample_bath(b, n_modes, _default_w_max(spec)) for b in spec.baths]
    w_bath = np.concatenate([w for w, _ in combs])
    a_bath = np.concatenate([a for _, a in combs])
    occ_bath = np.concatenate([
        equilibrium_occupation(w, b.temperature, b.statistics)
        for (w, _), b in zip(combs, spec.baths)
    ])
    evolve = _evolve_rwa if rwa else _evolve_full
    return evolve(spec.omega, w_bath, a_bath, occ_bath, t, n0)


def _propagator_reference(spec, t, n0, n_modes, w_max, rwa):
    """Occupation of the merged comb from each time's whole propagator.

    Full coupling sums the four squared oscillator-row blocks of
    ``propagator_blocks``; ``rwa`` takes |e^{-iht}|^2 of the single-quantum
    hopping matrix h from ``expm``.
    """
    w_bath, a_bath, occ_bath = _comb(spec, n_modes, w_max)
    occ0 = np.concatenate([[n0], occ_bath])
    h = np.diag(np.concatenate([[spec.omega], w_bath]))
    h[0, 1:] = h[1:, 0] = a_bath
    n = []
    for tk in t:
        if rwa:
            n.append(np.abs(expm(-1j * tk * h)[0]) ** 2 @ occ0)
        else:
            Txx, Txp, Tpx, Tpp, _ = propagator_blocks(spec, tk, n_modes=n_modes,
                                                      w_max=w_max)
            rows = Txx[0] ** 2 + Txp[0] ** 2 + Tpx[0] ** 2 + Tpp[0] ** 2
            n.append(0.5 * (rows @ (occ0 + 0.5) - 1.0))
    return np.array(n)


@pytest.mark.parametrize("rwa", [False, True])
def test_occupation_matches_the_whole_propagator(rwa):
    spec = make_system(1.0, BathSpec(+1, 0.02, 8.0, 2.0),
                       BathSpec(+1, 0.005, 14.0, 0.3))
    # a low cutoff keeps |h t| small enough for expm's 1e-15 accuracy
    t = np.linspace(0.0, 4.0, 21)
    got = evolve_exact(spec, t, 0.2, n_modes=100, w_max=40.0, rwa=rwa).n
    want = _propagator_reference(spec, t, 0.2, 100, 40.0, rwa)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


_MERGE_CASES = {
    "bosonic": (+1, (0.02, 8.0, 2.0), (0.005, 14.0, 0.3)),
    "fermionic": (-1, (0.015, 9.0, 0.8), (0.01, 12.0, 0.2)),
    "one bath decoupled": (+1, (0.0, 10.0, 1.0), (0.02, 12.0, 0.5)),
}


@pytest.mark.parametrize("rwa", [False, True])
@pytest.mark.parametrize("case", sorted(_MERGE_CASES))
def test_merged_comb_matches_the_per_bath_model(case, rwa):
    eps, bath1, bath2 = _MERGE_CASES[case]
    spec = make_system(1.0, BathSpec(eps, *bath1), BathSpec(eps, *bath2))
    t = np.linspace(0.0, 4.0, 41)
    got = evolve_exact(spec, t, 0.2, n_modes=200, rwa=rwa,
                       allow_fermionic=eps < 0).n
    want = _per_bath_reference(spec, t, 0.2, 200, rwa)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("rwa", [False, True])
def test_fully_decoupled_comb_keeps_its_occupation(rwa):
    # every merged mode has a = 0, where the weighted occupation is 0/0
    spec = make_system(1.0, BathSpec(+1, 0.0, 10.0, 1.0),
                       BathSpec(+1, 0.0, 12.0, 0.5))
    res = evolve_exact(spec, np.linspace(0.0, 4.0, 41), 0.25, n_modes=200,
                       rwa=rwa)
    assert np.isfinite(res.n).all()
    assert np.abs(res.n - 0.25).max() <= 1e-12


def test_sample_bath_reproduces_the_truncated_coupling_sum():
    bath = BathSpec(statistics=+1, alpha=0.01, gamma=10.0, temperature=1.0)
    w, a = sample_bath(bath, 400, 200.0)
    assert w.shape == a.shape == (400,)
    assert w[0] == pytest.approx(0.25, rel=1e-12)  # midpoint of the first cell
    # midpoint rule telescopes to the truncated continuum integral
    target = (bath.alpha * bath.gamma / np.pi) * np.arctan(200.0 / bath.gamma)
    assert np.sum(a**2 / w) == pytest.approx(target, rel=1e-7)
    with pytest.raises(DomainError):
        sample_bath(bath, 0, 200.0)
    with pytest.raises(DomainError):
        sample_bath(bath, 10, -1.0)


def test_oracle_input_validation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mixed = fig1_system()
    with pytest.raises(DomainError):
        evolve_exact(mixed, [0.0, 1.0], 0.0)
    with pytest.raises(DomainError):
        evolve_exact(_weak(eps=-1), [0.0, 1.0], 0.0)  # fermionic needs opt-in
    with pytest.raises(DimensionCapError):
        evolve_exact(_weak(), [0.0, 1.0], 0.0, n_modes=1001)
    with pytest.raises(DomainError):
        evolve_exact(_weak(), [-1.0, 1.0], 0.0)
    with pytest.raises(DomainError):
        evolve_exact(_weak(), [0.0, 1.0], -0.2)


def test_fermionic_comb_behind_the_flag():
    spec = _weak(eps=-1, T=0.5)
    res = evolve_exact(spec, np.linspace(0.0, 2.0, 21), 0.1, n_modes=100,
                       allow_fermionic=True)
    assert np.isfinite(res.n).all()
    assert res.n[0] == pytest.approx(0.1, abs=1e-10)


def test_recurrence_horizon_warns():
    spec = _weak()
    with pytest.warns(UserWarning, match="recurrence"):
        evolve_exact(spec, [1.0], 0.0, n_modes=20, w_max=200.0)


def test_initial_value_and_determinism():
    spec = _weak()
    t = np.linspace(0.0, 2.0, 11)
    a = evolve_exact(spec, t, 0.3, n_modes=80)
    b = evolve_exact(spec, t, 0.3, n_modes=80)
    assert a.n[0] == pytest.approx(0.3, abs=1e-10)
    assert np.array_equal(a.n, b.n)
    assert a.recurrence_time == pytest.approx(2 * np.pi * 80 / a.w_max, rel=1e-12)


def test_counter_rotating_terms_excite_the_vacuum():
    # at T = 0 from an empty oscillator: the excitation-conserving variant
    # stays empty, the full coupling does not
    spec = _weak(T=0.0)
    t = np.linspace(0.0, 5.0, 26)
    rwa = evolve_exact(spec, t, 0.0, n_modes=150, rwa=True)
    full = evolve_exact(spec, t, 0.0, n_modes=150)
    assert np.abs(rwa.n).max() < 1e-12
    assert full.n[5:].min() > 1e-5


def test_excitation_conserving_variant_never_amplifies():
    spec = _weak(T=0.0)
    t = np.linspace(0.0, 5.0, 26)
    res = evolve_exact(spec, t, 1.0, n_modes=150, rwa=True)
    assert res.n.max() <= 1.0 + 1e-10
    assert res.n[-1] < 1.0  # occupation leaks into the bath


def test_propagator_blocks_are_symplectic():
    spec = _weak()
    Txx, Txp, Tpx, Tpp, wm = propagator_blocks(spec, 0.0, n_modes=15)
    n = wm.size
    assert np.allclose(Txx, np.eye(n), atol=1e-12)
    assert np.allclose(Tpp, np.eye(n), atol=1e-12)
    assert np.abs(Txp).max() < 1e-12 and np.abs(Tpx).max() < 1e-12
    Txx, Txp, Tpx, Tpp, _ = propagator_blocks(spec, 0.7, n_modes=15)
    # phase-space volume and Poisson brackets are preserved
    assert np.allclose(Txx @ Tpp.T - Txp @ Tpx.T, np.eye(n), atol=1e-10)
    assert np.allclose(Txx @ Txp.T, (Txx @ Txp.T).T, atol=1e-10)
    assert np.allclose(Tpx @ Tpp.T, (Tpx @ Tpp.T).T, atol=1e-10)


def test_comb_self_convergence(weak_case):
    spec, _, traj, oracle400 = weak_case
    oracle800 = evolve_exact(spec, oracle400.t, 0.0, n_modes=800, w_max=200.0)
    assert np.abs(oracle400.n - oracle800.n).max() < 1e-6
    rep = compare(traj.t, traj.occupations[0], oracle800.t, oracle800.n)
    assert rep.max_abs_dev < 0.03


def test_compare_reports_the_overlap():
    t = np.linspace(0.0, 10.0, 101)
    r = compare(t, np.sin(t), t[:51], np.sin(t[:51]) + 0.01)
    assert r.overlap == (0.0, 5.0)
    assert r.max_abs_dev == pytest.approx(0.01, rel=1e-6)
    assert r.mean_abs_dev == pytest.approx(0.01, rel=1e-6)
    with pytest.raises(DomainError):
        compare([0.0, 1.0], [0.0, 0.0], [2.0, 3.0], [0.0, 0.0])
