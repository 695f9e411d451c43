import warnings

import numpy as np
import pytest

from openosc import BathSpec, compare, evolve_exact, make_system, oracle
from openosc.errors import (DimensionCapError, DomainError, NumericalError,
                            StabilityError)
from openosc.model import (_default_w_max, equilibrium_occupation,
                           spectral_density)
from openosc.cli import _closed_form
from openosc.oracle import _arrowhead_eigh, _comb, _mode_system, _tail_corner
from openosc.scenarios import fig1_system


def _weak(eps=+1, T=1.0, alpha=0.01):
    """validate's reference system at the defaults."""
    return make_system(
        1.0,
        BathSpec(statistics=eps, alpha=alpha, gamma=10.0, temperature=T),
        BathSpec(statistics=eps, alpha=alpha, gamma=10.0, temperature=T),
    )


def _per_bath_reference(spec, t, n0, n_modes):
    """Occupation from the unmerged model: one mode per bath and frequency.

    Each bath's comb samples its spectral density at the midpoints w_i of
    [0, W], with a_i^2 = w_i dw J(w_i).  The two combs are concatenated,
    2 n_modes + 1 modes in which every frequency appears twice, and
    diagonalized by a dense ``np.linalg.eigh`` built here, independent of
    the oracle's solver.  The bath above the cutoff W goes into the corner,
    written out here as omega^2 - 4 omega sum_b (alpha_b gamma_b / pi)
    (pi/2 - arctan(W / gamma_b)).
    """
    w_max = _default_w_max(spec)
    dw = w_max / n_modes
    w_b = (np.arange(n_modes) + 0.5) * dw
    w_bath = np.concatenate([w_b, w_b])
    a_bath = np.concatenate([np.sqrt(w_b * dw * spectral_density(w_b, b))
                             for b in spec.baths])
    occ0 = np.concatenate([[n0], *(
        equilibrium_occupation(w_b, b.temperature, b.statistics)
        for b in spec.baths)])
    w = spec.omega
    wm = np.concatenate([[w], w_bath])
    # the oscillator rows of the (X, P) propagator blocks, as in
    # _propagator_blocks, from the dense normal modes
    tail = sum(b.alpha * b.gamma / np.pi
               * (np.pi / 2 - np.arctan(w_max / b.gamma)) for b in spec.baths)
    nu2, O = np.linalg.eigh(_arrow(w**2 - 4.0 * w * tail,
                                   2.0 * a_bath * np.sqrt(w * w_bath),
                                   w_bath**2))
    nu = np.sqrt(nu2)[:, None]
    u = O[0][:, None]
    c = O @ (u * np.cos(nu * t))
    s_over = O @ (u * np.sin(nu * t) / nu)
    s_times = O @ (u * np.sin(nu * t) * nu)
    r = np.sqrt(wm / w)[:, None]
    rows = (c / r) ** 2 + (s_over * r * w) ** 2 + (s_times / (r * w)) ** 2 \
        + (c * r) ** 2
    return 0.5 * (rows.T @ (occ0 + 0.5) - 1.0)


def _arrow(a, z, d):
    """The dense arrowhead [[a, z^T], [z, diag(d)]]."""
    M = np.diag(np.concatenate([[a], d]))
    M[0, 1:] = M[1:, 0] = z
    return M


def _propagator_blocks(spec, t_point, n_modes, w_max=None):
    """Full (X, P) propagator blocks at one time, for invariant checks.

    Returns (Txx, Txp, Tpx, Tpp, wm) on the oscillator plus the merged
    comb, the matrix the oracle diagonalizes (counterterm included).  The
    oracle itself only ever materializes the oscillator row.
    """
    if w_max is None:
        w_max = _default_w_max(spec)
    w_bath, a_bath, _ = _comb(spec, n_modes, w_max)
    wm, nu, O = _mode_system(spec.omega, _tail_corner(spec, w_max), w_bath,
                             a_bath)
    sqw = np.sqrt(wm)
    c = O @ np.diag(np.cos(nu * t_point)) @ O.T
    s_over = O @ np.diag(np.sin(nu * t_point) / nu) @ O.T
    s_times = O @ np.diag(np.sin(nu * t_point) * nu) @ O.T
    Txx = sqw[:, None] * c / sqw[None, :]
    Txp = sqw[:, None] * s_over * sqw[None, :]
    Tpx = -s_times / (sqw[:, None] * sqw[None, :])
    Tpp = c * sqw[None, :] / sqw[:, None]
    return Txx, Txp, Tpx, Tpp, wm


def _propagator_reference(spec, t, n0, n_modes, w_max):
    """Occupation of the merged comb from each time's whole propagator: the
    four squared oscillator-row blocks of ``_propagator_blocks``."""
    _, _, occ_bath = _comb(spec, n_modes, w_max)
    occ0 = np.concatenate([[n0], occ_bath])
    n = []
    for tk in t:
        Txx, Txp, Tpx, Tpp, _ = _propagator_blocks(spec, tk, n_modes, w_max)
        rows = Txx[0] ** 2 + Txp[0] ** 2 + Tpx[0] ** 2 + Tpp[0] ** 2
        n.append(0.5 * (rows @ (occ0 + 0.5) - 1.0))
    return np.array(n)


def test_occupation_matches_the_whole_propagator():
    spec = make_system(1.0, BathSpec(+1, 0.02, 8.0, 2.0),
                       BathSpec(+1, 0.005, 14.0, 0.3))
    t = np.linspace(0.0, 4.0, 21)
    got = evolve_exact(spec, t, 0.2, n_modes=100, w_max=40.0).n
    want = _propagator_reference(spec, t, 0.2, 100, 40.0)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


_MERGE_CASES = {
    "bosonic": ((0.02, 8.0, 2.0), (0.005, 14.0, 0.3)),
    "one bath decoupled": ((0.0, 10.0, 1.0), (0.02, 12.0, 0.5)),
}


@pytest.mark.parametrize("case", sorted(_MERGE_CASES))
def test_merged_comb_matches_the_per_bath_model(case):
    bath1, bath2 = _MERGE_CASES[case]
    spec = make_system(1.0, BathSpec(+1, *bath1), BathSpec(+1, *bath2))
    t = np.linspace(0.0, 4.0, 41)
    got = evolve_exact(spec, t, 0.2, n_modes=200).n
    want = _per_bath_reference(spec, t, 0.2, 200)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_fully_decoupled_comb_keeps_its_occupation():
    # every merged mode has a = 0, where the weighted occupation is 0/0
    spec = make_system(1.0, BathSpec(+1, 0.0, 10.0, 1.0),
                       BathSpec(+1, 0.0, 12.0, 0.5))
    res = evolve_exact(spec, np.linspace(0.0, 4.0, 41), 0.25, n_modes=200)
    assert np.isfinite(res.n).all()
    assert np.abs(res.n - 0.25).max() <= 1e-12


def _full_arrowhead(spec, n_modes):
    w = spec.omega
    w_bath, a_bath, _ = _comb(spec, n_modes, _default_w_max(spec))
    return w**2, 2.0 * a_bath * np.sqrt(w * w_bath), w_bath**2


def _rwa_arrowhead(spec, n_modes):
    """An excitation-conserving coupling's arrowhead: corner omega, border
    a_i and poles w_i, on another scale than the full coupling's squares."""
    w_bath, a_bath, _ = _comb(spec, n_modes, _default_w_max(spec))
    return spec.omega, a_bath, w_bath


def _some_decoupled(spec, n_modes):
    a, z, d = _full_arrowhead(spec, n_modes)
    return a, np.where(np.arange(z.size) % 3 == 1, 0.0, z), d


_ARROWHEADS = {
    "validate, 400 modes": lambda: _full_arrowhead(_weak(), 400),
    "validate, 800 modes": lambda: _full_arrowhead(_weak(), 800),
    "alpha 1e-7": lambda: _full_arrowhead(_weak(alpha=1e-7), 400),
    "alpha 0.3": lambda: _full_arrowhead(_weak(alpha=0.3), 400),
    "fermionic": lambda: _full_arrowhead(_weak(eps=-1), 400),
    "rwa": lambda: _rwa_arrowhead(_weak(), 400),
    "every third mode decoupled": lambda: _some_decoupled(_weak(), 400),
}


@pytest.mark.parametrize("case", sorted(_ARROWHEADS))
def test_secular_solver_matches_a_dense_eigh(case):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # alpha 0.3 leaves the fast-bath regime
        a, z, d = _ARROWHEADS[case]()
    lam, O = _arrowhead_eigh(a, z, d)
    lam_ref, V = np.linalg.eigh(_arrow(a, z, d))
    assert np.abs(lam - lam_ref).max() <= 1e-13 * np.abs(lam_ref).max()
    sign = np.sign(np.einsum("ik,ik->k", O, V))
    assert np.abs(O - V * sign).max() <= 1e-10
    assert np.abs(O.T @ O - np.eye(d.size + 1)).max() <= 1e-13


def _three_products(w, corner, w_bath, a_bath, occ_bath, t, n0):
    """The oscillator's occupation with every propagator row a full product.

    C, S1 and S2 each take O times the scaled sine or cosine table per time
    block, with np.cos and np.sin on every grid.
    """
    wm, nu, O = _mode_system(w, corner, w_bath, a_bath)
    occ0 = np.concatenate([[n0], occ_bath]) + 0.5
    u = O[0, :]
    weights = np.stack([occ0 * (wm / w + w / wm), occ0 * w * wm,
                        occ0 / (w * wm)])
    n_out = np.empty(t.size)
    for i in range(0, t.size, 256):
        ts = t[i:i + 256]
        cos_t = np.cos(np.outer(nu, ts)) * u[:, None]
        sin_t = np.sin(np.outer(nu, ts)) * u[:, None]
        rows = (O @ cos_t, O @ (sin_t / nu[:, None]), O @ (sin_t * nu[:, None]))
        X2P2 = sum((r**2).T @ wt for r, wt in zip(rows, weights))
        n_out[i:i + 256] = 0.5 * (X2P2 - 1.0)
    return n_out


_VALIDATE_TIMES = np.arange(0.0, 10.0 + 1e-9, 0.02)

_PROPAGATIONS = {
    "validate": (_weak(), _VALIDATE_TIMES),
    "alpha 0.3": (_weak(alpha=0.3), _VALIDATE_TIMES),
    "alpha 1e-7": (_weak(alpha=1e-7), _VALIDATE_TIMES),
    "fermionic": (_weak(eps=-1), _VALIDATE_TIMES),
    "non-uniform grid": (_weak(), 10.0 * np.linspace(0.0, 1.0, 301) ** 2),
}


@pytest.mark.parametrize("case", sorted(_PROPAGATIONS))
def test_propagation_matches_three_full_products(case):
    # S2 from the arrowhead's rows and cos/sin by angle addition on uniform
    # grids, against three full products and np.cos/np.sin
    spec, t = _PROPAGATIONS[case]
    w_max = _default_w_max(spec)
    comb = _comb(spec, 400, w_max)
    corner = _tail_corner(spec, w_max)
    got = oracle._evolve_full(spec.omega, corner, *comb, t, 0.3)
    want = _three_products(spec.omega, corner, *comb, t, 0.3)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_secular_solver_guards():
    with pytest.raises(StabilityError):
        # sum z_i^2 / d_i = 3.84 exceeds a = 1: a negative normal-mode nu^2
        _mode_system(1.0, 1.0, np.array([0.5, 1.5]), np.array([0.6, 0.6]))
    for d in ([1.0, 2.0, 2.0], [3.0, 2.0, 1.0]):
        with pytest.raises(DomainError, match="strictly ascending"):
            _arrowhead_eigh(1.0, np.array([0.1, 0.2, 0.3]), np.array(d))


def test_secular_solver_raises_rather_than_return_unconverged_roots(
        monkeypatch):
    monkeypatch.setattr(oracle, "_SECULAR_MAX_ITER", 2)
    with pytest.raises(NumericalError, match="did not converge"):
        _arrowhead_eigh(*_full_arrowhead(_weak(), 50))


def test_sample_bath_reproduces_the_truncated_coupling_sum():
    # one bath sampled alone: bath 2 is decoupled, so the merged comb is
    # bath 1's own
    bath = BathSpec(statistics=+1, alpha=0.01, gamma=10.0, temperature=1.0)
    spec = make_system(1.0, bath, BathSpec(+1, 0.0, 12.0, 0.5))
    w, a, occ = _comb(spec, 400, 200.0)
    assert w.shape == a.shape == occ.shape == (400,)
    assert w[0] == pytest.approx(0.25, rel=1e-12)  # midpoint of the first cell
    assert occ == pytest.approx(equilibrium_occupation(w, 1.0, +1), rel=1e-15)
    # midpoint rule telescopes to the truncated continuum integral
    target = (bath.alpha * bath.gamma / np.pi) * np.arctan(200.0 / bath.gamma)
    assert np.sum(a**2 / w) == pytest.approx(target, rel=1e-7)
    with pytest.raises(DomainError, match="bath modes"):
        evolve_exact(spec, [0.0, 1.0], 0.0, n_modes=0)
    with pytest.raises(DomainError, match="cutoff"):
        evolve_exact(spec, [0.0, 1.0], 0.0, n_modes=10, w_max=-1.0)


def test_tail_corner_restores_the_renormalized_static_frequency():
    # the corner minus the comb's static coupling sum z^2/d is omega Omega,
    # the oscillator's static stiffness with the whole continuum attached,
    # to the midpoint rule's O(dw^2): omega - Omega = 2 sum_b alpha_b gamma_b.
    # The plain corner omega^2 misses it by 7.0% on W 40 and 1.4% on W 200
    spec = make_system(1.0, BathSpec(+1, 0.02, 8.0, 2.0),
                       BathSpec(+1, 0.005, 14.0, 0.3))
    w = spec.omega
    target = w * spec.omega_renormalized
    for n_modes, w_max in ((100, 40.0), (400, 200.0)):
        w_bath, a_bath, _ = _comb(spec, n_modes, w_max)
        comb = 4.0 * w * np.sum(a_bath**2 / w_bath)
        assert _tail_corner(spec, w_max) - comb == pytest.approx(target,
                                                                 rel=1e-6)
        assert w * w - comb > 1.01 * target


def test_oracle_input_validation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mixed = fig1_system()
    for spec in (mixed, _weak(eps=-1)):
        with pytest.raises(DomainError, match="all-bosonic"):
            evolve_exact(spec, [0.0, 1.0], 0.0)
    with pytest.raises(DimensionCapError):
        evolve_exact(_weak(), [0.0, 1.0], 0.0, n_modes=1001)
    with pytest.raises(DomainError):
        evolve_exact(_weak(), [-1.0, 1.0], 0.0)
    with pytest.raises(DomainError):
        evolve_exact(_weak(), [0.0, 1.0], -0.2)


@pytest.mark.parametrize("n0", [np.nan, np.inf])
def test_oracle_rejects_a_non_finite_n0(n0):
    with pytest.raises(DomainError, match=f"got {n0}"):
        evolve_exact(_weak(), [0.0, 1.0], n0, n_modes=20)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_oracle_rejects_non_finite_times(bad):
    with pytest.raises(DomainError, match=f"got {bad}"):
        evolve_exact(_weak(), [0.0, bad, 1.0], 0.0, n_modes=20)


def test_oracle_rejects_a_fractional_mode_count():
    # 50.5 would build 51 midpoints spaced W/50.5, the last one at W
    with pytest.raises(DomainError, match="got 50.5"):
        evolve_exact(_weak(), [0.0, 1.0], 0.0, n_modes=50.5)


def test_oracle_rejects_an_empty_grid_and_a_boolean_mode_count():
    # numpy's "zero-size array" ValueError, and True run as one mode
    with pytest.raises(DomainError, match="empty"):
        evolve_exact(_weak(), [], 0.0, n_modes=20)
    with pytest.raises(DomainError, match="got True"):
        evolve_exact(_weak(), [0.0, 1.0], 0.0, n_modes=True)


@pytest.mark.parametrize("t_a, n_a, t_b, n_b", [
    ([], [], [0.0, 1.0], [0.0, 0.0]),
    ([0.0, 1.0], [0.0, 0.0], [], []),
    ([0.0, 1.0, 2.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]),
    ([0.0, 1.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 0.0]),
], ids=["empty-a", "empty-b", "unequal-a", "unequal-b"])
def test_compare_rejects_empty_and_unequal_trajectories(t_a, n_a, t_b, n_b):
    # numpy raised ValueError, e.g. "fp and xp are not of the same length"
    with pytest.raises(DomainError, match="trajectory"):
        compare(t_a, n_a, t_b, n_b)


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
    # at T = 0 from an empty oscillator, which an excitation-conserving
    # coupling would leave empty
    spec = _weak(T=0.0)
    t = np.linspace(0.0, 5.0, 26)
    full = evolve_exact(spec, t, 0.0, n_modes=150)
    assert full.n[5:].min() > 1e-5


def test_propagator_blocks_are_symplectic():
    spec = _weak()
    Txx, Txp, Tpx, Tpp, wm = _propagator_blocks(spec, 0.0, 15)
    n = wm.size
    assert np.allclose(Txx, np.eye(n), atol=1e-12)
    assert np.allclose(Tpp, np.eye(n), atol=1e-12)
    assert np.abs(Txp).max() < 1e-12 and np.abs(Tpx).max() < 1e-12
    Txx, Txp, Tpx, Tpp, _ = _propagator_blocks(spec, 0.7, 15)
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


def test_remainder_falls_as_the_inverse_square_of_the_cutoff(weak_case):
    # validate's system: the comb's deviation from the closed form on
    # (400 modes, W 200) and (200 modes, W 100) reads 1.93e-5 and 9.61e-5,
    # a ratio of 4.98; without the counterterm 4.52e-3 and 8.82e-3, a
    # ratio of 1.95 (the O(1/W) error of the missing bath above W)
    spec, series, _, oracle200 = weak_case
    closed = _closed_form(series, spec, 0.0)
    oracle100 = evolve_exact(spec, series.t, 0.0, n_modes=200, w_max=100.0)
    dev200 = compare(series.t, closed, oracle200.t, oracle200.n).max_abs_dev
    dev100 = compare(series.t, closed, oracle100.t, oracle100.n).max_abs_dev
    assert dev100 <= 1e-4
    assert dev100 / dev200 >= 3.0


def test_strong_bosonic_pair_member_matches_the_oracle(pair5_case):
    # fig5's system 2 (alpha 0.05/0.03, gamma 12/15) on t <= 8, inside the
    # recurrence time 16.8 of 800 modes on its default W 300: the closed form
    # is 7.7e-5 off the oracle, and 4.1e-2 off the comb without the
    # counterterm.  On a 2-core VM the test takes about 60 ms, 51-54 ms of
    # it in the oracle
    (_, spec), (_, series) = pair5_case
    k = int(np.searchsorted(series.t, 8.0 + 1e-9))
    t = series.t[:k]
    closed = _closed_form(series, spec, 0.0)[:k]
    res = evolve_exact(spec, t, 0.0, n_modes=800)
    assert res.w_max == 300.0 and res.recurrence_time > t[-1]
    assert compare(t, closed, res.t, res.n).max_abs_dev <= 1e-3


def test_compare_reports_the_overlap():
    t = np.linspace(0.0, 10.0, 101)
    r = compare(t, np.sin(t), t[:51], np.sin(t[:51]) + 0.01)
    assert r.overlap == (0.0, 5.0)
    assert r.max_abs_dev == pytest.approx(0.01, rel=1e-6)
    assert r.mean_abs_dev == pytest.approx(0.01, rel=1e-6)
    with pytest.raises(DomainError):
        compare([0.0, 1.0], [0.0, 0.0], [2.0, 3.0], [0.0, 0.0])
