import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from openosc import (
    BathSpec,
    antiphase_metric,
    asymptotic_occupation,
    delta_dissipation,
    detect_stationarity,
    estimate_period,
    evolve,
    evolve_coupled,
    make_system,
    stationarity_condition_residual,
)
from openosc import dynamics
from openosc.dynamics import (BLOCK, CHUNK, _build_maps, _trajectories,
                              _uniform_step)
from openosc.errors import (
    DomainError,
    InsufficientDataError,
    MomentBlowupError,
    UndefinedMetricError,
)
from openosc.scenarios import BETA_FAMILY, SCENARIOS, _PAIR_BUILDERS, run_scenario
from openosc.transport import coefficients
from openosc.transport.coefficients import (CoefficientSeries, _local_cubic,
                                            _stencil, coefficient_series)


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
                             amplitudes=None, quadrature_report=None)


def _run_constant(dt, lam0=0.9, dif0=0.45, n0=2.0, t_max=5.0):
    t = np.arange(0.0, t_max + 0.5 * dt, dt)
    series = _toy_series(t, lam0, dif0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = evolve(series, _toy_spec(), n0)
    exact = dif0 / lam0 + (n0 - dif0 / lam0) * np.exp(-2.0 * lam0 * t)
    return np.abs(traj.occupations[0] - exact).max()


def _rk4_reference(series, betas, n0):
    """Occupations (run, oscillator, t) from a plain per-half-step RK4 loop.

    The same equations, stage arithmetic and quarter-grid coefficients as
    the stepper, applied to the state one half-step at a time; it raises
    MomentBlowupError where the state first leaves the guard.
    """
    t = series[0].t
    h2 = _uniform_step(t) / 2.0
    n_osc = len(series)
    coef2 = 2.0 * _local_cubic(
        [s.friction for s in series] + [s.diffusion for s in series], 4)
    coef2 = coef2.reshape(2 * n_osc, -1).T
    lam2, dif2 = coef2[:, :n_osc, None], coef2[:, n_osc:, None]
    neg_beta = -np.asarray(betas, dtype=float)

    def deriv(q, s):
        n = s[0]
        return np.array([s[1] - lam2[q] * n + dif2[q],
                         neg_beta * (n - n[::-1])])

    s = np.zeros((2, n_osc, neg_beta.size))
    s[0] = np.asarray(n0, dtype=float)[:, None]
    out = [s[0]]
    for m in range(2 * (t.size - 1)):
        q = 5 * (m // 2) + 2 * (m % 2)
        k1 = deriv(q, s)
        k2 = deriv(q + 1, s + 0.5 * h2 * k1)
        k3 = deriv(q + 1, s + 0.5 * h2 * k2)
        k4 = deriv(q + 2, s + h2 * k3)
        s = s + h2 / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.abs(s[0]).max() <= 1e12:
            raise MomentBlowupError("occupation exceeded the blow-up guard",
                                    time=float(t[(m + 1) // 2]))
        if m % 2 == 1:
            out.append(s[0])
    return np.array(out).transpose(2, 1, 0)


def _assert_matches_reference(series, specs, betas, n0):
    want = _rk4_reference(series, betas, n0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for beta, ref in zip(betas, want):
            if len(series) == 1:
                got = [evolve(series[0], specs[0], n0[0]).occupations[0]]
            else:
                got = evolve_coupled(*series, *specs, beta, n0).occupations
            assert np.abs(np.array(got) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_stepper_matches_per_step_rk4_on_a_coupled_toy():
    dt = 0.01
    t = np.arange(0.0, 6.0 + 0.5 * dt, dt)
    s1 = _toy_series(t, 0.7 + 0.2 * np.sin(3.0 * t), 0.3 + 0.1 * np.cos(t))
    s2 = _toy_series(t, 0.4 - 0.1 * np.cos(2.0 * t), 0.1 + 0.05 * np.sin(2.0 * t))
    spec = _toy_spec()
    _assert_matches_reference((s1, s2), (spec, spec), (0.0, 0.3, 2.0), (1.0, 0.5))
    _assert_matches_reference((s1,), (spec,), (0.0,), (1.0,))


def test_stepper_matches_per_step_rk4_on_the_fig5_pair(pair5_case):
    specs, series = pair5_case
    _assert_matches_reference(series, specs, (0.0,) + BETA_FAMILY, (0.0, 0.25))


@pytest.mark.parametrize("n_half", [2, CHUNK - 2, 5 * CHUNK + 6, 2 * BLOCK + 76])
def test_scan_matches_sequential_composition(monkeypatch, n_half):
    # grids of one interval, of fewer half-steps than one chunk, of a count
    # that is not a multiple of the chunk, and of several blocks, the last
    # one partial; single runs and coupled ones with several couplings
    dt = 0.01
    t = dt * np.arange(n_half // 2 + 1)
    s1 = _toy_series(t, 0.7 + 0.2 * np.sin(3.0 * t), 0.3 + 0.1 * np.cos(t))
    s2 = _toy_series(t, 0.4 - 0.1 * np.cos(2.0 * t), 0.1 + 0.05 * np.sin(2.0 * t))
    spec = _toy_spec()
    for series, betas in ((((s1,), (s2,)), (0.0, 0.0)),
                          (((s1, s2), (s2, s1), (s1, s2)), (0.3, 0.3, 2.0))):
        specs = tuple((spec,) * len(series[0]) for _ in series)
        scanned = _build_maps(series, specs, betas).blocks
        # blocks of one half-step hold each half-step's own map
        with monkeypatch.context() as m:
            m.setattr(dynamics, "BLOCK", 1)
            steps = _build_maps(series, specs, betas).blocks
        assert len(steps) == n_half
        d = 2 * len(series[0])
        assert [b.shape for b in scanned] == [
            (len(series), min(BLOCK, n_half - m0), d, d)
            for m0 in range(0, n_half, BLOCK)]
        for m0, block in zip(range(0, n_half, BLOCK), scanned):
            prefix = steps[m0][:, 0]
            want = [prefix]
            for step in steps[m0 + 1:m0 + block.shape[1]]:
                prefix = step[:, 0] @ prefix
                want.append(prefix)
            want = np.stack(want, axis=1)
            assert np.abs(block - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("lam", [-5.0, -150.0, -2.5])
def test_blowup_time_matches_per_step_rk4(lam):
    # at lambda = -150 the prefix maps overflow to inf and nan past the
    # blow-up; that must neither move the reported time nor warn.  At -2.5
    # the single run's first bad state is at t = 5.53 (half-step 1105 or
    # 1106), in chunk 10 of the third block
    t = np.arange(0.0, 8.0, 0.01)
    grow = _toy_series(t, lam, 0.0)
    calm = _toy_series(t, 0.5, 0.1)
    spec = _toy_spec()
    # the last input: one build of three single runs, of which only the
    # middle one blows up
    batch = _build_maps(((calm,), (grow,), (calm,)), ((spec,),) * 3, (0.0,) * 3)
    for series, run in (((grow,), lambda: evolve(grow, spec, 1.0)),
                        ((calm, grow), lambda: evolve_coupled(
                            calm, grow, spec, spec, 0.3, (0.5, 1.0))),
                        ((grow,), lambda: _trajectories(
                            batch, (0, 1, 2), ((0.5,), (1.0,), (0.5,))))):
        with pytest.raises(MomentBlowupError) as want:
            _rk4_reference(series, (0.3,), (0.5, 1.0)[-len(series):])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(MomentBlowupError) as got:
                run()
        assert got.value.time == want.value.time


def test_local_cubic_reproduces_cubics_and_constants():
    # every quarter point of every interval, the one-sided end windows
    # included, and the derivative per grid step
    t = np.linspace(-1.0, 2.0, 13)
    h = t[1] - t[0]
    tq = t[:-1, None] + h * np.arange(5) / 4.0
    coeffs = (0.7, -1.3, 0.4, 0.9)  # highest power first
    got = _local_cubic(np.polyval(coeffs, t), 4)[0]
    assert got.shape == (12, 5)
    assert np.abs(got - np.polyval(coeffs, tq)).max() < 1e-14
    slope = _local_cubic(np.polyval(coeffs, t), 4, derivative=True)[0] / h
    assert np.abs(slope - np.polyval(np.polyder(coeffs), tq)).max() < 1e-13
    # constants come back exactly, which the RK4 order check relies on
    rows = np.array([np.full(t.size, 0.9), np.full(t.size, -1.0 / 3.0)])
    assert np.array_equal(_local_cubic(rows, 4),
                          np.broadcast_to(rows[:, :1, None], (2, 12, 5)))
    assert not np.any(_local_cubic(rows, 4, derivative=True))
    # grids of two and three points take the line and the parabola
    for pts in (2, 3):
        x = np.arange(pts, dtype=float)
        got = _local_cubic(x ** (pts - 1), 4)[0]
        want = (x[:-1, None] + np.arange(5) / 4.0) ** (pts - 1)
        assert np.abs(got - want).max() < 1e-15
    # the stencil (-7, 105, 35, -5)/128 at k + 1/4 inside, seen from the
    # intervals whose windows hold node 6, and the grid values themselves
    unit = np.eye(13)[6]
    assert np.array_equal(_local_cubic(unit, 4)[0, 4:8, 1] * 128,
                          [-5, 35, 105, -7])
    assert np.array_equal(_local_cubic(unit, 4)[0, 6, ::4], [1.0, 0.0])


def test_local_cubic_stencils_stay_constant():
    # the stencil tables are built once per (width, sub, derivative) and
    # cannot be written, so no call changes what a later one reads
    y = np.sin(np.linspace(0.0, 3.0, 17))
    for derivative in (False, True):
        first = _local_cubic(y, 4, derivative)
        assert np.array_equal(_local_cubic(y, 4, derivative), first)
        tables = _stencil(4, 4, derivative)
        assert _stencil(4, 4, derivative) is tables
        for table in tables:
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[...] = 0


def test_quarter_points_are_made_once_per_series(monkeypatch):
    calls = []
    cubic = coefficients._local_cubic
    monkeypatch.setattr(coefficients, "_local_cubic",
                        lambda *a, **k: calls.append(1) or cubic(*a, **k))
    t = np.arange(0.0, 3.0 + 0.005, 0.01)
    series = _toy_series(t, 0.7 + 0.2 * np.sin(3.0 * t), 0.3 + 0.1 * np.cos(t))
    spec = _toy_spec()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        evolve(series, spec, 1.0)
        evolve(series, spec, 0.5)
        evolve_coupled(series, series, spec, spec, 0.3, (1.0, 0.0))
        delta_dissipation(series, series, spec, spec, 0.3, (1.0, 0.0))
    assert len(calls) == 1
    table = series.quarter_points
    assert np.array_equal(table, 2.0 * cubic([series.friction, series.diffusion], 4))
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0.0
    # a replace copy, such as validate's corrupted series, makes its own
    corrupted = replace(series, friction=series.friction * 1.03)
    assert not np.array_equal(corrupted.quarter_points[0], table[0])
    assert np.array_equal(corrupted.quarter_points[1], table[1])
    assert len(calls) == 2


def test_pair_products_are_equal_on_cold_and_warm_caches(pair5_case):
    # the pair-dynamics sequence: nine stepping calls on the same two
    # series, then three stationary queries; the second pass reads the
    # series' quarter points and the memoized stationary integrals
    (spec1, spec2), (ser1, ser2) = pair5_case
    ser1, ser2 = replace(ser1), replace(ser2)  # no table made yet

    def products():
        out = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for beta in (0.0,) + BETA_FAMILY:
                traj = evolve_coupled(ser1, ser2, spec1, spec2, beta, (0.0, 0.0))
                out += [traj.occupations, traj.dissipation]
            for beta in BETA_FAMILY:
                dd = delta_dissipation(ser1, ser2, spec1, spec2, beta, (0.0, 0.0))
                out.append(dd.delta_energy)
        out.append((asymptotic_occupation(spec1), asymptotic_occupation(spec2),
                    stationarity_condition_residual(spec1)))
        return [np.array(x) for x in out]

    assert "quarter_points" not in vars(ser1)
    cold = products()
    assert "quarter_points" in vars(ser1)
    warm = products()
    assert all(np.array_equal(a, b) for a, b in zip(cold, warm))


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
    # and in scipy's operation order, so E(t) is unchanged to the bit
    assert np.array_equal(traj.dissipation[0], cumulative_trapezoid(
        2.0 * lam0 * n, t, initial=0.0))
    assert traj.metadata["n0"] == (n0,)


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
    assert traj.metadata["envelope_exceeded"] == [True]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quiet = evolve(series, spec, 0.1)
    assert quiet.metadata["envelope_exceeded"] == [False]


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


_BAD_INPUTS = {
    # (oscillators, n0, beta, what the DomainError names)
    "one n0 for a pair": (2, (0.5,), 0.1, "n0"),
    "three n0 for a pair": (2, (0.5, 0.2, 0.1), 0.1, "n0"),
    "scalar n0 for a pair": (2, 0.5, 0.1, "n0"),
    "nan n0 for a pair": (2, (0.5, np.nan), 0.1, "n0"),
    "nan beta": (2, (0.5, 0.2), np.nan, "beta"),
    "nan n0 for one oscillator": (1, np.nan, None, "n0"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_stepping_inputs_are_checked(case):
    n_osc, n0, beta, name = _BAD_INPUTS[case]
    t = np.linspace(0.0, 1.0, 11)
    s1 = _toy_series(t, 0.5, 0.1)
    spec = _toy_spec()
    with pytest.raises(DomainError, match=name):
        if n_osc == 1:
            evolve(s1, spec, n0)
        else:
            evolve_coupled(s1, _toy_series(t, 0.3, 0.2), spec, spec, beta, n0)


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
        # and with ab and ba from one build: as two runs, and as one run of
        # an identical pair applied to swapped start states
        shared = _trajectories(
            _build_maps(((s1, s2), (s2, s1)), ((spec, spec),) * 2, (0.3, 0.3)),
            (0, 1), ((1.0, 0.5), (0.5, 1.0)))
        same = _trajectories(_build_maps(((s1, s1),), ((spec, spec),), (0.3,)),
                             (0, 0), ((1.0, 0.5), (0.5, 1.0)))
    for ab, ba in ((ab, ba), shared, same):
        assert np.array_equal(ab.occupations[0], ba.occupations[1])
        assert np.array_equal(ab.occupations[1], ba.occupations[0])


def test_fig5_pair_swap_symmetry_at_every_coupling(pair5_case):
    # the fig5 pair (distinct baths) on a grid of several blocks, one start
    # per coupling with n1 != n2: swapping the oscillators swaps the
    # outputs bit for bit, with the two orders from one build and from two
    specs, (s1, s2) = pair5_case
    k = len(BETA_FAMILY)
    starts = tuple((0.2 + i, 0.7 * i) for i in range(k))
    swapped = tuple(v[::-1] for v in starts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        one = _trajectories(
            _build_maps(((s1, s2),) * k + ((s2, s1),) * k,
                        (specs,) * k + (specs[::-1],) * k, BETA_FAMILY * 2),
            range(2 * k), starts + swapped)
        ab = _trajectories(_build_maps(((s1, s2),) * k, (specs,) * k,
                                       BETA_FAMILY), range(k), starts)
        ba = _trajectories(_build_maps(((s2, s1),) * k, (specs[::-1],) * k,
                                       BETA_FAMILY), range(k), swapped)
    assert 2 * (s1.t.size - 1) > 2 * BLOCK
    for x, y in (*zip(one[:k], one[k:]), *zip(ab, ba)):
        assert np.array_equal(x.occupations[0], y.occupations[1])
        assert np.array_equal(x.occupations[1], y.occupations[0])
        assert not np.array_equal(x.occupations[0], x.occupations[1])


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
        # one build over several series pairs and couplings, applied to
        # several start states, and one build of single runs likewise
        pairs = (((s1, s2), 0.3), ((s2, s1), 0.0), ((s1, s1), 1.5))
        starts = ((0, (1.0, 0.5)), (2, (0.2, 0.0)), (0, (0.0, 2.0)),
                  (1, (1.0, 0.5)))
        batch = _trajectories(
            _build_maps([p for p, _ in pairs], ((spec, spec),) * 3,
                        [b for _, b in pairs]),
            [r for r, _ in starts], [n0 for _, n0 in starts])
        separate = [evolve_coupled(*pairs[r][0], spec, spec, pairs[r][1], n0)
                    for r, n0 in starts]
        singles = _trajectories(
            _build_maps(((s1,), (s2,)), ((spec,),) * 2, (0.0, 0.0)),
            (1, 0, 1), ((0.4,), (1.0,), (0.0,)))
        separate += [evolve(s2, spec, 0.4), evolve(s1, spec, 1.0),
                     evolve(s2, spec, 0.0)]
    runs = [(dd.coupled, at_beta), (dd.uncoupled, at_zero),
            *zip(batch + singles, separate, strict=True)]
    for run, ref in runs:
        for field in ("occupations", "rates", "dissipation"):
            for got, want in zip(getattr(run, field), getattr(ref, field),
                                 strict=True):
                assert np.array_equal(got, want)
    assert dd.coupled.metadata["beta"] == 0.3
    assert dd.uncoupled.metadata["beta"] == 0.0
    for i in range(2):
        assert np.array_equal(dd.delta_energy[i],
                              at_beta.dissipation[i] - at_zero.dissipation[i])


@pytest.mark.parametrize("name", ["fig4", "fig6", "fig7", "fig8"])
def test_coupled_scenarios_match_per_coupling_calls(name):
    # run_scenario steps every coupling in one pass; each table must equal
    # the public per-coupling calls bit for bit
    d = SCENARIOS[name]
    t = np.arange(0.0, 2.0 + 0.5 * d.dt, d.dt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        specs = _PAIR_BUILDERS[name]().systems
        tables = run_scenario(name, t_max=2.0).tables
        s1, s2 = (coefficient_series(spec, t) for spec in specs)
        expected = {}
        for beta in d.betas:
            if d.product == "delta-dissipation":
                dd = delta_dissipation(s1, s2, *specs, beta, d.n0)
                expected[f"delta_beta{beta:g}"] = [
                    dd.t, *dd.delta_energy, *dd.delta_rate]
                continue
            traj = evolve_coupled(s1, s2, *specs, beta, d.n0)
            if d.product == "energies":
                expected[f"energies_beta{beta:g}"] = [t, *traj.dissipation]
            else:
                expected[f"trajectory_beta{beta:g}"] = [
                    t, *traj.occupations, *traj.rates]
    assert set(tables) == set(expected)
    for stem, cols in expected.items():
        assert all(np.array_equal(got, want)
                   for got, want in zip(tables[stem][1], cols, strict=True))


def _fig8(**overrides):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_scenario("fig8", **overrides)


def test_short_fig8_grid_smooths_over_the_whole_grid():
    # 2 pi/Omega at dt 0.01 is 629 points, more than the 201 of t <= 2: the
    # window shrinks to the grid, and every column keeps the grid's length
    result = _fig8(t_max=2.0)
    for names, cols in result.tables.values():
        assert [len(c) for c in cols] == [201] * len(names)
    h = _uniform_step(cols[0])
    assert result.metadata["smoothing_window"] == [201 * h, 201 * h]


def test_preset_fig8_rates_are_the_full_period_moving_average():
    # on the preset grid the window fits: 629 points, as the moving average
    # over 2 pi/Omega has always taken them
    result = _fig8()
    for names, (t, dE1, dE2, rate1, rate2) in result.tables.values():
        assert t.size == 2001
        h = _uniform_step(t)
        kernel = np.ones(629) / 629
        for dE, rate in ((dE1, rate1), (dE2, rate2)):
            assert np.array_equal(
                rate, np.convolve(np.gradient(dE, t), kernel, mode="same"))
    assert result.metadata["smoothing_window"] == [629 * h, 629 * h]


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
