"""Acceptance suite.

One test per release-checklist item, in the numbered order.  Each test
prints a single verdict line (run ``pytest -rA`` or ``-s`` to see them) and
asserts on it, so a failure stays visible with its measured values.  The
references of items 05, 06, 07 and 10 are derived independently of the
quantity under test: the occupation period from the characteristic roots
(item 05), the stationary occupation from the closed-form narrow-resonance
limit of the stationary integral (item 06 at one temperature, where it lies
above n at the bare frequency omega by an amount set by the static shift
omega - Omega = 2 sum alpha gamma, and item 07 at two), and the sign of the
coupling-induced dissipation shift from the first-order response of the
uncoupled run (item 10).
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, solve_ivp
from scipy.interpolate import CubicSpline, PPoly

from openosc import (
    BathSpec,
    antiphase_metric,
    asymptotic_occupation,
    characteristic_roots,
    compare,
    detect_stationarity,
    equilibrium_occupation,
    estimate_period,
    evolve,
    evolve_coupled,
    make_system,
    resonance_occupation,
)
from openosc.cli import main
from openosc.scenarios import BETA_FAMILY, fig1_system, fig3_pair, fig5_pair
from openosc.transport import quadrature
from openosc.transport.coefficients import CoefficientSeries
from openosc.transport.kernels import KernelEvaluator
from openosc.transport.quadrature import MemoryIntegrator
from openosc.transport.roots import oscillatory_pair


def _verdict(tag, checks):
    """checks: (label, ok, detail) triples -> one printed verdict line."""
    ok = all(c[1] for c in checks)
    body = "; ".join(
        f"{label}[{'ok' if c_ok else 'FAIL'}] {detail}"
        for label, c_ok, detail in checks
    )
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} :: {body}")
    assert ok, f"{tag}: {body}"


def _quiet(fn, *args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kw)


# corpus systems reused by several items
def _equal_T_system(eps):
    # alpha=0.01 per bath, gamma = T = 10*omega with omega = 5/3 the
    # self-consistent bare frequency for Omega = 1
    w = 5.0 / 3.0
    bath = BathSpec(statistics=eps, alpha=0.01, gamma=10.0 * w,
                    temperature=10.0 * w)
    return make_system(1.0, bath, bath)


def _two_temperature_system():
    return make_system(
        1.0,
        BathSpec(statistics=+1, alpha=3e-4, gamma=10.0, temperature=2.0),
        BathSpec(statistics=+1, alpha=2e-4, gamma=14.0, temperature=0.5),
    )


def test_01_kernel_and_coefficient_zeros(fig1_case):
    spec, series, _ = fig1_case
    rs = _quiet(characteristic_roots, spec)
    nu = oscillatory_pair(rs.roots)[1]
    M, N, _, _ = KernelEvaluator(rs, spec).mn_block([0.5, nu, 3.0, 10.0],
                                                   [0.0])
    values = {
        "lambda(0)": series.friction[0],
        "D(0)": series.diffusion[0],
        "I1(0)": series.memory_integrals[0][0],
        "I2(0)": series.memory_integrals[1][0],
        "B(0)": np.abs(series.amplitudes.B[0]),
        "M(w,0)": np.abs(M).max(),
        "N(w,0)": np.abs(N).max(),
    }
    _verdict("01 kernel zeros", [
        (k, abs(v) <= 1e-8, f"{abs(v):.2e}") for k, v in values.items()
    ])


def test_02_characteristic_roots():
    spec0 = _quiet(make_system, 2.0, BathSpec(+1, 0.0, 3.0, 1.0),
                   BathSpec(+1, 0.0, 7.0, 0.5))
    rs0 = characteristic_roots(spec0)
    expected = np.array([-7.0, -3.0, -2.0j, 2.0j])
    dev0 = np.abs(rs0.roots - expected).max()

    corpus = [_quiet(fig1_system)]
    corpus += list(_quiet(fig3_pair).systems)
    corpus += list(_quiet(fig5_pair).systems)
    corpus.append(make_system(1.0, BathSpec(+1, 0.01, 10.0, 1.0),
                              BathSpec(+1, 0.01, 10.0, 1.0)))
    corpus += [_quiet(_equal_T_system, +1), _quiet(_equal_T_system, -1)]
    corpus.append(_two_temperature_system())
    worst = max(_quiet(characteristic_roots, s).residuals_relative().max()
                for s in corpus)
    _verdict("02 roots", [
        ("zero-coupling roots", dev0 <= 1e-10, f"dev {dev0:.2e}"),
        ("corpus residuals", worst <= 1e-9,
         f"worst {worst:.2e} over {len(corpus)} systems"),
    ])


# --- item 03: the reduced first-order equation and the literal
# second-order equation must produce the same occupation when both are
# integrated from the same smooth coefficient model

def _stacked_spline(t, rows):
    """One cubic spline through the stacked ``rows``, and its values and
    derivative stacked in one piecewise polynomial.

    The derivative's quadratic pieces get a zero cubic coefficient, which
    adds an exact zero, so one evaluation returns the values then the
    derivatives, each bit for bit what its own spline returns.
    """
    spline = CubicSpline(t, np.stack(rows, axis=-1))
    dc = spline.derivative().c
    padded = np.concatenate((np.zeros_like(dc[:1]), dc))
    return spline, PPoly(np.concatenate((spline.c, padded), axis=-1), spline.x)


_IVP_KW = dict(method="DOP853", rtol=1e-11, atol=1e-13)


def _dual_gap_single(series, n0):
    t = series.t
    coef, both = _stacked_spline(t, (series.friction, series.diffusion))
    kw = dict(_IVP_KW, max_step=float(t[1] - t[0]), t_eval=t)

    def first(ti, s):
        lam, dif = coef(ti)
        return [-2 * lam * s[0] + 2 * dif]

    def second(ti, s):
        lam, _, dlam, ddif = both(ti)
        return [s[1], -2 * lam * s[1] - 2 * dlam * s[0] + 2 * ddif]

    a = solve_ivp(first, (t[0], t[-1]), [n0], **kw)
    b = solve_ivp(second, (t[0], t[-1]), [n0, 0.0], **kw)
    assert a.success and b.success
    return float(np.abs(a.y[0] - b.y[0]).max())


def _dual_gaps_pair(series1, series2, betas, n0=(0.0, 0.0)):
    """The gap at each coupling in ``betas``.  The runs of one equation
    form are stacked into one system, its state (n_1, n_2, y_1, y_2), or
    n' in place of y, with a column per coupling.

    The stacked runs share one step sequence.  Past the first steps every
    step is capped at max_step, so the error norm, which spans every
    component, sets none of them; a run's gap is set by where its steps
    fall between the spline's knots, and a stack of one coupling gives
    that coupling's gap of a run of its own.
    """
    t = series1.t
    coef, both = _stacked_spline(t, (series1.friction, series2.friction,
                                     series1.diffusion, series2.diffusion))
    kw = dict(_IVP_KW, max_step=float(t[1] - t[0]), t_eval=t)
    beta = np.asarray(betas)

    def first(ti, s):
        s = s.reshape(4, -1)
        n, y = s[:2], s[2:]
        c = coef(ti)[:, None]
        return np.concatenate((y - 2 * c[:2] * n + 2 * c[2:],
                               -beta * (n - n[::-1]))).ravel()

    def second(ti, s):
        s = s.reshape(4, -1)
        n, v = s[:2], s[2:]
        c = both(ti)[:, None]
        lam, dc = c[:2], c[4:]
        return np.concatenate((v, -2 * lam * v - 2 * dc[:2] * n + 2 * dc[2:]
                               - beta * (n - n[::-1]))).ravel()

    y0 = np.repeat([*n0, 0.0, 0.0], beta.size)
    a = solve_ivp(first, (t[0], t[-1]), y0, **kw)
    b = solve_ivp(second, (t[0], t[-1]), y0, **kw)
    assert a.success and b.success
    n_a, n_b = (r.y.reshape(4, beta.size, -1)[:2] for r in (a, b))
    return np.abs(n_a - n_b).max(axis=(0, 2))


def test_03_equation_forms_agree(fig1_case, pair3_case, pair5_case):
    checks = []
    _, series, _ = fig1_case
    gap = _dual_gap_single(series, 0.0)
    checks.append(("single", gap <= 1e-6, f"gap {gap:.2e}"))
    for name, case in (("detuned pair", pair3_case),
                       ("equal-frequency pair", pair5_case)):
        _, (ser1, ser2) = case
        worst = _dual_gaps_pair(ser1, ser2, (0.0,) + BETA_FAMILY).max()
        checks.append((name, worst <= 1e-6, f"worst gap {worst:.2e}"))
    _verdict("03 equation forms", checks)


def test_04_zero_coupling_reduction(pair5_case):
    (s1, s2), (ser1, ser2) = pair5_case
    pair = _quiet(evolve_coupled, ser1, ser2, s1, s2, 0.0, (0.0, 0.25))
    one = _quiet(evolve, ser1, s1, 0.0)
    two = _quiet(evolve, ser2, s2, 0.25)
    dev = max(np.abs(pair.occupations[0] - one.occupations[0]).max(),
              np.abs(pair.occupations[1] - two.occupations[0]).max())
    _verdict("04 decoupling", [
        ("beta=0 equals singles", dev <= 1e-8, f"dev {dev:.2e}"),
    ])


def test_05_self_oscillation(fig1_case, fig1_long_series):
    spec, series, traj = fig1_case
    t = series.t

    window = (t >= 10.0) & (t <= 20.0) & np.isfinite(series.ratio)
    _, variation = detect_stationarity(series.ratio[window])

    # lambda and D are built from |A|^2 +- |B|^2, so the occupation
    # oscillates at twice the frequency nu of the least-damped root pair
    nu = oscillatory_pair(_quiet(characteristic_roots, spec).roots)[1]
    target = np.pi / nu
    periods = {}
    for lo, hi in ((3.0, 8.0), (10.0, 20.0)):
        est = _quiet(estimate_period, t, traj.occupations[0], window=(lo, hi))
        periods[lo, hi] = (est.period, est.period / target - 1.0)

    _, long_series = fig1_long_series
    lt = long_series.t
    lwin = (lt >= 40.0) & (lt <= 50.0) & np.isfinite(long_series.ratio)
    _, l_variation = detect_stationarity(long_series.ratio[lwin])

    def period_check(lo, hi, tol):
        period, rel = periods[lo, hi]
        return (f"occupation period {lo:g}..{hi:g}", abs(rel) <= tol,
                f"measured {period:.4f} vs pi/nu {target:.4f} "
                f"({100 * rel:+.3f}%, 2*pi/Omega "
                f"{2.0 * np.pi / spec.omega_renormalized:.4f})")

    _verdict("05 self-oscillation", [
        ("ratio non-stationary 10..20", variation > 0.01,
         f"variation {variation:.3f}"),
        period_check(3.0, 8.0, 0.05),
        period_check(10.0, 20.0, 0.005),
        ("non-stationary at t=50", l_variation > 0.01,
         f"variation {l_variation:.3f}"),
    ])


def test_06_equal_temperature_equilibrium():
    # reference: the narrow-resonance limit of the stationary integral.  For
    # bosonic baths it is the Gibbs occupation of omega p^2/2 + Omega q^2/2
    # (the mean-force Gibbs state); for fermionic baths no equilibrium is
    # defined under the linearized convention, so it is only the weak-damping
    # limit of the same integral.  n at the bare omega is printed alongside.
    checks = []
    for eps, label in ((+1, "bosonic"), (-1, "fermionic")):
        spec = _quiet(_equal_T_system, eps)
        n_inf = asymptotic_occupation(spec)
        n_ref = resonance_occupation(spec)
        n_bare = equilibrium_occupation(spec.omega,
                                        spec.baths[0].temperature, eps)
        rel = (n_inf - n_ref) / n_ref
        checks.append((label, abs(rel) <= 0.02,
                       f"asymptote {n_inf:.4f} vs reference {n_ref:.4f} "
                       f"({100 * rel:+.3f}%; n at bare omega {n_bare:.4f})"))
    _verdict("06 equilibrium limit", checks)


def test_07_two_temperature_mixture():
    # reference: the narrow-resonance limit of the stationary integral, each
    # bath's occupation at nu = sqrt(omega Omega) weighted by its spectral
    # density there; the baths sit at different temperatures, so it is no
    # Gibbs state, only the alpha -> 0 limit of the same integral
    spec = _two_temperature_system()
    n_inf = asymptotic_occupation(spec)
    n_ref = resonance_occupation(spec)
    rel = (n_inf - n_ref) / n_ref
    _verdict("07 two-temperature limit", [
        ("asymptote vs narrow-resonance limit", abs(rel) <= 0.02,
         f"{n_inf:.6f} vs {n_ref:.6f} ({100 * rel:+.3f}%)"),
    ])


def test_08_discretized_bath_cross_check(weak_case):
    _, series, traj, oracle = weak_case
    report = compare(series.t, traj.occupations[0], oracle.t, oracle.n)
    _verdict("08 cross-check", [
        ("max |dev|", report.max_abs_dev <= 0.03,
         f"{report.max_abs_dev:.4f} (400 modes per bath, merged into 401)"),
    ])


def test_09_antiphase_synchronization(pair3_case):
    (s1, s2), (ser1, ser2) = pair3_case
    t = ser1.t
    window = (t >= 7.0) & (t <= 17.0)
    checks = []
    for beta in (0.1, 0.6):
        traj = _quiet(evolve_coupled, ser1, ser2, s1, s2, beta, (0.0, 0.0))
        corr = antiphase_metric(traj.occupations[0][window],
                                traj.occupations[1][window])
        checks.append((f"beta={beta:g}", corr < -0.5, f"corr {corr:+.3f}"))
    _verdict("09 anti-phase", checks)


def _first_order_dissipation(base, series, specs):
    """dE_i/dbeta at beta = 0 on the grid, from the uncoupled run alone.

    Linearizing the coupled equations dn_i/dt = y_i - 2 lambda_i n_i + 2 D_i,
    dy_i/dt = -beta (n_i - n_j) about the beta = 0 occupations n^0 gives
    d(dy_i)/dt = -(n^0_i - n^0_j), d(dn_i)/dt = dy_i - 2 lambda_i dn_i and
    dE_i = int 2 Omega_i lambda_i dn_i, all per unit beta.
    """
    t = series[0].t
    lam = [CubicSpline(t, ser.friction) for ser in series]
    gap = CubicSpline(t, base.occupations[0] - base.occupations[1])

    def rhs(ti, s):
        dn, dy = s[:2], s[2:]
        return [dy[0] - 2 * lam[0](ti) * dn[0], dy[1] - 2 * lam[1](ti) * dn[1],
                -gap(ti), gap(ti)]

    sol = solve_ivp(rhs, (t[0], t[-1]), [0.0] * 4, t_eval=t,
                    max_step=float(t[1] - t[0]), **_IVP_KW)
    assert sol.success
    return [cumulative_trapezoid(2 * spec.omega_renormalized * ser.friction
                                 * sol.y[i], t, initial=0.0)
            for i, (ser, spec) in enumerate(zip(series, specs))]


def _signs(values):
    signs = {"+" if v > 0 else "-" if v < 0 else "0" for v in values}
    return f"all {signs.pop()}" if len(signs) == 1 else "mixed signs"


def test_10_dissipation_ordering(pair5_case):
    (s1, s2), (ser1, ser2) = pair5_case
    t = ser1.t
    late = t >= 2.0
    base = _quiet(evolve_coupled, ser1, ser2, s1, s2, 0.0, (0.0, 0.0))
    # the sign of the coupling-induced shift is whatever first-order
    # response to the occupation gap n1 - n2 of the uncoupled run gives
    slope = [dE[-1] for dE in _first_order_dissipation(
        base, (ser1, ser2), (s1, s2))]

    def shift(beta):
        traj = _quiet(evolve_coupled, ser1, ser2, s1, s2, beta, (0.0, 0.0))
        return traj, [traj.dissipation[i] - base.dissipation[i]
                      for i in (0, 1)]

    margins, finals, ratios = [], ([], []), []
    for beta in (0.0,) + BETA_FAMILY:
        traj, (dE1, dE2) = shift(beta)
        E1, E2 = traj.dissipation
        margins.append(np.min((E2 - E1)[late]))
        if beta == 0.0:
            continue
        finals[0].append(dE1[-1])
        finals[1].append(dE2[-1])
        ratios.append(np.mean(np.abs(np.gradient(dE2, t)))
                      / np.mean(np.abs(np.gradient(dE1, t))))
    small = 1e-3
    linear = [dE[-1] / small for dE in shift(small)[1]]
    lin_dev = [abs(linear[i] / slope[i] - 1.0) for i in (0, 1)]

    def sign_check(i):
        return (f"coupling shifts E{i + 1} at t=20 with the first-order sign",
                all(np.sign(d) == np.sign(slope[i]) for d in finals[i]),
                f"dE{i + 1}/dbeta {slope[i]:+.3f}, measured deltas "
                + ", ".join(f"{v:+.4f}" for v in finals[i])
                + f" ({_signs(finals[i])})")

    _verdict("10 dissipation ordering", [
        ("E2 > E1 for t>=2, all betas", min(margins) > 0.0,
         f"min margin {min(margins):+.4f}"),
        sign_check(0),
        sign_check(1),
        (f"dE/dbeta at beta={small:g} vs first order", max(lin_dev) <= 0.05,
         "measured " + ", ".join(f"{v:+.3f}" for v in linear)
         + " vs " + ", ".join(f"{v:+.3f}" for v in slope)
         + f" (worst {100 * max(lin_dev):.1f}%)"),
        ("|mean dDeltaE2/dt| > |mean dDeltaE1/dt|", min(ratios) > 1.0,
         "ratios " + ", ".join(f"{v:.2f}" for v in ratios)),
    ])


# --- item 11: numerical hygiene

def _constant_series(t, lam0, dif0):
    lam = np.full(t.size, lam0)
    dif = np.full(t.size, dif0)
    half = dif / 2.0
    return CoefficientSeries(
        t=t, friction=lam, diffusion=dif, diffusion_parts=(half, half),
        memory_integrals=(half, half), ratio=dif / lam,
        amplitudes=None, quadrature_report=None,
    )


def _rk4_error(dt, lam0=0.9, dif0=0.45, n0=2.0, t_max=5.0):
    spec = make_system(1.0, BathSpec(+1, 1e-3, 10.0, 1.0),
                       BathSpec(+1, 1e-3, 10.0, 1.0))
    t = np.arange(0.0, t_max + 0.5 * dt, dt)
    traj = evolve(_constant_series(t, lam0, dif0), spec, n0)
    exact = dif0 / lam0 + (n0 - dif0 / lam0) * np.exp(-2.0 * lam0 * t)
    return np.abs(traj.occupations[0] - exact).max()


def test_11_numerical_hygiene(tmp_path):
    ratio = _rk4_error(0.1) / _rk4_error(0.05)

    # self-convergence of the memory integrals, judged against their own
    # reported error budget: the default panels against the ray's panels,
    # which carry the static parts and the cross terms, bisected once more
    spec = make_system(1.0, BathSpec(+1, 0.01, 10.0, 1.0),
                       BathSpec(+1, 0.01, 10.0, 1.0))
    ev = KernelEvaluator(characteristic_roots(spec), spec)
    t = np.linspace(0.0, 2.0, 41)
    runs = []
    with pytest.MonkeyPatch.context() as patch:
        for finer in (False, True):
            if finer:
                ray = quadrature._ray_edges

                def bisected(*args):
                    edges = ray(*args)
                    mid = 0.5 * (edges[1:] + edges[:-1])
                    return np.sort(np.concatenate([edges, mid]))

                patch.setattr(quadrature, "_ray_edges", bisected)
            integ = MemoryIntegrator(ev)
            runs.append((integ.integrate(t), integ.last_report))
    (out_c, rep_c), (out_f, rep_f) = runs
    worst_cover = 0.0
    worst_abs = 0.0
    for name in out_c:
        If, dIf = out_f[name]
        ref = np.abs(If).max()
        dref = max(spec.omega_renormalized * ref, np.abs(dIf).max())
        tails = rep_c.tail_bound[name] + rep_f.tail_bound[name]
        rel = rep_c.max_rel_error + rep_f.max_rel_error
        for ch, scale in ((0, np.maximum(np.abs(If), 1e-6 * ref)),
                          (1, np.maximum(np.abs(dIf), 1e-3 * dref))):
            diff = np.abs(out_c[name][ch] - out_f[name][ch])
            worst_cover = max(worst_cover,
                              (diff / (rel * scale + tails)).max())
        worst_abs = max(worst_abs,
                        np.abs(out_c[name][0] - If).max() / ref)

    # determinism: a two-point sweep must produce byte-identical indexes
    # no matter how many worker processes compute it
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[oscillator]\nOmega = 1.0\n"
        "[bath.1]\nstatistics = bosonic\nalpha = 1e-3\n"
        "gamma_over_Omega = 10\nkT_over_hOmega = 1.0\n"
        "[bath.2]\nstatistics = bosonic\nalpha = 1e-3\n"
        "gamma_over_Omega = 12\nkT_over_hOmega = 0.5\n"
        "[run]\nt_max = 2.0\ndt = 0.05\n"
        "[sweep]\nbath.1.alpha = 1e-3, 2e-3\n"
    )
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        code = main(["--config", str(cfg), "--out", str(out),
                     "--workers", str(workers), "sweep"])
        assert code == 0
        outputs.append((out / "sweep_index.csv").read_bytes())

    _verdict("11 numerical hygiene", [
        ("RK4 order (halving ratio)", 13.0 <= ratio <= 19.0,
         f"ratio {ratio:.1f}"),
        ("quadrature self-convergence", worst_cover <= 1.0 and
         worst_abs <= 1e-4,
         f"worst budget use {worst_cover:.3f}, "
         f"value drift {worst_abs:.2e} of max"),
        ("sweep determinism 1 vs 2 workers", outputs[0] == outputs[1],
         f"{len(outputs[0])} bytes"),
    ])
