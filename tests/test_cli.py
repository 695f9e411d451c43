import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import openosc
from openosc.cli import (
    _quad_summary,
    _second_order_resolve,
    config_sweep,
    config_system,
    has_second_system,
    main,
    parse_config_text,
    write_csv,
)
from openosc.errors import ConfigError, DomainError
from openosc.model import BathSpec
from openosc.transport import quadrature
from openosc.transport.asymptotics import resonance_occupation
from openosc.transport.coefficients import _local_cubic

WEAK_SINGLE = """\
[oscillator]
Omega = 1.0

[bath.1]
statistics = bosonic
alpha = 1e-3
gamma_over_Omega = 10
kT_over_hOmega = 1.0

[bath.2]
statistics = bosonic
alpha = 1e-3
gamma_over_Omega = 12
kT_over_hOmega = 0.5

[run]
t_max = 2.0
dt = 0.05
"""

WEAK_PAIR = WEAK_SINGLE + """
[oscillator2]
Omega = 2.0

[bath2.1]
statistics = bosonic
alpha = 1e-3
gamma_over_Omega = 6
kT_over_hOmega = 0.5

[bath2.2]
statistics = bosonic
alpha = 1e-3
gamma_over_Omega = 8
kT_over_hOmega = 0.25

[coupling]
beta = 0.2
"""


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def test_schema_rejections():
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config_text("[oscillators]\nOmega = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[oscillator]\nomega = 1\n")
    # the memory integrals have no cutoff knob any more, nor a section
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config_text("[quadrature]\nw_max_factor = 1.0\n")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config_text("[oscillator\nOmega = 1\n")
    with pytest.raises(ConfigError, match="not a number"):
        config_system(parse_config_text(WEAK_SINGLE.replace("1e-3", "fast")))


def test_per_oscillator_normalization():
    raw = parse_config_text(WEAK_PAIR)
    s2 = config_system(raw, second=True)
    # gamma_over_Omega and kT_over_hOmega scale with the second oscillator
    assert s2.baths[0].gamma == pytest.approx(12.0, rel=1e-12)
    assert s2.baths[0].temperature == pytest.approx(1.0, rel=1e-12)
    assert s2.omega_renormalized == 2.0


def test_second_system_must_be_complete():
    text = WEAK_SINGLE + "\n[oscillator2]\nOmega = 2.0\n"
    with pytest.raises(ConfigError, match="second system"):
        has_second_system(parse_config_text(text))
    assert has_second_system(parse_config_text(WEAK_SINGLE)) is False
    assert has_second_system(parse_config_text(WEAK_PAIR)) is True


def test_numerics_validation():
    # the friction normalization |A|^2 is fixed: no [kernel] section; the
    # memory integrals' accuracy contract is quadrature.RTOL: no
    # [quadrature] section
    for text in ("[kernel]\nabs_A_power = 2\n", "[quadrature]\nrtol = 1e-5\n"):
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config_text(text)


@pytest.mark.parametrize("extra, message", [
    # a config written for a settable tolerance fails loudly
    ("\n[quadrature]\nrtol = 1e-7\n", "unknown config section [quadrature]"),
    # the error names the lines the section held
    ("\n[quadrature]\nrtol = inf\n", "rtol = inf"),
    ("\n[quadrature]\nrtol = nan\n", "rtol = nan"),
    # the bundled presets are run by `scenario NAME`; [run] names none
    ("scenario = fig1\n", "unknown key 'scenario' in section [run]"),
])
def test_config_error_exits_2(tmp_path, capsys, extra, message):
    cfg = tmp_path / "weak.ini"
    cfg.write_text(WEAK_SINGLE + extra)
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "coeffs"]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "coefficients.csv").exists()


_BATH2 = """[bath.2]
statistics = bosonic
alpha = 1e-3
gamma_over_Omega = 12
kT_over_hOmega = 0.5

"""


@pytest.mark.parametrize("command, text, message", [
    ("coeffs", WEAK_SINGLE.replace("alpha = 1e-3\n", "", 1),
     "missing required key 'alpha' in [bath.1]"),
    ("coeffs", WEAK_SINGLE.replace(_BATH2, ""),
     "missing required section [bath.2]"),
    ("coeffs", WEAK_SINGLE.replace("statistics = bosonic\n", "", 1),
     "missing 'statistics' in [bath.1]"),
    ("coeffs", WEAK_SINGLE.replace("Omega = 1.0", "Omega = 0"),
     "[oscillator] Omega = 0.0 must be a positive finite number"),
    # a non-finite Omega is named as itself, before it scales the baths'
    # cutoffs and temperatures
    ("coeffs", WEAK_SINGLE.replace("Omega = 1.0", "Omega = nan"),
     "[oscillator] Omega = nan must be a positive finite number"),
    ("coeffs", WEAK_SINGLE.replace("Omega = 1.0", "Omega = inf"),
     "[oscillator] Omega = inf must be a positive finite number"),
    ("coupled", WEAK_PAIR.replace("Omega = 2.0", "Omega = nan"),
     "[oscillator2] Omega = nan must be a positive finite number"),
    ("coupled", WEAK_PAIR.replace("Omega = 2.0", "Omega = inf"),
     "[oscillator2] Omega = inf must be a positive finite number"),
    ("evolve", WEAK_SINGLE + "n0 = 0.1, x\n",
     "[run] n0 = '0.1, x' is not a number list"),
    ("sweep", WEAK_SINGLE,
     "sweep requires a [sweep] section with parameter paths"),
    ("sweep", WEAK_SINGLE + "\n[sweep]\nbath.1.alpha = ,\n",
     "[sweep] bath.1.alpha lists no values"),
    ("coupled", WEAK_SINGLE,
     "coupled needs [oscillator2]/[bath2.1]/[bath2.2]"),
], ids=["no-alpha", "no-bath.2", "no-statistics", "Omega-0", "Omega-nan",
        "Omega-inf", "Omega2-nan", "Omega2-inf", "n0-list", "no-sweep",
        "sweep-no-values", "coupled-one-system"])
def test_config_error_of_a_command_exits_2(tmp_path, capsys, command, text,
                                           message):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_sign_change_of_the_friction_denominator_exits_3(tmp_path, capsys):
    # fig1's baths at alpha_f 0.3: X_f = |A|^2 - |B|^2 changes sign between
    # grid times, first near t = 0.600, so lambda_f passes a pole there
    cfg = tmp_path / "fig1.ini"
    cfg.write_text("[oscillator]\nOmega = 1.0\n\n"
                   "[bath.1]\nstatistics = fermionic\nalpha = 0.30\n"
                   "gamma_over_Omega = 10\nkT_over_hOmega = 1.0\n\n"
                   "[bath.2]\nstatistics = bosonic\nalpha = 0.05\n"
                   "gamma_over_Omega = 15\nkT_over_hOmega = 0.1\n\n"
                   "[run]\nt_max = 5\ndt = 0.02\n")
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["--config", str(cfg), "--out", str(out), "coeffs"]) == 3
    assert "changes sign between t = 0.6 and 0.62" in capsys.readouterr().err
    assert not (out / "coefficients.csv").exists()


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    # the weak config's budget reads about 1e-10: below a contract of 1e-15
    # the finished series raises QuadratureError, and nothing is written
    monkeypatch.setattr(quadrature, "RTOL", 1e-15)
    cfg = tmp_path / "weak.ini"
    cfg.write_text(WEAK_SINGLE)
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "coeffs"]) == 3
    assert "exceeds rtol 1e-15" in capsys.readouterr().err
    assert not (out / "coefficients.csv").exists()


def test_rtol_is_not_an_option(tmp_path):
    # the tolerance has one source, quadrature.RTOL
    with pytest.raises(SystemExit) as info:
        main(["--out", str(tmp_path), "--rtol", "1e-5", "validate"])
    assert info.value.code == 2


def test_sweep_paths():
    raw = parse_config_text(WEAK_SINGLE + "\n[sweep]\nbath.1.alpha = 1e-3, 2e-3\n"
                            "oscillator.Omega = 1.0, 1.5, 2.0\n")
    entries = config_sweep(raw)
    assert [p for p, _ in entries] == ["bath.1.alpha", "oscillator.Omega"]
    assert entries[0][1] == [1e-3, 2e-3]
    for bad in ("run.t_max = 1, 2", "bath.1.statistics = 1, -1",
                "nosuch.key = 1", "bath.1.alpha = a, b", "sweep.x = 1"):
        with pytest.raises(ConfigError):
            config_sweep(parse_config_text(f"[sweep]\n{bad}\n"))
    # a sweep point runs the first system alone, so these would give rows
    # that differ only in the swept column; quadrature.rtol names no key
    for path in ("coupling.beta", "oscillator2.Omega", "bath2.1.alpha",
                 "quadrature.rtol"):
        with pytest.raises(ConfigError, match=repr(path)):
            config_sweep(parse_config_text(f"[sweep]\n{path} = 1, 2\n"))


def test_sweep_exits_2_on_a_path_no_point_reads(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(WEAK_PAIR + "\n[sweep]\ncoupling.beta = 0.1, 0.5\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 2
    assert "'coupling.beta'" in capsys.readouterr().err
    assert not (out / "sweep_index.csv").exists()


def test_write_csv_format(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [np.array([1.0, 0.1]), np.array([2.0, 1e-9])])
    header, rows = _read_csv(path)
    assert header == ["a", "b"]
    assert rows[0] == ["1", "2"]
    assert rows[1] == ["0.1", "1e-09"]


def test_write_csv_rejects_ragged_columns(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(DomainError, match="unequal lengths"):
        write_csv(path, ["a", "b"], [np.zeros(3), np.zeros(5)])
    assert not path.exists()


def test_write_csv_matches_the_per_value_formatter(tmp_path):
    # the row template must write what format(v, ".12g") wrote value by value
    rng = np.random.default_rng(5)
    magnitudes = 10.0 ** rng.uniform(-300.0, 300.0, 400)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, -1e16]
    cols = [np.concatenate([special, rng.choice([-1.0, 1.0], 400) * magnitudes]),
            np.concatenate([special[::-1], rng.standard_normal(400)])]
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], cols)
    expected = "a,b\n" + "".join(
        f"{format(float(a), '.12g')},{format(float(b), '.12g')}\n"
        for a, b in zip(*cols))
    assert path.read_text() == expected


def test_main_requires_config_for_runs(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "coeffs"]) == 2
    assert "requires --config" in capsys.readouterr().err
    missing = tmp_path / "nope.ini"
    assert main(["--config", str(missing), "--out", str(tmp_path), "evolve"]) == 2


def test_main_rejects_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit):
        main(["--out", str(tmp_path), "scenario", "fig9"])


def test_evolve_end_to_end(tmp_path):
    cfg = tmp_path / "weak.ini"
    cfg.write_text(WEAK_SINGLE)
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "evolve"]) == 0
    header, rows = _read_csv(out / "coefficients.csv")
    assert header == ["t", "lambda", "D", "D1_part", "D2_part", "I1", "I2", "ratio"]
    assert len(rows) == 41
    header, rows = _read_csv(out / "trajectory.csv")
    assert header == ["t", "n1", "dn1_dt"]
    assert float(rows[0][1]) == 0.0
    header, rows = _read_csv(out / "observables.csv")
    assert header == ["name", "value", "window_lo", "window_hi", "tolerance",
                      "status"]
    names = [r[0] for r in rows]
    assert "n_final" in names and "envelope_exceeded" in names
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["command"] == "evolve"
    assert meta["resolved_config"]["oscillator"]["Omega"] == "1.0"
    assert meta["numerics"] == {"rtol": 1e-7}
    assert "timestamp" not in meta
    quad = meta["quadrature"]
    assert sorted(quad) == ["max_rel_error", "n_panels_total",
                            "ray_kept_fraction"]
    for key in ("n_panels_total", "max_rel_error"):
        assert math.isfinite(quad[key])
    assert quad["n_panels_total"] > 0
    assert 0.0 < quad["ray_kept_fraction"] <= 1.0


@pytest.mark.parametrize("first, gamma2", [("fermionic", "12"), ("bosonic", "10")],
                         ids=["mixed", "equal-cutoffs"])
def test_evolve_at_zero_coupling_keeps_n0(tmp_path, first, gamma2):
    # both alpha = 0: a mixed system's blend weight p and equal cutoffs'
    # degenerate roots used to stop the run (exit 2 and 3)
    cfg = tmp_path / "free.ini"
    cfg.write_text(
        WEAK_SINGLE.replace("alpha = 1e-3", "alpha = 0")
        .replace("bosonic", first, 1)
        .replace("gamma_over_Omega = 12", f"gamma_over_Omega = {gamma2}")
        + "n0 = 0.25\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "evolve"]) == 0
    _, rows = _read_csv(out / "trajectory.csv")
    assert {r[1] for r in rows} == {"0.25"}
    header, rows = _read_csv(out / "coefficients.csv")
    for name in ("lambda", "D", "I1", "I2"):
        assert {float(r[header.index(name)]) for r in rows} == {0.0}


def test_summary_reports_the_rays_kept_fraction(fig1_case):
    # on fig1's preset grid the ray's tables leave out the nodes whose
    # e^{iwt} has underflowed against the rest of their group
    _, series, _ = fig1_case
    assert _quad_summary(series.quadrature_report)["ray_kept_fraction"] < 1.0


@pytest.mark.parametrize("key, value", [("t_max", "nan"), ("t_max", "inf"),
                                        ("dt", "nan")])
def test_run_grid_must_be_finite(tmp_path, capsys, key, value):
    # np.arange used to raise a bare ValueError (exit 1) on these
    cfg = tmp_path / "weak.ini"
    line = {"t_max": "t_max = 2.0", "dt": "dt = 0.05"}[key]
    cfg.write_text(WEAK_SINGLE.replace(line, f"{key} = {value}"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "run"),
                 "coeffs"]) == 2
    assert f"[run] {key} = {value}" in capsys.readouterr().err


def test_scenario_grid_must_be_finite(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "scenario", "fig1", "--t-max",
                 "nan"]) == 2
    assert "t_max = nan" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["fig2", "fig6", "fig8"])
def test_one_time_grid_is_too_short_to_step(tmp_path, capsys, name):
    # t_max < dt leaves the grid [0.0]: uniform, but one time short
    assert main(["--out", str(tmp_path), "scenario", name, "--t-max", "0.01",
                 "--dt", "0.02"]) == 2
    assert "evolution needs at least two times; got 1" in capsys.readouterr().err


def test_evolve_on_one_time_is_too_short(tmp_path, capsys):
    cfg = tmp_path / "weak.ini"
    cfg.write_text(WEAK_SINGLE.replace("t_max = 2.0", "t_max = 0.01"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "run"),
                 "evolve"]) == 2
    assert "evolution needs at least two times; got 1" in capsys.readouterr().err


def test_coupled_end_to_end(tmp_path):
    cfg = tmp_path / "pair.ini"
    cfg.write_text(WEAK_PAIR)
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "coupled"]) == 0
    header, rows = _read_csv(out / "trajectory.csv")
    assert header == ["t", "n1", "n2", "dn1_dt", "dn2_dt"]
    header, rows = _read_csv(out / "energies.csv")
    assert header == ["t", "E1", "E2"]
    assert (out / "coefficients_system1.csv").exists()
    assert (out / "coefficients_system2.csv").exists()
    # the synchronization window needs t >= 7; this short run records nothing
    header, rows = _read_csv(out / "observables.csv")
    assert rows == []
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["beta"] == 0.2


def test_coupled_rejects_more_than_two_initial_occupations(tmp_path, capsys):
    cfg = tmp_path / "pair.ini"
    cfg.write_text(WEAK_PAIR.replace("dt = 0.05\n",
                                     "dt = 0.05\nn0 = 0.1, 0.2, 0.3\n"))
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "coupled"]) == 2
    assert "n0 = '0.1, 0.2, 0.3'" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("command", ["evolve", "sweep"])
def test_single_system_runs_reject_two_initial_occupations(tmp_path, capsys,
                                                           command):
    # one oscillator steps from one n0; coupled takes one per oscillator
    text = WEAK_SINGLE.replace("dt = 0.05\n", "dt = 0.05\nn0 = 0.5, 0.9\n")
    if command == "sweep":
        text += "\n[sweep]\nbath.1.alpha = 1e-3, 2e-3\n"
    cfg = tmp_path / "weak.ini"
    cfg.write_text(text)
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), command]) == 2
    assert "n0 = '0.5, 0.9'" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()
    assert not (out / "sweep_index.csv").exists()


def test_coupled_steps_from_both_initial_occupations(tmp_path):
    cfg = tmp_path / "pair.ini"
    cfg.write_text(WEAK_PAIR.replace("dt = 0.05\n", "dt = 0.05\nn0 = 0.5, 0.9\n"))
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "coupled"]) == 0
    _, rows = _read_csv(out / "trajectory.csv")
    assert (float(rows[0][1]), float(rows[0][2])) == (0.5, 0.9)


def test_asymptotics_end_to_end(tmp_path):
    cfg = tmp_path / "weak.ini"
    cfg.write_text(WEAK_SINGLE)
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "asymptotics"]) == 0
    header, rows = _read_csv(out / "observables.csv")
    names = [r[0] for r in rows]
    assert "system1_asymptotic_occupation" in names
    assert "system1_resonance_occupation" in names
    vals = {r[0]: float(r[1]) for r in rows}
    total = (vals["system1_bath1_integral"] + vals["system1_bath2_integral"])
    assert vals["system1_asymptotic_occupation"] == pytest.approx(total, rel=1e-12)
    assert vals["system1_resonance_occupation"] == pytest.approx(
        resonance_occupation(config_system(parse_config_text(WEAK_SINGLE))),
        rel=1e-12)
    # each bath integral's error estimate, within the accuracy contract
    meta = json.loads((out / "run_metadata.json").read_text())
    errors = meta["stationary_error"]["system1"]
    assert sorted(errors) == ["bath1_integral", "bath2_integral"]
    for name, err in errors.items():
        assert 0.0 <= err <= quadrature.RTOL * vals[f"system1_{name}"]


@pytest.mark.parametrize("uncoupled", ["fermionic", "bosonic"])
def test_asymptotics_with_an_uncoupled_channel(tmp_path, uncoupled):
    # p = 0 or 1 leaves the stationarity residual undefined; the other rows
    # are still written
    section = {"fermionic": "[bath.1]", "bosonic": "[bath.2]"}[uncoupled]
    head, _, tail = WEAK_SINGLE.replace("bosonic", "fermionic", 1).partition(
        section)
    cfg = tmp_path / "mixed.ini"
    cfg.write_text(head + section + tail.replace("alpha = 1e-3", "alpha = 0", 1))
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "asymptotics"]) == 0
    _, rows = _read_csv(out / "observables.csv")
    row = {r[0]: r[1:] for r in rows}
    assert row["system1_stationarity_residual"][0] == "nan"
    assert row["system1_stationarity_residual"][-1] == "undefined"
    integrals = [float(row[f"system1_bath{i}_integral"][0]) for i in (1, 2)]
    assert integrals[0 if uncoupled == "fermionic" else 1] == 0.0
    assert max(integrals) > 0.0


def test_asymptotics_integrates_each_bath_once(tmp_path, monkeypatch):
    # a mixed-statistics system has every row: the bath integrals, their
    # sum and the stationarity residual.  All of them come from one build
    # of the static parts, which covers both baths
    from openosc.transport import asymptotics, quadrature

    calls = []
    integrate = quadrature.integrate_static

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_static", counted)
    monkeypatch.setattr(asymptotics, "integrate_static", counted)
    cfg = tmp_path / "mixed.ini"
    cfg.write_text(WEAK_SINGLE.replace("bosonic", "fermionic", 1))
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "asymptotics"]) == 0
    _, rows = _read_csv(out / "observables.csv")
    assert "system1_stationarity_residual" in [r[0] for r in rows]
    assert len(calls) == 1


def test_scenario_runs_with_overrides(tmp_path):
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["--out", str(out), "scenario", "fig2",
                     "--t-max", "1.0", "--dt", "0.05"])
    assert code == 0
    header, rows = _read_csv(out / "trajectory.csv")
    assert header == ["t", "n1", "dn1_dt"]
    assert len(rows) == 21
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["scenario"]["t_max"] == 1.0


def test_sweep_end_to_end(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(WEAK_SINGLE + "\n[sweep]\nbath.1.alpha = 1e-3, 2e-3\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    header, rows = _read_csv(out / "sweep_index.csv")
    assert header == ["index", "bath.1.alpha", "n_final", "n_tail_mean",
                      "period", "status", "message"]
    assert [r[0] for r in rows] == ["0", "1"]
    assert all(r[-2:] == ["ok", ""] for r in rows)
    assert float(rows[1][1]) == 2e-3
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["sweep"]["points"] == 2


class _InlinePool:
    """A ProcessPoolExecutor stand-in that records its size and maps in
    process: no worker is started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("values, workers, pools", [
    ("1e-3, 2e-3", 64, [2]),
    ("1e-3", 8, []),  # a one-point sweep runs in process
])
def test_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch,
                                                  values, workers, pools):
    import concurrent.futures

    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _InlinePool)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(WEAK_SINGLE + f"\n[sweep]\nbath.1.alpha = {values}\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out),
                 "--workers", str(workers), "sweep"]) == 0
    assert _InlinePool.sizes == pools
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["sweep"]["workers"] == (pools or [1])[0]
    _, rows = _read_csv(out / "sweep_index.csv")
    assert [r[-2] for r in rows] == ["ok"] * len(values.split(","))


def test_failed_sweep_point_carries_its_message(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(WEAK_SINGLE + "\n[sweep]\nbath.1.alpha = 1e-3, -1\n")
    out = tmp_path / "run"
    assert main(["--config", str(cfg), "--out", str(out), "sweep"]) == 0
    with open(out / "sweep_index.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    point = [dict(zip(header, row)) for row in rows]
    assert [p["status"] for p in point] == ["ok", "error:DomainError"]
    assert point[0]["message"] == ""
    with pytest.raises(DomainError) as info:
        BathSpec(statistics=+1, alpha=-1.0, gamma=10.0, temperature=1.0)
    assert point[1]["message"] == str(info.value)
    meta = json.loads((out / "run_metadata.json").read_text())
    assert meta["sweep"]["failed"] == 1


def test_one_point_sweep_matches_evolve(tmp_path):
    cfg = tmp_path / "weak.ini"
    cfg.write_text(WEAK_SINGLE)
    sweep_cfg = tmp_path / "sweep.ini"
    sweep_cfg.write_text(WEAK_SINGLE + "\n[sweep]\nbath.1.alpha = 1e-3\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "evolve"),
                 "evolve"]) == 0
    assert main(["--config", str(sweep_cfg), "--out", str(tmp_path / "sweep"),
                 "sweep"]) == 0
    _, rows = _read_csv(tmp_path / "evolve" / "observables.csv")
    observed = {r[0]: r[1] for r in rows}
    header, rows = _read_csv(tmp_path / "sweep" / "sweep_index.csv")
    point = dict(zip(header, rows[0]))
    assert point["status"] == "ok"
    assert point["n_final"] == observed["n_final"]
    assert point["n_tail_mean"] == observed["n_tail_mean"]
    assert point["period"] == observed["occupation_period"]


def test_validate_suite_passes(tmp_path, capsys):
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["--out", str(out), "validate"])
    assert code == 0
    assert "all passing" in capsys.readouterr().out
    header, rows = _read_csv(out / "observables.csv")
    assert len(rows) == 9
    assert all(r[-1] == "pass" for r in rows)


def test_second_order_resolve_matches_array_rk4():
    # the float loop against the same RK4 on 2-element arrays: same stages,
    # same order of operations, so the trajectories agree bit for bit
    t = np.arange(0.0, 6.0 + 1e-9, 0.02)
    series = SimpleNamespace(t=t, friction=0.7 + 0.2 * np.sin(3.0 * t),
                             diffusion=0.3 + 0.1 * np.cos(t))
    base = SimpleNamespace(occupations=[np.zeros_like(t)],
                           rates=[np.ones_like(t)])
    k0 = 50
    h = t[1] - t[0]
    lam = _local_cubic(series.friction, 2)[0]
    dlam, ddif = _local_cubic([series.friction, series.diffusion], 2,
                              derivative=True) / h

    def rhs(k, j, s):
        n, v = s
        return np.array([
            v,
            -2.0 * lam[k, j] * v - 2.0 * dlam[k, j] * n + 2.0 * ddif[k, j],
        ])

    state = np.array([base.occupations[0][k0], base.rates[0][k0]])
    want = [state[0]]
    for k in range(k0, t.size - 1):
        k1 = rhs(k, 0, state)
        k2 = rhs(k, 1, state + h / 2 * k1)
        k3 = rhs(k, 1, state + h / 2 * k2)
        k4 = rhs(k, 2, state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        want.append(state[0])
    ref, got = _second_order_resolve(series, base, k0)
    assert np.array_equal(ref, base.occupations[0][k0:])
    assert np.array_equal(got, want)


def _run_python(code, cwd):
    """Run ``code`` in a fresh interpreter that imports this openosc."""
    src = str(Path(openosc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def test_cli_import_loads_no_scipy(tmp_path):
    proc = _run_python(
        "import sys, openosc.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool(tmp_path):
    # the pool serves only `sweep --workers N`; it is imported there
    proc = _run_python(
        "import sys, openosc.cli\n"
        "print('concurrent.futures.process' in sys.modules)", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_commands_run_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import fail
    proc = _run_python(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from openosc.cli import main\n"
        "for argv in (['validate'], ['scenario', 'fig2', '--t-max', '2'],\n"
        "             ['scenario', 'fig8', '--t-max', '2']):\n"
        "    print(main(['--out', 'out'] + argv))\n",
        tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["0", "0", "0"]
